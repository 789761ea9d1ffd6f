import random
import re
from itertools import compress
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gotas import Subset, Universe, UniverseMismatchError
from gotas.universe import (_points, canonical_order, flags, from_flags, random_columns,
                            union_over)

from strategies import universe_with_subsets


def test_construction_keeps_input_order():
    u = Universe(["a", "b", "c", "d"])
    assert u.size == 4
    assert u.labels == ("a", "b", "c", "d")
    assert [u.index(label) for label in u.labels] == [0, 1, 2, 3]


def test_singleton_universe():
    assert Universe(["x"]).size == 1


def test_duplicate_label_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Universe(["a", "a"])


def test_empty_universe_rejected():
    with pytest.raises(ValueError):
        Universe([])


def test_subset_of_named_elements():
    u = Universe(["a", "b", "c", "d"])
    assert u.subset(["a", "c"]).members() == ("a", "c")
    assert u.subset([]).members() == ()
    # input order and repeats are irrelevant
    assert u.subset(["c", "a", "a"]) == u.subset(["a", "c"])


def test_subset_unknown_label():
    u = Universe(["a", "b"])
    with pytest.raises(ValueError, match="unknown label 'z'"):
        u.subset(["z"])
    with pytest.raises(ValueError, match="unknown label 'z'"):
        "z" in u.full()


def test_membership_agrees_with_the_members_on_seeded_subsets():
    rng = random.Random(45)
    for n in (1, 5, 30):
        u = Universe(_labels(n))
        for _ in range(20):
            s = u.from_bits(rng.getrandbits(n))
            assert [x in s for x in u.labels] == [x in s.members() for x in u.labels]


def test_set_algebra_basics():
    u = Universe(["a", "b", "c", "d"])
    ac = u.subset(["a", "c"])
    assert ac.complement() == u.subset(["b", "d"])
    assert u.full() - u.subset(["a", "b", "c"]) == u.subset(["d"])
    assert u.empty().cardinality() == 0
    assert (ac | u.subset(["b"])).members() == ("a", "b", "c")
    assert (ac & u.subset(["c", "d"])) == u.subset(["c"])
    assert u.subset(["a"]).is_subset(ac)
    assert not ac.is_subset(u.subset(["a"]))
    assert "a" in ac and "b" not in ac
    assert str(ac) == "{a, c}"
    assert str(u.empty()) == "{}"


def test_subset_hashes_iterates_and_compares_as_a_value():
    u = Universe(["a", "b", "c"])
    ac = u.subset(["a", "c"])
    assert {ac: 1, u.subset(["c", "a"]): 2} == {ac: 2}  # equal subsets make one key
    assert list(ac) == ["a", "c"] and len(ac) == 2
    assert (ac == 1) is False  # Subset.__eq__ gives NotImplemented
    assert repr(ac) == "Subset({a, c})" and repr(u.empty()) == "Subset({})"
    with pytest.raises(ValueError, match="outside the universe"):
        Subset(u, 0b1000)


def test_mixed_universes_rejected():
    u1 = Universe(["a", "b"])
    u2 = Universe(["a", "b"])
    with pytest.raises(UniverseMismatchError):
        u1.subset(["a"]).union(u2.subset(["b"]))


def test_subsets_enumeration():
    u = Universe(["a", "b"])
    assert [u.from_bits(b).members() for b in range(4)] == [(), ("a",), ("b",), ("a", "b")]


@given(universe_with_subsets())
def test_complement_involution(t):
    _, a, _ = t
    assert a.complement().complement() == a


@given(universe_with_subsets())
def test_mutual_inclusion_is_equality(t):
    _, a, b = t
    assert (a.is_subset(b) and b.is_subset(a)) == (a == b)


@given(universe_with_subsets())
def test_cardinality_inclusion_exclusion(t):
    _, a, b = t
    assert (a | b).cardinality() + (a & b).cardinality() == a.cardinality() + b.cardinality()


def _labels(n):
    return [f"e{i}" for i in range(n)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=60))))
def test_canonical_order_is_cardinality_then_universe_order(t):
    n, family = t
    u = Universe(_labels(n))
    want = sorted(family, key=lambda b: (b.bit_count(), [x for x in range(n) if b >> x & 1]))
    assert canonical_order(map(u.reverse, family)) == [u.reverse(b) for b in want]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_rendered_labels_match_a_scan_of_the_points(t):
    n, bits = t
    u = Universe(_labels(n))
    want = tuple(label for pos, label in enumerate(u.labels) if bits >> pos & 1)
    assert u.reverse(u.reverse(bits)) == bits
    assert tuple(compress(u.labels, flags(bits, n))) == want
    assert u.from_bits(bits).members() == want
    assert str(u.from_bits(bits)) == "{" + ", ".join(want) + "}"


# Labels a listing must copy as they are: braces, quotes, a backslash, a
# control character, non-ASCII, the empty label and one holding ", ".
_ODD_LABELS = ["{", "}", '"', "\\", "\x01", "é", "中文", "", "x, ", "{a}"]


def _half_values(rng, firsts, lasts):
    """Masks over 12 points (two halves of 6) whose first halves take each of
    ``firsts`` and last halves each of ``lasts``, paired at random."""
    k = max(len(firsts), len(lasts), 40)
    firsts, lasts = ([*values, *rng.choices(values, k=k - len(values))] for values in (firsts, lasts))
    rng.shuffle(firsts)
    rng.shuffle(lasts)
    return [f << 6 | v for f, v in zip(firsts, lasts)]


# At 12 points each half is written from a table of all 64 of its values
# when at least 32 occur, else value by value: every value, a few, and
# exactly 32 in the first half with 31 in the last.
_HALVES = {
    "every": (range(64), range(64)),
    "few": ([0, 5, 63], [1, 40]),
    "threshold": (range(0, 64, 2), range(1, 63, 2)),
}


@pytest.mark.parametrize("n, halves", [
    *(pytest.param(n, None, id=str(n)) for n in (1, 2, 3, 12, 33)),
    *(pytest.param(12, name, id=f"12-{name}") for name in _HALVES)])
def test_texts_is_the_text_of_each_mask_joined_by_newlines(n, halves):
    rng = random.Random(n)
    labels = rng.sample(_ODD_LABELS, min(n, len(_ODD_LABELS))) + _labels(n)[len(_ODD_LABELS):]
    rng.shuffle(labels)
    u = Universe(labels)
    if halves is None:
        masks = [0, u.full_mask, *(rng.getrandbits(n) for _ in range(300))]
    else:
        firsts, lasts = _HALVES[halves]
        masks = _half_values(rng, firsts, lasts)
        assert ({r >> 6 for r in masks}, {r & 63 for r in masks}) == (set(firsts), set(lasts))
    masks += rng.sample(masks, 20)  # repeats
    assert u.texts(masks).split("\n") == [str(u.from_bits(u.reverse(r))) for r in masks]
    assert u.texts([0]) == "{}"
    assert u.texts([]) == ""


def test_canonical_order_is_cardinality_then_descending_reversed_mask():
    rng = random.Random(5)
    for n in (1, 2, 12, 33, 70):
        masks = [rng.getrandbits(n) for _ in range(400)]
        masks += masks[:50]  # repeats
        assert canonical_order(masks) == sorted(masks, key=lambda r: (r.bit_count(), -r))


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 300])
def test_flags_hold_one_byte_per_position_and_round_trip(width):
    rng = random.Random(width)
    full = (1 << width) - 1
    for bits in (0, full, *(rng.getrandbits(width) for _ in range(50))):
        got = flags(bits, width)
        # format(0, "00b") is "0": at width 0 one byte is still written.
        assert got == bytes(bits >> x & 1 for x in range(max(width, 1)))
        assert from_flags(got) == bits
    assert from_flags(b"") == 0


def test_union_over_is_the_union_of_the_masks_of_the_points():
    rng = random.Random(7)
    for n in (1, 2, 8, 33, 70):
        masks = [rng.getrandbits(n) for _ in range(n)]
        for bits in (0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(40))):
            want = 0
            for x in _points(bits):
                want |= masks[x]
            assert union_over(masks, bits) == want


@pytest.mark.parametrize("width", [1, 31, 32, 33, 63, 64, 65, 200])
def test_random_columns_are_the_columns_of_one_block(width):
    # Bit s of column x is bit s * width + x of one getrandbits block, and
    # the generator ends where that one call leaves it.
    for count in (1, 2, 255, 256, 1000):
        seed = width * 10007 + count
        columns, reference = random.Random(seed), random.Random(seed)
        block = reference.getrandbits(width * count)
        want = [sum((block >> s * width + x & 1) << s for s in range(count))
                for x in range(width)]
        assert random_columns(columns, width, count) == want
        assert columns.getrandbits(64) == reference.getrandbits(64)


# How a mask becomes binary digits or one byte per point is decided in
# universe.py only; other modules call flags, from_flags or union_over.
_DIGIT_TRICKS = re.compile(
    r"maketrans"
    r"|\bint\(.*,\s*2\s*\)"  # int(text, 2)
    r"|\bbin\("
    r"|\}b[\"']"  # f"0{n}b"
    r"|:[<>=^+\- #0-9]*b\}"  # f"{x:08b}"
    r"|\bformat\(.*,\s*f?[\"'][<>=^+\- #0-9]*b[\"']"  # format(x, "08b")
)


def test_binary_digit_tricks_live_only_in_universe():
    package = Path(__file__).resolve().parents[1] / "src" / "gotas"
    found = [
        f"{path.name}:{line}: {text.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "universe.py"
        for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _DIGIT_TRICKS.search(text)
    ]
    assert found == []
