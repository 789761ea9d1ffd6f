import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gotas import Universe, UniverseMismatchError
from gotas.universe import canonical_order

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
    with pytest.raises(ValueError, match="unknown label"):
        u.subset(["z"])


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


def test_mixed_universes_rejected():
    u1 = Universe(["a", "b"])
    u2 = Universe(["a", "b"])
    with pytest.raises(UniverseMismatchError):
        u1.subset(["a"]).union(u2.subset(["b"]))


def test_subsets_enumeration():
    u = Universe(["a", "b"])
    assert [s.members() for s in u.subsets()] == [(), ("a",), ("b",), ("a", "b")]


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
    assert [s.bits for s in u.canonical(family)] == want
    assert canonical_order(map(u.reverse, family)) == [u.reverse(b) for b in want]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_rendered_labels_match_a_scan_of_the_points(t):
    n, bits = t
    u = Universe(_labels(n))
    want = tuple(label for pos, label in enumerate(u.labels) if bits >> pos & 1)
    assert u.reverse(u.reverse(bits)) == bits
    assert tuple(u.labels_of(u.reverse(bits))) == want
    assert u.from_bits(bits).members() == want
    assert str(u.from_bits(bits)) == "{" + ", ".join(want) + "}"


# Labels a listing must copy as they are: braces, quotes, a backslash, a
# control character, non-ASCII, the empty label and one holding ", ".
_ODD_LABELS = ["{", "}", '"', "\\", "\x01", "é", "中文", "", "x, ", "{a}"]


@pytest.mark.parametrize("n", [1, 2, 3, 12, 33])
def test_texts_is_the_text_of_each_mask_joined_by_newlines(n):
    rng = random.Random(n)
    labels = rng.sample(_ODD_LABELS, min(n, len(_ODD_LABELS))) + _labels(n)[len(_ODD_LABELS):]
    rng.shuffle(labels)
    u = Universe(labels)
    masks = [0, u.full_mask, *(rng.getrandbits(n) for _ in range(300))]
    masks += rng.sample(masks, 20)  # repeats
    assert u.texts(masks) == "\n".join(map(u.text, masks))
    assert u.texts([0]) == "{}"
    assert u.texts([]) == ""


def test_canonical_order_is_cardinality_then_descending_reversed_mask():
    rng = random.Random(5)
    for n in (1, 2, 12, 33, 70):
        masks = [rng.getrandbits(n) for _ in range(400)]
        masks += masks[:50]  # repeats
        assert canonical_order(masks) == sorted(masks, key=lambda r: (r.bit_count(), -r))
