"""A batch holds many subsets bit-sliced. Every operator must act on each
lane exactly as it acts on that lane's subset alone."""

import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, or_

import pytest

import gotas.approximations as ap
from gotas import (
    DIRECTION_ORDER,
    FAMILY_ORDER,
    Batch,
    BinaryRelation,
    Gotas,
    Universe,
    UniverseMismatchError,
    generate_topology,
    topology_from_relation,
    validate_order,
)
from gotas.oracle import (
    _accuracy_exceeds,
    check_propositions,
    corrupted_gamma_upper,
    corrupted_suite,
    random_order,
    random_space,
)
from gotas.universe import (GROUP_BITS, Groups, Plan, _counting_columns, _fields, _full,
                            _transpose)

from conftest import partition_space, random_partition


def _spaces(rng):
    for i in range(40):
        size = 1 + i % 9
        if i % 2:
            yield random_space(rng, size)
        else:
            u = Universe([f"e{k}" for k in range(size)])
            pairs = [(x, y) for x in range(size) for y in range(size) if rng.random() < 0.3]
            yield Gotas(u, topology_from_relation(BinaryRelation(u, pairs)), random_order(rng, u))


def test_every_lane_matches_the_subset_operators():
    rng = random.Random(6)
    operators = [
        *(table[f] for table in (ap._LOWER, ap._UPPER) for f in FAMILY_ORDER),
        corrupted_gamma_upper,
    ]
    for g in _spaces(rng):
        u = g.universe
        rows = [rng.getrandbits(u.size) for _ in range(rng.randint(1, 64))]
        batch = Batch.of(u, rows)
        assert batch.rows() == rows
        assert [batch.lane(s).bits for s in range(batch.width)] == rows
        for op in operators:
            for d in DIRECTION_ORDER:
                got = op(g, batch, d)
                assert got.rows() == [op(g, u.from_bits(r), d).bits for r in rows], (op, d)


def test_every_batch_row_matches_the_rows_of_its_lanes():
    rng = random.Random(8)
    fields = ("lower", "upper", "negative", "positive", "boundary")
    for g in _spaces(rng):
        u = g.universe
        rows = [rng.getrandbits(u.size) for _ in range(rng.randint(1, 64))]
        for suite in (ap.DEFAULT_SUITE, corrupted_suite()):
            table = ap.Rows(g, Batch.of(u, rows), suite)
            singles = [ap.Rows(g, u.from_bits(r), suite) for r in rows]
            for key in product(FAMILY_ORDER, DIRECTION_ORDER):
                row, want = table[key], [single[key] for single in singles]
                for field in fields:
                    got = getattr(row, field).rows()
                    assert got == [getattr(w, field).bits for w in want], (key, field)
                assert row.accuracy == tuple(w.accuracy for w in want)
                assert [bool(row.exact >> s & 1) for s in range(len(rows))] == [w.exact for w in want]
                assert row.exact >> len(rows) == 0


def test_set_algebra_and_lane_masks():
    rng = random.Random(7)
    u = Universe(list("abcdefg"))
    xs = [rng.getrandbits(7) for _ in range(50)]
    ys = [rng.getrandbits(7) for _ in range(50)]
    a, b = Batch.of(u, xs), Batch.of(u, ys)
    assert (a | b).rows() == [x | y for x, y in zip(xs, ys)]
    assert (a & b).rows() == [x & y for x, y in zip(xs, ys)]
    assert (a - b).rows() == [x & ~y for x, y in zip(xs, ys)]
    assert a.complement().rows() == [x ^ u.full_mask for x in xs]

    def mask(flags):
        return sum(1 << s for s, flag in enumerate(flags) if flag)

    assert (a - b).nonempty() == mask(x & ~y for x, y in zip(xs, ys))
    assert a.differs(b) == mask(x != y for x, y in zip(xs, ys))
    assert a.nonempty() == mask(xs)


def test_set_algebra_rejects_other_universes_and_widths():
    u = Universe(list("ab"))
    a = Batch.of(u, [0, 1, 2])
    for other in (Batch.of(Universe(list("ab")), [0, 1, 2]), Batch.of(u, [0, 1])):
        with pytest.raises(UniverseMismatchError):
            a | other


@pytest.mark.parametrize("rows", [[-1, 3], [1 << 4, 3], [3, 1 << 5]])
def test_of_rejects_a_row_outside_the_universe(rows):
    # Such a row used to spill into the other lanes: [-1, 3] read back as [11, 0].
    with pytest.raises(ValueError, match="outside the universe"):
        Batch.of(Universe("abcd"), rows)


def test_powerset_enumerates_in_bitmask_order():
    u = Universe(list("abc"))
    assert Batch.powerset(u).rows() == list(range(8))


def test_counting_columns_match_the_division_form():
    for m in range(17):
        every = (1 << (1 << m)) - 1
        want = [(((1 << (1 << k)) - 1) << (1 << k)) * (every // ((1 << (2 << k)) - 1))
                for k in range(m)]
        assert _counting_columns(m) == want, m


def test_counting_columns_repeat_their_period_up_to_twice_the_cap():
    # Column k holds bit k of each lane's index: 2**k zeros, then 2**k ones,
    # repeated. An exhaustive check at the cap reads POWERSET_CAP of them.
    # The range stops at m = 20: twice that cap would build 2**32-bit columns.
    low = (0xAA, 0xCC, 0xF0)
    for m in range(3, 21):
        want = [int.from_bytes(bytes([low[k]]) * (1 << m - 3) if k < 3 else
                               (bytes(1 << k - 3) + b"\xff" * (1 << k - 3)) * (1 << m - k - 1),
                               "little")
                for k in range(m)]
        assert _counting_columns(m) == want, m


def test_the_all_ones_cache_keeps_few_widths():
    # Each (points, width) key holds a whole packed batch; checks over six
    # widths in one process must not keep them all.
    _full.cache_clear()
    rng = random.Random(45)
    for size in (2, 3, 4, 5, 6):
        check_propositions(random_space(rng, size))
    check_propositions(random_space(rng, 20), samples=8)
    info = _full.cache_info()
    assert info.misses > 4 and info.currsize <= 4


def test_transpose_round_trips():
    rng = random.Random(11)
    for count, width in ((0, 5), (1, 1), (16, 256), (256, 16), (33, 33),
                         *((7, w) for w in (31, 32, 33, 63, 64, 65))):
        values = [rng.getrandbits(width) for _ in range(count)]
        columns = _transpose(values, width)
        assert len(columns) == width
        assert all(c >> count == 0 for c in columns)
        assert columns == [sum((v >> x & 1) << s for s, v in enumerate(values))
                           for x in range(width)]
        assert _transpose(columns, count) == values


def test_counts_are_the_popcounts_of_the_rows():
    rng = random.Random(12)
    for size in (1, 8, 255, 256, 300):
        u = Universe([f"e{k}" for k in range(size)])
        for width in (1, 7, 8, 9, 256, 1024):
            rows = [rng.getrandbits(size) for _ in range(width)]
            rows[-1], rows[0] = u.full_mask, 0
            batch = Batch.of(u, rows)
            assert batch.counts() == [r.bit_count() for r in batch.rows()], (size, width)
    assert Batch.of(u, []).counts() == []


def test_exceeds_matches_the_fraction_compare_lane_by_lane():
    # Lane 0 holds the empty subset, whose upper approximations are empty;
    # the raw batches also put nonempty lowers under empty uppers. Every
    # lane of A is nonempty, so every lane is compared.
    rng = random.Random(14)
    u = Universe([f"e{k}" for k in range(300)])
    g = partition_space(u, random_partition(rng, u))
    rows = ap.Rows(g, Batch.of(u, [0] + [rng.getrandbits(300) | rng.getrandbits(300)
                                         for _ in range(255)]))
    cases = [(r, r.lower.rows(), r.upper.rows())
             for r in (rows[f, d] for f in FAMILY_ORDER for d in DIRECTION_ORDER)]
    for _ in range(2):
        lows = [rng.getrandbits(300) for _ in range(256)]
        ups = [rng.getrandbits(300) if rng.random() < 0.7 else 0 for _ in range(256)]
        up = Batch.of(u, ups)
        cases.append((ap.ApproxReport(Batch.of(u, lows), up, up), lows, ups))
    wants = []
    for row, lows, ups in cases:
        want = [Fraction(lo.bit_count(), up.bit_count()) if up else 1 for lo, up in zip(lows, ups)]
        assert list(row.accuracy) == want
        wants.append(want)
    assert cases[0][2][0] == 0 and len(set(wants[0])) > 10
    a = Batch.of(u, [u.full_mask] * 256)
    for (first, *_), x in zip(cases, wants):
        for (second, *_), y in zip(cases, wants):
            assert _accuracy_exceeds(a, first, second) == sum(
                1 << s for s in range(256) if x[s] > y[s])


def _plan_spaces(rng):
    """Spaces of 1-12 points whose kernels have many classes: discrete
    topologies under a chain (in shuffled index order) or a random order,
    partition spaces, and relation spaces."""
    for i in range(160):
        u = Universe([f"e{k}" for k in range(1 + i % 12)])
        n = u.size
        discrete = generate_topology(u, [u.from_bits(1 << x) for x in range(n)])
        if i % 4 == 0:
            chain = rng.sample(range(n), n)
            pairs = [(x, y) for k, x in enumerate(chain) for y in chain[k:]]
            yield Gotas(u, discrete, validate_order(u, pairs))
        elif i % 4 == 1:
            yield Gotas(u, discrete, random_order(rng, u))
        elif i % 4 == 2:
            yield partition_space(u, random_partition(rng, u))
        else:
            pairs = [(x, y) for x in range(n) for y in range(n) if rng.random() < 0.2]
            yield Gotas(u, topology_from_relation(BinaryRelation(u, pairs)), random_order(rng, u))


def _nested_shapes():
    """Raw point masks with M(y) ⊆ M(x) for each y in M(x), at 200 points:
    a chain of up-sets, a discrete kernel, and 100 singletons under 100
    incomparable tops that each hold all of them."""
    full = (1 << 200) - 1
    yield [full ^ ((1 << x) - 1) for x in range(200)]
    yield [1 << x for x in range(200)]
    bottom = (1 << 100) - 1
    yield [1 << x for x in range(100)] + [bottom | 1 << x for x in range(100, 200)]


def _assert_plan_folds(batch, kernel):
    """``Plan.of(kernel)`` is well formed, its covers are exactly the
    greatest classes inside each class, and its folds of ``batch`` agree with
    the flat folds; returns its class count."""
    u, plan = batch.universe, Plan.of(kernel)
    assert [plan.masks[c] for c in plan.classes] == list(kernel)
    assert sorted(plan.masks) == sorted(set(kernel))
    assert list(plan.masks) == sorted(plan.masks, key=int.bit_count)
    # The classes strictly inside each class; its covers are the greatest of them.
    inside = [{b for b, m in enumerate(plan.masks) if b != c and m & ~mask == 0}
              for c, mask in enumerate(plan.masks)]
    for k, (mask, (points, covers)) in enumerate(zip(plan.masks, plan.steps)):
        assert points == tuple(x for x in range(u.size) if plan.classes[x] == k)
        assert len(points) + len(covers) <= mask.bit_count()
        assert reduce(or_, [1 << x for x in points] + [plan.masks[c] for c in covers]) == mask
        assert list(covers) == sorted(set(covers), reverse=True)
        assert set(covers) == inside[k] - set().union(*(inside[b] for b in inside[k]))
    cols = batch.columns
    flat = [[cols[y] for y in range(u.size) if m >> y & 1] for m in kernel]
    assert batch.all_of(plan).columns == tuple(reduce(and_, f, batch.lanes) for f in flat)
    assert batch.any_of(plan).columns == tuple(reduce(or_, f, 0) for f in flat)
    return len(plan.masks)


def test_plan_folds_agree_with_the_flat_folds_over_every_kernel_mask():
    rng = random.Random(13)
    deepest = 0
    for g in _plan_spaces(rng):
        u = g.universe
        batch = Batch.of(u, [rng.getrandbits(u.size) for _ in range(rng.randint(1, 64))])
        for d in DIRECTION_ORDER:
            assert g.kernel_plan[d] == Plan.of(g.kernel[d])
            deepest = max(deepest, _assert_plan_folds(batch, g.kernel[d]))
    assert deepest == 12
    u = Universe([f"e{k}" for k in range(200)])
    for kernel in _nested_shapes():
        _assert_plan_folds(Batch.of(u, [rng.getrandbits(200) for _ in range(8)]), kernel)


def _packed_cases(rng):
    """(universe, batch) for sizes 1-20 at small widths and on both sides of
    each group size: n columns filling one int, and one lane more; two
    columns per int, and one lane more (one column per int)."""
    for n in range(1, 21):
        u = Universe([f"e{k}" for k in range(n)])
        edges = {GROUP_BITS // n, GROUP_BITS // n + 1, GROUP_BITS // 2, GROUP_BITS // 2 + 1}
        for width in (0, 1, 7, 8, 9, 31, 32, 33, *sorted(edges)):
            columns = [rng.getrandbits(width) for _ in range(n)]
            if width:
                columns[0], columns[-1] = (1 << width) - 1, 0  # a full and an empty column
            yield u, Batch(u, tuple(columns), width)


def test_the_packed_form_matches_the_columns_lane_by_lane():
    rng = random.Random(30)
    groups = set()
    for u, a in _packed_cases(rng):
        n, width = u.size, a.width
        b = Batch(u, tuple(rng.getrandbits(width) for _ in range(n)), width)
        # Column x is field x mod f of int x // f, f = _fields(width); the
        # columns themselves once f is 1.
        f = _fields(width)
        assert f * max(width, 1) <= GROUP_BITS or f == 1
        ints = a.packed if type(a.packed) is Groups else (a.packed,)
        assert (type(a.packed) is int) == (n * width <= GROUP_BITS)
        assert len(ints) == (1 if n * width <= GROUP_BITS else -(-n // f))
        assert list(ints) == [sum(c << k * width for k, c in enumerate(a.columns[i:i + f]))
                              for i in range(0, n, f)]
        if n * width > GROUP_BITS:
            groups.add((f == 1, len(ints)))
            if f == 1:
                assert all(map(operator.is_, a.packed, a.columns))
        back = Batch(u, None, width)  # the columns come back from the packed form
        back.packed = a.packed
        assert back.columns == a.columns and back.rows() == a.rows()
        results = {"|": (a | b, or_), "&": (a & b, and_), "-": (a - b, lambda x, y: x & ~y),
                   "complement": (a.complement(), lambda x, y: x ^ u.full_mask)}
        outside, differs, nonempty = (a - b).nonempty(), a.differs(b), a.nonempty()
        counts = a.counts()
        assert len(counts) == width
        lanes = {0, width - 1, *(rng.randrange(width) for _ in range(8))} if width else set()
        for s in sorted(lanes):
            x, y = a.lane(s), b.lane(s)
            assert x.bits == sum((c >> s & 1) << k for k, c in enumerate(a.columns))
            for name, (got, op) in results.items():
                assert got.lane(s).bits == op(x.bits, y.bits), (n, width, name, s)
            assert outside >> s & 1 == (not x <= y)
            assert differs >> s & 1 == (x != y)
            assert nonempty >> s & 1 == bool(x)
            assert counts[s] == len(x)
        # Column by column, complement is each column XOR the lanes.
        results["complement"] = results["complement"][0], lambda x, y: x ^ a.lanes
        for got, op in results.values():
            assert got.columns == tuple(op(x, y) & a.lanes for x, y in zip(a.columns, b.columns))
        assert max(outside, differs, nonempty) >> width == 0
    # One column per int at 1 to 20 points, and several per int in 2 to 10 ints.
    assert groups == {(True, k) for k in range(1, 21)} | {(False, k) for k in range(2, 11)}


def test_the_empty_batch_packs_to_nothing():
    for n in (1, 5, 20):
        u = Universe([f"e{k}" for k in range(n)])
        empty = Batch.of(u, [])
        assert empty.width == 0 and empty.packed == 0
        assert empty.counts() == [] and empty.rows() == []
        for got in (empty | empty, empty & empty, empty - empty, empty.complement()):
            assert got.columns == (0,) * n and got.packed == 0
        assert (empty - empty).nonempty() == empty.differs(empty) == empty.nonempty() == 0
