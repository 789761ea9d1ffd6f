import random
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import gotas.approximations as ap
from gotas import (
    DIRECTION_ORDER,
    Batch,
    BinaryRelation,
    Direction,
    FAMILY_ORDER,
    Gotas,
    Topology,
    Universe,
    equality_order,
    generate_topology,
    topology_from_relation,
    validate_order,
)
from gotas.oracle import random_order, random_space
from gotas.universe import union_over

from conftest import make_example_space, oracle_rows

INC, DEC = Direction.INC, Direction.DEC
R, S, P, GAMMA, BETA = FAMILY_ORDER


@pytest.fixture(scope="module")
def g():
    return make_example_space()


def sub(g, *labels):
    return g.universe.subset(labels)


class TestBaseOperators:
    def test_r_lower_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.r_lower(g, a, DEC) == sub(g, "a")
        assert ap.r_lower(g, a, INC) == g.universe.empty()
        assert ap.r_lower(g, g.universe.full(), INC) == g.universe.full()

    def test_r_upper_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.r_upper(g, a, DEC) == g.universe.full()
        assert ap.r_upper(g, sub(g, "a"), DEC) == sub(g, "a", "b")
        assert ap.r_upper(g, g.universe.empty(), INC) == g.universe.empty()

    def test_composed_base_operators_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.r_upper(g, ap.r_lower(g, a, DEC), DEC) == sub(g, "a", "b")
        assert ap.r_lower(g, ap.r_upper(g, a, DEC), DEC) == g.universe.full()

    def test_results_are_open_closed_and_monotone(self, g):
        for a in g.universe.subsets():
            for d in DIRECTION_ORDER:
                mono = g.order.is_increasing if d is INC else g.order.is_decreasing
                lo = ap.r_lower(g, a, d)
                up = ap.r_upper(g, a, d)
                assert g.topology.is_open(lo) and mono(lo)
                assert g.topology.is_closed(up) and mono(up)


class TestCompositeFamilies:
    def test_semi_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.semi_lower(g, a, DEC) == sub(g, "a")
        assert ap.semi_upper(g, a, DEC) == g.universe.full()
        assert ap.semi_lower(g, g.universe.empty(), INC) == g.universe.empty()

    def test_pre_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.pre_lower(g, a, DEC) == sub(g, "a", "c")
        assert ap.pre_upper(g, a, DEC) == sub(g, "a", "b", "c")
        assert ap.pre_lower(g, g.universe.full(), INC) == g.universe.full()

    def test_gamma_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.gamma_lower(g, a, DEC) == sub(g, "a", "c")
        assert ap.gamma_upper(g, a, DEC) == g.universe.full()
        assert ap.gamma_lower(g, a, INC) == sub(g, "a", "c")
        assert ap.gamma_upper(g, a, INC) == g.universe.full()

    def test_beta_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.beta_lower(g, a, DEC) == sub(g, "a", "c")
        assert ap.beta_upper(g, a, DEC) == sub(g, "a", "b", "c")
        assert ap.beta_lower(g, g.universe.empty(), INC) == g.universe.empty()


class TestRegions:
    def test_boundary_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.boundary(g, a, S, DEC) == sub(g, "b", "c", "d")
        assert ap.boundary(g, a, GAMMA, DEC) == sub(g, "b", "d")
        assert ap.boundary(g, a, BETA, DEC) == sub(g, "b")

    def test_positive_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.lower(g, a, GAMMA, DEC) == sub(g, "a", "c")
        assert ap.lower(g, a, S, DEC) == sub(g, "a")
        assert ap.lower(g, g.universe.empty(), BETA, INC) == g.universe.empty()

    def test_negative_uses_the_opposite_direction_upper(self, g):
        a = sub(g, "a", "c")
        assert ap.negative(g, a, BETA, INC) == sub(g, "d")
        assert ap.negative(g, a, GAMMA, INC) == g.universe.empty()
        assert ap.negative(g, a, S, INC) == g.universe.empty()

    def test_derived_regions_are_built_once_per_row(self, g):
        row = ap.Rows(g, Batch.powerset(g.universe))[BETA, INC]
        assert row.negative is row.negative
        assert row.boundary is row.boundary


class TestAccuracyAndExactness:
    def test_accuracy_golden(self, g):
        a = sub(g, "a", "c")
        assert ap.accuracy(g, a, GAMMA, DEC) == Fraction(2, 4)
        assert ap.accuracy(g, a, BETA, DEC) == Fraction(2, 3)
        assert ap.accuracy(g, g.universe.full(), R, INC) == 1

    def test_accuracy_of_empty_set_is_one(self, g):
        for family in FAMILY_ORDER:
            for d in DIRECTION_ORDER:
                assert ap.accuracy(g, g.universe.empty(), family, d) == 1

    def test_exactness(self, g):
        a = sub(g, "a", "c")
        assert not ap.full_report(g, a)[(GAMMA, DEC)].exact
        full = ap.full_report(g, g.universe.full())
        empty = ap.full_report(g, g.universe.empty())
        for family in FAMILY_ORDER:
            for d in DIRECTION_ORDER:
                assert full[(family, d)].exact
                assert empty[(family, d)].exact


class TestFullReport:
    def test_rows_and_ordering(self, g):
        table = ap.full_report(g, sub(g, "a", "c"))
        assert list(table) == [(f, d) for f in FAMILY_ORDER for d in DIRECTION_ORDER]

    def test_worked_example_rows(self, g):
        table = ap.full_report(g, sub(g, "a", "c"))
        row = table[(S, DEC)]
        assert row.lower == sub(g, "a")
        assert row.upper == g.universe.full()
        assert row.boundary == sub(g, "b", "c", "d")
        row = table[(GAMMA, DEC)]
        assert row.lower == sub(g, "a", "c")
        assert row.upper == g.universe.full()
        assert row.boundary == sub(g, "b", "d")
        assert row.accuracy == Fraction(1, 2)
        assert not row.exact
        row = table[(BETA, DEC)]
        assert row.upper == sub(g, "a", "b", "c")
        assert row.boundary == sub(g, "b")
        assert row.accuracy == Fraction(2, 3)

    def test_empty_set_report(self, g):
        for row in ap.full_report(g, g.universe.empty()).values():
            assert row.lower == g.universe.empty()
            assert row.upper == g.universe.empty()
            assert row.accuracy == 1
            assert row.exact

    def test_report_internal_consistency(self, g):
        # every row of every subset satisfies the row invariants
        for a in g.universe.subsets():
            for (family, d), row in ap.full_report(g, a).items():
                assert row.lower.is_subset(a) and a.is_subset(row.upper)
                assert row.boundary == row.upper - row.lower
                assert row.positive == row.lower
                assert row.exact == (row.lower == row.upper)


def _row_test_spaces():
    """The worked example, then 72 seeded spaces, generator-built and
    relation-built alternately, six of each kind at each size from 1 to 6
    points."""
    yield make_example_space()
    rng = random.Random(12)
    for i in range(72):
        size = 1 + i // 2 % 6
        if i % 2:
            yield random_space(rng, size)
        else:
            u = Universe([f"e{k}" for k in range(size)])
            pairs = [(x, y) for x in range(size) for y in range(size) if rng.random() < 0.3]
            yield Gotas(u, topology_from_relation(BinaryRelation(u, pairs)), random_order(rng, u))


def _composed(table, d, a):
    """Each family's (lower, upper) of bitmask ``a`` in direction ``d``,
    composed from the oracle table by the README's family formulas."""
    lo, up = table[d]
    return {
        R: (lo[a], up[a]),
        S: (a & up[lo[a]], a | lo[up[a]]),
        P: (a & lo[up[a]], a | up[lo[a]]),
        GAMMA: (a & (up[lo[a]] | lo[up[a]]), a | up[lo[a]] | lo[up[a]]),
        BETA: (a & up[lo[up[a]]], a | lo[up[lo[a]]]),
    }


_SETS = ("lower", "upper", "boundary", "positive", "negative")


def test_every_row_matches_the_oracle_table():
    # Every field of every row, from full_report and from the powerset
    # batch, against the oracle composed independently of the fast operators.
    for g in _row_test_spaces():
        u = g.universe
        table = oracle_rows(g)
        batch = ap.Rows(g, Batch.powerset(u))
        columns = {(f, d): {name: getattr(batch[f, d], name).rows() for name in _SETS}
                   for f in FAMILY_ORDER for d in DIRECTION_ORDER}
        for a in range(1 << u.size):
            want = {d: _composed(table, d, a) for d in DIRECTION_ORDER}
            for key, row in ap.full_report(g, u.from_bits(a)).items():
                family, d = key
                lower, upper = want[d][family]
                expected = {
                    "lower": lower,
                    "upper": upper,
                    "boundary": upper & ~lower,
                    "positive": lower,
                    "negative": u.full_mask ^ want[d.opposite][family][1],
                    "accuracy": Fraction(lower.bit_count(), upper.bit_count()) if upper else 1,
                    "exact": lower == upper,
                }
                scalar = {name: getattr(row, name).bits for name in _SETS}
                scalar.update(accuracy=row.accuracy, exact=row.exact)
                lane = {name: columns[key][name][a] for name in _SETS}
                lane.update(accuracy=batch[key].accuracy[a],
                            exact=bool(batch[key].exact >> a & 1))
                assert scalar == expected, (u.from_bits(a), key)
                assert lane == expected, (u.from_bits(a), key)


def test_duality_on_random_spaces():
    for seed in range(8):
        g = random_space(random.Random(seed), 4)
        for a in g.universe.subsets():
            comp = a.complement()
            assert ap.r_upper(g, a, INC) == ap.r_lower(g, comp, DEC).complement()
            assert ap.r_upper(g, a, DEC) == ap.r_lower(g, comp, INC).complement()
            assert ap.r_lower(g, a, INC) == ap.r_upper(g, comp, DEC).complement()
            assert ap.r_lower(g, a, DEC) == ap.r_upper(g, comp, INC).complement()


def _brute_kernel(g, d):
    """M_d(x) per point, as the fixpoint of m -> m ∪ N(y) ∪ reach(y) over
    the points y of m, from m = {x}."""
    reach = g.order.succ if d is INC else g.order.pred
    step = [n | r for n, r in zip(g.topology.neighborhoods, reach)]
    kernel = []
    for x in range(g.universe.size):
        m, grown = 0, 1 << x
        while grown != m:
            m, grown = grown, grown | union_over(step, grown)
        kernel.append(m)
    return tuple(kernel)


def _space(n, generators, pairs):
    u = Universe([f"e{i}" for i in range(n)])
    return Gotas(u, Topology(u, generators), validate_order(u, pairs))


def _large_shapes(n):
    """The identity relation (singleton generators), `"base": []`, the zigzag
    (generators {2i, 2i+1}, order pairs (2i+1, 2i+2)), two generators under
    a total order, and singletons under incomparable tops that each hold
    all of them."""
    yield _space(n, [1 << x for x in range(n)], [])
    yield _space(n, [], [])
    yield _space(n, [3 << x & (1 << n) - 1 for x in range(0, n, 2)],
                 [(x, x + 1) for x in range(1, n - 1, 2)])
    rng = random.Random(n)
    yield _space(n, [rng.getrandbits(n), rng.getrandbits(n)],
                 [(x, y) for x in range(n) for y in range(x, n)])
    half = n // 2
    yield _space(n, [1 << x for x in range(half)]
                 + [(1 << half) - 1 | 1 << x for x in range(half, n)], [])


def _kernel_test_spaces():
    rng = random.Random(41)
    for size in range(1, 11):
        for _ in range(20):
            yield random_space(rng, size)
    for n in (33, 400):
        yield from _large_shapes(n)
    # e0 and e1 share N = {e0, e1} but only e1 is above e2, so e2's Inc
    # row meets that class at e1 alone.
    yield _space(3, [0b011, 0b100], [(2, 1)])


def test_the_kernel_is_the_brute_force_closure():
    for g in _kernel_test_spaces():
        for d in DIRECTION_ORDER:
            assert g.kernel[d] == _brute_kernel(g, d), (g.universe.size, d)


# A space's three parts. Besides them it holds only its kernel and the
# kernel's plan, each built on first use.
_PARTS = {"universe", "topology", "order"}


def test_a_space_holds_only_its_kernel_caches():
    u = Universe([f"e{i}" for i in range(40)])
    g = Gotas(u, generate_topology(u, []), equality_order(u))
    assert set(vars(g)) == _PARTS
    rng = random.Random(0)
    for _ in range(4000):
        ap.full_report(g, u.from_bits(rng.getrandbits(40)))
    assert set(vars(g)) == _PARTS | {"kernel"}


@pytest.mark.parametrize("labels, computed", [
    (("a", "c"), 12), (("a",), 10), ((), 4), (("a", "b", "c", "d"), 4),
])
def test_a_scalar_report_computes_each_base_term_once(monkeypatch, labels, computed):
    # 48 base-operator calls per report; equal terms, within or across
    # families, are computed once. A second report computes them afresh.
    done = []
    for name in ("points_within", "points_meeting"):
        scan = getattr(ap, name)
        monkeypatch.setattr(ap, name, lambda *args, scan=scan: done.append(1) or scan(*args))
    g = make_example_space()
    for _ in range(2):
        ap.full_report(g, g.universe.subset(labels))
    assert len(done) == 2 * computed


def _with_r_lower(lower):
    """The default suite with ``lower`` as R's lower operator."""
    return replace(ap.DEFAULT_SUITE, lower={**ap._LOWER, R: lower})


def _churning_suite(log):
    """The default suite, but R's lower first runs the base operators on
    temporaries, each built from random rows and dropped at once, in the
    table's space and in a second space over the same universe, and logs
    the results."""

    def lower(g, a, d):
        u, rng = g.universe, random.Random(len(log))
        other = Gotas(u, generate_topology(u, [u.from_bits(1)]), equality_order(u))
        for _ in range(4):
            rows = [rng.getrandbits(u.size) for _ in range(a.width)]
            x = Batch.of(u, rows)
            for space in (g, other):
                log.append((space, rows, d, ap.r_lower(space, x, d).rows(),
                            ap.r_upper(space, x, d).rows()))
            del x  # frees its id for the next temporary, unless a memo holds it
        return ap.r_lower(g, a, d)

    return _with_r_lower(lower)


def test_base_operators_on_temporaries_inside_a_table_are_exact():
    g = random_space(random.Random(2), 5)
    powerset, log = Batch.powerset(g.universe), []
    rows = ap.Rows(g, powerset, _churning_suite(log), (R,))
    assert len(log) == 16
    for space, operand, d, lower, upper in log:
        x = Batch.of(g.universe, operand)
        assert (lower, upper) == (ap.r_lower(space, x, d).rows(), ap.r_upper(space, x, d).rows())
    for d in DIRECTION_ORDER:
        assert rows[R, d].lower.rows() == ap.r_lower(g, powerset, d).rows()


def test_threads_sharing_a_space_build_tables_with_their_own_memos():
    g = random_space(random.Random(3), 6)
    rng = random.Random(0)
    operands = [Batch.of(g.universe, [rng.getrandbits(6) for _ in range(16)]) for _ in range(4)]
    want = [[(r.lower.rows(), r.upper.rows()) for r in ap.Rows(g, x).values()] for x in operands]
    memos, got = [], {}

    def lower(space, a, d):
        memo = ap._MEMO.get()
        time.sleep(0.001)  # the other threads open and close tables meanwhile
        memos.append(memo if ap._MEMO.get() is memo else None)
        return ap.r_lower(space, a, d)

    def build(k):
        for _ in range(20):
            rows = ap.Rows(g, operands[k % 4], _with_r_lower(lower))
            got[k] = [(r.lower.rows(), r.upper.rows()) for r in rows.values()]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: want[k % 4] for k in range(8)}
    # Each table keeps its own memo, read twice (Inc and Dec) while it is built.
    assert None not in memos
    assert len(memos) == 2 * 8 * 20 and len({id(m) for m in memos}) == 8 * 20


def test_threads_racing_on_first_reads_see_equal_values():
    # The kernel, its plan and a row's regions are cached without a lock:
    # threads that race on a fresh space's first reads may each compute a
    # value, and all of them must see equal ones.
    rng, seen = random.Random(31), []

    def read(space, row, barrier):
        barrier.wait()
        seen.append((space.kernel, space.kernel_plan, row.accuracy))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            g = random_space(rng, 7)
            # The row is built over an equal space, so g itself is untouched.
            twin = Gotas(g.universe, g.topology, g.order)
            row = ap.Rows(twin, Batch.powerset(g.universe))[GAMMA, DEC]
            assert set(vars(g)) == _PARTS and "accuracy" not in vars(row)
            barrier, seen[:] = threading.Barrier(8), []
            threads = [threading.Thread(target=read, args=(g, row, barrier)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == [(twin.kernel, twin.kernel_plan, *seen[0][2:])] * 8
            assert g.kernel is g.kernel and row.accuracy is row.accuracy
    finally:
        sys.setswitchinterval(interval)


def test_labels_and_opposites_are_plain_member_attributes():
    assert [(vars(d)["label"], vars(d)["opposite"]) for d in DIRECTION_ORDER] == [
        ("Inc", DEC), ("Dec", INC)]
    assert [vars(f)["label"] for f in FAMILY_ORDER] == ["R", "S", "P", "gamma", "beta"]


def test_gotas_rejects_mismatched_components():
    g = make_example_space()
    other = Universe(["a", "b", "c", "d"])
    with pytest.raises(ValueError):
        Gotas(other, g.topology, g.order)
    with pytest.raises(ValueError):
        Gotas(g.universe, generate_topology(other, []), g.order)
    with pytest.raises(ValueError):
        Gotas(g.universe, g.topology, equality_order(other))
