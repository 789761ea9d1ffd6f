import itertools
import operator
import random
import re
import string
import time
import types
from dataclasses import replace

import pytest
from hypothesis import given, settings

import gotas.approximations as ap
import gotas.oracle as oracle
from gotas import (
    Batch,
    BinaryRelation,
    Direction,
    Topology,
    Universe,
    equality_order,
    generate_topology,
    topology_from_relation,
    validate_order,
)
from gotas.approximations import Gotas
from gotas.oracle import (
    DEFAULT_SUITE,
    POWERSET_CAP,
    CapExceededError,
    PROPOSITION_IDS,
    check_propositions,
    corrupted_suite,
    open_upper_failure,
    oracle_diff,
    oracle_table,
    random_order,
    random_space,
    _greatest_inside,
)
from gotas.batch import Plan, _counting_columns
from gotas.topology import points_meeting, points_within
from gotas.universe import _points

from conftest import make_example_space, oracle_rows, partition_space, random_partition, subsets
from strategies import spaces

INC, DEC = Direction.INC, Direction.DEC
R, GAMMA, BETA = ap.OperatorFamily.R, ap.OperatorFamily.GAMMA, ap.OperatorFamily.BETA


@pytest.fixture(scope="module")
def g():
    return make_example_space()


class TestOracleOperators:
    def test_golden_values(self, g):
        table = oracle_rows(g)
        a, full = g.universe.subset(["a", "c"]).bits, g.universe.full_mask
        assert table[DEC][0][a] == g.universe.subset(["a"]).bits
        assert table[DEC][1][a] == full
        assert table[INC][0][0] == 0
        assert table[DEC][1][full] == full
        assert [len(rows) for d in (INC, DEC) for rows in table[d]] == [16] * 4
        assert [len(cols) for pair in oracle_table(g).values() for cols in pair] == [4] * 4

    def test_agreement_with_fast_operators_on_random_spaces(self):
        rng = random.Random(1234)
        spaces = [random_space(rng, 1 + i % 7) for i in range(56)]
        for i in range(28):
            # Relation-built spaces: the fast operators read the minimal
            # neighborhoods of the right neighborhoods.
            size = 1 + i % 7
            u = Universe([f"e{k}" for k in range(size)])
            pairs = [(x, y) for x in range(size) for y in range(size) if rng.random() < 0.3]
            spaces.append(Gotas(
                u,
                topology_from_relation(BinaryRelation(u, pairs)),
                random_order(rng, u),
            ))
        for space in spaces:
            comparisons, mismatches = oracle_diff(space)
            assert mismatches == []
            assert comparisons == 4 * 2 ** space.universe.size
            # oracle_diff reads the batch; the scalar path must agree with it.
            powerset = Batch.powerset(space.universe)
            for d in (INC, DEC):
                lower = ap.r_lower(space, powerset, d).rows()
                upper = ap.r_upper(space, powerset, d).rows()
                for a in subsets(space.universe):
                    assert ap.r_lower(space, a, d).bits == lower[a.bits]
                    assert ap.r_upper(space, a, d).bits == upper[a.bits]

    def test_cap_is_enforced(self):
        space = random_space(random.Random(7), POWERSET_CAP + 1)
        message = f"universe size {POWERSET_CAP + 1} exceeds the powerset cap {POWERSET_CAP}"
        for build in (oracle_table, oracle_diff):
            with pytest.raises(CapExceededError) as info:
                build(space)
            assert str(info.value) == message

    def test_diff_leaves_only_the_kernel_caches(self):
        space = random_space(random.Random(8), 8)
        assert oracle_diff(space) == (1024, [])
        assert set(vars(space)) == {"universe", "topology", "order", "kernel", "kernel_plan",
                                    "direction_sum"}
        assert set(vars(space.direction_sum)) == {"halves", "universe", "kernel_plan"}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spaces(max_size=11))
def test_fast_base_operators_match_the_oracle(g):
    table = oracle_rows(g)
    for d in (INC, DEC):
        lower, upper = table[d]
        for a in subsets(g.universe):
            assert ap.r_lower(g, a, d).bits == lower[a.bits]
            assert ap.r_upper(g, a, d).bits == upper[a.bits]


def test_pick_asserts_a_unique_greatest():
    # {a} and {b} lie inside {a, b} but their union is not a candidate. The
    # smallest pick around a subset is the complement of a greatest one.
    u = Universe(["a", "b", "c"])
    with pytest.raises(RuntimeError) as lower:
        _greatest_inside(u, [0b000, 0b001, 0b010], 0b011)
    assert str(lower.value) == "no unique greatest candidate inside {a, b}: {a} vs {b}"


def _outcome(build, space):
    """What ``build(space)`` gives: its table, or the type and text of the
    error it raises."""
    try:
        return build(space)
    except (RuntimeError, ValueError) as error:
        return type(error), str(error)


def _scanned_table(g):
    """The oracle table by one candidate scan per subset, from the order's
    own monotone tests: the reference for ``oracle_table``. The lower picks
    come first, Inc then Dec, as the oracle makes them; each upper is then
    the smallest candidate around the subset, from its definition, and
    must lie within every other one."""
    u, opens, full = g.universe, oracle.open_family(g.topology), g.universe.full_mask
    candidates = {}
    for d, mono in ((INC, g.order.is_increasing), (DEC, g.order.is_decreasing)):
        candidates[d] = [a.bits for a in subsets(u) if mono(a)]
    lower = {d: [_greatest_inside(u, [a for a in monotone if a in opens], a)
                 for a in range(full + 1)] for d, monotone in candidates.items()}
    table = {}
    for d, monotone in candidates.items():
        closed = [c for c in monotone if full ^ c in opens]
        upper = []
        for a in range(full + 1):
            around = [c for c in closed if not a & ~c]
            best = min(around, key=int.bit_count)
            assert all(not best & ~c for c in around), (d, a)
            upper.append(best)
        table[d] = (lower[d], upper)
    return table


def _reference_spaces():
    rng = random.Random(17)
    for i in range(64):
        yield random_space(rng, 1 + i % 8, max_generators=1 + i % 6)
    for size in range(1, 9):
        u = Universe([f"e{k}" for k in range(size)])
        yield partition_space(u, random_partition(rng, u))
        yield Gotas(u, generate_topology(u, [u.subset([x]) for x in u.labels]), equality_order(u))
        yield Gotas(u, generate_topology(u, []), random_order(rng, u))
        pairs = [(x, y) for x in range(size) for y in range(size) if rng.random() < 0.3]
        yield Gotas(u, topology_from_relation(BinaryRelation(u, pairs)), random_order(rng, u))


def test_table_equals_the_per_subset_scan():
    for space in _reference_spaces():
        assert oracle_rows(space) == _scanned_table(space), space


@pytest.mark.parametrize("family, text", [
    # {a} and {b} are opens inside {a, b}, but their union is not.
    ({0b000, 0b001, 0b010, 0b111}, "no unique greatest candidate inside {a, b}: {a} vs {b}"),
    # Without the empty set no candidate lies inside {}: the pick's max() raises.
    ({0b001, 0b111}, None),
])
def test_a_family_without_unique_picks_raises_as_the_scan_does(monkeypatch, family, text):
    u = Universe(["a", "b", "c"])
    space = Gotas(u, generate_topology(u, []), equality_order(u))
    monkeypatch.setattr(oracle, "open_family", lambda topology: frozenset(family))
    raised = []
    for build in (oracle_table, _scanned_table):
        with pytest.raises((RuntimeError, ValueError)) as info:
            build(space)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is (RuntimeError if text else ValueError)
    assert text in (None, raised[0][1])


def test_perturbed_families_raise_as_the_scan_does(monkeypatch):
    # Toggling a few masks of the open family can leave a subset without a
    # unique pick inside it; the column check must then raise the per-subset
    # scan's error, at the same subset. A subset without a unique pick around
    # it leaves its complement without one inside it, in the other direction.
    rng, family = random.Random(29), oracle.open_family
    texts = set()
    for _ in range(300):
        space = random_space(rng, rng.randint(1, 6), max_generators=rng.randint(0, 6))
        masks = set(family(space.topology))
        for _ in range(rng.randint(1, 3)):
            masks ^= {rng.getrandbits(space.universe.size)}
        monkeypatch.setattr(oracle, "open_family", lambda topology: frozenset(masks))
        got = _outcome(oracle_rows, space)
        assert got == _outcome(_scanned_table, space), space
        if isinstance(got, tuple) and got[0] is RuntimeError:
            texts.add(got[1].split(" candidate ")[0])
    assert texts == {"no unique greatest"}


def test_table_uses_no_batch_and_no_kernel(monkeypatch):
    spaces = [random_space(random.Random(23), size) for size in (1, 4, 8)]
    want = [oracle_table(space) for space in spaces]

    def refuse(*args):
        raise AssertionError("the oracle table read the fast path")

    monkeypatch.setattr(Batch, "powerset", classmethod(refuse))
    monkeypatch.setattr(Batch, "of", classmethod(refuse))
    monkeypatch.setattr(Batch, "rows", refuse)
    monkeypatch.setattr(oracle, "_transpose", refuse)
    monkeypatch.setattr(Gotas, "kernel", property(refuse))
    monkeypatch.setattr(Gotas, "kernel_plan", property(refuse))
    monkeypatch.setattr(Gotas, "direction_sum", property(refuse))
    fresh = [random_space(random.Random(23), size) for size in (1, 4, 8)]
    assert [oracle_table(space) for space in fresh] == want


# What the oracle checks: the kernel, its plans, the direction sum that
# places them side by side, the batch folds over them and the row codec of
# Batch.of and Batch.rows.
_FAST_PATH = {"kernel", "kernel_plan", "direction_sum", "Plan", "points_within",
              "points_meeting", "all_of", "any_of", "Rows", "Batch", "approx", "r_lower",
              "r_upper", "neighborhoods", "_transpose"}


def _names(code):
    """The names that ``code`` and the code objects nested in it refer to."""
    names = {*code.co_names, *code.co_varnames, *code.co_freevars}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


@pytest.mark.parametrize("fn", [oracle.open_family, oracle_table, _greatest_inside],
                         ids=lambda fn: fn.__name__)
def test_the_oracle_names_nothing_of_the_fast_path(fn):
    assert _names(fn.__code__) & _FAST_PATH == set()


def test_random_spaces_label_26_points_by_letter_and_more_by_index():
    rng = random.Random(45)
    assert random_space(rng, 26).universe.labels == tuple(string.ascii_lowercase)
    assert random_space(rng, 27).universe.labels == tuple(f"e{i}" for i in range(27))


def test_the_oracle_reads_only_the_up_sets_of_the_order():
    # The decreasing lanes are the increasing ones reversed, so the table
    # names no down-set, and a down-set with a pair dropped changes nothing.
    assert "pred" not in _names(oracle_table.__code__)
    rng, dropped = random.Random(31), 0
    for i in range(60):
        space = random_space(rng, 2 + i % 6)
        pred = list(space.order.pred)
        pairs = [(y, x) for y, down in enumerate(pred) for x in _points(down) if x != y]
        if not pairs:
            continue
        want = oracle_table(space)
        y, x = rng.choice(pairs)
        pred[y] ^= 1 << x
        space.order.pred = tuple(pred)
        assert oracle_table(space) == want, (space, x, y)
        dropped += 1
    assert dropped >= 40


def test_discrete_space_at_the_oracle_cap_is_exact():
    # Every subset is a monotone open and a monotone closed under the
    # equality order: the widest candidate lists the oracle can meet.
    u = Universe([f"e{k}" for k in range(POWERSET_CAP)])
    space = Gotas(u, generate_topology(u, [u.subset([x]) for x in u.labels]), equality_order(u))
    every = list(range(1 << POWERSET_CAP))
    assert oracle_rows(space) == {INC: (every, every), DEC: (every, every)}
    # Lane a picks a itself: column x is the lanes holding x.
    points = tuple(_counting_columns(POWERSET_CAP))
    assert oracle_table(space) == {INC: (points, points), DEC: (points, points)}


def test_a_failing_pick_at_the_cap_scans_one_subset(monkeypatch):
    # {e0} and {e1} are opens inside {e0, e1}, but their union is not. Only
    # the first failing subset gets the per-subset pick, so the error comes
    # about as fast as a passing table.
    u = Universe([f"e{k}" for k in range(POWERSET_CAP)])
    space = Gotas(u, generate_topology(u, []), equality_order(u))
    monkeypatch.setattr(oracle, "open_family",
                        lambda topology: frozenset({0, u.full_mask, 0b01, 0b10}))
    picks = []
    pick = oracle._greatest_inside
    monkeypatch.setattr(oracle, "_greatest_inside", lambda *args: picks.append(args) or pick(*args))
    started = time.perf_counter()
    with pytest.raises(RuntimeError) as info:
        oracle_table(space)
    assert time.perf_counter() - started < 1.0
    assert str(info.value) == "no unique greatest candidate inside {e0, e1}: {e0} vs {e1}"
    assert len(picks) == 1


# oracle_diff's lines when the fast r_lower reads the opposite direction.
FLIPPED_R_LOWER_LINES = {
    "worked example": (64, [
        "r_lower Inc of {a}: main {a}, oracle {}",
        "r_lower Dec of {a}: main {}, oracle {a}",
        "r_lower Inc of {a, b}: main {a, b}, oracle {}",
        "r_lower Dec of {a, b}: main {}, oracle {a, b}",
        "r_lower Inc of {a, c}: main {a}, oracle {}",
        "r_lower Dec of {a, c}: main {}, oracle {a}",
        "r_lower Inc of {a, b, c}: main {a, b}, oracle {}",
        "r_lower Dec of {a, b, c}: main {}, oracle {a, b}",
        "r_lower Inc of {a, d}: main {a}, oracle {}",
        "r_lower Dec of {a, d}: main {}, oracle {a}",
        "r_lower Inc of {a, b, d}: main {a, b}, oracle {}",
        "r_lower Dec of {a, b, d}: main {}, oracle {a, b}",
        "r_lower Inc of {c, d}: main {}, oracle {c, d}",
        "r_lower Dec of {c, d}: main {c, d}, oracle {}",
        "r_lower Inc of {a, c, d}: main {a}, oracle {c, d}",
        "r_lower Dec of {a, c, d}: main {c, d}, oracle {a}",
        "r_lower Inc of {b, c, d}: main {}, oracle {c, d}",
        "r_lower Dec of {b, c, d}: main {c, d}, oracle {}",
    ]),
    "three points": (32, [
        "r_lower Inc of {b}: main {}, oracle {b}",
        "r_lower Dec of {b}: main {b}, oracle {}",
        "r_lower Inc of {a, b}: main {a, b}, oracle {b}",
        "r_lower Dec of {a, b}: main {b}, oracle {a, b}",
        "r_lower Inc of {b, c}: main {}, oracle {b, c}",
        "r_lower Dec of {b, c}: main {b, c}, oracle {}",
    ]),
}


def test_oracle_diff_reports_a_direction_flipped_r_lower(g, monkeypatch):
    u = Universe(["a", "b", "c"])
    three = Gotas(
        u,
        generate_topology(u, [u.subset(["a", "b"]), u.subset(["b", "c"])]),
        validate_order(u, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]),
    )
    r_lower = ap.r_lower
    monkeypatch.setattr(ap, "r_lower", lambda g, a, d: r_lower(g, a, d.opposite))
    got = {"worked example": oracle_diff(g), "three points": oracle_diff(three)}
    assert got == FLIPPED_R_LOWER_LINES


def test_oracle_diff_checks_the_batch_engine(g, monkeypatch):
    # r_lower on a batch ANDs kernel columns; with an OR in its place the
    # scalar path is untouched, so only a diff over the batch can see it.
    monkeypatch.setattr(Batch, "all_of", Batch.any_of)
    comparisons, mismatches = oracle_diff(g)
    assert comparisons == 64
    assert mismatches
    assert all(line.startswith("r_lower ") for line in mismatches)


@pytest.fixture
def built_rows(monkeypatch):
    """The operand batch of every row table built from here on."""
    built = []

    class Recorded(ap.Rows):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.a)

    monkeypatch.setattr(ap, "Rows", Recorded)
    return built


@pytest.fixture
def folds(monkeypatch):
    """One entry per fold of a batch over a kernel plan from here on; a
    base operator on a batch whose result is remembered folds nothing."""
    done = []
    fold = Batch._fold
    monkeypatch.setattr(Batch, "_fold",
                        lambda self, plan, op: done.append(op) or fold(self, plan, op))
    return done


# Per operand batch, the distinct base terms: r_lower A, r_upper A,
# r_upper(r_lower A), r_lower(r_upper A), and for beta
# r_lower(r_upper(r_lower A)), r_upper(r_lower(r_upper A)). Each is folded
# once, at Inc on the direction sum, where one fold gives both directions.
# Six each for A and for the binary laws' table; duality folds R's two for
# the complement of A, at Dec on the sum, outside any table. An exhaustive
# check reads the binary laws off A's table, passing or failing, and builds
# only A's: 6 + 2 = 8 folds. A sampled check builds one more table,
# A∩B | A | B | A∪B of the drawn pairs side by side: 6 + 6 + 2 = 14 folds.
FOLDS_PER_CHECK = 8
FOLDS_WITH_PAIR_TABLES = 14


def _minus_interior_lower(g, a, d):
    return a - ap.r_lower(g, a, d)


# A gamma lower that is not monotone but reads no base term beyond the six.
NONMONOTONE_GAMMA_LOWER = replace(
    DEFAULT_SUITE, lower={**DEFAULT_SUITE.lower, GAMMA: _minus_interior_lower})


@pytest.fixture
def widths(monkeypatch):
    """The lane count of every batch built from here on."""
    seen = []
    init = Batch.__init__
    monkeypatch.setattr(Batch, "__init__",
                        lambda self, u, columns, width: seen.append(width) or init(self, u, columns, width))
    return seen


def test_check_builds_each_operand_once(g, built_rows, folds):
    assert all(r.passed for r in check_propositions(g))
    unit = Batch.powerset(g.universe)
    assert [(x.width, x.columns) for x in built_rows] == [(unit.width, unit.columns)]
    assert len(folds) == FOLDS_PER_CHECK


def test_unary_laws_reuse_their_witness_templates(g):
    # A passing claim yields nothing. The templates are built at import: a
    # failing claim yields the very same object from every table, and text
    # is formatted only for a failing law's witness.
    unit = Batch.powerset(g.universe)
    unary = [(pid, law) for pid, law in oracle._CATALOGUE if callable(law)]
    for operand in (unit, unit.complement()):
        rows = ap.Rows(g, operand)
        assert [list(law(rows)) for _, law in unary] == [[]] * 20
    reused = 0
    for suite in _wrong_suites().values():
        tables = [ap.Rows(g, unit, suite), ap.Rows(g, unit, suite)]
        for pid, law in unary:
            first, second = ([template for _, _, template, _ in law(rows)] for rows in tables)
            assert len(first) == len(second) and all(map(operator.is_, first, second)), pid
            reused += len(first)
    assert reused == 67


def _drawn_pairs(space, samples, seed):
    """The drawn A and B of a sampled check, as bitmasks."""
    rng, n = random.Random(seed), space.universe.size
    rng.getrandbits(n * samples)  # the unary draws come first
    block = rng.getrandbits(2 * n * samples)
    rows = [block >> 2 * n * s & (1 << 2 * n) - 1 for s in range(samples)]
    return [r & (1 << n) - 1 for r in rows], [r >> n for r in rows]


def _classes(space):
    """The distinct kernel classes, Inc then Dec, that a sampled check adds
    to its unary lanes."""
    return list(dict.fromkeys([*space.kernel_plan[INC].masks, *space.kernel_plan[DEC].masks]))


def test_a_sampled_check_folds_each_base_term_once(g, built_rows, folds):
    reports = check_propositions(g, samples=256, seed=6)
    assert [(r.passed, r.instances) for r in reports] == [(True, 256)] * len(PROPOSITION_IDS)
    # A, then the binary laws' table. A holds the 256 draws, then the
    # kernel classes.
    classes = _classes(g)
    assert [x.width for x in built_rows] == [256 + len(classes), 4 * 256]
    assert built_rows[0].rows()[256:] == classes
    a, b = _drawn_pairs(g, 256, 6)
    assert built_rows[1].rows() == ([x & y for x, y in zip(a, b)] + a + b
                                    + [x | y for x, y in zip(a, b)])
    assert len(folds) == FOLDS_WITH_PAIR_TABLES


@pytest.mark.parametrize("suite", [DEFAULT_SUITE, NONMONOTONE_GAMMA_LOWER],
                         ids=["passing", "failing"])
def test_an_exhaustive_check_at_the_cap_reads_only_the_powerset(suite, built_rows, folds, widths):
    # Passing or failing, the binary laws are read off A's table: no batch
    # is wider than the powerset, and the check folds as often as a pass.
    u = Universe([f"e{k}" for k in range(POWERSET_CAP)])
    space = partition_space(u, random_partition(random.Random(4), u))
    reports = check_propositions(space, suite=suite)
    failed = {r.proposition for r in reports if not r.passed}
    assert "3.3" in failed if suite is NONMONOTONE_GAMMA_LOWER else not failed
    unit = Batch.powerset(u)
    assert [(x.width, x.columns) for x in built_rows] == [(unit.width, unit.columns)]
    assert max(widths) == 2 ** POWERSET_CAP
    assert len(folds) == FOLDS_PER_CHECK


@pytest.fixture
def counts(monkeypatch):
    """One entry per ``Batch.counts`` call from here on."""
    done = []
    count = Batch.counts
    monkeypatch.setattr(Batch, "counts", lambda self: done.append(self.width) or count(self))
    return done


@pytest.mark.parametrize("samples", [None, 256], ids=["exhaustive", "sampled"])
def test_a_passing_check_counts_no_points(g, probe, samples, counts):
    # The accuracy laws follow from inclusions that the rows already hold:
    # also where the shipped 3.21/3.25 fail, and under the corrupted gamma
    # upper, which lies between beta upper and R upper as the shipped one does.
    u = Universe([f"e{k}" for k in range(16)])
    partition = partition_space(u, random_partition(random.Random(4), u))
    for space in (g, partition):
        assert all(r.passed for r in check_propositions(space, samples=samples))
    failed = [r.proposition for r in check_propositions(probe, samples=samples) if not r.passed]
    assert failed == ["3.21", "3.25"]
    for space in (g, probe, partition):
        reports = check_propositions(space, suite=corrupted_suite(), samples=samples)
        assert all(r.passed for r in reports) != (space is probe)
    assert counts == []


def _accuracy_lanes(rng, n, width, loose):
    """The lower and upper bitmasks of rows x and y over ``width`` lanes.
    In each lane x's lower lies in its upper and in y's lower, and y's
    upper lies in x's, but each of the three is broken with its
    probability in ``loose``. A fifth of the uppers start empty."""
    lanes = []
    for _ in range(width):
        up_x = rng.getrandbits(n) if rng.random() < 0.8 else 0
        up_y = up_x & rng.getrandbits(n) if rng.random() < 0.8 else 0
        lo_x = rng.getrandbits(n) & (up_x if rng.random() >= loose[0] else -1)
        lo_y = rng.getrandbits(n) | (lo_x if rng.random() >= loose[1] else 0)
        up_y = up_y if rng.random() >= loose[2] else rng.getrandbits(n)
        lanes.append((lo_x, up_x, lo_y, up_y))
    return [list(column) for column in zip(*lanes)]


def _exceeding(x, y):
    """The lanes where row x's accuracy exceeds row y's, Fraction by Fraction."""
    return sum(1 << s for s, (p, q) in enumerate(zip(x.accuracy, y.accuracy)) if p > q)


def test_accuracy_counts_only_where_an_inclusion_fails():
    # The fail mask of each accuracy comparison equals the counted one, on
    # random lanes that keep or break the three inclusions it relies on.
    rng, compared, failing = random.Random(25), 0, 0
    for _ in range(300):
        u = Universe([f"e{k}" for k in range(rng.randint(1, 9))])
        width = rng.randint(1, 40)
        a = Batch.of(u, [rng.getrandbits(u.size) if rng.random() < 0.9 else 0
                         for _ in range(width)])
        loose = [rng.choice((0, 0, 0.3)) for _ in range(3)]
        lo_x, up_x, lo_y, up_y = _accuracy_lanes(rng, u.size, width, loose)
        x, y = (ap.ApproxReport(Batch.of(u, lo), Batch.of(u, up), Batch.of(u, up))
                for lo, up in ((lo_x, up_x), (lo_y, up_y)))
        for first, second in ((x, y), (y, x)):
            counted = a.nonempty() & _exceeding(first, second)
            assert oracle._accuracy_exceeds(a, first, second) == counted
            compared, failing = compared + 1, failing + bool(counted)
    assert 0 < failing < compared
    # And on the rows the two accuracy laws compare, on random spaces.
    for size in range(1, 8):
        space = random_space(rng, size)
        rows = ap.Rows(space, Batch.powerset(space.universe))
        for d in (INC, DEC):
            r, gamma, beta = (rows[fam, d] for fam in (R, GAMMA, BETA))
            for first, second in ((r, gamma), (r, beta), (gamma, beta)):
                counted = rows.a.nonempty() & _exceeding(first, second)
                assert oracle._accuracy_exceeds(rows.a, first, second) == counted


def test_no_memo_outlives_a_table(g, probe, folds):
    for space in (g, probe):
        check_propositions(space)
        check_propositions(space, samples=64, seed=3)
        ap.Rows(space, space.universe.from_bits(5))
    assert ap._MEMO.get(None) is None
    seen = []

    def failing(space, a, d):
        seen.append(ap._MEMO.get(None))
        raise RuntimeError("failing suite")

    suite = replace(DEFAULT_SUITE, upper={**DEFAULT_SUITE.upper, GAMMA: failing})
    with pytest.raises(RuntimeError, match="failing suite"):
        ap.Rows(g, Batch.powerset(g.universe), suite)
    assert seen and seen[0] is not None
    assert ap._MEMO.get(None) is None
    # Outside a table, each base call folds afresh.
    folds.clear()
    batch = Batch.powerset(g.universe)
    assert ap.r_lower(g, batch, INC).rows() == ap.r_lower(g, batch, INC).rows()
    assert len(folds) == 2


def test_a_batch_gets_each_space_its_own_folds():
    # Two spaces over one universe: the same batch, passed through both,
    # must get each space its own results.
    u = Universe(["a", "b", "c"])
    chain = validate_order(u, [(0, 1), (1, 2), (0, 2)])
    spaces = [Gotas(u, generate_topology(u, [u.subset(["a"])]), equality_order(u)),
              Gotas(u, generate_topology(u, [u.subset(["b", "c"])]), chain)]
    batch = Batch.powerset(u)
    for op in (ap.r_lower, ap.r_upper):
        for d in (INC, DEC):
            got = [op(space, batch, d).rows() for space in spaces]
            assert got == [[op(space, x, d).bits for x in subsets(u)] for space in spaces]
            assert got[0] != got[1]


def test_one_sample_gives_the_exhaustive_verdict_on_small_random_spaces():
    # Where 3.21 or 3.25 fails, it fails at a kernel class; the other laws
    # hold on the shipped operators. So one draw plus the classes decides.
    rng, failing = random.Random(27), 0
    for _ in range(1000):
        space = random_space(rng, rng.randint(1, 10), 8)
        want = [r.passed for r in check_propositions(space)]
        assert [r.passed for r in check_propositions(space, samples=1)] == want
        failing += not all(want)
    assert failing > 50


def test_operands_equal_by_value_keep_their_own_segments(built_rows):
    # One point, one sample: A∩B and A∪B each equal A or B by value, and
    # each still gets its own lane of the binary laws' table. A's table
    # holds the draw and the one kernel class, {a}.
    u = Universe(["a"])
    space = Gotas(u, generate_topology(u, []), equality_order(u))
    for seed in range(8):
        reports = check_propositions(space, samples=1, seed=seed)
        assert [(r.passed, r.instances) for r in reports] == [(True, 1)] * len(PROPOSITION_IDS)
        [a], [b] = _drawn_pairs(space, 1, seed)
        assert built_rows[-1].rows() == [a & b, a, b, a | b]
    assert _classes(space) == [1]
    assert [x.width for x in built_rows] == [2, 4] * 8
    assert len({tuple(x.rows()) for x in built_rows[1::2]}) > 1


def test_checker_and_diff_read_batches_without_rows(g, probe, monkeypatch):
    # The checker, which counts no points here, and the oracle diff read
    # columns; a witness reads one lane through Batch.lane.
    def runs():
        return [
            [(r.proposition, r.instances, r.witness) for r in reports]
            for space in (g, probe)
            for reports in (check_propositions(space),
                            check_propositions(space, samples=64, seed=2))
        ] + [oracle_diff(g)]

    want = runs()
    assert {r[0] for r in want[2] if r[2]} == {"3.21", "3.25"}

    def refuse(self):
        raise AssertionError("Batch.rows called")

    monkeypatch.setattr(Batch, "rows", refuse)
    assert runs() == want


class TestCheckPropositions:
    def test_worked_example_all_pass(self, g):
        reports = check_propositions(g)
        assert [r.proposition for r in reports] == list(PROPOSITION_IDS)
        assert all(r.passed for r in reports)
        for r in reports:
            # 16 subsets for the unary laws, 256 pairs for the binary ones
            assert r.instances in (16, 256)

    def test_discrete_space_all_pass(self):
        u = Universe(["a", "b", "c"])
        g = Gotas(
            u,
            generate_topology(u, [u.subset([label]) for label in u.labels]),
            equality_order(u),
        )
        assert all(r.passed for r in check_propositions(g))

    def test_exhaustive_cap(self):
        space = random_space(random.Random(3), POWERSET_CAP + 1)
        with pytest.raises(CapExceededError, match=f"exceeds the powerset cap {POWERSET_CAP}$"):
            check_propositions(space)

    def test_exhaustive_check_at_the_cap(self):
        u = Universe([f"e{k}" for k in range(POWERSET_CAP)])
        blocks = random_partition(random.Random(4), u)
        reports = check_propositions(partition_space(u, blocks))
        assert all(r.passed for r in reports)
        assert {r.instances for r in reports} == {2 ** POWERSET_CAP, 4 ** POWERSET_CAP}

    def test_sampled_mode(self):
        u = Universe(list("abcdef"))
        blocks = random_partition(random.Random(5), u)
        space = partition_space(u, blocks)
        reports = check_propositions(space, samples=60, seed=5)
        assert all(r.passed for r in reports)
        assert all(r.instances == 60 for r in reports)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_mode_needs_a_sample(self, g, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_propositions(g, samples=samples)

    def test_known_divergence_gamma_upper_vs_semi_upper(self, probe):
        # The union-form gamma upper is not bounded by the semi upper: on
        # this space gamma_upper({a}) = {a, c} while semi_upper({a}) = {a}.
        # The checker must report exactly the two affected laws and give a
        # witness; everything else holds.
        u = probe.universe
        a = u.subset(["a"])
        assert ap.gamma_upper(probe, a, INC) == u.subset(["a", "c"])
        assert ap.semi_upper(probe, a, INC) == u.subset(["a"])
        reports = check_propositions(probe)
        failed = {r.proposition for r in reports if not r.passed}
        assert failed == {"3.21", "3.25"}
        for r in reports:
            if not r.passed:
                assert r.witness

    def test_no_gamma_upper_meets_both_3_9_and_3_21(self, probe):
        # 3.9 asks pre upper ⊆ gamma upper and 3.21 gamma upper ⊆ semi
        # upper, so together they need pre upper ⊆ semi upper, which fails
        # here. Whichever gamma upper is plugged in, one of them breaks.
        u = probe.universe
        a = u.subset(["a"])
        pre, semi = ap.pre_upper(probe, a, INC), ap.semi_upper(probe, a, INC)
        assert pre == u.subset(["a", "c"])
        assert semi == u.subset(["a"])
        assert not pre.is_subset(semi)
        for suite in (DEFAULT_SUITE, corrupted_suite()):
            reports = check_propositions(probe, suite=suite)
            assert {r.proposition for r in reports if not r.passed} & {"3.9", "3.21"}

    def test_corrupted_gamma_upper_is_caught(self, probe):
        reports = check_propositions(probe, suite=corrupted_suite())
        failed = {r.proposition for r in reports if not r.passed}
        assert "3.9" in failed
        witness = next(r for r in reports if r.proposition == "3.9").witness
        assert "pre upper" in str(witness)
        a, pre, gamma = witness.values
        assert pre == ap.pre_upper(probe, a, witness.direction) and not pre.is_subset(gamma)

    def test_corrupted_suite_changes_nothing_on_the_worked_example(self, g):
        # On this particular space the intersection collapses to the union,
        # so the corruption is invisible here; the probe space above is what
        # guards the failure path.
        assert all(r.passed for r in check_propositions(g, suite=corrupted_suite()))


def _chain_laws_hold(g, d):
    """Whether 3.21 (beta ⊆ gamma ⊆ S upper) and 3.25 (the same chain of
    boundaries) hold on every subset in direction d."""
    semi = ap.OperatorFamily.S
    rows = ap.Rows(g, Batch.powerset(g.universe), DEFAULT_SUITE, (semi, GAMMA, BETA))
    chain = [rows[family, d] for family in (BETA, GAMMA, semi)]
    return tuple(not any((getattr(x, field) - getattr(y, field)).nonempty() for x, y in zip(chain, chain[1:]))
                 for field in ("upper", "boundary"))


def test_chain_laws_hold_iff_each_kernel_has_an_open_upper(probe):
    # In direction d, 3.21 and 3.25 hold on every subset iff r_upper(M_d(x))
    # is d-monotone open for every x; where it is not, both fail at
    # A = M_d(x). Criterion 3 fails on exactly these spaces.
    rng = random.Random(24)
    sizes = [1 + i % 10 for i in range(800)] + [12, 13, 14, 15, POWERSET_CAP]
    failing = 0
    for size in sizes:
        space = random_space(rng, size)
        for d in (INC, DEC):
            holds = open_upper_failure(space, (d,)) is None
            assert _chain_laws_hold(space, d) == (holds, holds), (space, d)
            failing += not holds
    assert failing >= 30
    for size in (*range(1, 11), POWERSET_CAP):
        u = Universe([f"e{k}" for k in range(size)])
        space = partition_space(u, random_partition(rng, u))
        assert open_upper_failure(space) is None
    # The probe fails first at x = a: r_upper({a}) = {a, c} is not open, in
    # both directions.
    a = probe.universe.subset(["a"])
    assert probe.kernel[INC][0] == probe.kernel[DEC][0] == a.bits
    assert ap.r_upper(probe, a, INC) == ap.r_upper(probe, a, DEC) == probe.universe.subset(["a", "c"])
    assert [open_upper_failure(probe, ds) for ds in ((INC, DEC), (DEC,))] == [(INC, 0), (DEC, 0)]
    assert [_chain_laws_hold(probe, d) for d in (INC, DEC)] == [(False, False)] * 2


# Each composed family's shipped definition from I and C: its lower is
# A ∩ t(A) and its upper A ∪ t'(A), for these (t, t').
_COMPOSITIONS = {
    ap.OperatorFamily.S: (lambda i, c, a: c(i(a)), lambda i, c, a: i(c(a))),
    ap.OperatorFamily.P: (lambda i, c, a: i(c(a)), lambda i, c, a: c(i(a))),
    GAMMA: (lambda i, c, a: c(i(a)) | i(c(a)),) * 2,
    BETA: (lambda i, c, a: c(i(c(a))), lambda i, c, a: i(c(i(a)))),
}


def _broken_premises(space, suite, rows):
    """The premises of open_upper_failure's proof and of the catalogue's
    other laws that ``suite`` breaks on the subsets ``rows``, as
    (direction, premise) pairs: I and C are the suite's own R rows, and a
    family's definition holds where its rows are the shipped composition
    of them. Monotonicity is checked on the cover pairs (A, A ∪ {x}) of
    each A, which chain to every comparable pair."""
    lower, upper = suite.lower[R], suite.upper[R]
    u = space.universe
    a = Batch.of(u, rows)
    covers = [Batch.of(u, [r | 1 << x for r in rows]) for x in range(u.size)]
    broken = []
    for d in (INC, DEC):
        i, c = lower(space, a, d), upper(space, a, d)
        lanes = {
            "I deflationary": (i - a).nonempty(),
            "I monotone": any((i - lower(space, b, d)).nonempty() for b in covers),
            "I idempotent": lower(space, i, d).differs(i),
            "C inflationary": (a - c).nonempty(),
            "C monotone": any((c - upper(space, b, d)).nonempty() for b in covers),
            "C idempotent": upper(space, c, d).differs(c),
            "C is the dual of the opposite I": c.differs(
                lower(space, a.complement(), d.opposite).complement()),
        }
        interior, closure = (lambda x: lower(space, x, d)), (lambda x: upper(space, x, d))
        for family, (t_lower, t_upper) in _COMPOSITIONS.items():
            lanes[f"{family.label} definition"] = (
                suite.lower[family](space, a, d).differs(a & t_lower(interior, closure, a))
                or suite.upper[family](space, a, d).differs(a | t_upper(interior, closure, a)))
        broken += [(d, premise) for premise, failed in lanes.items() if failed]
    return broken


def _relation_space(rng, size):
    """A space whose topology comes from a sparse random relation, so that
    its N(x) mostly differ, with a random order."""
    u = Universe([f"e{k}" for k in range(size)])
    pairs = [(x, y) for x in range(size) for y in range(size) if rng.random() < min(0.3, 3 / size)]
    return Gotas(u, topology_from_relation(BinaryRelation(u, pairs)), random_order(rng, u))


def test_the_base_operators_meet_the_premises_of_the_laws():
    # Every subset and cover pair of 1-10-point spaces; past the cap, the
    # kernel classes, their complements and drawn subsets.
    rng = random.Random(15)
    for i in range(80):
        size = 1 + i % 10
        space = random_space(rng, size) if i % 2 else _relation_space(rng, size)
        assert _broken_premises(space, DEFAULT_SUITE, list(range(1 << size))) == [], space
    for size in (17, 24, 32, 40, 48, 56, 64):
        u = Universe([f"e{k}" for k in range(size)])
        for space in (random_space(rng, size), _relation_space(rng, size),
                      partition_space(u, random_partition(rng, u))):
            classes = {m for d in (INC, DEC) for m in space.kernel[d]}
            rows = [*classes, *(u.full_mask ^ m for m in classes),
                    *(rng.getrandbits(size) for _ in range(64))]
            assert _broken_premises(space, DEFAULT_SUITE, rows) == [], space


def _preorders(n):
    """Every reflexive transitive relation on n points, as the up-set
    bitmask of each point."""
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    for choice in range(1 << len(off)):
        up = [1 << x for x in range(n)]
        for k, (x, y) in enumerate(off):
            if choice >> k & 1:
                up[x] |= 1 << y
        if all(up[y] & ~up[x] == 0 for x in range(n) for y in _points(up[x])):
            yield up


def test_census_of_every_space_on_at_most_three_points():
    # A finite topology is the Alexandrov topology of its specialisation
    # preorder, whose up-sets are the minimal neighborhoods: so the
    # preorders give every topology, and the antisymmetric ones every
    # partial order (1, 4, 29 topologies; 1, 3, 19 orders). On each space
    # every law holds but 3.21 and 3.25, which fail together iff some
    # r_upper(M_d(x)) is not d-monotone open.
    census = []
    for n in (1, 2, 3):
        u = Universe([f"e{k}" for k in range(n)])
        ups = list(_preorders(n))
        orders = [validate_order(u, [(x, y) for x in range(n) for y in _points(up[x])])
                  for up in ups if all(up[y] >> x & 1 == 0 for x in range(n)
                                       for y in _points(up[x]) if y != x)]
        spaces = failing = 0
        for up in ups:
            for order in orders:
                space = Gotas(u, Topology(u, up), order)
                failed = {r.proposition for r in check_propositions(space) if not r.passed}
                cause = open_upper_failure(space) is not None
                assert failed == ({"3.21", "3.25"} if cause else set()), (up, order.succ)
                spaces += 1
                failing += cause
        census.append((len(ups), len(orders), spaces, failing))
    assert census == [(1, 1, 1, 0), (4, 3, 12, 0), (29, 19, 551, 39)]


def test_sampled_chain_laws_past_the_cap_follow_the_open_upper_condition():
    # Past the powerset cap a sampled check adds the kernel classes to its
    # draws, so 3.21 and 3.25 fail iff some r_upper(M_d(x)) is not
    # d-monotone open, with any sample count; every other law holds. The
    # sizes reach two-word draws.
    rng, failing = random.Random(28), 0
    for k in range(1000):
        space = random_space(rng, rng.randint(POWERSET_CAP + 1, 64), 8)
        samples = rng.choice((1, 8))
        failed = {r.proposition for r in check_propositions(space, samples=samples, seed=k)
                  if not r.passed}
        cause = open_upper_failure(space) is not None
        assert failed == ({"3.21", "3.25"} if cause else set()), (k, samples)
        failing += cause
    assert failing >= 20


# Deliberately wrong operators, so that every law of the catalogue has a
# pinned counterexample. None of them is monotone.
def _outside_closure_lower(g, a, d):
    return a & ap.r_upper(g, a.complement(), d)


def _outside_interior_upper(g, a, d):
    return a | ap.r_lower(g, a.complement(), d)


def _outside_opposite_interior_upper(g, a, d):
    return a | ap.r_lower(g, a.complement(), d.opposite)


def _opposite_r_lower(g, a, d):
    return ap.r_lower(g, a, d.opposite)


def _wrong_suites():
    lower, upper = DEFAULT_SUITE.lower, DEFAULT_SUITE.upper
    return {
        "nonmonotone": replace(
            DEFAULT_SUITE,
            lower={**lower, GAMMA: _outside_closure_lower, BETA: _minus_interior_lower},
            upper={**upper, GAMMA: _outside_interior_upper,
                   BETA: _outside_opposite_interior_upper},
        ),
        # The r_lower/r_upper fields always match the R entries.
        "swapped_r": replace(
            DEFAULT_SUITE, r_lower=ap.r_upper, r_upper=ap.r_lower,
            lower={**lower, R: ap.r_upper}, upper={**upper, R: ap.r_lower},
        ),
        "flipped_r": replace(
            DEFAULT_SUITE, r_lower=_opposite_r_lower, lower={**lower, R: _opposite_r_lower},
        ),
    }


# (suite, law) -> (instances, witness) of every law each wrong suite fails
# on the worked example, exhaustively. Together they reach all 26 laws.
WRONG_SUITE_WITNESSES = {
    ('nonmonotone', '3.2'): (2, 'Inc: gamma upper not monotone at A={}, B={a}'),
    ('nonmonotone', '3.3'): (36, 'Inc: gamma lower not monotone at A={b}, B={a, b}'),
    ('nonmonotone', '3.4'): (1, 'Inc: A={} is R exact but not gamma exact'),
    ('nonmonotone', '3.5'): (16, 'Inc: A={a, b, c, d}: R lower within gamma lower: {a, b, c, d} not within {}'),
    ('nonmonotone', '3.6'): (1, 'Inc: A={}: gamma upper within R upper: {a, b, c, d} not within {}'),
    ('nonmonotone', '3.7'): (2, 'Inc: A={a}: pre lower within gamma lower: {a} not within {}'),
    ('nonmonotone', '3.8'): (16, 'Inc: A={a, b, c, d}: semi lower within gamma lower: {a, b, c, d} not within {}'),
    ('nonmonotone', '3.9'): (2, 'Dec: A={a}: pre upper within gamma upper: {a, b} not within {a}'),
    ('nonmonotone', '3.10'): (1, 'Inc: A={}: beta upper within pre upper: {a, b, c, d} not within {}'),
    ('nonmonotone', '3.12'): (2, 'Inc: beta upper not monotone at A={}, B={a}'),
    ('nonmonotone', '3.13'): (36, 'Dec: beta lower not monotone at A={b}, B={a, b}'),
    ('nonmonotone', '3.14'): (1, 'Inc: A={} is R exact but not beta exact'),
    ('nonmonotone', '3.15'): (2, 'Dec: A={a}: R lower within beta lower: {a} not within {}'),
    ('nonmonotone', '3.16'): (1, 'Inc: A={}: beta upper within R upper: {a, b, c, d} not within {}'),
    ('nonmonotone', '3.18'): (2, 'Inc: A={}, B={a}: Neg(A∪B) {b, c, d} not within Neg(A)∩Neg(B)'),
    ('nonmonotone', '3.19'): (2, 'Inc: A={}, B={a}: Neg(A∪B) {b} not within Neg(A)∩Neg(B)'),
    ('nonmonotone', '3.20'): (2, 'Dec: A={a}: gamma lower {a} not within beta lower {}'),
    ('nonmonotone', '3.21'): (1, 'Inc: A={}: gamma upper {a, b, c, d} not within semi upper {}'),
    ('nonmonotone', '3.23'): (2, 'Dec: A={a}: R accuracy 1/2 > beta accuracy 0'),
    ('nonmonotone', '3.25'): (1, 'Inc: A={}: boundary gamma {a, b, c, d} not within boundary S {}'),
    ('nonmonotone', '3.26'): (1, 'Inc: A={}: boundary gamma {a, b, c, d} not within boundary R {}'),
    ('nonmonotone', '3.27'): (1, 'Inc: A={}: boundary beta {a, b, c, d} not within boundary R {}'),
    ('nonmonotone', '3.28a'): (2, 'Dec: A={a}: accuracies R 1/2, gamma 1, beta 0 not ascending'),
    ('nonmonotone', '3.28b'): (2, 'Dec: A={a}: gamma lower within beta lower: {a} not within {}'),
    ('swapped_r', 'sandwich'): (2, 'R Inc: expected {a, b, c, d} within {a} within {}'),
    ('swapped_r', '3.5'): (2, 'Inc: A={a}: R lower within gamma lower: {a, b, c, d} not within {a}'),
    ('swapped_r', '3.6'): (2, 'Inc: A={a}: gamma upper within R upper: {a, b, c, d} not within {}'),
    ('swapped_r', '3.15'): (2, 'Inc: A={a}: R lower within beta lower: {a, b, c, d} not within {a}'),
    ('swapped_r', '3.16'): (2, 'Inc: A={a}: beta upper within R upper: {a} not within {}'),
    ('swapped_r', '3.23'): (2, 'Inc: A={a}: R accuracy 1 > gamma accuracy 1/4'),
    ('swapped_r', '3.26'): (2, 'Inc: A={a}: boundary gamma {b, c, d} not within boundary R {}'),
    ('swapped_r', '3.27'): (2, 'Dec: A={a}: boundary beta {b} not within boundary R {}'),
    ('swapped_r', '3.28a'): (2, 'Inc: A={a}: accuracies R 1, gamma 1/4, beta 1 not ascending'),
    ('flipped_r', 'duality'): (2, 'A={a}: duality upper Inc vs lower Dec: {a, b, c, d} vs {a, b}'),
}


def test_wrong_suites_fail_every_law_with_pinned_witnesses(g):
    got = {}
    for name, suite in _wrong_suites().items():
        for r in check_propositions(g, suite=suite):
            if not r.passed:
                got[name, r.proposition] = (r.instances, str(r.witness))
                # The first direction the text names is the one the law failed in.
                assert re.search("Inc|Dec", str(r.witness))[0] == r.witness.direction.label
    assert got == WRONG_SUITE_WITNESSES
    assert {pid for _, pid in got} == set(PROPOSITION_IDS)


def _definitions(*families):
    return {f"{family.label} definition" for family in families}


_I_DEFLATES, _I_MONOTONE, _I_IDEMPOTENT = "I deflationary", "I monotone", "I idempotent"
_C_INFLATES, _C_MONOTONE = "C inflationary", "C monotone"
_S, _P = ap.OperatorFamily.S, ap.OperatorFamily.P
_BOUNDS = {_I_DEFLATES, _I_MONOTONE, _C_INFLATES, _C_MONOTONE}  # 3.5, 3.6, 3.15, 3.16 together
# The premises each law uses, as the catalogue's comment block in
# gotas/oracle.py gives them; for 3.21 and 3.25, those of the proof's ⇐ in
# open_upper_failure, which also needs its open-upper condition.
LAW_PREMISES = {
    "sandwich": {_I_DEFLATES, _C_INFLATES, *_definitions(_S, _P, GAMMA, BETA)},
    "3.2": {_I_MONOTONE, _C_MONOTONE, *_definitions(GAMMA)},
    "3.3": {_I_MONOTONE, _C_MONOTONE, *_definitions(GAMMA)},
    "3.12": {_I_MONOTONE, _C_MONOTONE, *_definitions(BETA)},
    "3.13": {_I_MONOTONE, _C_MONOTONE, *_definitions(BETA)},
    "3.18": {_I_MONOTONE, _C_MONOTONE, *_definitions(GAMMA)},
    "3.19": {_I_MONOTONE, _C_MONOTONE, *_definitions(BETA)},
    "3.4": {_I_DEFLATES, _C_INFLATES, *_definitions(GAMMA)},
    "3.14": {_I_DEFLATES, _C_INFLATES, *_definitions(BETA)},
    "3.5": {_I_DEFLATES, _I_MONOTONE, _C_INFLATES, *_definitions(GAMMA)},
    "3.15": {_I_DEFLATES, _I_MONOTONE, _C_INFLATES, *_definitions(BETA)},
    "3.6": {_I_DEFLATES, _C_INFLATES, _C_MONOTONE, *_definitions(GAMMA)},
    "3.16": {_I_DEFLATES, _C_INFLATES, _C_MONOTONE, *_definitions(BETA)},
    "3.7": _definitions(_P, GAMMA),
    "3.8": _definitions(_S, GAMMA),
    "3.9": _definitions(_P, GAMMA),
    "3.10": {_I_DEFLATES, *_definitions(BETA, _P)},
    "3.20": {_I_MONOTONE, _C_INFLATES, _C_MONOTONE, *_definitions(_S, GAMMA, BETA)},
    "3.28b": {_I_MONOTONE, _C_INFLATES, _C_MONOTONE, *_definitions(GAMMA, BETA)},
    "3.23": {*_BOUNDS, *_definitions(GAMMA, BETA)},
    "3.28a": {*_BOUNDS, *_definitions(GAMMA, BETA)},
    "3.26": {*_BOUNDS, *_definitions(GAMMA)},
    "3.27": {*_BOUNDS, *_definitions(BETA)},
    "duality": {"C is the dual of the opposite I"},
    "3.21": {_I_DEFLATES, _I_MONOTONE, _I_IDEMPOTENT, _C_MONOTONE,
             *_definitions(_S, GAMMA, BETA)},
    "3.25": {_I_DEFLATES, _I_MONOTONE, _I_IDEMPOTENT, _C_MONOTONE,
             *_definitions(_S, GAMMA, BETA)},
}


def test_every_law_a_wrong_suite_fails_uses_a_premise_it_breaks(g, probe):
    # On every subset of the worked example and of the probe. Where
    # open_upper_failure names a point, 3.21 and 3.25 fail under the
    # shipped suite too, so they are exempt there.
    assert LAW_PREMISES.keys() == set(PROPOSITION_IDS)
    suites = {"corrupted": corrupted_suite(), **_wrong_suites()}
    failed = dict.fromkeys(suites, 0)
    for space in (g, probe):
        exempt = {"3.21", "3.25"} if open_upper_failure(space) is not None else set()
        for name, suite in suites.items():
            broken = {premise for _, premise in
                      _broken_premises(space, suite, list(range(1 << space.universe.size)))}
            for r in check_propositions(space, suite=suite):
                if not r.passed and r.proposition not in exempt:
                    assert LAW_PREMISES[r.proposition] & broken, (name, r.proposition, broken)
                    failed[name] += 1
    assert all(failed.values()), failed


# The row each binary law reads, (family, row field, antitone), and the
# clauses the law states on a pair A, B in one direction, given that row's
# values at A, B, A∩B and A∪B as bitmasks.
BINARY_ROWS = {
    "3.2": (GAMMA, "upper", False), "3.3": (GAMMA, "lower", False),
    "3.12": (BETA, "upper", False), "3.13": (BETA, "lower", False),
    "3.18": (GAMMA, "negative", True), "3.19": (BETA, "negative", True),
}


def _within(x, y):
    return not x & ~y


def _clauses(antitone, a, b, fa, fb, fi, fu):
    if antitone:
        # Neg(A∪B) within Neg(A)∩Neg(B) and within Neg(A)∪Neg(B);
        # Neg(A)∪Neg(B) and Neg(A)∩Neg(B) within Neg(A∩B).
        return (_within(fu, fa & fb), _within(fa | fb, fi),
                _within(fu, fa | fb), _within(fa & fb, fi))
    # Monotone, then f(A∩B) within the intersection, then the union within f(A∪B).
    return (not _within(a, b) or _within(fa, fb), _within(fi, fa & fb), _within(fa | fb, fu))


def _check_binary_laws_against_scalars(space, suite, samples, seed):
    """Check each binary law's exhaustive and sampled reports against the
    scalar rows of every subset; returns how many laws fail exhaustively."""
    u, n = space.universe, space.universe.size
    width = 1 << n
    rows = [ap.Rows(space, u.from_bits(m), suite, (GAMMA, BETA)) for m in range(width)]
    drawn = list(zip(*_drawn_pairs(space, samples, seed)))
    exhaustive, sampled = ({r.proposition: r for r in reports if r.proposition in BINARY_ROWS}
                           for reports in (check_propositions(space, suite=suite),
                                           check_propositions(space, suite=suite,
                                                              samples=samples, seed=seed)))
    failures = 0
    for pid, (family, field, antitone) in BINARY_ROWS.items():
        f = {d: [getattr(r[family, d], field).bits for r in rows] for d in (INC, DEC)}

        def breaks(a, b):
            return any(not all(_clauses(antitone, a, b, f[d][a], f[d][b], f[d][a & b], f[d][a | b]))
                       for d in (INC, DEC))

        def breaks_row(d, x, y):
            return not (_within(f[d][y], f[d][x]) if antitone else _within(f[d][x], f[d][y]))

        def check_witness(report):
            w = report.witness
            d, x, y = w.direction, w.values[0].bits, w.values[1].bits
            assert _within(x, y) and breaks_row(d, x, y), (pid, str(w))
            # The negative-region witness also names the row at B.
            assert [v.bits for v in w.values[2:]] == ([f[d][y]] if antitone else []), pid
            return d, x, y

        report = exhaustive[pid]
        assert report.passed == (not any(breaks(a, b) for a in range(width) for b in range(width)))
        if report.passed:
            assert report.instances == width ** 2
        else:
            failures += 1
            first = next((d, a, a | 1 << x) for a in range(width) for x in range(n)
                         if not a >> x & 1 for d in (INC, DEC) if breaks_row(d, a, a | 1 << x))
            d, x, y = check_witness(report)
            assert (d, x, y) == first and report.instances == x * width + y + 1, pid
        report = sampled[pid]
        hit = next((i for i, (a, b) in enumerate(drawn) if breaks(a, b)), None)
        assert report.passed == (hit is None)
        if report.passed:
            assert report.instances == samples
        else:
            a, b = drawn[hit]
            assert report.instances == hit + 1
            # The first comparable pair that breaks the row, in the table's
            # pair order, Inc before Dec.
            first = next((d, x, y) for x, y in ((a & b, a), (a & b, b), (a, a | b), (b, a | b))
                         for d in (INC, DEC) if breaks_row(d, x, y))
            assert check_witness(report) == first, pid
    return failures


def test_binary_laws_match_a_scalar_reference(g, probe):
    lower, upper = DEFAULT_SUITE.lower, DEFAULT_SUITE.upper
    suites = {
        "default": DEFAULT_SUITE, "corrupted": corrupted_suite(), **_wrong_suites(),
        # One non-monotone row each.
        "gamma lower": NONMONOTONE_GAMMA_LOWER,
        "gamma upper": replace(DEFAULT_SUITE, upper={**upper, GAMMA: _outside_interior_upper}),
        "beta lower": replace(DEFAULT_SUITE, lower={**lower, BETA: _outside_closure_lower}),
        "beta upper": replace(DEFAULT_SUITE,
                              upper={**upper, BETA: _outside_opposite_interior_upper}),
    }
    rng = random.Random(21)
    spaces = [g, probe] + [random_space(rng, 1 + i % 5) for i in range(20)]
    failures = dict.fromkeys(suites, 0)
    for i, space in enumerate(spaces):
        for name, suite in suites.items():
            failures[name] += _check_binary_laws_against_scalars(space, suite, 24, i)
    # Suites whose gamma and beta rows are monotone pass every binary law;
    # each other one fails some, so the reports are compared on failures too.
    assert [name for name, count in failures.items() if not count] == [
        "default", "corrupted", "swapped_r", "flipped_r"]


def _plan_by_mask(plan, first=None, n=0):
    """A plan with its classes named by their masks: each class's own points
    and cover masks, and each point's class mask. Past the ``first`` classes,
    masks are moved up by n points, as a plan ``beside`` another keeps them."""
    masks = [m << n * (c >= first) for c, m in enumerate(plan.masks)] if first else plan.masks
    steps = {m: (own, {masks[c] for c in covers}) for m, (own, covers) in zip(masks, plan.steps)}
    return steps, [masks[c] for c in plan.classes]


def test_the_direction_sum_splits_into_each_directions_rows():
    # Each family runs once, at Inc, on the direction sum with A ⊔ A; the
    # halves of its report are its per-direction rows, under every suite, on
    # subsets and on batches. The sum scans and folds over the space's two
    # kernels side by side: its scans are those over the joined masks, and
    # its plans those Plan.of builds on them, up to the numbering of the
    # classes, which Plan.of sorts by size across both, and to the masks of
    # the second half, which the sum keeps unshifted.
    suites = {"default": DEFAULT_SUITE, "corrupted": corrupted_suite(), **_wrong_suites()}
    rng = random.Random(33)
    for i in range(60):
        space = random_space(rng, 1 + i % 9)
        u, n, pair = space.universe, space.universe.size, space.direction_sum
        for d in (INC, DEC):
            joined = space.kernel[d] + tuple(m << n for m in space.kernel[d.opposite])
            for bits in (0, (1 << 2 * n) - 1, *(rng.getrandbits(2 * n) for _ in range(4))):
                assert pair.scan(d, bits, False) == points_within(joined, bits)
                assert pair.scan(d, bits, True) == points_meeting(joined, bits)
            first = len(space.kernel_plan[d].masks)
            assert (_plan_by_mask(pair.kernel_plan[d], first, n)
                    == _plan_by_mask(Plan.of(joined)))
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
        for operand in (Batch.of(u, rows), u.from_bits(rows[0])):
            for name, suite in suites.items():
                table = ap.Rows(space, operand, suite)
                for (family, d), row in table.items():
                    up = suite.upper[family](space, operand, d.opposite).complement()
                    want = (suite.lower[family](space, operand, d),
                            suite.upper[family](space, operand, d), up)
                    got = (row.lower, row.upper, row.negative)
                    if isinstance(operand, Batch):
                        got, want = ([x.rows() for x in v] for v in (got, want))
                    assert got == want, (name, family, d)


def _scalar_unary_claims(space, suite, a):
    """The failing claims of each unary law on the subset ``a``, in the order
    a one-at-a-time check tests them, as (direction, text, operands), from
    the suite's operators in each direction."""
    u, full = space.universe, space.universe.full()
    comp = full - a

    def row(family, x=a):
        got = {d: (suite.lower[family](space, x, d), suite.upper[family](space, x, d))
               for d in (INC, DEC)}
        return {(family, d): types.SimpleNamespace(
                    lower=lo, upper=up, boundary=up - lo, negative=full - got[d.opposite][1],
                    accuracy=ap._accuracy(len(lo), len(up))) for d, (lo, up) in got.items()}

    rows = {key: r for f in ap.FAMILY_ORDER for key, r in row(f).items()}
    names = {R: "R", _S: "semi", _P: "pre", GAMMA: "gamma", BETA: "beta"}
    claims = {pid: [] for pid, law in oracle._CATALOGUE if callable(law)}
    for f in ap.FAMILY_ORDER:
        for d in (INC, DEC):
            r = rows[f, d]
            if not (r.lower <= a <= r.upper):
                claims["sandwich"].append((d, f"{f.label} {d.label}: expected %s within %s "
                                              "within %s", (r.lower, a, r.upper)))
    for pid, fam in (("3.4", GAMMA), ("3.14", BETA)):
        for d in (INC, DEC):
            exact = [rows[f, d].lower == rows[f, d].upper for f in (R, fam)]
            if exact[0] and not exact[1]:
                claims[pid].append((d, f"{d.label}: A=%s is R exact but not {names[fam]} exact",
                                    (a,)))
    inclusions = {"3.5": [(R, GAMMA, "lower")], "3.6": [(GAMMA, R, "upper")],
                  "3.7": [(_P, GAMMA, "lower")], "3.8": [(_S, GAMMA, "lower")],
                  "3.9": [(_P, GAMMA, "upper")], "3.10": [(BETA, _P, "upper")],
                  "3.15": [(R, BETA, "lower")], "3.16": [(BETA, R, "upper")],
                  "3.28b": [(GAMMA, BETA, "lower")]}
    chains = {"3.20": ((_S, GAMMA, BETA), "lower"), "3.21": ((BETA, GAMMA, _S), "upper"),
              "3.25": ((BETA, GAMMA, _S), "boundary"), "3.26": ((GAMMA, R), "boundary"),
              "3.27": ((BETA, R), "boundary")}
    for pid, [(fx, fy, field)] in inclusions.items():
        for d in (INC, DEC):
            x, y = getattr(rows[fx, d], field), getattr(rows[fy, d], field)
            if not x <= y:
                text = f"{names[fx]} {field} within {names[fy]} {field}"
                claims[pid].append((d, f"{d.label}: A=%s: {text}: %s not within %s", (a, x, y)))
    for pid, (families, field) in chains.items():
        def name(f):
            return f"boundary {'S' if f is _S else names[f]}" if field == "boundary" \
                else f"{names[f]} {field}"
        for d in (INC, DEC):
            for fx, fy in itertools.pairwise(families):
                x, y = getattr(rows[fx, d], field), getattr(rows[fy, d], field)
                if not x <= y:
                    claims[pid].append((d, f"{d.label}: A=%s: {name(fx)} %s not within "
                                           f"{name(fy)} %s", (a, x, y)))
    for d in (INC, DEC):
        acc = {f: rows[f, d].accuracy for f in (R, GAMMA, BETA)}
        for fam in (GAMMA, BETA):
            if a and acc[R] > acc[fam]:
                claims["3.23"].append((d, f"{d.label}: A=%s: R accuracy %s > {names[fam]} "
                                          "accuracy %s", (a, acc[R], acc[fam])))
        if a and not acc[R] <= acc[GAMMA] <= acc[BETA]:
            claims["3.28a"].append((d, f"{d.label}: A=%s: accuracies R %s, gamma %s, beta %s "
                                       "not ascending", (a, acc[R], acc[GAMMA], acc[BETA])))
    for x, y in (("upper", "lower"), ("lower", "upper")):
        for d in (INC, DEC):
            left = getattr(rows[R, d], x)
            right = (full - row(R, comp)[R, d.opposite].lower if x == "upper"
                     else row(R, comp)[R, d].negative)
            if left != right:
                claims["duality"].append((d, f"A=%s: duality {x} {d.label} vs {y} "
                                             f"{d.opposite.label}: %s vs %s", (a, left, right)))
    return claims


def _interior_of_opposite_closure(g, a, d):
    return ap.r_lower(g, ap.r_upper(g, a, d.opposite), d)


def test_unary_laws_match_a_scalar_reference(g, probe):
    # Each unary law's instances and witness, from one doubled row table,
    # equal those of a check that tests one subset at a time, each direction
    # apart: the first failing subset, then its first failing claim. The
    # "bounds" suite breaks the sandwich in two families, in directions that
    # differ at some first failing subset.
    lower, upper = DEFAULT_SUITE.lower, DEFAULT_SUITE.upper
    suites = {"default": DEFAULT_SUITE, "corrupted": corrupted_suite(), **_wrong_suites(),
              "gamma lower": NONMONOTONE_GAMMA_LOWER,
              "bounds": replace(DEFAULT_SUITE, lower={**lower, R: _interior_of_opposite_closure},
                                upper={**upper, GAMMA: ap.r_lower})}
    # The draws include spaces where, at the first failing subset, one
    # direction fails an earlier step of a chain than the other does.
    rng = random.Random(42)
    spaces = [g, probe] + [random_space(rng, 1 + i % 6) for i in range(48)]
    failed = dict.fromkeys(suites, 0)
    for space in spaces:
        u = space.universe
        for name, suite in suites.items():
            want = {}
            for a in subsets(u):
                for pid, claims in _scalar_unary_claims(space, suite, a).items():
                    if claims and pid not in want:
                        want[pid] = (a.bits + 1, *claims[0])
            for r in check_propositions(space, suite=suite):
                if r.proposition not in want and callable(dict(oracle._CATALOGUE)[r.proposition]):
                    assert (r.passed, r.instances) == (True, u.full_mask + 1), (name, r)
                elif r.proposition in want:
                    instances, d, template, operands = want[r.proposition]
                    w = r.witness
                    assert (r.instances, w.direction, str(w), w.values) == (
                        instances, d, template % operands, operands), (name, r.proposition)
                    failed[name] += 1
    assert all(failed.values()), failed


def test_binary_law_scans_drop_what_a_shift_carries_across_fields():
    # A packed row holds column x as field x, so a shift moves each field's
    # bottom lanes into the top lanes of the field below. Those top lanes are
    # set in every column here: the powerset's last lane is A = U, and each
    # sampled table's last lane is the last drawn A∪B, chosen to be U, where
    # the shipped uppers and lowers are U too. The scan's masks must drop
    # them, under every suite, exhaustively on 1-6 points and at sample
    # counts around a small field.
    suites = {"default": DEFAULT_SUITE, "corrupted": corrupted_suite(), **_wrong_suites()}
    rng = random.Random(29)
    for n in range(1, 7):
        space = random_space(rng, n)
        for samples in (1, 2, 3, 8, 255):
            seed = next(seed for seed in range(1000)
                        if [x | y for x, y in zip(*_drawn_pairs(space, samples, seed))][-1]
                        == space.universe.full_mask)
            rows = ap.Rows(space, Batch.of(space.universe, [space.universe.full_mask]))
            assert all(row.upper.columns == row.lower.columns == (1,) * n
                       for key, row in rows.items() if key[0] in (GAMMA, BETA))
            for suite in suites.values():
                _check_binary_laws_against_scalars(space, suite, samples, seed)


def _relabelled(space, labels):
    """``space`` over a universe of ``labels``, point for point."""
    u = Universe(labels)
    topology = generate_topology(u, map(u.from_bits, space.topology.generators))
    return Gotas(u, topology, validate_order(u, space.order.pairs))


# Labels that hold braces: a witness's text cannot be split back into its subsets.
_BRACED = ("a}", "{b", "c", "d")


def test_witnesses_keep_their_operands_whatever_the_labels(g, probe):
    # 3.21 and 3.25 on the probe fail at the first subset, then direction and
    # step of their chain, where x is not within y, as one-at-a-time checks find.
    space = _relabelled(probe, _BRACED[:3])
    failed = {r.proposition: r for r in check_propositions(space) if not r.passed}
    assert failed.keys() == {"3.21", "3.25"}
    chains = {"3.21": ("upper", ("beta upper", "gamma upper", "semi upper")),
              "3.25": ("boundary", ("boundary beta", "boundary gamma", "boundary S"))}
    for pid, (field, names) in chains.items():
        first = next(
            (d, a, x, y, f"{d.label}: A={a}: {nx} {x} not within {ny} {y}")
            for a in subsets(space.universe) for rows in [ap.Rows(space, a)]
            for d in (INC, DEC)
            for (fx, nx), (fy, ny) in itertools.pairwise(zip((BETA, GAMMA, _S), names))
            for x, y in [(getattr(rows[fx, d], field), getattr(rows[fy, d], field))]
            if not x.is_subset(y))
        witness = failed[pid].witness
        assert (witness.direction, *witness.values) == first[:4], pid
        assert str(witness) == first[4] and failed[pid].instances == first[1].bits + 1

    # Every binary law fails on the worked example under the nonmonotone suite;
    # the scalar reference reads each witness's direction and pair.
    space, suite = _relabelled(g, _BRACED), _wrong_suites()["nonmonotone"]
    assert _check_binary_laws_against_scalars(space, suite, 24, 0) == len(BINARY_ROWS)
    for r in check_propositions(space, suite=suite):
        if r.proposition in BINARY_ROWS:
            family, field, antitone = BINARY_ROWS[r.proposition]
            d, (a, b, *neg) = r.witness.direction, r.witness.values
            assert str(r.witness) == (
                f"{d.label}: A={a}, B={b}: Neg(A∪B) {neg[0]} not within Neg(A)∩Neg(B)"
                if antitone else f"{d.label}: {family.label} {field} not monotone at A={a}, B={b}")


class TestGenerators:
    def test_random_partition_covers_disjointly(self):
        rng = random.Random(11)
        for _ in range(20):
            u = Universe(list("abcdef")[: rng.randint(1, 6)])
            blocks = random_partition(rng, u)
            seen = 0
            for block in blocks:
                assert block.bits
                assert seen & block.bits == 0
                seen |= block.bits
            assert seen == u.full_mask

    def test_partition_space_validation(self):
        u = Universe(["a", "b", "c"])
        with pytest.raises(ValueError, match="disjoint"):
            partition_space(u, [u.subset(["a", "b"]), u.subset(["b", "c"])])
        with pytest.raises(ValueError, match="cover"):
            partition_space(u, [u.subset(["a"])])
        with pytest.raises(ValueError, match="nonempty"):
            partition_space(u, [u.empty(), u.full()])

    def test_random_space_is_reproducible(self):
        a = random_space(random.Random(42), 4)
        b = random_space(random.Random(42), 4)
        assert {o.bits for o in a.topology.opens} == {o.bits for o in b.topology.opens}
        assert a.order.pairs == b.order.pairs


def test_probe_space_shape(probe):
    assert {o.members() for o in probe.topology.opens} == {
        (), ("a",), ("b",), ("a", "b"), ("a", "b", "c")
    }
