import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gotas import OrderAxiomError, Universe, UniverseMismatchError, equality_order, validate_order
from gotas.oracle import random_order

from conftest import EXAMPLE_ORDER, make_example_space, subsets
from strategies import order_with_subset


def test_worked_example_order_is_valid():
    g = make_example_space()
    assert len(g.order.pairs) == len(EXAMPLE_ORDER)
    assert repr(g.order) == f"PartialOrder({len(EXAMPLE_ORDER)} pairs over {g.universe!r})"
    a, d = map(g.universe.index, "ad")
    assert g.order.succ[a] >> d & 1
    assert not g.order.succ[d] >> a & 1


def test_equality_pairs_are_a_valid_order():
    u = Universe(["a", "b", "c"])
    order = validate_order(u, [(i, i) for i in range(3)])
    assert order.pairs == equality_order(u).pairs


def test_antisymmetry_violation_reports_witness():
    u = Universe(["a", "b"])
    with pytest.raises(OrderAxiomError) as err:
        validate_order(u, [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert err.value.axiom == "antisymmetry"
    assert err.value.witness == ("a", "b")


def test_transitivity_violation_reports_witness():
    u = Universe(["a", "b", "c"])
    with pytest.raises(OrderAxiomError) as err:
        validate_order(u, [(0, 1), (1, 2)])
    assert err.value.axiom == "transitivity"
    assert err.value.witness == ("a", "c")
    assert "(a, c) missing" in str(err.value)


def test_first_of_several_transitivity_violations_is_reported():
    # Violations: (a,c)(c,b), (a,c)(c,e), (a,d)(d,b) and (c,d)(d,b). The
    # first comes from the sorted pairs: x ascending, then y, then the
    # lowest missing z.
    u = Universe(["a", "b", "c", "d", "e"])
    with pytest.raises(OrderAxiomError) as err:
        validate_order(u, [(0, 2), (2, 1), (2, 3), (2, 4), (0, 3), (3, 1)])
    assert err.value.axiom == "transitivity"
    assert err.value.witness == ("a", "b")
    assert str(err.value) == (
        "transitivity violated: (a, c) and (c, b) present but (a, b) missing"
    )


def test_missing_loops_are_an_error_without_auto_reflexive():
    u = Universe(["a", "b"])
    with pytest.raises(OrderAxiomError) as err:
        validate_order(u, [(0, 1)], auto_reflexive=False)
    assert err.value.axiom == "reflexivity"


def test_auto_reflexive_inserts_loops():
    u = Universe(["a", "b", "c", "d"])
    strict = [(0, 1), (1, 3), (0, 3), (0, 2), (2, 3)]
    order = validate_order(u, strict)
    full = [(u.index(x), u.index(y)) for x, y in EXAMPLE_ORDER]
    assert order.pairs == frozenset(full)


def test_out_of_range_pair_rejected():
    with pytest.raises(ValueError, match="outside the universe"):
        validate_order(Universe(["a"]), [(0, 5)])


def test_increasing_examples():
    g = make_example_space()
    u = g.universe
    assert g.order.is_increasing(u.full())
    assert not g.order.is_increasing(u.subset(["a"]))
    assert g.order.is_increasing(u.subset(["d"]))


def test_decreasing_examples():
    g = make_example_space()
    u = g.universe
    assert g.order.is_decreasing(u.subset(["a"]))
    assert g.order.is_decreasing(u.subset(["a", "b"]))
    assert g.order.is_decreasing(u.empty())


def test_empty_and_full_are_both_monotone():
    g = make_example_space()
    for s in (g.universe.empty(), g.universe.full()):
        assert g.order.is_increasing(s)
        assert g.order.is_decreasing(s)


def test_monotonicity_of_another_universes_subset_is_refused():
    g = make_example_space()
    other = Universe(g.universe.labels).subset(["a"])
    for test in (g.order.is_increasing, g.order.is_decreasing):
        with pytest.raises(UniverseMismatchError):
            test(other)


@given(order_with_subset())
def test_increasing_iff_complement_decreasing(t):
    _, order, a = t
    assert order.is_increasing(a) == order.is_decreasing(a.complement())


@pytest.mark.parametrize("seed", range(6))
def test_monotone_families_closed_under_union_and_intersection(seed):
    # exhaustive over all subset pairs of a five-element universe
    u = Universe(["a", "b", "c", "d", "e"])
    order = random_order(random.Random(seed), u)
    increasing = [s for s in subsets(u) if order.is_increasing(s)]
    decreasing = [s for s in subsets(u) if order.is_decreasing(s)]
    for family, check in ((increasing, order.is_increasing), (decreasing, order.is_decreasing)):
        for x in family:
            for y in family:
                assert check(x | y)
                assert check(x & y)


_NAMES = "abcdefghijkl"


def _reference_check(n, pairs, auto_reflexive):
    """The axiom, witness and message ``validate_order`` must report for
    these index pairs, or None for a valid order: reflexivity at the lowest
    missing loop, then, over the sorted pairs (x, y), antisymmetry at the
    first with (y, x) present, then transitivity at the first with some
    (y, z) present and (x, z) missing, taking the lowest such z."""
    pairs = set(pairs)
    if auto_reflexive:
        pairs |= {(i, i) for i in range(n)}
    name = _NAMES
    for i in range(n):
        if (i, i) not in pairs:
            a = name[i]
            return "reflexivity", (a, a), f"reflexivity violated: ({a}, {a}) missing"
    for x, y in sorted(pairs):
        if x != y and (y, x) in pairs:
            a, b = name[x], name[y]
            return ("antisymmetry", (a, b),
                    f"antisymmetry violated: both ({a}, {b}) and ({b}, {a}) present")
    for x, y in sorted(pairs):
        for z in range(n):
            if (y, z) in pairs and (x, z) not in pairs:
                a, b, c = name[x], name[y], name[z]
                return ("transitivity", (a, c),
                        f"transitivity violated: ({a}, {b}) and ({b}, {c}) present "
                        f"but ({a}, {c}) missing")
    return None


@st.composite
def _pair_lists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cell = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(cell, cell), max_size=3 * n))
    if draw(st.booleans()):
        # Listing every loop lets the later axioms fail with auto_reflexive off.
        pairs += [(i, i) for i in range(n)]
    return n, pairs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_pair_lists())
def test_order_witnesses_match_the_reference(case):
    n, pairs = case
    u = Universe("abcdef"[:n])
    for auto_reflexive in (True, False):
        want = _reference_check(n, pairs, auto_reflexive)
        if want is None:
            order = validate_order(u, pairs, auto_reflexive=auto_reflexive)
            loops = {(i, i) for i in range(n)} if auto_reflexive else set()
            assert order.pairs == frozenset(pairs) | loops
            continue
        with pytest.raises(OrderAxiomError) as err:
            validate_order(u, pairs, auto_reflexive=auto_reflexive)
        assert (err.value.axiom, err.value.witness, str(err.value)) == want


def _non_transitive(rng, n):
    """A reflexive, antisymmetric relation on n points that is not
    transitive: a random orientation of some point pairs, or a random
    partial order, over shuffled points, with a few non-loop pairs dropped."""
    while True:
        perm = rng.sample(range(n), n)
        if rng.random() < 0.5:
            pairs = {(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.4}
        else:
            pairs = {(perm[i], perm[j]) for i, j in random_order(rng, Universe(_NAMES[:n])).pairs}
            pairs -= {(i, i) for i in range(n)}
            pairs -= set(rng.sample(sorted(pairs), min(len(pairs), rng.randint(1, 3))))
        pairs |= {(i, i) for i in range(n)}
        if _reference_check(n, pairs, False) is not None:
            return sorted(pairs)


def test_transitivity_witnesses_match_the_per_pair_scan():
    # Reflexive and antisymmetric on 2 points is transitive, so from 3 points.
    rng = random.Random(27)
    for _ in range(600):
        n = rng.randint(3, 12)
        pairs = _non_transitive(rng, n)
        want = _reference_check(n, pairs, False)
        assert want[0] == "transitivity"
        with pytest.raises(OrderAxiomError) as err:
            validate_order(Universe(_NAMES[:n]), pairs, auto_reflexive=rng.random() < 0.5)
        assert (err.value.axiom, err.value.witness, str(err.value)) == want


def test_first_out_of_range_pair_in_input_order_is_reported():
    u = Universe(["a", "b"])
    for pairs in ([(0, 7), (5, 0), (0, -1)], [(5, 0), (0, 7)], [(0, -1), (0, 7)]):
        with pytest.raises(ValueError) as err:
            validate_order(u, pairs)
        x, y = pairs[0]
        assert str(err.value) == f"pair ({x}, {y}) references indices outside the universe"
