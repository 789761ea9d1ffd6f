import random

import pytest

import gotas.approximations as ap
from gotas import (
    BinaryRelation,
    Direction,
    Universe,
    equality_order,
    generate_topology,
    topology_from_relation,
)
from gotas.approximations import Gotas
from gotas.oracle import (
    DEFAULT_SUITE,
    CapExceededError,
    PROPOSITION_IDS,
    check_propositions,
    corrupted_suite,
    oracle_diff,
    oracle_r_lower,
    oracle_r_upper,
    partition_space,
    random_order,
    random_partition,
    random_space,
)

from conftest import make_example_space

INC, DEC = Direction.INC, Direction.DEC


@pytest.fixture(scope="module")
def g():
    return make_example_space()


class TestOracleOperators:
    def test_golden_values(self, g):
        a = g.universe.subset(["a", "c"])
        assert oracle_r_lower(g, a, DEC) == g.universe.subset(["a"])
        assert oracle_r_upper(g, a, DEC) == g.universe.full()
        assert oracle_r_lower(g, g.universe.empty(), INC) == g.universe.empty()
        assert oracle_r_upper(g, g.universe.full(), DEC) == g.universe.full()

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

    def test_cap_is_enforced(self):
        space = random_space(random.Random(7), 6)
        with pytest.raises(CapExceededError):
            oracle_r_lower(space, space.universe.empty(), INC, cap=5)
        with pytest.raises(CapExceededError):
            oracle_diff(space, cap=5)


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
        space = random_space(random.Random(3), 6)
        with pytest.raises(CapExceededError):
            check_propositions(space)

    def test_sampled_mode(self):
        u = Universe(list("abcdef"))
        blocks = random_partition(random.Random(5), u)
        space = partition_space(u, blocks)
        reports = check_propositions(space, samples=60, rng=random.Random(5))
        assert all(r.passed for r in reports)
        assert all(r.instances == 60 for r in reports)

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
                assert r.violations[0].detail

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
        witness = next(r for r in reports if r.proposition == "3.9").violations[0]
        assert "pre upper" in witness.detail

    def test_corrupted_suite_changes_nothing_on_the_worked_example(self, g):
        # On this particular space the intersection collapses to the union,
        # so the corruption is invisible here; the probe space above is what
        # guards the failure path.
        assert all(r.passed for r in check_propositions(g, suite=corrupted_suite()))


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
