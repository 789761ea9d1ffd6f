import random
from functools import reduce
from operator import and_

import pytest
from hypothesis import given

from gotas import (
    BinaryRelation,
    OrderAxiomError,
    Universe,
    UniverseMismatchError,
    generate_topology,
    topology_from_relation,
    validate_order,
)
from gotas.oracle import open_family
from gotas.topology import points_meeting

from strategies import topology_with_subsets, universe_with_base


def u4():
    return Universe(["a", "b", "c", "d"])


def test_right_neighborhoods_of_equality():
    u = u4()
    rel = BinaryRelation.from_labels(u, [(x, x) for x in u.labels])
    assert {n.members() for n in rel.right_neighborhoods()} == {
        ("a",), ("b",), ("c",), ("d",)
    }


def test_right_neighborhoods_of_full_relation():
    u = u4()
    rel = BinaryRelation.from_labels(u, [(x, y) for x in u.labels for y in u.labels])
    assert [n.members() for n in rel.right_neighborhoods()] == [("a", "b", "c", "d")]


def test_right_neighborhoods_per_element():
    u = Universe(["a", "b"])
    rel = BinaryRelation.from_labels(u, [("a", "a"), ("b", "a"), ("b", "b")])
    assert {n.members() for n in rel.right_neighborhoods()} == {("a",), ("a", "b")}


def test_generate_topology_worked_example_base():
    u = u4()
    topology = generate_topology(
        u, [u.subset(["a"]), u.subset(["a", "b"]), u.subset(["c", "d"])]
    )
    assert {o.members() for o in topology.opens} == {
        (), ("a",), ("a", "b"), ("c", "d"), ("a", "c", "d"), ("a", "b", "c", "d")
    }
    assert {c.members() for c in topology.closeds} == {
        (), ("b",), ("a", "b"), ("c", "d"), ("b", "c", "d"), ("a", "b", "c", "d")
    }


def test_generate_topology_empty_base_is_indiscrete():
    u = u4()
    topology = generate_topology(u, [])
    assert {o.members() for o in topology.opens} == {(), ("a", "b", "c", "d")}


def test_generate_topology_singletons_is_discrete():
    u = u4()
    topology = generate_topology(u, [u.subset([label]) for label in u.labels])
    assert len(topology.opens) == 16


def test_generate_topology_rejects_foreign_subsets():
    other = Universe(["a", "b", "c", "d"])
    with pytest.raises(UniverseMismatchError):
        generate_topology(u4(), [other.subset(["a"])])


def test_discrete_topology_from_equality_relation():
    u = u4()
    rel = BinaryRelation.from_labels(u, [(x, x) for x in u.labels])
    assert len(topology_from_relation(rel).opens) == 16


@pytest.fixture
def example_topology():
    u = u4()
    return u, generate_topology(
        u, [u.subset(["a"]), u.subset(["a", "b"]), u.subset(["c", "d"])]
    )


def test_interior_golden(example_topology):
    u, topology = example_topology
    assert topology.interior(u.subset(["a", "c"])) == u.subset(["a"])
    assert topology.interior(u.full()) == u.full()
    assert topology.interior(u.empty()) == u.empty()


def test_closure_golden(example_topology):
    u, topology = example_topology
    assert topology.closure(u.subset(["a"])) == u.subset(["a", "b"])
    assert topology.closure(u.full()) == u.full()
    assert topology.closure(u.empty()) == u.empty()


@given(universe_with_base())
def test_generated_family_is_a_topology(t):
    u, base = t
    topology = generate_topology(u, base)
    bits = {o.bits for o in topology.opens}
    assert 0 in bits and u.full_mask in bits
    for x in bits:
        for y in bits:
            assert x & y in bits
            assert x | y in bits
    assert {c.bits for c in topology.closeds} == {u.full_mask ^ b for b in bits}
    for s in base:
        assert s.bits in bits
    # The listing from the minimal neighborhoods equals the oracle's fixpoint.
    assert bits == open_family(topology)
    # N(x) is the AND of the generators holding x, or the full mask when none
    # does; repeated and empty generators change nothing.
    for x, n in enumerate(topology.neighborhoods):
        assert n == reduce(and_, [s.bits for s in base if s.bits >> x & 1], u.full_mask)
    assert generate_topology(u, [*base, *base, u.empty()]).neighborhoods == topology.neighborhoods


@given(topology_with_subsets())
def test_closure_is_dual_to_interior(t):
    _, topology, a, _ = t
    assert topology.closure(a) == topology.interior(a.complement()).complement()


@given(topology_with_subsets())
def test_interior_closure_laws(t):
    _, topology, a, b = t
    ia = topology.interior(a)
    ca = topology.closure(a)
    assert ia.is_subset(a) and a.is_subset(ca)
    assert topology.interior(ia) == ia
    assert topology.closure(ca) == ca
    # monotone: a∩b is below both
    assert topology.interior(a & b).is_subset(ia)
    assert topology.closure(a & b).is_subset(ca)


def test_open_masks_stop_past_the_limit():
    u = Universe("abcde")
    topology = generate_topology(u, [u.subset([x]) for x in "abcde"])
    listed = topology.open_masks(32)
    assert len(listed) == 32
    assert [u.from_bits(u.reverse(r)) for r in listed] == list(topology.opens)
    assert topology.open_masks(31) is None


def test_open_masks_list_the_oracle_family_from_neighborhoods_of_unequal_size():
    """The largest neighborhoods are joined first, so on unequal sizes the
    order of the joins differs from the points' order; the listing, the
    limit verdict and the canonical order must not."""
    rng = random.Random(11)
    unequal = 0
    for i in range(60):
        size = 6 + i % 7
        u = Universe([f"e{k}" for k in range(size)])
        p = rng.uniform(0.05, 0.5)
        rel = BinaryRelation(
            u, [(x, y) for x in range(size) for y in range(size) if rng.random() < p])
        topology = topology_from_relation(rel)
        unequal += len(set(map(int.bit_count, topology.neighborhoods))) > 1
        listed = topology.open_masks()
        assert [u.reverse(r) for r in listed] == [s.bits for s in u.canonical(open_family(topology))]
        assert topology.open_masks(len(listed)) == listed
        assert topology.open_masks(len(listed) - 1) is None
    assert unequal >= 50


def test_relation_topology_matches_its_right_neighborhoods_as_a_base():
    rng = random.Random(5)
    for i in range(200):
        size = 1 + i % 12
        u = Universe([f"e{k}" for k in range(size)])
        p = rng.random()
        rel = BinaryRelation(
            u, [(x, y) for x in range(size) for y in range(size) if rng.random() < p])
        topology = topology_from_relation(rel)
        based = generate_topology(u, rel.right_neighborhoods())
        assert topology.neighborhoods == based.neighborhoods
        assert set(topology.generators) == set(based.generators)
        full = u.full_mask
        assert topology.closeds == u.canonical(full ^ o.bits for o in topology.opens)


def _shuffled_with_repeats(rng, pairs):
    pairs += rng.choices(pairs, k=len(pairs) // 4) if pairs else []
    rng.shuffle(pairs)
    return pairs


def _label_pairs(rng, labels, p):
    """Random label pairs with loops and repeats: each pair with probability
    ``p``, then a few drawn again, shuffled."""
    return _shuffled_with_repeats(rng, [(x, y) for x in labels for y in labels
                                        if rng.random() < p])


def _forward_pairs(rng, labels):
    """A random partial order's label pairs, some loops and repeats."""
    n = len(labels)
    up = [{j for j in range(i + 1, n) if rng.random() < 0.3} for i in range(n)]
    for i in reversed(range(n)):
        for j in sorted(up[i]):
            up[i] |= up[j]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in up[i]]
    pairs += [(x, x) for x in labels if rng.random() < 0.7]
    return _shuffled_with_repeats(rng, pairs)


def _validated(u, pairs, auto_reflexive):
    try:
        order = validate_order(u, pairs, auto_reflexive=auto_reflexive)
    except OrderAxiomError as e:
        return e.axiom, e.witness, str(e)
    return order.succ, order.pred


def test_from_labels_masks_match_the_per_pair_reference():
    """``from_labels`` resolves each pair by dict lookups; its masks, and the
    N(x), up-sets and down-sets built from them, are those of the index
    pairs from ``Universe.index`` on 300 documents of 1-40 points."""
    rng = random.Random(2929)
    for k in range(300):
        n = 1 + k % 40
        u = Universe(f"p{i}" for i in rng.sample(range(100), n))
        labels = u.labels
        for pairs in (_label_pairs(rng, labels, rng.choice((0.05, 0.2, 0.5))),
                      _forward_pairs(rng, labels)):
            index_pairs = [(u.index(x), u.index(y)) for x, y in pairs]
            want = BinaryRelation(u, index_pairs)
            got = BinaryRelation.from_labels(u, pairs)
            assert got.universe is u and got.rights == want.rights
            assert (topology_from_relation(got).neighborhoods
                    == topology_from_relation(want).neighborhoods)
            for auto_reflexive in (True, False):
                assert (_validated(u, got, auto_reflexive)
                        == _validated(u, index_pairs, auto_reflexive))


def test_index_pairs_outside_the_universe_are_refused():
    u = Universe(["a", "b"])
    for pair in ((0, 2), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside the universe"):
            BinaryRelation(u, [(0, 1), pair])


def test_validate_order_refuses_a_relation_over_another_universe():
    other = Universe(["a", "b"])
    with pytest.raises(UniverseMismatchError):
        validate_order(Universe(["a", "b"]), BinaryRelation.from_labels(other, [("a", "b")]))


def test_interior_and_closure_refuse_another_universes_subset(example_topology):
    u, topology = example_topology
    other = Universe(u.labels).subset(["a"])
    for operator in (topology.interior, topology.closure):
        with pytest.raises(UniverseMismatchError):
            operator(other)


def test_relation_and_topology_reprs():
    u = Universe(["a", "b"])
    relation = BinaryRelation.from_labels(u, [("a", "a"), ("a", "b"), ("b", "b")])
    assert repr(relation) == "BinaryRelation(Universe(['a', 'b']), 3 pairs)"
    assert (repr(topology_from_relation(relation))
            == "Topology(2 generators over Universe(['a', 'b']))")


def test_points_meeting_is_the_points_whose_mask_meets_the_bits():
    # points_meeting is written as the complement of points_within the
    # complement; this checks it against its definition.
    rng = random.Random(3030)
    assert points_meeting((), 0) == points_meeting((), 1) == 0
    for k in range(700):
        n = 1 + k % 70
        full = (1 << n) - 1
        masks = tuple(0 if k % 7 == 0 or rng.random() < 0.2 else rng.getrandbits(n)
                      for _ in range(n))
        for bits in (0, full, rng.getrandbits(n)):
            want = sum(1 << x for x, m in enumerate(masks) if m & bits)
            assert points_meeting(masks, bits) == want, (masks, bits)
