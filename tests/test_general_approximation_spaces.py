"""GOTAS generalize general approximation spaces: a universe with a binary
relation R, whose lower and upper approximations of A are
{x : xR ⊆ A} and {x : xR ∩ A ≠ ∅}, with xR the right neighborhood of x.

A relation document topologizes R through τ_R, the topology with the xR as
a subbase, whose minimal neighborhood N(x) is the intersection of the yR
that hold x. When R is a preorder, N(x) = xR, so under the equality order
the base operators are R's own approximations; otherwise N(x) can be
smaller than xR, and they are τ_R's.
"""

import json
import random

from gotas import (BinaryRelation, DIRECTION_ORDER, Gotas, Universe, equality_order, r_lower,
                   r_upper, topology_from_relation)
from gotas.cli import build_space, parse_document


def _relation_approximations(rights: tuple[int, ...], a: int) -> tuple[int, int]:
    """{x : xR ⊆ A} and {x : xR ∩ A ≠ ∅} as bitmasks, straight from the xR."""
    lower = sum(1 << x for x, r in enumerate(rights) if not r & ~a)
    upper = sum(1 << x for x, r in enumerate(rights) if r & a)
    return lower, upper


def _random_preorder(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """The reflexive, transitive closure of a random relation on n points."""
    up = [1 << x | sum(1 << y for y in range(n) if rng.random() < 0.3) for x in range(n)]
    for k in range(n):
        for x in range(n):
            if up[x] >> k & 1:
                up[x] |= up[k]
    return [(x, y) for x in range(n) for y in range(n) if up[x] >> y & 1]


def _space(labels: list[str], pairs: list[tuple[int, int]], from_document: bool) -> Gotas:
    if from_document:
        doc = {"universe": labels, "order": [],
               "relation": [[labels[x], labels[y]] for x, y in pairs]}
        return build_space(parse_document(json.dumps(doc)))
    u = Universe(labels)
    return Gotas(u, topology_from_relation(BinaryRelation(u, pairs)), equality_order(u))


def test_on_a_preorder_the_base_operators_are_the_relation_approximations():
    rng, compared = random.Random(14), 0
    for k in range(144):
        n = k % 8 + 1
        pairs = _random_preorder(rng, n)
        g = _space([f"e{i}" for i in range(n)], pairs, from_document=k % 2 == 0)
        rights = BinaryRelation(g.universe, pairs).rights
        for a in g.universe.subsets():
            want = _relation_approximations(rights, a.bits)
            for d in DIRECTION_ORDER:
                assert (r_lower(g, a, d).bits, r_upper(g, a, d).bits) == want, (pairs, a, d)
                compared += 2
    assert compared == 36_720


def test_off_a_preorder_the_base_operators_are_those_of_the_generated_topology():
    # Reflexive, not transitive: aRb and bRc, but not aRc. N(b) = aR ∩ bR
    # = {b}, which lies in A, while bR = {b, c} does not.
    labels = ["a", "b", "c"]
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
    g = _space(labels, pairs, from_document=True)
    a = g.universe.subset(["a", "b"])
    lower, _ = _relation_approximations(BinaryRelation(g.universe, pairs).rights, a.bits)
    assert g.universe.from_bits(lower) == g.universe.subset(["a"])
    for d in DIRECTION_ORDER:
        assert r_lower(g, a, d) == a
