"""Topologies on a finite universe.

A topology is generated from an arbitrary binary relation (right
neighborhoods as a subbase) or from a user-supplied family of generator
subsets. Every finite topology is Alexandrov, so it is held as its minimal
neighborhoods N(x), the intersection of the generators that contain x:
a set is open iff it contains N(x) for each of its points. Interior is
one pass over the points, and closure is the complement of the interior
of the complement; the open family itself is listed only when asked for.
"""

from __future__ import annotations

from itertools import repeat
from operator import or_
from typing import Iterable

from .universe import Subset, Universe, _points, canonical_order, same_universe


class BinaryRelation:
    """Arbitrary binary relation over a universe; no axioms assumed.

    ``rights[x]`` is the right neighborhood xR = { y : x R y } as a bitmask.
    """

    __slots__ = ("universe", "rights")

    def __init__(self, universe: Universe, pairs: Iterable[tuple[int, int]]) -> None:
        n = universe.size
        rights = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) references indices outside the universe")
            rights[x] |= 1 << y
        self.universe = universe
        self.rights = tuple(rights)

    @classmethod
    def from_labels(cls, universe: Universe, pairs: Iterable[tuple[str, str]]) -> BinaryRelation:
        """The relation of the label pairs, each label looked up in
        ``universe.positions``."""
        positions, rights = universe.positions, [0] * universe.size
        try:
            for x, y in pairs:
                rights[positions[x]] |= 1 << positions[y]
        except KeyError as e:  # the label the lookup missed
            universe.index(*e.args)
        relation = cls.__new__(cls)
        relation.universe, relation.rights = universe, tuple(rights)
        return relation

    def __repr__(self) -> str:
        size = sum(m.bit_count() for m in self.rights)
        return f"BinaryRelation({self.universe!r}, {size} pairs)"


def points_within(masks: tuple[int, ...], bits: int) -> int:
    """Bitmask of the points x whose ``masks[x]`` lies inside ``bits``."""
    excluded = ~bits
    found = 0
    point = 1
    for m in masks:
        if not m & excluded:
            found |= point
        point <<= 1
    return found


def points_meeting(masks: tuple[int, ...], bits: int) -> int:
    """Bitmask of the points x whose ``masks[x]`` meets ``bits``: those whose
    mask does not lie within the complement."""
    return (1 << len(masks)) - 1 ^ points_within(masks, ~bits)


class Topology:
    """The topology generated by a family of subsets, held as the minimal
    neighborhood of each point.

    Build it with :func:`generate_topology` or :func:`topology_from_relation`.
    ``generators`` are the bitmasks of the subbase it was built from;
    ``neighborhoods[x]`` is N(x) as a bitmask.
    """

    __slots__ = ("universe", "generators", "neighborhoods")

    def __init__(self, universe: Universe, generators: Iterable[int]) -> None:
        self.universe = universe
        self.generators = tuple(generators)
        neighborhoods = [universe.full_mask] * universe.size
        for m in self.generators:
            for x in _points(m):
                neighborhoods[x] &= m
        self.neighborhoods = tuple(neighborhoods)

    def open_masks(self, limit: int | None = None) -> list[int] | None:
        """Every open set as a bit-reversed mask (see ``Universe.reverse``),
        in canonical order: the unions of the minimal neighborhoods. None as
        soon as more than ``limit`` are found, so at most 2 * ``limit``
        masks are ever held. The largest neighborhoods go first: their unions
        coincide more often, so the family stays small for longer."""
        family = {0}
        rmasks = map(self.universe.reverse, set(self.neighborhoods))
        for n in sorted(rmasks, key=int.bit_count, reverse=True):
            family.update(map(or_, tuple(family), repeat(n)))
            if limit is not None and len(family) > limit:
                return None
        return canonical_order(family)

    @property
    def opens(self) -> tuple[Subset, ...]:
        """Every open set in canonical order, listed anew on each call, since
        n points can carry up to 2**n opens."""
        u = self.universe
        return tuple(Subset(u, u.reverse(r)) for r in self.open_masks())

    def interior(self, a: Subset) -> Subset:
        """Points whose minimal neighborhood lies inside ``a``: the greatest
        open subset."""
        same_universe(self.universe, a.universe)
        return self.universe.from_bits(points_within(self.neighborhoods, a.bits))

    def closure(self, a: Subset) -> Subset:
        """Points whose minimal neighborhood meets ``a``: the smallest closed
        superset."""
        same_universe(self.universe, a.universe)
        return self.universe.from_bits(points_meeting(self.neighborhoods, a.bits))

    def __repr__(self) -> str:
        return f"Topology({len(self.generators)} generators over {self.universe!r})"


def generate_topology(universe: Universe, base: Iterable[Subset]) -> Topology:
    """Smallest topology containing ``base``."""
    base = tuple(base)
    for s in base:
        same_universe(universe, s.universe)
    return Topology(universe, [s.bits for s in base])


def topology_from_relation(relation: BinaryRelation) -> Topology:
    """Topology generated with the relation's right neighborhoods as subbase."""
    return Topology(relation.universe, set(relation.rights))
