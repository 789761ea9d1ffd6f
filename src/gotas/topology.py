"""Topologies on a finite universe.

A topology is generated from an arbitrary binary relation (right
neighborhoods as a subbase) or from a user-supplied family of generator
subsets. Every finite topology is Alexandrov, so it is held as its minimal
neighborhoods N(x), the intersection of the generators that contain x:
a set is open iff it contains N(x) for each of its points. Interior and
closure are one pass over the points; the open family itself is listed
only when asked for.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .universe import Subset, Universe, UniverseMismatchError, _points, canonical_order


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
        return cls(universe, [(universe.index(x), universe.index(y)) for x, y in pairs])

    def right_neighborhoods(self) -> tuple[Subset, ...]:
        """The family { xR : x in U }, duplicates removed, in canonical order."""
        return self.universe.canonical(set(self.rights))

    def __repr__(self) -> str:
        size = sum(m.bit_count() for m in self.rights)
        return f"BinaryRelation({self.universe!r}, {size} pairs)"


def points_within(masks: tuple[int, ...], bits: int) -> int:
    """Bitmask of the points x whose ``masks[x]`` lies inside ``bits``."""
    outside = ~bits
    found = 0
    point = 1
    for m in masks:
        if not m & outside:
            found |= point
        point <<= 1
    return found


def points_meeting(masks: tuple[int, ...], bits: int) -> int:
    """Bitmask of the points x whose ``masks[x]`` meets ``bits``."""
    found = 0
    point = 1
    for m in masks:
        if m & bits:
            found |= point
        point <<= 1
    return found


# Steps Topology.count_opens may take (each step visits one set of points,
# so this also bounds its memo), and how deep its recursion may go.
COUNT_BUDGET = 1 << 12
MAX_COUNT_DEPTH = 200


class _OverBudget(Exception):
    pass


class Topology:
    """The topology generated by a family of subsets, held as the minimal
    neighborhood of each point.

    Construct via :func:`generate_topology`. ``generators`` is the subbase
    it was built from; ``neighborhoods[x]`` is N(x) as a bitmask.
    """

    __slots__ = ("universe", "generators", "neighborhoods", "_opens", "_closeds")

    def __init__(self, universe: Universe, generators: Iterable[Subset]) -> None:
        self.universe = universe
        self.generators = tuple(generators)
        masks = [g.bits for g in self.generators]
        neighborhoods = []
        for x in range(universe.size):
            n = universe.full_mask
            for m in masks:
                if m >> x & 1:
                    n &= m
            neighborhoods.append(n)
        self.neighborhoods = tuple(neighborhoods)
        self._opens: tuple[Subset, ...] | None = None
        self._closeds: tuple[Subset, ...] | None = None

    def open_masks(self, limit: int | None = None) -> list[int] | None:
        """Every open set as a bit-reversed mask (see ``Universe.reverse``),
        in canonical order: the unions of the minimal neighborhoods. None as
        soon as more than ``limit`` are found, so at most 2 * ``limit``
        masks are ever held."""
        family = {0}
        for n in set(map(self.universe.reverse, self.neighborhoods)):
            family |= {o | n for o in family}
            if limit is not None and len(family) > limit:
                return None
        return canonical_order(family)

    @property
    def opens(self) -> tuple[Subset, ...]:
        """Every open set in canonical order. Listed on first use, since n
        points can carry up to 2**n opens."""
        if self._opens is None:
            u = self.universe
            self._opens = tuple(Subset(u, u.reverse(r)) for r in self.open_masks())
        return self._opens

    def count_opens(self) -> int | None:
        """The number of opens, without listing them; None if counting takes
        more than ``COUNT_BUDGET`` steps.

        An open is a set O with N(x) ⊆ O for each x in O: a down-set of the
        preorder y ∈ N(x). Such sets multiply over the connected components
        of that relation. Within one component C, the opens holding a point
        x are N(x) plus an open of C − N(x), and the opens missing x are the
        opens of C − {y : x ∈ N(y)}. Counts are memoised on the bitmask.
        Counting down-sets is #P-complete (Provan & Ball 1983), hence the
        budget.
        """
        below = self.neighborhoods
        above = [0] * len(below)
        for x, m in enumerate(below):
            for y in _points(m):
                above[y] |= 1 << x
        linked = [b | a for b, a in zip(below, above)]
        memo = {0: 1}
        steps = 0

        def count(rest: int, depth: int) -> int:
            nonlocal steps
            if rest in memo:
                return memo[rest]
            steps += 1
            if steps > COUNT_BUDGET or depth > MAX_COUNT_DEPTH:
                raise _OverBudget
            total, left = 1, rest
            while left:
                component = frontier = left & -left
                while frontier:
                    reach = 0
                    for x in _points(frontier):
                        reach |= linked[x]
                    frontier = reach & left & ~component
                    component |= frontier
                left &= ~component
                if component != rest:
                    total *= count(component, depth + 1)
                    continue
                # The point that splits C most evenly keeps the recursion shallow.
                x = max(_points(rest), key=lambda x: min(
                    (below[x] & rest).bit_count(), (above[x] & rest).bit_count()))
                total = count(rest & ~below[x], depth + 1) + count(rest & ~above[x], depth + 1)
            memo[rest] = total
            return total

        try:
            return count(self.universe.full_mask, 0)
        except _OverBudget:
            return None

    @property
    def closeds(self) -> tuple[Subset, ...]:
        """Complements of the opens, in canonical order."""
        if self._closeds is None:
            full = self.universe.full_mask
            self._closeds = self.universe.canonical(full ^ o.bits for o in self.opens)
        return self._closeds

    def is_open(self, s: Subset) -> bool:
        return s.universe is self.universe and points_within(self.neighborhoods, s.bits) == s.bits

    def is_closed(self, s: Subset) -> bool:
        return self.is_open(s.complement())

    def interior(self, a: Subset) -> Subset:
        """Points whose minimal neighborhood lies inside ``a``: the greatest
        open subset."""
        if a.universe is not self.universe:
            raise UniverseMismatchError("subset belongs to a different universe")
        return self.universe.from_bits(points_within(self.neighborhoods, a.bits))

    def closure(self, a: Subset) -> Subset:
        """Points whose minimal neighborhood meets ``a``: the smallest closed
        superset."""
        if a.universe is not self.universe:
            raise UniverseMismatchError("subset belongs to a different universe")
        return self.universe.from_bits(points_meeting(self.neighborhoods, a.bits))

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.opens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self.universe is other.universe and self.neighborhoods == other.neighborhoods

    def __hash__(self) -> int:
        return hash((id(self.universe), self.neighborhoods))

    def __repr__(self) -> str:
        return f"Topology({len(self.generators)} generators over {self.universe!r})"


def generate_topology(universe: Universe, base: Iterable[Subset]) -> Topology:
    """Smallest topology containing ``base``."""
    base = tuple(base)
    for s in base:
        if s.universe is not universe:
            raise UniverseMismatchError("generator subset belongs to a different universe")
    return Topology(universe, base)


def topology_from_relation(relation: BinaryRelation) -> Topology:
    """Topology generated with the relation's right neighborhoods as subbase."""
    return generate_topology(relation.universe, relation.right_neighborhoods())
