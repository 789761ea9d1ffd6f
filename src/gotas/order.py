"""Partial orders over a universe and monotone subset tests.

``validate_order`` is the only constructor: it checks reflexivity,
antisymmetry and transitivity (in that order) and reports the first
violated axiom with a witness. Nothing is silently repaired beyond the
optional insertion of reflexive loops. An order is held only as bitmasks,
the up-set and the down-set of each point; its pairs are derived from them.
"""

from __future__ import annotations

from typing import Iterable

from .topology import BinaryRelation
from .universe import Subset, Universe, UniverseMismatchError, _points, _transpose


class OrderAxiomError(ValueError):
    """A partial-order axiom failed; carries the axiom name and a witness."""

    def __init__(self, axiom: str, witness: tuple[str, ...], message: str) -> None:
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class PartialOrder:
    """Validated partial order; build via :func:`validate_order`.

    ``succ[x]`` is the up-set of x and ``pred[x]`` its down-set, as bitmasks.
    """

    __slots__ = ("universe", "succ", "pred")

    def __init__(self, universe: Universe, succ: Iterable[int]) -> None:
        self.universe = universe
        self.succ = tuple(succ)
        self.pred = tuple(_transpose(self.succ, universe.size))

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The index pairs (x, y) with x below-or-equal y."""
        n = self.universe.size
        return frozenset((x, y) for x, up in enumerate(self.succ) for y in range(n) if up >> y & 1)

    def holds(self, x: str, y: str) -> bool:
        """Whether x is below-or-equal y."""
        return self.succ[self.universe.index(x)] >> self.universe.index(y) & 1 == 1

    def is_increasing(self, a: Subset) -> bool:
        """True iff every element above a member of ``a`` is itself a member."""
        return self._closed_under(a, self.succ)

    def is_decreasing(self, a: Subset) -> bool:
        """True iff every element below a member of ``a`` is itself a member."""
        return self._closed_under(a, self.pred)

    def _closed_under(self, a: Subset, reach: tuple[int, ...]) -> bool:
        """True iff ``reach[x]`` lies within ``a`` for every member x."""
        if a.universe is not self.universe:
            raise UniverseMismatchError("subset belongs to a different universe")
        bits = a.bits
        for pos, reached in enumerate(reach):
            if bits >> pos & 1 and reached & ~bits:
                return False
        return True

    def __repr__(self) -> str:
        return f"PartialOrder({len(self.pairs)} pairs over {self.universe!r})"


def validate_order(
    universe: Universe,
    pairs: Iterable[tuple[int, int]],
    *,
    auto_reflexive: bool = True,
) -> PartialOrder:
    """Check the three partial-order axioms and return the validated order.

    With ``auto_reflexive`` (the default) missing loops are inserted before
    validation; with it off they are a reflexivity error. Missing transitive
    pairs are always an error, never auto-completed.
    """
    succ = BinaryRelation(universe, pairs).rights
    if auto_reflexive:
        succ = [up | 1 << i for i, up in enumerate(succ)]

    order = PartialOrder(universe, succ)
    pred = order.pred
    labels = universe.labels
    for i, up in enumerate(succ):
        if not up >> i & 1:
            raise OrderAxiomError(
                "reflexivity",
                (labels[i], labels[i]),
                f"reflexivity violated: ({labels[i]}, {labels[i]}) missing",
            )
    # Witnesses come in the order of the sorted pairs: x ascending, then y,
    # then the lowest offending z.
    for x, up in enumerate(succ):
        both = up & pred[x] & ~(1 << x)
        if both:
            y = next(_points(both))
            raise OrderAxiomError(
                "antisymmetry",
                (labels[x], labels[y]),
                f"antisymmetry violated: both ({labels[x]}, {labels[y]}) "
                f"and ({labels[y]}, {labels[x]}) present",
            )
    for x, up in enumerate(succ):
        for y in _points(up):
            missing = succ[y] & ~up
            if missing:
                z = next(_points(missing))
                raise OrderAxiomError(
                    "transitivity",
                    (labels[x], labels[z]),
                    f"transitivity violated: ({labels[x]}, {labels[y]}) and "
                    f"({labels[y]}, {labels[z]}) present but ({labels[x]}, "
                    f"{labels[z]}) missing",
                )
    return order


def equality_order(universe: Universe) -> PartialOrder:
    """The discrete order: x below y only when x = y."""
    return PartialOrder(universe, [1 << i for i in range(universe.size)])
