"""Partial orders over a universe and monotone subset tests.

``validate_order`` is the only constructor: it checks reflexivity,
antisymmetry and transitivity (in that order) and reports the first
violated axiom with a witness. Nothing is silently repaired beyond the
optional insertion of reflexive loops. An order is held only as bitmasks,
the up-set and the down-set of each point; its pairs are derived from them.
"""

from __future__ import annotations

import reprlib
from typing import Iterable

from .topology import BinaryRelation
from .universe import Subset, Universe, UniverseMismatchError, _points, _transpose, union_over


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
        return frozenset((x, y) for x, up in enumerate(self.succ) for y in _points(up))

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
        return not union_over(reach, a.bits) & ~a.bits

    def __repr__(self) -> str:
        return f"PartialOrder({sum(map(int.bit_count, self.succ))} pairs over {self.universe!r})"


def validate_order(
    universe: Universe,
    pairs: BinaryRelation | Iterable[tuple[int, int]],
    *,
    auto_reflexive: bool = True,
) -> PartialOrder:
    """Check the three partial-order axioms and return the validated order.
    ``pairs`` are index pairs or a relation over ``universe``.

    With ``auto_reflexive`` (the default) missing loops are inserted before
    validation; with it off they are a reflexivity error. Missing transitive
    pairs are always an error, never auto-completed.
    """
    if not isinstance(pairs, BinaryRelation):
        pairs = BinaryRelation(universe, pairs)
    elif pairs.universe is not universe:
        raise UniverseMismatchError("relation belongs to a different universe")
    succ = pairs.rights
    if auto_reflexive:
        succ = [up | 1 << i for i, up in enumerate(succ)]

    order = PartialOrder(universe, succ)
    pred = order.pred
    labels = universe.labels
    for i, up in enumerate(succ):
        if not up >> i & 1:
            a = _quote(labels[i])
            raise OrderAxiomError(
                "reflexivity",
                (labels[i], labels[i]),
                f"reflexivity violated: ({a}, {a}) missing",
            )
    # Witnesses come in the order of the sorted pairs: x ascending, then y,
    # then the lowest offending z.
    for x, up in enumerate(succ):
        both = up & pred[x] & ~(1 << x)
        if both:
            y = next(_points(both))
            a, b = _quote(labels[x]), _quote(labels[y])
            raise OrderAxiomError(
                "antisymmetry",
                (labels[x], labels[y]),
                f"antisymmetry violated: both ({a}, {b}) and ({b}, {a}) present",
            )
    # Transitivity holds iff each up-set is increasing; only a failing
    # point's members are searched for the witness.
    for x, up in enumerate(succ):
        if union_over(succ, up) & ~up:
            y = next(y for y in _points(up) if succ[y] & ~up)
            z = next(_points(succ[y] & ~up))
            a, b, c = _quote(labels[x]), _quote(labels[y]), _quote(labels[z])
            raise OrderAxiomError(
                "transitivity",
                (labels[x], labels[z]),
                f"transitivity violated: ({a}, {b}) and ({b}, {c}) present "
                f"but ({a}, {c}) missing",
            )
    return order


def _quote(label: str) -> str:
    """A label as an error message writes it: as is, or, past 30
    characters, cut the way ``Universe.index`` cuts it."""
    return label if len(label) <= 30 else reprlib.repr(label)


def equality_order(universe: Universe) -> PartialOrder:
    """The discrete order: x below y only when x = y."""
    return PartialOrder(universe, [1 << i for i in range(universe.size)])
