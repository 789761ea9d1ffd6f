"""Partial orders over a universe and monotone subset tests.

``validate_order`` is the only constructor: it checks reflexivity,
antisymmetry and transitivity (in that order) and reports the first
violated axiom with a witness. Nothing is silently repaired beyond the
optional insertion of reflexive loops.
"""

from __future__ import annotations

from typing import Iterable

from .universe import Subset, Universe, UniverseMismatchError


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

    __slots__ = ("universe", "pairs", "succ", "pred")

    def __init__(self, universe: Universe, pairs: frozenset[tuple[int, int]]) -> None:
        self.universe = universe
        self.pairs = pairs
        succ = [0] * universe.size
        pred = [0] * universe.size
        for x, y in pairs:
            succ[x] |= 1 << y
            pred[y] |= 1 << x
        self.succ = tuple(succ)
        self.pred = tuple(pred)

    def holds(self, x: str, y: str) -> bool:
        """Whether x is below-or-equal y."""
        return (self.universe.index(x), self.universe.index(y)) in self.pairs

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
    pairs = set(pairs)
    for x, y in pairs:
        if not (0 <= x < universe.size and 0 <= y < universe.size):
            raise ValueError(f"pair ({x}, {y}) references indices outside the universe")
    if auto_reflexive:
        pairs |= {(i, i) for i in range(universe.size)}

    order = PartialOrder(universe, frozenset(pairs))
    succ, pred = order.succ, order.pred
    labels = universe.labels
    for i in range(universe.size):
        if (i, i) not in pairs:
            raise OrderAxiomError(
                "reflexivity",
                (labels[i], labels[i]),
                f"reflexivity violated: ({labels[i]}, {labels[i]}) missing",
            )
    # Witnesses come in the order of the sorted pairs: x ascending, then y,
    # then the lowest offending z.
    for x in range(universe.size):
        both = succ[x] & pred[x] & ~(1 << x)
        if both:
            y = _lowest(both)
            raise OrderAxiomError(
                "antisymmetry",
                (labels[x], labels[y]),
                f"antisymmetry violated: both ({labels[x]}, {labels[y]}) "
                f"and ({labels[y]}, {labels[x]}) present",
            )
    for x in range(universe.size):
        for y in range(universe.size):
            missing = succ[y] & ~succ[x]
            if succ[x] >> y & 1 and missing:
                z = _lowest(missing)
                raise OrderAxiomError(
                    "transitivity",
                    (labels[x], labels[z]),
                    f"transitivity violated: ({labels[x]}, {labels[y]}) and "
                    f"({labels[y]}, {labels[z]}) present but ({labels[x]}, "
                    f"{labels[z]}) missing",
                )
    return order


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def equality_order(universe: Universe) -> PartialOrder:
    """The discrete order: x below y only when x = y."""
    return PartialOrder(universe, frozenset((i, i) for i in range(universe.size)))
