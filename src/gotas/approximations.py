"""Ordered rough approximation operators.

The space couples a finite universe with a relation-generated topology and
a partial order. The order restricts interior and closure to increasing or
decreasing sets, giving the directed base operators; semi, pre, gamma and
beta approximations are literal compositions of those two. Every operator
is a pure function of (space, subset, direction).
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .order import PartialOrder
from .topology import Topology, points_meeting, points_within
from .universe import Batch, Plan, Subset, Universe, _cached, same_universe


class Direction(Enum):
    INC = "inc"
    DEC = "dec"

    __hash__ = object.__hash__  # members are singletons; skips Python-level Enum.__hash__
    opposite: Direction  # the other member, set below

    def __init__(self, value: str) -> None:
        self.label = value.title()  # a plain attribute, as are opposite and a family's label


class OperatorFamily(Enum):
    R = "r"
    S = "s"
    P = "p"
    GAMMA = "gamma"
    BETA = "beta"

    __hash__ = object.__hash__  # as for Direction

    def __init__(self, value: str) -> None:
        self.label = value.upper() if len(value) == 1 else value


FAMILY_ORDER = tuple(OperatorFamily)
DIRECTION_ORDER = tuple(Direction)
Direction.INC.opposite, Direction.DEC.opposite = Direction.DEC, Direction.INC


@dataclass(frozen=True, eq=False)
class Gotas:
    """A universe plus a topology and a partial order over it.

    ``kernel[d][x]`` is M_d(x), the smallest d-monotone open set holding x:
    the transitive closure of N(x) with the up-set (Inc) or down-set (Dec)
    of x. It holds x, and M_d(y) lies inside M_d(x) for each of its points
    y, so a space has few distinct M_d(x), nested in one another.
    ``kernel_plan[d]`` lists them as classes, smallest first, each with its
    own points and its covers (the greatest classes inside it); a batch
    call folds each class once, from its own points' columns and its
    covers' results, and every point takes its class's result. The space
    keeps no results of the operators: ``Rows`` remembers them while it
    builds one table.
    """

    universe: Universe
    topology: Topology
    order: PartialOrder

    def __post_init__(self) -> None:
        same_universe(self.universe, self.topology.universe)
        same_universe(self.universe, self.order.universe)

    @_cached
    def kernel(self) -> dict[Direction, tuple[int, ...]]:
        """Built on first use, so a space that only lists its opens skips
        the two closures."""
        nbhd = self.topology.neighborhoods
        return {
            Direction.INC: _closure(nbhd, self.order.succ),
            Direction.DEC: _closure(nbhd, self.order.pred),
        }

    @_cached
    def kernel_plan(self) -> dict[Direction, Plan]:
        """``kernel`` as the plan the base operators fold a batch over: each
        distinct M_d(x) once, from its own points and its covers."""
        return {d: Plan.of(masks) for d, masks in self.kernel.items()}


def _closure(nbhd: tuple[int, ...], reach: tuple[int, ...]) -> tuple[int, ...]:
    """The transitive closure of x -> N(x) ∪ reach(x), per point, by Warshall
    over the classes of points that share one N(x).

    Each x lies in N(x), so the members of a class reach one another: they
    share one closure, and what reaches one member reaches the class. Class
    k has its member mask P_k and a row R_k, at first the union of N(x) ∪
    reach(x) over its members; class i has an edge to class j when R_i meets
    P_j. Warshall's invariant: before the pivot on k, R_i is the union of
    the first rows of i and of the classes that i reaches through classes
    before k only. So R_i meets P_k exactly when i reaches k that way, and
    the pivot adds R_k to R_i. At the end R_i is the closure of each member
    of i. Cost: one pass over the points and c² steps for c classes; when
    every N(x) differs, c = n and this is Warshall over the points.
    """
    index: dict[int, int] = {}  # N(x) -> its class, numbered as first seen
    cls = [index.setdefault(n, len(index)) for n in nbhd]
    members, rows = [0] * len(index), list(index)
    for x, (k, r) in enumerate(zip(cls, reach)):
        members[k] |= 1 << x
        rows[k] |= r
    for mk, rk in zip(members, rows):  # R_k as the earlier pivots left it
        for i, ri in enumerate(rows):
            if ri & mk:
                rows[i] = ri | rk
    return tuple(map(rows.__getitem__, cls))


# The operators act on one subset or, lane by lane, on a batch of them.
Sets = Subset | Batch


def r_lower(g: Gotas, a: Sets, d: Direction) -> Sets:
    """Greatest d-monotone open subset of ``a``: the points x with
    M_d(x) inside ``a``. On a batch, column x is the AND of the columns
    of M_d(x)."""
    return _base(g, a, d, False)


def r_upper(g: Gotas, a: Sets, d: Direction) -> Sets:
    """Smallest d-monotone closed superset of ``a``: the points x whose
    M_{d.opposite}(x) meets ``a`` (its complement is the greatest
    opposite-monotone open set outside ``a``). On a batch, column x is the
    OR of the columns of M_{d.opposite}(x)."""
    return _base(g, a, d.opposite, True)


# The base-operator results of the row table being built, keyed by (space,
# operand, kernel direction, meets); unset outside a table. A Subset keys by
# its bits, which hash in C (the space fixes its universe), and a Batch by
# identity; the dict holds each key, so no id is reused while it lives. A
# context variable keeps each thread's tables apart.
_MEMO: ContextVar[dict] = ContextVar("gotas_base_memo")


def _base(g: Gotas, a: Sets, d: Direction, meets: bool) -> Sets:
    """The points x whose M_d(x) meets ``a`` (``meets``) or lies inside
    it, computed once per row table; outside a table, afresh."""
    same_universe(g.universe, a.universe)
    memo = _MEMO.get({})
    batch = isinstance(a, Batch)
    key = (g, a if batch else a.bits, d, meets)
    result = memo.get(key)
    if result is None:
        if batch:
            plan = g.kernel_plan[d]
            result = a.any_of(plan) if meets else a.all_of(plan)
        else:
            test = points_meeting if meets else points_within
            result = g.universe.from_bits(test(g.kernel[d], a.bits))
        memo[key] = result
    return result


def semi_lower(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a & r_upper(g, r_lower(g, a, d), d)


def semi_upper(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a | r_lower(g, r_upper(g, a, d), d)


def pre_lower(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a & r_lower(g, r_upper(g, a, d), d)


def pre_upper(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a | r_upper(g, r_lower(g, a, d), d)


def gamma_lower(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a & (r_upper(g, r_lower(g, a, d), d) | r_lower(g, r_upper(g, a, d), d))


def gamma_upper(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a | (r_upper(g, r_lower(g, a, d), d) | r_lower(g, r_upper(g, a, d), d))


def beta_lower(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a & r_upper(g, r_lower(g, r_upper(g, a, d), d), d)


def beta_upper(g: Gotas, a: Sets, d: Direction) -> Sets:
    return a | r_lower(g, r_upper(g, r_lower(g, a, d), d), d)


OpFn = Callable[[Gotas, Sets, Direction], Sets]

_LOWER: dict[OperatorFamily, OpFn] = {
    OperatorFamily.R: r_lower,
    OperatorFamily.S: semi_lower,
    OperatorFamily.P: pre_lower,
    OperatorFamily.GAMMA: gamma_lower,
    OperatorFamily.BETA: beta_lower,
}
_UPPER: dict[OperatorFamily, OpFn] = {
    OperatorFamily.R: r_upper,
    OperatorFamily.S: semi_upper,
    OperatorFamily.P: pre_upper,
    OperatorFamily.GAMMA: gamma_upper,
    OperatorFamily.BETA: beta_upper,
}


def _accuracy(lo: int, up: int) -> Fraction:
    """The accuracy of a lower and an upper approximation with ``lo`` and
    ``up`` points, |lower| / |upper| (Pawlak 1982).

    The empty set is a total-function extension: it is exact for every
    family, so its accuracy is 1.
    """
    return Fraction(lo, up) if up else Fraction(1)


# A dataclass for ``dataclasses.replace``, which builds every variant suite:
# ``oracle.corrupted_suite``, perfbench's tracer and the tests call it.
@dataclass(frozen=True)
class OperatorSuite:
    """The base operators and the family tables. The law checker runs
    against a suite, so a corrupted table entry can be swapped in without
    touching the real operators."""

    # Unread (rows take R from the tables); perfbench/tracing.py passes them to replace().
    r_lower: OpFn
    r_upper: OpFn
    lower: dict[OperatorFamily, OpFn]
    upper: dict[OperatorFamily, OpFn]


DEFAULT_SUITE = OperatorSuite(r_lower, r_upper, _LOWER, _UPPER)


@dataclass(frozen=True)
class ApproxReport:
    """One (family, direction) row of a subset or, lane by lane, of a batch:
    the lower and upper approximations and the opposite direction's upper
    approximation, whose complement is the negative region. The regions,
    the accuracy and exactness are derived here only; on a batch,
    ``accuracy`` is one Fraction per lane, lane 0 first, each the
    ``_accuracy`` of that lane's point counts, and ``exact`` the mask of
    the exact lanes."""

    lower: Sets
    upper: Sets
    opposite_upper: Sets

    @property
    def positive(self) -> Sets:
        return self.lower

    @_cached
    def negative(self) -> Sets:
        return self.opposite_upper.complement()

    @_cached
    def boundary(self) -> Sets:
        return self.upper - self.lower

    @_cached
    def accuracy(self) -> Fraction | tuple[Fraction, ...]:
        if isinstance(self.lower, Batch):
            return tuple(map(_accuracy, self.lower.counts(), self.upper.counts()))
        return _accuracy(self.lower.cardinality(), self.upper.cardinality())

    @_cached
    def exact(self) -> bool | int:
        if isinstance(self.lower, Batch):
            return self.lower.lanes ^ self.lower.differs(self.upper)
        return self.lower == self.upper


class Rows(dict):
    """The rows of one operand for ``families``, keyed by (family,
    direction) in canonical order. Both directions of a family are derived
    together, so each row's negative region is the other direction's upper
    approximation. The families are compositions of the base operators and
    share terms (r_lower A, r_upper(r_lower A), ...): while the table is
    built, each base-operator result is remembered, so each term is
    computed (on a batch, folded) once per direction. The memo is dropped
    once the rows are built, also when a suite raises."""

    def __init__(self, g: Gotas, a: Sets, suite: OperatorSuite = DEFAULT_SUITE,
                 families: tuple[OperatorFamily, ...] = FAMILY_ORDER) -> None:
        super().__init__()
        self.g, self.a, self.suite = g, a, suite
        token = _MEMO.set({})
        try:
            for family in families:
                lo = {d: suite.lower[family](g, a, d) for d in DIRECTION_ORDER}
                up = {d: suite.upper[family](g, a, d) for d in DIRECTION_ORDER}
                for d in DIRECTION_ORDER:
                    self[family, d] = ApproxReport(lo[d], up[d], up[d.opposite])
        finally:
            _MEMO.reset(token)


def lower(g: Gotas, a: Subset, family: OperatorFamily, d: Direction) -> Subset:
    return DEFAULT_SUITE.lower[family](g, a, d)


def upper(g: Gotas, a: Subset, family: OperatorFamily, d: Direction) -> Subset:
    return DEFAULT_SUITE.upper[family](g, a, d)


def boundary(g: Gotas, a: Subset, family: OperatorFamily, d: Direction) -> Subset:
    return Rows(g, a, families=(family,))[family, d].boundary


def negative(g: Gotas, a: Subset, family: OperatorFamily, d: Direction) -> Subset:
    return Rows(g, a, families=(family,))[family, d].negative


def accuracy(g: Gotas, a: Subset, family: OperatorFamily, d: Direction) -> Fraction:
    return Rows(g, a, families=(family,))[family, d].accuracy


def full_report(
    g: Gotas, a: Subset
) -> dict[tuple[OperatorFamily, Direction], ApproxReport]:
    """All ten (family, direction) rows, in canonical order."""
    return dict(Rows(g, a))
