"""Ordered rough approximation operators.

The space couples a finite universe with a relation-generated topology and
a partial order. The order restricts interior and closure to increasing or
decreasing sets, giving the directed base operators; semi, pre, gamma and
beta approximations are literal compositions of those two. Every operator
is a pure function of (space, subset, direction).
"""

from __future__ import annotations

from collections.abc import Mapping
from contextvars import ContextVar
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable
from weakref import proxy

from .order import PartialOrder
from .topology import Topology, points_meeting, points_within
from .universe import Subset, Universe, _cached, same_universe

if TYPE_CHECKING:
    from fractions import Fraction

    from .batch import Batch, Plan
    from .oracle import OperatorSuite

    # The operators act on one subset or, lane by lane, on a batch of them.
    Sets = Subset | Batch
    OpFn = Callable[[Gotas, Sets, Direction], Sets]


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


class Gotas:
    """A universe plus a topology and a partial order over it.

    ``kernel[d][x]`` is M_d(x), the smallest d-monotone open set holding x:
    the transitive closure of N(x) with the up-set (Inc) or down-set (Dec)
    of x. It holds x, and M_d(y) lies inside M_d(x) for each of its points
    y, so a space has few distinct M_d(x), nested in one another.
    ``kernel_plan[d]`` lists them as classes, smallest first, each with its
    own points and its covers (the greatest classes inside it); a batch
    call folds each class once, from its own points' columns and its
    covers' results, and every point takes its class's result.
    ``direction_sum`` is the space beside its order dual, where one call of
    an operator at Inc gives both directions. The space keeps no results of
    the operators: ``Rows`` remembers them while it builds one table.
    Spaces compare by identity.
    """

    def __init__(self, universe: Universe, topology: Topology, order: PartialOrder) -> None:
        same_universe(universe, topology.universe)
        same_universe(universe, order.universe)
        self.universe, self.topology, self.order = universe, topology, order

    @_cached
    def kernel(self) -> dict[Direction, tuple[int, ...]]:
        """Built on first use, so a space that only lists its opens skips
        the two closures."""
        nbhd = self.topology.neighborhoods
        return {
            Direction.INC: _closure(nbhd, self.order.succ),
            Direction.DEC: _closure(nbhd, self.order.pred),
        }

    def scan(self, d: Direction, bits: int, meets: bool) -> int:
        """The points x whose M_d(x) meets ``bits`` (``meets``) or lies inside it."""
        return (points_meeting if meets else points_within)(self.kernel[d], bits)

    @_cached
    def kernel_plan(self) -> dict[Direction, Plan]:
        """``kernel`` as the plan the base operators fold a batch over: each
        distinct M_d(x) once, from its own points and its covers."""
        from .batch import Plan  # the batch engine loads on first use
        return {d: Plan.of(masks) for d, masks in self.kernel.items()}

    @_cached
    def direction_sum(self) -> Gotas:
        """The disjoint sum g ⊔ g∂ of the space and its order dual, over 2n
        points: point n + x is x in the copy with the order reversed. The
        decreasing sets of an order are the increasing sets of its dual
        (Nachbin, *Topology and Order*, 1965), so the sum's Inc kernel is
        M_inc ⊔ M_dec, its Dec kernel the mirror, and each operator at Inc on
        A ⊔ A gives the space's Inc and Dec values of A side by side. Its
        kernels and plans are the space's two placed one after the other, so
        no closure and no ``Plan.of`` runs on its 2n masks, and a subset is
        scanned one half at a time over the space's own kernel; it keeps no
        topology or order. It reads the space through a weak proxy, so the
        two form no reference cycle and a space is freed as soon as it is
        dropped, not at the next garbage collection; it is valid only while
        the space lives."""
        return _Sum(self)


class _Sum(Gotas):
    """``Gotas.direction_sum`` of the space ``halves``."""

    def __init__(self, g: Gotas) -> None:
        self.halves, self.universe = proxy(g), _numbered(2 * g.universe.size)

    @_cached
    def kernel(self) -> dict[Direction, tuple[int, ...]]:
        n, k = self.halves.universe.size, self.halves.kernel
        return {d: k[d] + tuple([m << n for m in k[d.opposite]]) for d in DIRECTION_ORDER}

    def scan(self, d: Direction, bits: int, meets: bool) -> int:
        """Each half scanned over the space's own kernel, so that no shifted
        mask is built."""
        k, u = self.halves.kernel, self.halves.universe
        test = points_meeting if meets else points_within
        return test(k[d], bits & u.full_mask) | test(k[d.opposite], bits >> u.size) << u.size

    @_cached
    def kernel_plan(self) -> dict[Direction, Plan]:
        n, p = self.halves.universe.size, self.halves.kernel_plan
        return {d: p[d].beside(p[d.opposite], n) for d in DIRECTION_ORDER}


@lru_cache(maxsize=8)
def _numbered(n: int) -> Universe:
    """A universe of the points 0 … n − 1, shared by the direction sums of all
    spaces of n / 2 points, as one universe is by the spaces over it."""
    return Universe(range(n))


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
    subset = isinstance(a, Subset)
    key = (g, a.bits if subset else a, d, meets)
    result = memo.get(key)
    if result is None:
        if subset:
            result = g.universe.from_bits(g.scan(d, a.bits, meets))
        else:
            plan = g.kernel_plan[d]
            result = a.any_of(plan) if meets else a.all_of(plan)
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
    from fractions import Fraction  # on first use: topology never computes an accuracy

    return Fraction(lo, up) if up else Fraction(1)


class ApproxReport:
    """One (family, direction) row of a subset or, lane by lane, of a batch:
    the lower and upper approximations and the opposite direction's upper
    approximation, whose complement is the negative region. The regions,
    the accuracy and exactness are derived here only; on a batch,
    ``accuracy`` is one Fraction per lane, lane 0 first, each the
    ``_accuracy`` of that lane's point counts, and ``exact`` the mask of
    the exact lanes. Reports compare and hash by their three fields."""

    def __init__(self, lower: Sets, upper: Sets, opposite_upper: Sets | None = None) -> None:
        self.lower, self.upper = lower, upper
        if opposite_upper is not None:
            self.opposite_upper = opposite_upper

    @_cached
    def opposite_upper(self) -> Batch:
        """Unless given: on a batch over a direction sum, the upper with its
        halves swapped."""
        return self.upper.swapped()

    def _fields(self) -> tuple:
        return self.lower, self.upper, self.opposite_upper

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is ApproxReport else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

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
        if isinstance(self.lower, Subset):
            return _accuracy(self.lower.cardinality(), self.upper.cardinality())
        return tuple(map(_accuracy, self.lower.counts(), self.upper.counts()))

    @_cached
    def exact(self) -> bool | int:
        if isinstance(self.lower, Subset):
            return self.lower == self.upper
        return self.lower.lanes ^ self.lower.differs(self.upper)

    @_cached
    def rough(self) -> tuple[int, int]:
        """On a batch over a direction sum, the lanes where lower and upper
        differ in the first half of the points, then in the second."""
        return self.lower.halves(self.lower.packed ^ self.upper.packed)


class Rows(Mapping):
    """The rows of one operand ``a`` for ``families``, keyed by (family,
    direction) in canonical order. Each family is called once, at Inc, on
    the space's direction sum with the operand A ⊔ A, ``doubled``: its
    report there, in ``sums``, holds the family's Inc row of A in the
    first n points and its Dec row in the last n, so its opposite upper,
    the upper with the halves swapped, holds each direction's negative
    region. ``rows[family, d]`` splits the family's two reports from the
    halves on first read and keeps them in ``reports``. The families are
    compositions of the base operators and share terms (r_lower A,
    r_upper(r_lower A), ...): while the table is built, each base-operator
    result is remembered, so each term is computed (on a batch, folded)
    once. The memo is dropped once the rows are built, also when a suite
    raises. A ``suite`` (``oracle.OperatorSuite``) replaces the family
    tables ``_LOWER`` and ``_UPPER``; like them, its families must use the
    direction only through the base operators and ``.opposite``."""

    def __init__(self, g: Gotas, a: Sets, suite: OperatorSuite | None = None,
                 families: tuple[OperatorFamily, ...] = FAMILY_ORDER) -> None:
        same_universe(g.universe, a.universe)
        self.g, self.a, self.suite, self.reports = g, a, suite, {}
        s, n = g.direction_sum, g.universe.size
        self.doubled = aa = (Subset(s.universe, a.bits | a.bits << n) if isinstance(a, Subset)
                             else type(a)(s.universe, a.columns * 2, a.width))
        lower, upper = (_LOWER, _UPPER) if suite is None else (suite.lower, suite.upper)
        token = _MEMO.set({})
        try:
            self.sums = {f: ApproxReport(lower[f](s, aa, Direction.INC),
                                         upper[f](s, aa, Direction.INC)) for f in families}
        finally:
            _MEMO.reset(token)

    def split(self, x: Sets) -> tuple[Sets, Sets]:
        """The Inc and Dec halves of ``x``, a value over the direction sum (its
        first n points, then its last n), as values over the operand's
        universe; a value over that universe is both its halves."""
        u = self.g.universe
        if x.universe is u:
            return x, x
        if isinstance(x, Subset):
            return Subset(u, x.bits & u.full_mask), Subset(u, x.bits >> u.size)
        return tuple(type(x)(u, x.columns[k:k + u.size], x.width) for k in (0, u.size))

    def __getitem__(self, key: tuple[OperatorFamily, Direction]) -> ApproxReport:
        if key not in self.reports:
            family, row = key[0], self.sums[key[0]]
            (li, ld), (ui, ud) = self.split(row.lower), self.split(row.upper)
            self.reports[family, Direction.INC] = ApproxReport(li, ui, ud)
            self.reports[family, Direction.DEC] = ApproxReport(ld, ud, ui)
        return self.reports[key]

    def __iter__(self):
        return ((f, d) for f in self.sums for d in DIRECTION_ORDER)

    def __len__(self) -> int:
        return 2 * len(self.sums)


def lower(g: Gotas, a: Subset, family: OperatorFamily, d: Direction) -> Subset:
    return _LOWER[family](g, a, d)


def upper(g: Gotas, a: Subset, family: OperatorFamily, d: Direction) -> Subset:
    return _UPPER[family](g, a, d)


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
