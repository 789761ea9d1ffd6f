"""Bit-sliced batches: many subsets of one Universe held at once.

A batch holds its subsets as one column per point, which the folds over a
kernel read, and packed, the columns side by side in one int, so that one
int operation acts on every point of every subset in the batch. Only the
law checker, the oracle and batch calls of the operators use it, so the
package imports this module on first use.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import count
from operator import and_, lshift, or_, xor
from typing import NamedTuple, Sequence

from .universe import (Subset, Universe, UniverseMismatchError, _cached, _transpose, from_flags,
                       same_universe)


class Plan(NamedTuple):
    """How a batch folds its columns over point masks M(x) with x ∈ M(x)
    and M(y) ⊆ M(x) for each y in M(x). ``masks`` are the distinct M(x),
    the classes, smallest first; ``classes[x]`` indexes M(x) among them.
    Class c folds the columns and class results of ``steps[c]``, a pair
    (points, covers): its own points (those x with M(x) = M_c) and its
    covers (the greatest classes inside M_c), largest first. The covers
    are the transitive reduction of the nesting (Aho, Garey & Ullman 1972)."""

    masks: tuple[int, ...]
    steps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    classes: tuple[int, ...]

    @classmethod
    def of(cls, masks: Sequence[int]) -> Plan:
        """The plan of ``masks`` (M(x) = ``masks[x]``). For class c, the
        points of M_c outside its own are left to cover; the classes below
        c are scanned downwards while any are left. A class whose first
        point is still left lies in M_c and in no cover taken so far, so by
        the nesting it is a greatest class inside M_c: it is a cover, and
        its mask is taken away."""
        members: dict[int, list[int]] = {}
        for x, m in enumerate(masks):
            members.setdefault(m, []).append(x)
        distinct = sorted(members, key=int.bit_count)
        probes = [1 << members[m][0] for m in distinct]
        steps = []
        for c, m in enumerate(distinct):
            own, covers, b = members[m], [], c
            rest = m & ~sum(1 << x for x in own)
            while rest:
                b -= 1
                if rest & probes[b]:
                    covers.append(b)
                    rest &= ~distinct[b]
            steps.append((tuple(own), tuple(covers)))
        index = {m: c for c, m in enumerate(distinct)}
        return cls(tuple(distinct), tuple(steps), tuple(map(index.__getitem__, masks)))

    def beside(self, other: Plan, n: int) -> Plan:
        """The plan of this plan's n points followed by ``other``'s, moved up
        by n: ``other``'s classes follow, with points and covers offset. Each
        class keeps its mask over its own plan's n points, as a mask moved up
        by n would take n bits more for each class."""
        c = len(self.masks)
        steps = [(tuple([x + n for x in own]), tuple([b + c for b in covers]))
                 for own, covers in other.steps]
        return Plan(self.masks + other.masks, self.steps + tuple(steps),
                    self.classes + tuple([k + c for k in other.classes]))


class Batch:
    """W subsets of a Universe at once, held bit-sliced.

    ``columns[x]`` has bit s set when point x is in lane s, so each int
    operation acts on all W lanes, as in Biham's bit-sliced DES (1997).
    ``packed`` holds them as one int, column x as field x, W bits wide, so
    that one int operation acts on every lane of every column; past
    ``GROUP_BITS`` bits it holds them in ``Groups`` of such ints. The set
    algebra and the laws read ``packed``, the folds ``columns``; each is
    derived from the other on first use and kept. The set algebra is
    Subset's, lane by lane; comparisons return the mask of the lanes where
    they fail.
    """

    def __init__(self, universe: Universe, columns: tuple[int, ...] | None, width: int) -> None:
        """``columns`` is None when the caller sets ``packed`` instead."""
        self.universe, self.width, self.lanes = universe, width, (1 << width) - 1
        if columns is not None:
            self.columns = columns

    @_cached
    def columns(self) -> tuple[int, ...]:
        p, width, lanes, n = self.packed, self.width, self.lanes, self.universe.size
        if not isinstance(p, Groups):
            return tuple(p >> x * width & lanes for x in range(n))
        if (f := _fields(width)) == 1:
            return tuple(p)
        return tuple(g >> k * width & lanes for i, g in enumerate(p)
                     for k in range(min(f, n - i * f)))

    @_cached
    def packed(self) -> int | Groups:
        return _pack(self.columns, self.width)

    @classmethod
    def of(cls, universe: Universe, rows: Sequence[int]) -> Batch:
        """Batch whose lane s is the subset with bitmask ``rows[s]``."""
        if rows and (min(rows) < 0 or max(rows) > universe.full_mask):
            raise ValueError("bitmask references indices outside the universe")
        return cls(universe, tuple(_transpose(rows, universe.size)), len(rows))

    @classmethod
    def powerset(cls, universe: Universe) -> Batch:
        """Every subset: lane s holds the subset with bitmask s."""
        n = universe.size
        return cls(universe, _counting_columns(n), 1 << n)

    @property
    def bits(self) -> int | Groups:
        """``packed``: hashable and fixed by the lanes, like ``Subset.bits``;
        perfbench/tracing.py keys base calls by it."""
        return self.packed

    def rows(self) -> list[int]:
        """The bitmask of each lane; the inverse of ``Batch.of``."""
        return _transpose(self.columns, self.width)

    def counts(self) -> list[int]:
        """The number of points in each lane."""
        return list(map(int.bit_count, self.rows()))

    def lane(self, s: int) -> Subset:
        """The subset in lane s."""
        if not 0 <= s < self.width:
            raise IndexError(f"lane {s} is outside a batch of width {self.width}")
        lane = bytes(map((1).__and__, map(s.__rrshift__, self.columns)))
        return Subset(self.universe, from_flags(lane))

    def lanes_in(self, word: int | Groups) -> int:
        """The lanes set in some field of ``word``, laid out as ``packed``: the
        top half of its fields ORed onto the bottom half, down to one field."""
        fields, width = self.universe.size, self.width
        if isinstance(word, Groups):
            word, fields = reduce(or_, word), min(_fields(width), fields)
        while fields > 1 and word:
            fields = (fields + 1) // 2
            word = word & (1 << fields * width) - 1 | word >> fields * width
        return word

    def halves(self, word: int | Groups) -> tuple[int, int]:
        """On a batch of 2n points, the lanes set in some field of the first n
        fields of ``word``, laid out as ``packed``, then of the last n. A group
        of ``Groups`` that holds fields of both halves is cut at field n."""
        n, width = self.universe.size // 2, self.width
        if isinstance(word, Groups):
            q, r = divmod(n, _fields(width))
            low = Groups((*word[:q], word[q] & (1 << r * width) - 1))
            high = Groups((word[q] >> r * width, *word[q + 1:]))
        else:
            low, high = word & (1 << n * width) - 1, word >> n * width
        return self.lanes_in(low), self.lanes_in(high)

    def swapped(self) -> Batch:
        """On a batch of 2n points, the batch with its first n points and its
        last n exchanged."""
        n = self.universe.size // 2
        if isinstance(p := self.packed, Groups):
            return Batch(self.universe, self.columns[n:] + self.columns[:n], self.width)
        cut = n * self.width
        return self._with(p >> cut | (p & (1 << cut) - 1) << cut)

    def _guard(self, other: Batch) -> None:
        same_universe(self.universe, other.universe)
        if self.width != other.width:
            raise UniverseMismatchError("batches differ in width")

    def _with(self, packed: int | Groups) -> Batch:
        batch = Batch(self.universe, None, self.width)
        batch.packed = packed
        return batch

    def __or__(self, other: Batch) -> Batch:
        self._guard(other)
        return self._with(self.packed | other.packed)

    def __and__(self, other: Batch) -> Batch:
        self._guard(other)
        return self._with(self.packed & other.packed)

    def __sub__(self, other: Batch) -> Batch:
        self._guard(other)
        return self._with(_beyond(self.packed, other.packed))

    def complement(self) -> Batch:
        return self._with(self.packed ^ _full(self.universe.size, self.width))

    def all_of(self, plan: Plan) -> Batch:
        """Column x is the AND of the columns of M(x), x's mask in ``plan``:
        the lanes holding all of its points."""
        return self._fold(plan, and_)

    def any_of(self, plan: Plan) -> Batch:
        """Column x is the OR of the columns of M(x), x's mask in ``plan``:
        the lanes meeting it."""
        return self._fold(plan, or_)

    def _fold(self, plan: Plan, op) -> Batch:
        """One result per class of ``plan``, folding its own points'
        columns with its covers' results; each point takes its class's."""
        get, done = self.columns.__getitem__, []
        for points, covers in plan.steps:
            result = reduce(op, map(get, points))
            done.append(reduce(op, map(done.__getitem__, covers), result) if covers else result)
        return Batch(self.universe, tuple(map(done.__getitem__, plan.classes)), self.width)

    def differs(self, other: Batch) -> int:
        """Lanes where the two subsets differ."""
        self._guard(other)
        return self.lanes_in(self.packed ^ other.packed)

    def nonempty(self) -> int:
        """Lanes holding at least one point."""
        return self.lanes_in(self.packed)


# The most bits of a packed int, unless one column is wider. Ops on wider ints
# cost as much as on their columns, and packing them would keep a second copy
# of each batch.
GROUP_BITS = 1 << 16


class Groups(tuple):
    """The packed form of a batch wider than ``GROUP_BITS``: one int per group
    of ``_fields(W)`` columns (the columns themselves past half of it), with
    the int operators that the laws use acting group by group."""

    __slots__ = ()

    def __or__(self, other: Groups) -> Groups:
        return Groups(map(or_, self, other))

    def __and__(self, other: Groups) -> Groups:
        return Groups(map(and_, self, other))

    def __xor__(self, other: Groups) -> Groups:
        return Groups(map(xor, self, other))

    def __rshift__(self, k: int) -> Groups:
        return Groups(map(k.__rrshift__, self))

    def __bool__(self) -> bool:
        return any(self)


def _fields(width: int) -> int:
    """The columns of ``width`` lanes that one packed int holds."""
    return (GROUP_BITS // width or 1) if width else GROUP_BITS


def _pack(columns: Sequence[int], width: int) -> int | Groups:
    """``columns`` as one int, column x as field x, ``width`` bits each; past
    ``GROUP_BITS`` bits, as ``_groups``."""
    if len(columns) * width <= GROUP_BITS:
        return reduce(or_, map(lshift, columns, count(0, width)))
    return _groups(columns, width)


def _groups(columns: Sequence[int], width: int) -> Groups:
    """``columns`` packed ``_fields(width)`` to an int. Apart from ``_pack``,
    whose locals its generator would turn into cells, slower to read."""
    f = _fields(width)
    return Groups(columns if f == 1 else
                  (_pack(columns[i:i + f], width) for i in range(0, len(columns), f)))


def _beyond(p: int | Groups, q: int | Groups) -> int | Groups:
    """Packed p - q, as p ^ (p & q): p & ~q is slow on wide ints, as ~q is negative."""
    return p ^ (p & q)


# A request complements batches of at most two widths, over the direction sum's 2n
# points: its unit batch and, for a sampled check, its 4W pair table; at 2000 points
# (a sum of 1000) and 16384 lanes one entry holds 4.4 MB.
@lru_cache(maxsize=4)
def _full(n: int, width: int) -> int | Groups:
    """The packed batch whose every lane is the whole universe of n points."""
    return _pack(((1 << width) - 1,) * n, width)


# The powerset batch, the oracle table and the cover pairs read the columns of at
# most POWERSET_CAP points; at 16 points an entry holds 128 KB.
@lru_cache(maxsize=17)
def _counting_columns(m: int) -> tuple[int, ...]:
    """Over 2**m lanes, where lane s holds the bitmask s: for each bit k,
    the lanes with bit k set, which are 2**k clear lanes then 2**k set ones,
    repeated."""
    columns = []
    for k in range(m):
        column = ((1 << (1 << k)) - 1) << (1 << k)  # one period, 2**(k+1) lanes
        for j in range(k + 1, m):
            column |= column << (1 << j)  # doubled to 2**(j+1) lanes
        columns.append(column)
    return tuple(columns)
