"""Finite labeled universes and their subsets.

Elements carry string labels at the API surface and dense indices
internally; a subset is an int bitmask over those indices, which keeps
membership, the set algebra and powerset scans cheap. A batch holds many
subsets at once, bit-sliced, so that one int operation acts on all of them.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

# Maps the digits of a binary string to the bytes 0 and 1, so that the
# encoded string selects labels in ``itertools.compress``.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class UniverseMismatchError(ValueError):
    """Subsets owned by different Universe objects were combined."""


class Universe:
    """Ordered collection of distinct element labels.

    Identity matters: subsets are combinable only when they reference the
    same Universe object, not merely an equal label list.
    """

    __slots__ = ("labels", "full_mask", "_index", "_digits")

    def __init__(self, labels: Iterable[str]) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("a universe needs at least one element")
        index: dict[str, int] = {}
        for pos, label in enumerate(labels):
            if label in index:
                raise ValueError(f"duplicate label {label!r}")
            index[label] = pos
        self.labels = labels
        self.full_mask = (1 << len(labels)) - 1
        self._index = index
        self._digits = f"0{len(labels)}b"

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}") from None

    def subset(self, labels: Iterable[str]) -> Subset:
        """Subset holding exactly the named elements; input order and
        repeats are irrelevant."""
        bits = 0
        for label in labels:
            bits |= 1 << self.index(label)
        return Subset(self, bits)

    def reverse(self, bits: int) -> int:
        """``bits`` bit-reversed over the universe, so that point 0 sits in
        the top bit; reversing twice gives ``bits`` back."""
        return int(format(bits, self._digits)[::-1], 2)

    def labels_of(self, rbits: int) -> Iterator[str]:
        """Labels of the points of the bit-reversed mask ``rbits``, in
        universe order. The mask's binary string, point 0 first, selects
        the labels; the loop stays in C."""
        return compress(self.labels, format(rbits, self._digits).encode().translate(_DIGIT_VALUES))

    def text(self, rbits: int) -> str:
        """The bit-reversed mask ``rbits`` written as ``{a, b}``."""
        return "{" + ", ".join(self.labels_of(rbits)) + "}"

    def canonical(self, masks: Iterable[int]) -> tuple[Subset, ...]:
        """The subsets with these bitmasks, in canonical order."""
        reverse = self.reverse
        return tuple(Subset(self, reverse(r)) for r in canonical_order(map(reverse, masks)))

    def from_bits(self, bits: int) -> Subset:
        return Subset(self, bits)

    def empty(self) -> Subset:
        return Subset(self, 0)

    def full(self) -> Subset:
        return Subset(self, self.full_mask)

    def subsets(self) -> Iterator[Subset]:
        """All 2**size subsets, in bitmask order."""
        for bits in range(self.full_mask + 1):
            yield Subset(self, bits)

    def __repr__(self) -> str:
        return f"Universe({list(self.labels)!r})"


class Subset:
    """Immutable subset of a Universe, stored as an index bitmask."""

    __slots__ = ("universe", "bits")

    def __init__(self, universe: Universe, bits: int) -> None:
        if bits < 0 or bits > universe.full_mask:
            raise ValueError("bitmask references indices outside the universe")
        self.universe = universe
        self.bits = bits

    def _guard(self, other: Subset) -> None:
        if self.universe is not other.universe:
            raise UniverseMismatchError(
                "subsets belong to different universes"
            )

    def members(self) -> tuple[str, ...]:
        u = self.universe
        return tuple(u.labels_of(u.reverse(self.bits)))

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def union(self, other: Subset) -> Subset:
        self._guard(other)
        return Subset(self.universe, self.bits | other.bits)

    def intersect(self, other: Subset) -> Subset:
        self._guard(other)
        return Subset(self.universe, self.bits & other.bits)

    def difference(self, other: Subset) -> Subset:
        self._guard(other)
        return Subset(self.universe, self.bits & ~other.bits)

    def complement(self) -> Subset:
        return Subset(self.universe, self.universe.full_mask ^ self.bits)

    def is_subset(self, other: Subset) -> bool:
        self._guard(other)
        return self.bits & ~other.bits == 0

    def is_empty(self) -> bool:
        return self.bits == 0

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __le__ = is_subset

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, label: str) -> bool:
        return self.bits >> self.universe.index(label) & 1 == 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.members())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.universe is other.universe and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.universe), self.bits))

    def __str__(self) -> str:
        u = self.universe
        return u.text(u.reverse(self.bits))

    def __repr__(self) -> str:
        return f"Subset({str(self)})"


def canonical_order(rmasks: Iterable[int]) -> list[int]:
    """Bit-reversed masks in canonical order: cardinality first, then
    lexicographic in universe order. With point 0 in the top bit, the second
    key is descending mask order, so each cardinality's bucket takes a plain
    reverse sort."""
    buckets: dict[int, list[int]] = {}
    for r in rmasks:
        buckets.setdefault(r.bit_count(), []).append(r)
    return [r for size in sorted(buckets) for r in sorted(buckets[size], reverse=True)]


class Batch:
    """W subsets of a Universe at once, held bit-sliced.

    ``columns[x]`` has bit s set when point x is in lane s, so each int
    operation acts on all W lanes, as in Biham's bit-sliced DES (1997). The
    set algebra is Subset's, lane by lane; comparisons return the mask of
    the lanes where they fail instead of a bool.
    """

    __slots__ = ("universe", "columns", "width", "lanes")

    def __init__(self, universe: Universe, columns: tuple[int, ...], width: int) -> None:
        self.universe = universe
        self.columns = columns
        self.width = width
        self.lanes = (1 << width) - 1

    @classmethod
    def of(cls, universe: Universe, rows: Sequence[int]) -> Batch:
        """Batch whose lane s is the subset with bitmask ``rows[s]``."""
        return cls(universe, tuple(_transpose(rows, universe.size)), len(rows))

    @classmethod
    def powerset(cls, universe: Universe) -> Batch:
        """Every subset: lane s holds the subset with bitmask s."""
        n = universe.size
        return cls(universe, tuple(_counting_columns(n)), 1 << n)

    @classmethod
    def pairs(cls, universe: Universe) -> tuple[Batch, Batch]:
        """Every ordered pair of subsets (A, B): lane a·2ⁿ + b holds the
        subsets with bitmasks a and b."""
        n = universe.size
        columns = _counting_columns(2 * n)
        return (cls(universe, tuple(columns[n:]), 1 << 2 * n),
                cls(universe, tuple(columns[:n]), 1 << 2 * n))

    @property
    def bits(self) -> tuple[int, ...]:
        """The columns: hashable, like ``Subset.bits``."""
        return self.columns

    def rows(self) -> list[int]:
        """The bitmask of each lane; the inverse of ``Batch.of``."""
        return _transpose(self.columns, self.width)

    def lane(self, s: int) -> Subset:
        """The subset in lane s."""
        bits = 0
        for x, column in enumerate(self.columns):
            bits |= (column >> s & 1) << x
        return Subset(self.universe, bits)

    def _guard(self, other: Batch) -> None:
        if self.universe is not other.universe or self.width != other.width:
            raise UniverseMismatchError("batches belong to different universes or widths")

    def _zip(self, other: Batch, op) -> Batch:
        self._guard(other)
        return Batch(self.universe, tuple(map(op, self.columns, other.columns)), self.width)

    def __or__(self, other: Batch) -> Batch:
        return self._zip(other, or_)

    def __and__(self, other: Batch) -> Batch:
        return self._zip(other, and_)

    def __sub__(self, other: Batch) -> Batch:
        return self._zip(other, lambda x, y: x & ~y)

    def complement(self) -> Batch:
        lanes = self.lanes
        return Batch(self.universe, tuple(c ^ lanes for c in self.columns), self.width)

    def all_of(self, groups: Sequence[Sequence[int]]) -> Batch:
        """Column x is the AND of the columns of the points in ``groups[x]``:
        the lanes holding all of them."""
        cols = self.columns
        return Batch(self.universe, tuple(
            reduce(and_, map(cols.__getitem__, points), self.lanes) for points in groups
        ), self.width)

    def any_of(self, groups: Sequence[Sequence[int]]) -> Batch:
        """Column x is the OR of the columns of the points in ``groups[x]``:
        the lanes meeting them."""
        cols = self.columns
        return Batch(self.universe, tuple(
            reduce(or_, map(cols.__getitem__, points), 0) for points in groups
        ), self.width)

    def outside(self, other: Batch) -> int:
        """Lanes where this subset is not within ``other``'s."""
        self._guard(other)
        return reduce(or_, (x & ~y for x, y in zip(self.columns, other.columns)), 0)

    def differs(self, other: Batch) -> int:
        """Lanes where the two subsets differ."""
        self._guard(other)
        return reduce(or_, map(int.__xor__, self.columns, other.columns), 0)

    def nonempty(self) -> int:
        """Lanes holding at least one point."""
        return reduce(or_, self.columns, 0)


def _counting_columns(m: int) -> list[int]:
    """Over 2**m lanes, where lane s holds the bitmask s: for each bit k,
    the lanes with bit k set, which are 2**k clear lanes then 2**k set ones,
    repeated."""
    every = (1 << (1 << m)) - 1
    return [
        (((1 << (1 << k)) - 1) << (1 << k)) * (every // ((1 << (2 << k)) - 1))
        for k in range(m)
    ]


def _points(bits: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _transpose(values: Sequence[int], width: int) -> list[int]:
    """Bit matrix transpose: bit s of result[x] is bit x of ``values[s]``,
    for ``width`` bits per value. Goes through binary strings, which keeps
    the loop in C."""
    if not values:
        return [0] * width
    text = [format(v, f"0{width}b") for v in reversed(values)]
    return [int("".join(bits), 2) for bits in zip(*text)][::-1]
