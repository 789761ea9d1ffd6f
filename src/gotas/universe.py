"""Finite labeled universes and their subsets.

Elements carry string labels at the API surface and dense indices
internally; a subset is an int bitmask over those indices, which keeps
membership, the set algebra and powerset scans cheap. Batches of subsets
are in ``batch``.
"""

from __future__ import annotations

import reprlib
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import random

# Swaps the binary digits b"0", b"1" and the flag bytes 0, 1, both ways.
_SWAP = bytes.maketrans(b"01\x00\x01", b"\x00\x0101")
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte's bits reversed


def flags(bits: int, width: int = 0) -> bytes:
    """One byte per position of ``bits``, position 0 first: 1 where its bit
    is set, else 0, padded with 0s to ``width`` bytes (no bits give one)."""
    return bin(bits)[:1:-1].ljust(width, "0").encode().translate(_SWAP)


def from_flags(data: bytes) -> int:
    """The mask with bit x set where byte x of ``data`` is 1: the inverse
    of ``flags``; 0 for no bytes."""
    return int(data[::-1].translate(_SWAP) or b"0", 2)


def _reverse(bits: int, width: int) -> int:
    """``bits`` with bit x moved to bit width - 1 - x: its bytes, lowest first
    and each reversed, read back highest first, less the padding."""
    size = -(-width // 8)
    data = bits.to_bytes(size, "little").translate(_REVERSED)
    return int.from_bytes(data, "big") >> 8 * size - width


def union_over(masks: Sequence[int], bits: int) -> int:
    """The union of ``masks[x]`` over the points x of ``bits``."""
    return reduce(or_, compress(masks, flags(bits)), 0)


class UniverseMismatchError(ValueError):
    """Subsets owned by different Universe objects were combined."""


def same_universe(owner: Universe, other: Universe) -> None:
    """Raises ``UniverseMismatchError`` unless ``other`` is ``owner`` itself:
    values combine only over one Universe object, not an equal one."""
    if other is not owner:
        raise UniverseMismatchError("values belong to different universes")


class Universe:
    """Ordered collection of distinct element labels.

    Identity matters: subsets are combinable only when they reference the
    same Universe object, not merely an equal label list.
    """

    __slots__ = ("labels", "full_mask", "positions")

    def __init__(self, labels: Iterable[str]) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("a universe needs at least one element")
        index: dict[str, int] = {}
        for pos, label in enumerate(labels):
            if label in index:
                raise ValueError(f"duplicate label {reprlib.repr(label)}")
            index[label] = pos
        self.labels = labels
        self.full_mask = (1 << len(labels)) - 1
        self.positions = index  # label -> index; ``index`` also names an unknown label

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except KeyError:
            raise ValueError(f"unknown label {reprlib.repr(label)}") from None

    def subset(self, labels: Iterable[str]) -> Subset:
        """Subset holding exactly the named elements; input order and
        repeats are irrelevant."""
        bits, positions = 0, self.positions
        try:
            for label in labels:
                bits |= 1 << positions[label]
        except KeyError as e:  # the label the lookup missed
            self.index(*e.args)
        return Subset(self, bits)

    def reverse(self, bits: int) -> int:
        """``bits`` bit-reversed over the universe, so that point 0 sits in
        the top bit; reversing twice gives ``bits`` back."""
        return _reverse(bits, len(self.labels))

    def texts(self, rmasks: Sequence[int]) -> str:
        """The bit-reversed masks ``rmasks``, each written as ``str`` writes
        its Subset, one per line, with the loop over the masks in C.

        Each mask splits into a first half, ``r >> h``, over the first
        n - h points, and a last half, ``r & (2**h - 1)``, over the last h
        (h = n // 2). Each half value that occurs is written once, as a
        fragment: every label it selects, followed by ", ". A line is its
        two fragments without the ", " after its last label."""
        if not rmasks:
            return ""
        h = len(self.labels) // 2
        split, low = len(self.labels) - h, (1 << h) - 1
        firsts = list(map(h.__rrshift__, rmasks))
        lasts = list(map(low.__and__, rmasks))
        first = _fragments(set(firsts), self.labels[:split])
        last = _fragments(set(lasts), self.labels[split:])
        lines = map(str.removesuffix, map(str.__add__, map(first.__getitem__, firsts),
                                          map(last.__getitem__, lasts)), repeat(", "))
        return "{" + "}\n{".join(lines) + "}"

    def from_bits(self, bits: int) -> Subset:
        return Subset(self, bits)

    def empty(self) -> Subset:
        return Subset(self, 0)

    def full(self) -> Subset:
        return Subset(self, self.full_mask)

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

    def members(self) -> tuple[str, ...]:
        u = self.universe
        return tuple(compress(u.labels, flags(self.bits, u.size)))

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def union(self, other: Subset) -> Subset:
        same_universe(self.universe, other.universe)
        return Subset(self.universe, self.bits | other.bits)

    def intersect(self, other: Subset) -> Subset:
        same_universe(self.universe, other.universe)
        return Subset(self.universe, self.bits & other.bits)

    def difference(self, other: Subset) -> Subset:
        same_universe(self.universe, other.universe)
        return Subset(self.universe, self.bits & ~other.bits)

    def complement(self) -> Subset:
        return Subset(self.universe, self.universe.full_mask ^ self.bits)

    def is_subset(self, other: Subset) -> bool:
        same_universe(self.universe, other.universe)
        return self.bits & ~other.bits == 0

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __le__ = is_subset
    __len__ = cardinality

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
        return "{" + ", ".join(self.members()) + "}"

    def __repr__(self) -> str:
        return f"Subset({str(self)})"


def canonical_order(rmasks: Iterable[int]) -> list[int]:
    """Bit-reversed masks in canonical order: cardinality first, then
    lexicographic in universe order. With point 0 in the top bit, the second
    key is descending mask order: a reverse sort, then a stable sort by
    cardinality, both in C."""
    ordered = sorted(rmasks, reverse=True)
    ordered.sort(key=int.bit_count)
    return ordered


class _cached:
    """``functools.cached_property`` without the lock it takes on each first
    read before Python 3.12: the values are pure, and threads that race keep
    the first one stored."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.fn(obj))


def _points(bits: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _fragments(values: set[int], labels: tuple[str, ...]) -> list[str] | dict[int, str]:
    """Each of ``values``, a mask over ``labels`` with the first label in the
    top bit, written as the labels it selects, each followed by ", ". When
    ``values`` fill at least half of the 2**width masks, every mask is
    written, by doubling: the texts of the masks below bit k, then each of
    them with the label of bit k put in front, one concatenation per mask."""
    width = len(labels)
    if 1 << width <= 2 * len(values):
        table = [""]
        for label in reversed(labels):
            table += [*map((label + ", ").__add__, table)]
        return table
    fragments = {}
    for v in values:
        fragments[v] = ", ".join([*compress(labels, flags(v, width)[::-1]), ""])
    return fragments


def _transpose(values: Sequence[int], width: int) -> list[int]:
    """Bit matrix transpose: bit s of result[x] is bit x of ``values[s]``,
    for ``width`` bits per value. Each value, with bit ``width`` set, is
    written by ``bin`` as "0b1" and then its ``width`` digits, last value
    first; each result is a strided slice of that text, which keeps the loop
    in C."""
    if not values:
        return [0] * width
    text = "".join(map(bin, map(or_, reversed(values), repeat(1 << width))))
    return [int(text[x::width + 3], 2) for x in range(width + 2, 2, -1)]


def random_columns(rng: random.Random, width: int, count: int) -> list[int]:
    """The ``width`` columns of one ``rng.getrandbits(width * count)`` block
    cut into ``count`` rows: bit s of result[x] is block bit s * ``width`` + x.
    ``bin`` writes the block, with bit ``total`` set, as "0b1" and then its
    digits, top first, so block bit b is text[total + 2 - b] and each column
    is one strided slice of the text."""
    total = width * count
    text = bin(rng.getrandbits(total) | 1 << total)
    return [int(text[width + 2 - x::width], 2) for x in range(width)]
