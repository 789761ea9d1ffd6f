"""Finite labeled universes and their subsets.

Elements carry string labels at the API surface and dense indices
internally; a subset is an int bitmask over those indices, which keeps
membership, the set algebra and powerset scans cheap. A batch holds many
subsets at once, bit-sliced, so that one int operation acts on all of them.
"""

from __future__ import annotations

import random
import reprlib
from functools import reduce
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import add, and_, invert, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

# Swaps the binary digits b"0", b"1" and the flag bytes 0, 1, both ways.
_SWAP = bytes.maketrans(b"01\x00\x01", b"\x00\x0101")


def flags(bits: int, width: int = 0) -> bytes:
    """One byte per position of ``bits``, position 0 first: 1 where its bit
    is set, else 0, padded with 0s to ``width`` bytes (no bits give one)."""
    return bin(bits)[:1:-1].ljust(width, "0").encode().translate(_SWAP)


def from_flags(data: bytes) -> int:
    """The mask with bit x set where byte x of ``data`` is 1: the inverse
    of ``flags``; 0 for no bytes."""
    return int(data[::-1].translate(_SWAP) or b"0", 2)


def union_over(masks: Sequence[int], bits: int) -> int:
    """The union of ``masks[x]`` over the points x of ``bits``."""
    return reduce(or_, compress(masks, flags(bits)), 0)


class UniverseMismatchError(ValueError):
    """Subsets owned by different Universe objects were combined."""


class Universe:
    """Ordered collection of distinct element labels.

    Identity matters: subsets are combinable only when they reference the
    same Universe object, not merely an equal label list.
    """

    __slots__ = ("labels", "full_mask", "positions", "_digits", "_encoded")

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
        self._digits = f"0{len(labels)}b"
        self._encoded: tuple[str, ...] | None = None

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

    @property
    def encoded(self) -> tuple[str, ...]:
        """Each label as ``json.dumps`` writes it, encoded on first use."""
        if self._encoded is None:
            self._encoded = tuple(map(encode_basestring_ascii, self.labels))
        return self._encoded

    def reverse(self, bits: int) -> int:
        """``bits`` bit-reversed over the universe, so that point 0 sits in
        the top bit; reversing twice gives ``bits`` back."""
        return int(format(bits, self._digits)[::-1], 2)

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
        return tuple(compress(u.labels, flags(self.bits, u.size)))

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


class Plan(NamedTuple):
    """How a batch folds its columns over point masks M(x) with x ∈ M(x)
    and M(y) ⊆ M(x) for each y in M(x). ``masks`` are the distinct M(x),
    the classes, smallest first; ``classes[x]`` indexes M(x) among them.
    Class c folds the columns and class results of ``steps[c]``, a pair
    (points, covers): its own points (those x with M(x) = M_c) and its
    covers (the greatest classes inside M_c), largest first."""

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

    @property
    def bits(self) -> tuple[int, ...]:
        """The columns: hashable, like ``Subset.bits``. Nothing in the
        package hashes them; perfbench/tracing.py keys base calls by them."""
        return self.columns

    def rows(self) -> list[int]:
        """The bitmask of each lane; the inverse of ``Batch.of``."""
        return _transpose(self.columns, self.width)

    def counts(self) -> list[int]:
        """The number of points in each lane: the sum of the columns, each
        spread to one field per lane (lane 0 lowest) holding that lane's
        flag, with fields wide enough to count every point."""
        size, width = (self.universe.size.bit_length() + 7) // 8, self.width
        total, spread = 0, bytearray(size * width)
        for column in filter(None, self.columns):
            spread[::size] = flags(column, width)
            total += int.from_bytes(spread, "little")
        raw = total.to_bytes(size * width, "little")
        counts = list(raw[::size])
        for k in range(1, size):
            counts = list(map(add, counts, map((256 ** k).__mul__, raw[k::size])))
        return counts

    def lane(self, s: int) -> Subset:
        """The subset in lane s."""
        lane = bytes(map((1).__and__, map(s.__rrshift__, self.columns)))
        return Subset(self.universe, from_flags(lane))

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
        cols, done = self.columns, []
        for points, covers in plan.steps:
            done.append(reduce(op, chain(map(cols.__getitem__, points),
                                         map(done.__getitem__, covers))))
        return Batch(self.universe, tuple(map(done.__getitem__, plan.classes)), self.width)

    def outside(self, other: Batch) -> int:
        """Lanes where this subset is not within ``other``'s."""
        self._guard(other)
        return reduce(or_, map(and_, self.columns, map(invert, other.columns)), 0)

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
    columns = []
    for k in range(m):
        column = ((1 << (1 << k)) - 1) << (1 << k)  # one period, 2**(k+1) lanes
        for j in range(k + 1, m):
            column |= column << (1 << j)  # doubled to 2**(j+1) lanes
        columns.append(column)
    return columns


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


def random_columns(rng: random.Random, width: int, count: int, operands: int = 1) -> list[int]:
    """The columns of ``count`` rounds of ``operands`` draws of
    ``rng.getrandbits(width)`` each, drawn in that order, taken from one
    ``getrandbits`` call with the same bits and the same final state: bit s
    of result[k * width + x] is bit x of operand k's draw in round s.

    CPython fills a long ``getrandbits`` result with the generator's 32-bit
    outputs, lowest first, and a ``getrandbits(width)`` draw is its next
    ``words`` = ceil(``width`` / 32) outputs with the last one's low d =
    32 * ``words`` - ``width`` bits dropped. So in a block of S = 32 *
    ``words`` * ``operands`` bits per round, bit x of operand k in round s
    is block bit s * S + 32 * ``words`` * k + x, plus d in the last word.
    Each column is one strided slice of the block's binary digits."""
    words = -(-width // 32)
    step, drop, last = 32 * words * operands, 32 * words - width, 32 * (words - 1)
    total = step * count
    text = bin(rng.getrandbits(total) | 1 << total)
    # Block bit s * step + p is text[total + 2 - s * step - p]: "0b1" comes
    # first, then round count - 1, whose bit p is text[step + 2 - p].
    offsets = [32 * words * k + x + (drop if x >= last else 0)
               for k in range(operands) for x in range(width)]
    return [int(text[step + 2 - p::step], 2) for p in offsets]
