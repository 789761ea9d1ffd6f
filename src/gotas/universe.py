"""Finite labeled universes and their subsets.

Elements carry string labels at the API surface and dense indices
internally; a subset is an int bitmask over those indices, which keeps
membership, the set algebra and powerset scans cheap. A batch holds many
subsets at once, bit-sliced: as one column per point, which the folds over
a kernel read, and packed, the columns side by side in one int, so that one
int operation acts on every point of every subset in the batch.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache, reduce
from itertools import chain, compress, count, repeat
from operator import and_, lshift, or_, xor
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

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


class _cached:
    """``functools.cached_property`` without the lock it takes on each first
    read before Python 3.12: the values are pure, and threads that race keep
    the first one stored."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, cls=None):
        return self if obj is None else obj.__dict__.setdefault(self.name, self.fn(obj))


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
        return cls(universe, tuple(_counting_columns(n)), 1 << n)

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
        cols, done = self.columns, []
        for points, covers in plan.steps:
            done.append(reduce(op, chain(map(cols.__getitem__, points),
                                         map(done.__getitem__, covers))))
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


# A request complements batches of at most two widths, its unit batch and, for a
# sampled check, its 4W pair table; at 1000 points and 16384 lanes one entry holds 2.2 MB.
@lru_cache(maxsize=4)
def _full(n: int, width: int) -> int | Groups:
    """The packed batch whose every lane is the whole universe of n points."""
    return _pack(((1 << width) - 1,) * n, width)


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


def random_columns(rng: random.Random, width: int, count: int) -> list[int]:
    """The ``width`` columns of one ``rng.getrandbits(width * count)`` block
    cut into ``count`` rows: bit s of result[x] is block bit s * ``width`` + x.
    ``bin`` writes the block, with bit ``total`` set, as "0b1" and then its
    digits, top first, so block bit b is text[total + 2 - b] and each column
    is one strided slice of the text."""
    total = width * count
    text = bin(rng.getrandbits(total) | 1 << total)
    return [int(text[width + 2 - x::width], 2) for x in range(width)]
