"""Independent reference computation for the benchmark's output checks.

Imports nothing from ``gotas``. It rebuilds a space from a JSON document by
a different route than the program: the opens are the union-closure of the
minimal neighbourhoods N(x) (the intersection of the generators that hold
x), not a pairwise intersection/union fixpoint. The base operators come
from the monotone opens and closeds, the composites from the README's
operator table, and the regions and accuracy from their definitions.
"""

from __future__ import annotations

from fractions import Fraction

INC, DEC = "Inc", "Dec"
DIRECTIONS = (INC, DEC)
FAMILIES = ("R", "S", "P", "gamma", "beta")


def popcount(bits: int) -> int:
    return bin(bits).count("1")


class Space:
    """A space document, rebuilt without the program's code."""

    def __init__(self, doc: dict) -> None:
        self.labels = list(doc["universe"])
        n = self.n = len(self.labels)
        self.full = (1 << n) - 1
        self.index = {label: i for i, label in enumerate(self.labels)}

        if "relation" in doc:
            # Right neighbourhoods xR = {y : x R y} form the subbase.
            nbhd = [0] * n
            for x, y in doc["relation"]:
                nbhd[self.index[x]] |= 1 << self.index[y]
            generators = nbhd
        else:
            generators = [self.mask(labels) for labels in doc["base"]]
        minimal = set()
        for x in range(n):
            m = self.full
            for s in generators:
                if s >> x & 1:
                    m &= s
            minimal.add(m)
        opens = {0}
        for m in minimal:
            opens |= {o | m for o in opens}
        self.opens = sorted(opens, key=self.sort_key)

        # Up- and down-sets of each point; loops are implied.
        self.up = [1 << i for i in range(n)]
        self.down = [1 << i for i in range(n)]
        for x, y in doc["order"]:
            self.up[self.index[x]] |= 1 << self.index[y]
            self.down[self.index[y]] |= 1 << self.index[x]

        self._mono_opens = {d: [o for o in self.opens if self.monotone(o, d)] for d in DIRECTIONS}
        closeds = [self.full ^ o for o in self.opens]
        self._mono_closeds = {d: [c for c in closeds if self.monotone(c, d)] for d in DIRECTIONS}

    # -- subsets ------------------------------------------------------------

    def mask(self, labels) -> int:
        bits = 0
        for label in labels:
            bits |= 1 << self.index[label]
        return bits

    def members(self, bits: int) -> list[str]:
        return [label for i, label in enumerate(self.labels) if bits >> i & 1]

    def fmt(self, bits: int) -> str:
        return "{" + ", ".join(self.members(bits)) + "}"

    def sort_key(self, bits: int) -> tuple[int, tuple[int, ...]]:
        return (popcount(bits), tuple(i for i in range(self.n) if bits >> i & 1))

    def monotone(self, bits: int, d: str) -> bool:
        """Increasing (Inc) or decreasing (Dec) under the order."""
        reach = self.up if d == INC else self.down
        return all(reach[i] & ~bits == 0 for i in range(self.n) if bits >> i & 1)

    # -- operators ----------------------------------------------------------

    def r_lower(self, a: int, d: str) -> int:
        """Union of the d-monotone opens inside ``a``."""
        bits = 0
        for o in self._mono_opens[d]:
            if o & ~a == 0:
                bits |= o
        return bits

    def r_upper(self, a: int, d: str) -> int:
        """Intersection of the d-monotone closeds around ``a``."""
        bits = self.full
        for c in self._mono_closeds[d]:
            if a & ~c == 0:
                bits &= c
        return bits

    def approx(self, a: int, family: str, d: str) -> tuple[int, int]:
        """(lower, upper) of one family in one direction."""
        lo, up = self.r_lower, self.r_upper
        if family == "R":
            return lo(a, d), up(a, d)
        cl_int = up(lo(a, d), d)
        int_cl = lo(up(a, d), d)
        if family == "S":
            return a & cl_int, a | int_cl
        if family == "P":
            return a & int_cl, a | cl_int
        if family == "gamma":
            return a & (cl_int | int_cl), a | (cl_int | int_cl)
        if family == "beta":
            return a & up(int_cl, d), a | lo(cl_int, d)
        raise ValueError(f"unknown family {family!r}")

    def row(self, a: int, family: str, d: str) -> dict:
        """One row of ``gotas analyze --format json``."""
        lower, upper = self.approx(a, family, d)
        opposite = DEC if d == INC else INC
        accuracy = Fraction(1) if upper == 0 else Fraction(popcount(lower), popcount(upper))
        return {
            "family": family,
            "direction": d,
            "lower": self.members(lower),
            "upper": self.members(upper),
            "boundary": self.members(upper & ~lower),
            "positive": self.members(lower),
            "negative": self.members(self.full ^ self.approx(a, family, opposite)[1]),
            "accuracy": str(accuracy),
            "exact": lower == upper,
        }

    def report(self, a: int) -> dict:
        """The whole ``gotas analyze --format json`` payload for ``a``."""
        return {
            "set": self.members(a),
            "rows": [self.row(a, f, d) for f in FAMILIES for d in DIRECTIONS],
        }

    # -- laws 3.21 / 3.25 ---------------------------------------------------

    def law_holds(self, pid: str, a: int, d: str) -> bool:
        """Law 3.21 (beta upper ⊆ gamma upper ⊆ semi upper) or 3.25 (the
        same chain on boundaries) at one subset and direction."""
        chain = [self.approx(a, f, d) for f in ("beta", "gamma", "S")]
        if pid == "3.21":
            sets = [up for _, up in chain]
        elif pid == "3.25":
            sets = [up & ~lo for lo, up in chain]
        else:
            raise ValueError(f"no reference for law {pid!r}")
        return all(x & ~y == 0 for x, y in zip(sets, sets[1:]))

    def first_violation(self, pid: str) -> int | None:
        """Smallest subset bitmask on which the law fails in some direction,
        or None when it holds on every subset."""
        for a in range(self.full + 1):
            if not all(self.law_holds(pid, a, d) for d in DIRECTIONS):
                return a
        return None
