"""Brute-force reference operators and a mechanized law checker.

The oracle recomputes the directed base approximations from their defining
property, independently of the minimal-neighborhood kernel used by the fast
operators. It builds its own open family from a base of the generators,
lists once per direction the monotone opens and monotone closeds by one
scan of the powerset, and for each subset picks the greatest candidate
inside it (or the smallest around it), asserting that pick is unique.
``oracle_diff`` compares those picks with the fast operators run on the
powerset batch, the bit-sliced path the law checker reads.

The checker runs a catalogue of algebraic laws over all subsets (and all
pairs, for the binary laws) of a space, bit-sliced into batches, and
reports one result per law, with the first counterexample kept as a
witness. Laws compare rows and call no operator: each operand batch has one
row table for the whole check, so every row is derived once. A deliberately
corrupted gamma-upper operator is provided so the checker's failure path
itself stays under test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterable

from . import approximations as approx
from .approximations import (
    DIRECTION_ORDER,
    FAMILY_ORDER,
    Direction,
    Gotas,
    OperatorFamily,
    OperatorSuite,
)
from .order import PartialOrder, equality_order, validate_order
from .topology import Topology, generate_topology
from .universe import Batch, Subset, Universe, _points

ORACLE_CAP = 11
EXHAUSTIVE_CAP = 5


class CapExceededError(ValueError):
    """The universe is too large for a powerset scan with the given cap."""


def _guard_cap(g: Gotas, cap: int, what: str) -> None:
    if g.universe.size > cap:
        raise CapExceededError(
            f"universe size {g.universe.size} exceeds the {what} cap {cap}"
        )


def open_family(topology: Topology) -> frozenset[int]:
    """The open sets as bitmasks, materialised from the generators.

    The generators plus the whole universe, closed under intersection, are
    a base; the opens are the unions of base sets. Base sets are added to
    the family smallest first, each one joined to every open found so far,
    and a base set that is already a union of earlier ones adds nothing.
    This is the oracle's own route to the topology: it shares nothing with
    the minimal neighborhoods the fast operators read.
    """
    base = {topology.universe.full_mask}
    for m in {s.bits for s in topology.generators}:
        base |= {b & m for b in base}
    family = {0}
    for b in sorted(base, key=int.bit_count):
        if b not in family:
            family |= {o | b for o in family}
    return frozenset(family)


def oracle_r_lower(g: Gotas, a: Subset, d: Direction) -> Subset:
    """Greatest d-monotone open subset of ``a``, by exhaustive search.

    Lists every d-monotone open from its defining property and asserts the
    ones inside ``a`` have a unique maximum under inclusion; that
    uniqueness is the existence fact the fast operator relies on.
    """
    _guard_cap(g, ORACLE_CAP, "oracle")
    opens, _ = _monotone(g, open_family(g.topology), d)
    return g.universe.from_bits(_greatest_inside(g.universe, opens, a.bits))


def oracle_r_upper(g: Gotas, a: Subset, d: Direction) -> Subset:
    """Smallest d-monotone closed superset of ``a``, by exhaustive search."""
    _guard_cap(g, ORACLE_CAP, "oracle")
    _, closeds = _monotone(g, open_family(g.topology), d)
    return g.universe.from_bits(_smallest_around(g.universe, closeds, a.bits))


def _monotone(g: Gotas, opens: frozenset[int], d: Direction) -> tuple[list[int], list[int]]:
    """The d-monotone opens and the d-monotone closeds, in bitmask order:
    one scan of the powerset for the order, then membership in ``opens``."""
    mono = g.order.is_increasing if d is Direction.INC else g.order.is_decreasing
    full = g.universe.full_mask
    monotone = [s.bits for s in g.universe.subsets() if mono(s)]
    return [s for s in monotone if s in opens], [s for s in monotone if full ^ s in opens]


def _greatest_inside(u: Universe, candidates: list[int], a: int) -> int:
    """The greatest candidate inside ``a``; every other candidate inside
    ``a`` must lie within it."""
    inside = [c for c in candidates if not c & ~a]
    best = max(inside, key=int.bit_count)
    if reduce(or_, inside) != best:
        c = next(c for c in inside if c & ~best)
        raise RuntimeError(
            f"no unique greatest candidate inside {u.from_bits(a)}: "
            f"{u.from_bits(best)} vs {u.from_bits(c)}"
        )
    return best


def _smallest_around(u: Universe, candidates: list[int], a: int) -> int:
    """The smallest candidate around ``a``; it must lie within every other
    candidate around ``a``."""
    around = [c for c in candidates if not a & ~c]
    best = min(around, key=int.bit_count)
    if reduce(and_, around) != best:
        c = next(c for c in around if best & ~c)
        raise RuntimeError(
            f"no unique smallest candidate around {u.from_bits(a)}: "
            f"{u.from_bits(best)} vs {u.from_bits(c)}"
        )
    return best


def oracle_diff(g: Gotas) -> tuple[int, list[str]]:
    """Compare the fast base operators, run once per operator and direction
    on the powerset batch, against the oracle on every subset. Returns
    (comparisons, mismatches), the mismatches by subset, then direction,
    then operator."""
    _guard_cap(g, ORACLE_CAP, "oracle")
    u = g.universe
    opens = open_family(g.topology)
    powerset = Batch.powerset(u)
    # Each operator pairs with the family of the same position in ``_monotone``.
    operators = (
        ("r_lower", approx.r_lower, _greatest_inside),
        ("r_upper", approx.r_upper, _smallest_around),
    )
    checks = [
        (f"{name} {d.label}", fast(g, powerset, d).rows(), pick, candidates)
        for d in DIRECTION_ORDER
        for (name, fast, pick), candidates in zip(operators, _monotone(g, opens, d))
    ]
    mismatches: list[str] = []
    for a in range(powerset.width):
        for what, got, pick, candidates in checks:
            want = pick(u, candidates, a)
            if got[a] != want:
                mismatches.append(
                    f"{what} of {u.from_bits(a)}: main {u.from_bits(got[a])}, "
                    f"oracle {u.from_bits(want)}"
                )
    return len(checks) * powerset.width, mismatches


DEFAULT_SUITE = approx.DEFAULT_SUITE


def corrupted_gamma_upper(g: Gotas, a: Subset, d: Direction) -> Subset:
    """Deliberately wrong gamma upper: the union between the two composites
    replaced by an intersection. Exists so tests can prove the checker is
    able to fail; never used by the real operators."""
    return a | (
        approx.r_upper(g, approx.r_lower(g, a, d), d)
        & approx.r_lower(g, approx.r_upper(g, a, d), d)
    )


def corrupted_suite() -> OperatorSuite:
    return replace(
        DEFAULT_SUITE,
        upper={**DEFAULT_SUITE.upper, OperatorFamily.GAMMA: corrupted_gamma_upper},
    )


# ---------------------------------------------------------------------------
# Law catalogue.


@dataclass
class Violation:
    space: str
    detail: str


@dataclass
class PropositionReport:
    proposition: str
    instances: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


# Each law is a generator of claims over a batch of subsets (unary laws) or
# over an A/B pair of batches (binary laws): (fail mask, witness template,
# operands), in the order a check of one instance tests them. The template's
# %s fields take the operands' values at the failing lane. A law reads the
# rows of an operand batch x from its table, ``rep(x)``. A value in a law
# is named by its (family, row field).


def _sandwich(rep, a):
    rows = rep(a)
    for family in FAMILY_ORDER:
        for d in DIRECTION_ORDER:
            lo, up = rows[family, d].lower, rows[family, d].upper
            yield (lo.outside(a) | a.outside(up),
                   f"{family.label} {d.label}: expected %s within %s within %s", (lo, a, up))


def _lattice_laws(fam, field, label):
    def claims(rep, a, b):
        ra, rb, ri, ru = rep(a), rep(b), rep(a & b), rep(a | b)
        for d in DIRECTION_ORDER:
            xa, xb = getattr(ra[fam, d], field), getattr(rb[fam, d], field)
            yield (~a.outside(b) & xa.outside(xb),
                   f"{d.label}: {label} not monotone at A=%s, B=%s", (a, b))
            yield (getattr(ri[fam, d], field).outside(xa & xb),
                   f"{d.label}: {label}(A∩B) exceeds the intersection at A=%s, B=%s", (a, b))
            yield ((xa | xb).outside(getattr(ru[fam, d], field)),
                   f"{d.label}: {label}(A∪B) misses the union at A=%s, B=%s", (a, b))

    return claims


def _exact_transfer(fam, label):
    def claims(rep, a):
        rows = rep(a)
        for d in DIRECTION_ORDER:
            yield (rows[_R, d].exact & ~rows[fam, d].exact,
                   f"{d.label}: A=%s is R exact but not {label} exact", (a,))

    return claims


def _inclusion(first, second, text):
    def claims(rep, a):
        rows = rep(a)
        for d in DIRECTION_ORDER:
            x, y = (getattr(rows[fam, d], field) for fam, field in (first, second))
            yield x.outside(y), f"{d.label}: A=%s: {text}: %s not within %s", (a, x, y)

    return claims


def _inclusion_chain(*steps):
    # steps: (family, row field, name), asserted pairwise along the chain
    def claims(rep, a):
        rows = rep(a)
        for d in DIRECTION_ORDER:
            values = [(name, getattr(rows[fam, d], field)) for fam, field, name in steps]
            for (nx, x), (ny, y) in zip(values, values[1:]):
                yield x.outside(y), f"{d.label}: A=%s: {nx} %s not within {ny} %s", (a, x, y)

    return claims


def _neg_laws(fam):
    def claims(rep, a, b):
        tables = rep(a), rep(b), rep(a | b), rep(a & b)
        for d in DIRECTION_ORDER:
            na, nb, nu, ni = (rows[fam, d].negative for rows in tables)
            where = f"{d.label}: A=%s, B=%s"
            # Proof forms, which imply the looser stated forms.
            yield nu.outside(na & nb), f"{where}: Neg(A∪B) %s not within Neg(A)∩Neg(B)", (a, b, nu)
            yield (na | nb).outside(ni), f"{where}: Neg(A)∪Neg(B) not within Neg(A∩B) %s", (a, b, ni)
            # Stated forms, asserted as well.
            yield nu.outside(na | nb), f"{where}: Neg(A∪B) %s not within Neg(A)∪Neg(B)", (a, b, nu)
            yield (na & nb).outside(ni), f"{where}: Neg(A)∩Neg(B) not within Neg(A∩B) %s", (a, b, ni)

    return claims


def _accuracy_floor(rep, a):
    rows = rep(a)
    for d in DIRECTION_ORDER:
        base = rows[_R, d].accuracy
        for fam in (_G, _B):
            got = rows[fam, d].accuracy
            yield (a.nonempty() & base.exceeds(got),
                   f"{d.label}: A=%s: R accuracy %s > {fam.label} accuracy %s", (a, base, got))


def _accuracy_chain(rep, a):
    rows = rep(a)
    for d in DIRECTION_ORDER:
        ar, ag, ab = (rows[fam, d].accuracy for fam in (_R, _G, _B))
        yield (a.nonempty() & (ar.exceeds(ag) | ag.exceeds(ab)),
               f"{d.label}: A=%s: accuracies R %s, gamma %s, beta %s not ascending",
               (a, ar, ag, ab))


def _duality(rep, a):
    rows, comp = rep(a), rep(a.complement())
    cases = [("upper", "lower", d, rows[_R, d].upper, comp[_R, d.opposite].lower.complement())
             for d in DIRECTION_ORDER]
    # A negative region is the complement of the opposite direction's upper.
    cases += [("lower", "upper", d, rows[_R, d].lower, comp[_R, d].negative)
              for d in DIRECTION_ORDER]
    for x, y, d, left, right in cases:
        yield (left.differs(right),
               f"A=%s: duality {x} {d.label} vs {y} {d.opposite.label}: %s vs %s", (a, left, right))


_R, _S, _P, _G, _B = FAMILY_ORDER

_CATALOGUE: tuple[tuple[str, str, Callable], ...] = (
    ("sandwich", "unary", _sandwich),
    ("3.2", "binary", _lattice_laws(_G, "upper", "gamma upper")),
    ("3.3", "binary", _lattice_laws(_G, "lower", "gamma lower")),
    ("3.4", "unary", _exact_transfer(_G, "gamma")),
    ("3.5", "unary", _inclusion((_R, "lower"), (_G, "lower"), "R lower within gamma lower")),
    ("3.6", "unary", _inclusion((_G, "upper"), (_R, "upper"), "gamma upper within R upper")),
    ("3.7", "unary", _inclusion((_P, "lower"), (_G, "lower"), "pre lower within gamma lower")),
    ("3.8", "unary", _inclusion((_S, "lower"), (_G, "lower"), "semi lower within gamma lower")),
    ("3.9", "unary", _inclusion((_P, "upper"), (_G, "upper"), "pre upper within gamma upper")),
    ("3.10", "unary", _inclusion((_B, "upper"), (_P, "upper"), "beta upper within pre upper")),
    ("3.12", "binary", _lattice_laws(_B, "upper", "beta upper")),
    ("3.13", "binary", _lattice_laws(_B, "lower", "beta lower")),
    ("3.14", "unary", _exact_transfer(_B, "beta")),
    ("3.15", "unary", _inclusion((_R, "lower"), (_B, "lower"), "R lower within beta lower")),
    ("3.16", "unary", _inclusion((_B, "upper"), (_R, "upper"), "beta upper within R upper")),
    ("3.18", "binary", _neg_laws(_G)),
    ("3.19", "binary", _neg_laws(_B)),
    ("3.20", "unary", _inclusion_chain(
        (_S, "lower", "semi lower"), (_G, "lower", "gamma lower"), (_B, "lower", "beta lower"))),
    ("3.21", "unary", _inclusion_chain(
        (_B, "upper", "beta upper"), (_G, "upper", "gamma upper"), (_S, "upper", "semi upper"))),
    ("3.23", "unary", _accuracy_floor),
    ("3.25", "unary", _inclusion_chain(
        (_B, "boundary", "boundary beta"), (_G, "boundary", "boundary gamma"),
        (_S, "boundary", "boundary S"))),
    ("3.26", "unary", _inclusion_chain(
        (_G, "boundary", "boundary gamma"), (_R, "boundary", "boundary R"))),
    ("3.27", "unary", _inclusion_chain(
        (_B, "boundary", "boundary beta"), (_R, "boundary", "boundary R"))),
    ("3.28a", "unary", _accuracy_chain),
    ("3.28b", "unary", _inclusion((_G, "lower"), (_B, "lower"), "gamma lower within beta lower")),
    ("duality", "unary", _duality),
)

PROPOSITION_IDS = tuple(pid for pid, _, _ in _CATALOGUE)


def check_propositions(
    g: Gotas,
    *,
    suite: OperatorSuite | None = None,
    samples: int | None = None,
    rng: random.Random | None = None,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
    space_label: str | None = None,
) -> list[PropositionReport]:
    """Run the whole law catalogue over a space.

    Without ``samples`` the run is exhaustive (all subsets, all pairs) and
    the universe must not exceed ``exhaustive_cap``; with ``samples`` that
    many random subsets/pairs are drawn instead. Every law runs on all its
    instances at once, one batch lane each; its first failing lane is the
    instance a one-at-a-time check would stop at, so ``instances`` is that
    lane's index plus one, and its first failing claim gives the witness.
    """
    suite = suite if suite is not None else DEFAULT_SUITE
    u = g.universe
    if samples is None:
        _guard_cap(g, exhaustive_cap, "exhaustive")
        batches = {"unary": (Batch.powerset(u),), "binary": Batch.pairs(u)}
    else:
        rng = rng if rng is not None else random.Random(0)
        units = [rng.getrandbits(u.size) for _ in range(samples)]
        draws = [rng.getrandbits(u.size) for _ in range(2 * samples)]
        batches = {
            "unary": (Batch.of(u, units),),
            "binary": (Batch.of(u, draws[0::2]), Batch.of(u, draws[1::2])),
        }

    # One row table per operand batch, kept for the whole call.
    tables: dict[tuple, approx.Rows] = {}

    def rep(x: Batch) -> approx.Rows:
        return tables.setdefault((x.width, x.bits), approx.Rows(g, x, suite))

    label = space_label
    reports = []
    for pid, kind, law in _CATALOGUE:
        operands = batches[kind]
        claims = list(law(rep, *operands))
        failed = reduce(or_, (mask for mask, _, _ in claims), 0)
        if not failed:
            reports.append(PropositionReport(pid, operands[0].width))
            continue
        lane = (failed & -failed).bit_length() - 1
        template, values = next((t, v) for mask, t, v in claims if mask >> lane & 1)
        label = label or _space_label(g)
        detail = template % tuple(v.lane(lane) for v in values)
        reports.append(PropositionReport(pid, lane + 1, [Violation(label, detail)]))
    return reports


def _space_label(g: Gotas) -> str:
    count = g.topology.count_opens()
    opens = f"{count} opens" if count is not None else "too many opens to count"
    return f"U={{{', '.join(g.universe.labels)}}} with {opens}"


# ---------------------------------------------------------------------------
# Random space generation for sweeps and agreement tests.


def _labels_for(size: int) -> tuple[str, ...]:
    if size <= 26:
        return tuple(string.ascii_lowercase[:size])
    return tuple(f"e{i}" for i in range(size))


def random_order(rng: random.Random, universe: Universe) -> PartialOrder:
    """Random partial order: a DAG over the index order (each forward edge
    with probability 1/2) closed reflexively and transitively; forward-only
    edges keep it antisymmetric by construction."""
    n = universe.size
    succ = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                succ[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if succ[i] >> k & 1:
                succ[i] |= succ[k]
    return validate_order(universe, ((i, j) for i in range(n) for j in _points(succ[i])))


def random_space(rng: random.Random, size: int, max_generators: int = 4) -> Gotas:
    """Random space: up to ``max_generators`` generator subsets, each element
    included with probability 1/2, plus a random partial order."""
    universe = Universe(_labels_for(size))
    count = rng.randint(0, max_generators)
    base = [universe.from_bits(rng.getrandbits(size)) for _ in range(count)]
    return Gotas(universe, generate_topology(universe, base), random_order(rng, universe))


def random_partition(rng: random.Random, universe: Universe) -> tuple[Subset, ...]:
    """Random partition of the universe into nonempty blocks."""
    buckets = rng.randint(1, universe.size)
    masks: dict[int, int] = {}
    for pos in range(universe.size):
        bucket = rng.randrange(buckets)
        masks[bucket] = masks.get(bucket, 0) | (1 << pos)
    return universe.canonical(masks.values())


def partition_space(universe: Universe, blocks: Iterable[Subset]) -> Gotas:
    """Space whose topology is generated by the blocks of a partition, with
    the equality order."""
    blocks = tuple(blocks)
    covered = 0
    for block in blocks:
        if block.is_empty():
            raise ValueError("partition blocks must be nonempty")
        if covered & block.bits:
            raise ValueError("partition blocks must be disjoint")
        covered |= block.bits
    if covered != universe.full_mask:
        raise ValueError("partition blocks must cover the universe")
    return Gotas(universe, generate_topology(universe, blocks), equality_order(universe))
