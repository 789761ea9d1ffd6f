"""Brute-force reference operators and a mechanized law checker.

The oracle recomputes the directed base approximations from their defining
property, independently of the minimal-neighborhood kernel used by the fast
operators. It builds its own open family from a base of the generators,
marks per direction the monotone opens and monotone closeds among the 2ⁿ
powerset lanes, and picks the greatest candidate inside every subset (or
the smallest around it) one point column at a time, by an upward
(downward) closure in the subset lattice, asserting each pick is unique.
The picks form one table of columns per space, ``oracle_table``;
``oracle_diff`` compares it, column by column, with the fast operators run
on the powerset batch. The table and an exhaustive check both scan the 2ⁿ
subsets, so one cap, ``POWERSET_CAP``, bounds both.

The checker runs a catalogue of algebraic laws over all subsets (and all
pairs, for the binary laws) of a space, bit-sliced into batches, and
reports one result per law, with the first counterexample kept as a
witness. A table of rows (``approx.Rows``) holds the families its laws
read, folding each base term of its batch once per direction; each law
then tests packed rows with a few int operations over all lanes at once,
calls no operator, and builds lane masks and a witness only where it
fails. Each binary law is one row that must be monotone (antitone, for a
negative region), checked on comparable pairs X ⊆ Y, each one shift of
the packed row. The accuracy laws count points only in lanes where an
inclusion that bounds the accuracies fails, which the shipped families
never do. A deliberately corrupted gamma-upper operator is provided so the
checker's failure path itself stays under test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import chain
from operator import and_, gt, or_, xor
from typing import Callable

from . import approximations as approx
from .approximations import (
    DIRECTION_ORDER,
    FAMILY_ORDER,
    Direction,
    Gotas,
    OperatorFamily,
    OperatorSuite,
)
from .order import PartialOrder, validate_order
from .topology import Topology, generate_topology, points_meeting, points_within
from .universe import (Batch, Groups, Subset, Universe, _beyond, _counting_columns, _pack,
                       _points, _transpose, from_flags, random_columns, union_over)

# The most points whose 2**n subsets the oracle table or an exhaustive check
# scans: at 16 the slowest measured shape, a failing check, takes about
# 0.14 s and 28 MB, at 17 about 0.30 s (BENCH_38.json).
POWERSET_CAP = 16


class CapExceededError(ValueError):
    """The universe is too large for a powerset scan."""


def _guard_cap(g: Gotas) -> None:
    if g.universe.size > POWERSET_CAP:
        raise CapExceededError(
            f"universe size {g.universe.size} exceeds the powerset cap {POWERSET_CAP}"
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
    for m in set(topology.generators):
        base |= {b & m for b in base}
    family = {0}
    for b in sorted(base, key=int.bit_count):
        if b not in family:
            family |= {o | b for o in family}
    return frozenset(family)


def oracle_table(g: Gotas) -> dict[Direction, tuple[tuple[int, ...], tuple[int, ...]]]:
    """The oracle's r_lower and r_upper of every subset, per direction, as
    two tuples of columns over the 2**n powerset lanes, lane a for the
    subset with bitmask a: bit a of column x is set iff x is in the greatest
    d-monotone open inside a (or the smallest d-monotone closed around a).

    That is iff a lies above a candidate holding x (or below none missing
    x): an upward (downward) closure in the subset lattice. The union of
    the candidates inside a is the greatest one iff it is itself one
    (dually around a). It has a's candidates inside it, so it picks itself,
    as does every candidate: all picks are candidates iff the lanes that
    pick themselves are the candidate lanes. If not, the columns are
    transposed and the first subset whose pick is no candidate is handed
    to the per-subset pick, which raises."""
    _guard_cap(g)
    has = _counting_columns(g.universe.size)  # has[x]: the lanes holding point x
    width = 1 << len(has)
    lanes = (1 << width) - 1
    is_open = bytearray(width)  # one flag per lane
    for o in open_family(g.topology):
        is_open[o] = 1
    opens = from_flags(is_open)
    closeds = from_flags(is_open[::-1])  # lane full ^ a is lane width - 1 - a
    table = {}
    for d in DIRECTION_ORDER:
        broken = 0  # the lanes holding some x but missing a point of reach(x)
        for x, r in enumerate(g.order.succ if d is Direction.INC else g.order.pred):
            for y in _points(r):
                broken |= has[x] & ~has[y]
        inside, around = opens & ~broken, closeds & ~broken
        lo, up = [], []
        for c in has:
            low, high = inside & c, around & ~c
            for k, p in enumerate(has):
                low |= low << (1 << k) & p  # lane a without k reaches a ∪ {k}
                high |= (high & p) >> (1 << k)  # lane a with k reaches a - {k}
            lo.append(low)
            up.append(lanes ^ high)
        table[d] = tuple(lo), tuple(up)
        for cols, candidates, pick in zip(table[d], (inside, around),
                                          (_greatest_inside, _smallest_around)):
            if lanes & ~reduce(or_, map(xor, cols, has)) != candidates:
                allowed = list(_points(candidates))
                rows, known = _transpose(cols, width), set(allowed)
                pick(g.universe, allowed, next(a for a, r in enumerate(rows) if r not in known))
    return table


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
    on the powerset batch, against the oracle table. Returns (comparisons,
    mismatches), the mismatches by subset, then direction, then operator."""
    table = oracle_table(g)
    u = g.universe
    powerset = Batch.powerset(u)
    checks = [
        (f"{name} {d.label}", fast(g, powerset, d), Batch(u, want, powerset.width))
        for d in DIRECTION_ORDER
        for (name, fast), want in zip(
            (("r_lower", approx.r_lower), ("r_upper", approx.r_upper)), table[d]
        )
    ]
    # Columns against columns: packing both sides would cost more than the compare.
    differs = [reduce(or_, map(xor, got.columns, want.columns), 0) for _, got, want in checks]
    mismatches = [
        f"{what} of {u.from_bits(a)}: main {got.lane(a)}, oracle {want.lane(a)}"
        for a in _points(reduce(or_, differs, 0))
        for (what, got, want), mask in zip(checks, differs)
        if mask >> a & 1
    ]
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
    """A failing instance of a law; ``space`` is ``space_label``, else "a space of n points"."""

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


# Each unary law is a generator of its failing claims over the row table of
# a batch of subsets: (fail mask, witness template, operands), in the order a
# check of one instance tests them; a passing law yields nothing. The
# template's %s fields take the operands' values at the failing lane;
# templates are built at import. A table's batch is its ``a``; a value in a
# law is named by its (family, row field). Only duality reads the complement
# of A, and only its R rows, so it builds that table.
#
# Each binary law is one row that must be monotone (antitone, for a negative
# region) in both directions: (family, row field, antitone, witness). It
# holds on every pair A, B iff that row is. ⇐: each clause follows, since
# f(A∩B) lies in f(A) and f(B) and both lie in f(A∪B). ⇒: at a pair A ⊆ B
# that breaks monotonicity, A∩B = A and A∪B = B, so the stated ∩, ∪ or Neg
# clause fails. ``_breaks`` turns the row into claims over comparable pairs.


def _sandwich(rows):
    a = rows.a
    p = a.packed
    for key, template in _SANDWICH:
        lo, up = rows[key].lower, rows[key].upper
        if fail := _beyond(lo.packed, p) | _beyond(p, up.packed):
            yield a.lanes_in(fail), template, (lo, a, up)


def _exact_transfer(fam, label):
    specs = [(d, f"{d.label}: A=%s is R exact but not {label} exact") for d in DIRECTION_ORDER]
    def claims(rows):
        for d, template in specs:
            if fail := rows[_R, d].exact & ~rows[fam, d].exact:
                yield fail, template, (rows.a,)

    return claims


def _inclusions(specs):
    # specs: direction, (family, row field) of x and of y, and the template of "x within y"
    def claims(rows):
        for d, (fam_x, fx), (fam_y, fy), template in specs:
            x, y = getattr(rows[fam_x, d], fx), getattr(rows[fam_y, d], fy)
            if fail := _beyond(x.packed, y.packed):
                yield rows.a.lanes_in(fail), template, (rows.a, x, y)

    return claims


def _inclusion(first, second, text):
    return _inclusions([(d, first, second, f"{d.label}: A=%s: {text}: %s not within %s")
                        for d in DIRECTION_ORDER])


def _inclusion_chain(*steps):
    # steps: (family, row field, name), asserted pairwise along the chain
    return _inclusions([(d, x[:2], y[:2], f"{d.label}: A=%s: {x[2]} %s not within {y[2]} %s")
                        for d in DIRECTION_ORDER for x, y in zip(steps, steps[1:])])


def _accuracy_exceeds(a, x, y):
    """The lanes of nonempty A where row x's accuracy exceeds row y's. Where
    x's lower lies in y's and in x's upper, and y's upper in x's, it cannot:
    if x's upper is empty so is y's, and both are 1; if only y's is, x's is
    at most 1; else |lo_x|·|up_y| ≤ |lo_y|·|up_x|. So points are counted
    only when one of those inclusions fails in a nonempty lane."""
    xl, xu = x.lower.packed, x.upper.packed
    loose = _beyond(xl, y.lower.packed) | _beyond(y.upper.packed, xu) | _beyond(xl, xu)
    nonempty = a.nonempty() if loose else 0
    if not nonempty & a.lanes_in(loose):
        return 0
    return nonempty & from_flags(bytes(map(gt, x.accuracy, y.accuracy)))


def _accuracy_floor(rows):
    a = rows.a
    for d, fam, template in _FLOOR:
        base, got = rows[_R, d], rows[fam, d]
        if fail := _accuracy_exceeds(a, base, got):
            yield fail, template, (a, base.accuracy, got.accuracy)


def _accuracy_chain(rows):
    a = rows.a
    for d, template in _ASCENDING:
        r, g, b = (rows[fam, d] for fam in (_R, _G, _B))
        if fail := _accuracy_exceeds(a, r, g) | _accuracy_exceeds(a, g, b):
            yield fail, template, (a, r.accuracy, g.accuracy, b.accuracy)


def _duality(rows):
    a = rows.a
    comp = approx.Rows(rows.g, a.complement(), rows.suite, (_R,))
    cases = [(rows[_R, d].upper, comp[_R, d.opposite].lower.complement()) for d in DIRECTION_ORDER]
    # A negative region is the complement of the opposite direction's upper.
    cases += [(rows[_R, d].lower, comp[_R, d].negative) for d in DIRECTION_ORDER]
    for template, (left, right) in zip(_DUALITY, cases):
        if fail := left.packed ^ right.packed:
            yield a.lanes_in(fail), template, (a, left, right)


def _breaks(family, field, antitone, witness, table, pairs):
    """The failing claims of a binary law on comparable pairs X ⊆ Y of
    ``table``'s lanes, each (mask, start, shift): X's lane s is table lane
    start + s and Y's is start + shift + s, for the lanes in each field of
    the packed ``mask``. For each pair, then each direction, the lanes where
    the row at X is not within the row at Y (the reverse, if antitone): one
    shift of the packed row, whose lanes moved across fields the mask drops."""
    rows = {d: getattr(table[family, d], field) for d in DIRECTION_ORDER}
    for mask, start, shift in pairs:
        for d in DIRECTION_ORDER:
            row, p = rows[d], rows[d].packed
            q = p >> shift
            if fail := (q ^ (q & p) if antitone else p ^ (p & q)) & mask:
                x, y = _shifted(table.a, start), _shifted(table.a, start + shift)
                # The negative-region witness names the row at Y, Neg(A∪B), too.
                operands = (x, y, _shifted(row, start + shift)) if antitone else (x, y)
                yield table.a.lanes_in(fail) >> start, f"{d.label}: {witness}", operands


@lru_cache(maxsize=POWERSET_CAP + 1)
def _cover_pairs(n: int) -> list[tuple[int | Groups, int, int]]:
    """The cover pairs (A, A ∪ {x}) of the powerset of n points, whose lane
    A ∪ {x} is lane A + 2**x, on the lanes without x."""
    width = 1 << n
    return [(_pack(((1 << width) - 1 ^ c,) * n, width), 0, 1 << x)
            for x, c in enumerate(_counting_columns(n))]


def _shifted(batch: Batch, k: int) -> Batch:
    """Lane s of the result is lane s + k of ``batch``."""
    return Batch(batch.universe, tuple(c >> k for c in batch.columns), batch.width)


_R, _S, _P, _G, _B = FAMILY_ORDER
_NEG_WITNESS = "A=%s, B=%s: Neg(A∪B) %s not within Neg(A)∩Neg(B)"
_SANDWICH = [((family, d), f"{family.label} {d.label}: expected %s within %s within %s")
             for family in FAMILY_ORDER for d in DIRECTION_ORDER]
_FLOOR = [(d, fam, f"{d.label}: A=%s: R accuracy %s > {fam.label} accuracy %s")
          for d in DIRECTION_ORDER for fam in (_G, _B)]
_ASCENDING = [(d, f"{d.label}: A=%s: accuracies R %s, gamma %s, beta %s not ascending")
              for d in DIRECTION_ORDER]
_DUALITY = [f"A=%s: duality {x} {d.label} vs {y} {d.opposite.label}: %s vs %s"
            for x, y in (("upper", "lower"), ("lower", "upper")) for d in DIRECTION_ORDER]

_CATALOGUE: tuple[tuple[str, str, Callable | tuple], ...] = (
    ("sandwich", "unary", _sandwich),
    ("3.2", "binary", (_G, "upper", False, "gamma upper not monotone at A=%s, B=%s")),
    ("3.3", "binary", (_G, "lower", False, "gamma lower not monotone at A=%s, B=%s")),
    ("3.4", "unary", _exact_transfer(_G, "gamma")),
    ("3.5", "unary", _inclusion((_R, "lower"), (_G, "lower"), "R lower within gamma lower")),
    ("3.6", "unary", _inclusion((_G, "upper"), (_R, "upper"), "gamma upper within R upper")),
    ("3.7", "unary", _inclusion((_P, "lower"), (_G, "lower"), "pre lower within gamma lower")),
    ("3.8", "unary", _inclusion((_S, "lower"), (_G, "lower"), "semi lower within gamma lower")),
    ("3.9", "unary", _inclusion((_P, "upper"), (_G, "upper"), "pre upper within gamma upper")),
    ("3.10", "unary", _inclusion((_B, "upper"), (_P, "upper"), "beta upper within pre upper")),
    ("3.12", "binary", (_B, "upper", False, "beta upper not monotone at A=%s, B=%s")),
    ("3.13", "binary", (_B, "lower", False, "beta lower not monotone at A=%s, B=%s")),
    ("3.14", "unary", _exact_transfer(_B, "beta")),
    ("3.15", "unary", _inclusion((_R, "lower"), (_B, "lower"), "R lower within beta lower")),
    ("3.16", "unary", _inclusion((_B, "upper"), (_R, "upper"), "beta upper within R upper")),
    ("3.18", "binary", (_G, "negative", True, _NEG_WITNESS)),
    ("3.19", "binary", (_B, "negative", True, _NEG_WITNESS)),
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
    space_label: str | None = None,
) -> list[PropositionReport]:
    """Run the whole law catalogue over a space.

    Without ``samples`` the run is exhaustive (all subsets, all pairs) and
    the universe must not exceed ``POWERSET_CAP``; with ``samples`` (at
    least 1) that many random subsets/pairs are drawn instead. Every law
    runs on all its instances at once, one batch lane each; its first
    failing lane is the instance a one-at-a-time check would stop at, so
    ``instances`` is that lane's index plus one, and its first failing claim
    gives the witness. A passing law reports all its instances.

    An exhaustive check reads a binary law off the powerset table's cover
    pairs (A, A ∪ {x}), by A and then x; by the catalogue's lemma they
    decide all 4ⁿ pairs, and a failing law's ``instances`` is its witness's
    index a·2ⁿ + b among them, plus one. A sampled check builds one gamma
    and beta table over 4W lanes, A∩B | A | B | A∪B of the W drawn pairs,
    and reads (A∩B, A), (A∩B, B), (A, A∪B) and (B, A∪B) off it, in that
    order; a drawn pair breaks the law's clauses iff one of these breaks the
    row. Its unary laws also run on each distinct kernel class M_d(x), in
    lanes past the W draws, where 3.21 and 3.25 fail if they fail at all
    (``open_upper_failure`` proves it); a law failing only there reports
    that lane's index plus one. The W units are the rows of one
    ``rng.getrandbits(n * W)`` block; the W pairs, drawn next, are those of
    one ``rng.getrandbits(2n * W)`` block, A in the low n bits of each row
    and B in the high n (``random_columns``).
    """
    suite = suite if suite is not None else DEFAULT_SUITE
    u = g.universe
    if samples is None:
        _guard_cap(g)
        unit = Batch.powerset(u)
        table = unary = approx.Rows(g, unit, suite)
        all_units, all_pairs = unit.width, unit.width ** 2
        pairs = _cover_pairs(u.size)
    else:
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = rng if rng is not None else random.Random(0)
        n, w = u.size, samples
        # The W units, then the W pairs A, B as 2n columns, A's first.
        units = random_columns(rng, n, w)
        draws = random_columns(rng, 2 * n, w)
        a, b, lanes = draws[:n], draws[n:], (1 << w) - 1
        # Past the W draws, the unary lanes hold each distinct kernel class, Inc
        # then Dec: where 3.21 or 3.25 fails, it fails at one, which draws can miss.
        classes = list(dict.fromkeys(chain(*(g.kernel_plan[d].masks for d in DIRECTION_ORDER))))
        unit = Batch(u, tuple(x | c << w for x, c in zip(units, _transpose(classes, n))),
                     w + len(classes))
        unary = approx.Rows(g, unit, suite)
        # One table of 4W lanes, A∩B | A | B | A∪B, so that each comparable
        # pair is a forward shift: (A∩B, A), (A∩B, B), (A, A∪B), (B, A∪B).
        segments = Batch(u, tuple(x & y | x << w | y << 2 * w | (x | y) << 3 * w
                                  for x, y in zip(a, b)), 4 * w)
        table = approx.Rows(g, segments, suite, (_G, _B))
        all_units = all_pairs = w
        pairs = [(_pack((lanes << start,) * n, 4 * w), start, shift)
                 for start, shift in ((0, w), (0, 2 * w), (w, 2 * w), (2 * w, w))]

    label = space_label or f"a space of {u.size} points"
    reports = []
    for pid, kind, law in _CATALOGUE:
        binary = kind == "binary"
        claims = list(_breaks(*law, table, pairs) if binary else law(unary))
        if not claims:
            reports.append(PropositionReport(pid, all_pairs if binary else all_units))
            continue
        failed = reduce(or_, (mask for mask, _, _ in claims))
        lane = (failed & -failed).bit_length() - 1
        template, operands = next((t, v) for mask, t, v in claims if mask >> lane & 1)
        values = tuple(v.lane(lane) if isinstance(v, Batch) else v[lane] for v in operands)
        if binary and samples is None:
            lane = lane * unit.width + values[1].bits  # the pair's index a·2ⁿ + b
        reports.append(PropositionReport(pid, lane + 1, [Violation(label, template % values)]))
    return reports


def open_upper_failure(g: Gotas, directions=DIRECTION_ORDER) -> tuple[Direction, int] | None:
    """The first d in ``directions``, then x, whose r_upper(M_d(x)) is not d-monotone
    open (not its own r_lower), or None, in O(n²) mask operations. 3.21 and 3.25
    both hold in d for every A iff there is no such x (a pairwise extremal
    disconnectedness, after Kelly 1963, which Pawlak spaces have); where there is
    one, both fail at A = M_d(x).

    Proof. Write I(A) = r_lower(A, d), the interior of the topology τ_d whose
    minimal opens are the M_d(x), and C(A) = r_upper(A, d), the closure of the
    opposite one. Semi upper is A ∪ ICA, gamma upper A ∪ CIA ∪ ICA, beta upper
    A ∪ ICIA. ⇐: IA is the union of the M_d(x) over x in IA, and C distributes
    over unions, so CIA is a union of C(M_d(x)), each τ_d-open when there is no
    such x; it lies within CA, hence within ICA, and gamma upper lies within
    semi upper. Beta upper lies within gamma upper on every space, as I is
    deflationary. As gamma lower holds semi lower (3.8) and beta lower holds
    gamma lower (3.28b), the boundaries follow the uppers. ⇒: take
    A = M_d(x). It is τ_d-open, so IA = A ⊆ ICA, semi upper is ICA and gamma
    upper is CA; 3.21 gives CA ⊆ ICA, so CA is τ_d-open. At that A, gamma and
    semi lower are A, so 3.25 gives CA − A ⊆ ICA − A, the same inclusion."""
    for d in directions:
        kernel, opposite = g.kernel[d], g.kernel[d.opposite]
        for x, m in enumerate(kernel):
            up = points_meeting(opposite, m)
            if points_within(kernel, up) != up:
                return d, x
    return None


# ---------------------------------------------------------------------------
# Random space generation for sweeps and agreement tests.


def _labels_for(size: int) -> tuple[str, ...]:
    if size <= 26:
        return tuple(string.ascii_lowercase[:size])
    return tuple(f"e{i}" for i in range(size))


def random_order(rng: random.Random, universe: Universe) -> PartialOrder:
    """Random partial order: a DAG over the index order (each forward edge
    with probability 1/2) closed reflexively and transitively; forward-only
    edges keep it antisymmetric by construction. Each point's successors
    come later, so one pass from the last point closes it."""
    n = universe.size
    succ = [1 << i | from_flags(bytes(rng.random() < 0.5 for _ in range(i + 1, n))) << i + 1
            for i in range(n)]
    for i in reversed(range(n)):
        succ[i] = union_over(succ, succ[i])
    return validate_order(universe, ((i, j) for i in range(n) for j in _points(succ[i])))


def random_space(rng: random.Random, size: int, max_generators: int = 4) -> Gotas:
    """Random space: up to ``max_generators`` generator subsets, each element
    included with probability 1/2, plus a random partial order."""
    universe = Universe(_labels_for(size))
    count = rng.randint(0, max_generators)
    base = [universe.from_bits(rng.getrandbits(size)) for _ in range(count)]
    return Gotas(universe, generate_topology(universe, base), random_order(rng, universe))
