"""Brute-force reference operators and a mechanized law checker.

The oracle recomputes the directed base approximations from their defining
property, independently of the minimal-neighborhood kernel used by the fast
operators. It builds its own open family from a base of the generators,
marks per direction the monotone opens among the 2ⁿ powerset lanes, and
picks the greatest candidate inside every subset one point column at a
time, by one upward closure in the subset lattice per direction, asserting
each pick is unique. The smallest candidate around A, the upper, is U minus
the opposite pick inside U − A: in the powerset, a reversal of the lanes.
The picks form one table of columns per space, ``oracle_table``;
``oracle_diff`` compares it, column by column, with the fast operators,
each run once on the powerset doubled over the direction sum. The table
and an exhaustive check both scan the 2ⁿ subsets, so one cap,
``POWERSET_CAP``, bounds both.

The checker runs a catalogue of algebraic laws over all subsets (and all
pairs, for the binary laws) of a space, bit-sliced into batches, and
reports one result per law, with the first counterexample kept as a
witness. A table of rows (``approx.Rows``) holds the families its laws
read, each as one row over the direction sum, the space beside its order
dual, that holds the Inc row in its first n points and the Dec row in its
last n; each base term of its batch is folded once for both directions.
Each law then tests these doubled packed rows with a few int operations
over all lanes of both directions at once, calls no operator, and splits
a fail word into its Inc and Dec lanes, and builds a witness, only where
it fails. Each binary law is one row that must be monotone (antitone, for
a negative region), checked on comparable pairs X ⊆ Y, each one shift of
the packed row. The accuracy laws count points only in lanes where an
inclusion that bounds the accuracies fails, which the shipped families
never do. A deliberately corrupted gamma-upper operator is provided so the
checker's failure path itself stays under test.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import gt, or_, xor
from typing import Callable, NamedTuple

from . import approximations as approx
from .approximations import DIRECTION_ORDER, FAMILY_ORDER, Direction, Gotas, OperatorFamily
from .batch import Batch, Groups, _beyond, _counting_columns, _fields
from .order import PartialOrder, validate_order
from .topology import Topology, generate_topology, points_meeting, points_within
from .universe import (Subset, Universe, _points, _reverse, _transpose, from_flags,
                       random_columns, union_over)

# The most points whose 2**n subsets the oracle table or an exhaustive check
# scans: at 16 the slowest measured shape, a check whose accuracy laws fail and
# so build a Fraction per lane, takes 1.3-1.8 s and 44 MB (BENCH_52.json).
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

    Inside a, that is iff a lies above a candidate holding x: one upward
    closure in the subset lattice per direction. The union of the candidates
    inside a is the greatest one iff it is itself one. It has a's candidates
    inside it, so it picks itself, as does every candidate: all picks are
    candidates iff the lanes that pick themselves are the candidate lanes.
    If not, the first subset b whose pick is no candidate goes to the
    per-subset pick, which raises. It is the lowest lane that picks itself
    but is no candidate: each such lane's pick is no candidate, so it lies at
    b or above, and b's pick is such a lane within b, so it is b. Around a, by
    complement: a set is d-monotone iff U minus it is opposite-monotone, so
    the pick is U minus the opposite pick inside U − a, in lane 2**n − 1 − a,
    which has raised if not unique. So each upper column is an opposite lower
    column reversed and complemented, and the decreasing lanes are the
    increasing ones reversed."""
    _guard_cap(g)
    has = _counting_columns(g.universe.size)  # has[x]: the lanes holding point x
    width = 1 << len(has)
    lanes = (1 << width) - 1
    flagged = bytearray(width)  # one flag per lane, set on the open lanes
    for o in open_family(g.topology):
        flagged[o] = 1
    opens = from_flags(flagged)
    rising = 0  # the lanes holding some x but missing a point above x: not increasing
    for x, r in enumerate(g.order.succ):
        for y in _points(r):
            rising |= has[x] & ~has[y]
    broken = {Direction.INC: rising, Direction.DEC: _reverse(rising, width)}
    lower = {}
    for d in DIRECTION_ORDER:
        inside, cols = opens & ~broken[d], []
        for c in has:
            low = inside & c
            for k, p in enumerate(has):
                low |= low << (1 << k) & p  # lane a without k reaches a ∪ {k}
            cols.append(low)
        if wrong := lanes & ~reduce(or_, map(xor, cols, has)) & ~inside:
            _greatest_inside(g.universe, list(_points(inside)), (wrong & -wrong).bit_length() - 1)
        lower[d] = tuple(cols)
    return {d: (lower[d], tuple(lanes ^ _reverse(c, width) for c in lower[d.opposite]))
            for d in DIRECTION_ORDER}


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


def oracle_diff(g: Gotas) -> tuple[int, list[str]]:
    """Compare the fast base operators against the oracle table. Each runs
    once, at Inc, on the powerset doubled over the direction sum, and its Inc
    and Dec columns are its halves. Returns (comparisons, mismatches), the
    mismatches by subset, then direction, then operator."""
    table = oracle_table(g)
    u, s, n = g.universe, g.direction_sum, g.universe.size
    width = 1 << n
    doubled = Batch(s.universe, _counting_columns(n) * 2, width)
    fast = [(name, op(s, doubled, Direction.INC).columns)
            for name, op in (("r_lower", approx.r_lower), ("r_upper", approx.r_upper))]
    checks = [(f"{name} {d.label}", got[k:k + n], want)
              for k, d in zip((0, n), DIRECTION_ORDER) for (name, got), want in zip(fast, table[d])]
    # Columns against columns: packing both sides would cost more than the compare.
    differs = [reduce(or_, map(xor, got, want), 0) for _, got, want in checks]
    mismatches = [
        f"{what} of {u.from_bits(a)}: main {Batch(u, got, width).lane(a)}, "
        f"oracle {Batch(u, want, width).lane(a)}"
        for a in _points(reduce(or_, differs, 0))
        for (what, got, want), mask in zip(checks, differs)
        if mask >> a & 1
    ]
    return len(checks) * width, mismatches


# A dataclass for ``dataclasses.replace``, which builds every variant suite:
# ``corrupted_suite``, perfbench's tracer and the tests call it.
@dataclass(frozen=True)
class OperatorSuite:
    """The base operators and the family tables. The law checker runs
    against a suite, so a corrupted table entry can be swapped in without
    touching the real operators. A family runs once, at Inc, on the
    direction sum (``Gotas.direction_sum``), whose Inc operators are the
    space's Inc and Dec operators side by side: so it must use its direction
    only through the base operators and ``.opposite``. One that branches on
    ``d is Direction.INC`` is evaluated wrongly, as Inc in both halves."""

    # Unread (rows take R from the tables); perfbench/tracing.py passes them to replace().
    r_lower: approx.OpFn
    r_upper: approx.OpFn
    lower: dict[OperatorFamily, approx.OpFn]
    upper: dict[OperatorFamily, approx.OpFn]


# The shipped tables themselves, so an entry patched in ``approx._LOWER`` is seen here.
DEFAULT_SUITE = OperatorSuite(approx.r_lower, approx.r_upper, approx._LOWER, approx._UPPER)


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


class Witness(NamedTuple):
    """A failing law's first failing instance: the direction it fails in,
    the template of its text, and the operand values there (subsets, or
    accuracies as Fractions), in the template's order. ``str()`` gives the
    printed text."""

    direction: Direction
    template: str
    values: tuple

    def __str__(self) -> str:
        return self.template % self.values


class PropositionReport(NamedTuple):
    """One law's verdict on a space. ``instances`` is how many instances
    (subsets for a unary law, pairs for a binary one) a one-at-a-time check
    tests: all of them if the law passes, else those up to and including the
    first failing one. ``witness`` is None iff the law passed; otherwise it
    is the ``Witness`` of that instance. The caller names the space."""

    proposition: str
    instances: int
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.witness is None


# A catalogue entry is (id, law). A unary law is an iterable of its failing claims
# over the row table of a batch of subsets: (fail mask, direction, witness template,
# operands), in the order a check of one instance tests them; a passing law yields
# nothing. The template's %s fields take the operands' values at the failing lane,
# which a ``Witness`` keeps with the direction; templates are built at import, one
# per direction. A table's batch is its ``a``; a value in a law is named by its
# (family, row field). A law tests each of its rows once, over the direction sum,
# where it holds both directions (``approx.Rows``); only a nonzero fail word is
# split into its Inc and Dec lanes, and the operands of a failing claim into
# their halves. Only duality reads the complement of A, and only its R rows, so it
# folds those two itself, outside any table. The accuracy laws are ``_accuracies``
# of specs (families, templates): the families' accuracies do not fall, in that order.
#
# A binary law is the tuple (family, row field, antitone, witness) of one row
# that must be monotone (antitone, for a negative region) in both directions. It
# holds on every pair A, B iff that row is. ⇐: each clause follows, since
# f(A∩B) lies in f(A) and f(B) and both lie in f(A∪B). ⇒: at a pair A ⊆ B
# that breaks monotonicity, A∩B = A and A∪B = B, so the stated ∩, ∪ or Neg
# clause fails. ``_breaks`` turns the row into claims over comparable pairs.
#
# The premises each law group uses, in a direction d, with I(A) = r_lower(A, d) and
# C(A) = r_upper(A, d), and, but for duality, the definitions of the families it reads,
# compositions of I and C (a lower is A ∩ …, an upper A ∪ …):
#   sandwich: I deflationary, C inflationary.
#   3.2, 3.3, 3.12, 3.13 (monotone rows): I and C monotone.
#   3.18, 3.19 (antitone Neg): I and C monotone, Neg(A, d) = U − upper(A, opp).
#   3.4, 3.14 (exactness carries over): I deflationary, C inflationary; IA = CA forces A = IA = CA.
#   3.5, 3.15 (R lower within): I deflationary and monotone, C inflationary.
#   3.6, 3.16 (within R upper): I deflationary, C inflationary and monotone.
#   3.7, 3.8, 3.9 (semi and pre within gamma): the family definitions alone.
#   3.10 (beta upper within pre upper): I deflationary.
#   3.20, 3.28b (semi, gamma, beta lower ascending): I monotone, C inflationary and monotone.
#   3.23, 3.28a (accuracies): the premises of 3.5, 3.6, 3.15, 3.16 and 3.28b, and I deflationary.
#   3.26, 3.27 (boundaries within R's): the premises of 3.5, 3.6, 3.15 and 3.16.
#   duality: C(A, d) = U − I(U − A, opp), and Neg's definition.
#   3.21, 3.25: these premises do not suffice; see the proof in ``open_upper_failure``.


def _claims(rows, word, templates, operands):
    """The claims of a nonzero fail word over the direction sum: for each
    direction whose half of ``word`` has lanes in some field, Inc first,
    those lanes, the direction, its template and the operands' halves."""
    return [(lanes, d, templates[d], tuple(rows.split(v)[i] for v in operands))
            for i, (lanes, d) in enumerate(zip(rows.doubled.halves(word), DIRECTION_ORDER))
            if lanes]


def _direction_major(claims):
    """``claims`` with the Inc ones first, each in its own order."""
    return sorted(claims, key=lambda claim: claim[1] is Direction.DEC)


def _sandwich(rows):
    p = rows.doubled.packed
    for family, templates in _SANDWICH:
        row = rows.sums[family]
        if fail := _beyond(row.lower.packed, p) | _beyond(p, row.upper.packed):
            yield from _claims(rows, fail, templates, (row.lower, rows.a, row.upper))


def _exact_transfer(fam, label):
    templates = [f"{d.label}: A=%s is R exact but not {label} exact" for d in DIRECTION_ORDER]

    def claims(rows):
        for d, template, r, f in zip(DIRECTION_ORDER, templates, rows.sums[_R].rough,
                                     rows.sums[fam].rough):
            if fail := f & ~r:
                yield fail, d, template, (rows.a,)

    return claims


def _inclusions(steps):
    # steps: (family, row field) of x and of y, and the templates of "x within y"
    def claims(rows):
        found = []
        for (fam_x, fx), (fam_y, fy), templates in steps:
            x, y = getattr(rows.sums[fam_x], fx), getattr(rows.sums[fam_y], fy)
            if fail := _beyond(x.packed, y.packed):
                found += _claims(rows, fail, templates, (rows.a, x, y))
        return _direction_major(found)

    return claims


def _accuracies(specs):
    def claims(rows):
        a, found = rows.a, []
        for families, templates in specs:
            sums = [rows.sums[f] for f in families]
            if any(map(_loose, sums, sums[1:])):
                for d in DIRECTION_ORDER:
                    row = [rows[f, d] for f in families]
                    if fail := reduce(or_, map(_accuracy_exceeds, repeat(a), row, row[1:])):
                        found.append((fail, d, templates[d], (a, *(r.accuracy for r in row))))
        return _direction_major(found)

    return claims


def _inclusion(first, second, text):
    return _inclusions([(first, second, {d: f"{d.label}: A=%s: {text}: %s not within %s"
                                         for d in DIRECTION_ORDER})])


def _inclusion_chain(*steps):
    # steps: (family, row field, name), asserted pairwise along the chain
    return _inclusions([(x[:2], y[:2], {d: f"{d.label}: A=%s: {x[2]} %s not within {y[2]} %s"
                                        for d in DIRECTION_ORDER})
                        for x, y in zip(steps, steps[1:])])


def _loose(x, y):
    """The packed word of the lanes where x's lower is not within y's or x's
    upper, or y's upper not within x's."""
    xl, xu = x.lower.packed, x.upper.packed
    return _beyond(xl, y.lower.packed) | _beyond(y.upper.packed, xu) | _beyond(xl, xu)


def _accuracy_exceeds(a, x, y):
    """The lanes of nonempty A where row x's accuracy exceeds row y's. Where
    x's lower lies in y's and in x's upper, and y's upper in x's, it cannot:
    if x's upper is empty so is y's, and both are 1; if only y's is, x's is
    at most 1; else |lo_x|·|up_y| ≤ |lo_y|·|up_x|. So points are counted
    only when one of those inclusions fails in a nonempty lane."""
    loose = _loose(x, y)
    nonempty = a.nonempty() if loose else 0
    if not nonempty & a.lanes_in(loose):
        return 0
    return nonempty & from_flags(bytes(map(gt, x.accuracy, y.accuracy)))


def _duality(rows):
    suite, s, r, a = rows.suite or DEFAULT_SUITE, rows.g.direction_sum, rows.sums[_R], rows.a
    # U − A in both halves, column by column. At Dec on the sum, a row of it holds
    # its Dec row first, then its Inc row; a negative region is the complement of
    # the opposite direction's upper.
    comp = Batch(s.universe, tuple(map(a.lanes.__xor__, a.columns)) * 2, a.width)
    for templates, left, op in zip(_DUALITY, (r.upper, r.lower),
                                   (suite.lower[_R], suite.upper[_R])):
        right = op(s, comp, Direction.DEC).complement()
        if fail := left.packed ^ right.packed:
            yield from _claims(rows, fail, templates, (a, left, right))


def _breaks(family, field, antitone, witness, table, pairs):
    """The failing claims of a binary law on comparable pairs X ⊆ Y of
    ``table``'s lanes, each (mask, start, shift): X's lane s is table lane
    start + s and Y's is start + shift + s, for the lanes in each field of
    the packed ``mask``. For each pair, the lanes where the row at X is not
    within the row at Y (the reverse, if antitone), Inc, then Dec: one shift
    of the packed row over the direction sum, whose lanes moved across
    fields the mask drops (``_broken``)."""
    row = getattr(table.sums[family], field)
    for mask, start, shift in pairs:
        if fail := _broken(row.packed, mask, shift, antitone):
            # The negative-region witness names the row at Y, Neg(A∪B), too.
            operands = (_shifted(table.a, start), *(_shifted(x, start + shift)
                                                    for x in (table.a, row)[:1 + antitone]))
            templates = {d: f"{d.label}: {witness}" for d in DIRECTION_ORDER}
            for lanes, *claim in _claims(table, fail, templates, operands):
                yield lanes >> start, *claim


def _broken(p, mask, shift, antitone):
    """The lanes of ``mask`` where packed row p at lane s is not within p at
    lane s + ``shift`` (the reverse, if antitone); on ``Groups``, a group at a
    time, so that no shifted copy of the whole row is held, with ``mask``
    covering the fields of one group."""
    if isinstance(p, Groups):
        return Groups(map(_broken, p, repeat(mask), repeat(shift), repeat(antitone)))
    q = p >> shift
    return (q ^ (q & p) if antitone else p ^ (p & q)) & mask


@lru_cache(maxsize=POWERSET_CAP + 1)
def _cover_pairs(n: int) -> list[tuple[int, int, int]]:
    """The cover pairs (A, A ∪ {x}) of the powerset of n points, whose lane
    A ∪ {x} is lane A + 2**x, on the lanes without x, in the 2n fields of a
    row over the direction sum, or in one group of them (``_broken``)."""
    width = 1 << n
    return [(_in_fields((1 << width) - 1 ^ c, width, n), 0, 1 << x)
            for x, c in enumerate(_counting_columns(n))]


# Each entry holds four masks, each as wide as one group of a packed row at most.
@lru_cache(maxsize=4)
def _segment_pairs(n: int, w: int) -> list[tuple[int, int, int]]:
    """The comparable pairs (A∩B, A), (A∩B, B), (A, A∪B) and (B, A∪B) of a
    table of 4W lanes A∩B | A | B | A∪B, in the 2n fields of a row over the
    direction sum of n points, or in one group of them (``_broken``)."""
    lanes = (1 << w) - 1
    return [(_in_fields(lanes << start, 4 * w, n), start, shift)
            for start, shift in ((0, w), (0, 2 * w), (w, 2 * w), (2 * w, w))]


def _in_fields(value: int, width: int, n: int) -> int:
    """``value`` in each field of a packed row over the direction sum of n
    points, fields ``width`` bits wide, or of one group of them."""
    return sum(value << k * width for k in range(min(2 * n, _fields(width))))


def _shifted(batch: Batch, k: int) -> Batch:
    """Lane s of the result is lane s + k of ``batch``."""
    return Batch(batch.universe, tuple(c >> k for c in batch.columns), batch.width)


_R, _S, _P, _G, _B = FAMILY_ORDER
_NEG_WITNESS = "A=%s, B=%s: Neg(A∪B) %s not within Neg(A)∩Neg(B)"
_SANDWICH = [(family, {d: f"{family.label} {d.label}: expected %s within %s within %s"
                       for d in DIRECTION_ORDER}) for family in FAMILY_ORDER]
_DUALITY = [{d: f"A=%s: duality {x} {d.label} vs {y} {d.opposite.label}: %s vs %s"
             for d in DIRECTION_ORDER} for x, y in (("upper", "lower"), ("lower", "upper"))]

_CATALOGUE: tuple[tuple[str, Callable | tuple], ...] = (
    ("sandwich", _sandwich),
    ("3.2", (_G, "upper", False, "gamma upper not monotone at A=%s, B=%s")),
    ("3.3", (_G, "lower", False, "gamma lower not monotone at A=%s, B=%s")),
    ("3.4", _exact_transfer(_G, "gamma")),
    ("3.5", _inclusion((_R, "lower"), (_G, "lower"), "R lower within gamma lower")),
    ("3.6", _inclusion((_G, "upper"), (_R, "upper"), "gamma upper within R upper")),
    ("3.7", _inclusion((_P, "lower"), (_G, "lower"), "pre lower within gamma lower")),
    ("3.8", _inclusion((_S, "lower"), (_G, "lower"), "semi lower within gamma lower")),
    ("3.9", _inclusion((_P, "upper"), (_G, "upper"), "pre upper within gamma upper")),
    ("3.10", _inclusion((_B, "upper"), (_P, "upper"), "beta upper within pre upper")),
    ("3.12", (_B, "upper", False, "beta upper not monotone at A=%s, B=%s")),
    ("3.13", (_B, "lower", False, "beta lower not monotone at A=%s, B=%s")),
    ("3.14", _exact_transfer(_B, "beta")),
    ("3.15", _inclusion((_R, "lower"), (_B, "lower"), "R lower within beta lower")),
    ("3.16", _inclusion((_B, "upper"), (_R, "upper"), "beta upper within R upper")),
    ("3.18", (_G, "negative", True, _NEG_WITNESS)),
    ("3.19", (_B, "negative", True, _NEG_WITNESS)),
    ("3.20", _inclusion_chain(
        (_S, "lower", "semi lower"), (_G, "lower", "gamma lower"), (_B, "lower", "beta lower"))),
    ("3.21", _inclusion_chain(
        (_B, "upper", "beta upper"), (_G, "upper", "gamma upper"), (_S, "upper", "semi upper"))),
    ("3.23", _accuracies([((_R, fam), {d: f"{d.label}: A=%s: R accuracy %s > {fam.label} "
                                       "accuracy %s" for d in DIRECTION_ORDER})
                          for fam in (_G, _B)])),
    ("3.25", _inclusion_chain(
        (_B, "boundary", "boundary beta"), (_G, "boundary", "boundary gamma"),
        (_S, "boundary", "boundary S"))),
    ("3.26", _inclusion_chain(
        (_G, "boundary", "boundary gamma"), (_R, "boundary", "boundary R"))),
    ("3.27", _inclusion_chain(
        (_B, "boundary", "boundary beta"), (_R, "boundary", "boundary R"))),
    ("3.28a", _accuracies([((_R, _G, _B), {d: f"{d.label}: A=%s: accuracies R %s, gamma %s, "
                                           "beta %s not ascending" for d in DIRECTION_ORDER})])),
    ("3.28b", _inclusion((_G, "lower"), (_B, "lower"), "gamma lower within beta lower")),
    ("duality", _duality),
)

PROPOSITION_IDS = tuple(pid for pid, _ in _CATALOGUE)


def check_propositions(
    g: Gotas,
    *,
    suite: OperatorSuite | None = None,
    samples: int | None = None,
    seed: int = 0,
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
    that lane's index plus one. With ``rng = random.Random(seed)``, the W
    units are the rows of one ``rng.getrandbits(n * W)`` block; the W pairs,
    drawn next, are those of one ``rng.getrandbits(2n * W)`` block, A in the
    low n bits of each row and B in the high n (``random_columns``). An
    exhaustive check draws nothing and ignores ``seed``.
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
        rng = random.Random(seed)
        n, w = u.size, samples
        # The W units, then the W pairs A, B as 2n columns, A's first.
        units = random_columns(rng, n, w)
        draws = random_columns(rng, 2 * n, w)
        a, b = draws[:n], draws[n:]
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
        pairs = _segment_pairs(n, w)

    reports = []
    for pid, law in _CATALOGUE:
        binary = isinstance(law, tuple)
        claims = list(_breaks(*law, table, pairs) if binary else law(unary))
        if not claims:
            reports.append(PropositionReport(pid, all_pairs if binary else all_units))
            continue
        failed = reduce(or_, (mask for mask, *_ in claims))
        lane = (failed & -failed).bit_length() - 1
        d, template, operands = next(c[1:] for c in claims if c[0] >> lane & 1)
        values = tuple(v.lane(lane) if isinstance(v, Batch) else v[lane] for v in operands)
        if binary and samples is None:
            lane = lane * unit.width + values[1].bits  # the pair's index a·2ⁿ + b
        reports.append(PropositionReport(pid, lane + 1, Witness(d, template, values)))
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
