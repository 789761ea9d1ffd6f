"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 is expected to fail and is left failing on purpose: the law
catalogue it must run includes the inclusions gamma_upper within semi_upper
and boundary_gamma within boundary_S, which do not hold on arbitrary
spaces (see tests/test_oracle.py::TestCheckPropositions for the minimal
counterexample). The checker honestly reports those violations.
"""

import json
import random
import time
from fractions import Fraction

import gotas.approximations as ap
from gotas import DIRECTION_ORDER, Direction, FAMILY_ORDER, Gotas, equality_order
from gotas.oracle import (
    check_propositions,
    corrupted_suite,
    oracle_diff,
    random_space,
)
from gotas.universe import Universe

from conftest import (EXAMPLE_DOC, acceptance_spaces, invoke, make_example_space, make_probe_space,
                      partition_space, random_partition)

INC, DEC = Direction.INC, Direction.DEC
R, S, P, GAMMA, BETA = FAMILY_ORDER


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_worked_example_golden_values():
    started = time.monotonic()
    g = make_example_space()
    u = g.universe
    a = u.subset(["a", "c"])

    expected = [
        (ap.r_lower(g, a, DEC), u.subset(["a"])),
        (ap.r_upper(g, ap.r_lower(g, a, DEC), DEC), u.subset(["a", "b"])),
        (ap.r_upper(g, a, DEC), u.full()),
        (ap.r_lower(g, ap.r_upper(g, a, DEC), DEC), u.full()),
        (ap.semi_lower(g, a, DEC), u.subset(["a"])),
        (ap.semi_upper(g, a, DEC), u.full()),
        (ap.boundary(g, a, S, DEC), u.subset(["b", "c", "d"])),
        (ap.negative(g, a, S, INC), u.empty()),
        (ap.gamma_lower(g, a, DEC), u.subset(["a", "c"])),
        (ap.gamma_upper(g, a, DEC), u.full()),
        (ap.boundary(g, a, GAMMA, DEC), u.subset(["b", "d"])),
        (ap.negative(g, a, GAMMA, INC), u.empty()),
        (ap.beta_lower(g, a, DEC), u.subset(["a", "c"])),
        (ap.beta_upper(g, a, DEC), u.subset(["a", "b", "c"])),
        (ap.boundary(g, a, BETA, DEC), u.subset(["b"])),
        (ap.negative(g, a, BETA, INC), u.subset(["d"])),
    ]
    mismatches = [f"{got} != {want}" for got, want in expected if got != want]
    elapsed = time.monotonic() - started
    _verdict(
        1,
        not mismatches and elapsed < 1.0,
        f"{len(expected)} values exact, {elapsed:.3f}s",
    )


def test_criterion_2_topology_generation():
    g = make_example_space()
    got = {o.members() for o in g.topology.opens}
    want = {(), ("a",), ("a", "b"), ("c", "d"), ("a", "c", "d"), ("a", "b", "c", "d")}
    _verdict(2, got == want, f"{len(got)} opens, expected the 6 worked-example opens")


def test_criterion_3_proposition_suite_on_random_spaces():
    started = time.monotonic()
    cli_result = invoke(["check", str(EXAMPLE_DOC), "--exhaustive"])
    failures: list[str] = []
    if cli_result.exit_code != 0:
        failures.append(
            "worked-example CLI check did not exit 0 "
            f"(exit {cli_result.exit_code}: {cli_result.stderr.strip()})"
        )

    spaces = acceptance_spaces()
    for label, g in spaces:
        for report in check_propositions(g, space_label=label):
            if not report.passed:
                witness = report.violations[0]
                failures.append(
                    f"{report.proposition} on {witness.space}: {witness.detail}"
                )
    elapsed = time.monotonic() - started
    summary = (
        f"{len(spaces)} spaces exhaustively checked in {elapsed:.1f}s, "
        f"{len(failures)} violations"
    )
    if failures:
        summary += " :: " + " | ".join(failures[:4])
    _verdict(3, not failures and elapsed < 60.0, summary)


def test_criterion_4_oracle_equivalence():
    rng = random.Random(2024)
    spaces = 0
    total_comparisons = 0
    mismatched: list[str] = []
    for i in range(100):
        g = random_space(rng, 1 + i % 4)
        spaces += 1
        comparisons, mismatches = oracle_diff(g)
        total_comparisons += comparisons
        mismatched.extend(mismatches)
    _verdict(
        4,
        spaces >= 100 and not mismatched,
        f"{spaces} spaces, {total_comparisons} comparisons, {len(mismatched)} mismatches",
    )


def _plain_operators(topology):
    interior, closure = topology.interior, topology.closure
    return {
        (R, "lower"): interior,
        (R, "upper"): closure,
        (S, "lower"): lambda a: a & closure(interior(a)),
        (S, "upper"): lambda a: a | interior(closure(a)),
        (P, "lower"): lambda a: a & interior(closure(a)),
        (P, "upper"): lambda a: a | closure(interior(a)),
        (GAMMA, "lower"): lambda a: a & (closure(interior(a)) | interior(closure(a))),
        (GAMMA, "upper"): lambda a: a | (closure(interior(a)) | interior(closure(a))),
        (BETA, "lower"): lambda a: a & closure(interior(closure(a))),
        (BETA, "upper"): lambda a: a | interior(closure(interior(a))),
    }


def test_criterion_5_equality_order_reduces_to_unordered_operators():
    rng = random.Random(99)
    checked = 0
    bad: list[str] = []
    for i in range(20):
        size = 2 + i % 4  # sizes 2..5
        g = random_space(rng, size)
        flat = Gotas(g.universe, g.topology, equality_order(g.universe))
        plain = _plain_operators(g.topology)
        checked += 1
        for a in g.universe.subsets():
            for family in FAMILY_ORDER:
                for d in DIRECTION_ORDER:
                    if ap.lower(flat, a, family, d) != plain[(family, "lower")](a):
                        bad.append(f"space {i}: {family.label} lower {d.label} at {a}")
                    if ap.upper(flat, a, family, d) != plain[(family, "upper")](a):
                        bad.append(f"space {i}: {family.label} upper {d.label} at {a}")
    _verdict(5, checked >= 20 and not bad, f"{checked} spaces, {len(bad)} mismatches")


def test_criterion_6_partition_spaces_reduce_to_pawlak():
    rng = random.Random(123)
    checked = 0
    bad: list[str] = []
    for i in range(20):
        size = 1 + i % 6
        u = Universe([f"x{k}" for k in range(size)])
        blocks = random_partition(rng, u)
        g = partition_space(u, blocks)
        checked += 1
        for a in u.subsets():
            inside = u.empty()
            meeting = u.empty()
            for block in blocks:
                if block.is_subset(a):
                    inside = inside | block
                if not (block & a).is_empty():
                    meeting = meeting | block
            for d in DIRECTION_ORDER:
                if ap.r_lower(g, a, d) != inside:
                    bad.append(f"space {i}: lower {d.label} at {a}")
                if ap.r_upper(g, a, d) != meeting:
                    bad.append(f"space {i}: upper {d.label} at {a}")
    _verdict(6, checked >= 20 and not bad, f"{checked} partitions, {len(bad)} mismatches")


def test_criterion_7_accuracy_chain():
    violations: list[str] = []
    spaces = acceptance_spaces()
    for label, g in spaces:
        for a in g.universe.subsets():
            if a.is_empty():
                continue
            for d in DIRECTION_ORDER:
                acc_r = ap.accuracy(g, a, R, d)
                acc_g = ap.accuracy(g, a, GAMMA, d)
                acc_b = ap.accuracy(g, a, BETA, d)
                assert isinstance(acc_r, Fraction)
                if not acc_r <= acc_g <= acc_b:
                    violations.append(f"{label}: A={a} {d.label}")
    _verdict(
        7,
        not violations,
        f"{len(spaces)} spaces, every nonempty subset, {len(violations)} violations",
    )


def test_criterion_8_mutation_sensitivity(tmp_path, monkeypatch):
    probe = make_probe_space()
    reports = check_propositions(probe, suite=corrupted_suite())
    failed = [r.proposition for r in reports if not r.passed]

    doc = json.dumps({"universe": ["a", "b", "c"], "base": [["a"], ["b"]], "order": []})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probe.json").write_text(doc, encoding="utf-8")
    cli_result = invoke(["check", "probe.json", "--exhaustive", "--corrupt-gamma"])
    _verdict(
        8,
        bool(failed) and cli_result.exit_code == 1,
        f"corrupted gamma upper tripped {failed}, CLI exit {cli_result.exit_code}",
    )
