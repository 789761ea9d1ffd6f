import ast
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

import gotas.approximations as ap
from gotas import cli
from gotas.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    InputError,
    load_space,
    main,
    parse_document,
)
from gotas.oracle import POWERSET_CAP

from cli_invoke import invoke
from conftest import EXAMPLE_DOC, REPO_ROOT, make_example_space
from test_cli_digests import COMMANDS, DOC, NEEDLE, corpus
from test_oracle import FLIPPED_R_LOWER_LINES

TOPOLOGY_GOLDEN = """\
{}
{a}
{a, b}
{c, d}
{a, c, d}
{a, b, c, d}
count: 6
"""

PROBE_DOC = {
    "universe": ["a", "b", "c"],
    "base": [["a"], ["b"]],
    "order": [],
}


def write_doc(tmp_path, payload, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTopologyCommand:
    def test_worked_example_golden_output(self, example_doc):
        result = invoke(["topology", str(example_doc)])
        assert result.exit_code == 0
        assert result.output == TOPOLOGY_GOLDEN

    def test_empty_base_gives_two_opens(self, tmp_path):
        doc = write_doc(tmp_path, {"universe": ["a", "b"], "base": [], "order": []})
        result = invoke(["topology", doc])
        assert result.exit_code == 0
        assert result.output == "{}\n{a, b}\ncount: 2\n"

    def test_relation_mode(self, tmp_path):
        doc = write_doc(
            tmp_path,
            {
                "universe": ["a", "b"],
                "relation": [["a", "a"], ["b", "a"], ["b", "b"]],
                "order": [],
            },
        )
        result = invoke(["topology", doc])
        assert result.exit_code == 0
        assert result.output == "{}\n{a}\n{a, b}\ncount: 3\n"

    def test_invalid_order_is_an_input_error(self, tmp_path):
        doc = write_doc(
            tmp_path,
            {"universe": ["a", "b"], "base": [], "order": [["a", "b"], ["b", "a"]]},
        )
        result = invoke(["topology", doc])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "antisymmetry" in result.stderr


    def test_identity_relation_on_twelve_points(self, tmp_path):
        labels = [f"e{i}" for i in range(12)]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        result = invoke(["topology", doc])
        assert result.exit_code == 0
        assert result.output.endswith("\ncount: 4096\n")

    def test_relation_listing_matches_its_definition(self, tmp_path):
        # A 12-point relation; the expected listing is built from the
        # definition: a set is open iff it holds, with each of its points,
        # the intersection of the right neighborhoods holding that point.
        rng = random.Random(12)
        labels = [*"abcdefghij", "e10", "e11"]
        n = len(labels)
        pairs = [(x, y) for x in range(n) for y in range(n) if x == y or rng.random() < 0.12]
        doc = write_doc(tmp_path, {
            "universe": labels,
            "relation": [[labels[x], labels[y]] for x, y in pairs],
            "order": [],
        })
        right = [{y for x2, y in pairs if x2 == x} for x in range(n)]
        smallest = [set.intersection(set(range(n)), *(r for r in right if x in r))
                    for x in range(n)]
        opens = []
        for bits in range(1 << n):
            points = [x for x in range(n) if bits >> x & 1]
            if all(smallest[x] <= set(points) for x in points):
                opens.append(points)
        opens.sort(key=lambda points: (len(points), points))
        want = [("{" + ", ".join(labels[x] for x in o) + "}") for o in opens]
        result = invoke(["topology", doc])
        assert result.exit_code == 0
        assert result.output == "\n".join([*want, f"count: {len(opens)}"]) + "\n"
        assert 100 < len(opens) < 1 << n

    def test_identity_relation_on_sixteen_points_lists_the_cap(self, tmp_path):
        labels = [f"e{i}" for i in range(16)]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        result = invoke(["topology", doc])
        assert result.exit_code == 0
        assert result.output.endswith("\ncount: 65536\n")
        assert cli.MAX_OPENS == 65536

    def test_dense_two_layers_exit_before_listing(self, tmp_path):
        # 60 points: each of 30 upper points sits above a random half of the
        # 30 lower ones, so the topology has more than 2**30 opens.
        rng = random.Random(60)
        lower = [f"l{i}" for i in range(30)]
        upper = [f"u{i}" for i in range(30)]
        relation = [[x, x] for x in lower + upper]
        relation += [[u, l] for u in upper for l in rng.sample(lower, 15)]
        doc = write_doc(tmp_path, {"universe": lower + upper, "relation": relation, "order": []})
        start = time.perf_counter()
        result = invoke(["topology", doc])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == EXIT_INPUT_ERROR
        assert result.stdout == ""
        assert f"more than {cli.MAX_OPENS} opens" in result.stderr


class TestAnalyzeCommand:
    def test_beta_dec_row(self, example_doc):
        result = invoke(["analyze", str(example_doc), "--set", "a,c",
                         "--family", "beta", "--direction", "dec"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "A = {a, c}"
        assert len(lines) == 3  # header plus the single filtered row
        row = lines[2]
        for cell in ("beta", "Dec", "{a, c}", "{a, b, c}", "{b}", "2/3", "rough"):
            assert cell in row

    def test_full_table_has_ten_rows(self, example_doc):
        result = invoke(["analyze", str(example_doc), "--set", "a,c"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 12  # title, header, ten rows
        families = [line.split()[0] for line in lines[2:]]
        assert families == ["R", "R", "S", "S", "P", "P",
                            "gamma", "gamma", "beta", "beta"]
        directions = [line.split()[1] for line in lines[2:]]
        assert directions == ["Inc", "Dec"] * 5

    def test_empty_set_is_exact_everywhere(self, example_doc):
        result = invoke(["analyze", str(example_doc), "--set", ""])
        assert result.exit_code == 0
        for line in result.output.splitlines()[2:]:
            assert line.endswith("exact")
            assert line.split()[-2] == "1"  # accuracy column

    def test_gamma_inc_row(self, example_doc):
        result = invoke(["analyze", str(example_doc), "--set", "a,c",
                         "--family", "gamma", "--direction", "inc"])
        assert result.exit_code == 0
        row = result.output.splitlines()[2]
        assert "{a, c}" in row and "{a, b, c, d}" in row

    def test_json_round_trip_matches_table(self, example_doc):
        table = invoke(["analyze", str(example_doc), "--set", "a,c"])
        as_json = invoke(["analyze", str(example_doc), "--set", "a,c", "--format", "json"])
        assert as_json.exit_code == 0
        payload = json.loads(as_json.output)
        assert payload["set"] == ["a", "c"]
        assert len(payload["rows"]) == 10
        table_rows = table.output.splitlines()[2:]
        for row, line in zip(payload["rows"], table_rows):
            for key in ("lower", "upper", "boundary", "positive", "negative"):
                rendered = "{" + ", ".join(row[key]) + "}"
                assert rendered in line
            assert row["accuracy"] in line
            assert ("exact" if row["exact"] else "rough") in line

    def test_unknown_label_is_an_input_error(self, example_doc):
        result = invoke(["analyze", str(example_doc), "--set", "a,z"])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "unknown label" in result.stderr


    def test_discrete_forty_points_lists_no_opens(self, tmp_path):
        # The identity relation on 40 points gives the discrete topology,
        # with 2**40 opens: only a run that never lists them can finish.
        labels = ["a", "b", *(f"e{i}" for i in range(38))]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        result = invoke(["analyze", doc, "--set", "a,b", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        r_rows = [row for row in rows if row["family"] == "R"]
        assert len(r_rows) == 2
        for row in r_rows:
            assert row["lower"] == ["a", "b"]
            assert row["upper"] == ["a", "b"]


class TestCheckCommand:
    def test_worked_example_exhaustive_all_pass(self, example_doc):
        result = invoke(["check", str(example_doc), "--exhaustive"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[-1] == "result: all laws hold"
        assert all("PASS" in line for line in lines[:-1])
        assert not any("FAIL" in line for line in lines)

    def test_json_format(self, example_doc):
        result = invoke(["check", str(example_doc), "--exhaustive", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["all_pass"] is True
        assert payload["mode"] == "exhaustive"
        assert {p["id"] for p in payload["propositions"]} >= {"sandwich", "3.2", "duality"}
        assert all(p["pass"] for p in payload["propositions"])

    def test_exhaustive_over_cap_is_an_input_error(self, tmp_path):
        cap = POWERSET_CAP
        doc = write_doc(
            tmp_path,
            {"universe": [f"e{i}" for i in range(cap + 1)], "base": [], "order": []},
        )
        result = invoke(["check", doc, "--exhaustive"])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert result.stderr == f"error: universe size {cap + 1} exceeds the powerset cap {cap}\n"

    def test_sampled_mode_on_larger_space(self, tmp_path):
        doc = write_doc(
            tmp_path,
            {
                "universe": list("abcdef"),
                "base": [["a"], ["a", "b"], ["c", "d"], ["e", "f"]],
                "order": [],
            },
        )
        result = invoke(["check", doc, "--samples", "40", "--seed", "7"])
        assert result.exit_code == 0

    def test_identity_twenty_points_lists_no_opens(self, tmp_path, no_open_listing):
        # The discrete topology on 20 points has 2**20 opens; a check in
        # which every law holds must not list them to label its witnesses.
        labels = [f"e{i}" for i in range(20)]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        result = invoke(["check", doc, "--samples", "4"])
        assert result.exit_code == 0
        assert result.output.endswith("result: all laws hold\n")

    def test_dense_kernel_folds_in_one_step_per_direction(self, tmp_path, monkeypatch):
        # With no generators and no order pairs every M_d(x) is the whole
        # universe: one class, folded once per batch, not once per point.
        labels = [f"e{i}" for i in range(300)]
        doc = write_doc(tmp_path, {"universe": labels, "base": [], "order": []})
        spaces = []
        load = cli.load_space
        monkeypatch.setattr(cli, "load_space", lambda path: spaces.append(load(path)) or spaces[0])
        result = invoke(["check", doc, "--samples", "1"])
        assert result.exit_code == 0
        for plan in spaces[0].kernel_plan.values():
            assert plan.masks == (spaces[0].universe.full_mask,)
            assert plan.steps == ((tuple(range(300)), ()),)
            assert plan.classes == (0,) * 300

    def _failing_check(self, tmp_path, doc):
        path = write_doc(tmp_path, doc)
        started = time.monotonic()
        result = invoke(["check", path, "--samples", "16", "--format", "json"])
        elapsed = time.monotonic() - started
        assert result.exit_code == EXIT_CHECK_FAILED
        labels = {
            v["space"] for p in json.loads(result.output)["propositions"] for v in p["violations"]
        }
        return path, labels, elapsed

    def test_sparse_thirty_point_relation_is_named_by_its_file(
        self, tmp_path, no_open_listing
    ):
        # Loops plus each pair with probability 2/30: law 3.21 fails on a
        # space of ~2**29 opens, which are never listed.
        rng = random.Random(0)
        labels = [f"e{i}" for i in range(30)]
        relation = [[x, y] for x in labels for y in labels if x == y or rng.random() < 2 / 30]
        doc = {"universe": labels, "relation": relation, "order": []}
        path, seen, elapsed = self._failing_check(tmp_path, doc)
        assert seen == {path}
        assert elapsed < 2.0

    def test_a_sixty_point_relation_is_named_by_its_file(self, tmp_path, no_open_listing):
        rng = random.Random(0)
        labels = [f"e{i}" for i in range(60)]
        relation = [[x, x] for x in labels]
        relation += [[labels[x], labels[y]] for x in range(30) for y in range(30, 60)
                     if rng.random() < 0.5]
        doc = {"universe": labels, "relation": relation, "order": []}
        path, seen, _ = self._failing_check(tmp_path, doc)
        assert seen == {path}

    def test_a_file_name_that_json_escapes_reads_back_as_typed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        write_doc(tmp_path / "dir", PROBE_DOC, name='q"\\é.json')
        typed = './dir/q"\\é.json'
        result = invoke(["check", typed, "--exhaustive", "--format", "json"])
        assert result.exit_code == EXIT_CHECK_FAILED
        payload = json.loads(result.stdout)
        assert {v["space"] for p in payload["propositions"] for v in p["violations"]} == {typed}
        assert result.stdout == json.dumps(payload, indent=2) + "\n"

    def test_exclusive_flags(self, example_doc):
        result = invoke(["check", str(example_doc), "--exhaustive", "--samples", "5"])
        assert result.exit_code == EXIT_INPUT_ERROR

    def test_samples_above_the_cap_exit_before_any_draw(self, example_doc, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            cli.oracle, "check_propositions", lambda g, **kw: drawn.append(kw["samples"]) or []
        )
        result = invoke(["check", str(example_doc), "--samples", "65536"])
        assert result.exit_code == 0
        for samples in ("65537", str(10**12)):
            result = invoke(["check", str(example_doc), "--samples", samples])
            assert result.exit_code == EXIT_INPUT_ERROR
            assert result.stderr == "error: --samples must be at most 65536\n"
        assert drawn == [65536]

    def test_zero_samples_is_an_input_error(self, example_doc):
        result = invoke(["check", str(example_doc), "--samples", "0"])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert result.stderr == "error: --samples must be positive\n"

    def test_over_the_exhaustive_cap_without_flags_samples_256(self, tmp_path):
        labels = [f"e{i}" for i in range(POWERSET_CAP + 1)]
        doc = write_doc(tmp_path, {"universe": labels, "base": [["e0"]], "order": []})
        result = invoke(["check", doc, "--format", "json"])
        payload = json.loads(result.output)
        assert payload["mode"] == "sampled:256"
        assert {p["instances"] for p in payload["propositions"] if p["pass"]} == {256}

    def test_up_to_the_exhaustive_cap_without_flags_runs_exhaustively(self, tmp_path):
        cap = POWERSET_CAP
        labels = [f"e{i}" for i in range(cap)]
        doc = write_doc(tmp_path, {"universe": labels, "base": [["e0"]], "order": []})
        result = invoke(["check", doc, "--format", "json"])
        payload = json.loads(result.output)
        assert payload["mode"] == "exhaustive"
        assert {p["instances"] for p in payload["propositions"] if p["pass"]} == {2**cap, 4**cap}

    @pytest.mark.parametrize("flags", [[], ["--samples", "1"]], ids=["default", "one-sample"])
    def test_needle_failures_are_found_at_the_kernel_classes(self, tmp_path, flags):
        # 3.21 and 3.25 fail only at {a} and {b1, ..., b20}, 2 of the 2**22
        # subsets, both kernel classes: the check finds them past the draws.
        doc = write_doc(tmp_path, NEEDLE)
        result = invoke(["check", doc, "--format", "json", *flags])
        assert result.exit_code == EXIT_CHECK_FAILED
        payload = json.loads(result.output)
        failed = {p["id"]: p for p in payload["propositions"] if not p["pass"]}
        assert sorted(failed) == ["3.21", "3.25"]
        samples = int(flags[1]) if flags else 256
        assert all(p["instances"] > samples for p in failed.values())
        assert {p["instances"] for p in payload["propositions"] if p["pass"]} == {samples}

    def test_corrupted_fixture_mode_fails(self, tmp_path):
        doc = write_doc(tmp_path, PROBE_DOC)
        result = invoke(["check", doc, "--exhaustive", "--corrupt-gamma"])
        assert result.exit_code == EXIT_CHECK_FAILED
        assert "FAIL" in result.output
        assert "result: violations found" in result.output


# The exact output of `check`, instance counts and witness texts included.
# The JSON outputs are written compactly here and compared after
# re-indenting.
PROBE_CHECK = """\
sandwich       8 instances  PASS
3.2           64 instances  PASS
3.3           64 instances  PASS
3.4            8 instances  PASS
3.5            8 instances  PASS
3.6            8 instances  PASS
3.7            8 instances  PASS
3.8            8 instances  PASS
3.9            8 instances  PASS
3.10           8 instances  PASS
3.12          64 instances  PASS
3.13          64 instances  PASS
3.14           8 instances  PASS
3.15           8 instances  PASS
3.16           8 instances  PASS
3.18          64 instances  PASS
3.19          64 instances  PASS
3.20           8 instances  PASS
3.21           2 instances  FAIL
          witness: Inc: A={a}: gamma upper {a, c} not within semi upper {a}
3.23           8 instances  PASS
3.25           2 instances  FAIL
          witness: Inc: A={a}: boundary gamma {c} not within boundary S {}
3.26           8 instances  PASS
3.27           8 instances  PASS
3.28a          8 instances  PASS
3.28b          8 instances  PASS
duality        8 instances  PASS
result: violations found
"""

PROBE_CHECK_CORRUPT = """\
sandwich       8 instances  PASS
3.2           64 instances  PASS
3.3           64 instances  PASS
3.4            8 instances  PASS
3.5            8 instances  PASS
3.6            8 instances  PASS
3.7            8 instances  PASS
3.8            8 instances  PASS
3.9            2 instances  FAIL
          witness: Inc: A={a}: pre upper within gamma upper: {a, c} not within {a}
3.10           8 instances  PASS
3.12          64 instances  PASS
3.13          64 instances  PASS
3.14           8 instances  PASS
3.15           8 instances  PASS
3.16           8 instances  PASS
3.18          64 instances  PASS
3.19          64 instances  PASS
3.20           8 instances  PASS
3.21           8 instances  PASS
3.23           8 instances  PASS
3.25           8 instances  PASS
3.26           8 instances  PASS
3.27           8 instances  PASS
3.28a          8 instances  PASS
3.28b          8 instances  PASS
duality        8 instances  PASS
result: violations found
"""

PROBE_CHECK_JSON = """\
{"mode": "exhaustive", "seed": 0, "all_pass": false, "propositions": [
  {"id": "sandwich", "instances": 8, "pass": true, "violations": []},
  {"id": "3.2", "instances": 64, "pass": true, "violations": []},
  {"id": "3.3", "instances": 64, "pass": true, "violations": []},
  {"id": "3.4", "instances": 8, "pass": true, "violations": []},
  {"id": "3.5", "instances": 8, "pass": true, "violations": []},
  {"id": "3.6", "instances": 8, "pass": true, "violations": []},
  {"id": "3.7", "instances": 8, "pass": true, "violations": []},
  {"id": "3.8", "instances": 8, "pass": true, "violations": []},
  {"id": "3.9", "instances": 8, "pass": true, "violations": []},
  {"id": "3.10", "instances": 8, "pass": true, "violations": []},
  {"id": "3.12", "instances": 64, "pass": true, "violations": []},
  {"id": "3.13", "instances": 64, "pass": true, "violations": []},
  {"id": "3.14", "instances": 8, "pass": true, "violations": []},
  {"id": "3.15", "instances": 8, "pass": true, "violations": []},
  {"id": "3.16", "instances": 8, "pass": true, "violations": []},
  {"id": "3.18", "instances": 64, "pass": true, "violations": []},
  {"id": "3.19", "instances": 64, "pass": true, "violations": []},
  {"id": "3.20", "instances": 8, "pass": true, "violations": []},
  {"id": "3.21", "instances": 2, "pass": false, "violations": [{"space": "space.json", "detail": "Inc: A={a}: gamma upper {a, c} not within semi upper {a}"}]},
  {"id": "3.23", "instances": 8, "pass": true, "violations": []},
  {"id": "3.25", "instances": 2, "pass": false, "violations": [{"space": "space.json", "detail": "Inc: A={a}: boundary gamma {c} not within boundary S {}"}]},
  {"id": "3.26", "instances": 8, "pass": true, "violations": []},
  {"id": "3.27", "instances": 8, "pass": true, "violations": []},
  {"id": "3.28a", "instances": 8, "pass": true, "violations": []},
  {"id": "3.28b", "instances": 8, "pass": true, "violations": []},
  {"id": "duality", "instances": 8, "pass": true, "violations": []}
]}
"""

PROBE_CHECK_CORRUPT_JSON = """\
{"mode": "exhaustive", "seed": 0, "all_pass": false, "propositions": [
  {"id": "sandwich", "instances": 8, "pass": true, "violations": []},
  {"id": "3.2", "instances": 64, "pass": true, "violations": []},
  {"id": "3.3", "instances": 64, "pass": true, "violations": []},
  {"id": "3.4", "instances": 8, "pass": true, "violations": []},
  {"id": "3.5", "instances": 8, "pass": true, "violations": []},
  {"id": "3.6", "instances": 8, "pass": true, "violations": []},
  {"id": "3.7", "instances": 8, "pass": true, "violations": []},
  {"id": "3.8", "instances": 8, "pass": true, "violations": []},
  {"id": "3.9", "instances": 2, "pass": false, "violations": [{"space": "space.json", "detail": "Inc: A={a}: pre upper within gamma upper: {a, c} not within {a}"}]},
  {"id": "3.10", "instances": 8, "pass": true, "violations": []},
  {"id": "3.12", "instances": 64, "pass": true, "violations": []},
  {"id": "3.13", "instances": 64, "pass": true, "violations": []},
  {"id": "3.14", "instances": 8, "pass": true, "violations": []},
  {"id": "3.15", "instances": 8, "pass": true, "violations": []},
  {"id": "3.16", "instances": 8, "pass": true, "violations": []},
  {"id": "3.18", "instances": 64, "pass": true, "violations": []},
  {"id": "3.19", "instances": 64, "pass": true, "violations": []},
  {"id": "3.20", "instances": 8, "pass": true, "violations": []},
  {"id": "3.21", "instances": 8, "pass": true, "violations": []},
  {"id": "3.23", "instances": 8, "pass": true, "violations": []},
  {"id": "3.25", "instances": 8, "pass": true, "violations": []},
  {"id": "3.26", "instances": 8, "pass": true, "violations": []},
  {"id": "3.27", "instances": 8, "pass": true, "violations": []},
  {"id": "3.28a", "instances": 8, "pass": true, "violations": []},
  {"id": "3.28b", "instances": 8, "pass": true, "violations": []},
  {"id": "duality", "instances": 8, "pass": true, "violations": []}
]}
"""

EIGHT_DOC = {
    "universe": list("abcdefgh"),
    "base": [[x] for x in "abdefgh"],
    "order": [["a", "d"], ["e", "f"]],
}

EIGHT_SAMPLED_JSON = """\
{"mode": "sampled:64", "seed": 3, "all_pass": false, "propositions": [
  {"id": "sandwich", "instances": 64, "pass": true, "violations": []},
  {"id": "3.2", "instances": 64, "pass": true, "violations": []},
  {"id": "3.3", "instances": 64, "pass": true, "violations": []},
  {"id": "3.4", "instances": 64, "pass": true, "violations": []},
  {"id": "3.5", "instances": 64, "pass": true, "violations": []},
  {"id": "3.6", "instances": 64, "pass": true, "violations": []},
  {"id": "3.7", "instances": 64, "pass": true, "violations": []},
  {"id": "3.8", "instances": 64, "pass": true, "violations": []},
  {"id": "3.9", "instances": 64, "pass": true, "violations": []},
  {"id": "3.10", "instances": 64, "pass": true, "violations": []},
  {"id": "3.12", "instances": 64, "pass": true, "violations": []},
  {"id": "3.13", "instances": 64, "pass": true, "violations": []},
  {"id": "3.14", "instances": 64, "pass": true, "violations": []},
  {"id": "3.15", "instances": 64, "pass": true, "violations": []},
  {"id": "3.16", "instances": 64, "pass": true, "violations": []},
  {"id": "3.18", "instances": 64, "pass": true, "violations": []},
  {"id": "3.19", "instances": 64, "pass": true, "violations": []},
  {"id": "3.20", "instances": 64, "pass": true, "violations": []},
  {"id": "3.21", "instances": 3, "pass": false, "violations": [{"space": "space.json", "detail": "Inc: A={a, b, d, f, g, h}: gamma upper {a, b, c, d, f, g, h} not within semi upper {a, b, d, f, g, h}"}]},
  {"id": "3.23", "instances": 64, "pass": true, "violations": []},
  {"id": "3.25", "instances": 3, "pass": false, "violations": [{"space": "space.json", "detail": "Inc: A={a, b, d, f, g, h}: boundary gamma {c} not within boundary S {}"}]},
  {"id": "3.26", "instances": 64, "pass": true, "violations": []},
  {"id": "3.27", "instances": 64, "pass": true, "violations": []},
  {"id": "3.28a", "instances": 64, "pass": true, "violations": []},
  {"id": "3.28b", "instances": 64, "pass": true, "violations": []},
  {"id": "duality", "instances": 64, "pass": true, "violations": []}
]}
"""


def _indented(compact_json):
    return json.dumps(json.loads(compact_json), indent=2) + "\n"


@pytest.mark.parametrize("doc, args, expected", [
    (PROBE_DOC, ["--exhaustive"], PROBE_CHECK),
    (PROBE_DOC, ["--exhaustive", "--corrupt-gamma"], PROBE_CHECK_CORRUPT),
    (PROBE_DOC, ["--exhaustive", "--format", "json"], _indented(PROBE_CHECK_JSON)),
    (PROBE_DOC, ["--exhaustive", "--corrupt-gamma", "--format", "json"],
     _indented(PROBE_CHECK_CORRUPT_JSON)),
    (EIGHT_DOC, ["--samples", "64", "--seed", "3", "--format", "json"],
     _indented(EIGHT_SAMPLED_JSON)),
], ids=["probe", "probe-corrupt", "probe-json", "probe-corrupt-json", "eight-sampled-json"])
def test_check_output_bytes(tmp_path, monkeypatch, doc, args, expected):
    # Run from tmp_path so that "space" names the file as the goldens do.
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path, doc)
    result = invoke(["check", "space.json", *args])
    assert result.exit_code == EXIT_CHECK_FAILED
    assert result.stderr == ""
    assert result.stdout == expected


class TestOracleDiffCommand:
    def test_worked_example(self, example_doc):
        result = invoke(["oracle-diff", str(example_doc)])
        assert result.exit_code == 0
        assert result.output == "0 mismatches / 64 comparisons\n"

    def test_singleton_universe(self, tmp_path):
        doc = write_doc(tmp_path, {"universe": ["x"], "base": [], "order": []})
        result = invoke(["oracle-diff", doc])
        assert result.exit_code == 0
        assert result.output == "0 mismatches / 8 comparisons\n"

    def test_cap_admits_its_own_size(self, tmp_path):
        labels = [f"e{i}" for i in range(POWERSET_CAP)]
        doc = write_doc(tmp_path, {
            "universe": labels,
            "base": [labels[:4], labels[2:7], labels[6:]],
            "order": [[labels[i], labels[i + 1]] for i in range(0, len(labels) - 1, 2)],
        })
        result = invoke(["oracle-diff", doc])
        assert result.exit_code == 0
        assert result.output == f"0 mismatches / {4 << POWERSET_CAP} comparisons\n"

    def test_discrete_space_at_the_cap_has_no_mismatch(self, tmp_path):
        labels = [f"e{i}" for i in range(POWERSET_CAP)]
        doc = write_doc(tmp_path, {
            "universe": labels, "base": [[x] for x in labels], "order": [],
        })
        result = invoke(["oracle-diff", doc])
        assert result.exit_code == 0
        assert result.output == f"0 mismatches / {4 << POWERSET_CAP} comparisons\n"

    def test_direction_flipped_r_lower_fails(self, example_doc, monkeypatch):
        r_lower = ap.r_lower
        monkeypatch.setattr(ap, "r_lower", lambda g, a, d: r_lower(g, a, d.opposite))
        result = invoke(["oracle-diff", str(example_doc)])
        _, lines = FLIPPED_R_LOWER_LINES["worked example"]
        assert result.exit_code == EXIT_CHECK_FAILED
        assert result.stdout.splitlines() == [*lines, "18 mismatches / 64 comparisons"]
        assert result.stderr == ""

    def test_cap_rejects_one_point_more(self, tmp_path):
        cap = POWERSET_CAP
        doc = write_doc(
            tmp_path,
            {"universe": [f"e{i}" for i in range(cap + 1)], "base": [], "order": []},
        )
        result = invoke(["oracle-diff", doc])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert result.stderr == f"error: universe size {cap + 1} exceeds the powerset cap {cap}\n"


def _space_signature(g):
    labels = g.universe.labels
    return (
        labels,
        {o.members() for o in g.topology.opens},
        {(labels[x], labels[y]) for x, y in g.order.pairs},
    )


class TestDocumentParsing:
    def test_example_document_matches_worked_example(self, example_doc):
        assert _space_signature(load_space(example_doc)) == _space_signature(
            make_example_space()
        )

    def test_json_error_reports_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_document('{\n  "universe": [,]\n}')

    def test_relation_and_base_are_exclusive(self):
        with pytest.raises(InputError, match="exactly one"):
            parse_document(json.dumps({
                "universe": ["a"], "base": [], "relation": [], "order": [],
            }))
        with pytest.raises(InputError, match="exactly one"):
            parse_document(json.dumps({"universe": ["a"], "order": []}))

    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match="unknown field"):
            parse_document(json.dumps({
                "universe": ["a"], "base": [], "order": [], "extra": 1,
            }))

    def test_order_labels_must_resolve(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "universe": ["a"], "base": [], "order": [["a", "z"]],
        }))
        with pytest.raises(ValueError, match="unknown label"):
            load_space(doc)

    def test_auto_reflexive_off_requires_loops(self, tmp_path):
        doc = write_doc(tmp_path, {
            "universe": ["a", "b"],
            "base": [],
            "order": [["a", "b"]],
            "options": {"auto_reflexive": False},
        })
        result = invoke(["topology", doc])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "reflexivity" in result.stderr

    def test_missing_file(self):
        result = invoke(["topology", "no-such-file.json"])
        assert result.exit_code == EXIT_INPUT_ERROR


_VALID = {"universe": ["a", "b"], "base": [["a"]], "order": [["a", "b"]]}


@pytest.mark.parametrize("text, message", [
    ('{\n  "universe": [,]\n}', "doc.json: line 2: Expecting value"),
    ("[]", "doc.json: top level must be an object"),
    (json.dumps({**_VALID, "extra": 1}), "doc.json: unknown field 'extra'"),
    (json.dumps({**_VALID, "universe": []}),
     "doc.json: field 'universe' must be a nonempty list of labels"),
    (json.dumps({**_VALID, "universe": ["a", 1]}),
     "doc.json: field 'universe' must be a nonempty list of labels"),
    (json.dumps({**_VALID, "universe": [f"e{i}" for i in range(4097)]}),
     "doc.json: field 'universe' holds more than 4096 labels"),
    (json.dumps({**_VALID, "relation": []}),
     "doc.json: exactly one of 'relation' or 'base' is required"),
    (json.dumps({"universe": ["a"], "order": []}),
     "doc.json: exactly one of 'relation' or 'base' is required"),
    (json.dumps({"universe": ["a"], "relation": {}, "order": []}),
     "doc.json: field 'relation' must be a list of label pairs"),
    (json.dumps({"universe": ["a"], "relation": [["a", "a"], ["a"]], "order": []}),
     "doc.json: field 'relation': ['a'] is not a pair of labels"),
    (json.dumps({**_VALID, "base": "a"}),
     "doc.json: field 'base' must be a list of label lists"),
    (json.dumps({**_VALID, "base": [["a"], ["b", 2]]}),
     "doc.json: field 'base': ['b', 2] is not a label list"),
    (json.dumps({"universe": ["a"], "base": []}), "doc.json: field 'order' is required"),
    (json.dumps({**_VALID, "order": None}), "doc.json: field 'order' must be a list of label pairs"),
    (json.dumps({**_VALID, "order": [["a", "b"], ["a", "b", "c"]]}),
     "doc.json: field 'order': ['a', 'b', 'c'] is not a pair of labels"),
    (json.dumps({**_VALID, "order": [["a", None]]}),
     "doc.json: field 'order': ['a', None] is not a pair of labels"),
    (json.dumps({**_VALID, "options": []}), "doc.json: field 'options' must be an object"),
    (json.dumps({**_VALID, "options": {"strict": True}}), "doc.json: unknown option 'strict'"),
    (json.dumps({**_VALID, "options": {"auto_reflexive": 1}}),
     "doc.json: option 'auto_reflexive' must be a boolean"),
    # JSON keeps a repeated key's last value; a document that repeats one is refused.
    ('{"universe": ["a", "b"], "base": [["a"]], "order": [["a", "b"]], "order": []}',
     "doc.json: key 'order' is repeated"),
    ('{"universe": ["a"], "base": [], "order": [], '
     '"options": {"auto_reflexive": true, "auto_reflexive": false}}',
     "doc.json: key 'auto_reflexive' is repeated"),
])
def test_parse_document_error_text(tmp_path, monkeypatch, text, message):
    with pytest.raises(InputError) as err:
        parse_document(text)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(text, encoding="utf-8")
    with pytest.raises(InputError) as named:
        load_space("doc.json")
    assert str(named.value) == f"doc.json: {err.value}" == message


@pytest.mark.parametrize("content, message", [
    (b'{"universe": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "nested too deeply"),
    (b'{"universe": ["\xff"]}', "byte 15 is not valid UTF-8"),
    (b'{"universe": [' + b"7" * 5000 + b"]}", "an integer literal is too long"),
    (b"\xef\xbb\xbf" + json.dumps(_VALID).encode(),
     "line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
], ids=["deep", "latin-1", "long-integer", "byte-order-mark"])
def test_unreadable_document_is_an_input_error_naming_the_file(
    tmp_path, content, message
):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    result = invoke(["topology", str(path)])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stdout == ""
    assert result.stderr == f"error: {path}: {message}\n"


@pytest.mark.parametrize("doc, message", [
    ({**_VALID, "base": [["a"], ["z"]]}, "unknown label 'z'"),
    ({"universe": ["a"], "relation": [["a", "z"]], "order": []}, "unknown label 'z'"),
    ({**_VALID, "order": [["a", "z"]]}, "unknown label 'z'"),
    ({**_VALID, "universe": ["a", "b", "a"]}, "duplicate label 'a'"),
    ({**_VALID, "order": [["a", "b"], ["b", "a"]]},
     "antisymmetry violated: both (a, b) and (b, a) present"),
], ids=["base-label", "relation-label", "order-label", "duplicate-label", "antisymmetry"])
def test_build_errors_name_the_document(tmp_path, doc, message):
    path = write_doc(tmp_path, doc, name="doc.json")
    result = invoke(["topology", path])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stdout == ""
    assert result.stderr == f"error: {path}: {message}\n"


@pytest.mark.parametrize("content, message", [
    (b"{", "line 1: Expecting property name enclosed in double quotes"),
    (json.dumps({**_VALID, "base": [["z"]]}).encode(), "unknown label 'z'"),
], ids=["parse", "build"])
def test_input_errors_name_the_file_as_typed(tmp_path, monkeypatch, content, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(content)
    result = invoke(["topology", "./bad.json"])
    missing = invoke(["topology", "./missing.json"])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stderr == f"error: ./bad.json: {message}\n"
    assert missing.stderr == "error: cannot read ./missing.json: No such file or directory\n"


# A label's repr is cut to 30 characters in an error line.
_HUGE, _HUGE_REPR = "x" * 200_000, "'" + "x" * 12 + "..." + "x" * 13 + "'"


@pytest.mark.parametrize("doc, args, message", [
    ({**_VALID, "base": [["a"], [_HUGE]]}, [], f"unknown label {_HUGE_REPR}"),
    ({**_VALID, "universe": ["a", "b", _HUGE, _HUGE]}, [], f"duplicate label {_HUGE_REPR}"),
    (_VALID, ["--set", "a," + _HUGE[:100_000]], f"unknown label {_HUGE_REPR}"),
    ({**_VALID, "universe": ["a", "b", _HUGE], "order": [["a", _HUGE], [_HUGE, "a"]]}, [],
     f"antisymmetry violated: both (a, {_HUGE_REPR}) and ({_HUGE_REPR}, a) present"),
    ({**_VALID, "universe": ["a", "b", _HUGE], "order": [["a", _HUGE], [_HUGE, "b"]]}, [],
     f"transitivity violated: (a, {_HUGE_REPR}) and ({_HUGE_REPR}, b) present but (a, b) missing"),
    ({**_VALID, _HUGE: 1}, [], f"unknown field {_HUGE_REPR}"),
    ({**_VALID, "options": {_HUGE: True}}, [], f"unknown option {_HUGE_REPR}"),
], ids=["base-label", "duplicate-label", "set-label", "antisymmetry", "transitivity",
        "unknown-field", "unknown-option"])
def test_a_huge_label_gives_a_short_error_line(tmp_path, doc, args, message):
    path = write_doc(tmp_path, doc, name="doc.json")
    result = invoke(["analyze", path, *(args or ["--set", "a"])])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stdout == ""
    # Only a build error names the document; --set is read after the build.
    where = "" if args else f"{path}: "
    assert result.stderr == f"error: {where}{message}\n"
    assert len(result.stderr) < len(path) + 80 * message.count(_HUGE_REPR)


# --set splits its value on commas and strips each name, so no --set names
# these labels; a document that holds one is refused.
@pytest.mark.parametrize("label, shown", [
    ("", "''"), (" b", "' b'"), ("b\t", "'b\\t'"), ("c,d", "'c,d'"),
    (_HUGE + ",", "'" + "x" * 12 + "..." + "x" * 12 + ",'"),
], ids=["empty", "leading-space", "trailing-tab", "comma", "huge"])
def test_a_label_that_set_cannot_name_is_an_input_error(tmp_path, label, shown):
    path = write_doc(tmp_path, {**_VALID, "universe": ["a", "b", label]}, name="doc.json")
    result = invoke(["topology", path])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stdout == ""
    assert result.stderr == (f"error: {path}: field 'universe': label {shown} is empty, "
                             "holds a comma or starts or ends with whitespace\n")


# JSON admits a lone surrogate, which no output can write; a surrogate pair
# in the document is one astral character, which can.
@pytest.mark.parametrize("args", [[], ["--set", "b"], ["--set", "b", "--format", "json"]],
                         ids=["topology", "analyze", "analyze-json"])
def test_a_lone_surrogate_label_is_an_input_error(tmp_path, args):
    command = "analyze" if args else "topology"
    lone = write_doc(tmp_path, {"universe": ["\ud800", "b"], "base": [["\ud800"]], "order": []},
                     name="doc.json")
    result = invoke([command, lone, *args])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stdout == ""
    assert result.stderr == (f"error: {lone}: field 'universe': label '\\ud800' "
                             "is not valid Unicode\n")
    astral = write_doc(tmp_path, {"universe": ["\U0001d538", "b"], "base": [["\U0001d538"]],
                                  "order": []})
    assert '"\\ud835\\udd38"' in (tmp_path / "space.json").read_text()
    result = invoke([command, astral, *args])
    assert result.exit_code == 0
    assert "\U0001d538" in result.stdout or "\\ud835\\udd38" in result.stdout


@pytest.mark.parametrize("field", ["order", "relation"])
def test_a_nested_pair_entry_gives_a_short_error_line(tmp_path, field):
    # 400 levels parse well inside the recursion limit, even under pytest.
    nested = "[" * 400 + "]" * 400
    other = ', "base": []' if field == "order" else ', "order": []'
    path = tmp_path / "space.json"
    path.write_text(f'{{"universe": ["a"]{other}, "{field}": [["a", "a"], {nested}]}}')
    result = invoke(["topology", str(path)])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stderr == f"error: {path}: field {field!r}: [[...]] is not a pair of labels\n"
    assert len(result.stderr) < 200


def test_parse_document_accepts_the_largest_universe():
    labels = [f"e{i}" for i in range(4096)]
    assert parse_document(json.dumps({**_VALID, "universe": labels}))["universe"] == labels


def test_parse_document_returns_the_object_with_options_defaulted():
    assert parse_document(json.dumps(_VALID)) == {**_VALID, "options": {"auto_reflexive": True}}
    off = {**_VALID, "options": {"auto_reflexive": False}}
    assert parse_document(json.dumps(off)) == off


def _laid_out(stdout):
    """Whether ``stdout`` is one JSON value laid out as ``json.dumps(value,
    indent=2)`` lays it out, and a newline."""
    return stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


def test_json_stdout_is_laid_out_as_json_dumps_with_indent_2_on_the_digest_corpus(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    written = analyzed = 0
    for _, text, chosen in corpus():
        (tmp_path / DOC).write_text(text, encoding="utf-8")
        for command in ("analyze-json", "check", "check-samples", "check-corrupt"):
            result = invoke([arg.format(set=chosen) for arg in COMMANDS[command]])
            if result.exit_code != EXIT_INPUT_ERROR:
                assert _laid_out(result.stdout), (command, text)
                written += 1
                analyzed += command == "analyze-json"
    assert written > 100 and analyzed > 30


# Labels that JSON escapes: quotes, backslashes, non-ASCII, an astral
# character, control characters and ESC. Each is one --set can name.
_ODD_LABELS = ['q"t', "b\\s", "é", "\U0001d538", "t\tab", "c\x01d", "\x1b[31mred\x1b[0m", "z"]


@pytest.mark.parametrize("sets", [[], _ODD_LABELS, _ODD_LABELS[::3], _ODD_LABELS[1:4]],
                         ids=["empty", "full", "every-third", "three"])
@pytest.mark.parametrize("filters, rows", [
    ([], 10), (["--family", "gamma"], 2), (["--direction", "dec"], 5),
    (["--family", "s", "--direction", "inc"], 1),
], ids=["all-rows", "family", "direction", "one-row"])
def test_analyze_json_with_odd_labels_is_laid_out_as_json_dumps(tmp_path, sets, filters,
                                                                rows):
    first, second = _ODD_LABELS[:2]
    path = write_doc(tmp_path, {"universe": _ODD_LABELS, "base": [_ODD_LABELS[:3], [first]],
                                "order": [[first, second]]})
    result = invoke(["analyze", path, "--set", ",".join(sets), *filters, "--format", "json"])
    assert result.exit_code == 0
    assert _laid_out(result.stdout)
    report = json.loads(result.stdout)
    assert report["set"] == sets and len(report["rows"]) == rows


@pytest.mark.parametrize("base, code", [
    ([[x] for x in _ODD_LABELS], 0), ([_ODD_LABELS[:1], _ODD_LABELS[1:2]], EXIT_CHECK_FAILED),
], ids=["passing", "failing"])
@pytest.mark.parametrize("mode", [["--exhaustive"], ["--samples", "8"]],
                         ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("seed", ["0", "-7", str(10 ** 40)])
def test_check_json_with_odd_labels_is_laid_out_as_json_dumps(tmp_path, base, code,
                                                              mode, seed):
    path = write_doc(tmp_path, {"universe": _ODD_LABELS, "base": base, "order": []})
    result = invoke(["check", path, *mode, "--seed", seed, "--format", "json"])
    assert result.exit_code == code
    assert _laid_out(result.stdout)
    report = json.loads(result.stdout)
    assert report["seed"] == int(seed)
    assert any(p["violations"] for p in report["propositions"]) == (code != 0)


def test_an_exhaustive_check_builds_no_random_generator(tmp_path, monkeypatch):
    passing = write_doc(tmp_path, {"universe": ["a", "b"], "base": [["a"]], "order": []})
    failing = write_doc(tmp_path, PROBE_DOC, name="probe.json")
    expected = {args: invoke(["check", *args])
                for args in ((passing,), (passing, "--exhaustive"), (failing, "--exhaustive"),
                             (failing, "--exhaustive", "--format", "json"))}

    def no_generator(*args):
        raise AssertionError("random.Random called")

    monkeypatch.setattr(cli.oracle.random, "Random", no_generator)
    for args, before in expected.items():
        result = invoke(["check", *args])
        assert result.exit_code == before.exit_code
        assert (result.stdout, result.stderr) == (before.stdout, before.stderr)
    assert [r.exit_code for r in expected.values()] == [0, 0, 1, 1]


def test_json_reports_are_written_without_json_dumps(tmp_path, monkeypatch):
    # json.dumps with an indent always runs the pure-Python encoder.
    path = write_doc(tmp_path, PROBE_DOC)

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", no_dumps)
    for args in (["analyze", path, "--set", "a,c", "--format", "json"],
                 ["check", path, "--format", "json"],
                 ["check", path, "--samples", "4", "--format", "json"]):
        result = invoke(args)
        assert result.exit_code in (0, EXIT_CHECK_FAILED) and result.stdout.startswith("{\n")


# An ANSI-like label keeps its bytes on stdout, which is no terminal here,
# as it does on one; JSON escapes its ESC.
_ANSI = "a\x1b[31mred\x1b[0m"


def test_a_label_with_ansi_sequences_keeps_its_bytes_on_stdout(tmp_path):
    path = write_doc(tmp_path, {**PROBE_DOC, "universe": [_ANSI, "b", "c"],
                                "base": [[_ANSI], ["b"]]})
    topology = invoke(["topology", path])
    assert topology.exit_code == 0
    assert f"{{{_ANSI}, b}}\n" in topology.stdout
    table = invoke(["analyze", path, "--set", _ANSI])
    assert table.exit_code == 0
    lines = table.stdout.splitlines()
    assert lines[0] == f"A = {{{_ANSI}}}"
    # The columns are padded to the labels' length as written.
    assert lines[1].index("upper") - lines[1].index("lower") == len(f"{{{_ANSI}}}  ")
    check = invoke(["check", path])
    assert check.exit_code == EXIT_CHECK_FAILED
    assert f"witness: Inc: A={{{_ANSI}}}: gamma upper {{{_ANSI}, c}}" in check.stdout
    for args in (["analyze", path, "--set", _ANSI, "--format", "json"],
                 ["check", path, "--format", "json"]):
        result = invoke(args)
        assert "\x1b" not in result.stdout and "a\\u001b[31mred\\u001b[0m" in result.stdout


# Several unknown labels: the first in document order is named, and base
# (or relation) labels are resolved before order labels.
@pytest.mark.parametrize("doc, args, message", [
    ({"universe": ["a", "b"], "relation": [["a", "b"], ["a", "y"], ["x", "a"]], "order": []},
     [], "unknown label 'y'"),
    ({"universe": ["a", "b"], "relation": [["a", "b"], ["x", "y"]], "order": []},
     [], "unknown label 'x'"),
    ({**_VALID, "order": [["a", "b"], ["b", "w"], ["v", "a"]]}, [], "unknown label 'w'"),
    ({**_VALID, "order": [["v", "w"]]}, [], "unknown label 'v'"),
    ({**_VALID, "base": [["a"], ["b", "q", "p"], ["r"]]}, [], "unknown label 'q'"),
    ({**_VALID, "base": [["a"], ["p"]], "order": [["v", "a"]]}, [], "unknown label 'p'"),
    ({**_VALID, "base": [["p"]], "order": [["a", "b"], ["b", "q"]]}, [], "unknown label 'p'"),
    ({"universe": ["a", "b"], "relation": [["a", "p"]], "order": [["q", "a"]]},
     [], "unknown label 'p'"),
    (_VALID, ["--set", "a,y,b,x"], "unknown label 'y'"),
], ids=["relation-right", "relation-left", "order-right", "order-left", "base",
        "base-before-order", "base-before-order-2", "relation-before-order", "set"])
def test_the_first_unknown_label_in_document_order_is_named(tmp_path, doc, args, message):
    path = write_doc(tmp_path, doc, name="doc.json")
    result = invoke(["analyze", path, *(args or ["--set", "a"])])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stdout == ""
    where = "" if args else f"{path}: "
    assert result.stderr == f"error: {where}{message}\n"


# The command line as a process sees it: ``python -m gotas.cli`` run in a
# subprocess, from this checkout's sources.
_SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH"))))}


def _gotas(*args, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "gotas.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=_SUBPROCESS_ENV, text=True)


# What each help lists: the program's lists the commands, a command's its options.
HELP_LISTS = {
    (): ["topology", "analyze", "check", "oracle-diff"],
    ("topology",): [],
    ("analyze",): ["--set LABELS", "--family {r,s,p,gamma,beta}", "--direction {inc,dec}",
                   "--format {table,json}"],
    ("check",): ["--exhaustive", "--samples N", "--seed SEED", "--format {table,json}"],
    ("oracle-diff",): [],
}


@pytest.mark.parametrize("args", HELP_LISTS, ids=lambda args: " ".join(args) or "program")
def test_help_exits_0_with_usage_on_stdout(args):
    result = _gotas(*args, "--help")
    assert result.returncode == 0
    assert "usage:" in result.stdout.lower()
    assert all(f"\n  {item}  " in result.stdout for item in HELP_LISTS[args])
    assert "--corrupt-gamma" not in result.stdout
    assert result.stderr == ""


@pytest.mark.parametrize("args, named", [
    ([], ["COMMAND"]),
    (["bogus", "{doc}"], ["'bogus'"]),
    (["topology", "{doc}", "--bogus"], ["--bogus"]),
    (["analyze", "{doc}"], ["--set"]),
    (["check", "{doc}", "--samples", "x"], ["--samples", "'x'"]),
    (["analyze", "{doc}", "--set", "a", "--family", "bogus"], ["--family", "'bogus'"]),
    (["topology", "{doc}", "{doc}"], ["{doc}"]),
    (["check", "{doc}", "--exh"], ["--exh"]),
    (["check", "{doc}", "--exhaustive=1"], ["--exhaustive", "'1'"]),
    (["analyze", "{doc}", "--set"], ["--set"]),
    (["check", "{doc}", "--seed", "x"], ["--seed", "'x'"]),
    (["check", "{doc}", "--format", "xml"], ["--format", "'xml'"]),
    (["analyze", "{doc}", "--set", "a", "--direction", "up"], ["--direction", "'up'"]),
    (["check", "--exhaustive", "{doc}", "second.json"], ["second.json"]),
], ids=["no-command", "unknown-command", "unknown-option", "missing-set", "samples-not-int",
        "unknown-family", "extra-file", "abbreviated-option", "switch-given-a-value",
        "value-option-last", "seed-not-int", "unknown-format", "unknown-direction",
        "second-file"])
def test_usage_errors_exit_2_with_nothing_on_stdout(args, named):
    result = _gotas(*(arg.format(doc=EXAMPLE_DOC) for arg in args))
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert lines[0].startswith("usage: gotas")
    assert all(token.format(doc=EXAMPLE_DOC) in lines[-1] for token in named), lines[-1]


@pytest.mark.parametrize("usual, form", [
    (["analyze", "{doc}", "--set", "a,c", "--family", "beta"],
     ["analyze", "--set", "a,c", "--family", "beta", "{doc}"]),
    (["analyze", "{doc}", "--set", "a,c", "--family", "beta", "--format", "json"],
     ["analyze", "--set=a,c", "{doc}", "--family=beta", "--format=json"]),
    (["check", "{doc}", "--samples", "8", "--seed", "3"],
     ["check", "--format", "json", "--samples=8", "{doc}", "--seed", "3", "--format", "table"]),
    (["check", "{probe}", "--exhaustive", "--format", "json"],
     ["check", "--format", "table", "--exhaustive", "--format", "json", "--", "{probe}"]),
    (["topology", "{doc}"], ["topology", "--", "-x.json"]),
], ids=["options-before-file", "opt=value", "repeated-format", "double-dash", "dash-file"])
def test_accepted_forms_match_the_usual_form(tmp_path, monkeypatch, usual, form):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(EXAMPLE_DOC.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "-x.json").write_text(EXAMPLE_DOC.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "probe.json").write_text(json.dumps(PROBE_DOC), encoding="utf-8")

    def run(args):
        return invoke([arg.format(doc="doc.json", probe="probe.json") for arg in args])

    expected, result = run(usual), run(form)
    assert expected.stdout and expected.stderr == ""
    assert (result.exit_code, result.stdout, result.stderr) == (
        expected.exit_code, expected.stdout, expected.stderr)


@pytest.mark.parametrize("args", [[], ["check"]], ids=["program", "check"])
def test_help_into_a_closed_stdout_pipe_exits_0_quietly(args):
    read, write = os.pipe()
    os.close(read)
    try:
        result = _gotas(*args, "--help", stdout=write)
    finally:
        os.close(write)
    assert result.returncode == 0
    assert result.stderr == ""


def test_a_closed_stdout_pipe_exits_1_quietly():
    read, write = os.pipe()
    os.close(read)
    try:
        result = _gotas("topology", str(EXAMPLE_DOC), stdout=write)
    finally:
        os.close(write)
    assert result.returncode == 1
    assert result.stderr == ""


@pytest.mark.parametrize("label", ["-a", "-1", "--"])
def test_set_takes_a_label_that_starts_with_a_dash(tmp_path, label):
    path = write_doc(tmp_path, {"universe": ["-a", "-1", "--", "b"], "base": [["-a"], ["-1"]],
                                "order": []})
    result = _gotas("analyze", path, "--set", label, "--family", "r", "--format", "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["set"] == [label]


def test_an_interrupt_exits_1_with_aborted(example_doc, monkeypatch):
    def interrupt(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "load_space", interrupt)
    result = invoke(["topology", str(example_doc)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "\nAborted!\n"


def test_running_out_of_memory_exits_2(monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.oracle, "check_propositions", exhaust)
    result = invoke(["check", str(EXAMPLE_DOC)])
    assert result == (2, "", "error: out of memory\n")


def test_gotas_imports_without_click():
    code = 'import sys; sys.modules["click"] = None; import gotas, gotas.cli'
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_SUBPROCESS_ENV)
    assert result.returncode == 0, result.stderr


_CLICK_IMPORT = re.compile(r"\s*(?:from\s+click[\s.]|import\s+(?:[\w.]+\s*,\s*)*click\b)")


def test_click_is_gone_from_the_project():
    # The tests run the CLI through cli_invoke.invoke, as the benchmark runs it.
    found = [
        f"{path.relative_to(REPO_ROOT)}: {text.strip()}"
        for top in ("src", "scripts", "tests")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
        for text in path.read_text(encoding="utf-8").splitlines()
        if _CLICK_IMPORT.match(text)
    ]
    assert found == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["optional-dependencies"]["test"] == ["pytest", "hypothesis"]
    assert main.main is main and not hasattr(main, "name")


def test_gotas_cli_imports_without_pathlib():
    code = 'import sys; sys.modules["pathlib"] = None; import gotas, gotas.cli'
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_SUBPROCESS_ENV)
    assert result.returncode == 0, result.stderr


def test_gotas_cli_runs_without_argparse():
    code = ('import sys; sys.modules["argparse"] = None; from gotas import cli; '
            f'cli.main(["topology", {str(EXAMPLE_DOC)!r}])')
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_SUBPROCESS_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout == TOPOLOGY_GOLDEN


# `topology` and `analyze` run no code of the oracle and load neither `random`,
# `dataclasses`, `inspect` nor the batch engine, and `topology` loads no
# `fractions` (nor `decimal`, which it imports); `check` then loads them all.
_LAZY_ORACLE = """\
import contextlib, io, sys
sys.modules["random"] = sys.modules["dataclasses"] = sys.modules["inspect"] = None
sys.modules["fractions"] = None
import gotas
from gotas import cli

def run(*args):
    try:
        cli.main([*args])
    except SystemExit as exit_:
        assert exit_.code == 0, (args, exit_.code)

run("topology", DOC)
assert "decimal" not in sys.modules
del sys.modules["fractions"]
run("analyze", DOC, "--set", "a,c", "--format", "json")
oracle = sys.modules["gotas.oracle"]
assert oracle is cli.oracle
# vars() would itself run the module's code.
assert "check_propositions" not in object.__getattribute__(oracle, "__dict__")
assert "gotas.batch" not in sys.modules
del sys.modules["random"], sys.modules["dataclasses"], sys.modules["inspect"]
with contextlib.redirect_stdout(io.StringIO()) as out:
    run("check", DOC, "--exhaustive")
assert out.getvalue().endswith("result: all laws hold\\n"), out.getvalue()
assert "check_propositions" in vars(oracle)
assert gotas.Batch is gotas.batch.Batch
"""


def test_topology_and_analyze_run_no_oracle_code_and_no_random():
    code = _LAZY_ORACLE.replace("DOC", repr(str(EXAMPLE_DOC)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_SUBPROCESS_ENV)
    assert result.returncode == 0, result.stderr
    analyze = invoke(["analyze", str(EXAMPLE_DOC), "--set", "a,c", "--format", "json"])
    assert result.stdout == TOPOLOGY_GOLDEN + analyze.stdout


# Eight threads make the first use of the batch engine at once, switching often:
# each one's gotas.Batch imports it, and its Rows builds the shared space's plan.
_THREADED_FIRST_USE = """\
import sys, threading
sys.setswitchinterval(1e-6)
import gotas
from gotas.approximations import Rows
from gotas.cli import load_space

def table(rows):
    return {key: (r.lower.rows(), r.upper.rows(), r.opposite_upper.rows())
            for key, r in rows.items()}

g = load_space(DOC)
start, tables = threading.Barrier(8), []

def first_use():
    start.wait(timeout=30)
    tables.append(table(Rows(g, gotas.Batch.powerset(g.universe))))

assert "gotas.batch" not in sys.modules
threads = [threading.Thread(target=first_use) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert len(tables) == 8, len(tables)
assert all(t == table(Rows(g, gotas.Batch.powerset(g.universe))) for t in tables)
"""


def test_the_batch_engine_loads_safely_from_threads():
    code = _THREADED_FIRST_USE.replace("DOC", repr(str(EXAMPLE_DOC)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_SUBPROCESS_ENV, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize("path, reason", [
    ("", "No such file or directory"),
    (f"{EXAMPLE_DOC}/", "Not a directory"),
    ("doc\0.json", "embedded null byte"),
], ids=["empty", "trailing-slash", "nul-byte"])
def test_the_path_is_opened_as_typed(path, reason):
    # No path library normalizes it: '' is not the current directory, and a
    # file named with a trailing slash is not read, as with `cat`.
    result = invoke(["topology", path])
    assert result.exit_code == EXIT_INPUT_ERROR
    assert result.stdout == ""
    assert result.stderr == f"error: cannot read {path}: {reason}\n"


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "cp1252"])
@pytest.mark.parametrize("args", [["topology"], ["analyze", "--set", "中", "--family", "r"]],
                         ids=["topology", "analyze"])
def test_a_stdout_that_is_not_utf8_is_written_as_utf8(tmp_path, args, encoding):
    path = write_doc(tmp_path, {"universe": ["中", "b"], "base": [["中"]], "order": []})

    def run(encoding):
        return subprocess.run([sys.executable, "-m", "gotas.cli", args[0], path, *args[1:]],
                              capture_output=True, env={**_SUBPROCESS_ENV, "PYTHONIOENCODING": encoding})

    result, utf8 = run(encoding), run("utf-8")
    assert result.returncode == 0, result.stderr
    assert result.stdout == utf8.stdout
    assert "{中}".encode() in result.stdout
    if args[0] == "topology":
        assert result.stdout == "{}\n{中}\n{中, b}\ncount: 3\n".encode()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "cp1252"])
def test_a_stderr_that_is_not_utf8_is_written_as_utf8(tmp_path, encoding):
    path = write_doc(tmp_path, {"universe": ["a"], "base": [["中文"]], "order": []})

    def run(encoding):
        return subprocess.run([sys.executable, "-m", "gotas.cli", "topology", path],
                              capture_output=True, env={**_SUBPROCESS_ENV, "PYTHONIOENCODING": encoding})

    result, utf8 = run(encoding), run("utf-8")
    assert result.returncode == utf8.returncode == EXIT_INPUT_ERROR
    assert result.stderr == utf8.stderr
    assert result.stderr == f"error: {path}: unknown label '中文'\n".encode()


@pytest.mark.parametrize("doc, args, code", [
    (None, ["topology"], 0),
    (PROBE_DOC, ["check", "--exhaustive"], EXIT_CHECK_FAILED),
    ({"universe": ["a"], "base": [["z"]], "order": []}, ["topology"], EXIT_INPUT_ERROR),
], ids=["worked-example", "probe", "bad-document"])
def test_main_main_exits_with_the_command_code(tmp_path, capsys, doc, args, code):
    # The entry point that perfbench/run.py calls, with stdout captured.
    path = str(EXAMPLE_DOC) if doc is None else write_doc(tmp_path, doc)
    with pytest.raises(SystemExit) as exit_:
        main.main(args=[args[0], path, *args[1:]], prog_name="gotas")
    assert exit_.value.code == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out == TOPOLOGY_GOLDEN
    assert (err == "") == (code != EXIT_INPUT_ERROR)


def test_only_main_writes_errors_and_ends_the_process():
    # Commands and the parser raise or return; main writes each command's
    # output and maps each outcome to its exit code, and --help alone writes
    # and exits on its own.
    with open(cli.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    users = {"stdout": set(), "stderr": set(), "exit": set()}
    for top in tree.body:
        for node in ast.walk(top):
            assert not (isinstance(node, ast.ImportFrom) and node.module == "sys")
            assert not (isinstance(node, ast.Name) and node.id == "SystemExit")
            if (isinstance(node, ast.Attribute) and node.attr in users
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                users[node.attr].add(getattr(top, "name", "<module>"))
    assert users == {"stdout": {"main", "_help"}, "stderr": {"main"}, "exit": {"main", "_help"}}


def test_pyproject_lists_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
