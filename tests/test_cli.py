import json
import random
import time

import pytest
from click.testing import CliRunner

from gotas import cli
from gotas.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    DocumentError,
    load_space,
    main,
    parse_document,
)

from conftest import make_example_space

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


@pytest.fixture
def runner():
    return CliRunner()


def write_doc(tmp_path, payload, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTopologyCommand:
    def test_worked_example_golden_output(self, runner, example_doc):
        result = runner.invoke(main, ["topology", str(example_doc)])
        assert result.exit_code == 0
        assert result.output == TOPOLOGY_GOLDEN

    def test_empty_base_gives_two_opens(self, runner, tmp_path):
        doc = write_doc(tmp_path, {"universe": ["a", "b"], "base": [], "order": []})
        result = runner.invoke(main, ["topology", doc])
        assert result.exit_code == 0
        assert result.output == "{}\n{a, b}\ncount: 2\n"

    def test_relation_mode(self, runner, tmp_path):
        doc = write_doc(
            tmp_path,
            {
                "universe": ["a", "b"],
                "relation": [["a", "a"], ["b", "a"], ["b", "b"]],
                "order": [],
            },
        )
        result = runner.invoke(main, ["topology", doc])
        assert result.exit_code == 0
        assert result.output == "{}\n{a}\n{a, b}\ncount: 3\n"

    def test_invalid_order_is_an_input_error(self, runner, tmp_path):
        doc = write_doc(
            tmp_path,
            {"universe": ["a", "b"], "base": [], "order": [["a", "b"], ["b", "a"]]},
        )
        result = runner.invoke(main, ["topology", doc])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "antisymmetry" in result.stderr


    def test_identity_relation_on_twelve_points(self, runner, tmp_path):
        labels = [f"e{i}" for i in range(12)]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        result = runner.invoke(main, ["topology", doc])
        assert result.exit_code == 0
        assert result.output.endswith("\ncount: 4096\n")

    def test_relation_listing_matches_its_definition(self, runner, tmp_path):
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
        result = runner.invoke(main, ["topology", doc])
        assert result.exit_code == 0
        assert result.output == "\n".join([*want, f"count: {len(opens)}"]) + "\n"
        assert 100 < len(opens) < 1 << n

    def test_identity_relation_on_sixteen_points_lists_the_cap(self, runner, tmp_path):
        labels = [f"e{i}" for i in range(16)]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        result = runner.invoke(main, ["topology", doc])
        assert result.exit_code == 0
        assert result.output.endswith("\ncount: 65536\n")
        assert cli.MAX_OPENS == 65536

    def test_dense_two_layers_exit_before_listing(self, runner, tmp_path):
        # 60 points: each of 30 upper points sits above a random half of the
        # 30 lower ones, so the topology has more than 2**30 opens.
        rng = random.Random(60)
        lower = [f"l{i}" for i in range(30)]
        upper = [f"u{i}" for i in range(30)]
        relation = [[x, x] for x in lower + upper]
        relation += [[u, l] for u in upper for l in rng.sample(lower, 15)]
        doc = write_doc(tmp_path, {"universe": lower + upper, "relation": relation, "order": []})
        start = time.perf_counter()
        result = runner.invoke(main, ["topology", doc])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == EXIT_INPUT_ERROR
        assert result.stdout == ""
        assert f"more than {cli.MAX_OPENS} opens" in result.stderr


class TestAnalyzeCommand:
    def test_beta_dec_row(self, runner, example_doc):
        result = runner.invoke(
            main,
            ["analyze", str(example_doc), "--set", "a,c",
             "--family", "beta", "--direction", "dec"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "A = {a, c}"
        assert len(lines) == 3  # header plus the single filtered row
        row = lines[2]
        for cell in ("beta", "Dec", "{a, c}", "{a, b, c}", "{b}", "2/3", "rough"):
            assert cell in row

    def test_full_table_has_ten_rows(self, runner, example_doc):
        result = runner.invoke(main, ["analyze", str(example_doc), "--set", "a,c"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 12  # title, header, ten rows
        families = [line.split()[0] for line in lines[2:]]
        assert families == ["R", "R", "S", "S", "P", "P",
                            "gamma", "gamma", "beta", "beta"]
        directions = [line.split()[1] for line in lines[2:]]
        assert directions == ["Inc", "Dec"] * 5

    def test_empty_set_is_exact_everywhere(self, runner, example_doc):
        result = runner.invoke(main, ["analyze", str(example_doc), "--set", ""])
        assert result.exit_code == 0
        for line in result.output.splitlines()[2:]:
            assert line.endswith("exact")
            assert line.split()[-2] == "1"  # accuracy column

    def test_gamma_inc_row(self, runner, example_doc):
        result = runner.invoke(
            main,
            ["analyze", str(example_doc), "--set", "a,c",
             "--family", "gamma", "--direction", "inc"],
        )
        assert result.exit_code == 0
        row = result.output.splitlines()[2]
        assert "{a, c}" in row and "{a, b, c, d}" in row

    def test_json_round_trip_matches_table(self, runner, example_doc):
        table = runner.invoke(main, ["analyze", str(example_doc), "--set", "a,c"])
        as_json = runner.invoke(
            main, ["analyze", str(example_doc), "--set", "a,c", "--format", "json"]
        )
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

    def test_unknown_label_is_an_input_error(self, runner, example_doc):
        result = runner.invoke(main, ["analyze", str(example_doc), "--set", "a,z"])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "unknown label" in result.stderr


    def test_discrete_forty_points_lists_no_opens(self, runner, tmp_path):
        # The identity relation on 40 points gives the discrete topology,
        # with 2**40 opens: only a run that never lists them can finish.
        labels = ["a", "b", *(f"e{i}" for i in range(38))]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        result = runner.invoke(main, ["analyze", doc, "--set", "a,b", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        r_rows = [row for row in rows if row["family"] == "R"]
        assert len(r_rows) == 2
        for row in r_rows:
            assert row["lower"] == ["a", "b"]
            assert row["upper"] == ["a", "b"]


class TestCheckCommand:
    def test_worked_example_exhaustive_all_pass(self, runner, example_doc):
        result = runner.invoke(main, ["check", str(example_doc), "--exhaustive"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[-1] == "result: all laws hold"
        assert all("PASS" in line for line in lines[:-1])
        assert not any("FAIL" in line for line in lines)

    def test_json_format(self, runner, example_doc):
        result = runner.invoke(
            main, ["check", str(example_doc), "--exhaustive", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["all_pass"] is True
        assert payload["mode"] == "exhaustive"
        assert {p["id"] for p in payload["propositions"]} >= {"sandwich", "3.2", "duality"}
        assert all(p["pass"] for p in payload["propositions"])

    def test_exhaustive_over_cap_is_an_input_error(self, runner, tmp_path):
        doc = write_doc(
            tmp_path,
            {"universe": list("abcdef"), "base": [], "order": []},
        )
        result = runner.invoke(main, ["check", doc, "--exhaustive"])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "cap" in result.stderr

    def test_sampled_mode_on_larger_space(self, runner, tmp_path):
        doc = write_doc(
            tmp_path,
            {
                "universe": list("abcdef"),
                "base": [["a"], ["a", "b"], ["c", "d"], ["e", "f"]],
                "order": [],
            },
        )
        result = runner.invoke(main, ["check", doc, "--samples", "40", "--seed", "7"])
        assert result.exit_code == 0

    def test_identity_twenty_points_lists_no_opens(self, runner, tmp_path, monkeypatch):
        # The discrete topology on 20 points has 2**20 opens; a check in
        # which every law holds must not list them to label its witnesses.
        labels = [f"e{i}" for i in range(20)]
        doc = write_doc(
            tmp_path,
            {"universe": labels, "relation": [[x, x] for x in labels], "order": []},
        )
        spaces = []
        load = cli.load_space
        monkeypatch.setattr(cli, "load_space", lambda path: spaces.append(load(path)) or spaces[0])
        result = runner.invoke(main, ["check", doc, "--samples", "4"])
        assert result.exit_code == 0
        assert result.output.endswith("result: all laws hold\n")
        assert spaces[0].topology._opens is None

    def _failing_check(self, runner, tmp_path, monkeypatch, doc):
        spaces = []
        load = cli.load_space
        monkeypatch.setattr(cli, "load_space", lambda path: spaces.append(load(path)) or spaces[0])
        started = time.monotonic()
        result = runner.invoke(
            main, ["check", write_doc(tmp_path, doc), "--samples", "16", "--format", "json"]
        )
        elapsed = time.monotonic() - started
        assert result.exit_code == EXIT_CHECK_FAILED
        assert spaces[0].topology._opens is None
        labels = {
            v["space"] for p in json.loads(result.output)["propositions"] for v in p["violations"]
        }
        return spaces[0], labels, elapsed

    def test_sparse_thirty_point_relation_counts_its_opens(self, runner, tmp_path, monkeypatch):
        # Loops plus each pair with probability 2/30: law 3.21 fails, and the
        # label counts ~2**29 opens without listing them.
        rng = random.Random(0)
        labels = [f"e{i}" for i in range(30)]
        relation = [[x, y] for x in labels for y in labels if x == y or rng.random() < 2 / 30]
        doc = {"universe": labels, "relation": relation, "order": []}
        g, seen, elapsed = self._failing_check(runner, tmp_path, monkeypatch, doc)
        count = g.topology.count_opens()
        assert count is not None and count > 1 << 20
        assert seen == {f"U={{{', '.join(labels)}}} with {count} opens"}
        assert elapsed < 2.0

    def test_uncountable_opens_have_a_fixed_label(self, runner, tmp_path, monkeypatch):
        rng = random.Random(0)
        labels = [f"e{i}" for i in range(60)]
        relation = [[x, x] for x in labels]
        relation += [[labels[x], labels[y]] for x in range(30) for y in range(30, 60)
                     if rng.random() < 0.5]
        doc = {"universe": labels, "relation": relation, "order": []}
        _, seen, _ = self._failing_check(runner, tmp_path, monkeypatch, doc)
        assert seen == {f"U={{{', '.join(labels)}}} with too many opens to count"}

    def test_exclusive_flags(self, runner, example_doc):
        result = runner.invoke(
            main, ["check", str(example_doc), "--exhaustive", "--samples", "5"]
        )
        assert result.exit_code == EXIT_INPUT_ERROR

    def test_samples_above_the_cap_exit_before_any_draw(self, runner, example_doc, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            cli.oracle, "check_propositions", lambda g, **kw: drawn.append(kw["samples"]) or []
        )
        result = runner.invoke(main, ["check", str(example_doc), "--samples", "65536"])
        assert result.exit_code == 0
        for samples in ("65537", str(10**12)):
            result = runner.invoke(main, ["check", str(example_doc), "--samples", samples])
            assert result.exit_code == EXIT_INPUT_ERROR
            assert result.stderr == "error: --samples must be at most 65536\n"
        assert drawn == [65536]

    def test_corrupted_fixture_mode_fails(self, runner, tmp_path):
        doc = write_doc(tmp_path, PROBE_DOC)
        result = runner.invoke(main, ["check", doc, "--exhaustive", "--corrupt-gamma"])
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
  {"id": "3.21", "instances": 2, "pass": false, "violations": [{"space": "U={a, b, c} with 5 opens", "detail": "Inc: A={a}: gamma upper {a, c} not within semi upper {a}"}]},
  {"id": "3.23", "instances": 8, "pass": true, "violations": []},
  {"id": "3.25", "instances": 2, "pass": false, "violations": [{"space": "U={a, b, c} with 5 opens", "detail": "Inc: A={a}: boundary gamma {c} not within boundary S {}"}]},
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
  {"id": "3.9", "instances": 2, "pass": false, "violations": [{"space": "U={a, b, c} with 5 opens", "detail": "Inc: A={a}: pre upper within gamma upper: {a, c} not within {a}"}]},
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
  {"id": "3.21", "instances": 3, "pass": false, "violations": [{"space": "U={a, b, c, d, e, f, g, h} with 129 opens", "detail": "Inc: A={a, b, d, h}: gamma upper {a, b, c, d, h} not within semi upper {a, b, d, h}"}]},
  {"id": "3.23", "instances": 64, "pass": true, "violations": []},
  {"id": "3.25", "instances": 3, "pass": false, "violations": [{"space": "U={a, b, c, d, e, f, g, h} with 129 opens", "detail": "Inc: A={a, b, d, h}: boundary gamma {c} not within boundary S {}"}]},
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
def test_check_output_bytes(runner, tmp_path, doc, args, expected):
    result = runner.invoke(main, ["check", write_doc(tmp_path, doc), *args])
    assert result.exit_code == EXIT_CHECK_FAILED
    assert result.stderr == ""
    assert result.stdout == expected


class TestOracleDiffCommand:
    def test_worked_example(self, runner, example_doc):
        result = runner.invoke(main, ["oracle-diff", str(example_doc)])
        assert result.exit_code == 0
        assert result.output == "0 mismatches / 64 comparisons\n"

    def test_singleton_universe(self, runner, tmp_path):
        doc = write_doc(tmp_path, {"universe": ["x"], "base": [], "order": []})
        result = runner.invoke(main, ["oracle-diff", doc])
        assert result.exit_code == 0
        assert result.output == "0 mismatches / 8 comparisons\n"

    def test_default_cap_admits_eleven_points(self, runner, tmp_path):
        labels = [f"e{i}" for i in range(11)]
        doc = write_doc(tmp_path, {
            "universe": labels,
            "base": [labels[:4], labels[2:7], labels[6:]],
            "order": [[labels[i], labels[i + 1]] for i in range(0, 10, 2)],
        })
        result = runner.invoke(main, ["oracle-diff", doc])
        assert result.exit_code == 0
        assert result.output == "0 mismatches / 8192 comparisons\n"

    def test_default_cap_rejects_twelve_points(self, runner, tmp_path):
        doc = write_doc(
            tmp_path,
            {"universe": [f"e{i}" for i in range(12)], "base": [], "order": []},
        )
        result = runner.invoke(main, ["oracle-diff", doc])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert result.stderr == "error: universe size 12 exceeds the oracle cap 11\n"


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
        with pytest.raises(DocumentError, match="line 2"):
            parse_document('{\n  "universe": [,]\n}', source="bad.json")

    def test_relation_and_base_are_exclusive(self):
        with pytest.raises(DocumentError, match="exactly one"):
            parse_document(json.dumps({
                "universe": ["a"], "base": [], "relation": [], "order": [],
            }))
        with pytest.raises(DocumentError, match="exactly one"):
            parse_document(json.dumps({"universe": ["a"], "order": []}))

    def test_unknown_field_rejected(self):
        with pytest.raises(DocumentError, match="unknown field"):
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

    def test_auto_reflexive_off_requires_loops(self, runner, tmp_path):
        doc = write_doc(tmp_path, {
            "universe": ["a", "b"],
            "base": [],
            "order": [["a", "b"]],
            "options": {"auto_reflexive": False},
        })
        result = runner.invoke(main, ["topology", doc])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "reflexivity" in result.stderr

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["topology", "no-such-file.json"])
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
    (json.dumps({**_VALID, "relation": []}),
     "doc.json: exactly one of 'relation' or 'base' is required"),
    (json.dumps({"universe": ["a"], "order": []}),
     "doc.json: exactly one of 'relation' or 'base' is required"),
    (json.dumps({"universe": ["a"], "relation": {}, "order": []}),
     "field 'relation' must be a list of label pairs"),
    (json.dumps({"universe": ["a"], "relation": [["a", "a"], ["a"]], "order": []}),
     "field 'relation': ['a'] is not a pair of labels"),
    (json.dumps({**_VALID, "base": "a"}),
     "doc.json: field 'base' must be a list of label lists"),
    (json.dumps({**_VALID, "base": [["a"], ["b", 2]]}),
     "doc.json: field 'base': ['b', 2] is not a label list"),
    (json.dumps({"universe": ["a"], "base": []}), "doc.json: field 'order' is required"),
    (json.dumps({**_VALID, "order": None}), "field 'order' must be a list of label pairs"),
    (json.dumps({**_VALID, "order": [["a", "b"], ["a", "b", "c"]]}),
     "field 'order': ['a', 'b', 'c'] is not a pair of labels"),
    (json.dumps({**_VALID, "order": [["a", None]]}),
     "field 'order': ['a', None] is not a pair of labels"),
    (json.dumps({**_VALID, "options": []}), "doc.json: field 'options' must be an object"),
    (json.dumps({**_VALID, "options": {"strict": True}}), "doc.json: unknown option 'strict'"),
    (json.dumps({**_VALID, "options": {"auto_reflexive": 1}}),
     "doc.json: option 'auto_reflexive' must be a boolean"),
])
def test_parse_document_error_text(text, message):
    with pytest.raises(DocumentError) as err:
        parse_document(text, source="doc.json")
    assert str(err.value) == message


def test_parse_document_returns_the_object_with_options_defaulted():
    assert parse_document(json.dumps(_VALID)) == {**_VALID, "options": {"auto_reflexive": True}}
    off = {**_VALID, "options": {"auto_reflexive": False}}
    assert parse_document(json.dumps(off)) == off
