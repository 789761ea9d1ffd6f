"""Tests of the benchmark itself: the reference, the inputs, the output
checks and the run's failure modes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
from reference import Space

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _requests(workload: str, seed: int, rounds: int):
    return [req for rnd in inputs.make_rounds(workload, seed, rounds) for req in rnd]


@pytest.fixture(scope="module")
def program():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return run.load_program()


def _answer(program, req, tmp_path: Path) -> tuple[int, str]:
    path = tmp_path / req.name
    path.write_text(json.dumps(req.doc))
    return run.invoke(program, [req.args[0], str(path), *req.args[1:]])


def test_reference_reproduces_worked_example():
    space = Space(json.loads((ROOT / "examples" / "ex-3-24.json").read_text()))
    assert len(space.opens) == 6
    ac = space.mask("ac")
    beta = space.row(ac, "beta", "Dec")
    assert (beta["lower"], beta["upper"], beta["accuracy"]) == (["a", "c"], ["a", "b", "c"], "2/3")
    gamma = space.row(ac, "gamma", "Dec")
    assert (gamma["upper"], gamma["accuracy"]) == (["a", "b", "c", "d"], "1/2")


def test_benchmark_modules_import_nothing_from_gotas():
    code = ("import sys, checks, inputs, reference; "
            "sys.exit(any(m.split('.')[0] == 'gotas' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


def test_inputs_depend_only_on_the_seed():
    first = [(r.args, r.doc) for r in _requests("load", 7, 2)]
    assert first == [(r.args, r.doc) for r in _requests("load", 7, 2)]
    assert first != [(r.args, r.doc) for r in _requests("load", 8, 2)]


@pytest.mark.parametrize("workload", ["sweep", "verify", "load"])
def test_checks_accept_the_program_answers(workload, program, tmp_path):
    for req in _requests(workload, 3, 2):
        code, out = _answer(program, req, tmp_path)
        assert checks.check(req, Space(req.doc), code, out) is None


def test_exhaustive_check_agrees_on_a_failing_law(program, tmp_path):
    failing = next(r for r in _requests("sweep", 1, 40)
                   if Space(r.doc).first_violation("3.21") is not None)
    code, out = _answer(program, failing, tmp_path)
    assert code == 1
    assert checks.check(failing, Space(failing.doc), code, out) is None
    payload = json.loads(out)
    for p in payload["propositions"]:
        if p["id"] == "3.21":
            p["pass"], p["violations"] = True, []
            p["instances"] = 32
    assert checks.check(failing, Space(failing.doc), code, json.dumps(payload)) is not None


def test_corrupted_analyze_row_is_reported_as_failed(program, tmp_path):
    req = next(r for r in _requests("load", 3, 1) if r.kind == "analyze")
    code, out = _answer(program, req, tmp_path)
    payload = json.loads(out)
    row = payload["rows"][7]  # gamma Dec
    row["upper"] = [x for x in req.doc["universe"] if x not in row["upper"]][:1] + row["upper"]
    bench = run.Run("load", 3, 1, False)
    bench.verify(req, code, out)
    assert bench.errors == []
    bench.verify(req, code, json.dumps(payload))
    assert len(bench.errors) == 1 and "gamma Dec" in bench.errors[0]


def test_corrupted_topology_listing_is_reported(program, tmp_path):
    req = next(r for r in _requests("load", 3, 1) if r.kind == "topology")
    code, out = _answer(program, req, tmp_path)
    lines = out.splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    assert "line 2" in checks.check(req, Space(req.doc), code, "\n".join(lines) + "\n")


@pytest.mark.parametrize("n", [40, 66, 105, 168])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = [float(i) for i in range(1, n + 1)]
    pct, value = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 100 * (n - 10) // n


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
