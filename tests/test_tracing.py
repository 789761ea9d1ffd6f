"""The traced benchmark run wraps the layer boundaries of ``gotas`` from
outside (``perfbench/tracing.py``). A refactor that renames or bypasses one
of those boundaries would leave its layer reading 0 without any error, so
this runs one request of each kind through the installed tracer."""

import importlib.util
import json
import os
import subprocess
import sys

import gotas.approximations as approx
from gotas import cli, oracle

from cli_invoke import invoke
from conftest import EXAMPLE_DOC, REPO_ROOT


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# perfbench's traced run takes the modules it patches from sys.modules before
# any check has run, so `gotas.oracle` must be there while still unloaded.
_TRACE_FRESH = """\
import importlib.util, json, sys
from gotas import cli
from cli_invoke import invoke

modules = cli, sys.modules["gotas.oracle"], sys.modules["gotas.approximations"]
spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install(*modules)
try:
    codes = [tracer.request(invoke, args).exit_code
             for args in (["topology", DOC], ["analyze", DOC, "--set", "a,c"])]
finally:
    tracer.uninstall()
print(json.dumps({"codes": codes, "records": tracer.records}))
"""


def test_a_fresh_process_traces_before_the_oracle_loads():
    code = (_TRACE_FRESH.replace("TRACING", repr(str(REPO_ROOT / "perfbench" / "tracing.py")))
            .replace("DOC", repr(str(EXAMPLE_DOC))))
    path = os.pathsep.join(filter(None, (str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"),
                                         os.environ.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["codes"] == [0, 0]
    assert len(out["records"]) == 2
    for record in out["records"]:
        assert record["topology.opens"] == 6
        assert record["order.pairs"] == 9


def test_tracer_sees_every_layer():
    tracer = _load_tracing().Tracer()
    results = []
    tracer.install(cli, oracle, approx)
    try:
        for args in (
            ["topology", str(EXAMPLE_DOC)],
            ["analyze", str(EXAMPLE_DOC), "--set", "a,c"],
            ["check", str(EXAMPLE_DOC), "--exhaustive"],
            ["oracle-diff", str(EXAMPLE_DOC)],
        ):
            results.append(tracer.request(invoke, args))
    finally:
        tracer.uninstall()
    assert [r.exit_code for r in results] == [0, 0, 0, 0]
    assert cli.full_report is approx.full_report  # originals restored

    topology, analyze, check, diff = tracer.records
    for record in tracer.records:
        assert record["topology.build_ms"] > 0
        assert record["topology.opens"] == 6
        assert record["order.validate_ms"] > 0
        assert record["order.pairs"] == 9
    assert "approximations.base_calls" not in topology
    assert analyze["approximations.report_ms"] > 0
    # A row table derives each family's rows once, both directions at once
    # on the direction sum, so the ten rows of analyze take 24 base calls and
    # the exhaustive check 26; deriving every region or law value on its own
    # takes 72 and 528. The count takes in the calls that the row table's
    # memo answers, since batches keep no folds: the check folds 8 times.
    assert analyze["approximations.base_calls"] == 24
    assert check["oracle.law_instances"] > 0
    assert check["approximations.base_calls"] == 26
    # oracle-diff runs each base operator once, on the powerset doubled over
    # the direction sum; one call per subset and direction would take 64.
    assert diff["oracle.diff_ms"] > 0
    assert diff["approximations.base_calls"] == 2


def test_analyze_builds_only_the_family_it_prints():
    # Beta's lower and upper make three base calls each; all five families
    # make 24. --direction still builds both directions, which cost one call.
    tracer = _load_tracing().Tracer()
    tracer.install(cli, oracle, approx)
    try:
        for filters in ([], ["--family", "beta"], ["--family", "beta", "--direction", "dec"]):
            tracer.request(invoke, ["analyze", str(EXAMPLE_DOC), "--set", "a,c", *filters])
    finally:
        tracer.uninstall()
    assert [r["approximations.base_calls"] for r in tracer.records] == [24, 6, 6]
    assert all(r["approximations.report_ms"] > 0 for r in tracer.records)
