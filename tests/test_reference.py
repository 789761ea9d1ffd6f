"""The benchmark's independent reference judges the law checker: seeded
`sweep` and `verify` requests from ``perfbench/inputs.py`` run through the
CLI, and ``perfbench/checks.py`` accepts every answer. Those files import
nothing from ``gotas``; they are loaded here read-only, as
``tests/test_tracing.py`` loads the tracer."""

import importlib.util
import json
import sys

import pytest

from conftest import REPO_ROOT, invoke


def _load(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    # checks.py and inputs.py import the reference as a top-level module.
    names = ("reference", "checks", "inputs")
    saved = {name: sys.modules.get(name) for name in names}
    try:
        yield tuple(_load(name) for name in names)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _requests(inputs, workload, seed, rounds, kind):
    return [req for rnd in inputs.make_rounds(workload, seed, rounds) for req in rnd
            if req.kind == kind]


def test_reference_accepts_sweep_and_sampled_checks(perfbench, tmp_path):
    reference, checks, inputs = perfbench
    # Seed 12 includes a failing exhaustive and a failing sampled check, so
    # the reference also judges instance counts and witnesses.
    requests = _requests(inputs, "sweep", 12, 10, "check")
    requests += _requests(inputs, "verify", 12, 3, "sample")
    assert len(requests) == 13
    codes = []
    for req in requests:
        path = tmp_path / req.name
        path.write_text(json.dumps(req.doc))
        result = invoke([req.args[0], str(path), *req.args[1:]])
        error = checks.check(req, reference.Space(req.doc), result.exit_code, result.stdout)
        assert error is None, f"{req.name} {' '.join(req.args)}: {error}"
        codes.append(result.exit_code)
    assert codes.count(1) == 2
