import importlib

import pytest

from gotas.oracle import POWERSET_CAP, PROPOSITION_IDS

from conftest import REPO_ROOT


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "scripts"))
    return importlib.import_module("random_sweep")


def test_sweep_prints_one_line_per_law(capsys, sweep):
    code = sweep.run(sweep.SweepConfig(count=6, sizes=(3, 4)))
    header, *laws = capsys.readouterr().out.splitlines()
    assert code == 0
    assert header.startswith("6 spaces, sizes (3, 4), seed 0, ")
    assert [line.split()[0] for line in laws] == list(PROPOSITION_IDS)
    assert all(line.endswith("failed on 0 spaces") for line in laws)


def test_sweep_runs_six_point_spaces(capsys, sweep):
    # Sizes above the worked example's and the acceptance sweep's 3-5.
    code = sweep.main(["--count", "3", "--sizes", "6", "--show-witnesses", "0"])
    header, *laws = capsys.readouterr().out.splitlines()
    assert code == 0
    assert header.startswith("3 spaces, sizes (6,), seed 0, ")
    assert [line.split()[0] for line in laws] == list(PROPOSITION_IDS)
    assert all(line.endswith("failed on 0 spaces") for line in laws)


def test_size_above_the_cap_is_a_usage_error(capsys, sweep):
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(["--sizes", f"3,{POWERSET_CAP + 1}"])
    assert exit_info.value.code == 2
    message = f"sizes must lie within 1-{POWERSET_CAP}: 3,{POWERSET_CAP + 1}"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--count", "0"], "argument --count: must be at least 1: 0"),
    (["--count", "-5"], "argument --count: must be at least 1: -5"),
    (["--show-witnesses", "-1"], "argument --show-witnesses: must be at least 0: -1"),
])
def test_count_below_one_or_negative_witnesses_is_a_usage_error(capsys, sweep, args, message):
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(args)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
