import importlib

from gotas.oracle import PROPOSITION_IDS

from conftest import REPO_ROOT


def test_sweep_prints_one_line_per_law(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "scripts"))
    sweep = importlib.import_module("random_sweep")
    code = sweep.run(sweep.SweepConfig(count=6, sizes=(3, 4)))
    header, *laws = capsys.readouterr().out.splitlines()
    assert code == 0
    assert header.startswith("6 spaces, sizes (3, 4), seed 0, ")
    assert [line.split()[0] for line in laws] == list(PROPOSITION_IDS)
    assert all(line.endswith("failed on 0 spaces") for line in laws)
