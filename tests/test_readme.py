"""The README against the code: its quick start and commands run as
written, and every identifier and repository path it names exists."""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex

import pytest

import gotas
from gotas.cli import main

from conftest import REPO_ROOT

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
SUBMODULES = {m.name for m in pkgutil.iter_modules(gotas.__path__)}


def _block(language: str, marker: str) -> str:
    """The first fenced ``language`` block of the README that holds ``marker``."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)
    return next(b for b in blocks if marker in b)


def test_quick_start_prints_what_its_comment_says():
    code = _block("python", "print(")
    printed = next(line for line in code.splitlines() if line.startswith("print("))
    expected = printed.partition("#")[2].strip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected
    assert out.getvalue().strip() == expected


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in _block("sh", "gotas ").splitlines() if line.startswith("gotas ")]
# Every command but sweep names its FILE first.
ON_FILES = [a for a in COMMANDS if a[0] != "sweep"]


@pytest.mark.parametrize("args", [a for a in ON_FILES if (REPO_ROOT / a[1]).is_file()],
                         ids=" ".join)
def test_each_command_on_a_repository_file_exits_0(args, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 0, capsys.readouterr()


def test_only_the_placeholder_document_is_skipped():
    skipped = [a[1] for a in ON_FILES if not (REPO_ROOT / a[1]).is_file()]
    assert skipped == ["big-space.json"]


def test_the_sweep_example_finds_criterion_3s_failures_and_exits_1(capsys):
    (args,) = [a for a in COMMANDS if a[0] == "sweep"]
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 1
    counts = {line.split()[0]: int(line.split()[3])
              for line in capsys.readouterr().out.splitlines() if " failed on " in line}
    assert {law: n for law, n in counts.items() if n} == {"3.21": 5, "3.25": 5}


NAMES = sorted({m for span in re.findall(r"`([^`\n]+)`", README)
                for m in re.findall(r"^\w+(?:\.\w+)+", span)
                if m.split(".")[0] in SUBMODULES | set(gotas.__all__)})


def test_the_readme_names_identifiers():
    assert {"oracle.POWERSET_CAP", "cli.MAX_SAMPLES", "cli.MAX_POINTS", "cli.MAX_OPENS",
            "oracle.open_upper_failure"} <= set(NAMES)


@pytest.mark.parametrize("dotted", NAMES)
def test_every_named_identifier_resolves(dotted):
    head, *rest = dotted.split(".")
    obj = importlib.import_module(f"gotas.{head}") if head in SUBMODULES else getattr(gotas, head)
    for name in rest:
        obj = getattr(obj, name)


CAPS = re.findall(r"^\| `(\w+)\.(\w+)` \|\D*(\d+)",
                  README.partition("\n## Caps\n")[2].partition("\n## ")[0], re.M)


def test_each_cap_row_gives_its_constant_as_its_first_integer():
    assert len(CAPS) == 4
    for module, name, value in CAPS:
        assert getattr(importlib.import_module(f"gotas.{module}"), name) == int(value), name


PATHS = sorted(set(re.findall(
    r"\b(?:src|tests|perfbench|examples)/(?:[\w./-]*\w)?(?:::\w+)*"
    r"|\b[A-Z][A-Z0-9_]*\.(?:md|json)\b", README)))


def test_the_readme_names_paths():
    assert {"examples/ex-3-24.json", "perfbench/", "tests/test_oracle.py",
            "BENCH_38.json"} <= set(PATHS)


@pytest.mark.parametrize("path", PATHS)
def test_every_named_path_exists(path):
    file, *names = path.split("::")
    assert (REPO_ROOT / file).exists()
    for name in names:  # a test named as file::Class::test
        assert re.search(rf"^\s*(?:def|class) {name}\b", (REPO_ROOT / file).read_text(),
                         re.M), name
