"""The CLI's digest corpus under the other Pythons that ``requires-python``
admits. For each of python3.10, python3.12 and python3.13 on PATH that
reports that version, ``test_cli_digests.py --check`` runs in a subprocess
on this checkout's ``src/`` and must find no mismatched case; an absent
interpreter is skipped."""

import os
import shutil
import subprocess

import pytest

from conftest import REPO_ROOT

_VERSION = "import sys; print('%d.%d' % sys.version_info[:2])"


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_the_digest_corpus_matches_under_python(version, tmp_path):
    python = shutil.which(f"python{version}")
    reported = python and subprocess.run([python, "-c", _VERSION], capture_output=True, text=True)
    if not reported or reported.stdout.strip() != version:
        pytest.skip(f"no python{version} on PATH")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([python, str(REPO_ROOT / "tests" / "test_cli_digests.py"), "--check"],
                            capture_output=True, text=True, cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith(" cases, 0 mismatches\n"), result.stdout
