"""The CLI run in process with its streams captured.

This module needs neither pytest nor hypothesis, so the digest corpus of
``test_cli_digests.py`` also runs as a plain script, under any Python that
``gotas`` supports.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from gotas import cli


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def invoke(args: list[str]) -> CliResult:
    """Runs ``cli.main(args)`` in process with stdout and stderr captured.
    Only the SystemExit that ends every run is caught: any other exception
    propagates, and a run that returns raises AssertionError."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(args)
        except SystemExit as exit_:
            code = exit_.code
        else:
            raise AssertionError("cli.main returned without SystemExit")
    return CliResult(code, out.getvalue(), err.getvalue())
