"""Total and code lines of ``src/``, by one rule.

A code line is a line that holds a token other than a comment, where the
module, class and function docstrings count as no token. The size records
(``BENCH_*.json``, the ROADMAP's size item) count by this rule.

``python tests/test_line_counts.py`` prints the two totals. As a test, it
checks the rule on a small snippet. This file lives under ``tests/``, so it
adds nothing to the lines it counts.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOTS = ("src",)
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token other than a comment, less
    the lines of its module, class and function docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NO_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def counts(root: Path) -> tuple[int, int]:
    """(total lines, code lines) of the Python files under ``ROOTS`` in ``root``."""
    total = code = 0
    for top in ROOTS:
        for path in sorted((root / top).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            total += len(source.splitlines())
            code += code_lines(source)
    return total, code


_SNIPPET = '''\
"""Module docstring,
two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a string that is
no docstring"""

    def f(self):
        """Function docstring."""
        return (1,
                # a comment inside brackets
                2)
'''


def test_code_lines_skip_comments_blanks_and_docstrings():
    # import, class, x's two lines, def, and return's first and third lines.
    assert code_lines(_SNIPPET) == 7


if __name__ == "__main__":
    total, code = counts(Path(__file__).resolve().parent.parent)
    print(f"src/: {total} lines, {code} code lines")
