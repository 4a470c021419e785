"""Count the code lines of Python modules: lines that are not blank, not
comments and not docstrings.

A line counts when a token other than a comment or a line break covers it,
so each line of a multi-line expression or string counts; the lines of a
module's, class's or function's docstring do not.  Prints one line per
module and the total, and gates nothing.  Not a test module, so pytest does
not collect it.

Usage: python3 tests/code_lines.py [path ...]   (default: src/cglogic)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the source of one module."""
    covered = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            covered.update(range(token.start[0], token.end[0] + 1))
    return len(covered - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parents[1] / "src" / "cglogic"]
    files = sorted(f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p]))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
