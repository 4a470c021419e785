"""Count the code lines of Python modules: lines that are not blank, not
comments and not docstrings.

A line counts when a token other than a comment or a line break covers it,
so each line of a multi-line expression or string counts; the lines of a
module's, class's or function's docstring do not.  Prints one line per
module and the total, and gates nothing.  Not a test module, so pytest does
not collect it.

A directory path stands for the .py files directly in it.  With ``--rev REV``
the modules are read as of that git revision (``git ls-tree`` and ``git
show``) instead of from the working tree, so before and after counts come
from one command each.

Usage: python3 tests/code_lines.py [--rev REV] [path ...]   (default: src/cglogic)
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout


def modules(paths: list[Path], rev: str | None) -> list[tuple[str, str]]:
    """(name, source) of each module under paths, from the working tree or
    as of git revision rev."""
    if rev is None:
        files = sorted(f for p in paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p]))
        return [(str(f), f.read_text(encoding="utf-8")) for f in files]
    wanted = [p.resolve().relative_to(ROOT).as_posix() for p in paths]
    listed = _git("ls-tree", "-r", "--name-only", rev, "--", *wanted).splitlines()
    names = [n for n in listed if n.endswith(".py") and (n in wanted or n.rpartition("/")[0] in wanted)]
    return [(f"{rev}:{n}", _git("show", f"{rev}:{n}")) for n in sorted(names)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python modules.")
    parser.add_argument("--rev", help="read the modules as of this git revision")
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "cglogic"])
    args = parser.parse_args(argv)
    total = 0
    for name, source in modules(args.paths, args.rev):
        count = code_lines(source)
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
