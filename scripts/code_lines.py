#!/usr/bin/env python3
"""Count the lines of the package and the scripts that hold code.

    python scripts/code_lines.py

A line counts when it holds a Python token. Blank lines, comment-only lines
and module, class and function docstrings do not count; every line of any
other string spanning lines does. Prints one line per file of
``src/svcim/*.py`` and ``scripts/*.py``, a subtotal per directory and the
total. The count is informational: it gates nothing.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/svcim", "scripts")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module, its classes and functions."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for rel in DIRS:
        subtotal = 0
        for path in sorted((ROOT / rel).glob("*.py")):
            n = code_lines(path.read_text())
            subtotal += n
            print(f"{n:6d}  {rel}/{path.name}")
        print(f"{subtotal:6d}  {rel}/ (all)")
        total += subtotal
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
