#!/usr/bin/env python3
"""Code lines of each module under ``src/jumpseq`` and their total.

A code line is a non-blank line that holds some token outside comments
and docstrings: a line that is only a comment, only part of a module,
class or function docstring, or blank does not count, and a statement
spread over several lines counts each of them.

Usage:

    python3 scripts/code_lines.py [DIR]

prints one ``<lines> <module>`` row per ``*.py`` file under DIR (default
``src/jumpseq``), sorted by path, and a ``<lines> total`` row.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docstrings)
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    top = pathlib.Path(args[0]) if args else ROOT / "src" / "jumpseq"
    total = 0
    for path in sorted(top.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%5d %s" % (n, path.relative_to(top)))
    print("%5d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
