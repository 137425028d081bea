"""Count the code lines of Python modules.

A code line is a physical line that holds a token other than a comment or
whitespace (indentation, line breaks), outside every docstring: the string
literal that opens a module, a class or a function.  A statement spread
over three lines counts three; a string literal that is not a docstring
counts every line it spans.

    python tests/code_lines.py [path ...]

Each path is a module or a directory whose ``*.py`` modules are counted
(default: the package under ``src/``).  Prints one count per module and
their total.  It reports; it gates nothing.  Standard library only.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "herglotz"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the module text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths=()):
    modules = sorted(
        module
        for path in map(Path, paths or [_PACKAGE])
        for module in (path.glob("*.py") if path.is_dir() else [path])
    )
    total = 0
    for module in modules:
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {os.path.relpath(module)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
