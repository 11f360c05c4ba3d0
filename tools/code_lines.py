"""Count code-only lines per module of the ``repcur`` package.

A code line carries at least one token that is not a comment; blank lines,
comment lines and docstring lines (the leading string statement of a module,
class or function, found with ``ast``) do not count.  Lines are read with
``tokenize``, so a multi-line expression counts every line it spans.

Usage: python tools/code_lines.py [CHECKOUT]  (default: the current directory)
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


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code-only lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else ".") / "src" / "repcur"
    modules = sorted(root.glob("*.py"))
    if not modules:
        print(f"no modules under {root}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
