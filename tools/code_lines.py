"""Count the code lines of each src/numrad module.

A code line is a source line that holds at least one token other than a
comment, and that is not part of a docstring (the leading string of a
module, class or function).  Blank lines are never counted.  Standard
library only; run from anywhere:

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the src/numrad beside this script, so another
checkout's package can be counted with this script.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "numrad"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            doc = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            if doc and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    package = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:24} {count:5}")
    print(f"{'total':24} {total:5}")


if __name__ == "__main__":
    main()
