"""Code lines per module of ``src/fetexpm``, the measure BENCH_*.json ``code_lines`` report.

Run from the root of a checkout:

    python tests/code_lines.py

A code line is a line that holds a Python token other than a comment, a
newline or indentation, and is not part of a module, class or function
docstring (found with ``ast``).  Blank lines, comment-only lines and
docstrings are not counted.  It prints one ``<module> <lines>`` line per
module and a ``total`` line.  pytest does not collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(root: Path) -> None:
    total = 0
    for path in sorted((root / "src" / "fetexpm").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
