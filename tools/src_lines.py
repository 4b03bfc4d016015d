"""Line counts of the package's modules: total, docstring and code lines.

    python3 tools/src_lines.py [DIR]

DIR defaults to ``src/`` of this repository; every ``*.py`` file under it is
counted. Docstring lines are the lines that the docstrings of the module and
of every class and function span, found with ``ast``; a string that is not
the first statement of its body is code. Code lines are the rest of the
file's lines, blank lines and comments included.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> int:
    """Lines spanned by the docstrings of the module, its classes and its
    functions (nested ones too)."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            count += doc.end_lineno - doc.lineno + 1
    return count


def count(path: Path) -> tuple[int, int]:
    """(total, docstring) lines of one file."""
    source = path.read_text()
    return len(source.splitlines()), docstring_lines(source)


def main(argv: list[str]) -> int:
    top = Path(argv[0]) if argv else ROOT / "src"
    rows = [(p.relative_to(top), *count(p)) for p in sorted(top.rglob("*.py"))]
    total = sum(r[1] for r in rows)
    docs = sum(r[2] for r in rows)
    print(f"{'module':40} {'total':>6} {'doc':>6} {'code':>6}")
    for name, lines, doc in rows + [("all", total, docs)]:
        print(f"{str(name):40} {lines:6d} {doc:6d} {lines - doc:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
