"""Count the code lines of the package: per module, then the total.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/mycdist. A code line is a line that is not
blank, not only a comment and not part of a docstring: the string that
opens a module, class or function body. Modules are listed by name.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for no, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#")
               and no not in docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else ROOT / "src" / "mycdist"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>5}")
    print(f"{'total':<20} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
