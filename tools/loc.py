"""Lines and code lines per module of a package directory, plus totals.

    python3 tools/loc.py src/copula_ot

Code lines leave out blank lines, comment-only lines and docstrings (the
first string statement of a module, class or function), however many lines
each spans.
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    lines = source.splitlines()
    skip = {n for n, line in enumerate(lines, 1) if not line.strip() or line.lstrip().startswith("#")}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            skip.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines), len(lines) - len(skip)


def main(package: str) -> None:
    totals = [0, 0]
    for path in sorted(Path(package).glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals = [totals[0] + lines, totals[1] + code]
        print(f"{path.name:<24}{lines:>7}{code:>7}")
    print(f"{'total':<24}{totals[0]:>7}{totals[1]:>7}")


if __name__ == "__main__":
    main(sys.argv[1])
