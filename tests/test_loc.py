"""Smoke test for tools/loc.py, the per-module line counter."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

MODULE = '''"""A module docstring
over two lines."""

import math

# a comment line


def f(x):
    """One docstring line."""
    y = """a string that is code,
not a docstring"""
    return math.sqrt(x)  # a trailing comment keeps its line


class C:
    """A class docstring
    over three
    lines."""

    z = 1
'''


def test_counts_a_synthetic_package(tmp_path):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    # a.py: 21 lines; code: import, def, the two-line string, return, class, z = 1
    assert [row.split() for row in run.stdout.splitlines()] == [
        ["a.py", "21", "7"],
        ["b.py", "3", "1"],
        ["total", "24", "8"],
    ]
