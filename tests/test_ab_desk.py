"""Smoke tests for tools/ab_desk.py, the in-process A/B of the desk op."""

import shutil
import subprocess
import sys
from pathlib import Path

import copula_ot

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_desk.py"
SRC = Path(copula_ot.__file__).resolve().parents[1]


def ab(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--seeds", "1", "--blocks", "1"],
        capture_output=True, text=True, timeout=300,
    )


def test_one_block_of_the_same_tree_on_both_sides():
    run = ab(SRC, SRC)
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()
    assert rows[1].split()[0] == "1" and rows[1].endswith("/1")  # seed 1, one block
    assert rows[-1] == "outputs bitwise equal on every op"


def test_a_last_bit_difference_fails_the_run(tmp_path):
    shutil.copytree(SRC / "copula_ot", tmp_path / "copula_ot", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "copula_ot" / "__init__.py", "a", encoding="utf-8") as init:
        init.write(
            "\n_transport_cost = transport_cost\n"
            "def transport_cost(coupling, p, q=None):\n"
            "    return _transport_cost(coupling, p, q) + 2.0**-40\n"
        )
    run = ab(SRC, tmp_path)
    assert run.returncode == 1
    assert "outputs differ" in run.stdout and "plan_cost" in run.stdout
