"""Smoke tests for tools/ab_cli.py, the spawned A/B of a CLI workload."""

import shutil
import subprocess
import sys
from pathlib import Path

import copula_ot

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_cli.py"
SRC = Path(copula_ot.__file__).resolve().parents[1]


def ab(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--workload", "dist1d-w1-area", "--seed", "1", "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )


def test_one_pair_of_the_same_tree_on_both_sides():
    run = ab(SRC, SRC)
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()
    assert rows[0].split() == ["workload", "dist1d-w1-area", "seed", "1", "pairs", "1"]
    assert [row.split()[0] for row in rows[2:4]] == ["old", "new"]
    assert rows[-2].endswith("/1 pairs")
    assert rows[-1] == "stdout byte-identical on every pair"


def test_a_last_bit_difference_fails_the_run(tmp_path):
    shutil.copytree(SRC / "copula_ot", tmp_path / "copula_ot", ignore=shutil.ignore_patterns("__pycache__"))
    # the CLI imports w1_cdf_area from distances, so the module's last binding is the one it runs
    with open(tmp_path / "copula_ot" / "distances.py", "a", encoding="utf-8") as module:
        module.write(
            "\n_w1_cdf_area = w1_cdf_area\n"
            "def w1_cdf_area(f, g):\n"
            "    area = _w1_cdf_area(f, g).value_pth_power + 2.0**-40\n"
            "    return DistanceReport((area, area), 1.0, 1.0, METHOD_CDF_AREA)\n"
        )
    run = ab(SRC, tmp_path)
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "warm-up: stdout differs"
