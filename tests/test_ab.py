"""Smoke tests for tools/ab.py, the paired A/B of one benchmark workload."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import copula_ot

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
SRC = Path(copula_ot.__file__).resolve().parents[1]


def ab(old: Path, new: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--workload", workload, "--seeds", "1", "--pairs", "1"],
        capture_output=True, text=True, timeout=300,
    )


def patched_tree(tmp_path: Path, module: str, patch: str) -> Path:
    """A copy of the package whose ``module`` ends with ``patch``."""
    shutil.copytree(SRC / "copula_ot", tmp_path / "copula_ot", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "copula_ot" / module, "a", encoding="utf-8") as source:
        source.write(patch)
    return tmp_path


@pytest.mark.parametrize(
    "workload, unit, equal",
    [
        ("desk-certify", "op", "outputs bitwise equal on every op"),
        ("dist1d-w1-area", "spawn", "stdout byte-identical on every spawn"),
    ],
    ids=["desk-certify", "dist1d-w1-area"],
)
def test_one_pair_of_the_same_tree_on_both_sides(workload, unit, equal):
    run = ab(SRC, SRC, workload)
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()
    assert rows[0].split() == ["workload", workload, "pairs", "1", "times", "per", unit]
    assert rows[2].split()[0] == "1" and rows[2].endswith("/1")  # seed 1, one pair
    assert rows[-1] == equal


def test_a_last_bit_difference_in_a_desk_output_fails_the_run(tmp_path):
    new = patched_tree(
        tmp_path,
        "__init__.py",
        "\n_transport_cost = transport_cost\n"
        "def transport_cost(coupling, p, q=None):\n"
        "    return _transport_cost(coupling, p, q) + 2.0**-40\n",
    )
    run = ab(SRC, new, "desk-certify")
    assert run.returncode == 1
    assert "outputs differ" in run.stdout and "plan_cost" in run.stdout


def test_a_last_bit_difference_in_a_cli_stdout_fails_the_run(tmp_path):
    # the CLI imports w1_cdf_area from distances, so the module's last binding is the one it runs
    new = patched_tree(
        tmp_path,
        "distances.py",
        "\n_w1_cdf_area = w1_cdf_area\n"
        "def w1_cdf_area(f, g):\n"
        "    area = _w1_cdf_area(f, g).value_pth_power + 2.0**-40\n"
        "    return DistanceReport((area, area), 1.0, 1.0, METHOD_CDF_AREA)\n",
    )
    run = ab(SRC, new, "dist1d-w1-area")
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1] == "seed 1 warm-up: stdout differs"
