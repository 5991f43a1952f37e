"""Workload inputs and the correctness checks every op must pass.

Inputs are drawn from ``numpy.random.default_rng(seed)`` only, so one seed
always gives the same files and pairs. The references here never call the
package under test: the CLI workloads compare against sorted-sample means
(and scipy on the W_1 workload), and ``desk-certify`` compares each closed
form against the dual-certified LP value computed in the same op.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

# The acceptance suite's tolerance and its relative-gap definition.
TOLERANCE = 1e-9

# desk-certify cycles through this many pairs; the multiset of (m, n) sizes
# is fixed, the seed only orders the cycle and draws the values, so every
# seed does the same amount of work per cycle.
DESK_PAIRS = 63
DESK_MIN_ATOMS = 2


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# -- CLI workloads ----------------------------------------------------------------


def write_column_csv(path: Path, values: np.ndarray) -> None:
    """One header row, then one value per row written with %.17g (round-trips).

    Synced to disk so that write-back does not overlap the timed ops.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x\n")
        handle.write("\n".join(["%.17g" % v for v in values.tolist()]))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())


def make_cli_inputs(seed: int, rows: int, p: float, workdir: Path) -> dict:
    """Two equal-size one-column CSVs and the reference W_p^p of their samples."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, rows)
    b = rng.normal(0.5, 1.5, rows)
    paths = [workdir / "a.csv", workdir / "b.csv"]
    for path, values in zip(paths, (a, b)):
        write_column_csv(path, values)
    reference = {"w_p_pow_p": float(np.mean(np.abs(np.sort(a) - np.sort(b)) ** p))}
    if p == 1.0:
        from scipy.stats import wasserstein_distance

        reference["scipy_w1"] = float(wasserstein_distance(a, b))
    argv = ["dist1d", str(paths[0]), str(paths[1]), "--p", f"{p:g}"]
    return {"argv": argv, "reference": reference, "files": [str(q) for q in paths]}


def check_cli_output(code: int, stdout: bytes, reference: dict, first_stdout: bytes | None) -> str | None:
    """None when the op is correct, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    if first_stdout is not None and stdout != first_stdout:
        return "stdout differs from the first op of this run"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    gap = relative_gap(payload["w_p_pow_p"], reference["w_p_pow_p"])
    if gap > TOLERANCE:
        return f"w_p_pow_p off the sorted-sample reference by {gap:.3e}"
    if "scipy_w1" in reference:
        for name, value in (("cdf_area", payload["methods"]["cdf_area"]), ("w_p", payload["w_p"])):
            gap = relative_gap(value, reference["scipy_w1"])
            if gap > TOLERANCE:
                return f"{name} off scipy.stats.wasserstein_distance by {gap:.3e}"
    return None


# -- desk-certify -------------------------------------------------------------------


def _simplex(rng: np.random.Generator, k: int) -> list[float]:
    # Kept strictly positive the way the acceptance corpus does it.
    w = np.maximum(rng.dirichlet(np.ones(k)), 1e-9)
    return (w / w.sum()).tolist()


def make_desk_pairs(seed: int, max_atoms: int) -> list[dict]:
    """One cycle of pairs: even slots are rounded samples (ladder ties), odd
    slots are distinct atoms with random-simplex weights."""
    rng = np.random.default_rng(seed)
    span = max_atoms - DESK_MIN_ATOMS + 1
    pairs = []
    for k in range(DESK_PAIRS):
        m = DESK_MIN_ATOMS + k % span
        n = DESK_MIN_ATOMS + (29 * k + 11) % span
        if k % 2 == 0:
            pairs.append({
                "kind": "samples",
                "f": np.round(rng.normal(0.0, 1.0, m), 2).tolist(),
                "g": np.round(rng.normal(0.3, 1.2, n), 2).tolist(),
            })
        else:
            pairs.append({
                "kind": "atoms",
                "f": rng.normal(0.0, 1.0, m).tolist(),
                "wf": _simplex(rng, m),
                "g": rng.normal(0.3, 1.2, n).tolist(),
                "wg": _simplex(rng, n),
            })
    order = rng.permutation(DESK_PAIRS)
    return [pairs[i] for i in order]


def check_desk_values(values: dict) -> str | None:
    """Every closed form against the certified LP value of the same order."""
    pairs = (
        ("wasserstein_1d p=1", values["w1"], values["lp1"]),
        ("w1_cdf_area", values["area"], values["lp1"]),
        ("wasserstein_1d p=2", values["w2"], values["lp2"]),
        ("transport_cost p=2", values["plan_cost"], values["lp2"]),
        ("dall_aglio_functional p=2", values["dall_aglio"], values["lp2"]),
    )
    for name, closed, lp in pairs:
        gap = relative_gap(closed, lp)
        if gap > TOLERANCE:
            return f"{name} off the certified LP by {gap:.3e}"
    if values["joint_mass_gap"] > TOLERANCE:
        return f"coupling_from_joint mass off the monotone plan by {values['joint_mass_gap']:.3e}"
    return None
