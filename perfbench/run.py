"""copula-ot benchmark: three closed-loop workloads with one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the same ops in-process under the span recorder
of ``tracer.py`` and reports the per-layer metrics. Metric names, units and
the reason for each workload come from ``BENCHMARK.json``. The last line of
stdout is the result object; the line before it holds provenance and
details (tail percentile, sample counts, failures, dominant self times).
Inputs are written under ``.perfbench_work/`` and removed at exit; the
spans of a traced run are kept in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import check_cli_output, make_cli_inputs, make_desk_pairs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

CLI_ENTRY = "import sys; from copula_ot.cli import main; sys.exit(main())"

# Workload parameters; the reason for each is its "why" in BENCHMARK.json.
WORKLOADS = {
    "dist1d-ingest": {"kind": "cli", "rows": 1_000_000, "p": 2.0, "entry": "copula_ot.cli"},
    "dist1d-w1-area": {"kind": "cli", "rows": 200_000, "p": 1.0, "entry": "copula_ot.cli"},
    "desk-certify": {"kind": "desk", "max_atoms": 64, "entry": "copula_ot"},
}

# Spans expected to lead traced self time; the details line says whether they did.
PREDICTED_DOMINANT = {
    "dist1d-ingest": ["cli.read_csv_columns"],
    "dist1d-w1-area": ["distances.w1_cdf_area"],
    "desk-certify": ["oracle.solve_exact", "copulas.coupling_from_joint"],
}

SETUP_SPAWNS = 5
IMPORTTIME_SPAWNS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_timed(argv: list[str], stdout=subprocess.DEVNULL) -> tuple[float, int, bytes, float]:
    """Spawn-to-exit wall time, exit code, stdout and ru_maxrss (MB) of one child."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, env=child_env(), cwd=ROOT)
    out = proc.stdout.read() if proc.stdout is not None else b""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return wall, proc.returncode, out, usage.ru_maxrss / 1024.0


def measure_setup(entry: str) -> list[float]:
    """Fresh-interpreter import times of the workload's entry point."""
    argv = [sys.executable, "-c", f"import {entry}"]
    spawn_timed(argv)  # writes bytecode caches in a fresh checkout
    times = []
    for _ in range(SETUP_SPAWNS):
        wall, code, _, _ = spawn_timed(argv)
        if code != 0:
            raise RuntimeError(f"import {entry} exited with {code}")
        times.append(wall)
    return times


def import_breakdown() -> dict:
    """Median cumulative import time of copula_ot.cli and of scipy within it,
    from ``-X importtime`` (microseconds on stderr)."""
    totals, scipys = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import copula_ot.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True)
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            rows.append((depth, int(cumulative), name.strip()))
        total = scipy = 0
        ancestors: list[tuple[int, str]] = []
        # importtime prints children before parents; reversed, parents come first.
        for depth, cumulative, name in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            top = name.split(".")[0]
            if depth == 0 and top == "copula_ot":
                total += cumulative
            if top == "scipy" and not any(a.split(".")[0] == "scipy" for _, a in ancestors):
                scipy += cumulative
            ancestors.append((depth, name))
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return {"cli.import_s": statistics.median(totals), "cli.import_scipy_s": statistics.median(scipys)}


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; with fewer than eleven samples, the maximum (percentile 100)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_worker(job: dict, workdir: Path) -> tuple[dict, float]:
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    _, code, _, rss_mb = spawn_timed([sys.executable, str(BENCH_DIR / "worker.py"),
                                      str(job_path), str(result_path)])
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(result_path.read_text(encoding="utf-8")), rss_mb


def run_cli_ops(inputs: dict, seconds: float) -> dict:
    """Spawned CLI ops, one at a time, until the next would overrun."""
    argv = [sys.executable, "-c", CLI_ENTRY, *inputs["argv"]]
    times, rss, failures = [], [], []
    first_stdout = None
    start = perf_counter()
    while True:
        wall, code, out, rss_mb = spawn_timed(argv, stdout=subprocess.PIPE)
        times.append(wall)
        rss.append(rss_mb)
        reason = check_cli_output(code, out, inputs["reference"], first_stdout)
        if first_stdout is None and code == 0:
            first_stdout = out
        if reason is not None:
            failures.append(f"op {len(times) - 1}: {reason}")
        if perf_counter() - start + wall > seconds:
            break
    return {"times": times, "attempted": len(times), "failures": failures,
            "wall": perf_counter() - start, "peak_rss_mb": max(rss)}


def provenance(name: str, spec: dict, seed: int, why: str) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None  # benchmark checkouts are not git repositories; src_sha256 names the code
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    sizes = {k: v for k, v in spec.items() if k in ("rows", "p", "max_atoms")}
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": name,
        "seed": seed,
        "input_sizes": sizes,
        "why": why,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "copula_ot" / "__init__.py").is_file():
        print(f"error: no copula_ot sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in declared["workloads"]}
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    spec = WORKLOADS[args.workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        if spec["kind"] == "cli":
            inputs = make_cli_inputs(args.seed, spec["rows"], spec["p"], workdir)
            job = {"kind": "cli", **inputs}
        else:
            job = {"kind": "desk", "pairs": make_desk_pairs(args.seed, spec["max_atoms"])}
        job.update(seconds=args.seconds, trace=bool(args.trace))
        details: dict = {}
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            job["spans_path"] = str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
            result, _ = run_worker(job, workdir)
            metrics = {**result["metrics"], **import_breakdown()}
            ranking = result["details"]["self_s_ranking"]
            top = {n for n, _ in ranking[:len(PREDICTED_DOMINANT[args.workload])]}
            details.update(result["details"], spans_path=job["spans_path"],
                           untraced_op_p50_s=result["untraced_op_p50_s"],
                           traced_op_p50_s=result["traced_op_p50_s"],
                           predicted_dominant=PREDICTED_DOMINANT[args.workload],
                           prediction_met=top == set(PREDICTED_DOMINANT[args.workload]))
        else:
            setup = measure_setup(spec["entry"])
            if spec["kind"] == "cli":
                result = run_cli_ops(inputs, args.seconds)
            else:
                result, rss_mb = run_worker(job, workdir)
                result["peak_rss_mb"] = rss_mb
            ok_ops = result["attempted"] - len(result["failures"])
            tail_s, tail_pct = tail(result["times"])
            metrics = {
                "setup_s": statistics.median(setup),
                "op_p50_s": statistics.median(result["times"]),
                "ops_per_s": ok_ops / result["wall"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            details.update(setup_s_samples=setup, op_tail_s=tail_s, op_tail_percentile=tail_pct,
                           op_samples=len(result["times"]),
                           op_times_s=result["times"] if len(result["times"]) <= 32 else None,
                           error_rate=len(result["failures"]) / result["attempted"])
        details["failures"] = result["failures"][:20]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance(args.workload, spec, args.seed, whys[args.workload]),
                      "details": details}))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
