"""In-process ops for one workload, run in a process of its own.

    python3 perfbench/worker.py JOB.json RESULT.json

The job names the workload kind (``desk`` or ``cli``), the seconds to
spend, whether to trace, and the generated inputs. Untraced desk ops time
the library as a caller sees it. Traced runs alternate untraced and traced
passes over the same ops, so the ratio of their medians is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import tracemalloc
from time import perf_counter

import numpy as np

import copula_ot as co
import copula_ot.cli
from tracer import Recorder
from workloads import check_cli_output, check_desk_values


def desk_op(pair: dict) -> dict:
    """The validation loop on one pair; every call goes through the package
    namespace so that the tracer's wrappers see it."""
    if pair["kind"] == "samples":
        f = co.from_samples(pair["f"])
        g = co.from_samples(pair["g"])
    else:
        f = co.from_atoms(pair["f"], pair["wf"])
        g = co.from_atoms(pair["g"], pair["wg"])
    w1 = co.wasserstein_1d(f, g, 1.0).value_pth_power
    w2 = co.wasserstein_1d(f, g, 2.0).value_pth_power
    area = co.w1_cdf_area(f, g).value_pth_power
    plan = co.monotone_plan_1d(f, g)
    plan_cost = co.transport_cost(plan, 2.0)
    dall_aglio = co.dall_aglio_functional(plan, 2.0)
    joint = co.coupling_from_joint(co.comonotone_joint_2d(f, g))
    lp1 = co.solve_exact(co.TransportInstance.from_distributions(f, g, 1.0)).value
    lp2 = co.solve_exact(co.TransportInstance.from_distributions(f, g, 2.0)).value
    return {
        "w1": w1, "w2": w2, "area": area, "plan_cost": plan_cost,
        "dall_aglio": dall_aglio, "lp1": lp1, "lp2": lp2,
        "joint_mass_gap": float(np.max(np.abs(joint.mass - plan.mass))),
    }


def cli_op(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = copula_ot.cli.main(argv)
    return code, buf.getvalue().encode()


class Loop:
    """A closed loop with one client: the next op starts when the last ends."""

    def __init__(self, job: dict, recorder: Recorder | None = None) -> None:
        self.job = job
        self.recorder = recorder
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.first_stdout: bytes | None = None

    def one(self, item) -> None:
        op_id = self.attempted
        self.attempted += 1
        fn = desk_op if self.job["kind"] == "desk" else cli_op
        start = perf_counter()
        try:
            if self.recorder is None:
                result = fn(item)
                wall = perf_counter() - start
            else:
                result, wall = self.recorder.run_op(op_id, fn, item)
        except Exception as exc:  # an op that raises is a failed op, never retried
            self.times.append(perf_counter() - start)
            self.failures.append(f"op {op_id}: {type(exc).__name__}: {exc}")
            return
        self.times.append(wall)
        if self.job["kind"] == "desk":
            reason = check_desk_values(result)
        else:
            code, stdout = result
            reason = check_cli_output(code, stdout, self.job["reference"], self.first_stdout)
            if self.first_stdout is None and code == 0:
                self.first_stdout = stdout
        if reason is not None:
            self.failures.append(f"op {op_id}: {reason}")

    def run_for(self, items: list, seconds: float) -> float:
        """Ops over ``items`` in turn until the next would overrun ``seconds``
        (at least one op); returns the wall time spent."""
        start = perf_counter()
        while True:
            t0 = perf_counter()
            self.one(items[self.attempted % len(items)])
            if perf_counter() - start + (perf_counter() - t0) > seconds:
                return perf_counter() - start

def read_peak_alloc_mb(path: str) -> float:
    """tracemalloc peak inside one read_csv_columns call, kept out of the
    timed ops because tracemalloc slows every allocation it sees."""
    tracemalloc.start()
    try:
        copula_ot.cli.read_csv_columns(path, expect_cols=1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_run(job: dict, items: list) -> dict:
    """Untraced and traced passes over ``items`` in turn, after one untimed
    (but checked) warm-up pass, so that drift in machine speed and first-call
    costs fall on neither side of the overhead ratio."""
    warm, plain = Loop(job), Loop(job)
    recorder = Recorder()
    traced = Loop(job, recorder)
    for item in items:
        warm.one(item)
    start = perf_counter()
    while True:
        t0 = perf_counter()
        for item in items:
            plain.one(item)
        recorder.install()
        try:
            for item in items:
                traced.one(item)
        finally:
            recorder.uninstall()
        if perf_counter() - start + (perf_counter() - t0) > job["seconds"]:
            break
    metrics, details = recorder.layer_metrics()
    untraced_p50, traced_p50 = statistics.median(plain.times), statistics.median(traced.times)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    metrics["cli.read_csv_columns.peak_alloc_mb"] = (
        read_peak_alloc_mb(job["files"][0]) if job["kind"] == "cli" else 0.0)
    recorder.dump(job["spans_path"])
    loops = (warm, plain, traced)
    return {"attempted": sum(loop.attempted for loop in loops),
            "failures": [f for loop in loops for f in loop.failures],
            "metrics": metrics, "details": details,
            "untraced_op_p50_s": untraced_p50, "traced_op_p50_s": traced_p50}


def main(job_path: str, result_path: str) -> None:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    items = job["pairs"] if job["kind"] == "desk" else [job["argv"]]
    if job["trace"]:
        out = traced_run(job, items)
    else:
        loop = Loop(job)
        wall = loop.run_for(items, job["seconds"])
        out = {"times": loop.times, "attempted": loop.attempted,
               "failures": loop.failures, "wall": wall}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
