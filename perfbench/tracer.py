"""Span recorder that times copula_ot's public functions from outside.

Nothing under ``src/`` changes: ``install`` swaps module attributes (and a
few ``Distribution1D`` / ``JointCDF`` methods) for wrappers, in every
copula_ot module that bound the same function object, so ``cli``'s
``from .distances import wasserstein_1d`` sees the wrapper too. Spans stay
in memory as (name, start, end, parent, op, ok) tuples and are reduced to
per-layer metrics once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("copula_ot", "copula_ot.cli", "copula_ot.distributions", "copula_ot.copulas",
           "copula_ot.distances", "copula_ot.oracle")

# (layer, module, function) for every span; the layer is the module's short name.
SPANNED = (
    ("cli", "copula_ot.cli", "main"),
    ("cli", "copula_ot.cli", "read_csv_columns"),
    ("distributions", "copula_ot.distributions", "from_samples"),
    ("distributions", "copula_ot.distributions", "from_atoms"),
    ("distances", "copula_ot.distances", "wasserstein_1d"),
    ("distances", "copula_ot.distances", "w1_cdf_area"),
    ("distances", "copula_ot.distances", "dall_aglio_functional"),
    ("oracle", "copula_ot.oracle", "solve_exact"),
    ("oracle", "copula_ot.oracle", "monotone_plan_1d"),
    ("oracle", "copula_ot.oracle", "transport_cost"),
    ("copulas", "copula_ot.copulas", "comonotone_joint_2d"),
    ("copulas", "copula_ot.copulas", "coupling_from_joint"),
)

OP = "op"


def _count_result(counts: Counter, name: str, result) -> None:
    """Work counts taken from a wrapped function's result."""
    if name in ("distributions.from_samples", "distributions.from_atoms"):
        counts["distributions.atoms"] += result.n_atoms
    elif name == "cli.read_csv_columns":
        counts["cli.read_csv_columns.rows"] += result.shape[0]
    elif name == "oracle.solve_exact":
        counts["oracle.solve_exact.lp_variables"] += result.plan.mass.size
    elif name == "oracle.monotone_plan_1d":
        counts["oracle.monotone_plan_1d.dense_cells"] += result.mass.size
        counts["oracle.monotone_plan_1d.nonzero_cells"] += int(np.count_nonzero(result.mass))


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: float, parent: int, ok: bool) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op, ok)

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span; returns (result, wall seconds)."""
        self.op = op_id
        idx, parent = self._open()
        start = perf_counter()
        ok = False
        try:
            result = fn(*args)
            ok = True
        finally:
            self._close(idx, OP, start, parent, ok)
        return result, self.spans[idx][2] - start

    def span(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = rec._open()
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec._close(idx, name, start, parent, ok)
                if ok:
                    _count_result(rec.counts, name, result)

        return wrapper

    def counter(self, name: str, fn, amount=lambda args: 1):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += amount(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, module_name, func in SPANNED:
            original = getattr(importlib.import_module(module_name), func)
            wrapped = self.span(f"{layer}.{func}", original)
            for module in modules:
                if getattr(module, func, None) is original:
                    self._replace(module, func, wrapped)
        from copula_ot.copulas import JointCDF
        from copula_ot.distributions import Distribution1D

        self._replace(Distribution1D, "cdf", self.counter("distributions.cdf.calls", Distribution1D.cdf))
        self._replace(Distribution1D, "quantile_many", self.counter(
            "distributions.quantile_many.points", Distribution1D.quantile_many,
            lambda args: int(np.size(args[1]))))
        self._replace(JointCDF, "__call__", self.counter("copulas.joint_evals", JointCDF.__call__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-op means of self time and calls, error totals, work counts,
        and each op's wall time that no wrapped function accounts for."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops = [i for i, s in enumerate(spans) if s[0] == OP]
        n_ops = len(ops)
        self_s: Counter = Counter()
        calls: Counter = Counter()
        errors: Counter = Counter()
        busy: Counter = Counter()
        for i, (name, start, end, parent, _, ok) in enumerate(spans):
            if name == OP:
                continue
            self_s[name] += end - start - child_time[i]
            busy[name] += end - start
            calls[name] += 1
            errors[name] += not ok
        metrics: dict[str, float] = {}
        for layer, _, func in SPANNED:
            name = f"{layer}.{func}"
            metrics[f"{name}.self_s"] = self_s[name] / n_ops
            metrics[f"{name}.calls"] = calls[name] / n_ops
            metrics[f"{name}.errors"] = errors[name]
        c = self.counts
        for key in ("distributions.atoms", "distributions.cdf.calls",
                    "distributions.quantile_many.points", "copulas.joint_evals",
                    "oracle.solve_exact.lp_variables", "oracle.monotone_plan_1d.dense_cells",
                    "cli.read_csv_columns.rows"):
            metrics[key] = c[key] / n_ops
        reading = busy["cli.read_csv_columns"]
        metrics["cli.read_csv_columns.rows_per_s"] = (
            c["cli.read_csv_columns.rows"] / reading if reading else 0.0)
        dense = c["oracle.monotone_plan_1d.dense_cells"]
        metrics["oracle.monotone_plan_1d.fill_ratio"] = (
            c["oracle.monotone_plan_1d.nonzero_cells"] / dense if dense else 0.0)
        unaccounted = [spans[i][2] - spans[i][1] - child_time[i] for i in ops]
        metrics["trace.unaccounted_s"] = statistics.median(unaccounted)
        ranking = sorted(((self_s[n] / n_ops, n) for n in self_s), reverse=True)
        details = {
            "traced_ops": n_ops,
            "self_s_ranking": [[n, t] for t, n in ranking],
            "unaccounted_s_per_op": unaccounted,
        }
        return metrics, details

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "ok"],
                       "spans": self.spans}, handle)
