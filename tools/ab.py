"""Paired A/B of one benchmark workload between two source trees.

    python3 tools/ab.py OLD_SRC NEW_SRC --workload desk-certify --seeds 7 42 2026 --pairs 40
    python3 tools/ab.py OLD_SRC NEW_SRC --workload dist1d-w1-area --seeds 7 --pairs 10

OLD_SRC and NEW_SRC are directories that hold a ``copula_ot`` package, such
as the ``src/`` of two checkouts. The workload's ``kind`` in perfbench's
``WORKLOADS`` table chooses how a side runs; perfbench's modules are
imported read-only from ``perfbench/`` and fix the inputs.

- ``desk``: both trees load into this one interpreter under distinct package
  names, and each side drives its own instance of perfbench's ``desk_op``
  over one cycle of perfbench's desk corpus. Every op's outputs must be
  bitwise equal on the two sides.
- ``cli``: each side spawns the workload's ``dist1d`` command from its tree
  on the two CSVs of perfbench's ``make_cli_inputs``. Each stdout must pass
  perfbench's ``check_cli_output``, and the two must be equal byte for byte.

For each seed, one input set is built and each side runs it once untimed,
and checked, as a warm-up. Then every pair runs it once on each side, and
the side that goes first alternates from pair to pair. The tool exits 1 at
the first difference. For each seed it prints each side's median time per
op (desk) or per spawn (cli), the median and quartiles of the per-pair time
ratio NEW / OLD, and the number of pairs NEW won.

The ratio of a pair holds steadier than either side's time, since drift in
machine speed falls on both sides of a pair alike.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_package(src: Path, name: str):
    """The ``copula_ot`` package under ``src``, imported as ``name``."""
    root = src / "copula_ot"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def desk_side(src: Path, name: str):
    """A side that runs perfbench's ``desk_op`` from ``src`` on each pair of a
    cycle: while perfbench's worker is imported, ``copula_ot`` resolves to it."""
    package = load_package(src, f"copula_ot_{name}")
    saved = {k: sys.modules.get(k) for k in ("copula_ot", "copula_ot.cli")}
    sys.modules["copula_ot"], sys.modules["copula_ot.cli"] = package, package.cli
    try:
        spec = importlib.util.spec_from_file_location(f"desk_worker_{name}", PERFBENCH / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module

    def run(pairs: list) -> tuple[list[float], list[dict]]:
        times, outputs = [], []
        for pair in pairs:
            start = perf_counter()
            outputs.append(worker.desk_op(pair))
            times.append(perf_counter() - start)
        return times, outputs

    return run


def cli_side(src: Path, entry: str):
    """A side that spawns the CLI from ``src``: one spawn-to-exit time, and the exit code and stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def run(argv: list[str]) -> tuple[list[float], tuple[int, bytes]]:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True, env=env)
        return [perf_counter() - start], (proc.returncode, proc.stdout)

    return run


def desk_difference(old: list[dict], new: list[dict]) -> str | None:
    for k, (a, b) in enumerate(zip(old, new)):
        diff = {key: (a[key], b[key]) for key in a if struct.pack("<d", a[key]) != struct.pack("<d", b[key])}
        if diff:
            return f"op {k}: outputs differ: {diff}"
    return None


def cli_difference(check, reference: dict, old: tuple, new: tuple) -> str | None:
    for label, (code, stdout) in (("old", old), ("new", new)):
        reason = check(code, stdout, reference, None)
        if reason is not None:
            return f"{label} side failed: {reason}"
    return "stdout differs" if old[1] != new[1] else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_seed(seed: int, pairs: int, sides: list, item, difference) -> tuple[tuple[list, list], list[float]]:
    """Each side's timed units and the per-pair ratios NEW / OLD; exit 1 at the first difference."""

    def check(label: str, outputs: list) -> None:
        reason = difference(*outputs)
        if reason is not None:
            print(f"seed {seed} {label}: {reason}", flush=True)
            raise SystemExit(1)

    check("warm-up", [side(item)[1] for side in sides])
    times: tuple[list, list] = ([], [])
    ratios = []
    for pair in range(pairs):
        totals, outputs = [0.0, 0.0], [None, None]
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            unit_times, outputs[side] = sides[side](item)
            times[side].extend(unit_times)
            totals[side] = sum(unit_times)
        check(f"pair {pair}", outputs)
        ratios.append(totals[1] / totals[0])
    return times, ratios


def main(argv: list[str] | None = None) -> int:
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, str(PERFBENCH))
    import run  # perfbench's entry point: its workload table fixes each corpus
    from workloads import check_cli_output, make_cli_inputs, make_desk_pairs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for src in (args.old_src, args.new_src):
        if not (src / "copula_ot" / "__init__.py").is_file():
            parser.error(f"no copula_ot package under {src}")
    srcs = [args.old_src.resolve(), args.new_src.resolve()]
    spec = run.WORKLOADS[args.workload]

    workdir = tempfile.TemporaryDirectory(prefix="ab_")
    # prepare(seed): the seed's input set, and the check of a pair's outputs on it
    if spec["kind"] == "desk":
        sides = [desk_side(src, name) for src, name in zip(srcs, ("old", "new"))]
        unit, equal = "op", "outputs bitwise equal on every op"

        def prepare(seed: int) -> tuple:
            return make_desk_pairs(seed, spec["max_atoms"]), desk_difference
    else:
        sides = [cli_side(src, run.CLI_ENTRY) for src in srcs]
        unit, equal = "spawn", "stdout byte-identical on every spawn"

        def prepare(seed: int) -> tuple:
            inputs = make_cli_inputs(seed, spec["rows"], spec["p"], Path(workdir.name))
            return inputs["argv"], lambda old, new: cli_difference(check_cli_output, inputs["reference"], old, new)

    print(f"workload {args.workload}  pairs {args.pairs}  times per {unit}")
    print(f"seed  {unit}s timed  old p50 ms  new p50 ms  ratio median [q1, q3]  pairs won")
    with workdir:
        for seed in args.seeds:
            times, ratios = run_seed(seed, args.pairs, sides, *prepare(seed))
            q1, median, q3 = quartiles(ratios)
            print(
                f"{seed:<5} {len(times[0]):<11} {1e3 * statistics.median(times[0]):>10.3f}  "
                f"{1e3 * statistics.median(times[1]):>10.3f}  {median:.3f} [{q1:.3f}, {q3:.3f}]  "
                f"{sum(r < 1.0 for r in ratios)}/{args.pairs}",
                flush=True,
            )
    print(equal)
    return 0


if __name__ == "__main__":
    sys.exit(main())
