"""In-process A/B of the desk-certify op between two source trees.

    python3 tools/ab_desk.py OLD_SRC NEW_SRC --seeds 7 42 --blocks 40

OLD_SRC and NEW_SRC are directories that hold a ``copula_ot`` package, such
as the ``src/`` of two checkouts. Both are loaded into this one interpreter
under distinct package names. Each side drives its own instance of
perfbench's ``desk_op`` over perfbench's desk corpus, both imported
read-only from ``perfbench/``.

For each seed, one untimed pass of the cycle warms both sides up. Then
every block runs the whole cycle once on each side, and the side that goes
first alternates from block to block. Every op's outputs must be bitwise
equal on the two sides: the tool exits 1 at the first difference. For each
seed it prints the ops compared per side (warm-up included), each side's
median op time, the median and quartiles of the per-block time ratio
NEW / OLD, and the number of blocks NEW won.

Both sides share one process, so drift in machine speed falls on both alike.
This resolves changes far smaller than separate benchmark runs can.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import struct
import sys
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_package(src: Path, name: str):
    """The ``copula_ot`` package under ``src``, imported as ``name``."""
    root = src / "copula_ot"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    if spec is None or not (root / "__init__.py").is_file():
        raise SystemExit(f"error: no copula_ot package under {src}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def load_worker(package, name: str):
    """perfbench's worker module bound to ``package``: while it is imported,
    ``copula_ot`` resolves to that package."""
    saved = {k: sys.modules.get(k) for k in ("copula_ot", "copula_ot.cli")}
    sys.modules["copula_ot"], sys.modules["copula_ot.cli"] = package, package.cli
    try:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module
    return worker


def timed_cycle(op, pairs: list) -> tuple[list[float], list[dict]]:
    times, outputs = [], []
    for pair in pairs:
        start = perf_counter()
        result = op(pair)
        times.append(perf_counter() - start)
        outputs.append(result)
    return times, outputs


def compare(seed: int, old: list[dict], new: list[dict]) -> None:
    """Exit 1 at the first pair whose outputs differ in any bit."""
    for k, (a, b) in enumerate(zip(old, new)):
        diff = {key: (a[key], b[key]) for key in a if struct.pack("<d", a[key]) != struct.pack("<d", b[key])}
        if diff:
            print(f"seed {seed} pair {k}: outputs differ: {diff}", flush=True)
            raise SystemExit(1)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_seed(seed: int, blocks: int, ops: tuple, make_pairs, max_atoms: int) -> dict:
    pairs = make_pairs(seed, max_atoms)
    warm = [timed_cycle(op, pairs)[1] for op in ops]
    compare(seed, *warm)
    times: tuple[list[float], list[float]] = ([], [])
    ratios = []
    for block in range(blocks):
        order = (0, 1) if block % 2 == 0 else (1, 0)
        block_times, outputs = [0.0, 0.0], [None, None]
        for side in order:
            op_times, outputs[side] = timed_cycle(ops[side], pairs)
            times[side].extend(op_times)
            block_times[side] = sum(op_times)
        compare(seed, *outputs)
        ratios.append(block_times[1] / block_times[0])
    q1, median, q3 = quartiles(ratios)
    return {
        "seed": seed,
        "ops": len(pairs) * (blocks + 1),
        "old_op_p50_ms": 1e3 * statistics.median(times[0]),
        "new_op_p50_ms": 1e3 * statistics.median(times[1]),
        "ratio_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "won": sum(r < 1.0 for r in ratios),
        "blocks": blocks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 42])
    parser.add_argument("--blocks", type=int, default=40)
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")

    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, str(PERFBENCH))
    import run  # perfbench's entry point: its workload table fixes the corpus size

    max_atoms = run.WORKLOADS["desk-certify"]["max_atoms"]
    ops = tuple(
        load_worker(load_package(src.resolve(), f"copula_ot_{side}"), f"desk_worker_{side}").desk_op
        for side, src in (("old", args.old_src), ("new", args.new_src))
    )
    print("seed  ops   old p50 ms  new p50 ms  ratio median [q1, q3]  blocks won")
    for seed in args.seeds:
        r = run_seed(seed, args.blocks, ops, run.make_desk_pairs, max_atoms)
        print(
            f"{r['seed']:<5} {r['ops']:<5} {r['old_op_p50_ms']:>10.3f}  {r['new_op_p50_ms']:>10.3f}  "
            f"{r['ratio_median']:.3f} [{r['ratio_q1']:.3f}, {r['ratio_q3']:.3f}]  "
            f"{r['won']}/{r['blocks']}",
            flush=True,
        )
    print("outputs bitwise equal on every op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
