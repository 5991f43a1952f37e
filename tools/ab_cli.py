"""Spawned A/B of a CLI workload between two source trees.

    python3 tools/ab_cli.py OLD_SRC NEW_SRC --workload dist1d-w1-area --seed 7 --pairs 10

OLD_SRC and NEW_SRC are directories that hold a ``copula_ot`` package, such
as the ``src/`` of two checkouts. The workload's two CSV inputs are built
once, in a temporary directory, by perfbench's ``make_cli_inputs``, with the
row count and order p of perfbench's workload table; both are imported
read-only from ``perfbench/``.

Each pair spawns the workload's ``dist1d`` command once from each tree, the
side that goes first alternating from pair to pair, after one untimed
warm-up spawn per side (it also writes each tree's bytecode caches). Every
spawn must pass perfbench's check of the output, and the two sides' stdout
must be equal byte for byte: the tool exits 1 at the first pair where
either fails. It prints each side's median spawn-to-exit time with its
quartiles, and the number of pairs NEW won.

This is the command-line counterpart of ``tools/ab_desk.py``: it shows
that a change leaves ``dist1d``'s output byte-identical, and how its
wall time compares, on the benchmark's own inputs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from ab_desk import quartiles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def spawn(src: Path, entry: str, argv: list[str]) -> tuple[float, int, bytes]:
    """Spawn-to-exit wall time, exit code and stdout of the CLI run from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True, env=env)
    return perf_counter() - start, proc.returncode, proc.stdout


def check_pair(label: str, outputs: list, reference: dict, check) -> None:
    """Exit 1 unless both sides' output passes the workload's check and the two are byte-identical."""
    for side, (code, stdout) in zip(("old", "new"), outputs):
        reason = check(code, stdout, reference, None)
        if reason is not None:
            print(f"{label}: {side} side failed: {reason}", flush=True)
            raise SystemExit(1)
    if outputs[0][1] != outputs[1][1]:
        print(f"{label}: stdout differs", flush=True)
        raise SystemExit(1)


def main(argv: list[str] | None = None) -> int:
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, str(PERFBENCH))
    import run  # perfbench's entry point: its workload table fixes rows and p
    from workloads import check_cli_output, make_cli_inputs

    cli_workloads = sorted(name for name, spec in run.WORKLOADS.items() if spec["kind"] == "cli")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", required=True, choices=cli_workloads)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    srcs = []
    for src in (args.old_src, args.new_src):
        if not (src / "copula_ot" / "__init__.py").is_file():
            parser.error(f"no copula_ot package under {src}")
        srcs.append(src.resolve())

    spec = run.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="ab_cli_") as workdir:
        inputs = make_cli_inputs(args.seed, spec["rows"], spec["p"], Path(workdir))
        reference = inputs["reference"]
        warm = [spawn(src, run.CLI_ENTRY, inputs["argv"])[1:] for src in srcs]
        check_pair("warm-up", warm, reference, check_cli_output)
        times: tuple[list[float], list[float]] = ([], [])
        for pair in range(args.pairs):
            outputs: list = [None, None]
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                wall, *outputs[side] = spawn(srcs[side], run.CLI_ENTRY, inputs["argv"])
                times[side].append(wall)
            check_pair(f"pair {pair}", outputs, reference, check_cli_output)

    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}")
    print("side  p50 s     q1 s      q3 s")
    for label, side_times in zip(("old", "new"), times):
        q1, median, q3 = quartiles(side_times)
        print(f"{label:<5} {median:<9.4f} {q1:<9.4f} {q3:.4f}")
    won = sum(new < old for old, new in zip(*times))
    print(f"new won {won}/{args.pairs} pairs")
    print("stdout byte-identical on every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
