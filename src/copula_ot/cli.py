"""Command-line front end.

Subcommands ingest CSV sample data, build empirical distributions, compute
distances by each available representation, cross-check against the exact
LP oracle, and emit machine-readable reports. Output is deterministic:
repeated runs on the same inputs are byte-identical, and JSON floats use
shortest round-trip printing.

Exit codes: 0 success, 1 cross-method disagreement beyond tolerance,
3 missing hypothesis flag, 4 capacity guard exceeded, 2 any other error,
a reader that closed the output pipe early included (no traceback).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .copulas import built_in_copula, validate_copula
from .distances import DistanceReport, w1_cdf_area, wasserstein_1d, wasserstein_shared_copula
from .distributions import Distribution1D, _order, from_samples, tail_decay_diagnostic
from .errors import CapacityError, CopulaOTError, PreconditionError
from .oracle import TransportInstance, enumerate_extreme_couplings, solve_exact, transport_cost

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT = 2
EXIT_MISSING_HYPOTHESIS = 3
EXIT_CAPACITY = 4

DEFAULT_TOLERANCE = 1e-8

SHARED_COPULA_HYPOTHESIS = (
    "refusing to run: multi-dimensional coordinate additivity holds only when "
    "both measures share the same copula, which cannot be inferred from marginal "
    "data; pass --assume-shared-copula to declare that hypothesis explicitly"
)
CONTRADICTED_HYPOTHESIS = (
    "the data contradict the shared-copula declaration: the transport LP on the "
    "rows disagrees with the coordinate-additive result"
)


class InputError(CopulaOTError):
    """Unparseable or structurally invalid CLI input."""


_CSV_FORMAT = {"delimiter": ",", "comments": None, "ndmin": 2, "dtype": float}

# numpy picks a decompressor by these suffixes when it opens a path itself
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")


def _parse(lines, skiprows: int = 0) -> np.ndarray:
    """The one float grammar of CSV input: ``np.loadtxt``'s."""
    return np.loadtxt(lines, skiprows=skiprows, encoding="utf-8-sig", **_CSV_FORMAT)


def _bulk_source(path: str, handle):
    """What the fast parse reads. Given a str path, numpy reads the file in
    C chunks; given a handle, it iterates lines in Python. The resolved path
    names the file ``open`` read (``abspath`` would collapse ``link/..`` by
    its text) and cannot parse as a URL. The open handle stays the source
    for the suffixes numpy would decompress, since the input is plain text."""
    name = os.path.realpath(path)
    return handle if name.endswith(_NUMPY_DECOMPRESSES) else name


def _parses(line: str) -> bool:
    try:
        _parse([line])
    except ValueError:
        return False
    return True


def _data_start(path: str, handle) -> int:
    """Number of physical lines before the first data row: leading blank
    lines and, when the first non-blank line does not parse, that header."""
    header_seen = False
    for count, line in enumerate(handle):
        if line.isspace():
            continue
        if header_seen or _parses(line):
            return count
        header_seen = True
    raise InputError(f"{path}: no numeric rows")


def _parse_counting_lines(path: str, handle, skip: int) -> np.ndarray:
    """Parse again from the top, skipping every blank line and counting
    physical lines, so that a failure names its line.

    ``np.loadtxt`` skips only empty lines, so a line of spaces alone also
    fails the first parse; this one reads past it and returns the data.
    """
    lineno, line = 0, ""

    def data_lines():
        nonlocal lineno, line
        for lineno, line in enumerate(handle, start=1):
            if lineno > skip and not line.isspace():
                yield line

    handle.seek(0)
    try:
        return _parse(data_lines())
    except UnicodeDecodeError:
        raise
    except ValueError:
        pass  # loadtxt converts row by row, so `line` is the one that failed
    if _parses(line):
        raise InputError(f"{path}: rows have inconsistent column counts")
    raise InputError(f"{path}:{lineno}: non-numeric value in {line.strip()!r}")


def read_csv_columns(path: str, expect_cols: int | None = None) -> np.ndarray:
    """Read a comma-separated numeric file into an (n_rows, n_cols) array.

    Values follow ``np.loadtxt``'s float grammar: '.' decimal point, no '_'
    digit separators, no comment character. Blank lines are ignored, a UTF-8
    byte-order mark is dropped, and the first non-blank line is skipped as a
    header when it does not parse.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            skip = _data_start(path, handle)
            handle.seek(0)
            try:
                data = _parse(_bulk_source(path, handle), skip)
            except UnicodeDecodeError:
                raise
            except ValueError:
                data = _parse_counting_lines(path, handle, skip)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not np.all(np.isfinite(data)):
        raise InputError(f"{path}: non-finite value in data")
    width = data.shape[1]
    if expect_cols is not None and width != expect_cols:
        raise InputError(f"{path}: expected {expect_cols} column(s), found {width}")
    return data


def _samples(path: str) -> Distribution1D:
    """The empirical measure of a one-column sample file."""
    return from_samples(read_csv_columns(path, expect_cols=1).ravel())


def _tolerance(args: argparse.Namespace) -> float:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise InputError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    return args.tolerance


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _max_disagreement(values: Sequence[float]) -> float:
    return max((_relative_gap(a, b) for a, b in itertools.combinations(values, 2)), default=0.0)


def _oracle_value(instance: TransportInstance, notices: list[str]) -> float | None:
    """The certified LP value, or None with a notice when the instance is
    past the oracle's capacity guard."""
    try:
        return solve_exact(instance).value
    except CapacityError as exc:
        notices.append(f"oracle omitted: {exc}")
        return None


def _result(report: DistanceReport) -> dict:
    """A report's keys in a payload: W_p and W_p^p, or the bracket on W_p^p
    when q differs from p."""
    if report.is_bracket:
        return {"bracket_pow_p": list(report.bracket_pth_power)}
    return {"w_p": report.value, "w_p_pow_p": report.value_pth_power}


# -- commands -------------------------------------------------------------------


def cmd_dist1d(args: argparse.Namespace) -> tuple[int, dict]:
    tolerance = _tolerance(args)
    f, g = _samples(args.file_a), _samples(args.file_b)
    notices: list[str] = []

    reports = [wasserstein_1d(f, g, args.p)]
    if args.p == 1.0:
        reports.append(w1_cdf_area(f, g))
    methods = {report.method: report.value_pth_power for report in reports}
    oracle_value = _oracle_value(TransportInstance.from_distributions(f, g, args.p), notices)
    if oracle_value is not None:
        methods["oracle_lp"] = oracle_value
    disagreement = _max_disagreement(list(methods.values()))
    payload = {
        "inputs": [args.file_a, args.file_b],
        "p": args.p,
        **_result(reports[0]),
        "methods": methods,
        "max_method_disagreement": disagreement,
        "tolerance": tolerance,
        "notices": notices,
    }
    code = EXIT_OK if disagreement <= tolerance else EXIT_DISAGREEMENT
    return code, payload


def cmd_distnd(args: argparse.Namespace) -> tuple[int, dict]:
    if not args.assume_shared_copula:
        raise PreconditionError(SHARED_COPULA_HYPOTHESIS)
    tolerance = _tolerance(args)
    a = read_csv_columns(args.file_a)
    b = read_csv_columns(args.file_b)
    if a.shape[1] != b.shape[1]:
        raise InputError(
            f"width mismatch: {args.file_a} has {a.shape[1]} columns, "
            f"{args.file_b} has {b.shape[1]}"
        )
    notices: list[str] = []
    report = wasserstein_shared_copula(
        [from_samples(column) for column in a.T], [from_samples(column) for column in b.T], args.p, args.q
    )
    per_coord = list(report.per_coordinate_pth_power)
    payload: dict = {
        "inputs": [args.file_a, args.file_b],
        "p": args.p,
        "q": report.q,
        "dimension": a.shape[1],
        "assumed_hypothesis": "both inputs share the same copula",
        "per_coordinate_w_p_pow_p": per_coord,
        **_result(report),
        "notices": notices,
    }

    # The oracle runs on the rows themselves, so it sees the copulas of the
    # data: when they differ, the LP moves off the shared-copula result.
    instance = TransportInstance(
        a, np.full(len(a), 1.0 / len(a)), b, np.full(len(b), 1.0 / len(b)), p=args.p, q=report.q
    )
    oracle_value = _oracle_value(instance, notices)
    lower, upper = report.bracket_pth_power
    if report.is_bracket:
        payload["shared_copula_integral"] = float(sum(per_coord))
        notices.append(
            "orders p and q differ: no exact representation exists, reporting "
            "norm-equivalence brackets for W_{p,q}^p"
        )
    code = EXIT_OK
    if oracle_value is not None:
        payload["oracle_lp"] = oracle_value
        payload["tolerance"] = tolerance
        # the gap to the nearest end of the interval: 0 inside a bracket,
        # the gap to the value when the ends meet
        gap = _relative_gap(min(max(oracle_value, lower), upper), oracle_value)
        if not report.is_bracket:
            payload["max_method_disagreement"] = gap
        if gap > tolerance:
            code = EXIT_DISAGREEMENT
            notices.append(CONTRADICTED_HYPOTHESIS)
    return code, payload


def cmd_check_copula(args: argparse.Namespace) -> tuple[int, dict]:
    report = validate_copula(built_in_copula(args.label, args.dim), args.resolution)
    payload = {
        "label": args.label,
        "dim": report.dim,
        "resolution": report.resolution,
        "passed": report.passed,
        "axioms": {
            check.name: {
                "passed": check.passed,
                "worst": check.worst,
                "witnesses": check.witnesses,
            }
            for check in report.checks
        },
    }
    return EXIT_OK, payload


def cmd_oracle_compare(args: argparse.Namespace) -> tuple[int, dict]:
    f, g = _samples(args.file_a), _samples(args.file_b)
    vertices = enumerate_extreme_couplings(f.weights, g.weights, f.atoms, g.atoms)
    # on the line the certified plan is the comonotone one, bitwise
    oracle = solve_exact(TransportInstance.from_distributions(f, g, args.p))
    rows = [
        {
            "cost": transport_cost(vertex, args.p),
            "is_comonotone": bool(np.allclose(vertex.mass, oracle.plan.mass, atol=1e-12, rtol=0.0)),
        }
        for vertex in vertices
    ]
    rows.sort(key=lambda r: (r["cost"], not r["is_comonotone"]))
    minimal = all(oracle.value <= row["cost"] + 1e-9 for row in rows)
    payload = {
        "inputs": [args.file_a, args.file_b],
        "p": args.p,
        "couplings": rows,
        "comonotone_cost": oracle.value,
        "oracle_value": oracle.value,
        "comonotone_is_minimal": minimal,
    }
    return (EXIT_OK if minimal else EXIT_DISAGREEMENT), payload


def cmd_diagnose_tails(args: argparse.Namespace) -> tuple[int, dict]:
    grid = [tok for tok in args.grid.split(",") if tok.strip()]
    rows = tail_decay_diagnostic(_samples(args.file), args.r, grid)
    payload = {
        "inputs": [args.file],
        "r": args.r,
        "rows": [
            {"x": x, "upper_tail_term": up, "lower_tail_term": low} for x, up, low in rows
        ],
    }
    return EXIT_OK, payload


# -- output ----------------------------------------------------------------------


def _flatten(prefix: str, value, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            _flatten(f"{prefix}[{idx}]", item, out)
    else:
        out.append((prefix, json.dumps(value)))


def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    flat: list[tuple[str, str]] = []
    _flatten("", payload, flat)
    flat.sort(key=lambda kv: kv[0])
    if fmt == "csv":
        print("key,value")
    separator = "," if fmt == "csv" else " = "
    for key, value in flat:
        print(f"{key}{separator}{value}")


# -- argument parsing --------------------------------------------------------------


def _positive_order(text: str) -> float:
    return _order(text, "order", error=argparse.ArgumentTypeError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copula-ot",
        description="Wasserstein distances through the comonotonicity copula",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("json", "csv", "plain"), default="json")
        return p

    def two_files(name: str, run, help: str, p_default: float) -> argparse.ArgumentParser:
        p = command(name, run, help)
        p.add_argument("file_a")
        p.add_argument("file_b")
        p.add_argument("--p", type=_positive_order, default=p_default)
        return p

    def add_tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                       help=f"method-disagreement tolerance (default {DEFAULT_TOLERANCE})")

    p1 = two_files("dist1d", cmd_dist1d, "distance between two one-column sample files", 1.0)
    add_tolerance(p1)

    pn = two_files("distnd", cmd_distnd, "coordinate-additive distance between d-column files", 1.0)
    pn.add_argument("--q", type=_positive_order, default=None,
                    help="ground-norm order (default: same as --p)")
    pn.add_argument("--assume-shared-copula", action="store_true",
                    help="declare that both inputs share the same copula")
    add_tolerance(pn)

    pc = command("check-copula", cmd_check_copula, "validate a built-in copula on a grid")
    pc.add_argument("label", help="one of M, W, Pi")
    pc.add_argument("--dim", type=int, default=2)
    pc.add_argument("--resolution", type=int, default=None)

    two_files("oracle-compare", cmd_oracle_compare, "cost table over all extreme couplings", 2.0)

    pt = command("diagnose-tails", cmd_diagnose_tails, "tail decay diagnostic along a grid")
    pt.add_argument("file")
    pt.add_argument("--r", type=float, required=True)
    pt.add_argument("--grid", required=True, help="comma-separated increasing positive reals")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.run(args)
    except CopulaOTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PreconditionError):
            return EXIT_MISSING_HYPOTHESIS
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_INPUT
    payload["command"] = args.command
    try:
        emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; at exit the flush would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
