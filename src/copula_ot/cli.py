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
from .distances import w1_cdf_area, wasserstein_1d, wasserstein_shared_copula
from .distributions import _order, from_samples, tail_decay_diagnostic
from .errors import CapacityError, CopulaOTError
from .oracle import (
    TransportInstance,
    enumerate_extreme_couplings,
    monotone_plan_1d,
    solve_exact,
    transport_cost,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT = 2
EXIT_MISSING_HYPOTHESIS = 3
EXIT_CAPACITY = 4

DEFAULT_TOLERANCE = 1e-8
TOLERANCE_ENV_VAR = "COPULA_OT_TOLERANCE"

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


def _tolerance(args: argparse.Namespace) -> float:
    if args.tolerance is not None:
        value, source = args.tolerance, "--tolerance"
    elif (env := os.environ.get(TOLERANCE_ENV_VAR)) is not None:
        source = f"{TOLERANCE_ENV_VAR}={env!r}"
        try:
            value = float(env)
        except ValueError:
            raise InputError(f"{source} is not a number") from None
    else:
        return DEFAULT_TOLERANCE
    if not (math.isfinite(value) and value >= 0.0):
        raise InputError(f"{source} must be finite and >= 0, got {value}")
    return value


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


# -- commands -------------------------------------------------------------------


def cmd_dist1d(args: argparse.Namespace) -> tuple[int, dict]:
    tolerance = _tolerance(args)
    f = from_samples(read_csv_columns(args.file_a, expect_cols=1).ravel())
    g = from_samples(read_csv_columns(args.file_b, expect_cols=1).ravel())
    notices: list[str] = []

    quantile = wasserstein_1d(f, g, args.p)
    methods = {"quantile_integral": quantile.value_pth_power}
    if args.p == 1.0:
        methods["cdf_area"] = w1_cdf_area(f, g).value_pth_power
    oracle_value = _oracle_value(TransportInstance.from_distributions(f, g, args.p), notices)
    if oracle_value is not None:
        methods["oracle_lp"] = oracle_value
    disagreement = _max_disagreement(list(methods.values()))
    payload = {
        "command": "dist1d",
        "inputs": [args.file_a, args.file_b],
        "p": args.p,
        "w_p": quantile.value,
        "w_p_pow_p": quantile.value_pth_power,
        "methods": methods,
        "max_method_disagreement": disagreement,
        "tolerance": tolerance,
        "notices": notices,
    }
    code = EXIT_OK if disagreement <= tolerance else EXIT_DISAGREEMENT
    return code, payload


def cmd_distnd(args: argparse.Namespace) -> tuple[int, dict]:
    if not args.assume_shared_copula:
        raise MissingHypothesis(SHARED_COPULA_HYPOTHESIS)
    tolerance = _tolerance(args)
    a = read_csv_columns(args.file_a)
    b = read_csv_columns(args.file_b)
    if a.shape[1] != b.shape[1]:
        raise InputError(
            f"width mismatch: {args.file_a} has {a.shape[1]} columns, "
            f"{args.file_b} has {b.shape[1]}"
        )
    notices: list[str] = []
    f_margins = [from_samples(a[:, i]) for i in range(a.shape[1])]
    g_margins = [from_samples(b[:, i]) for i in range(b.shape[1])]
    q = args.p if args.q is None else args.q

    report = wasserstein_shared_copula(f_margins, g_margins, args.p, q)
    per_coord = list(report.per_coordinate_pth_power)
    payload: dict = {
        "command": "distnd",
        "inputs": [args.file_a, args.file_b],
        "p": args.p,
        "q": q,
        "dimension": len(f_margins),
        "assumed_hypothesis": "both inputs share the same copula",
        "per_coordinate_w_p_pow_p": per_coord,
        "notices": notices,
    }

    # The oracle runs on the rows themselves, so it sees the copulas of the
    # data: when they differ, the LP moves off the shared-copula result.
    instance = TransportInstance(
        a, np.full(len(a), 1.0 / len(a)), b, np.full(len(b), 1.0 / len(b)), p=args.p, q=q
    )
    oracle_value = _oracle_value(instance, notices)
    lower, upper = report.bracket_pth_power
    if report.is_bracket:
        payload["bracket_pow_p"] = [lower, upper]
        payload["shared_copula_integral"] = float(sum(per_coord))
        notices.append(
            "orders p and q differ: no exact representation exists, reporting "
            "norm-equivalence brackets for W_{p,q}^p"
        )
    else:
        payload["w_p"] = report.value
        payload["w_p_pow_p"] = report.value_pth_power
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
        "command": "check-copula",
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
    f = from_samples(read_csv_columns(args.file_a, expect_cols=1).ravel())
    g = from_samples(read_csv_columns(args.file_b, expect_cols=1).ravel())
    vertices = enumerate_extreme_couplings(f.weights, g.weights, f.atoms, g.atoms)
    comonotone = monotone_plan_1d(f, g)
    comonotone_cost = transport_cost(comonotone, args.p)
    oracle = solve_exact(TransportInstance.from_distributions(f, g, args.p))
    rows = [
        {
            "cost": transport_cost(vertex, args.p),
            "is_comonotone": bool(np.allclose(vertex.mass, comonotone.mass, atol=1e-12, rtol=0.0)),
        }
        for vertex in vertices
    ]
    rows.sort(key=lambda r: (r["cost"], not r["is_comonotone"]))
    minimal = all(comonotone_cost <= row["cost"] + 1e-9 for row in rows)
    agrees = _relative_gap(comonotone_cost, oracle.value) <= 1e-9
    payload = {
        "command": "oracle-compare",
        "inputs": [args.file_a, args.file_b],
        "p": args.p,
        "couplings": rows,
        "comonotone_cost": comonotone_cost,
        "oracle_value": oracle.value,
        "comonotone_is_minimal": bool(minimal and agrees),
    }
    code = EXIT_OK if minimal and agrees else EXIT_DISAGREEMENT
    return code, payload


def cmd_diagnose_tails(args: argparse.Namespace) -> tuple[int, dict]:
    samples = read_csv_columns(args.file, expect_cols=1).ravel()
    dist = from_samples(samples)
    grid = [tok for tok in args.grid.split(",") if tok.strip()]
    rows = tail_decay_diagnostic(dist, args.r, grid)
    payload = {
        "command": "diagnose-tails",
        "inputs": [args.file],
        "r": args.r,
        "rows": [
            {"x": x, "upper_tail_term": up, "lower_tail_term": low} for x, up, low in rows
        ],
    }
    return EXIT_OK, payload


class MissingHypothesis(CopulaOTError):
    """Raised when a command needs an explicit hypothesis flag."""


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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv", "plain"), default="json")

    def add_tolerance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tolerance", type=float, default=None,
                       help=f"method-disagreement tolerance (default {DEFAULT_TOLERANCE}, "
                            f"or ${TOLERANCE_ENV_VAR})")

    p1 = sub.add_parser("dist1d", help="distance between two one-column sample files")
    p1.add_argument("file_a")
    p1.add_argument("file_b")
    p1.add_argument("--p", type=_positive_order, default=1.0)
    add_common(p1)
    add_tolerance(p1)
    p1.set_defaults(run=cmd_dist1d)

    pn = sub.add_parser("distnd", help="coordinate-additive distance between d-column files")
    pn.add_argument("file_a")
    pn.add_argument("file_b")
    pn.add_argument("--p", type=_positive_order, default=1.0)
    pn.add_argument("--q", type=_positive_order, default=None,
                    help="ground-norm order (default: same as --p)")
    pn.add_argument("--assume-shared-copula", action="store_true",
                    help="declare that both inputs share the same copula")
    add_common(pn)
    add_tolerance(pn)
    pn.set_defaults(run=cmd_distnd)

    pc = sub.add_parser("check-copula", help="validate a built-in copula on a grid")
    pc.add_argument("label", help="one of M, W, Pi")
    pc.add_argument("--dim", type=int, default=2)
    pc.add_argument("--resolution", type=int, default=None)
    add_common(pc)
    pc.set_defaults(run=cmd_check_copula)

    po = sub.add_parser("oracle-compare", help="cost table over all extreme couplings")
    po.add_argument("file_a")
    po.add_argument("file_b")
    po.add_argument("--p", type=_positive_order, default=2.0)
    add_common(po)
    po.set_defaults(run=cmd_oracle_compare)

    pt = sub.add_parser("diagnose-tails", help="tail decay diagnostic along a grid")
    pt.add_argument("file")
    pt.add_argument("--r", type=float, required=True)
    pt.add_argument("--grid", required=True, help="comma-separated increasing positive reals")
    add_common(pt)
    pt.set_defaults(run=cmd_diagnose_tails)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload = args.run(args)
    except CopulaOTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissingHypothesis):
            return EXIT_MISSING_HYPOTHESIS
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_INPUT
    try:
        emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; at exit the flush would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
