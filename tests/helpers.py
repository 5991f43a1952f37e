"""Shared corpus builders for the test suite."""

import json
import math
import os
from pathlib import Path
from typing import Sequence

import numpy as np

import copula_ot
from copula_ot import Distribution1D, DomainError, from_atoms, from_quantile

# Environment for CLI subprocesses: they import copula_ot from where this
# interpreter found it, so the tests run without installing the package.
SUBPROCESS_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(copula_ot.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    ),
)


def random_discrete(
    rng: np.random.Generator,
    max_atoms: int = 12,
    span: float = 10.0,
) -> Distribution1D:
    """Random discrete measure: atoms uniform in [-span, span], weights from
    a random simplex (kept strictly positive)."""
    n = int(rng.integers(1, max_atoms + 1))
    atoms = np.unique(rng.uniform(-span, span, n))
    if atoms.size > 1:
        weights = rng.dirichlet(np.ones(atoms.size))
        weights = np.maximum(weights, 1e-9)
        weights /= weights.sum()
    else:
        weights = np.array([1.0])
    return from_atoms(atoms, weights)


def uniform_with_nan_hole() -> Distribution1D:
    """U(0, 1) whose CDF and quantile evaluators return NaN on (0.4, 0.6)."""

    def holed(t, value):
        return math.nan if 0.4 < t < 0.6 else value

    return from_quantile(lambda u: holed(u, u), lambda x: holed(x, min(1.0, max(0.0, x))), math.inf)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _reject_constant(name: str):
    raise ValueError(f"CLI output is not strict JSON: it contains {name}")


def strict_json(text: str | bytes):
    """Parse CLI stdout as strict JSON, which has no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def comonotone_support(margins: Sequence[Distribution1D]) -> tuple[np.ndarray, np.ndarray]:
    """Discrete comonotone joint of several discrete margins.

    Merges every margin's cumulative-weight ladder into shared breakpoints
    and maps each piece to the quantile vector on it: the atom whose
    cumulative weight first reaches the piece's right end. Returns
    (points, weights) with points of shape (k, d); the joint's copula is M
    by construction. Built here from ``np.unique`` and ``np.searchsorted``
    alone, independently of the library's comonotone walk.
    """
    margins = tuple(margins)
    if not margins:
        raise DomainError("need at least one margin")
    if not all(m.is_discrete for m in margins):
        raise DomainError("comonotone support needs discrete margins")
    ends = np.unique(np.concatenate([m.cumulative_weights for m in margins]))
    points = np.stack([m.atoms[np.searchsorted(m.cumulative_weights, ends)] for m in margins], axis=1)
    return points, np.diff(ends, prepend=0.0)
