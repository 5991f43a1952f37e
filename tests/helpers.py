"""Shared corpus builders for the test suite."""

import os
from pathlib import Path

import numpy as np

import copula_ot
from copula_ot import Distribution1D, from_atoms

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


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))
