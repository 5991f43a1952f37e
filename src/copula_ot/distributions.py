"""One-dimensional probability measures for transport-distance work.

A measure is exposed through exactly two maps: the right-continuous CDF
``F`` and the left-continuous generalized inverse (quantile function)
``F^{-1}(u) = inf{x : F(x) >= u}``. Discrete and empirical measures store a
merged, strictly increasing atom ladder; parametric measures wrap
caller-supplied CDF and quantile evaluators.

Instances are immutable and all operations are pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConstructionError, DivergenceError, DomainError

__all__ = [
    "Distribution1D",
    "from_samples",
    "from_atoms",
    "from_quantile",
    "tail_decay_diagnostic",
    "QUANTILE_TIE_TOL",
    "QUAD_EPS",
]

# Cumulative sums of floating weights drift near exact ladder boundaries;
# without this slack the generalized inverse would skip an atom there. It is
# the only tie rule: quantiles and the merged ladder below both apply it.
QUANTILE_TIE_TOL = 1e-12

# Absolute tolerance on the total weight at construction time.
WEIGHT_SUM_TOL = 1e-12

# Endpoint clip for quadrature on (0, 1); quantile integrands of
# heavy-tailed measures blow up at 0 and 1.
QUAD_EPS = 1e-9


def _atom_index(cum: np.ndarray, u):
    """Index of the first entry of the cumulative ladder ``cum`` that reaches
    ``u`` within ``QUANTILE_TIE_TOL``: the quantile's atom, elementwise."""
    return np.searchsorted(cum, u - QUANTILE_TIE_TOL, side="left")


def _order(
    value: float,
    name: str,
    *,
    low: float = 1.0,
    strict: bool = False,
    error: type[Exception] = DomainError,
) -> float:
    """The one check on distance, moment and tail orders: ``value`` as a
    float, or ``error`` unless it is finite and >= ``low`` (> when strict)."""
    value = float(value)
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        bound = ">" if strict else ">="
        raise error(f"{name} must be finite and {bound} {low:g}, got {value!r}")
    return value


def _ladder(margins: Sequence[Distribution1D]) -> tuple[np.ndarray, np.ndarray]:
    """The merged cumulative-weight ladder of discrete margins.

    Splits (0, 1] at every margin's cumulative weights. On each piece every
    quantile function is constant, so the law of (F_1^{-1}(U), ...,
    F_d^{-1}(U)) puts the piece's length on one atom per margin. Returns
    (idx, widths): ``idx[k, m]`` is margin m's atom index on piece k, read at
    the piece midpoint, and ``widths[k]`` is the piece length in u.
    """
    breaks = np.unique(np.concatenate([m.cumulative_weights for m in margins]))
    breaks = np.concatenate(([0.0], breaks))
    mids = (breaks[:-1] + breaks[1:]) / 2.0
    idx = np.stack([_atom_index(m.cumulative_weights, mids) for m in margins], axis=1)
    return idx, np.diff(breaks)


@dataclass(frozen=True)
class Distribution1D:
    """A probability measure on R seen through CDF and quantile evaluation.

    Exactly one backing is given: ``(atoms, weights)`` for discrete and
    empirical measures, which are stored alike as merged atoms since every
    downstream formula consumes only the (CDF, quantile) pair, or
    ``(cdf_fn, quantile_fn)`` for parametric ones. Atoms must be finite and
    strictly increasing, and weights strictly positive with a total within
    ``WEIGHT_SUM_TOL`` of 1; both are stored as read-only float arrays.

    ``p_moment_order`` is the largest order ``p`` for which membership in
    the Wasserstein space of order ``p`` is asserted. Discrete measures get
    ``inf``; parametric constructors must state it explicitly.

    ``tail_moment_bound(p, eps)``, when supplied by a parametric evaluator,
    must bound the quantile integral of ``|F^{-1}(u)|^p`` over
    ``(0, eps) + (1 - eps, 1)``. It feeds error accounting in distance
    computations; no numerical inversion is ever attempted here.
    """

    atoms: np.ndarray | None = None
    weights: np.ndarray | None = None
    cdf_fn: Callable[[float], float] | None = None
    quantile_fn: Callable[[float], float] | None = None
    p_moment_order: float = math.inf
    tail_moment_bound: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        given = [b is not None for b in (self.atoms, self.weights, self.cdf_fn, self.quantile_fn)]
        if given not in ([True, True, False, False], [False, False, True, True]):
            raise ConstructionError(
                "a measure needs exactly one backing: (atoms, weights) or "
                "(cdf_fn, quantile_fn)"
            )
        if not self.p_moment_order >= 1.0:
            raise ConstructionError("p_moment_order must be >= 1")
        if self.atoms is None:
            return
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0 or weights.shape != atoms.shape:
            raise ConstructionError("a discrete measure needs at least one atom, each with a weight")
        if not (np.all(np.isfinite(atoms)) and np.all(atoms[1:] > atoms[:-1])):
            raise ConstructionError("atoms must be finite and strictly increasing")
        if not np.all(weights > 0.0):
            raise ConstructionError("weights must be strictly positive")
        total = float(np.sum(weights))
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise ConstructionError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        for arr, field in ((atoms, "atoms"), (weights, "weights")):
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    # -- structure ---------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.atoms is not None

    @property
    def n_atoms(self) -> int:
        if self.atoms is None:
            raise DomainError("parametric measure has no atoms")
        return int(self.atoms.size)

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """Cumulative weight ladder; last entry pinned to exactly 1.0."""
        if self.weights is None:
            raise DomainError("parametric measure has no weight ladder")
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        cum.flags.writeable = False
        return cum

    # -- the two fundamental maps -------------------------------------------

    def cdf(self, x: float) -> float:
        """P(X <= x); right-continuous, 0 below the support and 1 above it."""
        x = float(x)
        if math.isnan(x):
            raise DomainError("cdf requires a real argument")
        if self.atoms is not None:
            idx = int(np.searchsorted(self.atoms, x, side="right"))
            if idx == 0:
                return 0.0
            return float(self.cumulative_weights[idx - 1])
        value = float(self.cdf_fn(x))  # type: ignore[misc]
        return min(1.0, max(0.0, value))

    def quantile(self, u: float) -> float:
        """Generalized inverse inf{x : F(x) >= u} for u in (0, 1].

        On discrete measures this is the smallest atom whose cumulative
        weight reaches ``u`` within ``QUANTILE_TIE_TOL``; it is
        nondecreasing and left-continuous. Parametric evaluators may return
        ``inf`` at u == 1 when the support is unbounded above.
        """
        u = float(u)
        if not 0.0 < u <= 1.0:
            raise DomainError(f"quantile requires u in (0, 1], got {u}")
        if self.atoms is not None:
            return float(self.atoms[_atom_index(self.cumulative_weights, u)])
        return float(self.quantile_fn(u))  # type: ignore[misc]

    def quantile_many(self, u: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`quantile`; same domain checks per entry."""
        arr = np.asarray(u, dtype=float)
        if not np.all((arr > 0.0) & (arr <= 1.0)):
            raise DomainError("quantile requires u in (0, 1]")
        if self.atoms is not None:
            return self.atoms[_atom_index(self.cumulative_weights, arr)]
        return np.array([float(self.quantile_fn(v)) for v in arr])  # type: ignore[misc]

    # -- moments -------------------------------------------------------------

    def p_moment(self, p: float) -> float:
        """E|X|^p: exact weighted sum for discrete measures, the comonotone
        integral of |F^{-1}(u)|^p otherwise.
        """
        p = _order(p, "moment order p")
        if self.atoms is not None:
            return float(np.sum(self.weights * np.abs(self.atoms) ** p))
        return _comonotone_integral((self,), lambda a: abs(a) ** p, what=f"moment of order {p}")[0]


def _comonotone_integral(
    margins: Sequence[Distribution1D], integrand: Callable, *, what: str
) -> tuple[float, float]:
    """(value, abserr) of the integral of integrand(F_1^{-1}(u), ...,
    F_d^{-1}(u)) over (0, 1): the expectation under the comonotone joint.

    When every margin is discrete the integrand is a step function on the
    merged ladder, so it is called once on arrays of the pieces' atoms and
    the sum is exact. Otherwise it is called on floats by quadrature on
    (QUAD_EPS, 1 - QUAD_EPS), split at the discrete margins' cumulative
    weights, where the integrand jumps.
    """
    if all(m.is_discrete for m in margins):
        idx, widths = _ladder(margins)
        values = integrand(*(m.atoms[idx[:, k]] for k, m in enumerate(margins)))
        return float(np.sum(widths * values)), 0.0
    return _quad_checked(
        lambda u: integrand(*(m.quantile(u) for m in margins)),
        QUAD_EPS,
        1.0 - QUAD_EPS,
        what=what,
        breaks=[m.cumulative_weights for m in margins if m.is_discrete],
    )


def _quad_checked(fn, lo: float, hi: float, *, what: str, breaks=()) -> tuple[float, float]:
    """scipy adaptive quadrature, promoting non-convergence to an error.

    ``breaks`` holds arrays of points where ``fn`` may jump; those strictly
    inside (lo, hi) split the integral, on top of 200 adaptive
    subdivisions. scipy.integrate is imported here, not at module level, so
    that the discrete paths and the CLI start without it.
    """
    from scipy import integrate

    inner = np.unique(np.concatenate([np.empty(0), *breaks]))
    inner = inner[(inner > lo) & (inner < hi)]
    value, abserr, info, *rest = integrate.quad(
        fn,
        lo,
        hi,
        limit=200 + 4 * inner.size,
        points=inner if inner.size else None,
        full_output=1,
    )
    if rest:
        raise DivergenceError(f"quadrature failed for {what} on ({lo!r}, {hi!r}): {rest[0]}")
    return float(value), float(abserr)


# -- constructors -------------------------------------------------------------


def from_samples(samples: Sequence[float] | np.ndarray) -> Distribution1D:
    """Empirical measure: weight 1/n per sample, duplicates merged."""
    arr = np.asarray(samples, dtype=float).ravel()
    atoms, counts = np.unique(arr, return_counts=True)
    return Distribution1D(atoms=atoms, weights=counts / arr.size)


def from_atoms(
    atoms: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> Distribution1D:
    """Discrete measure from (atom, weight) pairs.

    Duplicate atoms are merged by accumulating their weights so the CDF is a
    step function with strictly increasing jump locations. Weights must be
    strictly positive before the merge; the measure checks the rest.
    """
    a = np.asarray(atoms, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if a.shape != w.shape:
        raise ConstructionError("atoms and weights must have matching lengths")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ConstructionError("weights must be finite and strictly positive")
    uniq, inverse = np.unique(a, return_inverse=True)
    return Distribution1D(atoms=uniq, weights=np.bincount(inverse, weights=w))


def from_quantile(
    quantile_fn: Callable[[float], float],
    cdf_fn: Callable[[float], float],
    p_moment_order: float,
    tail_moment_bound: Callable[[float, float], float] | None = None,
) -> Distribution1D:
    """Parametric measure from caller-supplied evaluators.

    Both maps are required: inversion accuracy is the caller's
    responsibility, which keeps downstream error bounds compositional.
    """
    return Distribution1D(
        cdf_fn=cdf_fn,
        quantile_fn=quantile_fn,
        p_moment_order=float(p_moment_order),
        tail_moment_bound=tail_moment_bound,
    )


# -- diagnostics and deterministic couplings ----------------------------------


def tail_decay_diagnostic(
    dist: Distribution1D,
    r: float,
    grid: Sequence[float] | np.ndarray,
) -> list[tuple[float, float, float]]:
    """Tail decay terms (x, x^r * (1 - F(x)), x^r * F(-x)) along a grid.

    A finite moment of order r forces both terms to vanish as x grows; for
    compactly supported measures the entries are exactly zero beyond the
    support, however large x^r is. A term that overflows double precision
    raises ``DomainError``.
    """
    r = _order(r, "tail order r", low=0.0, strict=True)
    g = np.asarray(grid, dtype=float).ravel()
    if not np.all(np.isfinite(g)):
        raise DomainError(f"grid values must be finite, got {float(g[~np.isfinite(g)][0])!r}")
    if g.size and (np.any(g <= 0.0) or np.any(np.diff(g) <= 0.0)):
        raise DomainError("grid must be strictly increasing and positive")
    out = []
    with np.errstate(over="ignore"):
        for x in g:
            terms = [x**r * tail if tail > 0.0 else 0.0 for tail in (1.0 - dist.cdf(x), dist.cdf(-x))]
            if not all(map(math.isfinite, terms)):
                raise DomainError(f"tail term overflows double precision at x = {float(x)!r}")
            out.append((float(x), *map(float, terms)))
    return out

