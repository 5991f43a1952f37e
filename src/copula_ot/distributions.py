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
import operator
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
# without this slack a caller's u there would skip an atom. Only quantile and
# quantile_many apply it; the comonotone path reads the measures' own rungs.
QUANTILE_TIE_TOL = 1e-12

# Absolute tolerance on the total weight at construction time.
WEIGHT_SUM_TOL = 1e-12

# Endpoint clip for quadrature on (0, 1); quantile integrands of
# heavy-tailed measures blow up at 0 and 1.
QUAD_EPS = 1e-9


def _reals(values, name: str, error: type[Exception] = ConstructionError) -> np.ndarray:
    """``values`` as a float array, copied only if it is not one, or
    ``error`` naming ``name`` if it is ragged, complex or not numeric."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":  # a cast to float would drop the imaginary part
            raise TypeError(f"got {arr.dtype} values")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be real numbers: {exc}") from None


def _real(value, what: str, error: type[Exception] = DomainError) -> float:
    """``value`` as one float, as ``float`` reads it, or ``error``
    "<what>, got <value>" if it is no real scalar: complex, an array of one
    dimension or more, or nothing ``float`` reads. The NaN rule is the
    caller's."""
    if isinstance(value, float):
        return float(value)
    try:
        arr = np.asarray(value)
        if arr.ndim == 0 and arr.dtype.kind != "c":  # float() would drop an imaginary part
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what}, got {value!r}")


def _count(value, name: str, low: int) -> int:
    """``value`` as an int, as ``operator.index`` reads it (so no float, not
    even 2.0, and no string), or ``DomainError`` unless it is one >= ``low``."""
    try:
        count = operator.index(value)
        if count >= low:
            return count
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def _owned(values, name: str) -> np.ndarray:
    """A read-only float copy of ``values``: every stored input array is one,
    so no caller's array, or view of one, can change a checked object."""
    arr = _reals(values, name).copy()
    arr.flags.writeable = False
    return arr


def _weight_rule(w: np.ndarray, name: str) -> None:
    """The one weight rule on a flat float array: ``ConstructionError`` naming
    ``name`` unless every weight is finite and strictly positive and they sum
    to 1 within ``WEIGHT_SUM_TOL``."""
    if w.size and not (0.0 < w.min() and w.max() < math.inf):  # min() and max() carry a NaN
        raise ConstructionError(f"{name} must be finite and strictly positive")
    total = float(w.sum())
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise ConstructionError(f"{name} must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")


def _weights(values, name: str) -> np.ndarray:
    """An owned flat copy of ``values`` that meets the weight rule."""
    w = _owned(values, name).ravel()
    _weight_rule(w, name)
    return w


def _ladder_rule(atoms: np.ndarray, weights: np.ndarray) -> None:
    """The discrete measure's rule on its stored arrays, whose weights meet
    the weight rule: one finite atom per weight, strictly increasing."""
    if atoms.ndim != 1 or weights.shape != atoms.shape:
        raise ConstructionError("a discrete measure needs at least one atom, each with a weight")
    # increasing leaves no NaN inside, so only the ends need testing for finiteness
    if not (-math.inf < atoms[0] and atoms[-1] < math.inf and (atoms[1:] > atoms[:-1]).all()):
        raise ConstructionError("atoms must be finite and strictly increasing")


def _adopt(cls, **fields):
    """An instance of the frozen dataclass ``cls`` that holds ``fields`` as
    they are, past its ``__post_init__`` and without a copy. Only for arrays
    the library has checked, that are read-only and that no caller can write;
    fields left out keep their class defaults."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


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
    """The one check on distance, moment and tail orders, and on a
    ``tail_moment_bound``'s return: ``value`` as a float, or ``error``
    unless it is finite and >= ``low`` (> when strict)."""
    value = _real(value, f"{name} must be a real number", error)
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        bound = ">" if strict else ">="
        raise error(f"{name} must be finite and {bound} {low:g}, got {value!r}")
    return value


def _comonotone_path(cum_a: np.ndarray, cum_b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law of (F^{-1}(U), G^{-1}(U)) for m and n sorted atoms with running
    weight sums ``cum_a`` and ``cum_b``, by Hoffman's north-west corner walk:
    the interior rungs, capped at 1, merge stably (a's first on a tie), and
    at each the walk steps to that side's next atom. Returns (i, j, widths):
    m + n - 1 cells, each with its u-length, the last ending at exactly 1; a
    tie gives a cell of width zero."""
    m = cum_a.size
    ends = np.empty(m + cum_b.size)
    ends[0], ends[1:m], ends[m:-1], ends[-1] = 0.0, cum_a[:-1], cum_b[:-1], 1.0
    np.minimum(ends, 1.0, out=ends)
    # a stable sort merges the two runs in O(m + n); cell k's row counts a's among the first k rungs
    order = ends[1:-1].argsort(kind="stable")
    i = np.zeros(ends.size - 1, dtype=np.int32)
    np.cumsum(order < m - 1, out=i[1:])
    ends[1:-1] = ends[1:-1][order]
    return i, np.arange(i.size, dtype=np.int32) - i, ends[1:] - ends[:-1]


@dataclass(frozen=True)
class Distribution1D:
    """A probability measure on R seen through CDF and quantile evaluation.

    Exactly one backing is given: ``(atoms, weights)`` for discrete and
    empirical measures, which are stored alike as merged atoms since every
    downstream formula consumes only the (CDF, quantile) pair, or
    ``(cdf_fn, quantile_fn)`` for parametric ones. Atoms must be finite and
    strictly increasing, and weights strictly positive with a total within
    ``WEIGHT_SUM_TOL`` of 1; both are stored as read-only float copies
    (``from_samples`` and ``from_atoms`` hand over the arrays they built).

    ``p_moment_order`` is the largest order ``p`` for which membership in
    the Wasserstein space of order ``p`` is asserted. Discrete measures get
    ``inf``; parametric constructors must state it explicitly.

    ``tail_moment_bound(p, eps)``, when supplied by a parametric evaluator,
    must bound the quantile integral of ``|F^{-1}(u)|^p`` over
    ``(0, eps) + (1 - eps, 1)`` and return a finite real >= 0, or distance
    computations raise ``DomainError`` naming it. It feeds their error
    accounting; no numerical inversion is ever attempted here.
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
        order = _real(self.p_moment_order, "p_moment_order must be a real number", ConstructionError)
        if order != math.inf:  # the one order that may be infinite: every moment exists
            _order(order, "p_moment_order", error=ConstructionError)
        object.__setattr__(self, "p_moment_order", order)
        if self.atoms is None:
            return
        atoms = _owned(self.atoms, "atoms")
        weights = _weights(self.weights, "weights")
        _ladder_rule(atoms, weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

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
        """Running weight sums, the comonotone path's rungs: capped at 1 to stay sorted, the last 1.0."""
        if self.weights is None:
            raise DomainError("parametric measure has no weight ladder")
        cum = self.weights.cumsum()
        np.minimum(cum, 1.0, out=cum)
        cum[-1] = 1.0
        cum.flags.writeable = False
        return cum

    # -- the two fundamental maps -------------------------------------------

    def cdf(self, x: float) -> float:
        """P(X <= x); right-continuous, 0 below the support and 1 above it,
        and exactly 0 at -inf and 1 at +inf for every measure, whatever a
        parametric evaluator returns there.

        An x that is NaN or no real number, or a parametric evaluator's
        return that is NaN or no real number, raises ``DomainError`` naming x.
        """
        x = _real(x, "cdf requires a real argument x")
        if math.isnan(x):
            raise DomainError("cdf requires a real argument x, got nan")
        if self.atoms is not None:
            idx = int(np.searchsorted(self.atoms, x, side="right"))
            if idx == 0:
                return 0.0
            return float(self.cumulative_weights[idx - 1])
        if math.isinf(x):
            return float(x > 0.0)
        what = f"cdf evaluator returned no real number at x = {x!r}"
        value = _real(self.cdf_fn(x), what)  # type: ignore[misc]
        if math.isnan(value):
            raise DomainError(f"cdf evaluator returned nan at x = {x!r}")
        return min(1.0, max(0.0, value))

    def quantile(self, u: float) -> float:
        """Generalized inverse inf{x : F(x) >= u} for u in (0, 1].

        On discrete measures this is the smallest atom whose cumulative
        weight reaches ``u`` within ``QUANTILE_TIE_TOL``; it is
        nondecreasing and left-continuous. Parametric evaluators may return
        ``inf`` at u == 1 when the support is unbounded above; a return
        that is NaN or no real number raises ``DomainError`` naming u.
        """
        u = _real(u, "quantile requires u in (0, 1]")
        if not 0.0 < u <= 1.0:
            raise DomainError(f"quantile requires u in (0, 1], got {u}")
        if self.atoms is not None:
            return float(self.atoms[_atom_index(self.cumulative_weights, u)])
        what = f"quantile evaluator returned no real number at u = {u!r}"
        value = _real(self.quantile_fn(u), what)  # type: ignore[misc]
        if math.isnan(value):
            raise DomainError(f"quantile evaluator returned nan at u = {u!r}")
        return value

    def quantile_many(self, u: Sequence[float] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`quantile`, of ``u``'s shape; same domain checks per entry."""
        arr = _reals(u, "quantile u", error=DomainError)
        if not np.all((arr > 0.0) & (arr <= 1.0)):
            raise DomainError("quantile requires u in (0, 1]")
        if self.atoms is not None:
            return self.atoms[_atom_index(self.cumulative_weights, arr)]
        return np.array([self.quantile(v) for v in arr.flat]).reshape(arr.shape)

    # -- moments -------------------------------------------------------------

    def p_moment(self, p: float) -> float:
        """E|X|^p: exact weighted sum for discrete measures, the comonotone
        integral of |F^{-1}(u)|^p otherwise. A moment that overflows double
        precision raises ``DomainError`` naming the order.
        """
        p = _order(p, "moment order p")
        with np.errstate(over="ignore"):
            if self.atoms is not None:
                moment = float(np.sum(self.weights * np.abs(self.atoms) ** p))
            else:
                moment = _comonotone_integral((self,), lambda a: abs(a) ** p, what=f"moment of order {p}")[0]
        if not math.isfinite(moment):
            raise DomainError(f"moment of order p = {p:g} overflows double precision")
        return moment


def _comonotone_integral(
    margins: Sequence[Distribution1D], integrand: Callable, *, what: str
) -> tuple[float, float]:
    """(value, abserr) of the integral of integrand(F_1^{-1}(u), ...,
    F_d^{-1}(u)) over (0, 1): the expectation under the comonotone joint.

    Discrete margins come in pairs: the integrand is called once, on the
    atoms of the cells of positive width on their comonotone path, and the
    sum is exact. Otherwise it is called on numpy floats, so that
    ``np.errstate`` covers its arithmetic, by quadrature on (QUAD_EPS,
    1 - QUAD_EPS), split at the discrete margins' cumulative weights.
    """
    if all(m.is_discrete for m in margins):
        f, g = margins
        i, j, widths = _comonotone_path(f.cumulative_weights, g.cumulative_weights)
        keep = widths > 0.0
        i, j, widths = i[keep], j[keep], widths[keep]
        return float((widths * integrand(f.atoms[i], g.atoms[j])).sum()), 0.0
    return _quad_checked(
        lambda u: integrand(*(np.float64(m.quantile(u)) for m in margins)),
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


def _discrete(atoms: np.ndarray, weights: np.ndarray) -> Distribution1D:
    """The discrete measure on float arrays just built here, which no caller
    holds and whose weights meet the weight rule: it adopts them read-only,
    after the ladder rule, without the copies the public constructor makes."""
    atoms.flags.writeable = False
    weights.flags.writeable = False
    _ladder_rule(atoms, weights)
    return _adopt(Distribution1D, atoms=atoms, weights=weights)


def from_samples(samples: Sequence[float] | np.ndarray) -> Distribution1D:
    """Empirical measure: weight 1/n per sample, duplicates merged.

    The weights are the steps of the integer-count ladder k/n, each rung
    rounded once, so their running sum stays on it instead of drifting by
    one rounding per atom.
    """
    arr = _reals(samples, "samples").ravel()
    if not arr.size:
        raise ConstructionError("from_samples needs at least one sample")
    atoms = np.sort(arr)  # a copy: arr may be the caller's array
    ends = np.append(np.flatnonzero(atoms[1:] != atoms[:-1]) + 1, arr.size)  # running count at each run's end
    atoms = atoms[np.concatenate(([0], ends[:-1]))]  # each run's first sample, as np.unique takes it
    rungs = ends / arr.size
    weights = rungs.copy()
    weights[1:] -= rungs[:-1]  # the rungs' steps, in place: one full-length temporary fewer
    _weight_rule(weights, "weights")
    return _discrete(atoms, weights)


def from_atoms(
    atoms: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray,
) -> Distribution1D:
    """Discrete measure from (atom, weight) pairs.

    Duplicate atoms are merged by accumulating their weights so the CDF is a
    step function with strictly increasing jump locations. The weights meet
    the weight rule before the merge, which would hide a negative one; the
    merged atoms meet the ladder rule.
    """
    a = _reals(atoms, "atoms").ravel()
    w = _reals(weights, "weights").ravel()
    _weight_rule(w, "weights")
    if a.shape != w.shape:
        raise ConstructionError("atoms and weights must have matching lengths")
    uniq, inverse = np.unique(a, return_inverse=True)
    return _discrete(uniq, np.bincount(inverse, weights=w))


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
        p_moment_order=p_moment_order,
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
    support, however large x^r is. A grid entry that is no real number, as
    ``float`` reads it (the first is named), or a term that overflows double
    precision raises ``DomainError``.
    """
    r = _order(r, "tail order r", low=0.0, strict=True)
    g = np.array([_real(v, "grid must be real numbers") for v in np.asarray(grid, dtype=object).ravel()])
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

