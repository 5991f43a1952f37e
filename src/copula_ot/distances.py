"""p-Wasserstein distances through every comonotone representation.

For measures on R the distance admits several equivalent forms: the
quantile integral of |F^{-1} - G^{-1}|^p, the CDF area for p = 1, the
double-integral functional I(H) minimized by the comonotone joint, and the
expectation of the cost along the comonotone path. For measures on R^d that
share a copula, the p-th power is coordinate-additive. Each form is
implemented here; the discrete paths are exact (no quadrature), which is
what lets the test suite pin them against the LP oracle at 1e-9.

Every report stores W_p^p as an interval, whose ends meet when the value is
exact: the formulas naturally produce the p-th power, and silent p-th roots
are a classic defect source. W_p is the p-th root of a point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution1D, QUAD_EPS, _comonotone_integral, _order, _quad_checked, _real
from .errors import DomainError, PreconditionError
from .oracle import DiscreteCoupling, _ground_cost

__all__ = [
    "DistanceReport",
    "wasserstein_1d",
    "w1_cdf_area",
    "comonotone_expectation",
    "dall_aglio_functional",
    "wasserstein_shared_copula",
]

METHOD_QUANTILE = "quantile_integral"
METHOD_CDF_AREA = "cdf_area"
METHOD_SHARED_SUM = "shared_copula_sum"


@dataclass(frozen=True)
class DistanceReport:
    """A computed distance with its method tag and error accounting.

    W_p^p is stored only as the interval ``bracket_pth_power`` = (lower,
    upper). When the ground-norm order q equals the distance order p the
    value is exact and the two ends meet; ``value_pth_power`` is then that
    point and ``value`` its p-th root, W_p. When q differs from p no exact
    representation exists, the interval is a norm-equivalence bracket and
    both point properties are None. Shared-copula reports also carry the
    per-coordinate W_p^p terms in ``per_coordinate_pth_power``. An end that
    is not finite (it overflowed) is a ``DomainError``.
    """

    bracket_pth_power: tuple[float, float]
    p: float
    q: float
    method: str
    error_bound: float = 0.0
    per_coordinate_pth_power: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        lower, upper = self.bracket_pth_power
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise DomainError(f"W_p^p at order p = {self.p:g} overflows double precision")
        if not 0.0 <= lower <= upper:
            raise DomainError("a W_p^p interval needs 0 <= lower <= upper")
        if self.q == self.p and lower != upper:
            raise DomainError("at q = p W_p^p is exact: the interval's ends must meet")

    @property
    def is_bracket(self) -> bool:
        return self.q != self.p

    @property
    def value_pth_power(self) -> float | None:
        return None if self.is_bracket else self.bracket_pth_power[0]

    @property
    def value(self) -> float | None:
        return None if self.is_bracket else self.bracket_pth_power[0] ** (1.0 / self.p)


def _require_moment(dist: Distribution1D, p: float) -> None:
    if dist.p_moment_order < p:
        raise PreconditionError(
            f"distribution only asserts moments up to order {dist.p_moment_order}, "
            f"but order {p} is required"
        )


def wasserstein_1d(f: Distribution1D, g: Distribution1D, p: float) -> DistanceReport:
    """W_p via the quantile integral of |F^{-1}(u) - G^{-1}(u)|^p over (0, 1).

    Exact for discrete pairs: the integrand is a step function along their
    comonotone path. Other pairs go through adaptive quadrature on
    (QUAD_EPS, 1 - QUAD_EPS), split where a discrete margin jumps, with the
    quadrature estimate reported in ``error_bound``.
    """
    p = _order(p, "Wasserstein order p")
    _require_moment(f, p)
    _require_moment(g, p)
    # the integrand and the tail bounds work in numpy floats, so an overflow
    # is an inf, checked once as DistanceReport's DomainError
    with np.errstate(over="ignore"):
        pth, abserr = _comonotone_integral(
            (f, g), lambda a, b: abs(a - b) ** p, what=f"quantile integral at order {p}"
        )
        error = 0.0 if f.is_discrete and g.is_discrete else abserr + _tail_error(f, g, p)
    pth = max(0.0, pth)  # quadrature may round a nonnegative integral below 0
    return DistanceReport((pth, pth), p, p, METHOD_QUANTILE, error)


def _tail_error(f: Distribution1D, g: Distribution1D, p: float) -> float:
    # |a - b|^p <= 2^(p-1) (|a|^p + |b|^p) turns per-margin tail bounds into
    # a bound on the clipped endpoint mass of the gap integrand. Without a
    # bound for both margins the truncation term stays unreported.
    masses = [_endpoint_tail_mass(d, p) for d in (f, g)]
    if None in masses or not sum(masses):
        return 0.0
    return float(np.float64(2.0) ** (p - 1.0) * sum(masses))


def _endpoint_tail_mass(d: Distribution1D, p: float) -> float | None:
    if d.is_discrete:
        hi = np.max(np.abs(d.atoms[[0, -1]]))
        return float(2.0 * QUAD_EPS * hi**p)
    if d.tail_moment_bound is not None:
        return _order(d.tail_moment_bound(p, QUAD_EPS), "tail_moment_bound", low=0.0)
    return None


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.union1d(a, b) of real arrays, without the import of numpy.ma that its first call makes."""
    z = np.concatenate((a, b))
    z.sort()
    return z[np.concatenate(([True], z[1:] != z[:-1]))]


def w1_cdf_area(f: Distribution1D, g: Distribution1D) -> DistanceReport:
    """W_1 as the area between the two CDFs.

    Exact for discrete pairs, where |F - G| is piecewise constant over the
    merged atom grid. This works on the x-axis, independently of the
    u-axis comonotone path behind :func:`wasserstein_1d`.
    """
    _require_moment(f, 1.0)
    _require_moment(g, 1.0)
    if f.is_discrete and g.is_discrete:
        grid = _union(f.atoms, g.atoms)
        cf, cg = (
            np.concatenate(([0.0], d.cumulative_weights))[d.atoms.searchsorted(grid[:-1], "right")]
            for d in (f, g)
        )
        area, abserr = float(((grid[1:] - grid[:-1]) * np.abs(cf - cg)).sum()), 0.0
    else:
        lo = min(f.quantile(QUAD_EPS), g.quantile(QUAD_EPS))
        hi = max(f.quantile(1.0 - QUAD_EPS), g.quantile(1.0 - QUAD_EPS))
        area, abserr = _quad_checked(
            lambda x: abs(f.cdf(x) - g.cdf(x)),
            lo,
            hi,
            what="CDF area",
            breaks=[d.atoms for d in (f, g) if d.is_discrete],
        )
        area = max(0.0, area)
    return DistanceReport((area, area), 1.0, 1.0, METHOD_CDF_AREA, abserr)


def comonotone_expectation(
    g_fn: Callable[[float, float], float],
    f: Distribution1D,
    h: Distribution1D,
) -> float:
    """E[g(X, Y)] under the comonotone coupling of f and h.

    Evaluates the integral of g(F^{-1}(u), H^{-1}(u)) over (0, 1): an exact
    finite sum for discrete margins, quadrature split where a discrete
    margin jumps otherwise. ``g_fn`` is called on floats and returns a real
    number, or ``DomainError`` names it; an expectation that comes out NaN
    (g was NaN somewhere, or +inf and -inf) is a ``DomainError`` too. The
    caller asserts integrability of g along the comonotone path.
    """
    g = np.vectorize(lambda a, b: _real(g_fn(a, b), "g_fn must return a real number"), otypes=[float])
    value = _comonotone_integral((f, h), g, what="comonotone expectation")[0]
    if math.isnan(value):
        raise DomainError("the comonotone expectation is nan")
    return value


def dall_aglio_functional(coupling: DiscreteCoupling, p: float) -> float:
    """The double-integral transport functional I(H) of a discrete coupling.

    With H the joint CDF of the coupling and F, G its margin CDFs,

        I(H) = p(p-1) * [ integral over {x > y} of (G(y) - H(x,y)) (x-y)^(p-2)
                        + integral over {y > x} of (F(x) - H(x,y)) (y-x)^(p-2) ]

    which equals the expected cost E|X - Y|^p. The integrands are constant
    on the cells of the merged support grid z, so I is the sum over cells
    (a, b) of weight * kernel. ``kernel`` is minus the mixed second
    difference of |z_a - z_b|^p: p(p-1) times the cell integral of
    |x-y|^(p-2) off the diagonal, and the two triangles 2 * width^p on it.
    ``weight`` is G - H below the diagonal (x > y), F - H above it, and their
    mean on it, where the half-planes meet. This stays finite for 1 < p < 2,
    where the integrand is singular on the diagonal but integrable.
    """
    p = _order(p, "order p of the double-integral identity", strict=True)
    if coupling.dim != 1:
        raise DomainError("this functional is defined for couplings on R")
    # Supports may come unsorted or repeated: sort each stably, the mass alike.
    rows = coupling.row_points.ravel().argsort(kind="stable")
    cols = coupling.col_points.ravel().argsort(kind="stable")
    xs = coupling.row_points.ravel()[rows]
    ys = coupling.col_points.ravel()[cols]
    grid = _union(xs, ys)

    # Joint and margin CDFs on the merged lattice. padded[i, j] is the mass
    # of the first i sorted row points and the first j sorted column points.
    padded = np.zeros((xs.size + 1, ys.size + 1))
    padded[1:, 1:] = coupling.mass.take(rows, 0).take(cols, 1).cumsum(axis=0).cumsum(axis=1)
    xi, yi = xs.searchsorted(grid[:-1], "right"), ys.searchsorted(grid[:-1], "right")
    joint = padded.take(xi, 0).take(yi, 1)
    g_col = padded[-1, yi]  # G(y): the weight where x > y is G(y) - H(x, y)
    f_row = padded[xi, -1]  # F(x): the weight where y > x is F(x) - H(x, y)
    k = np.arange(grid.size - 1)
    weight = np.where(k[:, None] > k, g_col, f_row[:, None]) - joint
    weight[k, k] = ((g_col - joint[k, k]) + (f_row - joint[k, k])) / 2

    cost = _ground_cost(grid[:, None], grid[:, None], p, p)
    kernel = -((cost[1:, 1:] - cost[:-1, 1:]) - (cost[1:, :-1] - cost[:-1, :-1]))
    return float((weight * kernel).sum())


def wasserstein_shared_copula(
    f_margins: Sequence[Distribution1D],
    g_margins: Sequence[Distribution1D],
    p: float,
    q: float | None = None,
) -> DistanceReport:
    """W_p between two R^d measures declared to share a copula.

    Under that hypothesis W_p^p is the sum S of the per-coordinate p-th
    powers, equivalently the single integral of the p-norm gap between the
    quantile vectors. Sharing a copula is a caller declaration; nothing here
    can verify it from marginal data. The report carries the terms of S.

    When the ground-norm order q differs from p no exact representation
    exists. Equivalence of the q- and p-norms on R^d then brackets the
    distance: with k = d^(p/q - 1),

        min(1, k) * S <= W_{p,q}^p <= max(1, k) * S.

    At q = p, k = 1 and the bracket is the point (S, S).
    """
    p = _order(p, "Wasserstein order p")
    q = p if q is None else _order(q, "norm order q")
    f_margins = tuple(f_margins)
    g_margins = tuple(g_margins)
    if len(f_margins) != len(g_margins) or not f_margins:
        raise DomainError("margin lists must be nonempty and of equal length")
    reports = [wasserstein_1d(fi, gi, p) for fi, gi in zip(f_margins, g_margins)]
    terms = tuple(r.value_pth_power for r in reports)
    total = sum(terms)
    # exactly 1.0 at q = p, so the ends meet; an overflow to inf is checked
    # once, as DistanceReport's DomainError
    with np.errstate(over="ignore"):
        k = float(np.float64(len(terms)) ** (p / q - 1.0))
    error = sum(r.error_bound for r in reports)
    bracket = (min(1.0, k) * total, max(1.0, k) * total)
    return DistanceReport(bracket, p, q, METHOD_SHARED_SUM, error, terms)
