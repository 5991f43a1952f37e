"""p-Wasserstein distances through every comonotone representation.

For measures on R the distance admits several equivalent forms: the
quantile integral of |F^{-1} - G^{-1}|^p, the CDF area for p = 1, the
double-integral functional I(H) minimized by the comonotone joint, and the
expectation of the cost along the comonotone path. For measures on R^d that
share a copula, the p-th power is coordinate-additive. Each form is
implemented here; the discrete paths are exact (no quadrature), which is
what lets the test suite pin them against the LP oracle at 1e-9.

Every report carries both W_p and W_p^p: the formulas naturally produce the
p-th power, and silent p-th roots are a classic defect source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution1D, QUAD_EPS, _comonotone_integral, _order, _quad_checked
from .errors import DomainError, PreconditionError
from .oracle import DiscreteCoupling

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

    ``value`` is W_p itself and ``value_pth_power`` is W_p^p. When the
    requested ground-norm order q differs from the distance order p no exact
    representation exists; the report then carries ``bracket_pth_power``
    (lower, upper) bounds instead of point values. Shared-copula reports
    also carry the per-coordinate W_p^p terms in ``per_coordinate_pth_power``.
    A W_p^p or bracket end that is not finite (it overflowed) is a
    ``DomainError``.
    """

    value: float | None
    value_pth_power: float | None
    p: float
    q: float
    method: str
    error_bound: float = 0.0
    bracket_pth_power: tuple[float, float] | None = None
    per_coordinate_pth_power: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not all(v is None or math.isfinite(v) for v in self.bracket_pth_power or (self.value_pth_power,)):
            raise DomainError(f"W_p^p at order p = {self.p:g} overflows double precision")
        if self.bracket_pth_power is None:
            if self.value is None or self.value_pth_power is None:
                raise DomainError("non-bracket reports need point values")
            if self.value < 0.0 or self.value_pth_power < 0.0:
                raise DomainError("distances are nonnegative")
            root = self.value_pth_power ** (1.0 / self.p)
            if abs(self.value - root) > 1e-12 * max(1.0, abs(root)):
                raise DomainError("value must be the p-th root of value_pth_power")
        else:
            if self.value is not None or self.value_pth_power is not None:
                raise DomainError("bracketed reports carry no point value")
            lo, hi = self.bracket_pth_power
            if not lo <= hi:
                raise DomainError("bracket must be ordered")

    @property
    def is_bracket(self) -> bool:
        return self.bracket_pth_power is not None


def _point_report(pth_power: float, p: float, q: float, method: str, error_bound: float) -> DistanceReport:
    pth_power = max(0.0, float(pth_power))
    return DistanceReport(
        value=pth_power ** (1.0 / p),
        value_pth_power=pth_power,
        p=float(p),
        q=float(q),
        method=method,
        error_bound=float(error_bound),
    )


def _require_moment(dist: Distribution1D, p: float) -> None:
    if dist.p_moment_order < p:
        raise PreconditionError(
            f"distribution only asserts moments up to order {dist.p_moment_order}, "
            f"but order {p} is required"
        )


def wasserstein_1d(f: Distribution1D, g: Distribution1D, p: float) -> DistanceReport:
    """W_p via the quantile integral of |F^{-1}(u) - G^{-1}(u)|^p over (0, 1).

    Exact for discrete pairs: the integrand is a step function over the
    merged cumulative-weight ladder. Other pairs go through adaptive
    quadrature on (QUAD_EPS, 1 - QUAD_EPS), split where a discrete margin
    jumps, with the quadrature estimate reported in ``error_bound``.
    """
    p = _order(p, "Wasserstein order p")
    _require_moment(f, p)
    _require_moment(g, p)
    pth, abserr = _comonotone_integral(
        (f, g), lambda a, b: abs(a - b) ** p, what=f"quantile integral at order {p}"
    )
    error = 0.0 if f.is_discrete and g.is_discrete else abserr + _tail_error(f, g, p)
    return _point_report(pth, p, p, METHOD_QUANTILE, error)


def _tail_error(f: Distribution1D, g: Distribution1D, p: float) -> float:
    # |a - b|^p <= 2^(p-1) (|a|^p + |b|^p) turns per-margin tail bounds into
    # a bound on the clipped endpoint mass of the gap integrand. Without a
    # bound for both margins the truncation term stays unreported.
    masses = [_endpoint_tail_mass(d, p) for d in (f, g)]
    if None in masses:
        return 0.0
    return 2.0 ** (p - 1.0) * float(sum(masses))


def _endpoint_tail_mass(d: Distribution1D, p: float) -> float | None:
    if d.is_discrete:
        hi = max(abs(float(d.atoms[0])), abs(float(d.atoms[-1])))
        return 2.0 * QUAD_EPS * hi**p
    if d.tail_moment_bound is not None:
        return float(d.tail_moment_bound(p, QUAD_EPS))
    return None


def w1_cdf_area(f: Distribution1D, g: Distribution1D) -> DistanceReport:
    """W_1 as the area between the two CDFs.

    Exact for discrete pairs, where |F - G| is piecewise constant over the
    merged atom grid. This works on the x-axis, independently of the
    u-axis ladder behind :func:`wasserstein_1d`.
    """
    _require_moment(f, 1.0)
    _require_moment(g, 1.0)
    if f.is_discrete and g.is_discrete:
        grid = np.union1d(f.atoms, g.atoms)
        cf, cg = (
            np.concatenate(([0.0], d.cumulative_weights))[
                np.searchsorted(d.atoms, grid[:-1], side="right")
            ]
            for d in (f, g)
        )
        area = float(np.sum(np.diff(grid) * np.abs(cf - cg)))
        return _point_report(area, 1.0, 1.0, METHOD_CDF_AREA, 0.0)
    lo = min(f.quantile(QUAD_EPS), g.quantile(QUAD_EPS))
    hi = max(f.quantile(1.0 - QUAD_EPS), g.quantile(1.0 - QUAD_EPS))
    area, abserr = _quad_checked(
        lambda x: abs(f.cdf(x) - g.cdf(x)),
        lo,
        hi,
        what="CDF area",
        breaks=[d.atoms for d in (f, g) if d.is_discrete],
    )
    return _point_report(area, 1.0, 1.0, METHOD_CDF_AREA, abserr)


def comonotone_expectation(
    g_fn: Callable[[float, float], float],
    f: Distribution1D,
    h: Distribution1D,
) -> float:
    """E[g(X, Y)] under the comonotone coupling of f and h.

    Evaluates the integral of g(F^{-1}(u), H^{-1}(u)) over (0, 1): an exact
    finite sum for discrete margins, quadrature split where a discrete
    margin jumps otherwise. ``g_fn`` is called on floats. The caller
    asserts integrability of g along the comonotone path.
    """
    return _comonotone_integral(
        (f, h), np.vectorize(g_fn, otypes=[float]), what="comonotone expectation"
    )[0]


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
    xs = coupling.row_points.ravel()
    ys = coupling.col_points.ravel()
    grid = np.union1d(xs, ys)

    # Joint and margin CDFs on the merged lattice. padded[i, j] is the mass
    # of the first i row points and the first j column points.
    padded = np.zeros((xs.size + 1, ys.size + 1))
    padded[1:, 1:] = np.cumsum(np.cumsum(coupling.mass, axis=0), axis=1)
    xi = np.searchsorted(xs, grid[:-1], side="right")
    yi = np.searchsorted(ys, grid[:-1], side="right")
    joint = padded[np.ix_(xi, yi)]
    a, b = np.indices(joint.shape, sparse=True)
    g_side = padded[-1, yi][b] - joint  # G(y) - H(x, y), the weight where x > y
    f_side = padded[xi, -1][a] - joint  # F(x) - H(x, y), the weight where y > x
    weight = np.where(a > b, g_side, np.where(a < b, f_side, (g_side + f_side) / 2))

    kernel = -np.diff(np.diff(np.abs(grid[:, None] - grid[None, :]) ** p, axis=0), axis=1)
    return float(np.sum(weight * kernel))


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
    distance instead of a point value: with k = d^(p/q - 1),

        min(1, k) * S <= W_{p,q}^p <= max(1, k) * S.
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
    error = sum(r.error_bound for r in reports)
    if q == p:
        point = _point_report(total, p, q, METHOD_SHARED_SUM, error)
        return replace(point, per_coordinate_pth_power=terms)
    k = len(terms) ** (p / q - 1.0)
    return DistanceReport(
        value=None,
        value_pth_power=None,
        p=p,
        q=q,
        method=METHOD_SHARED_SUM,
        error_bound=error,
        bracket_pth_power=(min(1.0, k) * total, max(1.0, k) * total),
        per_coordinate_pth_power=terms,
    )
