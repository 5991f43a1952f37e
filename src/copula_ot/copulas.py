"""d-copulas, grid validation, joint CDFs, and couplings from them.

Copulas are represented as black-box evaluators on the unit hypercube with
a label, not as parametric families: the distance formulas only ever need
the comonotonicity copula M, the lower bound W, independence Pi, or an
arbitrary user-supplied dependence structure. Validation is a grid
certificate, since d-increasingness of a black box cannot be decided
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution1D, _box_volumes, _count, _reals
from .errors import CapacityError, ConstructionError, DomainError, InvalidJointError
# MAX_LATTICE_POINTS, validate_copula's budget, stays importable from here
from .oracle import MAX_LATTICE_POINTS, TOTAL_MASS_TOL, DiscreteCoupling, _lattice_guard  # noqa: F401

__all__ = [
    "CopulaFn",
    "JointCDF",
    "ValidationReport",
    "comonotonicity_copula",
    "lower_frechet_bound",
    "independence_copula",
    "built_in_copula",
    "validate_copula",
    "comonotone_joint_2d",
    "coupling_from_joint",
]

# Inclusion-exclusion over 2^d box corners cancels catastrophically right at
# zero volume; anything above -AXIOM_TOL counts as nonnegative.
AXIOM_TOL = 1e-12

# Grid boxes scale as resolution^dim with 2^dim corners each.
MAX_VALIDATION_DIM = 10


@dataclass(frozen=True)
class CopulaFn:
    """An evaluable candidate d-copula.

    ``eval_batch``, the only evaluator, maps a (k, d) array of points of
    [0, 1]^d to the (k,) array of their values; single points go through
    it as a batch of one. ``dim`` is an integer >= 2, as ``operator.index``
    reads it, stored as an ``int`` so that the lattice guard's powers of it
    cannot wrap as a numpy integer's would.
    """

    dim: int
    eval_batch: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _count(self.dim, "copula dimension", 2))

    def __call__(self, u: Sequence[float]) -> float:
        return float(self.batch(_reals(u, "copula argument u", DomainError)[None])[0])

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of a (k, d) array, as a (k,) array of their own:
        it shares no memory with ``points``, even where ``eval_batch``
        returns a view of them. A point outside [0, 1]^d, or with a NaN
        coordinate, is a ``DomainError``: every entry point checks it here."""
        points = _reals(points, "copula points", DomainError)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise DomainError(
                f"copula {self.label!r} of dimension {self.dim} takes points of shape "
                f"(k, {self.dim}), got {points.shape}"
            )
        if points.size and not (0.0 <= points.min() and points.max() <= 1.0):  # min() and max() carry a NaN
            raise DomainError("copula arguments live in the unit hypercube")
        values = _reals(self.eval_batch(points), f"values of copula {self.label!r}", DomainError).copy()
        if values.shape != points.shape[:1]:
            raise DomainError(
                f"eval_batch of copula {self.label!r} returned shape {values.shape} "
                f"for {points.shape[0]} points, expected ({points.shape[0]},)"
            )
        if not np.isfinite(values).all():
            raise DomainError(f"copula {self.label!r} returned a non-finite value")
        return values


# The built-ins fold a ufunc over the columns: pts.min(axis=1) costs about 40x the d - 1 calls.
def comonotonicity_copula(dim: int) -> CopulaFn:
    """The upper Frechet-Hoeffding bound M(u) = min(u_1, ..., u_d)."""
    return CopulaFn(
        dim=dim,
        label="M",
        eval_batch=lambda pts: reduce(np.minimum, pts.T),
    )


def lower_frechet_bound(dim: int) -> CopulaFn:
    """The lower bound W(u) = max(u_1 + ... + u_d - d + 1, 0).

    A genuine copula only for dim == 2; for dim > 2 it still bounds every
    copula from below but fails the d-increasing axiom.
    """
    return CopulaFn(
        dim=dim,
        label="W",
        eval_batch=lambda pts: np.maximum(reduce(np.add, pts.T) - (dim - 1), 0.0),
    )


def independence_copula(dim: int) -> CopulaFn:
    """The product copula Pi(u) = u_1 * ... * u_d."""
    return CopulaFn(
        dim=dim,
        label="Pi",
        eval_batch=lambda pts: reduce(np.multiply, pts.T),
    )


_BUILTINS = {
    "M": comonotonicity_copula,
    "W": lower_frechet_bound,
    "Pi": independence_copula,
}


def built_in_copula(label: str, dim: int) -> CopulaFn:
    """Look up one of the built-in families by label (M, W, Pi)."""
    try:
        factory = _BUILTINS[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise DomainError(f"unknown copula label {label!r}; expected one of M, W, Pi") from None
    return factory(dim)


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    worst: float
    witnesses: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    """Grid certificate for the three copula axioms."""

    dim: int
    resolution: int
    grounded: AxiomCheck
    uniform_margins: AxiomCheck
    d_increasing: AxiomCheck

    @property
    def passed(self) -> bool:
        return self.grounded.passed and self.uniform_margins.passed and self.d_increasing.passed

    @property
    def checks(self) -> tuple[AxiomCheck, AxiomCheck, AxiomCheck]:
        return (self.grounded, self.uniform_margins, self.d_increasing)


def default_resolution(dim: int) -> int:
    if dim == 2:
        return 16
    if dim == 3:
        return 10
    return 6


def validate_copula(c: CopulaFn, grid_resolution: int | None = None) -> ValidationReport:
    """Check groundedness, uniform margins, and d-increasingness on a grid.

    The lattice has ``grid_resolution`` boxes per axis. Box volumes are
    computed by d-fold finite differencing of the lattice values, which is
    the inclusion-exclusion sum over the 2^d corners of each box. All three
    checks read one ``batch`` call: the ticks end at 1, so margins are lines.
    Lattices of more than ``MAX_LATTICE_POINTS`` points raise ``CapacityError``.
    """
    if c.dim > MAX_VALIDATION_DIM:
        raise CapacityError(f"validation guard: dim {c.dim} > {MAX_VALIDATION_DIM}")
    resolution = default_resolution(c.dim) if grid_resolution is None else grid_resolution
    resolution = _count(resolution, "grid resolution", 2)
    side = resolution + 1
    _lattice_guard(side**c.dim, f"{side}^{c.dim}", "validation")
    ticks = np.linspace(0.0, 1.0, side)
    # the lattice in C order, as one (side, ..., side, dim) array: coordinate
    # `axis` of every point is the tick of its index on that axis
    points = np.empty((side,) * c.dim + (c.dim,))
    for axis in range(c.dim):
        points[..., axis] = ticks.reshape((side,) + (1,) * (c.dim - 1 - axis))
    points = points.reshape(-1, c.dim)
    values = c.batch(points).reshape((side,) * c.dim)

    grounded = _check_grounded(points, values.ravel())
    margins = _check_margins(values, ticks)
    increasing = _check_increasing(values, ticks)
    return ValidationReport(
        dim=c.dim,
        resolution=resolution,
        grounded=grounded,
        uniform_margins=margins,
        d_increasing=increasing,
    )


def _check_grounded(points: np.ndarray, values: np.ndarray) -> AxiomCheck:
    face = np.flatnonzero(np.any(points == 0.0, axis=1))  # read by index: no copy of the face points
    deviation = values[face]
    np.abs(deviation, out=deviation)  # in place: no second face-sized array
    worst = float(deviation.max()) if deviation.size else 0.0
    worst_first = face[np.argsort(deviation)[::-1][:5]] if worst > AXIOM_TOL else []
    witnesses = [(tuple(points[k]), float(values[k])) for k in worst_first]
    return AxiomCheck("grounded", worst <= AXIOM_TOL, worst, tuple(witnesses))


def _check_margins(values: np.ndarray, ticks: np.ndarray) -> AxiomCheck:
    worst = 0.0
    witnesses = []
    for axis in range(values.ndim):
        deviation = np.abs(np.moveaxis(values, axis, -1)[(-1,) * (values.ndim - 1)] - ticks)
        axis_worst = float(deviation.max())
        if axis_worst > worst:
            worst = axis_worst
        if axis_worst > AXIOM_TOL:
            bad = int(np.argmax(deviation))
            point = np.where(np.arange(values.ndim) == axis, ticks[bad], 1.0)
            witnesses.append((tuple(point), float(deviation[bad])))
    return AxiomCheck("uniform_margins", worst <= AXIOM_TOL, worst, tuple(witnesses[:5]))


def _check_increasing(values: np.ndarray, ticks: np.ndarray) -> AxiomCheck:
    volumes = _box_volumes(values)
    min_volume = float(volumes.min())
    witnesses = []
    if min_volume < -AXIOM_TOL:
        flat_order = np.argsort(volumes.ravel())
        for flat in flat_order[:5]:
            if volumes.ravel()[flat] >= -AXIOM_TOL:
                break
            corner = np.unravel_index(flat, volumes.shape)
            lower = tuple(float(ticks[k]) for k in corner)
            upper = tuple(float(ticks[k + 1]) for k in corner)
            witnesses.append((lower, upper, float(volumes[corner])))
    return AxiomCheck("d_increasing", min_volume >= -AXIOM_TOL, min_volume, tuple(witnesses))


# -- joints -------------------------------------------------------------------


@dataclass(frozen=True)
class JointCDF:
    """A joint distribution function assembled from a copula and margins."""

    copula: CopulaFn
    margins: tuple[Distribution1D, ...]

    def __post_init__(self) -> None:
        if len(self.margins) != self.copula.dim:
            raise DomainError(
                f"got {len(self.margins)} margins for a copula of dimension {self.copula.dim}"
            )
        object.__setattr__(self, "margins", tuple(self.margins))

    @property
    def dim(self) -> int:
        return self.copula.dim

    def __call__(self, x: Sequence[float]) -> float:
        """Evaluate H(x) = C(F_1(x_1), ..., F_d(x_d)).

        Every margin's CDF is exactly 1 at +inf and 0 at -inf, so
        marginalizing by sending other arguments to +inf is exact.
        """
        xs = _reals(x, "joint CDF argument x", DomainError)
        if xs.shape != (self.dim,):
            raise DomainError(f"expected a point of length {self.dim}")
        return self.copula([margin.cdf(v) for v, margin in zip(xs, self.margins)])


def comonotone_joint_2d(f: Distribution1D, g: Distribution1D) -> JointCDF:
    """The joint CDF min(F(x), G(y)): the optimal coupling's distribution."""
    return JointCDF(comonotonicity_copula(2), (f, g))


def coupling_from_joint(h: JointCDF) -> DiscreteCoupling:
    """Extract the mass matrix of a 2D joint over discrete margins.

    Each cell mass is the H-volume of the rectangle around one atom pair,
    obtained by inclusion-exclusion of H on the atom lattice. At the atoms
    the margin CDFs are the cumulative-weight ladders, so the lattice is
    one ``batch`` call of the copula on their grid. Tiny negative volumes
    (from floating cancellation) are clamped to zero; a materially negative
    volume means h was not 2-increasing over these margins. Both margins must
    match the weights within ``TOTAL_MASS_TOL``, and nonempty rows are then
    rescaled to the first margin exactly. Plans of more than
    ``MAX_LATTICE_POINTS`` cells raise ``CapacityError``.
    """
    if h.dim != 2:
        raise DomainError("coupling extraction needs a 2-dimensional joint")
    f, g = h.margins
    if not (f.is_discrete and g.is_discrete):
        raise DomainError("coupling extraction needs discrete margins")
    xs = f.atoms
    ys = g.atoms
    _lattice_guard(xs.size * ys.size, f"{xs.size} x {ys.size}", "coupling")
    uv = np.empty((xs.size, ys.size, 2))
    uv[..., 0], uv[..., 1] = f.cumulative_weights[:, None], g.cumulative_weights
    lattice = np.zeros((xs.size + 1, ys.size + 1))
    lattice[1:, 1:] = h.copula.batch(uv.reshape(-1, 2)).reshape(xs.size, ys.size)
    volumes = _box_volumes(lattice)
    min_volume = float(volumes.min())
    if min_volume < -AXIOM_TOL:
        bad = np.unravel_index(int(np.argmin(volumes)), volumes.shape)
        raise InvalidJointError(
            f"rectangle around atoms ({xs[bad[0]]}, {ys[bad[1]]}) has H-volume {min_volume}"
        )
    volumes = np.where(volumes < 0.0, 0.0, volumes)
    row_sums = volumes.sum(axis=1)
    if float(np.abs(row_sums - f.weights).max()) > TOTAL_MASS_TOL:
        raise InvalidJointError("joint does not reproduce its first margin")
    volumes *= np.divide(f.weights, row_sums, out=np.ones(xs.size), where=row_sums > 0)[:, None]
    if float(np.abs(volumes.sum(axis=0) - g.weights).max()) > TOTAL_MASS_TOL:
        raise InvalidJointError("joint does not reproduce its second margin")
    return DiscreteCoupling._from_checked(xs[:, None], ys[:, None], volumes)
