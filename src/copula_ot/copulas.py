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
import math
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution1D
from .errors import CapacityError, ConstructionError, DomainError, InvalidJointError
from .oracle import DiscreteCoupling

__all__ = [
    "CopulaFn",
    "JointCDF",
    "AxiomCheck",
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

MARGIN_RESTORE_TOL = 1e-10

# Grid boxes scale as resolution^dim with 2^dim corners each.
MAX_VALIDATION_DIM = 10

# validate_copula refuses lattices with more points than this. Each point
# costs two rows of dim floats (the meshgrid and its stacked copy), so the
# largest admitted lattice, 7^8 points at dim 8 and the default resolution,
# takes under 1 GB.
MAX_LATTICE_POINTS = 6_000_000


@dataclass(frozen=True)
class CopulaFn:
    """An evaluable candidate d-copula.

    ``eval_point`` maps a point of [0, 1]^d to [0, 1]. ``eval_batch``, when
    present, maps a (k, d) array to a (k,) array and exists purely so grid
    validation stays fast for the built-in families.
    """

    dim: int
    eval_point: Callable[[Sequence[float]], float]
    label: str = "custom"
    eval_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise DomainError("copulas need dimension >= 2")

    def __call__(self, u: Sequence[float]) -> float:
        point = np.asarray(u, dtype=float)
        if point.shape != (self.dim,):
            raise DomainError(f"expected a point of length {self.dim}")
        if np.any(point < 0.0) or np.any(point > 1.0):
            raise DomainError("copula arguments live in the unit hypercube")
        return float(self.eval_point(point))

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of a (k, d) array, as a (k,) array."""
        points = np.asarray(points, dtype=float)
        if self.eval_batch is None:
            return np.array([float(self.eval_point(row)) for row in points])
        values = np.asarray(self.eval_batch(points), dtype=float)
        if values.shape != points.shape[:1]:
            raise DomainError(
                f"eval_batch of copula {self.label!r} returned shape {values.shape} "
                f"for {points.shape[0]} points, expected ({points.shape[0]},)"
            )
        return values


def comonotonicity_copula(dim: int) -> CopulaFn:
    """The upper Frechet-Hoeffding bound M(u) = min(u_1, ..., u_d)."""
    return CopulaFn(
        dim=dim,
        eval_point=lambda u: float(np.min(u)),
        label="M",
        eval_batch=lambda pts: pts.min(axis=1),
    )


def lower_frechet_bound(dim: int) -> CopulaFn:
    """The lower bound W(u) = max(u_1 + ... + u_d - d + 1, 0).

    A genuine copula only for dim == 2; for dim > 2 it still bounds every
    copula from below but fails the d-increasing axiom.
    """
    return CopulaFn(
        dim=dim,
        eval_point=lambda u: max(float(np.sum(u)) - (dim - 1), 0.0),
        label="W",
        eval_batch=lambda pts: np.maximum(pts.sum(axis=1) - (dim - 1), 0.0),
    )


def independence_copula(dim: int) -> CopulaFn:
    """The product copula Pi(u) = u_1 * ... * u_d."""
    return CopulaFn(
        dim=dim,
        eval_point=lambda u: float(np.prod(u)),
        label="Pi",
        eval_batch=lambda pts: pts.prod(axis=1),
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
    except KeyError:
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
    the inclusion-exclusion sum over the 2^d corners of each box.
    """
    if c.dim > MAX_VALIDATION_DIM:
        raise CapacityError(f"validation guard: dim {c.dim} > {MAX_VALIDATION_DIM}")
    resolution = default_resolution(c.dim) if grid_resolution is None else int(grid_resolution)
    if resolution < 2:
        raise DomainError("grid resolution must be at least 2")
    if (resolution + 1) ** c.dim > MAX_LATTICE_POINTS:
        raise CapacityError(
            f"validation guard: a lattice of {resolution + 1}^{c.dim} points exceeds "
            f"the budget of {MAX_LATTICE_POINTS}"
        )
    ticks = np.linspace(0.0, 1.0, resolution + 1)
    axes = np.meshgrid(*([ticks] * c.dim), indexing="ij")
    points = np.stack([a.ravel() for a in axes], axis=1)
    values = c.batch(points).reshape((resolution + 1,) * c.dim)

    grounded = _check_grounded(points, values.ravel())
    margins = _check_margins(c, ticks)
    increasing = _check_increasing(values, ticks)
    return ValidationReport(
        dim=c.dim,
        resolution=resolution,
        grounded=grounded,
        uniform_margins=margins,
        d_increasing=increasing,
    )


def _check_grounded(points: np.ndarray, values: np.ndarray) -> AxiomCheck:
    on_face = np.any(points == 0.0, axis=1)
    deviation = np.abs(values[on_face])
    worst = float(deviation.max()) if deviation.size else 0.0
    witnesses = []
    if worst > AXIOM_TOL:
        face_points = points[on_face]
        for idx in np.argsort(deviation)[::-1][:5]:
            witnesses.append((tuple(face_points[idx]), float(values[on_face][idx])))
    return AxiomCheck("grounded", worst <= AXIOM_TOL, worst, tuple(witnesses))


def _check_margins(c: CopulaFn, ticks: np.ndarray) -> AxiomCheck:
    worst = 0.0
    witnesses = []
    for axis in range(c.dim):
        pts = np.ones((ticks.size, c.dim))
        pts[:, axis] = ticks
        deviation = np.abs(c.batch(pts) - ticks)
        axis_worst = float(deviation.max())
        if axis_worst > worst:
            worst = axis_worst
        if axis_worst > AXIOM_TOL:
            bad = int(np.argmax(deviation))
            witnesses.append((tuple(pts[bad]), float(deviation[bad])))
    return AxiomCheck("uniform_margins", worst <= AXIOM_TOL, worst, tuple(witnesses[:5]))


def _check_increasing(values: np.ndarray, ticks: np.ndarray) -> AxiomCheck:
    volumes = values
    for axis in range(values.ndim):
        volumes = np.diff(volumes, axis=axis)
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

        Coordinates of +-inf are mapped to margin values 1 and 0 directly,
        so marginalizing by sending other arguments to +inf is exact.
        """
        xs = [float(v) for v in x]
        if len(xs) != self.dim:
            raise DomainError(f"expected a point of length {self.dim}")
        u = []
        for value, margin in zip(xs, self.margins):
            if math.isinf(value):
                u.append(1.0 if value > 0 else 0.0)
            else:
                u.append(margin.cdf(value))
        return float(self.copula(u))


def comonotone_joint_2d(f: Distribution1D, g: Distribution1D) -> JointCDF:
    """The joint CDF min(F(x), G(y)): the optimal coupling's distribution."""
    return JointCDF(comonotonicity_copula(2), (f, g))


def coupling_from_joint(h: JointCDF) -> DiscreteCoupling:
    """Extract the mass matrix of a 2D joint over discrete margins.

    Each cell mass is the H-volume of the rectangle around one atom pair,
    obtained by inclusion-exclusion of H on the atom lattice. At the atoms
    the margin CDFs are the cumulative-weight ladders, so the lattice is
    one ``batch`` call of the copula on their grid. Tiny negative volumes
    (from floating cancellation) are clamped to zero and rows are rescaled
    to restore the first margin exactly; a materially negative volume means
    h was not 2-increasing over these margins.
    """
    if h.dim != 2:
        raise DomainError("coupling extraction needs a 2-dimensional joint")
    f, g = h.margins
    if not (f.is_discrete and g.is_discrete):
        raise DomainError("coupling extraction needs discrete margins")
    xs = f.atoms
    ys = g.atoms
    u, v = np.meshgrid(f.cumulative_weights, g.cumulative_weights, indexing="ij")
    lattice = np.zeros((xs.size + 1, ys.size + 1))
    lattice[1:, 1:] = h.copula.batch(np.stack([u.ravel(), v.ravel()], axis=1)).reshape(u.shape)
    volumes = np.diff(np.diff(lattice, axis=0), axis=1)
    min_volume = float(volumes.min())
    if min_volume < -AXIOM_TOL:
        bad = np.unravel_index(int(np.argmin(volumes)), volumes.shape)
        raise InvalidJointError(
            f"rectangle around atoms ({xs[bad[0]]}, {ys[bad[1]]}) has H-volume {min_volume}"
        )
    volumes = np.where(volumes < 0.0, 0.0, volumes)
    row_sums = volumes.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise InvalidJointError("joint does not reproduce its first margin")
    volumes = volumes * (f.weights / row_sums)[:, None]
    if float(np.max(np.abs(volumes.sum(axis=0) - g.weights))) > MARGIN_RESTORE_TOL:
        raise InvalidJointError("joint does not reproduce its second margin")
    return DiscreteCoupling(xs, ys, volumes)
