"""Exact reference solver for discrete optimal transport at desk scale.

Every closed-form distance in this package is checked against the
transportation linear program solved here. What makes it an oracle is the
certificate: each solution is verified against its dual potentials (primal
margins, dual feasibility everywhere, complementary slackness on the
support, duality gap), and small instances can be cross-checked by
exhaustive vertex enumeration. Guards are hard errors, never silent
truncation; the oracle must not approximate.

On the line the paper's d = 1 result (dall'Aglio; Vallender) says the
comonotone coupling is optimal for every p >= 1, so the solution is the
monotone staircase and its potentials, built in numpy. In higher
dimensions that coupling is not optimal in general, and HiGHS's dual
simplex solves the LP from a cold start through
``scipy.optimize.linprog(method="highs-ds")``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import Distribution1D, _adopt, _comonotone_path, _order, _owned, _reals, _rungs, _weights
from .errors import (
    CapacityError,
    CertificationError,
    ConstructionError,
    DomainError,
)

__all__ = [
    "DiscreteCoupling",
    "TransportInstance",
    "TransportSolution",
    "solve_exact",
    "enumerate_extreme_couplings",
    "monotone_plan_1d",
    "transport_cost",
]

# Entries more negative than this are rejected; above it they are rounding
# noise and get clamped to zero.
MASS_CLAMP_TOL = 1e-12

# How far a plan's total, and each of its margins, may be from the weights.
# Looser than WEIGHT_SUM_TOL: a plan carries its margins' total, up to 1e-12
# off, plus rounding (1.0002e-12 seen) and HiGHS's 1e-10 feasibility slack.
TOTAL_MASS_TOL = 1e-10
DUAL_CERT_TOL = 1e-9

# solve_exact refuses instances with more atoms than this in total. The LP is
# for desk scale: the cost and the certificate are dense m x n matrices, and
# in R^d HiGHS's time grows with m * n variables.
LP_MAX_TOTAL_ATOMS = 128

# The linprog options of every HiGHS solve. HiGHS's default feasibility
# tolerances (1e-7) are looser than the certificate; at those, floored 1e-9
# weights fail it. Presolve is off: a transportation LP has no row or column
# to remove (only one redundant equality), so it cost about a third of each
# solve for nothing. The certificate checks the result either way.
HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# Largest margin size, per side, that enumerate_extreme_couplings accepts.
MAX_ENUMERATION_SIDE = 4

# Dense lattices with more points than this are refused: validate_copula's
# grid, whose points are one array of dim floats each, and the m x n plans of
# monotone_plan_1d and coupling_from_joint, which hold a few floats per cell.
# The points of the largest admitted grid, 7^8 at dim 8 and the default
# resolution, take about 370 MB; coupling_from_joint's largest plan peaks near 250 MB.
MAX_LATTICE_POINTS = 6_000_000


def _lattice_guard(points: int, shape: str, who: str) -> None:
    """``CapacityError`` if a dense lattice of ``points`` points, ``shape`` in
    words, is past ``MAX_LATTICE_POINTS``: checked before it is allocated."""
    if points > MAX_LATTICE_POINTS:
        raise CapacityError(f"{who} guard: a lattice of {shape} points exceeds the budget of {MAX_LATTICE_POINTS}")


def _as_points(points: Sequence | np.ndarray, name: str) -> np.ndarray:
    """Coerce scalars / flat lists / (k, d) arrays into an owned (k, d) float array."""
    arr = _owned(points, name)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or 0 in arr.shape:
        raise ConstructionError(f"{name} must be a nonempty list of points with at least one coordinate")
    if not np.isfinite(arr).all():
        raise ConstructionError(f"{name} must contain only finite coordinates")
    return arr


def _mass_rule(mat: np.ndarray) -> np.ndarray:
    """``mat``, a C-order float matrix that no caller holds, as a coupling's
    mass: ``ConstructionError`` unless it is finite, no entry is below
    ``-MASS_CLAMP_TOL`` and the total is within ``TOTAL_MASS_TOL`` of 1.
    Negative entries are set to zero in place, and ``mat`` becomes read-only."""
    low = mat.min()
    if not (-MASS_CLAMP_TOL <= low and mat.max() < np.inf):
        raise ConstructionError("coupling mass must be finite and not materially negative")
    if low < 0.0:
        mat[mat < 0.0] = 0.0
    mat.flags.writeable = False
    total = float(mat.sum())
    if abs(total - 1.0) > TOTAL_MASS_TOL:
        raise ConstructionError(f"total mass is {total!r}, expected 1")
    return mat


@dataclass(frozen=True)
class DiscreteCoupling:
    """Nonnegative mass matrix over the product of two finite supports."""

    row_points: np.ndarray
    col_points: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        rp = _as_points(self.row_points, "row_points")
        cp = _as_points(self.col_points, "col_points")
        mat = _reals(self.mass, "mass").copy()  # a C-order copy, which _mass_rule writes to
        if mat.shape != (rp.shape[0], cp.shape[0]):
            raise ConstructionError(
                f"mass shape {mat.shape} does not match supports "
                f"({rp.shape[0]}, {cp.shape[0]})"
            )
        if rp.shape[1] != cp.shape[1]:
            raise ConstructionError("row and column supports must share a dimension")
        for field, arr in (("row_points", rp), ("col_points", cp), ("mass", _mass_rule(mat))):
            object.__setattr__(self, field, arr)

    @property
    def dim(self) -> int:
        return int(self.row_points.shape[1])

    @classmethod
    def _from_checked(cls, row_points: np.ndarray, col_points: np.ndarray, mass: np.ndarray) -> "DiscreteCoupling":
        """A coupling built inside the library: it keeps the read-only (k, d)
        points of checked objects as they are, and runs only ``_mass_rule``
        on ``mass``, a matrix of the right shape that no caller holds."""
        return _adopt(cls, row_points=row_points, col_points=col_points, mass=_mass_rule(mass))

    def support(self) -> np.ndarray:
        """Boolean mask of cells carrying more than ``MASS_CLAMP_TOL`` mass."""
        return self.mass > MASS_CLAMP_TOL


@dataclass(frozen=True)
class TransportInstance:
    """A discrete transport problem with cost ||x - y||_q ** p."""

    mu_points: np.ndarray
    mu_weights: np.ndarray
    nu_points: np.ndarray
    nu_weights: np.ndarray
    p: float = 1.0
    q: float | None = None

    def __post_init__(self) -> None:
        mp = _as_points(self.mu_points, "mu_points")
        npts = _as_points(self.nu_points, "nu_points")
        if mp.shape[1] != npts.shape[1]:
            raise ConstructionError("mu and nu atoms must share a dimension")
        mw = _weights(self.mu_weights, "mu weights")
        nw = _weights(self.nu_weights, "nu weights")
        for pts, w, name in ((mp, mw, "mu"), (npts, nw, "nu")):
            if w.size != pts.shape[0]:
                raise ConstructionError(f"{name} weights do not match its atoms")
        p, q = _cost_orders(self.p, self.q, ConstructionError)
        fields = {"mu_points": mp, "mu_weights": mw, "nu_points": npts, "nu_weights": nw, "p": p, "q": q}
        for field, value in fields.items():
            object.__setattr__(self, field, value)

    @classmethod
    def from_distributions(
        cls,
        mu: Distribution1D,
        nu: Distribution1D,
        p: float,
        q: float | None = None,
    ) -> "TransportInstance":
        """The instance of two discrete measures, which holds their read-only
        atoms (as (k, 1) views) and weights without copying them."""
        if not (mu.is_discrete and nu.is_discrete):
            raise DomainError("the oracle only handles discrete measures")
        p, q = _cost_orders(p, q, ConstructionError)
        return _adopt(
            cls,
            mu_points=mu.atoms[:, None],
            mu_weights=mu.weights,
            nu_points=nu.atoms[:, None],
            nu_weights=nu.weights,
            p=p,
            q=q,
        )

    @property
    def cost_matrix(self) -> np.ndarray:
        return _ground_cost(self.mu_points, self.nu_points, self.p, self.q)


def _cost_orders(p: float, q: float | None, error: type[Exception] = DomainError) -> tuple[float, float]:
    """The one rule on a cost's orders (p, q), q defaulting to p: each an
    ``_order``, or ``error``."""
    p = _order(p, "cost order p", error=error)
    return p, p if q is None else _order(q, "norm order q", error=error)


class TransportSolution(NamedTuple):
    value: float
    plan: DiscreteCoupling
    row_potentials: np.ndarray
    col_potentials: np.ndarray


def _ground_cost(x: np.ndarray, y: np.ndarray, p: float, q: float) -> np.ndarray:
    """The cost matrix ||x_i - y_j||_q ** p between two (k, d) point sets.

    A cost that overflows double precision raises ``DomainError``.
    """
    with np.errstate(over="ignore"):
        # one (d, m, n) broadcast; its terms add in place in coordinate order, so a
        # line cost is the first term itself and no d reorders the sum
        terms = np.abs(x.T[:, :, None] - y.T[:, None, :]) ** q
        cost = terms[0]
        for term in terms[1:]:
            cost += term
        cost = cost if q == p else cost ** (p / q)  # x ** 1.0 is x
    if not cost.max() < np.inf:  # max() carries a NaN
        raise DomainError(f"transport cost at order p = {p:g} overflows double precision")
    return cost


def transport_cost(coupling: DiscreteCoupling, p: float, q: float | None = None) -> float:
    """Direct plan cost: sum of mass times ||x_i - y_j||_q ** p."""
    p, q = _cost_orders(p, q)
    cost = _ground_cost(coupling.row_points, coupling.col_points, p, q)
    return float((coupling.mass * cost).sum())


def solve_exact(instance: TransportInstance) -> TransportSolution:
    """Solve the transportation LP exactly and certify the optimum.

    Instances with more than ``LP_MAX_TOTAL_ATOMS`` atoms in total raise
    ``CapacityError``; a cost that overflows double precision raises
    ``DomainError``. On the line the solution is the comonotone staircase
    (``_staircase``); in R^d HiGHS solves the LP from a cold start. Either
    way the plan and its dual potentials (u, v) are accepted only if the
    plan's margins match the weights within ``TOTAL_MASS_TOL``, if
    u_i + v_j <= c_ij holds everywhere and with equality on the support of
    the plan, and if the dual objective matches the plan's cost, all three
    within ``DUAL_CERT_TOL`` times the largest cost (at least 1), since the
    potentials carry rounding on the scale of the costs.
    """
    m, n = instance.mu_weights.size, instance.nu_weights.size
    if m + n > LP_MAX_TOTAL_ATOMS:
        raise CapacityError(
            f"instance has {m} + {n} atoms, exceeding the guard of {LP_MAX_TOTAL_ATOMS}"
        )
    cost = instance.cost_matrix
    mass, u, v = (_staircase if instance.mu_points.shape[1] == 1 else _highs)(instance, cost)
    row_miss = np.abs(mass.sum(axis=1) - instance.mu_weights).max()
    miss = float(np.maximum(row_miss, np.abs(mass.sum(axis=0) - instance.nu_weights).max()))
    if miss > TOTAL_MASS_TOL:
        raise CertificationError(f"the plan's margins miss the weights by {miss:.3g}")
    plan = DiscreteCoupling._from_checked(instance.mu_points, instance.nu_points, mass)
    value = float((plan.mass * cost).sum())
    slack = cost - (u[:, None] + v[None, :])
    slack_tol = DUAL_CERT_TOL * max(1.0, float(cost.max()))
    if float(slack.min()) < -slack_tol:
        raise CertificationError("dual infeasibility: u_i + v_j exceeds the cost somewhere")
    support = plan.support()
    if support.any() and float(np.abs(slack[support]).max()) > slack_tol:
        raise CertificationError("complementary slackness fails on the plan support")
    dual = float(instance.mu_weights @ u + instance.nu_weights @ v)
    if abs(dual - value) > slack_tol:
        raise CertificationError("dual objective does not match the primal value")
    return TransportSolution(value, plan, u, v)


def _staircase(instance: TransportInstance, cost: np.ndarray):
    """The comonotone plan of a 1-D instance and potentials that price it.

    On sorted atoms this is Hoffman's north-west corner rule for Monge
    costs: the ``_comonotone_path`` of the two sides' ``_rungs``.
    Its m + n - 1 cells, with a tied rung's cell of width zero, form a
    spanning tree, so u_i + v_j = c_ij on them fixes the potentials.
    """
    rows = instance.mu_points[:, 0].argsort(kind="stable")
    cols = instance.nu_points[:, 0].argsort(kind="stable")
    i, j, widths = _comonotone_path(_rungs(instance.mu_weights[rows]), _rungs(instance.nu_weights[cols]))
    cells = rows[i] * cols.size + cols[j]
    mass = np.zeros(cost.shape)
    mass.put(cells, widths)
    path = cost.take(cells)
    steps = path[1:] - path[:-1]
    step_row = i[1:] != i[:-1]
    u, v = np.zeros(rows.size), np.full(cols.size, path[0])
    u[rows[1:]] = steps[step_row].cumsum()
    v[cols[1:]] += steps[~step_row].cumsum()
    return mass, u, v


def _highs(instance: TransportInstance, cost: np.ndarray):
    """The plan and potentials of the LP, from HiGHS's dual simplex."""
    m, n = cost.shape
    # Imported on first use: the CLI and 1-D pairs run without scipy.
    from scipy import sparse
    from scipy.optimize import linprog

    # HiGHS sees the cost divided by the largest one. Its feasibility
    # tolerances are absolute, so on raw costs from about 2e8 some solves
    # ended in status "Unknown"; scaled, none did up to the largest finite
    # cost. Only the potentials come back scaled.
    scale = float(cost.max()) or 1.0
    # Variable i * n + j (cell (i, j)) has a 1 in exactly two constraints:
    # row i's margin and column j's margin, m + j. Column-compressed, that
    # is two sorted row indices per column, so column k starts at 2k.
    i, j = np.divmod(np.arange(m * n, dtype=np.int32), n)
    a_eq = sparse.csc_array(
        (np.ones(2 * m * n), np.stack([i, m + j], axis=1).ravel(), np.arange(0, 2 * m * n + 1, 2, dtype=np.int32)),
        shape=(m + n, m * n),
    )
    b_eq = np.concatenate([instance.mu_weights, instance.nu_weights])
    res = linprog(cost.ravel() / scale, A_eq=a_eq, b_eq=b_eq, method="highs-ds", options=HIGHS_OPTIONS)
    if not res.success:
        raise CertificationError(res.message)
    mass = res.x.reshape(m, n)
    # Negatives inside HiGHS's feasibility tolerance are noise; the margin check judges the rest.
    mass[(mass >= -HIGHS_OPTIONS["primal_feasibility_tolerance"]) & (mass < MASS_CLAMP_TOL)] = 0.0
    potentials = res.eqlin.marginals * scale
    return mass, potentials[:m], potentials[m:]


def monotone_plan_1d(mu: Distribution1D, nu: Distribution1D) -> DiscreteCoupling:
    """Comonotone coupling of two discrete measures on R, the joint law of
    (F^{-1}(U), G^{-1}(U)): each cell of their ``_comonotone_path`` carries
    its width. It is bitwise the plan ``solve_exact`` certifies for them.
    Plans of more than ``MAX_LATTICE_POINTS`` cells raise ``CapacityError``.
    """
    if not (mu.is_discrete and nu.is_discrete):
        raise DomainError("monotone_plan_1d needs discrete measures")
    _lattice_guard(mu.atoms.size * nu.atoms.size, f"{mu.atoms.size} x {nu.atoms.size}", "plan")
    i, j, widths = _comonotone_path(mu.cumulative_weights, nu.cumulative_weights)
    mass = np.zeros((mu.atoms.size, nu.atoms.size))
    mass[i, j] = widths
    return DiscreteCoupling._from_checked(mu.atoms[:, None], nu.atoms[:, None], mass)


def enumerate_extreme_couplings(
    mu_weights: Sequence[float] | np.ndarray,
    nu_weights: Sequence[float] | np.ndarray,
    row_points: Sequence | np.ndarray | None = None,
    col_points: Sequence | np.ndarray | None = None,
) -> list[DiscreteCoupling]:
    """All vertices of the transportation polytope with the given margins.

    A vertex is a basic feasible solution of the LP's margin equations (the
    ones ``solve_exact`` hands HiGHS in R^d): m + n - 1 cells whose margin
    columns are independent, carrying the nonnegative masses those
    equations force; on the line the comonotone staircase is one of them.
    All cell sets are solved in one batched ``np.linalg.solve``; vertices
    come in ``itertools.combinations`` order, each once (masses rounded to
    12 decimals). Margins and points are validated as a
    ``TransportInstance``. Vertex counts explode combinatorially, hence the
    hard size guard of ``MAX_ENUMERATION_SIDE`` atoms per side.
    """
    m, n = _reals(mu_weights, "mu weights").size, _reals(nu_weights, "nu weights").size
    if m > MAX_ENUMERATION_SIDE or n > MAX_ENUMERATION_SIDE:
        raise CapacityError(
            f"margins of size {m} x {n} exceed the guard of {MAX_ENUMERATION_SIDE}"
        )
    rp = np.arange(m, dtype=float) if row_points is None else row_points
    cp = np.arange(n, dtype=float) if col_points is None else col_points
    instance = TransportInstance(rp, mu_weights, cp, nu_weights)
    # Cell i * n + j enters row i's and column j's equation; the last
    # equation follows from the others and is dropped.
    margins = np.vstack([np.kron(np.eye(m), np.ones(n)), np.tile(np.eye(n), m)])[:-1]
    subsets = np.array(list(itertools.combinations(range(m * n), m + n - 1)))
    squares = margins[:, subsets].transpose(1, 0, 2)
    # The margin matrix is totally unimodular: every square submatrix has
    # determinant -1, 0 or 1, and elimination keeps its entries in {0, +-1}.
    # So |det| > 0.5 separates bases from singular cell sets exactly.
    basic = np.abs(np.linalg.det(squares)) > 0.5
    b = np.concatenate([instance.mu_weights, instance.nu_weights])
    # b is (1, M, 1): NumPy < 2 would read an (M, 1) b as a stack of 1-vectors
    solved = np.linalg.solve(squares[basic], b[None, :-1, None])[..., 0]
    feasible = solved.min(axis=1) >= -MASS_CLAMP_TOL
    masses = np.zeros((int(feasible.sum()), m * n))
    np.put_along_axis(masses, subsets[basic][feasible], solved[feasible].clip(min=0.0), axis=1)
    _, first = np.unique(np.round(masses, 12), axis=0, return_index=True)
    return [
        DiscreteCoupling(instance.mu_points, instance.nu_points, mass.reshape(m, n))
        for mass in masses[np.sort(first)]
    ]
