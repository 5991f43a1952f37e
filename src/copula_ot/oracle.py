"""Exact reference solver for discrete optimal transport at desk scale.

Every closed-form distance in this package is checked against the
transportation linear program solved here. The solver itself is HiGHS via
``scipy.optimize.linprog``; what makes it an oracle is the certificate: each
solution is verified against recovered dual potentials (dual feasibility
everywhere, complementary slackness on the support), and small instances can
be cross-checked by exhaustive vertex enumeration. Guards are hard errors,
never silent truncation; the oracle must not approximate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import WEIGHT_SUM_TOL, Distribution1D, _ladder, _order
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

TOTAL_MASS_TOL = 1e-10
DUAL_CERT_TOL = 1e-9

# solve_exact refuses instances with more atoms than this in total. The LP is
# for desk scale: the cost and the certificate are dense m x n matrices, and
# HiGHS's time grows with m * n variables.
LP_MAX_TOTAL_ATOMS = 128

# Largest margin size, per side, that enumerate_extreme_couplings accepts.
MAX_ENUMERATION_SIDE = 4


def _as_points(points: Sequence | np.ndarray, name: str) -> np.ndarray:
    """Coerce scalars / flat lists / (k, d) arrays into a (k, d) float array."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ConstructionError(f"{name} must be a nonempty list of points")
    if not np.all(np.isfinite(arr)):
        raise ConstructionError(f"{name} must contain only finite coordinates")
    return arr


@dataclass(frozen=True)
class DiscreteCoupling:
    """Nonnegative mass matrix over the product of two finite supports."""

    row_points: np.ndarray
    col_points: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        rp = _as_points(self.row_points, "row_points")
        cp = _as_points(self.col_points, "col_points")
        mat = np.asarray(self.mass, dtype=float)
        if mat.shape != (rp.shape[0], cp.shape[0]):
            raise ConstructionError(
                f"mass shape {mat.shape} does not match supports "
                f"({rp.shape[0]}, {cp.shape[0]})"
            )
        if rp.shape[1] != cp.shape[1]:
            raise ConstructionError("row and column supports must share a dimension")
        if np.any(mat < -MASS_CLAMP_TOL):
            raise ConstructionError("coupling mass has a materially negative entry")
        mat = np.where(mat < 0.0, 0.0, mat)
        total = float(mat.sum())
        if abs(total - 1.0) > TOTAL_MASS_TOL:
            raise ConstructionError(f"total mass is {total!r}, expected 1")
        for arr, field in ((rp, "row_points"), (cp, "col_points"), (mat, "mass")):
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    @property
    def dim(self) -> int:
        return int(self.row_points.shape[1])

    @property
    def row_weights(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @property
    def col_weights(self) -> np.ndarray:
        return self.mass.sum(axis=0)

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
        mw = np.asarray(self.mu_weights, dtype=float).ravel()
        nw = np.asarray(self.nu_weights, dtype=float).ravel()
        for pts, w, name in ((mp, mw, "mu"), (npts, nw, "nu")):
            if w.size != pts.shape[0]:
                raise ConstructionError(f"{name} weights do not match its atoms")
            if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
                raise ConstructionError(f"{name} weights must be strictly positive")
            if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
                raise ConstructionError(f"{name} weights must sum to 1 within {WEIGHT_SUM_TOL}")
        p = _order(self.p, "cost order p", error=ConstructionError)
        q = p if self.q is None else _order(self.q, "norm order q", error=ConstructionError)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        for arr, field in ((mp, "mu_points"), (mw, "mu_weights"), (npts, "nu_points"), (nw, "nu_weights")):
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)

    @classmethod
    def from_distributions(
        cls,
        mu: Distribution1D,
        nu: Distribution1D,
        p: float,
        q: float | None = None,
    ) -> "TransportInstance":
        if not (mu.is_discrete and nu.is_discrete):
            raise DomainError("the oracle only handles discrete measures")
        return cls(mu.atoms, mu.weights, nu.atoms, nu.weights, p=p, q=q)

    @property
    def cost_matrix(self) -> np.ndarray:
        return _ground_cost(self.mu_points, self.nu_points, self.p, self.q)


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
        cost = np.sum(np.abs(x[:, None, :] - y[None, :, :]) ** q, axis=2) ** (p / q)
    if not np.all(np.isfinite(cost)):
        raise DomainError(f"transport cost at order p = {p:g} overflows double precision")
    return cost


def transport_cost(coupling: DiscreteCoupling, p: float, q: float | None = None) -> float:
    """Direct plan cost: sum of mass times ||x_i - y_j||_q ** p."""
    p = _order(p, "cost order p")
    q = p if q is None else _order(q, "norm order q")
    cost = _ground_cost(coupling.row_points, coupling.col_points, p, q)
    return float(np.sum(coupling.mass * cost))


def solve_exact(instance: TransportInstance) -> TransportSolution:
    """Solve the transportation LP exactly and certify the optimum.

    Instances with more than ``LP_MAX_TOTAL_ATOMS`` atoms in total raise
    ``CapacityError``, and a cost that overflows double precision raises
    ``DomainError``. The returned plan and value are accepted only if
    recovered dual potentials (u, v) satisfy u_i + v_j <= c_ij everywhere
    and meet it with equality on the support of the plan, both within
    ``DUAL_CERT_TOL`` times the largest cost (at least 1), since the
    potentials carry rounding on the scale of the costs.
    """
    m = instance.mu_weights.size
    n = instance.nu_weights.size
    if m + n > LP_MAX_TOTAL_ATOMS:
        raise CapacityError(
            f"instance has {m} + {n} atoms, exceeding the guard of {LP_MAX_TOTAL_ATOMS}"
        )
    cost = instance.cost_matrix
    # imported on first use: the CLI starts without scipy
    from scipy import sparse
    from scipy.optimize import linprog

    # Variable i * n + j (cell (i, j)) has a 1 in exactly two constraints:
    # row i's margin and column j's margin, m + j. Column-compressed, that
    # is two sorted row indices per column.
    i, j = np.divmod(np.arange(m * n), n)
    a_eq = sparse.csc_array(
        (np.ones(2 * m * n), np.stack([i, m + j], axis=1).ravel(), np.arange(0, 2 * m * n + 1, 2)),
        shape=(m + n, m * n),
    )
    b_eq = np.concatenate([instance.mu_weights, instance.nu_weights])
    # HiGHS's default feasibility tolerances (1e-7) are looser than the
    # certificate below; at those, floored 1e-9 weights fail it. Presolve is
    # off: a transportation LP has no row or column to remove (only one
    # redundant equality), so it cost about a third of each solve for
    # nothing. The certificate checks the result either way.
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={
            "presolve": False,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise CertificationError(f"LP solver failed with status {res.status}: {res.message}")

    mass = res.x.reshape(m, n)
    mass = np.where(np.abs(mass) < MASS_CLAMP_TOL, 0.0, mass)
    plan = DiscreteCoupling(instance.mu_points, instance.nu_points, mass)
    value = float(np.sum(plan.mass * cost))

    potentials = np.asarray(res.eqlin.marginals, dtype=float)
    u, v = potentials[:m], potentials[m:]
    slack = cost - (u[:, None] + v[None, :])
    slack_tol = DUAL_CERT_TOL * max(1.0, float(cost.max()))
    if float(slack.min()) < -slack_tol:
        raise CertificationError("dual infeasibility: u_i + v_j exceeds the cost somewhere")
    support = plan.support()
    if support.any() and float(np.max(np.abs(slack[support]))) > slack_tol:
        raise CertificationError("complementary slackness fails on the plan support")
    if abs(float(b_eq @ potentials) - value) > max(DUAL_CERT_TOL, DUAL_CERT_TOL * abs(value)):
        raise CertificationError("dual objective does not match the primal value")
    return TransportSolution(value, plan, u, v)


def monotone_plan_1d(mu: Distribution1D, nu: Distribution1D) -> DiscreteCoupling:
    """Comonotone coupling of two discrete measures on R.

    Puts each piece of the merged cumulative-weight ladder on the atom pair
    the two quantile functions take there; pieces that the tie rule puts on
    the same pair add up in one cell. This realizes the joint law of
    (F^{-1}(U), G^{-1}(U)).
    """
    if not (mu.is_discrete and nu.is_discrete):
        raise DomainError("monotone_plan_1d needs discrete measures")
    idx, widths = _ladder((mu, nu))
    mass = np.zeros((mu.n_atoms, nu.n_atoms))
    np.add.at(mass, (idx[:, 0], idx[:, 1]), widths)
    return DiscreteCoupling(mu.atoms, nu.atoms, mass)


def enumerate_extreme_couplings(
    mu_weights: Sequence[float] | np.ndarray,
    nu_weights: Sequence[float] | np.ndarray,
    row_points: Sequence | np.ndarray | None = None,
    col_points: Sequence | np.ndarray | None = None,
) -> list[DiscreteCoupling]:
    """All vertices of the transportation polytope with the given margins.

    A vertex is a feasible plan whose support is a spanning forest of the
    bipartite supply/demand graph. Enumeration walks every edge subset of
    size m + n - 1 and peels leaves to solve for the unique masses; a subset
    that is not a spanning tree contains a cycle, which peeling cannot
    consume, so it yields no masses. It keeps the nonnegative ones and
    deduplicates. Vertex counts explode combinatorially, hence the hard
    size guard of ``MAX_ENUMERATION_SIDE`` atoms per side.
    """
    mw = np.asarray(mu_weights, dtype=float).ravel()
    nw = np.asarray(nu_weights, dtype=float).ravel()
    m, n = mw.size, nw.size
    if m > MAX_ENUMERATION_SIDE or n > MAX_ENUMERATION_SIDE:
        raise CapacityError(
            f"margins of size {m} x {n} exceed the guard of {MAX_ENUMERATION_SIDE}"
        )
    if abs(float(mw.sum()) - float(nw.sum())) > 1e-9:
        raise DomainError("margins must carry equal total mass")
    rp = np.arange(m, dtype=float) if row_points is None else row_points
    cp = np.arange(n, dtype=float) if col_points is None else col_points

    edges = list(itertools.product(range(m), range(n)))
    seen: set[tuple] = set()
    vertices: list[DiscreteCoupling] = []
    for tree in itertools.combinations(edges, m + n - 1):
        mass = _solve_tree_masses(tree, mw, nw)
        if mass is None or float(mass.min()) < -MASS_CLAMP_TOL:
            continue
        mass = np.where(mass < 0.0, 0.0, mass)
        key = tuple(np.round(mass, 12).ravel())
        if key in seen:
            continue
        seen.add(key)
        vertices.append(DiscreteCoupling(rp, cp, mass))
    return vertices


def _solve_tree_masses(
    tree: Sequence[tuple[int, int]],
    mu_weights: np.ndarray,
    nu_weights: np.ndarray,
) -> np.ndarray | None:
    """Peel tree leaves to recover the unique masses on its edges, or None
    when the edges do not form a spanning tree."""
    m, n = mu_weights.size, nu_weights.size
    supply = np.concatenate([mu_weights, nu_weights]).astype(float)
    adjacency: dict[int, set[int]] = {k: set() for k in range(m + n)}
    for i, j in tree:
        adjacency[i].add(m + j)
        adjacency[m + j].add(i)
    mass = np.zeros((m, n))
    leaves = [k for k, nbrs in adjacency.items() if len(nbrs) == 1]
    for _ in range(len(tree)):
        if not leaves:
            return None
        leaf = leaves.pop()
        if not adjacency[leaf]:
            return None
        other = next(iter(adjacency[leaf]))
        amount = supply[leaf]
        i, j = (leaf, other - m) if leaf < m else (other, leaf - m)
        mass[i, j] = amount
        supply[leaf] = 0.0
        supply[other] -= amount
        adjacency[leaf].remove(other)
        adjacency[other].remove(leaf)
        if len(adjacency[other]) == 1:
            leaves.append(other)
    return mass
