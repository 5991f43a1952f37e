"""Wasserstein distances on R and R^d through the comonotonicity copula.

The public surface groups into four layers: one-dimensional measures
(:mod:`copula_ot.distributions`), copulas and joint CDFs
(:mod:`copula_ot.copulas`), the distance representations
(:mod:`copula_ot.distances`), and the exact LP oracle every closed form is
checked against (:mod:`copula_ot.oracle`). The ``copula-ot`` CLI exposes
these over CSV files.
"""

from .distributions import (
    Distribution1D,
    from_atoms,
    from_quantile,
    from_samples,
    tail_decay_diagnostic,
)
from .copulas import (
    CopulaFn,
    JointCDF,
    ValidationReport,
    built_in_copula,
    comonotone_joint_2d,
    comonotonicity_copula,
    coupling_from_joint,
    independence_copula,
    lower_frechet_bound,
    validate_copula,
)
from .distances import (
    DistanceReport,
    comonotone_expectation,
    dall_aglio_functional,
    w1_cdf_area,
    wasserstein_1d,
    wasserstein_shared_copula,
)
from .oracle import (
    DiscreteCoupling,
    TransportInstance,
    TransportSolution,
    enumerate_extreme_couplings,
    monotone_plan_1d,
    solve_exact,
    transport_cost,
)
from .errors import (
    CapacityError,
    CertificationError,
    ConstructionError,
    CopulaOTError,
    DivergenceError,
    DomainError,
    InvalidJointError,
    PreconditionError,
)

__all__ = [
    "Distribution1D",
    "from_samples",
    "from_atoms",
    "from_quantile",
    "tail_decay_diagnostic",
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
    "DistanceReport",
    "wasserstein_1d",
    "w1_cdf_area",
    "comonotone_expectation",
    "dall_aglio_functional",
    "wasserstein_shared_copula",
    "DiscreteCoupling",
    "TransportInstance",
    "TransportSolution",
    "solve_exact",
    "enumerate_extreme_couplings",
    "monotone_plan_1d",
    "transport_cost",
    "CopulaOTError",
    "ConstructionError",
    "DomainError",
    "PreconditionError",
    "DivergenceError",
    "CapacityError",
    "InvalidJointError",
    "CertificationError",
]

__version__ = "0.1.0"
