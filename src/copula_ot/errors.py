"""Exception hierarchy shared across the package."""

__all__ = [
    "CopulaOTError",
    "ConstructionError",
    "DomainError",
    "PreconditionError",
    "DivergenceError",
    "CapacityError",
    "InvalidJointError",
    "CertificationError",
]


class CopulaOTError(Exception):
    """Base class for every error raised by this package."""


class ConstructionError(CopulaOTError, ValueError):
    """Invalid inputs while building a distribution, coupling, or instance."""


class DomainError(CopulaOTError, ValueError):
    """Argument outside an operation's mathematical domain."""


class PreconditionError(CopulaOTError):
    """A caller-asserted hypothesis (e.g. a finite moment order) is missing."""


class DivergenceError(CopulaOTError, ArithmeticError):
    """Adaptive quadrature did not converge; the integral may diverge."""


class CapacityError(CopulaOTError):
    """Instance exceeds a hard size guard; exactness would be at risk."""


class InvalidJointError(CopulaOTError):
    """A claimed 2D joint CDF produced materially negative rectangle mass."""


class CertificationError(CopulaOTError):
    """An LP solution failed its dual optimality certificate."""
