"""Wasserstein distances on R and R^d through the comonotonicity copula.

The public surface groups into four layers: one-dimensional measures
(:mod:`copula_ot.distributions`), copulas and joint CDFs
(:mod:`copula_ot.copulas`), the distance representations
(:mod:`copula_ot.distances`), and the exact LP oracle every closed form is
checked against (:mod:`copula_ot.oracle`). The ``copula-ot`` CLI exposes
these over CSV files. Each module's ``__all__`` is the one list of its public
names; the package re-exports them, and the errors of :mod:`copula_ot.errors`,
in that order.
"""

from . import copulas, distances, distributions, errors, oracle
from .distributions import *
from .copulas import *
from .distances import *
from .oracle import *
from .errors import *

__all__: list[str] = []
__all__ += distributions.__all__
__all__ += copulas.__all__
__all__ += distances.__all__
__all__ += oracle.__all__
__all__ += errors.__all__

__version__ = "0.1.0"
