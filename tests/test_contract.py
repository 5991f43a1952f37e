"""The malformed-input contract, swept over every public door.

Each door below is one argument of a public constructor, function or
evaluator that takes a value (objects of the library's own classes, such as
a measure or a coupling, are left out). Each is given each malformed kind of
value. The kinds a door lists as accepted must return a value; every other
kind must raise a ``CopulaOTError`` subclass, never a bare ``ValueError`` or
``TypeError``, and never a ``ComplexWarning`` or other ``RuntimeWarning``.
Values that user evaluators return are swept the same way: none of the bad
returns may pass. Result records (``ValidationReport``, ``TransportSolution``)
are what the library returns, not doors; ``DistanceReport``'s orders are one,
since every (p, q) door shares their rule, and so is its ``error_bound``.
"""

import math

import numpy as np
import pytest

from copula_ot import (
    CapacityError,
    CopulaFn,
    CopulaOTError,
    DiscreteCoupling,
    DistanceReport,
    Distribution1D,
    JointCDF,
    TransportInstance,
    built_in_copula,
    comonotone_expectation,
    comonotonicity_copula,
    coupling_from_joint,
    dall_aglio_functional,
    enumerate_extreme_couplings,
    from_atoms,
    from_quantile,
    from_samples,
    independence_copula,
    lower_frechet_bound,
    monotone_plan_1d,
    tail_decay_diagnostic,
    transport_cost,
    validate_copula,
    w1_cdf_area,
    wasserstein_1d,
    wasserstein_shared_copula,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

KINDS = {
    "string": "x",
    "None": None,
    "complex": 0.5 + 1j,
    "numpy complex": np.complex128(0.5 + 1j),
    "complex array": np.array([0.5 + 1j, 1.0]),
    "ragged": [[0.5, 1.0], [1.0]],
    "nan": math.nan,
    "inf": math.inf,
    "object array": np.array([0.5, None], dtype=object),
    "0-d array": np.array(1.0),
    "empty": [],
    "no coordinates": np.zeros((2, 0)),  # two points of dimension 0
    "2-D": [[0.5, 0.5]],
    "non-integral": 2.5,
    "huge integer": 10**400,  # past every float; still a count
}

W = [0.5, 0.5]
D = from_atoms([0.0, 1.0], W)
U01 = from_quantile(lambda u: u, lambda x: min(1.0, max(0.0, x)), math.inf)
M2 = comonotonicity_copula(2)
H = JointCDF(M2, (D, U01))
PLAN = monotone_plan_1d(D, D)
MASS = [[0.5, 0.0], [0.0, 0.5]]

REAL = {"0-d array", "non-integral"}  # an order: 1.0 and 2.5 are orders, the rest are not
OPTIONAL_REAL = REAL | {"None"}  # an order whose None means "the default"

# door: (call on the value, the kinds it accepts); a points door gets the value
# on both sides, so a dimension mismatch cannot stand in for the points rule
DOORS = {
    "from_samples samples": (from_samples, {"0-d array", "2-D", "non-integral"}),
    "from_atoms atoms": (lambda v: from_atoms(v, W), {"2-D"}),
    "from_atoms weights": (lambda v: from_atoms([0.0, 1.0], v), {"2-D"}),
    "Distribution1D atoms": (lambda v: Distribution1D(atoms=v, weights=W), set()),
    "Distribution1D weights": (lambda v: Distribution1D(atoms=[0.0, 1.0], weights=v), {"2-D"}),
    "from_quantile p_moment_order": (
        lambda v: from_quantile(U01.quantile_fn, U01.cdf_fn, v), REAL | {"inf"}
    ),
    "cdf x, discrete": (D.cdf, REAL | {"inf"}),
    "cdf x, parametric": (U01.cdf, REAL | {"inf"}),
    "quantile u, discrete": (D.quantile, {"0-d array"}),
    "quantile u, parametric": (U01.quantile, {"0-d array"}),
    "quantile_many u, discrete": (D.quantile_many, {"0-d array", "empty", "no coordinates", "2-D"}),
    "quantile_many u, parametric": (U01.quantile_many, {"0-d array", "empty", "no coordinates", "2-D"}),
    "p_moment p": (D.p_moment, REAL),
    "tail_decay_diagnostic r": (lambda v: tail_decay_diagnostic(D, v, [1.0]), REAL),
    "tail_decay_diagnostic grid": (lambda v: tail_decay_diagnostic(D, 1.0, v), REAL | {"empty", "no coordinates"}),
    "CopulaFn dim": (lambda v: CopulaFn(v, M2.eval_batch), {"huge integer"}),
    "CopulaFn call u": (M2, set()),
    "CopulaFn batch points": (M2.batch, {"2-D"}),
    "JointCDF call x": (H, set()),
    "built_in_copula label": (lambda v: built_in_copula(v, 2), set()),
    "built_in_copula dim": (lambda v: built_in_copula("M", v), {"huge integer"}),
    "comonotonicity_copula dim": (comonotonicity_copula, {"huge integer"}),
    "lower_frechet_bound dim": (lower_frechet_bound, {"huge integer"}),
    "independence_copula dim": (independence_copula, {"huge integer"}),
    "validate_copula grid_resolution": (lambda v: validate_copula(M2, v), {"None"}),
    "wasserstein_1d p": (lambda v: wasserstein_1d(D, D, v), REAL),
    "dall_aglio_functional p": (lambda v: dall_aglio_functional(PLAN, v), {"non-integral"}),
    "wasserstein_shared_copula p": (lambda v: wasserstein_shared_copula([D], [D], v), REAL),
    "wasserstein_shared_copula q": (lambda v: wasserstein_shared_copula([D], [D], 2.0, v), OPTIONAL_REAL),
    "DistanceReport p": (lambda v: DistanceReport((1.0, 1.0), v, 2.0, "m"), REAL),
    "DistanceReport q": (lambda v: DistanceReport((1.0, 1.0), 2.0, v, "m"), OPTIONAL_REAL),
    "DistanceReport error_bound": (lambda v: DistanceReport((1.0, 1.0), 2.0, 2.0, "m", v), REAL | {"inf"}),
    "transport_cost p": (lambda v: transport_cost(PLAN, v), REAL),
    "transport_cost q": (lambda v: transport_cost(PLAN, 2.0, v), OPTIONAL_REAL),
    "TransportInstance points": (lambda v: TransportInstance(v, W, v, W), set()),
    "TransportInstance weights": (lambda v: TransportInstance([0.0, 1.0], v, [0.0, 1.0], W), {"2-D"}),
    "TransportInstance p": (lambda v: TransportInstance([0.0, 1.0], W, [0.0, 1.0], W, v), REAL),
    "TransportInstance q": (lambda v: TransportInstance([0.0, 1.0], W, [0.0, 1.0], W, 2.0, v), OPTIONAL_REAL),
    "TransportInstance.from_distributions p": (lambda v: TransportInstance.from_distributions(D, D, v), REAL),
    "DiscreteCoupling points": (lambda v: DiscreteCoupling(v, v, MASS), set()),
    "DiscreteCoupling mass": (lambda v: DiscreteCoupling([0.0, 1.0], [0.0, 1.0], v), set()),
    "enumerate_extreme_couplings weights": (lambda v: enumerate_extreme_couplings(v, W), {"0-d array", "2-D"}),
    "enumerate_extreme_couplings points": (lambda v: enumerate_extreme_couplings(W, W, v, v), {"None"}),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("door", DOORS)
def test_malformed_argument(door, kind):
    call, accepted = DOORS[door]
    if kind in accepted:
        call(KINDS[kind])
    else:
        with pytest.raises(CopulaOTError):
            call(KINDS[kind])


BAD_RETURNS = {
    "None": None,
    "string": "x",
    "complex": 0.5 + 1j,
    "numpy complex": np.complex128(0.5 + 1j),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}


def _measure(*, cdf=U01.cdf_fn, quantile=U01.quantile_fn, tail=None):
    return from_quantile(quantile, cdf, math.inf, tail)


def _copula(value):
    return CopulaFn(2, lambda pts: [value] * len(pts))


# evaluator: call that makes the library read what the evaluator returned
EVALUATORS = {
    "cdf_fn via cdf": lambda v: _measure(cdf=lambda x: v).cdf(0.5),
    "cdf_fn via w1_cdf_area": lambda v: w1_cdf_area(_measure(cdf=lambda x: v), D),
    "quantile_fn via quantile": lambda v: _measure(quantile=lambda u: v).quantile(0.5),
    "quantile_fn via quantile_many": lambda v: _measure(quantile=lambda u: v).quantile_many([0.5]),
    "quantile_fn via p_moment": lambda v: _measure(quantile=lambda u: v).p_moment(1.0),
    "quantile_fn via wasserstein_1d": lambda v: wasserstein_1d(_measure(quantile=lambda u: v), D, 1.0),
    "eval_batch via call": lambda v: _copula(v)([0.5, 0.5]),
    "eval_batch via batch": lambda v: _copula(v).batch(np.full((3, 2), 0.5)),
    "eval_batch via validate_copula": lambda v: validate_copula(_copula(v)),
    "eval_batch via coupling_from_joint": lambda v: coupling_from_joint(JointCDF(_copula(v), (D, D))),
    "tail_moment_bound via wasserstein_1d": lambda v: wasserstein_1d(_measure(tail=lambda p, eps: v), D, 1.0),
    "g_fn via comonotone_expectation": lambda v: comonotone_expectation(lambda a, b: v, D, D),
}


@pytest.mark.parametrize("bad", BAD_RETURNS)
@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_malformed_evaluator_return(evaluator, bad):
    with pytest.raises(CopulaOTError):
        EVALUATORS[evaluator](BAD_RETURNS[bad])


def test_negative_tail_moment_bound_is_refused():
    with pytest.raises(CopulaOTError, match="tail_moment_bound"):
        wasserstein_1d(_measure(tail=lambda p, eps: -1.0), D, 1.0)


def test_nan_copula_argument_is_blamed_on_the_argument():
    with pytest.raises(CopulaOTError, match="unit hypercube"):
        M2([0.5, math.nan])


@pytest.mark.parametrize("point", [[2.0, 3.0], [-0.25, 0.5], [0.5, math.nan], [math.inf, 0.5]])
def test_batch_points_live_in_the_unit_hypercube(point):
    with pytest.raises(CopulaOTError, match="unit hypercube"):
        M2.batch(np.array([[0.5, 0.5], point]))


def test_a_numpy_integer_dim_is_stored_as_an_int():
    c = CopulaFn(np.int64(3), M2.eval_batch)
    assert type(c.dim) is int
    # an int64 dim made the guard's (2**21 + 1) ** 3 wrap to a negative lattice size
    with pytest.raises(CapacityError):
        validate_copula(c, 2**21)


def logistic_cdf(x):
    return 1.0 / (1.0 + math.exp(-x))


def geometric_cdf(x):
    return 1.0 - 0.5 ** (math.floor(x) + 1) if x >= 0.0 else 0.0  # math.floor(inf) raises OverflowError


@pytest.mark.parametrize("cdf", [geometric_cdf, lambda x: 0.5 + 0.5 * x / (1.0 + abs(x))])  # the lambda is nan at +-inf
def test_parametric_cdf_is_exact_at_infinity(cdf):
    d = from_quantile(lambda u: u, cdf, math.inf)
    assert d.cdf(math.inf) == 1.0
    assert d.cdf(-math.inf) == 0.0


# M and Pi give C(u, 1) == u exactly; W's (u + 1) - 1 rounds, whatever its arguments
@pytest.mark.parametrize("copula", [comonotonicity_copula(2), independence_copula(2)])
@pytest.mark.parametrize("margin", [D, U01, from_quantile(lambda u: math.log(u / (1.0 - u)), logistic_cdf, 2.0)])
def test_joint_marginalizes_exactly_at_infinity(copula, margin):
    h = JointCDF(copula, (margin, margin))
    for x in (-1.0, 0.25, 0.5, 3.0):
        assert h([x, math.inf]) == margin.cdf(x)
        assert h([math.inf, x]) == margin.cdf(x)
        assert h([x, -math.inf]) == 0.0
    assert h([math.inf, math.inf]) == 1.0
