"""Tests for every distance representation and their agreement contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from copula_ot import (
    CapacityError,
    ConstructionError,
    DiscreteCoupling,
    DistanceReport,
    DomainError,
    PreconditionError,
    TransportInstance,
    comonotone_expectation,
    dall_aglio_functional,
    enumerate_extreme_couplings,
    from_atoms,
    from_quantile,
    from_samples,
    monotone_plan_1d,
    solve_exact,
    tail_decay_diagnostic,
    transport_cost,
    w1_cdf_area,
    wasserstein_1d,
    wasserstein_shared_copula,
)
from copula_ot import oracle

from helpers import comonotone_support, random_discrete, relative_gap, uniform_with_nan_hole


def uniform(atoms):
    return from_atoms(atoms, [1.0 / len(atoms)] * len(atoms))


@st.composite
def couplings(draw, max_side=4):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    xs = np.sort(
        np.asarray(
            draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=m, max_size=m, unique=True))
        )
    )
    ys = np.sort(
        np.asarray(
            draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n, unique=True))
        )
    )
    raw = draw(
        st.lists(st.floats(0.01, 1.0), min_size=m * n, max_size=m * n)
    )
    mass = np.asarray(raw).reshape(m, n)
    return DiscreteCoupling(xs, ys, mass / mass.sum())


class TestDistanceReport:
    @pytest.mark.parametrize("pth", [math.inf, math.nan])
    def test_non_finite_point_value_rejected(self, pth):
        with pytest.raises(DomainError, match="W_p\\^p at order p = 2 overflows"):
            DistanceReport((pth, pth), p=2.0, q=2.0, method="m")

    @pytest.mark.parametrize("bracket", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0)])
    def test_non_finite_bracket_end_rejected(self, bracket):
        with pytest.raises(DomainError, match="W_p\\^p at order p = 2 overflows"):
            DistanceReport(bracket, p=2.0, q=1.0, method="m")

    def test_overflowing_pair_rejected(self):
        # no errstate here: the overflow is a DomainError, not a RuntimeWarning
        f = from_atoms([0.0, 1e200], [0.5, 0.5])
        g = from_atoms([0.0, -1e200], [0.5, 0.5])
        assert wasserstein_1d(f, g, 1.0).value_pth_power == pytest.approx(1e200)
        with pytest.raises(DomainError, match="overflows double precision"):
            wasserstein_1d(f, g, 2.0)
        with pytest.raises(DomainError, match="overflows double precision"):
            wasserstein_shared_copula([f, f], [g, g], 2.0, 1.0)

    def test_exact_report_with_distinct_ends_rejected(self):
        with pytest.raises(DomainError, match="ends must meet"):
            DistanceReport((1.0, 1.0 + 1e-12), p=2.0, q=2.0, method="m")

    @pytest.mark.parametrize("bracket", [(-1e-300, 1.0), (2.0, 1.0)])
    def test_unordered_or_negative_interval_rejected(self, bracket):
        with pytest.raises(DomainError, match="0 <= lower <= upper"):
            DistanceReport(bracket, p=2.0, q=1.0, method="m")

    @pytest.mark.parametrize("bracket", ["0.5", (1.0,), (1.0, 1.0 + 0j), 1.0, (1.0, 1.0, 1.0)])
    def test_bracket_that_is_no_pair_of_reals_rejected(self, bracket):
        with pytest.raises(DomainError, match="bracket_pth_power must be two real numbers"):
            DistanceReport(bracket, p=1.0, q=1.0, method="m")

    @pytest.mark.parametrize(
        "bracket, p, q, message",
        [
            # the orders are checked first: the overflow message formats p
            ((math.inf, math.inf), "x", "x", "cost order p must be a real number"),
            ((1.0, 1.0), "x", "x", "cost order p must be a real number"),
            # q None means p, so the report is exact and its ends must meet
            ((1.0, 2.0), 2.0, None, "ends must meet"),
        ],
        ids=["overflowing", "exact", "q None"],
    )
    def test_orders_go_through_the_cost_order_rule(self, bracket, p, q, message):
        with pytest.raises(DomainError, match=message):
            DistanceReport(bracket, p, q, "m")

    def test_orders_are_stored_as_floats(self):
        report = DistanceReport((4.0, 4.0), np.int64(2), None, "m")
        assert (report.p, report.q, report.value) == (2.0, 2.0, 2.0)
        assert type(report.p) is float and type(report.q) is float

    def test_bracket_ends_are_stored_as_floats(self):
        report = DistanceReport([np.float64(1.0), np.int64(2)], p=2.0, q=1.0, method="m")
        assert report.bracket_pth_power == (1.0, 2.0)
        assert all(type(end) is float for end in report.bracket_pth_power)

    @pytest.mark.parametrize("bound", ["x", math.nan, -1.0, None], ids=["string", "nan", "negative", "None"])
    def test_error_bound_is_a_nonnegative_real(self, bound):
        with pytest.raises(DomainError, match="error_bound"):
            DistanceReport((1.0, 1.0), 1.0, 1.0, "m", bound)

    def test_error_bound_is_stored_as_a_float(self):
        # +inf is a bound too: it means unbounded
        for bound, stored in ((np.int64(0), 0.0), (np.float32(0.5), 0.5), (math.inf, math.inf)):
            report = DistanceReport((1.0, 1.0), 1.0, 1.0, "m", bound)
            assert report.error_bound == stored and type(report.error_bound) is float

    def test_point_properties(self):
        exact = DistanceReport((4.0, 4.0), p=2.0, q=2.0, method="m")
        assert not exact.is_bracket
        assert (exact.value_pth_power, exact.value) == (4.0, 2.0)
        bracket = DistanceReport((1.0, 2.0), p=2.0, q=1.0, method="m")
        assert bracket.is_bracket
        assert bracket.value_pth_power is None and bracket.value is None


class TestWasserstein1D:
    def test_identical_inputs(self, rng):
        d = random_discrete(rng)
        report = wasserstein_1d(d, d, 2.0)
        assert report.value == 0.0
        assert report.method == "quantile_integral"
        assert report.error_bound == 0.0

    def test_point_masses(self):
        report = wasserstein_1d(from_atoms([-2.0], [1.0]), from_atoms([5.0], [1.0]), 1.0)
        assert report.value == pytest.approx(7.0, abs=1e-12)

    def test_two_atom_step_integrand(self):
        f = uniform([0.0, 1.0])
        g = uniform([0.0, 2.0])
        report = wasserstein_1d(f, g, 1.0)
        assert report.value == pytest.approx(0.5, abs=1e-14)
        lp = solve_exact(TransportInstance.from_distributions(f, g, 1.0))
        assert report.value_pth_power == pytest.approx(lp.value, abs=1e-12)

    def test_shifted_ladders(self):
        f = from_samples([1.0, 2.0, 3.0])
        g = from_samples([2.0, 3.0, 4.0])
        report = wasserstein_1d(f, g, 2.0)
        assert report.value_pth_power == pytest.approx(1.0, abs=1e-14)
        lp = solve_exact(TransportInstance.from_distributions(f, g, 2.0))
        assert report.value_pth_power == pytest.approx(lp.value, abs=1e-12)

    def test_report_root_consistency(self, rng):
        f = random_discrete(rng)
        g = random_discrete(rng)
        for p in (1.0, 1.5, 2.0, 3.0):
            r = wasserstein_1d(f, g, p)
            assert r.value == pytest.approx(r.value_pth_power ** (1.0 / p), rel=1e-12)

    def test_order_below_one_rejected(self):
        d = from_samples([0.0])
        for p in (0.9, math.nan, math.inf):
            with pytest.raises(DomainError):
                wasserstein_1d(d, d, p)

    def test_missing_moment_assertion(self):
        heavy = from_quantile(lambda u: u, lambda x: x, p_moment_order=1.5)
        light = from_samples([0.0])
        with pytest.raises(PreconditionError):
            wasserstein_1d(heavy, light, 2.0)

    def test_parametric_quadrature_path(self):
        shift = 0.25
        u01 = from_quantile(lambda u: u, lambda x: min(1.0, max(0.0, x)), math.inf)
        u_shift = from_quantile(
            lambda u: u + shift, lambda x: min(1.0, max(0.0, x - shift)), math.inf
        )
        report = wasserstein_1d(u01, u_shift, 1.0)
        assert report.value == pytest.approx(shift, abs=1e-6)
        assert report.error_bound < 1e-6

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_tail_moment_bounds_enter_the_error_bound(self, p):
        # |a - b|^p <= 2^(p-1) (|a|^p + |b|^p): the declared tail masses add
        # 2^(p-1) (b_f + b_g) to the quadrature estimate
        def pair(b_f, b_g):
            f = from_quantile(lambda u: u, lambda x: min(1.0, max(0.0, x)), math.inf, b_f)
            g = from_quantile(lambda u: 2.0 * u, lambda x: min(1.0, max(0.0, x / 2.0)), math.inf, b_g)
            return f, g

        b_f, b_g = 1e-3, 2e-3
        bounded = wasserstein_1d(*pair(lambda _p, _eps: b_f, lambda _p, _eps: b_g), p)
        unbounded = wasserstein_1d(*pair(None, None), p)
        assert bounded.value_pth_power == unbounded.value_pth_power
        assert bounded.error_bound - unbounded.error_bound == pytest.approx(2.0 ** (p - 1.0) * (b_f + b_g), rel=1e-12)

    @settings(max_examples=60)
    @given(st.data())
    def test_oracle_agreement(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
        r = np.random.default_rng(seed)
        f = random_discrete(r, max_atoms=12)
        g = random_discrete(r, max_atoms=12)
        closed = wasserstein_1d(f, g, p).value_pth_power
        lp = solve_exact(TransportInstance.from_distributions(f, g, p)).value
        assert relative_gap(closed, lp) <= 1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_empirical_ladder_stays_on_k_over_n(self, p):
        # 1e5 samples a side: weights of 1/n summed one by one would drift
        # from k/n and put the value 3.7e-10 to 3.4e-8 off the sorted-sample
        # mean
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=100_000), np.exp(1.5 * rng.normal(size=100_000))
        exact = float(np.mean(np.abs(np.sort(a) - np.sort(b)) ** p))
        value = wasserstein_1d(from_samples(a), from_samples(b), p).value_pth_power
        assert value == pytest.approx(exact, rel=1e-11, abs=0.0)

    def test_tie_cells_are_never_evaluated(self):
        # equal ladders tie at 0.5; the zero-width cell there pairs 1e200
        # with 0, whose cost overflows, and must not reach the sum
        d = from_atoms([0.0, 1e200], [0.5, 0.5])
        assert wasserstein_1d(d, d, 2.0).value_pth_power == 0.0

    @pytest.mark.parametrize("m, n", [(200_000, 200_000), (200_000, 150_000)])
    def test_discrete_kernel_memory_budget(self, m, n):
        # the comonotone walk allocates a few arrays per atom; an equal-size
        # pair has 2n - 1 cells, n - 1 of them ties, which a copy of every
        # cell before the width-zero mask would carry into the integrand
        rng = np.random.default_rng(0)
        f, g = from_samples(rng.normal(size=m)), from_samples(rng.normal(0.3, 1.2, size=n))
        f.cumulative_weights, g.cumulative_weights  # the measures' own, cached
        tracemalloc.start()
        try:
            wasserstein_1d(f, g, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 50 * (m + n)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_unequal_sample_sizes_match_the_exact_merge(self, p):
        # 60,000 against 40,000 samples: on the 120,000-piece grid of their
        # least common multiple each sorted sample repeats 2 and 3 times
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=60_000), np.exp(1.5 * rng.normal(size=40_000))
        k = np.arange(120_000)
        exact = float(np.mean(np.abs(np.sort(a)[k // 2] - np.sort(b)[k // 3]) ** p))
        value = wasserstein_1d(from_samples(a), from_samples(b), p).value_pth_power
        assert value == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestW1CdfArea:
    def test_identical(self, rng):
        d = random_discrete(rng)
        assert w1_cdf_area(d, d).value == 0.0

    def test_point_masses(self):
        report = w1_cdf_area(from_atoms([0.0], [1.0]), from_atoms([3.0], [1.0]))
        assert report.value == pytest.approx(3.0, abs=1e-14)
        assert report.method == "cdf_area"

    def test_two_atom_pair(self):
        f = uniform([0.0, 1.0])
        g = uniform([0.0, 2.0])
        assert w1_cdf_area(f, g).value == pytest.approx(0.5, abs=1e-14)

    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_quantile_integral(self, seed):
        r = np.random.default_rng(seed)
        f = random_discrete(r, max_atoms=10)
        g = random_discrete(r, max_atoms=10)
        area = w1_cdf_area(f, g).value
        quantile = wasserstein_1d(f, g, 1.0).value
        assert relative_gap(area, quantile) <= 1e-10
        # the vectorized CDF steps do the arithmetic of a per-point cdf loop
        grid = np.union1d(f.atoms, g.atoms)
        gaps = np.array([abs(f.cdf(x) - g.cdf(x)) for x in grid[:-1]])
        assert area == float(np.sum(np.diff(grid) * gaps))


    def test_unequal_sample_sizes_agree(self):
        # 2000 and 1500 samples: the two ladders share every 4th/3rd break
        # only up to cumsum drift, and each piece is read at its exact end
        rng = np.random.default_rng(0)
        f = from_samples(rng.normal(0.0, 1.0, 2000))
        g = from_samples(rng.normal(0.3, 1.2, 1500))
        area = w1_cdf_area(f, g).value
        assert abs(area - wasserstein_1d(f, g, 1.0).value) <= 1e-15 * area


class TestNanEvaluators:
    # read as a CDF of 0, the NaN hole would give w1_cdf_area 0.1 against
    # U(0, 1), with error_bound 1.1e-16, where the true value is 0
    def test_w1_cdf_area(self):
        u01 = from_quantile(lambda u: u, lambda x: min(1.0, max(0.0, x)), math.inf)
        with pytest.raises(DomainError, match="^cdf evaluator returned nan at x = "):
            w1_cdf_area(uniform_with_nan_hole(), u01)

    def test_wasserstein_1d(self):
        with pytest.raises(DomainError, match="^quantile evaluator returned nan at u = "):
            wasserstein_1d(uniform_with_nan_hole(), from_samples([0.0, 1.0]), 1.0)


class TestComonotoneExpectation:
    def test_normalization(self, rng):
        f = random_discrete(rng)
        g = random_discrete(rng)
        assert comonotone_expectation(lambda x, y: 1.0, f, g) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_gap(self):
        f = from_atoms([2.0], [1.0])
        g = from_atoms([5.0], [1.0])
        assert comonotone_expectation(lambda x, y: abs(x - y), f, g) == pytest.approx(3.0)

    def test_matches_distance_for_power_cost(self, rng):
        for p in (1.0, 1.5, 2.0, 3.0):
            f = random_discrete(rng, max_atoms=8)
            g = random_discrete(rng, max_atoms=8)
            expected = wasserstein_1d(f, g, p).value_pth_power
            got = comonotone_expectation(lambda x, y: abs(x - y) ** p, f, g)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_called_on_the_cells_of_positive_width_only(self):
        # the ladders tie at 0.5: the path's cell of width zero there, on
        # atoms (1, 0), is no point of the comonotone law
        seen = []
        comonotone_expectation(lambda x, y: seen.append((x, y)) or 0.0, uniform([0.0, 1.0]), uniform([0.0, 2.0]))
        assert seen == [(0.0, 0.0), (1.0, 2.0)]


class TestMixedPairs:
    """A discrete margin against a parametric one: the quantile integrand
    jumps at every cumulative weight and the CDF area at every atom."""

    @pytest.mark.parametrize("n", [20, 200])
    def test_empirical_against_normal(self, n):
        from scipy import stats

        normal = from_quantile(stats.norm.ppf, stats.norm.cdf, math.inf)
        sample = from_samples(np.random.default_rng(n).normal(size=n))
        w1 = wasserstein_1d(sample, normal, 1.0).value
        assert w1 == pytest.approx(w1_cdf_area(sample, normal).value, rel=1e-7)
        w2 = wasserstein_1d(sample, normal, 2.0).value_pth_power
        # math.fabs takes floats only: g_fn is never called on arrays
        got = comonotone_expectation(lambda a, b: math.fabs(a - b) ** 2, sample, normal)
        assert got == pytest.approx(w2, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 20, 200])
    def test_grid_against_uniform(self, n):
        grid = uniform([k / n for k in range(n)])
        u01 = from_quantile(lambda u: u, lambda x: min(1.0, max(0.0, x)), math.inf)
        assert wasserstein_1d(grid, u01, 1.0).value == pytest.approx(1 / (2 * n), abs=1e-9)
        assert wasserstein_1d(grid, u01, 2.0).value_pth_power == pytest.approx(
            1 / (3 * n**2), abs=1e-9
        )

    def test_overflowing_quadrature_integrand_is_typed(self):
        # the integrand works in numpy floats, so |a - b|^p overflows to inf
        # under np.errstate instead of raising a bare OverflowError
        from scipy import stats

        normal = from_quantile(stats.norm.ppf, stats.norm.cdf, math.inf)
        wide = from_quantile(
            lambda u: 1e200 * stats.norm.ppf(u), lambda x: stats.norm.cdf(x / 1e200), math.inf
        )
        for f in (from_samples([0.0, 1e200]), wide):
            with pytest.raises(DomainError, match="W_p\\^p at order p = 2 overflows"):
                wasserstein_1d(f, normal, 2.0)


class TestDallAglioFunctional:
    def test_forced_unit_cost(self):
        coupling = DiscreteCoupling([0.0], [1.0], [[1.0]])
        assert dall_aglio_functional(coupling, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_mass_on_the_diagonal_costs_nothing(self, rng):
        f = random_discrete(rng, max_atoms=6)
        plan = monotone_plan_1d(f, f)
        for p in (1.5, 2.0, 3.0):
            assert dall_aglio_functional(plan, p) == pytest.approx(0.0, abs=1e-12)
        # a one-point grid has no cells at all
        assert dall_aglio_functional(DiscreteCoupling([0.0], [0.0], [[1.0]]), 2.0) == 0.0

    def test_comonotone_two_atom_pair(self):
        plan = monotone_plan_1d(uniform([0.0, 1.0]), uniform([0.0, 2.0]))
        assert dall_aglio_functional(plan, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_order_guard(self):
        coupling = DiscreteCoupling([0.0], [1.0], [[1.0]])
        with pytest.raises(DomainError):
            dall_aglio_functional(coupling, 1.0)

    def test_needs_one_dimensional_supports(self):
        coupling = DiscreteCoupling([[0.0, 0.0]], [[1.0, 1.0]], [[1.0]])
        with pytest.raises(DomainError):
            dall_aglio_functional(coupling, 2.0)

    def test_overflowing_cost_rejected(self):
        # unchecked, inf - inf in the kernel's second difference would give nan
        plan = monotone_plan_1d(from_atoms([0.0, 1e200], [0.5, 0.5]), from_atoms([0.0, -1e200], [0.5, 0.5]))
        assert dall_aglio_functional(plan, 1.5) == pytest.approx(1e300, rel=1e-9)
        with pytest.raises(DomainError, match="order p = 2 overflows double precision"):
            dall_aglio_functional(plan, 2.0)

    def test_grid_past_the_lattice_budget_is_refused(self):
        # 2450 distinct points make 2450 x 2450 = 6,002,500 cells, checked
        # before the kernel's arrays are allocated; the plan itself is small
        n = 2450
        plan = DiscreteCoupling(np.arange(float(n)), [0.0], np.full((n, 1), 1 / n))
        with pytest.raises(CapacityError, match="a lattice of 2450 x 2450 points exceeds the budget of 6000000"):
            dall_aglio_functional(plan, 2.0)

    def test_lattice_budget_counts_the_merged_grid(self, monkeypatch):
        # 3 x 3 cells fit a budget of 9; a fourth distinct point does not
        monkeypatch.setattr(oracle, "MAX_LATTICE_POINTS", 9)
        mass = [[0.5, 0.0], [0.0, 0.5]]
        assert dall_aglio_functional(DiscreteCoupling([0.0, 1.0], [1.0, 2.0], mass), 2.0) == pytest.approx(1.0)
        with pytest.raises(CapacityError, match="4 x 4"):
            dall_aglio_functional(DiscreteCoupling([0.0, 1.0], [2.0, 3.0], mass), 2.0)

    @given(couplings(), st.sampled_from([1.2, 1.5, 2.0, 2.5, 3.0]))
    # shared atoms put mass on diagonal cells, where the two half-planes meet
    @example(
        DiscreteCoupling([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], np.arange(1.0, 10.0).reshape(3, 3) / 45),
        1.5,
    )
    def test_equals_direct_plan_cost(self, coupling, p):
        functional = dall_aglio_functional(coupling, p)
        direct = transport_cost(coupling, p)
        assert relative_gap(functional, direct) <= 1e-9

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_supports_in_any_order(self, rng, p):
        # solve_exact and the enumerator return plans in the instance's
        # order, which need not be sorted; repeated points are allowed too
        x, wx, y, wy = [2.0, 0.0, 1.0], [0.2, 0.3, 0.5], [0.5, -1.0], [0.6, 0.4]
        plans = [solve_exact(TransportInstance(x, wx, y, wy, p=p)).plan]
        plans += enumerate_extreme_couplings(wx, wy, x, y)
        plans += enumerate_extreme_couplings([0.25] * 4, [0.25] * 4, rng.permutation(np.arange(4.0)), rng.normal(size=4))
        plans.append(DiscreteCoupling([1.0, 0.0, 1.0], [0.5, 0.5, -1.0], rng.dirichlet(np.ones(9)).reshape(3, 3)))
        for plan in plans:
            direct = transport_cost(plan, p)
            assert abs(dall_aglio_functional(plan, p) - direct) <= 1e-12 * max(1.0, direct)


class TestComonotoneMinimality:
    def test_independence_trial_dominated(self):
        f = uniform([0.0, 1.0])
        g = uniform([0.0, 2.0])
        independence = DiscreteCoupling(
            f.atoms, g.atoms, np.outer(f.weights, g.weights)
        )
        comonotone_value = dall_aglio_functional(monotone_plan_1d(f, g), 2.0)
        trial_value = dall_aglio_functional(independence, 2.0)
        assert comonotone_value == pytest.approx(0.5, abs=1e-12)
        assert trial_value == pytest.approx(1.5, abs=1e-12)
        assert trial_value - comonotone_value == pytest.approx(1.0, abs=1e-12)

    def test_comonotone_against_itself(self):
        f = uniform([0.0, 1.0])
        g = uniform([0.0, 2.0])
        comonotone_value = dall_aglio_functional(monotone_plan_1d(f, g), 2.0)
        trial_value = dall_aglio_functional(monotone_plan_1d(f, g), 2.0)
        assert trial_value - comonotone_value == pytest.approx(0.0, abs=1e-15)

    def test_identity_beats_birkhoff_vertices(self, rng):
        f = uniform(np.sort(rng.uniform(-5, 5, 3)))
        g = uniform(np.sort(rng.uniform(-5, 5, 3)))
        trials = enumerate_extreme_couplings(f.weights, g.weights, f.atoms, g.atoms)
        assert len(trials) == 6
        comonotone_value = dall_aglio_functional(monotone_plan_1d(f, g), 2.0)
        trial_values = [dall_aglio_functional(trial, 2.0) for trial in trials]
        assert min(trial_values) - comonotone_value >= -1e-9
        assert min(trial_values) == pytest.approx(comonotone_value, abs=1e-12)


class TestSharedCopula:
    def test_identical_margins(self, rng):
        margins = [random_discrete(rng) for _ in range(2)]
        report = wasserstein_shared_copula(margins, margins, 2.0)
        assert report.value == 0.0
        assert report.method == "shared_copula_sum"

    def test_point_mass_sum(self):
        f = [from_atoms([0.0], [1.0]), from_atoms([0.0], [1.0])]
        g = [from_atoms([3.0], [1.0]), from_atoms([4.0], [1.0])]
        report = wasserstein_shared_copula(f, g, 1.0)
        assert report.value == pytest.approx(7.0, abs=1e-12)
        assert report.per_coordinate_pth_power == (3.0, 4.0)

    def test_coordinate_additivity_against_oracle(self):
        f = [uniform([0.0, 1.0]), uniform([0.0, 1.0])]
        g = [uniform([0.0, 2.0]), uniform([0.0, 2.0])]
        report = wasserstein_shared_copula(f, g, 2.0)
        assert report.value_pth_power == pytest.approx(1.0, abs=1e-12)
        instance = TransportInstance(
            *comonotone_support(f), *comonotone_support(g), p=2.0
        )
        assert solve_exact(instance).value == pytest.approx(1.0, abs=1e-9)

    def test_overflowing_norm_factor_is_typed(self):
        # k = 2^1199 overflows while S is finite: the upper end is the
        # report's overflow error, not a Python float's OverflowError
        f = [from_samples([0.0, 1.0])] * 2
        g = [from_samples([0.0, 0.5])] * 2
        with pytest.raises(DomainError, match="W_p\\^p at order p = 1200 overflows"):
            wasserstein_shared_copula(f, g, 1200.0, 1.0)

    def test_equal_orders_give_the_point_bracket(self, rng):
        f = [random_discrete(rng) for _ in range(3)]
        g = [random_discrete(rng) for _ in range(3)]
        for p in (1.0, 1.5, 2.0, 3.0):
            explicit = wasserstein_shared_copula(f, g, p, p)
            assert explicit == wasserstein_shared_copula(f, g, p)
            s = sum(wasserstein_1d(fi, gi, p).value_pth_power for fi, gi in zip(f, g))
            assert explicit.bracket_pth_power == (s, s)
            assert explicit.value_pth_power == s and not explicit.is_bracket

    def test_mismatched_norm_order_returns_bracket(self):
        f = [uniform([0.0, 1.0]), uniform([0.0, 1.0])]
        g = [uniform([0.0, 2.0]), uniform([0.0, 2.0])]
        report = wasserstein_shared_copula(f, g, 2.0, 1.0)
        assert report.is_bracket
        assert report.value is None and report.value_pth_power is None
        assert report.per_coordinate_pth_power == (0.5, 0.5)
        lower, upper = report.bracket_pth_power
        assert lower == pytest.approx(1.0, rel=1e-12)
        assert upper == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("p, q", [(2.0, 1.0), (3.0, 1.0), (4.0, 1.5), (2.0, 10.0), (1.0, 2.0)])
    def test_point_masses_attain_bracket_end(self, p, q):
        # delta_0 vs delta_(1, 1): every coupling costs ||(1, 1)||_q^p, which
        # is the upper end of the bracket when q < p and the lower end when q > p.
        f = [from_atoms([0.0], [1.0])] * 2
        g = [from_atoms([1.0], [1.0])] * 2
        lower, upper = wasserstein_shared_copula(f, g, p, q).bracket_pth_power
        lp = solve_exact(TransportInstance([[0.0, 0.0]], [1.0], [[1.0, 1.0]], [1.0], p=p, q=q)).value
        assert lp == pytest.approx(upper if q < p else lower, rel=1e-9, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            wasserstein_shared_copula([from_atoms([0.0], [1.0])], [], 1.0)


def row_margins(rows):
    return [from_samples(rows[:, k]) for k in range(rows.shape[1])]


def row_lp(a, b, p, q):
    """The transport LP on the rows of two samples, each row weighted 1/rows."""
    wa, wb = np.full(len(a), 1.0 / len(a)), np.full(len(b), 1.0 / len(b))
    return solve_exact(TransportInstance(a, wa, b, wb, p=p, q=q)).value


# (p, q) with q = p and with q in {1, 2, 3}
ORDERS = sorted({(p, q) for p in (1.0, 1.5, 2.0, 3.0) for q in (p, 1.0, 2.0, 3.0)})


class TestSharedCopulaOnRows:
    """S, the sum of the per-coordinate W_p^p, against the LP on the rows."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_lower_end_holds_without_a_shared_copula(self, rng, d):
        # A's coordinates move together, B's first coordinate against the rest
        for p, q in ORDERS:
            m, n = rng.integers(5, 41, size=2)
            a = rng.normal(size=(m, 1)) + 0.3 * rng.normal(size=(m, d))
            b = rng.normal(size=(n, 1)) * np.r_[-1.0, np.ones(d - 1)] + 0.3 * rng.normal(size=(n, d))
            s = wasserstein_shared_copula(row_margins(a), row_margins(b), p).value_pth_power
            lower = min(1.0, d ** (p / q - 1.0)) * s
            assert row_lp(a, b, p, q) >= lower - 1e-9 * max(1.0, lower)

    @pytest.mark.parametrize("d", [2, 3])
    def test_increasing_maps_share_the_copula(self, rng, d):
        maps = (np.exp, lambda x: x**3, lambda x: 2.0 * x + 1.0)
        for p, q in ORDERS:
            a = rng.normal(size=(int(rng.integers(5, 41)), d))
            b = np.column_stack([maps[k](a[:, k]) for k in range(d)])
            report = wasserstein_shared_copula(row_margins(a), row_margins(b), p, q)
            lp = row_lp(a, b, p, q)
            if q == p:
                assert relative_gap(lp, report.value_pth_power) <= 1e-9
            else:
                lower, upper = report.bracket_pth_power
                assert lower - 1e-9 * max(1.0, lower) <= lp <= upper + 1e-9 * max(1.0, upper)


class TestNormEquivalenceBounds:
    def test_one_dimension_collapses(self, rng):
        f = [random_discrete(rng)]
        g = [random_discrete(rng)]
        s = wasserstein_1d(f[0], g[0], 2.0).value_pth_power
        lower, upper = wasserstein_shared_copula(f, g, 2.0, 3.0).bracket_pth_power
        assert lower == pytest.approx(s, rel=1e-12)
        assert upper == pytest.approx(s, rel=1e-12)

    def test_bracket_constants_at_unit_integral(self):
        half = 2.0 ** (-0.5)
        f = [from_atoms([0.0], [1.0]), from_atoms([0.0], [1.0])]
        g = [from_atoms([half], [1.0]), from_atoms([half], [1.0])]
        lower, upper = wasserstein_shared_copula(f, g, 2.0, 1.0).bracket_pth_power
        assert lower == pytest.approx(1.0, rel=1e-12)
        assert upper == pytest.approx(2.0, rel=1e-12)

    def test_identical_margins_collapse_to_zero(self, rng):
        margins = [random_discrete(rng) for _ in range(4)]
        lower, upper = wasserstein_shared_copula(margins, margins, 2.0, 1.0).bracket_pth_power
        assert lower == 0.0 and upper == 0.0

    def test_ordered(self, rng):
        f = [random_discrete(rng) for _ in range(3)]
        g = [random_discrete(rng) for _ in range(3)]
        lower, upper = wasserstein_shared_copula(f, g, 2.0, 1.5).bracket_pth_power
        assert lower <= upper


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_orders_rejected(bad):
    d = from_samples([0.0, 1.0])
    plan = monotone_plan_1d(d, d)
    calls = [
        (DomainError, lambda: wasserstein_shared_copula([d], [d], bad)),
        (DomainError, lambda: wasserstein_shared_copula([d], [d], 2.0, bad)),
        (DomainError, lambda: transport_cost(plan, bad)),
        (DomainError, lambda: transport_cost(plan, 2.0, bad)),
        (ConstructionError, lambda: TransportInstance.from_distributions(d, d, bad)),
        (ConstructionError, lambda: TransportInstance.from_distributions(d, d, 2.0, bad)),
        (DomainError, lambda: dall_aglio_functional(plan, bad)),
        (DomainError, lambda: tail_decay_diagnostic(d, bad, [1.0])),
    ]
    for error, call in calls:
        with pytest.raises(error):
            call()


class TestMetricAxioms:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0]))
    def test_symmetry_exact(self, seed, p):
        r = np.random.default_rng(seed)
        f = random_discrete(r, max_atoms=8)
        g = random_discrete(r, max_atoms=8)
        assert wasserstein_1d(f, g, p).value == wasserstein_1d(g, f, p).value

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0]))
    def test_triangle_inequality(self, seed, p):
        r = np.random.default_rng(seed)
        f, g, h = (random_discrete(r, max_atoms=8) for _ in range(3))
        fh = wasserstein_1d(f, h, p).value
        fg = wasserstein_1d(f, g, p).value
        gh = wasserstein_1d(g, h, p).value
        assert fh <= fg + gh + 1e-9

    def test_identity_of_indiscernibles(self, rng):
        f = random_discrete(rng)
        g = from_atoms(f.atoms, f.weights)
        assert wasserstein_1d(f, g, 2.0).value == 0.0
        h = from_atoms(f.atoms + 1e-6, f.weights)
        assert wasserstein_1d(f, h, 2.0).value > 0.0
