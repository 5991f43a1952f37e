"""Tests for one-dimensional measures: CDF, quantile, moments, tails."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from copula_ot import (
    ConstructionError,
    DiscreteCoupling,
    Distribution1D,
    DomainError,
    TransportInstance,
    from_atoms,
    from_quantile,
    from_samples,
    tail_decay_diagnostic,
    wasserstein_1d,
)
from copula_ot.distributions import QUANTILE_TIE_TOL

from helpers import random_discrete, uniform_with_nan_hole


@st.composite
def discrete_dists(draw, max_atoms=6):
    n = draw(st.integers(1, max_atoms))
    atoms = draw(
        st.lists(
            st.floats(-50, 50, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    weights = np.asarray(raw)
    return from_atoms(atoms, weights / weights.sum())


class TestConstruction:
    def test_from_samples_equal_weights(self):
        d = from_samples([1.0, 2.0, 3.0])
        assert d.atoms.tolist() == [1.0, 2.0, 3.0]
        assert np.allclose(d.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_from_samples_single_atom(self):
        d = from_samples([5.0])
        assert d.atoms.tolist() == [5.0]
        assert d.weights.tolist() == [1.0]

    def test_from_samples_merges_duplicates(self):
        d = from_samples([2.0, 2.0, 1.0])
        assert d.atoms.tolist() == [1.0, 2.0]
        assert np.allclose(d.weights, [1 / 3, 2 / 3])

    def test_from_samples_rejects_empty(self):
        with pytest.raises(ConstructionError, match="at least one sample"):
            from_samples([])

    def test_from_samples_rejects_non_finite(self):
        with pytest.raises(ConstructionError):
            from_samples([1.0, math.nan])
        with pytest.raises(ConstructionError):
            from_samples([1.0, math.inf])

    @pytest.mark.parametrize(
        "samples",
        [
            np.round(np.random.default_rng(3).normal(size=100_000), 2),
            np.round(np.random.default_rng(4).normal(size=1000), 0),
            np.random.default_rng(5).choice([-0.0, 0.0, 1.0, -1.0], size=1000),
            np.array([-0.0, 0.0, 0.0, -0.0]),
            np.array([0.0, -0.0]),
            np.array([2.5]),
        ],
        ids=["rounded-normal-1e5", "rounded-normal-1e3", "signed-zeros-1e3", "signed-zeros", "zero-first", "n1"],
    )
    def test_from_samples_equals_the_unique_count_ladder(self, samples):
        # the construction by np.unique with counts, rungs cumsum(counts)/n
        atoms, counts = np.unique(samples, return_counts=True)
        rungs = np.cumsum(counts) / samples.size
        weights = rungs - np.concatenate(([0.0], rungs[:-1]))
        kept = samples.copy()
        d = from_samples(samples)
        assert d.atoms.tobytes() == atoms.tobytes()  # bitwise, so the sign of a zero atom too
        assert d.weights.tobytes() == weights.tobytes()
        assert samples.tobytes() == kept.tobytes() and samples.flags.writeable

    def test_from_samples_nan_message(self):
        with pytest.raises(ConstructionError, match="^atoms must be finite and strictly increasing$"):
            from_samples([3.0, math.nan, 1.0, math.nan])

    def test_from_atoms_merges_and_sorts(self):
        d = from_atoms([3.0, 1.0, 3.0], [0.25, 0.5, 0.25])
        assert d.atoms.tolist() == [1.0, 3.0]
        assert np.allclose(d.weights, [0.5, 0.5])
        assert np.all(np.diff(d.atoms) > 0)

    def test_from_atoms_rejects_bad_weights(self):
        with pytest.raises(ConstructionError):
            from_atoms([0.0, 1.0], [0.5, 0.6])  # sums to 1.1
        with pytest.raises(ConstructionError):
            from_atoms([0.0, 1.0], [1.0, 0.0])  # zero weight
        with pytest.raises(ConstructionError):
            from_atoms([0.0, 1.0], [1.2, -0.2])

    @pytest.mark.parametrize(
        "atoms, weights",
        [
            ([2.0, 1.0], [0.5, 0.6]),  # a 1.1 total, which the pinned last ladder entry would hide
            ([1.0, 2.0], [0.5, 0.6]),
            ([2.0, 1.0], [0.5, 0.5]),  # decreasing atoms
            ([1.0, 1.0], [0.5, 0.5]),  # a repeated atom
            ([1.0, math.inf], [0.5, 0.5]),
            ([1.0, 2.0], [1.5, -0.5]),
            ([1.0, 2.0], [1.0, math.nan]),
            ([1.0, 2.0], [1.0]),
            ([], []),
        ],
    )
    def test_discrete_invariants_owned_by_the_measure(self, atoms, weights):
        with pytest.raises(ConstructionError):
            Distribution1D(atoms=atoms, weights=weights)

    @pytest.mark.parametrize(
        "atoms, weights, message",
        [
            ([1.0, 2.0], [math.inf, 0.5], "weights must be finite and strictly positive"),
            ([1.0, 2.0], [0.5, -math.inf], "weights must be finite and strictly positive"),
            ([1.0, 2.0], [math.nan, 0.5], "weights must be finite and strictly positive"),
            ([1.0, 2.0], [0.5, math.nan], "weights must be finite and strictly positive"),
            ([], [], r"weights must sum to 1 within 1e-12, got 0\.0"),
            ([1.0, math.inf], [0.5, 0.5], "atoms must be finite and strictly increasing"),
            ([-math.inf, 1.0], [0.5, 0.5], "atoms must be finite and strictly increasing"),
            ([math.inf], [1.0], "atoms must be finite and strictly increasing"),
            ([math.nan], [1.0], "atoms must be finite and strictly increasing"),
            ([math.nan, 1.0], [0.5, 0.5], "atoms must be finite and strictly increasing"),
            ([0.0, math.nan, 1.0], [0.25, 0.5, 0.25], "atoms must be finite and strictly increasing"),
        ],
    )
    def test_each_check_keeps_its_message(self, atoms, weights, message):
        with pytest.raises(ConstructionError, match=message):
            Distribution1D(atoms=atoms, weights=weights)

    @pytest.mark.parametrize(
        "call, error, name",
        [
            (lambda: from_atoms(["a"], [1.0]), ConstructionError, "atoms"),
            (lambda: from_atoms([1j], [1.0]), ConstructionError, "atoms"),
            (lambda: from_atoms([0.0, 1.0], [[0.5], [0.25, 0.25]]), ConstructionError, "weights"),
            (lambda: from_samples(["x"]), ConstructionError, "samples"),
            (lambda: Distribution1D(atoms=[[0.0, 1.0], [2.0]], weights=[0.5, 0.5]), ConstructionError, "atoms"),
            (lambda: Distribution1D(atoms=[1j], weights=[1.0]), ConstructionError, "atoms"),
            (lambda: TransportInstance([[0.0, 1.0], [2.0]], [0.5, 0.5], [0.0], [1.0]), ConstructionError, "mu_points"),
            (lambda: DiscreteCoupling([[0.0, 1.0], [2.0]], [0.0], [[0.5], [0.5]]), ConstructionError, "row_points"),
            (lambda: DiscreteCoupling([0.0, 1.0], [0.0], [[0.5], [0.25, 0.25]]), ConstructionError, "mass"),
            (lambda: wasserstein_1d(from_samples([0.0]), from_samples([1.0]), "x"), DomainError, "order p"),
            # a complex array would cast to its real parts with only a ComplexWarning
            (lambda: from_atoms(np.array([1 + 2j, 3 + 0j]), [0.5, 0.5]), ConstructionError, "atoms"),
            (lambda: from_samples(np.array([1 + 2j, 3 + 0j])), ConstructionError, "samples"),
            (lambda: TransportInstance(np.array([1 + 1j]), [1.0], [0.0], [1.0]), ConstructionError, "mu_points"),
            (lambda: from_quantile(lambda u: u, lambda x: x, "x"), ConstructionError, "p_moment_order"),
            (
                lambda: Distribution1D(cdf_fn=lambda x: x, quantile_fn=lambda u: u, p_moment_order="x"),
                ConstructionError,
                "p_moment_order",
            ),
            (lambda: from_samples([0.0, 1.0]).cdf("x"), DomainError, "argument x, got 'x'"),
            (lambda: from_samples([0.0, 1.0]).quantile("x"), DomainError, "got 'x'"),
            (lambda: from_samples([0.0, 1.0]).quantile_many(["x"]), DomainError, "quantile u"),
            (lambda: tail_decay_diagnostic(from_samples([0.0, 1.0]), 1.0, ["x"]), DomainError, "grid"),
        ],
        ids=[
            "from_atoms-string", "from_atoms-complex", "from_atoms-ragged-weights", "from_samples-string",
            "Distribution1D-ragged", "Distribution1D-complex", "TransportInstance-ragged",
            "DiscreteCoupling-ragged-points", "DiscreteCoupling-ragged-mass", "wasserstein_1d-string-order",
            "from_atoms-complex-array", "from_samples-complex-array", "TransportInstance-complex-array",
            "from_quantile-string-order", "Distribution1D-string-order", "cdf-string", "quantile-string",
            "quantile_many-string", "tail_decay_diagnostic-string-grid",
        ],
    )
    def test_malformed_input_is_a_typed_error_naming_it(self, call, error, name):
        # numpy's own ValueError or TypeError would carry no input name
        with pytest.raises(error, match=name):
            call()

    def test_direct_discrete_construction(self):
        d = Distribution1D(atoms=[1.0, 2.0], weights=[0.25, 0.75])
        assert d.cdf(1.5) == 0.25 and d.quantile(0.5) == 2.0
        assert not d.atoms.flags.writeable and not d.weights.flags.writeable

    def test_parametric_requires_both_evaluators(self):
        with pytest.raises(ConstructionError):
            from_quantile(lambda u: u, None, p_moment_order=2.0)  # type: ignore[arg-type]
        with pytest.raises(ConstructionError):  # neither backing
            Distribution1D()
        with pytest.raises(ConstructionError):  # both backings
            Distribution1D(
                atoms=np.array([0.0]),
                weights=np.array([1.0]),
                cdf_fn=lambda x: float(x >= 0.0),
                quantile_fn=lambda u: 0.0,
            )


class TestCdf:
    def test_below_support(self):
        d = from_atoms([0.0], [1.0])
        assert d.cdf(-1.0) == 0.0

    def test_weight_sum_at_atom(self):
        d = from_samples([1.0, 2.0, 3.0])
        assert d.cdf(2.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_right_continuity_between_atoms(self):
        d = from_samples([1.0, 2.0, 3.0])
        assert d.cdf(2.5) == d.cdf(2.0)

    @given(discrete_dists())
    @example(from_atoms([np.nextafter(50.0, 0.0), 50.0], [0.5, 0.5]))
    def test_right_continuous_at_every_atom(self, d):
        # The float just below the next atom lies in [atom, next atom), even
        # when the two atoms are adjacent floats.
        nexts = np.concatenate([d.atoms[1:], [d.atoms[-1] + 1.0]])
        for atom, nxt in zip(d.atoms, nexts):
            assert d.cdf(float(atom)) == d.cdf(float(np.nextafter(nxt, -np.inf)))

    def test_nan_rejected(self):
        d = from_samples([1.0])
        with pytest.raises(DomainError):
            d.cdf(math.nan)


class TestQuantile:
    def test_point_mass_is_constant(self):
        d = from_atoms([0.0], [1.0])
        assert d.quantile(0.7) == 0.0

    def test_interior_piece(self):
        d = from_samples([1.0, 2.0, 3.0])
        # F(1) = 1/3 < 0.5 <= F(2) = 2/3
        assert d.quantile(0.5) == 2.0

    def test_boundary_hits_lower_atom(self):
        d = from_samples([1.0, 2.0, 3.0])
        assert d.quantile(1 / 3) == 1.0

    @pytest.mark.parametrize("u", [0.0, -0.1, 1.0 + 1e-9, math.nan])
    def test_domain_errors(self, u):
        d = from_samples([1.0])
        with pytest.raises(DomainError):
            d.quantile(u)

    @pytest.mark.parametrize("backing", ["atoms", "quantile_fn"])
    def test_many_rejects_nan(self, backing):
        if backing == "atoms":
            d = from_samples([1.0, 2.0])
        else:
            d = from_quantile(lambda u: u, lambda x: min(max(x, 0.0), 1.0), p_moment_order=2.0)
        with pytest.raises(DomainError):
            d.quantile_many([0.5, math.nan])

    @pytest.mark.parametrize(
        "d, n",
        [(from_samples([3.0, -1.0, 2.0, 2.0, 7.5, 0.0, 4.0]), 7), (from_atoms(np.arange(10.0), [0.1] * 10), 10)],
        ids=["sevenths", "tenths"],
    )
    def test_many_matches_quantile_on_the_ladder(self, d, n):
        # at each rung k/n as a caller writes it and as the measure stores it,
        # between rungs, and at 1
        cum = d.cumulative_weights
        between = (np.concatenate([[0.0], cum[:-1]]) + cum) / 2
        us = np.concatenate([np.arange(1, n + 1) / n, cum, between, [1.0]])
        many = d.quantile_many(us)
        assert many.tolist() == [d.quantile(u) for u in us]
        assert many[-1] == d.atoms[-1]

    def test_u_equal_one_is_max_atom(self):
        d = from_samples([1.0, 5.0])
        assert d.quantile(1.0) == 5.0

    @given(discrete_dists(), st.integers(0, 10_000))
    def test_monotone(self, d, seed):
        r = np.random.default_rng(seed)
        u1, u2 = np.sort(r.uniform(1e-9, 1.0, 2))
        assert d.quantile(u1) <= d.quantile(u2)

    @given(discrete_dists(), st.data())
    def test_galois_connection(self, d, data):
        # u <= F(x)  <=>  quantile(u) <= x, for u inside a ladder piece
        cum = d.cumulative_weights
        piece = data.draw(st.integers(0, cum.size - 1))
        t = data.draw(st.floats(0.01, 0.99))
        lo = 0.0 if piece == 0 else cum[piece - 1]
        u = lo + t * (cum[piece] - lo)
        for x in np.concatenate([d.atoms, d.atoms[:-1] + np.diff(d.atoms) / 2]):
            assert (d.quantile(u) <= x) == (u <= d.cdf(x))

    @given(discrete_dists())
    def test_round_trip_at_cumulative_weights(self, d):
        for atom, cum in zip(d.atoms, d.cumulative_weights):
            assert d.quantile(float(cum)) == atom

    def test_tie_tolerance_absorbs_cumsum_drift(self):
        # ten atoms of weight 0.1: cumsum drift stays within the tie slack
        d = from_atoms(np.arange(10.0), [0.1] * 10)
        for k in range(1, 11):
            assert d.quantile(k * 0.1) == float(k - 1)
        assert QUANTILE_TIE_TOL == 1e-12


class TestNanEvaluators:
    def test_cdf_names_x(self):
        with pytest.raises(DomainError, match=r"^cdf evaluator returned nan at x = 0\.5$"):
            uniform_with_nan_hole().cdf(0.5)

    def test_quantile_names_u(self):
        with pytest.raises(DomainError, match=r"^quantile evaluator returned nan at u = 0\.5$"):
            uniform_with_nan_hole().quantile(0.5)

    def test_quantile_many_goes_through_quantile(self):
        with pytest.raises(DomainError, match=r"^quantile evaluator returned nan at u = 0\.5$"):
            uniform_with_nan_hole().quantile_many([0.25, 0.5])

    def test_p_moment(self):
        with pytest.raises(DomainError, match="quantile evaluator returned nan at u = "):
            uniform_with_nan_hole().p_moment(2.0)

    def test_infinite_ends_stay_allowed(self):
        unbounded = from_quantile(
            lambda u: math.inf if u == 1.0 else u / (1.0 - u),
            lambda x: -math.inf if x < 0.0 else x / (1.0 + x),
            math.inf,
        )
        assert unbounded.quantile(1.0) == math.inf
        assert unbounded.quantile_many([0.5, 1.0]).tolist() == [1.0, math.inf]
        assert unbounded.cdf(-1.0) == 0.0


class TestPMoment:
    def test_point_mass(self):
        assert from_atoms([0.0], [1.0]).p_moment(2.0) == 0.0

    def test_symmetric_two_atoms(self):
        assert from_atoms([-1.0, 1.0], [0.5, 0.5]).p_moment(3.0) == pytest.approx(1.0)

    def test_three_atoms_mean(self):
        assert from_samples([1.0, 2.0, 3.0]).p_moment(1.0) == pytest.approx(2.0)

    def test_order_below_one_rejected(self):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                from_samples([1.0]).p_moment(p)

    @given(
        st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=30),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_matches_sample_mean(self, samples, p):
        d = from_samples(samples)
        expected = np.mean(np.abs(samples) ** p)
        assert d.p_moment(p) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_overflow_is_a_domain_error(self):
        # on both paths, with no numpy RuntimeWarning on the way
        wide = from_quantile(
            lambda u: 1e200 * (2.0 * u - 1.0), lambda x: min(1.0, max(0.0, (x / 1e200 + 1.0) / 2.0)), 4.0
        )
        for dist in (from_samples([0.0, 1e200]), wide):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="^moment of order p = 2 overflows double precision$"):
                    dist.p_moment(2.0)

    def test_parametric_quadrature(self):
        uniform = from_quantile(
            lambda u: u, lambda x: min(1.0, max(0.0, x)), p_moment_order=math.inf
        )
        assert uniform.p_moment(2.0) == pytest.approx(1 / 3, rel=1e-6)

    def test_non_convergent_quadrature_raises(self):
        from copula_ot import DivergenceError
        from copula_ot.distributions import _quad_checked

        with pytest.raises(DivergenceError):
            _quad_checked(lambda x: math.sin(1.0 / x) / x, 1e-9, 1.0, what="probe")


class TestTailDiagnostic:
    def test_point_mass_at_zero(self):
        d = from_atoms([0.0], [1.0])
        assert tail_decay_diagnostic(d, 2.0, [1.0, 10.0]) == [
            (1.0, 0.0, 0.0),
            (10.0, 0.0, 0.0),
        ]

    def test_support_inside_grid(self):
        d = from_atoms([-1.0, 1.0], [0.5, 0.5])
        assert tail_decay_diagnostic(d, 1.0, [2.0]) == [(2.0, 0.0, 0.0)]

    def test_upper_tail_term(self):
        d = from_samples([1.0, 2.0, 3.0])
        [(x, up, low)] = tail_decay_diagnostic(d, 1.0, [2.5])
        assert x == 2.5
        assert up == pytest.approx(2.5 * (1 / 3))
        assert low == 0.0

    def test_zero_past_support(self, rng):
        d = random_discrete(rng)
        hi = abs(d.atoms).max() + 1.0
        for _, up, low in tail_decay_diagnostic(d, 2.5, [hi, hi * 2, hi * 10]):
            assert up == 0.0 and low == 0.0

    def test_rejects_bad_grid(self):
        d = from_samples([1.0])
        with pytest.raises(DomainError):
            tail_decay_diagnostic(d, 1.0, [2.0, 1.0])
        with pytest.raises(DomainError):
            tail_decay_diagnostic(d, 1.0, [-1.0, 1.0])
        with pytest.raises(DomainError):
            tail_decay_diagnostic(d, 0.0, [1.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_grid(self, bad):
        d = from_samples([1.0])
        with pytest.raises(DomainError, match=rf"grid .*{bad!r}"):
            tail_decay_diagnostic(d, 1.0, [1.0, bad])

    @pytest.mark.parametrize(
        "grid, named",
        [([[1, 2], [3]], "[1, 2]"), ([1.0, [2.0, 3.0]], "[2.0, 3.0]"), ([[1, 2], [3, "x"]], "'x'")],
    )
    def test_ragged_grid_names_its_first_bad_entry(self, grid, named):
        with pytest.raises(DomainError) as info:
            tail_decay_diagnostic(from_samples([0, 1]), 1.0, grid)
        assert str(info.value) == f"grid must be real numbers, got {named}"

    def test_zero_tail_terms_where_x_to_the_r_overflows(self):
        d = from_samples([1.0, 2.0])
        assert tail_decay_diagnostic(d, 2.0, [1e200, 1e300]) == [
            (1e200, 0.0, 0.0),
            (1e300, 0.0, 0.0),
        ]

    def test_overflowing_term_names_x(self):
        d = from_atoms([1e200], [1.0])
        with pytest.raises(DomainError, match=r"overflows double precision at x = 1e\+150"):
            tail_decay_diagnostic(d, 3.0, [1e150])
