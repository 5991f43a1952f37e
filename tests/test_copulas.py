"""Tests for copula evaluation, grid validation, joint CDFs, couplings."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copula_ot import (
    CapacityError,
    CopulaFn,
    DomainError,
    InvalidJointError,
    JointCDF,
    built_in_copula,
    comonotone_joint_2d,
    comonotonicity_copula,
    coupling_from_joint,
    from_atoms,
    from_samples,
    independence_copula,
    lower_frechet_bound,
    validate_copula,
)

from helpers import comonotone_support, random_discrete


def uniform(atoms):
    return from_atoms(atoms, [1.0 / len(atoms)] * len(atoms))


def amh(pts):
    # Ali-Mikhail-Haq copula at theta = 1, uv / (u + v - uv): a copula that
    # is not a built-in; the atom lattice has no zero coordinate
    u, v = pts[:, 0], pts[:, 1]
    return u * v / (u + v - u * v)


def per_cell_coupling_mass(h):
    """coupling_from_joint's mass, built from one h((x, y)) per cell."""
    f, g = h.margins
    lattice = np.zeros((f.n_atoms + 1, g.n_atoms + 1))
    for i, x in enumerate(f.atoms):
        for j, y in enumerate(g.atoms):
            lattice[i + 1, j + 1] = h((x, y))
    volumes = np.diff(np.diff(lattice, axis=0), axis=1)
    volumes = np.where(volumes < 0.0, 0.0, volumes)
    return volumes * (f.weights / volumes.sum(axis=1))[:, None]


class TestBuiltins:
    def test_min_of_coordinates(self):
        assert comonotonicity_copula(2)((0.3, 0.7)) == 0.3

    def test_min_uniform_margin(self):
        assert comonotonicity_copula(3)((1.0, 1.0, 0.5)) == 0.5

    def test_min_grounded(self):
        assert comonotonicity_copula(2)((0.0, 0.9)) == 0.0

    def test_lower_bound_values(self):
        assert lower_frechet_bound(2)((0.6, 0.7)) == pytest.approx(0.3)
        assert lower_frechet_bound(2)((0.2, 0.3)) == 0.0
        assert lower_frechet_bound(3)((0.9, 0.9, 0.9)) == pytest.approx(0.7)

    def test_independence(self):
        assert independence_copula(2)((0.5, 0.5)) == 0.25

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_column_folds_match_the_row_reductions(self, rng, dim):
        # the built-ins fold a ufunc over the columns; the row-wise reductions
        # they replaced are the reference
        pts = rng.random((500, dim))
        assert np.array_equal(comonotonicity_copula(dim).batch(pts), pts.min(axis=1))
        assert np.array_equal(independence_copula(dim).batch(pts), pts.prod(axis=1))
        near_one = 1.0 - rng.random((500, dim)) / dim  # W > 0 at every point
        folded = lower_frechet_bound(dim).batch(near_one)
        reference = np.maximum(near_one.sum(axis=1) - (dim - 1), 0.0)
        assert folded.min() > 0.0
        if dim <= 7:
            assert np.array_equal(folded, reference)
        else:  # from 8 columns on, numpy's pairwise add reduce groups the terms differently
            assert np.abs(folded - reference).max() <= 4e-15

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            comonotonicity_copula(1)
        with pytest.raises(DomainError):
            built_in_copula("M", 1)

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            built_in_copula("Gumbel", 2)

    def test_argument_domain(self):
        with pytest.raises(DomainError):
            comonotonicity_copula(2)((1.2, 0.5))


class TestValidation:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_comonotonicity_passes_everywhere(self, dim):
        assert validate_copula(comonotonicity_copula(dim), 8).passed

    def test_independence_passes(self):
        assert validate_copula(independence_copula(2), 10).passed

    def test_lower_bound_is_a_copula_only_in_2d(self):
        assert validate_copula(lower_frechet_bound(2), 16).passed
        for dim in (3, 4):
            report = validate_copula(lower_frechet_bound(dim), 4)
            assert not report.passed
            assert not report.d_increasing.passed
            assert report.grounded.passed and report.uniform_margins.passed
            assert report.d_increasing.witnesses  # at least one offending box

    def test_witness_box_really_violates(self):
        report = validate_copula(lower_frechet_bound(3), 4)
        lower, upper, volume = report.d_increasing.witnesses[0]
        w = lower_frechet_bound(3)
        total = 0.0
        for corner in range(8):
            point = [
                upper[k] if corner >> k & 1 else lower[k] for k in range(3)
            ]
            sign = (-1) ** (3 - bin(corner).count("1"))
            total += sign * w(point)
        assert total == pytest.approx(volume, abs=1e-12)
        assert volume < -1e-12

    def test_grounded_witnesses_lie_on_a_face(self):
        # 0.9 M + 0.1 max(u_1, u_2) is 0.1 u_2 on the face u_1 = 0
        blend = CopulaFn(dim=2, eval_batch=lambda pts: 0.9 * pts.min(axis=1) + 0.1 * pts.max(axis=1))
        check = validate_copula(blend, 8).grounded
        assert not check.passed and check.worst == pytest.approx(0.1)
        assert len(check.witnesses) == 5
        for point, value in check.witnesses:
            assert min(point) == 0.0
            assert value == blend(point)

    def test_grounded_witnesses_are_read_in_place(self):
        # M + 0.1 is 0.1 on every face of the 7^7 lattice: the five witnesses
        # are pinned, and reading them costs no copy of the face points
        m = comonotonicity_copula(7)
        shifted = CopulaFn(dim=7, eval_batch=lambda pts: m.eval_batch(pts) + 0.1)
        peaks = []
        for c in (m, shifted):
            tracemalloc.start()
            try:
                check = validate_copula(c).grounded
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ticks = np.linspace(0.0, 1.0, 7)
        assert not check.passed and check.worst == 0.1
        assert check.witnesses == tuple(((1.0,) * 5 + (ticks[k], 0.0), 0.1) for k in (6, 5, 4, 3, 2))
        # a copy of the face points per witness would raise the peak by half
        assert peaks[1] < 1.15 * peaks[0]

    def test_broken_margin_detected(self):
        squashed = CopulaFn(dim=2, eval_batch=lambda pts: 0.5 * pts.min(axis=1))
        report = validate_copula(squashed, 8)
        assert not report.uniform_margins.passed

    def test_dimension_capacity_guard(self):
        with pytest.raises(CapacityError):
            validate_copula(comonotonicity_copula(11), 2)

    def test_resolution_domain(self):
        with pytest.raises(DomainError):
            validate_copula(comonotonicity_copula(2), 1)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("label, scale", [("M", 1.0), ("W", 1.0), ("Pi", 1.0), ("M", 0.9)])
    def test_lattice_is_one_batch_call(self, label, scale, dim):
        # the margins are lines of the lattice, since its ticks end at 1
        calls = []
        base = built_in_copula(label, dim)

        def counted(pts):
            calls.append(pts.shape)
            return scale * base.eval_batch(pts)

        report = validate_copula(CopulaFn(dim=dim, eval_batch=counted), 4)
        assert calls == [(5**dim, dim)]
        assert report.uniform_margins.passed == (scale == 1.0)

    def test_default_resolutions(self):
        assert validate_copula(comonotonicity_copula(2)).resolution == 16
        assert validate_copula(comonotonicity_copula(4)).resolution == 6


class TestFrechetHoeffdingBounds:
    def test_independence_triple(self):
        u = (0.5, 0.5)
        assert (lower_frechet_bound(2)(u), comonotonicity_copula(2)(u), independence_copula(2)(u)) == (
            0.0,
            0.5,
            0.25,
        )

    def test_upper_bound_attained_by_min(self):
        u = (0.3, 0.8)
        lower, upper, value = lower_frechet_bound(2)(u), comonotonicity_copula(2)(u), comonotonicity_copula(2)(u)
        assert (lower, upper, value) == (pytest.approx(0.1), 0.3, 0.3)

    def test_zero_coordinate_pins_everything(self):
        u = (0.0, 0.9)
        for c in (comonotonicity_copula(2), independence_copula(2)):
            assert (lower_frechet_bound(2)(u), comonotonicity_copula(2)(u), c(u)) == (0.0, 0.0, 0.0)

    @given(
        st.sampled_from(["M", "Pi"]),
        st.integers(2, 4),
        st.data(),
    )
    def test_sandwich_everywhere(self, label, dim, data):
        c = built_in_copula(label, dim)
        u = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)
        )
        lower, upper, value = lower_frechet_bound(dim)(u), comonotonicity_copula(dim)(u), c(u)
        assert lower - 1e-12 <= value <= upper + 1e-12


class TestSklarJoin:
    def test_point_mass_indicator(self):
        h = JointCDF(comonotonicity_copula(2), [from_atoms([0.0], [1.0])] * 2)
        assert h((0.0, 0.0)) == 1.0
        assert h((-0.1, 5.0)) == 0.0

    def test_min_of_equal_margins_on_diagonal(self):
        grid = uniform(np.linspace(0.0, 1.0, 11))
        h = JointCDF(comonotonicity_copula(2), [grid, grid])
        for x in (0.05, 0.45, 0.85):
            assert h((x, x)) == pytest.approx(grid.cdf(x), abs=1e-15)

    def test_product_of_indicator_cdfs(self):
        h = JointCDF(
            independence_copula(2),
            [from_atoms([0.0], [1.0]), from_atoms([1.0], [1.0])],
        )
        assert h((0.0, 1.0)) == 1.0
        assert h((0.0, 0.5)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            JointCDF(comonotonicity_copula(3), [from_atoms([0.0], [1.0])] * 2)

    def test_marginal_recovery_via_infinity(self, rng):
        f = random_discrete(rng, max_atoms=5)
        g = random_discrete(rng, max_atoms=5)
        h = JointCDF(independence_copula(2), [f, g])
        for x in np.concatenate([f.atoms, f.atoms - 0.5]):
            assert h((x, math.inf)) == pytest.approx(f.cdf(x), abs=1e-12)
        for y in g.atoms:
            assert h((math.inf, y)) == pytest.approx(g.cdf(y), abs=1e-12)


class TestComonotoneJoint:
    def test_point_masses(self):
        h = comonotone_joint_2d(from_atoms([0.0], [1.0]), from_atoms([0.0], [1.0]))
        assert h((0.0, 0.0)) == 1.0

    def test_min_of_margin_cdfs(self):
        f = uniform([0.0, 1.0])
        g = uniform([0.0, 2.0])
        h = comonotone_joint_2d(f, g)
        assert h((0.0, 0.0)) == 0.5
        assert h((0.0, 2.0)) == 0.5


class TestCouplingFromJoint:
    def test_single_cell(self):
        h = comonotone_joint_2d(from_atoms([0.0], [1.0]), from_atoms([5.0], [1.0]))
        assert coupling_from_joint(h).mass.tolist() == [[1.0]]

    def test_comonotone_mass_on_monotone_diagonal(self):
        h = comonotone_joint_2d(uniform([0.0, 1.0]), uniform([0.0, 2.0]))
        assert np.allclose(coupling_from_joint(h).mass, [[0.5, 0.0], [0.0, 0.5]])

    def test_independence_product_weights(self):
        margin = uniform([0.0, 1.0])
        h = JointCDF(independence_copula(2), [margin, margin])
        assert np.allclose(coupling_from_joint(h).mass, [[0.25, 0.25], [0.25, 0.25]])

    def test_margins_restored_exactly(self, rng):
        f = random_discrete(rng, max_atoms=8)
        g = random_discrete(rng, max_atoms=8)
        plan = coupling_from_joint(comonotone_joint_2d(f, g))
        assert np.allclose(plan.mass.sum(axis=1), f.weights, atol=1e-10)
        assert np.allclose(plan.mass.sum(axis=0), g.weights, atol=1e-10)

    def test_support_is_monotone_overlap_pattern(self, rng):
        f = random_discrete(rng, max_atoms=6)
        g = random_discrete(rng, max_atoms=6)
        plan = coupling_from_joint(comonotone_joint_2d(f, g))
        cf = np.concatenate([[0.0], f.cumulative_weights])
        cg = np.concatenate([[0.0], g.cumulative_weights])
        for i in range(f.n_atoms):
            for j in range(g.n_atoms):
                overlaps = min(cf[i + 1], cg[j + 1]) - max(cf[i], cg[j]) > 1e-12
                if plan.mass[i, j] > 1e-12:
                    assert overlaps

    def test_requires_two_dimensions_and_discrete_margins(self):
        with pytest.raises(DomainError):
            coupling_from_joint(
                JointCDF(comonotonicity_copula(3), [from_atoms([0.0], [1.0])] * 3)
            )

    def test_non_increasing_joint_rejected(self):
        # violates the upper Frechet bound at (1/2, 1/2), so one rectangle
        # of the atom lattice gets negative mass
        def broken(pts):
            at_half = np.all(np.abs(pts - 0.5) < 1e-9, axis=1)
            return np.where(at_half, 0.9, pts.min(axis=1))

        fake = CopulaFn(dim=2, eval_batch=broken)
        h = JointCDF(fake, [uniform([0.0, 1.0]), uniform([0.0, 1.0])])
        with pytest.raises(InvalidJointError):
            coupling_from_joint(h)

    def test_joint_without_uniform_margins_rejected(self):
        # 0.9 M puts total mass 0.9 on the lattice; the rows are checked
        # against f's weights before they are rescaled to them
        scaled = CopulaFn(dim=2, eval_batch=lambda pts: 0.9 * pts.min(axis=1))
        f = from_atoms([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        g = from_atoms([0.0, 5.0], [0.6, 0.4])
        with pytest.raises(InvalidJointError, match="first margin"):
            coupling_from_joint(JointCDF(scaled, [f, g]))

    def test_joint_that_breaks_only_its_second_margin_rejected(self):
        # u v^2 is grounded and 2-increasing with C(u, 1) = u, so the rows
        # keep f's weights; the columns sum to G^2 increments, not g's weights
        squared = CopulaFn(dim=2, eval_batch=lambda pts: pts[:, 0] * pts[:, 1] ** 2)
        f = from_atoms([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        g = from_atoms([0.0, 1.0], [0.4, 0.6])
        with pytest.raises(InvalidJointError, match="joint does not reproduce its second margin"):
            coupling_from_joint(JointCDF(squared, [f, g]))

    @pytest.mark.parametrize("eps", [1e-17, 1e-20])
    def test_absorbed_weight_leaves_an_empty_row(self, eps):
        # 0.5 + eps == 0.5, so min(F, G) gives the middle atom no volume
        f = from_atoms([0.0, 1.0, 2.0], [0.5, eps, 0.5])
        g = from_atoms([0.2, 1.7], [0.5, 0.5])
        plan = coupling_from_joint(comonotone_joint_2d(f, g))
        assert plan.mass.tolist() == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.5]]

    @pytest.mark.parametrize("margins", ["rounded-samples", "simplex-atoms"])
    @pytest.mark.parametrize("copula", ["M", "W", "Pi", "AMH"])
    def test_lattice_is_one_batch_call(self, monkeypatch, rng, copula, margins):
        if margins == "rounded-samples":
            # 64 samples a side, rounded so that atoms merge and ladders tie
            f = from_samples(np.round(rng.normal(0.0, 1.0, 64), 1))
            g = from_samples(np.round(rng.normal(0.3, 1.2, 64), 1))
        else:
            weights = [np.maximum(rng.dirichlet(np.ones(64)), 1e-9) for _ in range(2)]
            f = from_atoms(rng.normal(0.0, 1.0, 64), weights[0] / weights[0].sum())
            g = from_atoms(rng.normal(0.3, 1.2, 64), weights[1] / weights[1].sum())
        if copula == "AMH":
            c = CopulaFn(dim=2, eval_batch=amh, label="AMH")
        else:
            c = built_in_copula(copula, 2)
        h = JointCDF(c, [f, g])
        reference = per_cell_coupling_mass(h)

        def no_cell_calls(self, x):
            raise AssertionError("coupling_from_joint evaluated H cell by cell")

        monkeypatch.setattr(JointCDF, "__call__", no_cell_calls)
        assert np.array_equal(coupling_from_joint(h).mass, reference)


class TestBatchShape:
    @pytest.mark.parametrize(
        "bad_batch",
        [lambda pts: pts.min(axis=1)[:-1], lambda pts: pts[:, :1], lambda pts: 0.5],
        ids=["too-short", "column", "scalar"],
    )
    def test_wrong_shape_names_the_copula(self, bad_batch):
        c = CopulaFn(dim=2, eval_batch=bad_batch, label="lopsided")
        with pytest.raises(DomainError, match="lopsided"):
            c.batch(np.full((3, 2), 0.5))
        h = JointCDF(c, [uniform([0.0, 1.0]), uniform([0.0, 2.0])])
        with pytest.raises(DomainError, match="lopsided"):
            coupling_from_joint(h)

    @pytest.mark.parametrize(
        "points",
        [np.array([[0.9, 0.9, 0.9]]), np.full((2, 1), 0.9), np.array([0.9, 0.9])],
        ids=["three-columns", "one-column", "flat"],
    )
    def test_points_need_one_column_per_dimension(self, points):
        # a 3-column batch used to reach W's fold and return 1.7
        message = f"'W' of dimension 2 takes points of shape (k, 2), got {points.shape}"
        with pytest.raises(DomainError, match=re.escape(message)):
            lower_frechet_bound(2).batch(points)

    def test_values_never_share_memory_with_the_points(self):
        points = np.full((3, 2), 0.5)
        values = CopulaFn(dim=2, eval_batch=lambda pts: pts[:, 0]).batch(points)
        assert np.shares_memory(values, points) is False
        points[...] = 0.25
        assert values.tolist() == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize(
        "copula",
        [
            CopulaFn(dim=2, eval_batch=lambda pts: pts[:, 0] * np.nan, label="nan"),
            CopulaFn(dim=2, eval_batch=lambda pts: np.append(pts[1:, 0], np.nan), label="nan"),
        ],
        ids=["batch", "last-value"],
    )
    def test_nan_value_names_the_copula(self, copula):
        with pytest.raises(DomainError, match="'nan'"):
            copula.batch(np.full((3, 2), 0.5))
        f = from_atoms([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(DomainError, match="'nan'"):
            coupling_from_joint(JointCDF(copula, [f, f]))


class TestComonotoneSupport:
    def test_pair_of_two_atom_margins(self):
        f = uniform([0.0, 1.0])
        g = from_atoms([0.0, 2.0], [0.25, 0.75])
        points, weights = comonotone_support([f, g])
        assert points.tolist() == [[0.0, 0.0], [0.0, 2.0], [1.0, 2.0]]
        assert np.allclose(weights, [0.25, 0.25, 0.5])

    def test_weights_form_distribution(self, rng):
        margins = [random_discrete(rng, max_atoms=5) for _ in range(3)]
        points, weights = comonotone_support(margins)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(weights > 0)
        # comonotone: every coordinate nondecreasing along the ladder
        assert np.all(np.diff(points, axis=0) >= 0)

    def test_needs_discrete_margins(self):
        import copula_ot

        para = copula_ot.from_quantile(lambda u: u, lambda x: x, p_moment_order=2.0)
        with pytest.raises(DomainError):
            comonotone_support([para])
