"""Tests for the exact transport LP oracle and its certificates."""

import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from copula_ot import (
    CapacityError,
    CertificationError,
    ConstructionError,
    DiscreteCoupling,
    DomainError,
    TransportInstance,
    enumerate_extreme_couplings,
    comonotone_expectation,
    comonotone_joint_2d,
    coupling_from_joint,
    from_atoms,
    from_samples,
    monotone_plan_1d,
    solve_exact,
    transport_cost,
    wasserstein_1d,
)
from copula_ot import oracle
from copula_ot.distributions import WEIGHT_SUM_TOL
from copula_ot.oracle import DUAL_CERT_TOL, TOTAL_MASS_TOL

from helpers import random_discrete, relative_gap


def uniform(atoms):
    return from_atoms(atoms, [1.0 / len(atoms)] * len(atoms))


def drift_pair():
    """Ten weights of 0.1 sum to 0.30000000000000004 after three atoms, so
    these ladders tie at 0.3 only up to cumsum drift."""
    return uniform(np.arange(10.0)), from_atoms([2.5, 7.5], [0.3, 0.7])


def in_the_plane(f, g, p, q=None):
    """The pair (f, g) on the x-axis of R^2, where solve_exact calls HiGHS."""
    return TransportInstance(
        np.c_[f.atoms, np.zeros(f.n_atoms)], f.weights, np.c_[g.atoms, np.zeros(g.n_atoms)], g.weights, p=p, q=q
    )


def weight_rule_edge_pair():
    """Four weights whose total is the smallest the weight rule accepts,
    about 1 - 1e-12, against two uniform atoms."""
    w = np.array([0.1, 0.2, 0.3, 0.4])
    while abs(float(np.sum(w)) - 1.0) <= WEIGHT_SUM_TOL:
        w[-1] = np.nextafter(w[-1], 0.0)
    w[-1] = np.nextafter(w[-1], 1.0)
    return from_atoms(np.arange(4.0), w), uniform([0.0, 1.0])


def desk_style_pairs(rng, count):
    """2-64 atoms per side: ``count`` pairs of rounded samples (ladder ties),
    then ``count`` pairs with random-simplex weights floored at 1e-9, the two
    kinds that once failed the certificate."""

    def floored_simplex(k):
        w = np.maximum(rng.dirichlet(np.ones(k)), 1e-9)
        return w / w.sum()

    pairs = []
    for _ in range(count):
        m, n = rng.integers(2, 65, size=2)
        pairs.append((
            from_samples(np.round(rng.normal(0.0, 1.0, m), 2)),
            from_samples(np.round(rng.normal(0.3, 1.2, n), 2)),
        ))
    for _ in range(count):
        m, n = rng.integers(2, 65, size=2)
        pairs.append(tuple(
            from_atoms(rng.normal(0.0, 1.0, k), floored_simplex(k))
            for k in (m, n)
        ))
    return pairs


def row_instances(rng):
    """Uniform-weight point clouds in R^2 and R^3, as distnd passes them."""
    instances = []
    for d, p, q in ((2, 2.0, 1.0), (2, 1.0, 2.0), (3, 1.5, 3.0), (3, 3.0, 2.0)):
        m, n = rng.integers(2, 20, size=2)
        instances.append(TransportInstance(
            rng.normal(size=(m, d)), np.full(m, 1 / m), rng.normal(size=(n, d)), np.full(n, 1 / n), p=p, q=q
        ))
    return instances


def floored_weight_pair():
    """A 31 x 35 random-simplex pair whose weights were floored at 1e-9. At
    HiGHS's default feasibility tolerances its p = 2 LP fails the dual
    certificate."""
    f = [
        -0.441937154595038, 0.3640802157351552, 0.774016680584401,
        0.03739745290253273, -0.03896237251219072, 1.0703224676114749,
        0.749897322658332, -1.076866621789236, -1.695519099017786,
        -1.517253061606359, 1.1915520579327445, 0.4462035091202311,
        0.701880208961858, 0.928298445034353, 0.3288403855505057,
        1.6025927921519758, 1.2053965562727025, -0.024394537453412773,
        -0.5846543001577217, 0.05608792903356995, 0.21090188459377449,
        -0.23105613189989682, 1.454406600180896, -0.5688891017682449,
        -0.20752354760983605, 1.1282218753385433, -0.3605454050299933,
        -0.3607255015942055, -0.2605362946822116, -2.2047989118444216,
        -0.13498999686984806,
    ]
    wf = [
        0.03732193446308398, 0.0062960610681342555, 0.06636582754604647,
        0.018552878671841678, 0.04237102571315913, 0.016211482202774366,
        0.05536685623114597, 0.11309781222982286, 0.020966902688762022,
        0.024978058661275237, 3.6643698223097945e-05, 0.00969755015903786,
        0.023255867682057018, 0.001349708691506414, 0.05986429666792376,
        0.04914534939438501, 0.010843356571217103, 0.04647156546973843,
        0.005334383224185797, 0.0017290127307764355, 0.04845545452319259,
        0.0028599008254845005, 0.00184938907643528, 0.0006713315256026475,
        0.005569289282602277, 0.12012713869360805, 0.013614561074988311,
        0.003206835816134242, 0.04361670191595563, 0.10882072858884656,
        0.04195209491205315,
    ]
    g = [
        0.5408283642452543, 0.9483087992219172, 0.34809986243286106,
        1.4109504460829183, 1.8193817185150893, -1.5900871474546456,
        0.28335848956764215, -1.5255197341227182, 1.319300671490059,
        -1.0868335082935463, -1.0766476443883977, -0.012334341678941152,
        -1.6112870392924434, -1.3647444431747116, -0.04994541324405033,
        0.043246605280302, 1.1948907360106327, -0.0067762941288639356,
        0.421746546433075, 0.8982422728317414, 0.9381072297177797,
        -0.8918618528457829, 0.7368588568101967, -0.04980837638478308,
        -0.9317957838214528, -0.7229903161168723, 2.650994400556352,
        0.16660450562641865, 0.07427178065320755, -1.5333011292805796,
        1.2422178806334396, 0.44195138085052, 0.15466204188306282,
        1.9565567901120569, 1.6503253894352685,
    ]
    wg = [
        0.08381119065878574, 0.0011086046932002355, 0.05911233895328153,
        0.023068710154859475, 0.03428546918882155, 0.015205263517046763,
        0.013695501020640046, 0.010882904343634828, 0.024566157531937204,
        0.0001332664771345886, 0.0006927589797776981, 0.012670975160598097,
        0.06661431447678948, 0.009731979248743909, 0.05624928970719094,
        0.03719803465122059, 0.015766251771460384, 0.0025234522200659527,
        0.023593923081985872, 0.06826714755346512, 0.005842362578609635,
        0.04603910819502591, 0.06420932607488959, 0.027864488486125306,
        0.001749192687617194, 0.10992675700422049, 0.02051604869648472,
        0.025371652691461365, 0.005999130369899067, 0.00601426528065261,
        0.0030924520818410343, 0.015381636472567841, 0.01365092762525868,
        0.018929522141135774, 0.07623559622357087,
    ]
    return from_atoms(f, wf), from_atoms(g, wg)


class TestSolveExact:
    def test_identical_point_masses(self):
        inst = TransportInstance([0.0], [1.0], [0.0], [1.0], p=2.0)
        sol = solve_exact(inst)
        assert sol.value == 0.0
        assert sol.plan.mass.tolist() == [[1.0]]

    def test_forced_plan_cost(self):
        inst = TransportInstance([0.0], [1.0], [3.0], [1.0], p=2.0, q=2.0)
        sol = solve_exact(inst)
        assert sol.value == pytest.approx(9.0, abs=1e-12)
        assert sol.plan.mass.tolist() == [[1.0]]

    def test_two_atom_diagonal(self):
        inst = TransportInstance.from_distributions(uniform([0.0, 1.0]), uniform([0.0, 2.0]), p=1.0)
        sol = solve_exact(inst)
        assert sol.value == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(sol.plan.mass, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)

    def test_overflowing_cost_rejected_before_the_lp(self):
        inst = TransportInstance([0.0, 1e200], [0.5, 0.5], [0.0, -1e200], [0.5, 0.5], p=2.0)
        with pytest.raises(DomainError, match="order p = 2 overflows double precision"):
            solve_exact(inst)

    @pytest.mark.parametrize("s", [1e17, 5e17])
    def test_large_cost_inside_the_bound_certifies(self, s):
        inst = TransportInstance([0.0, s], [0.5, 0.5], [0.0, -s], [0.5, 0.5], p=1.0)
        assert solve_exact(inst).value == s

    @pytest.mark.parametrize("s", [1e18, 1e20, 1e300])
    def test_large_costs_certify(self, s):
        # HiGHS sees the costs scaled to at most 1, so the only bound on
        # them is double-precision overflow; unscaled, 1e20 reads as infinite
        inst = TransportInstance([0.0, s], [0.5, 0.5], [0.0, -s], [0.5, 0.5], p=1.0)
        assert solve_exact(inst).value == s

    def test_large_cost_desk_sweep(self):
        # Unscaled, HiGHS ended a few percent of these LPs in status
        # "Unknown" from a largest cost of about 2e8 on.
        pairs = desk_style_pairs(np.random.default_rng(3), 15)
        for target in (2e8, 1e12, 1e18):
            for f, g in pairs:
                for p in (1.0, 2.0, 3.0):
                    span = max(f.atoms[-1] - g.atoms[0], g.atoms[-1] - f.atoms[0])
                    s = target ** (1.0 / p) / span
                    fs, gs = from_atoms(f.atoms * s, f.weights), from_atoms(g.atoms * s, g.weights)
                    inst = TransportInstance.from_distributions(fs, gs, p)
                    assert inst.cost_matrix.max() == pytest.approx(target, rel=1e-12)
                    lp = solve_exact(inst).value
                    assert relative_gap(lp, wasserstein_1d(fs, gs, p).value_pth_power) <= 1e-9

    def test_overflowing_plan_cost_rejected(self):
        # unchecked, mass 0 times an inf cost would give nan
        plan = monotone_plan_1d(from_atoms([0.0, 1e200], [0.5, 0.5]), from_atoms([0.0, -1e200], [0.5, 0.5]))
        with pytest.raises(DomainError, match="order p = 2 overflows double precision"):
            transport_cost(plan, 2.0)

    def test_capacity_guard(self):
        atoms = np.arange(65.0)
        w = np.full(65, 1 / 65)
        inst = TransportInstance(atoms, w, atoms, w, p=1.0)
        with pytest.raises(CapacityError):
            solve_exact(inst)

    def test_memory_budget_at_64_by_64(self, rng):
        # points in R^2, so HiGHS solves the LP; a dense (m + n) x mn
        # constraint matrix alone would be 4.2 MB here
        f = random_discrete(rng, max_atoms=2)
        solve_exact(in_the_plane(f, f, 2.0))  # scipy import outside the trace
        points = rng.normal(size=(2, 64, 2))
        w = np.full(64, 1 / 64)
        inst = TransportInstance(points[0], w, points[1], w, p=2.0)
        tracemalloc.start()
        try:
            solve_exact(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_dual_certificate_invariants(self, rng):
        for _ in range(20):
            f = random_discrete(rng, max_atoms=8)
            g = random_discrete(rng, max_atoms=8)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            inst = TransportInstance.from_distributions(f, g, p)
            sol = solve_exact(inst)
            cost = inst.cost_matrix
            slack = cost - (sol.row_potentials[:, None] + sol.col_potentials[None, :])
            assert slack.min() >= -DUAL_CERT_TOL
            support = sol.plan.support()
            assert np.max(np.abs(slack[support])) <= DUAL_CERT_TOL

    def test_matches_vertex_minimum(self, rng):
        # vertex enumeration is an exact reference that does not use HiGHS
        for _ in range(10):
            f = random_discrete(rng, max_atoms=4)
            g = random_discrete(rng, max_atoms=4)
            vertices = enumerate_extreme_couplings(f.weights, g.weights, f.atoms, g.atoms)
            for p in (1.0, 1.5, 2.0, 3.0):
                sol = solve_exact(TransportInstance.from_distributions(f, g, p=p))
                best = min(transport_cost(v, p) for v in vertices)
                assert sol.value == pytest.approx(best, abs=1e-10)

    def test_matches_vertex_minimum_in_the_plane(self, rng):
        for _ in range(10):
            m, n = rng.integers(1, 5, size=2)
            x, y = rng.uniform(-10.0, 10.0, size=(m, 2)), rng.uniform(-10.0, 10.0, size=(n, 2))
            wx, wy = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            vertices = enumerate_extreme_couplings(wx, wy, x, y)
            for p, q in itertools.product((1.0, 1.5, 2.0, 3.0), (1.0, 2.0)):
                sol = solve_exact(TransportInstance(x, wx, y, wy, p=p, q=q))
                best = min(transport_cost(v, p, q) for v in vertices)
                assert sol.value == pytest.approx(best, rel=1e-10, abs=1e-10)

    def test_marginalize_reproduces_inputs(self, rng):
        f = random_discrete(rng, max_atoms=10)
        g = random_discrete(rng, max_atoms=10)
        sol = solve_exact(TransportInstance.from_distributions(f, g, p=1.5))
        assert np.allclose(sol.plan.mass.sum(axis=1), f.weights, atol=1e-10)
        assert np.allclose(sol.plan.mass.sum(axis=0), g.weights, atol=1e-10)

    def test_atom_order_invariance(self, rng):
        f = random_discrete(rng, max_atoms=7)
        g = random_discrete(rng, max_atoms=7)
        base = solve_exact(TransportInstance.from_distributions(f, g, p=2.0)).value
        pi = rng.permutation(f.n_atoms)
        sigma = rng.permutation(g.n_atoms)
        shuffled = TransportInstance(
            f.atoms[pi], f.weights[pi], g.atoms[sigma], g.weights[sigma], p=2.0
        )
        assert solve_exact(shuffled).value == pytest.approx(base, abs=1e-10)

    def test_weight_sum_mismatch_rejected(self):
        with pytest.raises(ConstructionError):
            TransportInstance([0.0, 1.0], [0.5, 0.4], [0.0], [1.0], p=1.0)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_margins_at_the_weight_rule_edge_certify_in_the_plane(self, q):
        # the two totals differ by about 1e-12 and HiGHS answers with a mass
        # of about -1.00009e-12, inside its own feasibility tolerance
        f, g = weight_rule_edge_pair()
        sol = solve_exact(in_the_plane(f, g, 1.0, q))
        assert sol.value == pytest.approx(wasserstein_1d(f, g, 1.0).value_pth_power, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("scale, p", [(1e4, 2.0), (1e8, 1.0)])
    def test_identical_spread_measures_certify_at_zero(self, scale, p):
        # the potentials are on the scale of the costs while the value is 0;
        # the staircase's v is exactly -u on the diagonal, and the dual
        # objective cancels
        f = from_atoms(np.random.default_rng(2).normal(0.0, scale, 10), np.full(10, 0.1))
        assert solve_exact(TransportInstance.from_distributions(f, f, p)).value == 0.0

    @pytest.mark.parametrize("scale, shift", [(1e4, 1e-3), (1e8, 1e-4)])
    def test_values_small_against_their_costs_certify(self, scale, shift):
        # the dual objective sums potentials on the scale of the costs (up to
        # about 1e9 and 1e17 here), so its rounding exceeds 1e-9 of values of
        # 1e-6 and 1e-8; the gap is judged on the scale of the slack checks
        w = np.full(10, 0.1)
        for seed in range(6):
            x = np.random.default_rng(seed).normal(0.0, scale, 10)
            exact = wasserstein_1d(from_atoms(x, w), from_atoms(x + shift, w), 2.0).value_pth_power
            line = TransportInstance(x, w, x + shift, w, p=2.0)
            plane = TransportInstance(np.c_[x, 0 * x], w, np.c_[x + shift, 0 * x], w, p=2.0)
            for inst in (line, plane):
                assert solve_exact(inst).value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_floored_weights_certify(self):
        f, g = floored_weight_pair()
        sol = solve_exact(TransportInstance.from_distributions(f, g, 2.0))
        assert sol.value == pytest.approx(wasserstein_1d(f, g, 2.0).value_pth_power, rel=1e-9)

    @pytest.mark.parametrize("eps", [1e-17, 1e-20])
    def test_absorbed_weight_certifies(self, eps):
        # 0.5 + eps == 0.5: the running sum absorbs the middle weight, so the
        # ladder has no piece for it while the staircase still walks its cell
        f = from_atoms([0.0, 1.0, 2.0], [0.5, eps, 0.5])
        g = from_atoms([0.2, 1.7], [0.5, 0.5])
        for p in (1.0, 2.0):
            lp = solve_exact(TransportInstance.from_distributions(f, g, p)).value
            assert lp == pytest.approx(wasserstein_1d(f, g, p).value_pth_power, rel=1e-12, abs=0.0)

    def test_highs_options_are_pinned(self, monkeypatch):
        # presolve off, dual simplex, quiet, and feasibility tolerances
        # tighter than the certificate, as the solver solve_exact makes
        # receives them once; an option linprog dropped would arrive at its
        # default
        from scipy.optimize._highspy import _core

        pinned = {
            "output_flag": False,
            "presolve": "off",
            "simplex_strategy": 1,  # dual simplex
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        }
        seen = []

        class Recording(_core._Highs):
            def passOptions(self, options):
                seen.append({name: getattr(options, name) for name in pinned})
                return super().passOptions(options)

        monkeypatch.setattr(_core, "_Highs", Recording)
        solve_exact(in_the_plane(*drift_pair(), 2.0))
        assert seen == [pinned]

    def test_only_rd_instances_reach_highs(self, monkeypatch):
        # on the line the comonotone staircase is the optimum, so no solver
        # is made; in R^d each solve makes one
        from scipy.optimize._highspy import _core

        made = []

        class Counting(_core._Highs):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(_core, "_Highs", Counting)
        rng = np.random.default_rng(4)
        for f, g in desk_style_pairs(rng, 5):
            for p in (1.0, 2.0, 3.0):
                solve_exact(TransportInstance.from_distributions(f, g, p))
        assert made == []
        instances = row_instances(rng)
        for inst in instances:
            solve_exact(inst)
        assert len(made) == len(instances)

    def test_unsorted_points_with_repeats_certify(self, rng):
        # TransportInstance takes 1-D points in any order, repeats included;
        # the staircase sorts them, so its path stays monotone
        x = np.array([3.0, -1.0, 3.0, 0.5, -1.0, 2.0])
        y = np.array([0.0, 4.0, -2.0, 0.0, 1.5])
        wx, wy = rng.dirichlet(np.ones(x.size)), rng.dirichlet(np.ones(y.size))
        rows, cols = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
        for p in (1.0, 2.0, 3.0):
            unsorted = solve_exact(TransportInstance(x, wx, y, wy, p=p)).value
            ordered = solve_exact(TransportInstance(x[rows], wx[rows], y[cols], wy[cols], p=p)).value
            assert unsorted == pytest.approx(ordered, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "method, message",
        [("passOptions", "(HiGHS Status 0: Not Set)"),
         ("passModel", "(HiGHS Status 2: Model error)")],
        ids=["passOptions", "passModel"],
    )
    def test_rejected_option_or_model_is_named(self, monkeypatch, method, message):
        # a rejected option set or model returns no solution; the failure is
        # a CertificationError carrying linprog's message
        from scipy.optimize._highspy import _core

        rejecting = type("Rejecting", (_core._Highs,), {method: lambda self, *args: _core.HighsStatus.kError})
        monkeypatch.setattr(_core, "_Highs", rejecting)
        with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
            solve_exact(in_the_plane(*drift_pair(), 2.0))

    def test_desk_style_pairs_certify(self):
        for f, g in desk_style_pairs(np.random.default_rng(12), 30):
            for p in (1.0, 2.0):
                lp = solve_exact(TransportInstance.from_distributions(f, g, p)).value
                assert relative_gap(lp, wasserstein_1d(f, g, p).value_pth_power) <= 1e-9

    def test_agrees_with_cold_linprog(self):
        # An independent reference: linprog with HiGHS's cold start and raw
        # costs. The staircase on the line and the cost scaling in R^d reach
        # the optimum another way, so values agree to rounding, not bitwise,
        # and plans are compared where the optimum is unique (p = 2 on the
        # line).
        from scipy import sparse
        from scipy.optimize import linprog

        rng = np.random.default_rng(5)
        instances = []
        for k in range(40):
            m, n = rng.integers(2, 65, size=2)
            if k % 2:
                f = from_samples(np.round(rng.normal(0.0, 1.0, m), 2))
                g = from_samples(np.round(rng.normal(0.3, 1.2, n), 2))
            else:
                f = from_atoms(rng.normal(0.0, 1.0, m), rng.dirichlet(np.ones(m)))
                g = from_atoms(rng.normal(0.3, 1.2, n), rng.dirichlet(np.ones(n)))
            instances.append(TransportInstance.from_distributions(f, g, 1.0 + k % 2))
        instances += row_instances(rng)
        # 64 + 64 rows in R^3: the largest R^d instance the LP guard admits
        instances.append(TransportInstance(
            rng.normal(size=(64, 3)), rng.dirichlet(np.ones(64)), rng.normal(size=(64, 3)), np.full(64, 1 / 64), p=2.0
        ))
        for inst in instances:
            m, n = inst.mu_weights.size, inst.nu_weights.size
            cost = inst.cost_matrix
            i, j = np.divmod(np.arange(m * n), n)
            a_eq = sparse.csc_array(
                (np.ones(2 * m * n), np.stack([i, m + j], axis=1).ravel(), np.arange(0, 2 * m * n + 1, 2)),
                shape=(m + n, m * n),
            )
            res = linprog(
                cost.ravel(),
                A_eq=a_eq,
                b_eq=np.concatenate([inst.mu_weights, inst.nu_weights]),
                bounds=(0, None),
                method="highs",
                options={
                    "presolve": False,
                    "primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10,
                },
            )
            mass = res.x.reshape(m, n)
            mass = np.where(np.abs(mass) < 1e-12, 0.0, mass)
            sol = solve_exact(inst)
            assert sol.value == pytest.approx(float(np.sum(mass * cost)), rel=1e-12, abs=0.0)
            if inst.p == 2.0 and inst.mu_points.shape[1] == 1:
                assert np.allclose(sol.plan.mass, mass, rtol=0.0, atol=1e-12)

    def test_shifted_potential_fails_the_certificate(self, monkeypatch):
        # The certificate is relative to the largest cost; a potential off by
        # 1e-6 of it must still be caught. HiGHS's potentials are in units of
        # the largest cost, so 1e-6 there is that shift. A second row
        # potential moves the other way, so the dual objective (uniform
        # weights) does not change and only the slack checks can catch it.
        from scipy.optimize._highspy import _core

        rng = np.random.default_rng(0)
        w = np.full(30, 1 / 30)
        inst = TransportInstance(rng.normal(0.0, 1e4, (30, 2)), w, rng.normal(0.0, 1e4, (30, 2)), w, p=2.0)
        shift = np.array([1.0, -1.0]) * 1e-6

        class Shifted(_core._Highs):
            def getSolution(self):
                solution = super().getSolution()
                row_dual = np.array(solution.row_dual)
                row_dual[:2] += shift
                solution.row_dual = row_dual
                return solution

        monkeypatch.setattr(_core, "_Highs", Shifted)
        with pytest.raises(CertificationError, match="dual infeasibility|complementary slackness"):
            solve_exact(inst)

    def test_shifted_line_potential_fails_the_certificate(self, monkeypatch):
        # the same shift, on the staircase's potentials
        rng = np.random.default_rng(0)
        inst = TransportInstance.from_distributions(
            uniform(rng.normal(0.0, 1e4, 30)), uniform(rng.normal(0.0, 1e4, 30)), p=2.0
        )
        staircase = oracle._staircase

        def shifted(instance, cost):
            mass, u, v = staircase(instance, cost)
            u[:2] += np.array([1.0, -1.0]) * 1e-6 * cost.max()
            return mass, u, v

        monkeypatch.setattr(oracle, "_staircase", shifted)
        with pytest.raises(CertificationError, match="dual infeasibility|complementary slackness"):
            solve_exact(inst)

    def test_lowered_line_potentials_fail_complementary_slackness(self, monkeypatch):
        # every u down by the same 1e-6 of the largest cost keeps u_i + v_j <= c_ij,
        # so dual feasibility holds and only the slack on the support can tell
        rng = np.random.default_rng(0)
        inst = TransportInstance.from_distributions(
            uniform(rng.normal(0.0, 1e4, 30)), uniform(rng.normal(0.0, 1e4, 30)), p=2.0
        )
        staircase = oracle._staircase

        def lowered(instance, cost):
            mass, u, v = staircase(instance, cost)
            return mass, u - 1e-6 * cost.max(), v

        monkeypatch.setattr(oracle, "_staircase", lowered)
        with pytest.raises(CertificationError, match="^complementary slackness fails on the plan support$"):
            solve_exact(inst)

    def test_moved_line_mass_fails_the_margin_check(self, monkeypatch):
        # 1e-6 moved within one row keeps the row margins and the total, so
        # only the column margins can tell
        f, g = drift_pair()
        staircase = oracle._staircase

        def moved(instance, cost):
            mass, u, v = staircase(instance, cost)
            mass[0, 0] -= 1e-6
            mass[0, 1] += 1e-6
            return mass, u, v

        monkeypatch.setattr(oracle, "_staircase", moved)
        with pytest.raises(CertificationError, match="^the plan's margins miss the weights by 1e-06$"):
            solve_exact(TransportInstance.from_distributions(f, g, 2.0))

    def test_shuffled_line_sweep_matches_the_quantile_formula(self):
        # 300 desk-style pairs, atoms in random order, at four orders
        rng = np.random.default_rng(17)
        for f, g in desk_style_pairs(rng, 150):
            pi, sigma = rng.permutation(f.n_atoms), rng.permutation(g.n_atoms)
            for p in (1.0, 1.5, 2.0, 3.0):
                inst = TransportInstance(f.atoms[pi], f.weights[pi], g.atoms[sigma], g.weights[sigma], p=p)
                exact = wasserstein_1d(f, g, p).value_pth_power
                assert solve_exact(inst).value == pytest.approx(exact, rel=1e-12, abs=0.0)


class TestEnumerateExtremeCouplings:
    def test_uniform_2x2_is_a_segment(self):
        vertices = enumerate_extreme_couplings([0.5, 0.5], [0.5, 0.5])
        mats = sorted(v.mass.tolist() for v in vertices)
        assert mats == [
            [[0.0, 0.5], [0.5, 0.0]],
            [[0.5, 0.0], [0.0, 0.5]],
        ]

    def test_one_row_is_forced(self):
        vertices = enumerate_extreme_couplings([1.0], [0.25, 0.25, 0.5])
        assert len(vertices) == 1
        assert vertices[0].mass.tolist() == [[0.25, 0.25, 0.5]]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uniform_margins_give_birkhoff_vertices(self, n):
        vertices = enumerate_extreme_couplings([1 / n] * n, [1 / n] * n)
        assert len(vertices) == math.factorial(n)
        perms = {tuple(np.argmax(v.mass, axis=1).tolist()) for v in vertices}
        assert perms == set(itertools.permutations(range(n)))
        for v in vertices:
            permutation = np.eye(n)[np.argmax(v.mass, axis=1)]
            assert np.allclose(v.mass, permutation / n, rtol=0.0, atol=1e-15)

    def test_vertex_order_is_pinned(self):
        # combinations order of the cell sets; dyadic margins keep the
        # masses exact
        vertices = enumerate_extreme_couplings([0.375, 0.625], [0.25, 0.5, 0.25])
        assert [v.mass.tolist() for v in vertices] == [
            [[0.25, 0.125, 0.0], [0.0, 0.375, 0.25]],
            [[0.125, 0.0, 0.25], [0.125, 0.5, 0.0]],
            [[0.25, 0.0, 0.125], [0.0, 0.5, 0.125]],
            [[0.0, 0.125, 0.25], [0.25, 0.375, 0.0]],
            [[0.0, 0.375, 0.0], [0.25, 0.125, 0.25]],
        ]

    def test_guard(self):
        with pytest.raises(CapacityError):
            enumerate_extreme_couplings([0.2] * 5, [0.2] * 5)

    def test_margins_must_balance(self):
        with pytest.raises(ConstructionError):
            enumerate_extreme_couplings([1.0], [0.5])

    @pytest.mark.parametrize(
        "args, cause",
        [
            (([np.nan, 0.5], [1.0]), "strictly positive"),
            (([1.5, -0.5], [1.0]), "strictly positive"),
            (([0.5, 0.5, 0.0], [1.0]), "strictly positive"),
            (([0.5, 0.5 + 1e-11], [1.0 + 1e-11]), "sum to 1 within"),
            (([], []), "nonempty"),
            (([0.5, 0.5], [1.0], [0.0], [0.0]), "weights do not match its atoms"),
        ],
        ids=[
            "nan-weight", "negative-weight", "zero-weight",
            "sum-off-by-1e-11", "empty", "points-mismatch",
        ],
    )
    def test_invalid_input_names_the_cause(self, args, cause):
        with pytest.raises(ConstructionError, match=cause):
            enumerate_extreme_couplings(*args)

    def test_solve_broadcasts_one_right_hand_side(self, monkeypatch):
        # NumPy < 2 solves against a stack of vectors whenever
        # b.ndim == a.ndim - 1; emulate that rule on NumPy 2
        solve = np.linalg.solve

        def numpy1_solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if b.ndim == a.ndim - 1:
                return solve(a, b[..., None])[..., 0]
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        assert len(enumerate_extreme_couplings([0.5, 0.5], [0.5, 0.5])) == 2
        assert len(enumerate_extreme_couplings([1.0], [1.0])) == 1

    def test_memory_at_the_guard(self):
        # the batched bases grow with C(mn, m + n - 1): 11,440 cell sets here
        tracemalloc.start()
        try:
            enumerate_extreme_couplings([0.25] * 4, [0.25] * 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_every_vertex_has_forest_support(self, rng):
        f = random_discrete(rng, max_atoms=4)
        g = random_discrete(rng, max_atoms=4)
        for v in enumerate_extreme_couplings(f.weights, g.weights, f.atoms, g.atoms):
            assert np.allclose(v.mass.sum(axis=1), f.weights, atol=1e-10)
            assert np.allclose(v.mass.sum(axis=0), g.weights, atol=1e-10)
            # acyclic support: at most m + n - 1 cells carry mass
            assert int(v.support().sum()) <= f.n_atoms + g.n_atoms - 1


class TestMarginalize:
    def test_one_sided_cost_contract(self, rng):
        # integrating f(x) against the plan equals integrating against the margin
        f = random_discrete(rng, max_atoms=6)
        g = random_discrete(rng, max_atoms=6)
        sol = solve_exact(TransportInstance.from_distributions(f, g, p=2.0))
        fx = sol.plan.row_points.ravel() ** 2
        via_plan = float(np.sum(sol.plan.mass * fx[:, None]))
        via_margin = float(np.sum(f.weights * f.atoms**2))
        assert via_plan == pytest.approx(via_margin, rel=1e-12, abs=1e-12)


class TestMonotonePlan:
    def test_point_masses(self):
        plan = monotone_plan_1d(from_atoms([1.0], [1.0]), from_atoms([5.0], [1.0]))
        assert plan.mass.tolist() == [[1.0]]

    def test_uniform_pair_ties_advance_together(self):
        plan = monotone_plan_1d(uniform([0.0, 1.0]), uniform([0.0, 2.0]))
        assert np.allclose(plan.mass, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_staggered_ladders(self):
        f = uniform([0.0, 1.0])
        g = from_atoms([0.0, 2.0], [0.25, 0.75])
        plan = monotone_plan_1d(f, g)
        assert np.allclose(plan.mass, [[0.25, 0.25], [0.0, 0.5]], atol=1e-15)

    def test_margins_and_optimality(self, rng):
        for p in (1.0, 2.0, 3.0):
            random_pair = (random_discrete(rng, max_atoms=9), random_discrete(rng, max_atoms=9))
            for f, g in (random_pair, drift_pair()):
                plan = monotone_plan_1d(f, g)
                assert int(plan.support().sum()) <= f.n_atoms + g.n_atoms - 1
                assert np.allclose(plan.mass.sum(axis=1), f.weights, rtol=0.0, atol=1e-12)
                assert np.allclose(plan.mass.sum(axis=0), g.weights, rtol=0.0, atol=1e-12)
                lp = solve_exact(TransportInstance.from_distributions(f, g, p)).value
                closed_forms = (
                    wasserstein_1d(f, g, p).value_pth_power,
                    transport_cost(plan, p),
                    comonotone_expectation(lambda x, y: abs(x - y) ** p, f, g),
                )
                for value in closed_forms:
                    assert value == pytest.approx(lp, rel=1e-9, abs=1e-9)

    def test_piece_below_the_tie_tolerance_is_exact(self):
        # a real piece of width 4e-13 lies inside QUANTILE_TIE_TOL of a break;
        # read at its right end it still gets its own cell
        f = from_atoms([0.0, 1.0], [0.5 + 4e-13, 0.5 - 4e-13])
        g = from_atoms([0.0, 1.0], [0.5, 0.5])
        report = wasserstein_1d(f, g, 2.0)
        lp = solve_exact(TransportInstance.from_distributions(f, g, 2.0))
        assert report.value_pth_power == lp.value > 0.0
        assert report.error_bound == 0.0
        plan = monotone_plan_1d(f, g)
        assert np.array_equal(plan.mass.sum(axis=1), f.weights)
        assert np.array_equal(plan.mass.sum(axis=0), g.weights)
        assert np.array_equal(plan.mass, lp.plan.mass)

    def test_weights_summing_past_one_keep_the_ladder_sorted(self):
        # the weights sum to 1 + 5e-13, and the running sum passes 1 before
        # the last atom; the ladder is capped at 1, so every read stays on it
        f = from_atoms([0.0, 1.0, 2.0], [0.5 + 4e-13, 0.5, 1e-13])
        g = from_atoms([0.0, 1.0], [0.5, 0.5])
        assert np.all(np.diff(f.cumulative_weights) >= 0.0) and f.cumulative_weights[-1] == 1.0
        plan = monotone_plan_1d(f, g)
        assert np.max(np.abs(plan.mass.sum(axis=1) - f.weights)) <= TOTAL_MASS_TOL
        assert np.array_equal(plan.mass.sum(axis=0), g.weights)
        # every route ends the coupling at exactly 1, so the atom that the
        # capped ladder absorbs gets no mass on any of them
        for p in (1.0, 2.0):
            lp = solve_exact(TransportInstance.from_distributions(f, g, p))
            assert wasserstein_1d(f, g, p).value_pth_power == transport_cost(plan, p) == lp.value
            assert np.array_equal(plan.mass, lp.plan.mass)
        assert lp.value == 4.000133557724439e-13

    def test_equals_the_certified_plan_bitwise(self):
        # 300 desk-style pairs, half with ladder ties: one walk builds both plans
        for f, g in desk_style_pairs(np.random.default_rng(17), 150):
            plan = monotone_plan_1d(f, g)
            lp = solve_exact(TransportInstance.from_distributions(f, g, 2.0))
            assert np.array_equal(plan.mass, lp.plan.mass)
            assert transport_cost(plan, 2.0) == lp.value

    def test_agrees_with_joint_cdf_extraction(self, rng):
        # the comonotone walk and the inclusion-exclusion of min(F, G) are two
        # routes to the same coupling
        from copula_ot import comonotone_joint_2d, coupling_from_joint

        pairs = [
            (random_discrete(rng, max_atoms=7), random_discrete(rng, max_atoms=7))
            for _ in range(10)
        ]
        for f, g in pairs + [drift_pair()]:
            merged = monotone_plan_1d(f, g)
            extracted = coupling_from_joint(comonotone_joint_2d(f, g))
            assert np.allclose(merged.mass, extracted.mass, atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize(
        "build",
        [monotone_plan_1d, lambda f, g: coupling_from_joint(comonotone_joint_2d(f, g))],
        ids=["monotone_plan_1d", "coupling_from_joint"],
    )
    def test_plan_past_the_lattice_budget_is_refused(self, build):
        # 2450 x 2450 = 6,002,500 cells: the check runs before the dense plan
        # is allocated, so even a pair far too large for memory is refused at once
        f = uniform(np.arange(2450.0))
        assert f.n_atoms**2 > oracle.MAX_LATTICE_POINTS
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="a lattice of 2450 x 2450 points exceeds the budget of 6000000"):
            build(f, f)
        assert time.perf_counter() - start < 1.0


class TestGroundCost:
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 2.0), (1.5, 1.5), (1.0, 2.0), (3.0, 1.5)])
    def test_line_cost_is_the_general_formula(self, rng, p, q):
        # on the line the sum has one term, and at q = p the power p / q = 1
        x, y = rng.normal(size=(17, 1)), rng.normal(size=(23, 1))
        mass = rng.random((17, 23))
        plan = DiscreteCoupling(x, y, mass / mass.sum())
        reference = np.sum(np.abs(x[:, None, :] - y[None, :, :]) ** q, axis=2) ** (p / q)
        assert np.array_equal(oracle._ground_cost(x, y, p, q), reference)
        assert transport_cost(plan, p, q) == float(np.sum(plan.mass * reference))

    @pytest.mark.parametrize("d", range(2, 11))
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 2.0), (1.5, 1.5), (1.0, 2.0), (3.0, 1.5)])
    def test_rd_cost_is_the_per_coordinate_sum(self, rng, d, p, q):
        x, y = rng.normal(size=(17, d)), rng.normal(size=(23, d))
        reference = sum(np.abs(x[:, None, k] - y[None, :, k]) ** q for k in range(d)) ** (p / q)
        # the terms add in coordinate order, as the reference does: no d regroups them
        assert np.array_equal(oracle._ground_cost(x, y, p, q), reference)


class TestDiscreteCoupling:
    def test_negative_mass_rejected(self):
        with pytest.raises(ConstructionError):
            DiscreteCoupling([0.0], [0.0], [[-0.5]])

    def test_tiny_negatives_clamped(self):
        plan = DiscreteCoupling([0.0, 1.0], [0.0], [[1.0, ], [-1e-14]])
        assert plan.mass[1, 0] == 0.0

    def test_nan_mass_rejected(self):
        with pytest.raises(ConstructionError, match="finite"):
            DiscreteCoupling([0.0, 1.0], [0.0], [[1.0], [np.nan]])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, -2e-12])
    def test_non_finite_or_negative_mass_rejected(self, bad):
        with pytest.raises(ConstructionError, match="coupling mass must be finite and not materially negative"):
            DiscreteCoupling([0.0, 1.0], [0.0], [[1.0], [bad]])

    def test_clamped_mass_is_read_only(self):
        plan = DiscreteCoupling([0.0, 1.0], [0.0], np.array([[1.0], [-1e-13]]))
        assert plan.mass[1, 0] == 0.0 and not math.copysign(1.0, plan.mass[1, 0]) < 0.0
        assert not plan.mass.flags.writeable
        with pytest.raises(ValueError):
            plan.mass[0, 0] = 0.5

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ConstructionError, match="row_points must contain only finite coordinates"):
            DiscreteCoupling([0.0, bad], [0.0], [[0.5], [0.5]])
        with pytest.raises(ConstructionError, match="nu_points must contain only finite coordinates"):
            TransportInstance([0.0], [1.0], [[0.0, bad]], [1.0])

    def test_total_mass_checked(self):
        with pytest.raises(ConstructionError):
            DiscreteCoupling([0.0], [0.0], [[0.5]])

    def test_plans_of_margins_at_the_weight_rule_edge(self):
        # why TOTAL_MASS_TOL is looser than WEIGHT_SUM_TOL: a plan carries
        # its margins' total plus rounding, which can cross the weight rule
        f, g = weight_rule_edge_pair()
        plans = [
            coupling_from_joint(comonotone_joint_2d(f, g)),
            solve_exact(in_the_plane(f, g, 1.0)).plan,
        ]
        assert all(abs(float(plan.mass.sum()) - 1.0) > WEIGHT_SUM_TOL for plan in plans)
