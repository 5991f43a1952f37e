"""Tests for the exact transport LP oracle and its certificates."""

import itertools
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
    from_atoms,
    from_samples,
    monotone_plan_1d,
    solve_exact,
    transport_cost,
    wasserstein_1d,
)
from copula_ot.oracle import DUAL_CERT_TOL

from helpers import random_discrete, relative_gap


def uniform(atoms):
    return from_atoms(atoms, [1.0 / len(atoms)] * len(atoms))


def drift_pair():
    """Ten weights of 0.1 sum to 0.30000000000000004 after three atoms, so
    these ladders tie at 0.3 only up to cumsum drift."""
    return uniform(np.arange(10.0)), from_atoms([2.5, 7.5], [0.3, 0.7])


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
        # a dense (m + n) x mn constraint matrix alone would be 4.2 MB here
        f = random_discrete(rng, max_atoms=2)
        solve_exact(TransportInstance.from_distributions(f, f, 2.0))  # scipy import outside the trace
        atoms = rng.normal(size=(2, 64))
        w = np.full(64, 1 / 64)
        inst = TransportInstance(atoms[0], w, atoms[1], w, p=2.0)
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
        assert np.allclose(sol.plan.row_weights, f.weights, atol=1e-10)
        assert np.allclose(sol.plan.col_weights, g.weights, atol=1e-10)

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

    def test_floored_weights_certify(self):
        f, g = floored_weight_pair()
        sol = solve_exact(TransportInstance.from_distributions(f, g, 2.0))
        assert sol.value == pytest.approx(wasserstein_1d(f, g, 2.0).value_pth_power, rel=1e-9)

    def test_highs_options_are_pinned(self, monkeypatch):
        # presolve off and feasibility tolerances tighter than the certificate
        import scipy.optimize

        original = scipy.optimize.linprog
        seen = []

        def recording(*args, **kwargs):
            seen.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", recording)
        f, g = drift_pair()
        solve_exact(TransportInstance.from_distributions(f, g, 2.0))
        assert len(seen) == 1
        assert seen[0]["method"] == "highs"
        assert seen[0]["options"] == {
            "presolve": False,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        }

    def test_desk_style_pairs_certify(self):
        # 2-64 atoms per side: rounded samples (ladder ties) and random-simplex
        # weights floored at 1e-9, the two kinds that once failed the certificate
        rng = np.random.default_rng(12)

        def floored_simplex(k):
            w = np.maximum(rng.dirichlet(np.ones(k)), 1e-9)
            return w / w.sum()

        pairs = []
        for _ in range(30):
            m, n = rng.integers(2, 65, size=2)
            pairs.append((
                from_samples(np.round(rng.normal(0.0, 1.0, m), 2)),
                from_samples(np.round(rng.normal(0.3, 1.2, n), 2)),
            ))
        for _ in range(30):
            m, n = rng.integers(2, 65, size=2)
            pairs.append(tuple(
                from_atoms(rng.normal(0.0, 1.0, k), floored_simplex(k))
                for k in (m, n)
            ))
        for f, g in pairs:
            for p in (1.0, 2.0):
                lp = solve_exact(TransportInstance.from_distributions(f, g, p)).value
                assert relative_gap(lp, wasserstein_1d(f, g, p).value_pth_power) <= 1e-9

    def test_shifted_potential_fails_the_certificate(self, monkeypatch):
        # The certificate is relative to the largest cost; a potential off by
        # 1e-6 of it must still be caught. A second row potential moves the
        # other way, so the dual objective (uniform weights) does not change
        # and only the slack checks can catch it.
        import scipy.optimize

        original = scipy.optimize.linprog

        def shifted(c, *args, **kwargs):
            res = original(c, *args, **kwargs)
            marginals = res.eqlin.marginals.copy()
            marginals[:2] += np.array([1.0, -1.0]) * 1e-6 * c.max()
            res.eqlin.marginals = marginals
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", shifted)
        rng = np.random.default_rng(0)
        inst = TransportInstance.from_distributions(
            uniform(rng.normal(0.0, 1e4, 30)), uniform(rng.normal(0.0, 1e4, 30)), p=2.0
        )
        with pytest.raises(CertificationError, match="dual infeasibility|complementary slackness"):
            solve_exact(inst)


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

    def test_uniform_3x3_gives_birkhoff_vertices(self):
        vertices = enumerate_extreme_couplings([1 / 3] * 3, [1 / 3] * 3)
        assert len(vertices) == 6
        perms = {
            tuple(np.argmax(v.mass, axis=1).tolist()) for v in vertices
        }
        assert perms == set(itertools.permutations(range(3)))
        for v in vertices:
            assert np.allclose(np.sort(v.mass.ravel())[-3:], 1 / 3)

    def test_guard(self):
        with pytest.raises(CapacityError):
            enumerate_extreme_couplings([0.2] * 5, [0.2] * 5)

    def test_margins_must_balance(self):
        with pytest.raises(DomainError):
            enumerate_extreme_couplings([1.0], [0.5])

    def test_every_vertex_has_forest_support(self, rng):
        f = random_discrete(rng, max_atoms=4)
        g = random_discrete(rng, max_atoms=4)
        for v in enumerate_extreme_couplings(f.weights, g.weights, f.atoms, g.atoms):
            assert np.allclose(v.row_weights, f.weights, atol=1e-10)
            assert np.allclose(v.col_weights, g.weights, atol=1e-10)
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
                assert np.allclose(plan.row_weights, f.weights, rtol=0.0, atol=1e-12)
                assert np.allclose(plan.col_weights, g.weights, rtol=0.0, atol=1e-12)
                lp = solve_exact(TransportInstance.from_distributions(f, g, p)).value
                closed_forms = (
                    wasserstein_1d(f, g, p).value_pth_power,
                    transport_cost(plan, p),
                    comonotone_expectation(lambda x, y: abs(x - y) ** p, f, g),
                )
                for value in closed_forms:
                    assert value == pytest.approx(lp, rel=1e-9, abs=1e-9)

    def test_agrees_with_joint_cdf_extraction(self, rng):
        # the ladder merge and the inclusion-exclusion of min(F, G) are two
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


class TestDiscreteCoupling:
    def test_negative_mass_rejected(self):
        with pytest.raises(ConstructionError):
            DiscreteCoupling([0.0], [0.0], [[-0.5]])

    def test_tiny_negatives_clamped(self):
        plan = DiscreteCoupling([0.0, 1.0], [0.0], [[1.0, ], [-1e-14]])
        assert plan.mass[1, 0] == 0.0

    def test_total_mass_checked(self):
        with pytest.raises(ConstructionError):
            DiscreteCoupling([0.0], [0.0], [[0.5]])
