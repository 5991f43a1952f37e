"""The one merge, the one box volume and the one rung rule on the line.

``_merge`` serves the u-axis comonotone walk and, through the distinct grid
of ``distances._grid``, the x-axis grids of ``w1_cdf_area`` and
``dall_aglio_functional``. ``_box_volumes`` serves the copula validator,
``coupling_from_joint`` and the kernel of ``dall_aglio_functional``.
``_rungs`` gives the walk its capped running weight sums.
"""

import numpy as np
from hypothesis import given, strategies as st

from copula_ot.distances import _grid
from copula_ot.distributions import WEIGHT_SUM_TOL, _box_volumes, _merge, _rungs, _weight_rule

# Tie-heavy sorted runs: few distinct values, repeats inside a side, as
# dall_aglio_functional accepts on repeated supports.
runs = st.lists(st.integers(-4, 4).map(lambda k: k / 2), min_size=1, max_size=12).map(
    lambda xs: np.sort(np.array(xs, dtype=float))
)


@given(runs, runs)
def test_merge_is_the_stable_merge_with_a_first_on_a_tie(a, b):
    merged, in_a = _merge(a, b)
    assert in_a.dtype == np.int32
    np.testing.assert_array_equal(merged, np.sort(np.concatenate((a, b))))
    steps = np.diff(in_a, prepend=0)
    assert np.all((steps == 0) | (steps == 1)) and in_a[-1] == a.size
    from_a = steps == 1
    # each side's entries keep their order, and on a tie no entry of a follows one of b
    np.testing.assert_array_equal(merged[from_a], a)
    np.testing.assert_array_equal(merged[~from_a], b)
    tie = merged[1:] == merged[:-1]
    assert not np.any(tie & ~from_a[:-1] & from_a[1:])


@given(runs, runs)
def test_grid_is_the_union_with_right_continuous_counts(a, b):
    grid, in_a, in_b = _grid(a, b)
    union = np.union1d(a, b)
    assert grid.tobytes() == union.tobytes()
    np.testing.assert_array_equal(in_a, np.searchsorted(a, union[:-1], "right"))
    np.testing.assert_array_equal(in_b, np.searchsorted(b, union[:-1], "right"))


def test_box_volumes_are_the_four_slices_at_d_2_and_the_chained_diff_at_d_3():
    rng = np.random.default_rng(5)
    lattice = rng.normal(size=(7, 9))
    four_slices = (lattice[1:, 1:] - lattice[:-1, 1:]) - (lattice[1:, :-1] - lattice[:-1, :-1])
    assert _box_volumes(lattice).tobytes() == four_slices.tobytes()
    cube = rng.normal(size=(4, 5, 6))
    chained = np.diff(np.diff(np.diff(cube, axis=0), axis=1), axis=2)
    assert _box_volumes(cube).tobytes() == chained.tobytes()


@given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_rungs_are_the_capped_running_sums_ending_at_1(n, tiny, seed):
    rng = np.random.default_rng(seed)
    w = np.append(rng.dirichlet(np.ones(n)), np.full(tiny, 1e-14))
    w[0] += WEIGHT_SUM_TOL / 2  # a sum past 1 within the weight rule; the tiny tail's rungs pass 1
    _weight_rule(w, "weights")
    capped = w.cumsum()
    np.minimum(capped, 1.0, out=capped)
    capped[-1] = 1.0
    rungs = _rungs(w)
    assert rungs.tobytes() == capped.tobytes()
    assert not rungs.flags.writeable
    assert np.all(rungs[1:] >= rungs[:-1])


def test_rungs_cap_the_interior_sums_that_pass_1():
    rungs = _rungs(np.array([0.5 + 5e-13, 0.5, 1e-13, 1e-13]))
    assert rungs.tolist() == [0.5 + 5e-13, 1.0, 1.0, 1.0]
