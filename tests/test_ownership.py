"""Constructors own their input arrays.

Every array a constructor keeps is its own read-only float copy: the
caller's array stays writable, and a later write to it, or to the base of a
view passed in, changes nothing in the object. Objects the library builds
from checked objects adopt those objects' read-only arrays instead.
"""

import numpy as np
import pytest

from copula_ot import (
    ConstructionError,
    DiscreteCoupling,
    Distribution1D,
    TransportInstance,
    comonotone_joint_2d,
    coupling_from_joint,
    from_atoms,
    from_samples,
    monotone_plan_1d,
    solve_exact,
    wasserstein_1d,
)

# name: (constructor, the caller's arrays, the fields they end up in)
CASES = {
    "Distribution1D": (
        lambda x, w: Distribution1D(atoms=x, weights=w),
        [[0.0, 1.0, 2.0], [0.25, 0.5, 0.25]],
        ["atoms", "weights"],
    ),
    "from_atoms": (from_atoms, [[0.0, 1.0, 2.0], [0.25, 0.5, 0.25]], ["atoms", "weights"]),
    "TransportInstance-line": (
        TransportInstance,
        [[0.0, 1.0], [0.5, 0.5], [0.0], [1.0]],
        ["mu_points", "mu_weights", "nu_points", "nu_weights"],
    ),
    "TransportInstance-Rd": (
        TransportInstance,
        [np.zeros((2, 2)), [0.5, 0.5], np.ones((1, 2)), [1.0]],
        ["mu_points", "mu_weights", "nu_points", "nu_weights"],
    ),
    "DiscreteCoupling": (
        DiscreteCoupling,
        [[[0.0], [1.0]], [0.0, 1.0], [[0.5, 0.0], [0.0, 0.5]]],
        ["row_points", "col_points", "mass"],
    ),
}


@pytest.mark.parametrize("via", ["array", "view"])
@pytest.mark.parametrize("case", list(CASES))
def test_constructor_owns_its_arrays(case, via):
    build, values, fields = CASES[case]
    bases = [np.array(v, dtype=float) for v in values]
    obj = build(*(base if via == "array" else base[:] for base in bases))
    kept = {field: getattr(obj, field).copy() for field in fields}
    for base in bases:
        assert base.flags.writeable
        base[...] = 7.0
    for field in fields:
        assert np.array_equal(getattr(obj, field), kept[field])
        assert not getattr(obj, field).flags.writeable


def test_a_write_through_the_base_leaves_the_distance_at_zero():
    x = np.array([0.0, 1.0, 2.0])
    w = [0.25, 0.5, 0.25]
    d = Distribution1D(atoms=x[:], weights=w[:])
    x[0] = 5.0
    assert wasserstein_1d(d, Distribution1D(atoms=[0.0, 1.0, 2.0], weights=w), 1.0).value == 0.0


def test_a_write_through_the_base_leaves_the_weights():
    w2 = np.array([0.5, 0.5])
    instance = TransportInstance([0.0, 1.0], w2[:], [0.0], [1.0])
    w2[0] = 7.0
    assert instance.mu_weights.tolist() == [0.5, 0.5]


PLAN_FIELDS = {"row_points": ("f", "atoms"), "col_points": ("g", "atoms"), "mass": None}

# name: (builder from two checked measures, each field kept: the measure
# and attribute whose memory it shares, or None for an array of its own)
ADOPTERS = {
    "from_distributions": (
        lambda f, g: TransportInstance.from_distributions(f, g, 2.0),
        {
            "mu_points": ("f", "atoms"),
            "mu_weights": ("f", "weights"),
            "nu_points": ("g", "atoms"),
            "nu_weights": ("g", "weights"),
        },
    ),
    "monotone_plan_1d": (monotone_plan_1d, PLAN_FIELDS),
    "solve_exact": (lambda f, g: solve_exact(TransportInstance.from_distributions(f, g, 2.0)).plan, PLAN_FIELDS),
    "coupling_from_joint": (lambda f, g: coupling_from_joint(comonotone_joint_2d(f, g)), PLAN_FIELDS),
}


@pytest.mark.parametrize("case", list(ADOPTERS))
def test_built_from_checked_objects_adopts_their_arrays(case):
    build, fields = ADOPTERS[case]
    callers = [np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]), np.array([1.5, 0.5, 0.5])]
    measures = {"f": from_atoms(callers[0], callers[1]), "g": from_samples(callers[2])}
    obj = build(measures["f"], measures["g"])
    for field, source in fields.items():
        arr = getattr(obj, field)
        if source is not None:
            side, attr = source
            assert np.shares_memory(arr, getattr(measures[side], attr))
        assert not any(np.shares_memory(arr, c) for c in callers)
        while isinstance(arr, np.ndarray):  # no array along the view chain is writable
            assert not arr.flags.writeable
            arr = arr.base


def test_from_samples_sorts_a_copy_of_the_callers_array():
    # a float64 array passes through the input conversion as itself
    samples = np.array([2.0, 0.0, 1.0, 0.0])
    d = from_samples(samples)
    assert samples.tolist() == [2.0, 0.0, 1.0, 0.0] and samples.flags.writeable
    samples[...] = 7.0
    assert d.atoms.tolist() == [0.0, 1.0, 2.0] and d.weights.tolist() == [0.5, 0.25, 0.25]


def test_from_atoms_checks_the_weights_before_the_merge():
    # merged, the two weights would be a single valid 1.0
    with pytest.raises(ConstructionError, match="weights must be finite and strictly positive"):
        from_atoms([0.0, 0.0], [-0.5, 1.5])
