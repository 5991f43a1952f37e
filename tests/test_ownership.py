"""Constructors own their input arrays.

Every array a constructor keeps is its own read-only float copy: the
caller's array stays writable, and a later write to it, or to the base of a
view passed in, changes nothing in the object.
"""

import numpy as np
import pytest

from copula_ot import (
    DiscreteCoupling,
    Distribution1D,
    TransportInstance,
    from_atoms,
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
