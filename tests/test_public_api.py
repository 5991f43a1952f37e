"""The public names resolve, and the benchmark's hooks still find theirs.

The package's surface is its modules' ``__all__`` lists, re-exported in
order; it is pinned here name by name. ``perfbench/`` calls the package
through its namespace and wraps some of its functions and methods by name,
so deleting or renaming one of them breaks the benchmark. These tests run
its desk op under its tracer, and its CLI op through the check that its CLI
workloads apply.
"""

import importlib
from pathlib import Path

import pytest

import copula_ot

MODULES = [
    "copula_ot",
    "copula_ot.distributions",
    "copula_ot.copulas",
    "copula_ot.distances",
    "copula_ot.oracle",
    "copula_ot.errors",
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the 36 public names of the package, in the order of its modules' lists
PUBLIC = [
    "Distribution1D",
    "from_samples",
    "from_atoms",
    "from_quantile",
    "tail_decay_diagnostic",
    "CopulaFn",
    "JointCDF",
    "ValidationReport",
    "comonotonicity_copula",
    "lower_frechet_bound",
    "independence_copula",
    "built_in_copula",
    "validate_copula",
    "comonotone_joint_2d",
    "coupling_from_joint",
    "DistanceReport",
    "wasserstein_1d",
    "w1_cdf_area",
    "comonotone_expectation",
    "dall_aglio_functional",
    "wasserstein_shared_copula",
    "DiscreteCoupling",
    "TransportInstance",
    "TransportSolution",
    "solve_exact",
    "enumerate_extreme_couplings",
    "monotone_plan_1d",
    "transport_cost",
    "CopulaOTError",
    "ConstructionError",
    "DomainError",
    "PreconditionError",
    "DivergenceError",
    "CapacityError",
    "InvalidJointError",
    "CertificationError",
]
SOURCES = [
    importlib.import_module(f"copula_ot.{name}")
    for name in ("distributions", "copulas", "distances", "oracle", "errors")
]


def test_the_surface_is_pinned():
    assert copula_ot.__all__ == PUBLIC


def test_the_surface_is_the_module_lists_in_order():
    joined = [name for module in SOURCES for name in module.__all__]
    assert copula_ot.__all__ == joined
    assert len(set(joined)) == len(joined)


@pytest.mark.parametrize("module", SOURCES, ids=lambda m: m.__name__)
def test_each_package_name_is_its_module_object(module):
    # the benchmark's tracer swaps functions by identity in every module
    for name in module.__all__:
        assert getattr(copula_ot, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_desk_op_runs_under_the_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")

    recorder = tracer.Recorder()
    recorder.install()
    try:
        for op_id, pair in enumerate(workloads.make_desk_pairs(7, 64)[:3]):
            values, _ = recorder.run_op(op_id, worker.desk_op, pair)
            assert workloads.check_desk_values(values) is None
    finally:
        recorder.uninstall()
    assert not hasattr(copula_ot.wasserstein_1d, "__wrapped__")
    metrics, _ = recorder.layer_metrics()
    assert metrics["copulas.comonotone_joint_2d.calls"] == 1.0
    assert metrics["oracle.solve_exact.calls"] == 2.0
    assert all(metrics[f"{layer}.{func}.errors"] == 0 for layer, _, func in tracer.SPANNED)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_cli_op_passes_its_check(monkeypatch, tmp_path, p):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")

    job = workloads.make_cli_inputs(7, 3000, p, tmp_path)
    code, stdout = worker.cli_op(job["argv"])
    assert workloads.check_cli_output(code, stdout, job["reference"], None) is None
