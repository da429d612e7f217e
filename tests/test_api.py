"""The public names of the package, pinned: adding or removing one is a
deliberate change of this list. So are the signatures that the benchmark's
tracer (perfbench/tracing.py) binds by parameter name: renaming one would
silently zero a traced layer."""

import importlib.util
import inspect
import sys
import types
from pathlib import Path

import numpy as np

import vpident
from vpident import constitutive, identify, metric

PUBLIC = [
    "AxiomReport", "CloudReport", "DeformationHistory", "ExperimentData", "FitResult",
    "HardeningParams", "InternalState", "LinearizedModel", "MaterialParams",
    "MetricSpec", "NoiseModel", "PARAM_NAMES", "StrainProgram", "StressOutput",
    "WeightingScheme", "backstresses", "benchmark_history", "cauchy_response",
    "check_metric_axioms", "covariance", "dist_euclidean", "dist_euclidean_nondim",
    "dist_mechanics", "elastic_energy", "fit_least_squares", "jacobian_fd", "kinematic_energy",
    "levenberg_marquardt", "linearize", "linearize_at", "mechanics_distances", "model_response",
    "monte_carlo_cloud", "normalized_variances", "reidentify_linear", "sample_noise",
    "sample_noise_matrix", "second_pk_stress", "simple_shear_f", "stress_state",
    "torsion_program",
]


def test_public_names_are_pinned():
    # submodules become attributes once anything imports them; they are not names
    names = sorted(name for name, value in vars(vpident).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC


def test_traced_signatures_are_pinned():
    """cauchy_response(F_samples, times, material, pvecs, n_sub=1, *, sink);
    the tracer reads times, n_sub and pvecs, and pvecs of the response and
    the metric scoring."""
    empty = inspect.Parameter.empty
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    params = inspect.signature(constitutive.cauchy_response).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        ("F_samples", positional, empty), ("times", positional, empty),
        ("material", positional, empty), ("pvecs", positional, empty),
        ("n_sub", positional, 1), ("sink", inspect.Parameter.KEYWORD_ONLY, empty),
    ]
    # the tracer wraps the integration at both import sites
    assert identify.cauchy_response is constitutive.cauchy_response
    assert metric.cauchy_response is constitutive.cauchy_response
    for fn in (identify.model_response_batch, metric.mechanics_distances):
        assert "pvecs" in inspect.signature(fn).parameters


def test_benchmark_trace_sites_exist(monkeypatch, material):
    """Every site perfbench/tracing.py rebinds exists, and the integration
    counter reads times, n_sub and pvecs from a cauchy_response call."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for owner_spec, attr, _ in tracing.SPAN_SITES + tracing.COUNT_SITES:
        owner = tracing._owner(owner_spec)
        assert attr in (vars(owner) if isinstance(owner, type) else dir(owner)), (owner_spec, attr)
    bound = inspect.signature(constitutive.cauchy_response).bind(
        np.stack([np.eye(3)] * 4), np.arange(4.0), material, np.zeros((3, 6)), 2,
        sink=lambda i, t: None)
    bound.apply_defaults()
    count = tracing._COUNTERS[tracing.INTEGRATION](bound.arguments)
    assert count == {"steps": 6, "member_steps": 18}
