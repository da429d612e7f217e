"""The public names of the package, pinned: adding or removing one is a
deliberate change of this list."""

import types

import vpident

PUBLIC = [
    "AxiomReport", "CloudReport", "DeformationHistory", "ExperimentData", "FitResult",
    "HardeningParams", "InternalState", "LMOptions", "LinearizedModel", "MaterialParams",
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
