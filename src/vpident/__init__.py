"""Finite-strain viscoplasticity: parameter identification from shear data
and sensitivity of the identified parameters to measurement noise."""

from .constitutive import (
    PARAM_NAMES,
    HardeningParams,
    InternalState,
    MaterialParams,
    StressOutput,
    backstresses,
    cauchy_response,
    elastic_energy,
    kinematic_energy,
    second_pk_stress,
    stress_state,
)
from .identify import (
    ExperimentData,
    FitResult,
    WeightingScheme,
    fit_least_squares,
    jacobian_fd,
    levenberg_marquardt,
    model_response,
)
from .loading import (
    DeformationHistory,
    StrainProgram,
    benchmark_history,
    simple_shear_f,
    torsion_program,
)
from .metric import (
    AxiomReport,
    MetricSpec,
    check_metric_axioms,
    dist_euclidean,
    dist_euclidean_nondim,
    dist_mechanics,
    mechanics_distances,
)
from .noise import NoiseModel, covariance, sample_noise, sample_noise_matrix
from .sensitivity import (
    CloudReport,
    LinearizedModel,
    linearize,
    linearize_at,
    monte_carlo_cloud,
    normalized_variances,
    reidentify_linear,
)

__version__ = "0.1.0"
