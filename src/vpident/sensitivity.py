"""Fast noise-sensitivity analysis of the identified parameters.

Near a converged solution p* the model response is linearized,
Mod(p) ~ Mod(p*) + J (p - p*), so re-identification from noisy data has the
closed form p = (J^T W J)^-1 J^T W (Exp + Noise - Mod(p*) + J p*). It is
solved here for the deviation from p*, which is the same expression with
the J p* terms cancelled: p = p* + (J^T W J)^-1 J^T W (Exp + Noise -
Mod(p*)). That form restores p* exactly in the noise-free case and never
needs a matrix square root.

A parameter cloud is the set of re-identified vectors over many
independent noise instances; its size is the mean stress-metric distance
to p*, and the normalized per-parameter variances say which parameters the
noise actually moves. Cloud members are stored as raw linear-algebra
solutions: under large noise the closed form may leave the admissible
cone, which is flagged, not clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .constitutive import HardeningParams, MaterialParams
from .errors import NonFiniteJacobian, SingularNormalMatrix, ZeroReferenceParameter
from .identify import (
    FitResult,
    WeightingScheme,
    response_and_jacobian_fd,
)
from .loading import StrainProgram
from .metric import MetricSpec, mechanics_distances
from .noise import NoiseModel, sample_noise

#: condition-number limit of the column-equilibrated normal matrix
COND_LIMIT = 1.0e12


@dataclass
class LinearizedModel:
    """Frozen linearization (p*, Mod(p*), J) of the model response."""

    p_star: np.ndarray
    mod_star: np.ndarray
    jacobian: np.ndarray

    def __post_init__(self):
        self.p_star = np.asarray(self.p_star, dtype=float)
        self.mod_star = np.asarray(self.mod_star, dtype=float)
        self.jacobian = np.asarray(self.jacobian, dtype=float)
        if not np.all(np.isfinite(self.jacobian)):
            raise NonFiniteJacobian("linearization has non-finite Jacobian entries")
        n, k = self.jacobian.shape
        if len(self.mod_star) != n or len(self.p_star) != k:
            raise ValueError("inconsistent linearization dimensions")

    def response(self, pvecs: np.ndarray) -> np.ndarray:
        """(M, N) linearized responses for rows of parameter vectors."""
        pvecs = np.atleast_2d(np.asarray(pvecs, dtype=float))
        return self.mod_star[None, :] + (pvecs - self.p_star[None, :]) @ self.jacobian.T


def linearize_at(p: HardeningParams, fixed: MaterialParams,
                 program: StrainProgram) -> LinearizedModel:
    """Linearize the model response around an arbitrary parameter set, with
    Mod(p) and its central-difference Jacobian from one integrator pass."""
    mod_star, jacobian = response_and_jacobian_fd(p, fixed, program)
    return LinearizedModel(p_star=p.as_vector(), mod_star=mod_star, jacobian=jacobian)


def linearize(fit: FitResult, fixed: MaterialParams,
              program: StrainProgram) -> LinearizedModel:
    """Package a converged fit for closed-form re-identification: linearize_at
    the fitted parameters. The LM takes the same central differences, so its
    Jacobian is fit.jacobian bit for bit."""
    if not fit.converged:
        raise ValueError("linearization requires a converged fit")
    return linearize_at(fit.params, fixed, program)


def normal_solve_operator(jacobian: np.ndarray, scheme: WeightingScheme) -> np.ndarray:
    """G = (J^T W J)^-1 J^T W as one (6, N) operator.

    The normal matrix is column-equilibrated before the solve; the
    condition estimate (and the singularity threshold) applies to the
    equilibrated matrix, making the test scale-invariant in the parameter
    units.
    """
    b = scheme.apply(jacobian).T  # J^T W, shape (k, N)
    a = b @ jacobian
    d = np.sqrt(np.diag(a))
    if np.any(d <= 0.0) or not np.all(np.isfinite(a)):
        raise SingularNormalMatrix("a parameter column of the weighted Jacobian vanishes")
    a_scaled = a / np.outer(d, d)
    if np.linalg.cond(a_scaled) > COND_LIMIT:
        raise SingularNormalMatrix(
            "normal matrix is numerically singular: some parameter combination "
            "is not identifiable under this program/weighting"
        )
    try:
        g = np.linalg.solve(a_scaled, b / d[:, None])
    except np.linalg.LinAlgError as err:
        raise SingularNormalMatrix(str(err)) from None
    return g / d[:, None]


def reidentify_linear(lin: LinearizedModel, scheme: WeightingScheme,
                      exp: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Closed-form weighted least-squares solution of the linearized problem.

    Returns the raw parameter vector (it may leave the admissible cone
    under large noise); equals p* exactly for Exp = Mod(p*) and zero noise.
    """
    exp = np.asarray(exp, dtype=float)
    noise = np.asarray(noise, dtype=float)
    g = normal_solve_operator(lin.jacobian, scheme)
    return lin.p_star + g @ (exp + noise - lin.mod_star)


def _nonzero_reference(p_star) -> np.ndarray:
    ref = p_star.as_vector() if isinstance(p_star, HardeningParams) else np.asarray(p_star, dtype=float)
    if np.any(ref == 0.0):
        raise ZeroReferenceParameter("normalized variances need nonzero reference parameters")
    return ref


def normalized_variances(cloud, p_star) -> np.ndarray:
    """Population variances (divisor n) of p_i / p*_i over the cloud, in the
    fixed parameter order."""
    cloud = np.atleast_2d(np.asarray(cloud, dtype=float))
    return np.var(cloud / _nonzero_reference(p_star)[None, :], axis=0)


@dataclass
class CloudReport:
    """Monte Carlo output: the parameter cloud and its summary statistics."""

    cloud: np.ndarray
    p_star: np.ndarray
    size_per_history: dict
    variances: np.ndarray
    outside_cone: np.ndarray

    def members(self) -> list:
        """Cloud rows as HardeningParams where admissible, else None."""
        out = []
        for row, bad in zip(self.cloud, self.outside_cone):
            out.append(None if bad else HardeningParams.from_vector(row))
        return out


def monte_carlo_cloud(
    lin: LinearizedModel,
    scheme: WeightingScheme,
    noise_model: NoiseModel,
    exp: np.ndarray,
    n_instances: int,
    master_seed: int,
    metrics: Mapping[int, MetricSpec],
) -> CloudReport:
    """Re-identify parameters for n_instances independent noise draws.

    Instance j draws its noise from the derived seed (master_seed, j) and
    is re-identified through one shared solve operator, so runs are
    reproducible and prefix-stable in n_instances. The cloud size per
    configured loading history is the mean stress-metric distance to p*,
    evaluated with the full nonlinear model. A zero component of p* makes
    the normalized variances undefined; that is raised before any draw.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    exp = np.asarray(exp, dtype=float)
    _nonzero_reference(lin.p_star)
    g = normal_solve_operator(lin.jacobian, scheme)

    # same association as reidentify_linear so rows match it bit-for-bit
    cloud = np.empty((n_instances, len(lin.p_star)))
    for j in range(n_instances):
        noise = sample_noise(noise_model, exp, (master_seed, j))
        cloud[j] = lin.p_star + g @ (exp + noise - lin.mod_star)

    sizes = {}
    for key, spec in metrics.items():
        dists = mechanics_distances(cloud, lin.p_star, spec)
        sizes[key] = float(np.mean(dists))

    return CloudReport(
        cloud=cloud,
        p_star=lin.p_star.copy(),
        size_per_history=sizes,
        variances=normalized_variances(cloud, lin.p_star),
        outside_cone=np.any(cloud < 0.0, axis=1),
    )
