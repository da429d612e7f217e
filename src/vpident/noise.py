"""Stochastic measurement-error generators and the two-source covariance.

Three additive noise models on a stress vector Exp:

* white(sigma): independent zero-mean normal errors,
* ar(alpha, sigma): first-order autoregressive errors, started from the
  stationary distribution so the sequence is stationary from sample one,
* two_source(sigma1, sigma2): independent white errors plus one shared
  normal amplitude scaling the signal shape Exp / max|Exp| (miscalibration
  type errors), giving the covariance
  Cov_ij = sigma1^2 delta_ij + sigma2^2 Exp_i Exp_j / max|Exp|^2,
  identity plus rank one, which covariance() holds in O(N).

All draws come from a counter-based Philox generator keyed by the seed, so
identical (model, exp, seed) inputs reproduce bit-identical noise on any
platform. For the two-source model the N uncorrelated deviates are drawn
first, then the single correlated amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, UnsupportedModel


@dataclass(frozen=True)
class NoiseModel:
    kind: str  # "white" | "ar" | "two_source"
    sigma: float = 0.0
    alpha: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        if self.kind not in ("white", "ar", "two_source"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("sigma", "sigma1", "sigma2"):
            value = getattr(self, name)
            # false on NaN, and on a value whose variance overflows
            if not (0.0 <= value and value * value < np.inf):
                raise ValueError(f"{name} must be finite and >= 0, with a finite square")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("autoregression coefficient must lie in [0, 1)")

    @classmethod
    def white(cls, sigma: float) -> "NoiseModel":
        return cls("white", sigma=sigma)

    @classmethod
    def ar(cls, alpha: float, sigma: float) -> "NoiseModel":
        return cls("ar", sigma=sigma, alpha=alpha)

    @classmethod
    def two_source(cls, sigma1: float, sigma2: float) -> "NoiseModel":
        return cls("two_source", sigma1=sigma1, sigma2=sigma2)


def _generator(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def sample_noise(model: NoiseModel, exp: np.ndarray, seed) -> np.ndarray:
    """One additive-noise realization for the signal exp under a fixed seed."""
    exp = np.asarray(exp, dtype=float)
    if exp.ndim != 1 or len(exp) == 0:
        raise DegenerateData("signal must be a non-empty vector")
    n = len(exp)
    rng = _generator(seed)
    if model.kind == "white":
        return model.sigma * rng.standard_normal(n)
    if model.kind == "ar":
        eps = rng.standard_normal(n)
        out = np.empty(n)
        # stationary start: Var = sigma^2 / (1 - alpha^2)
        out[0] = model.sigma / np.sqrt(1.0 - model.alpha**2) * eps[0]
        for i in range(1, n):
            out[i] = model.alpha * out[i - 1] + model.sigma * eps[i]
        return out
    # two_source
    peak = np.max(np.abs(exp))
    if peak == 0.0:
        raise DegenerateData("two-source noise needs a nonzero signal to scale against")
    z = rng.standard_normal(n)
    amplitude = rng.standard_normal()
    return model.sigma1 * z + model.sigma2 * amplitude * exp / peak


def sample_noise_matrix(model: NoiseModel, exp: np.ndarray, master_seed: int,
                        n_instances: int) -> np.ndarray:
    """(n_instances, N) noise matrix; row j uses the derived seed
    (master_seed, j), so any prefix equals the shorter run and instances can
    be generated independently by workers."""
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    exp = np.asarray(exp, dtype=float)
    out = np.empty((n_instances, len(exp)))
    for j in range(n_instances):
        out[j] = sample_noise(model, exp, (master_seed, j))
    return out


def has_covariance(model: NoiseModel) -> bool:
    """Whether covariance() has a closed form for the model: white and
    two-source noise do, AR noise does not."""
    return model.kind != "ar"


@dataclass(frozen=True, eq=False)
class Covariance:
    """The noise covariance white * I + shared * s s^T of a signal shape s,
    held in O(N): white noise has shared = 0 (and s = 0), two-source noise
    white = sigma1^2, shared = sigma2^2 and s = Exp / max|Exp|.

    numpy reads it as the dense N x N matrix through the array protocol,
    so np.asarray(cov) materializes it on request."""

    white: float
    shared: float
    s: np.ndarray

    def diagonal(self) -> np.ndarray:
        """The N variances."""
        return self.white + self.shared * (self.s * self.s)

    def __array__(self, dtype=None, copy=None):
        # built fresh on every call, so copy=False is never refused
        dense = self.white * np.eye(len(self.s)) + self.shared * np.outer(self.s, self.s)
        return dense if dtype is None else dense.astype(dtype, copy=False)


def covariance(model: NoiseModel, exp: np.ndarray) -> Covariance:
    """Exact noise covariance of a model with has_covariance()."""
    exp = np.asarray(exp, dtype=float)
    if exp.ndim != 1 or len(exp) == 0:
        raise DegenerateData("signal must be a non-empty vector")
    if not has_covariance(model):
        raise UnsupportedModel(f"no closed-form covariance is provided for the "
                               f"{model.kind.upper()} model")
    if model.kind == "white":
        return Covariance(model.sigma**2, 0.0, np.zeros(len(exp)))
    peak = np.max(np.abs(exp))
    if peak == 0.0:
        raise DegenerateData("two-source covariance needs a nonzero signal")
    return Covariance(model.sigma1**2, model.sigma2**2, exp / peak)
