"""Weighted least-squares identification of the hardening parameters.

The error functional is Resid^T W Resid with a symmetric positive definite
weighting matrix W; minimizing it is the same as minimizing the plain
l2-norm of the whitened residual R Resid (R^T R = W), which is what the
Levenberg-Marquardt loop drives. The solver works on unit-column-scaled
parameters internally so the very different magnitudes of the six
hardening parameters never meet the damping parameter directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constitutive import HardeningParams, MaterialParams, cauchy_response
from .errors import (
    DataError,
    DimensionMismatch,
    FactorizationFailure,
    NonFiniteResidual,
    VpidentError,
)
from .loading import StrainProgram

#: substeps per sample interval of the strain program (fixed so that data
#: generation and identification always share one grid)
N_SUB_RESPONSE = 2


@dataclass
class ExperimentData:
    """N scalar observations (shear stresses, MPa) over a strain abscissa."""

    observations: np.ndarray
    abscissae: np.ndarray

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=float)
        self.abscissae = np.asarray(self.abscissae, dtype=float)
        if self.observations.ndim != 1 or self.abscissae.shape != self.observations.shape:
            raise DataError("observations and abscissae must be equal-length vectors")
        if not (np.all(np.isfinite(self.observations)) and np.all(np.isfinite(self.abscissae))):
            raise DataError("experimental data must be finite")
        if len(self.observations) <= len(HardeningParams.__dataclass_fields__):
            raise DataError(
                f"need more observations than parameters (N > 6), got N = {len(self.observations)}"
            )

    @property
    def n(self) -> int:
        return len(self.observations)


class WeightingScheme:
    """Symmetric positive definite weighting of the residual.

    Identity and diagonal weightings store only the diagonal (identity is
    the diagonal of ones). The inverse of a diagonal-plus-rank-one
    covariance stores the diagonal D, a unit vector u and the scalar t of
    W = D^1/2 (I + t u u^T)^-1 D^1/2, all in O(N). A full matrix is checked
    for positive definiteness by its Cholesky factorization on
    construction, and that factor R (R^T R = W) is kept as the whitening
    factor: any factor M with M^T M = W defines the same functional, which
    the tests pin down. The dense matrix is only materialized on request.
    """

    def __init__(self, diag: np.ndarray | None = None, full: np.ndarray | None = None):
        if (diag is None) == (full is None):
            raise ValueError("a weighting needs exactly one of a diagonal and a full matrix")
        self._diag = None
        self._full = None
        self._u = None
        if diag is not None:
            d = np.asarray(diag, dtype=float)
            if d.ndim != 1:
                raise FactorizationFailure("diagonal weights must form a vector")
            if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
                raise FactorizationFailure("diagonal weighting must be strictly positive")
            self._diag = d
        else:
            w = np.asarray(full, dtype=float)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise FactorizationFailure("weighting matrix must be square")
            scale = np.max(np.abs(w))
            if not np.isfinite(scale):
                raise FactorizationFailure("weighting matrix must be finite")
            if scale == 0.0 or np.max(np.abs(w - w.T)) > 1.0e-10 * scale:
                raise FactorizationFailure("weighting matrix must be symmetric")
            w = 0.5 * (w + w.T)
            try:
                self._root = np.linalg.cholesky(w).T
            except np.linalg.LinAlgError:
                raise FactorizationFailure("weighting matrix is not positive definite") from None
            self._full = w

    @classmethod
    def identity(cls, n: int) -> "WeightingScheme":
        return cls(diag=np.ones(n))

    @classmethod
    def diagonal(cls, diag) -> "WeightingScheme":
        return cls(diag=diag)

    @classmethod
    def full(cls, matrix) -> "WeightingScheme":
        return cls(full=matrix)

    @classmethod
    def rank_one_inverse(cls, diag, direction, t: float) -> "WeightingScheme":
        """The inverse of the covariance D^-1/2 (I + a a^T) D^-1/2, with D =
        diag(diag), a = sqrt(t) u and u = direction / |direction|. By
        Sherman-Morrison it is W = D^1/2 (I - gamma a a^T) D^1/2 with gamma =
        1 / (1 + t), and it whitens with R = (I - delta u u^T) D^1/2, delta =
        1 - sqrt(gamma), so that R^T R = W. t = 0 leaves the diagonal
        weighting D."""
        scheme = cls(diag=diag)
        if not 0.0 <= t < np.inf:
            raise FactorizationFailure("rank-one weight must be finite and >= 0")
        if t == 0.0:
            return scheme
        u = scheme._check(direction)
        norm = np.linalg.norm(u)
        if u.ndim != 1 or not 0.0 < norm < np.inf:
            raise FactorizationFailure("rank-one direction must be a finite nonzero vector")
        root = np.sqrt(1.0 + t)
        scheme._u = u / norm
        scheme._v = np.sqrt(scheme._diag) * scheme._u  # W = D - c v v^T
        scheme._c = t / (1.0 + t)  # 1 - gamma, without cancellation
        scheme._delta = t / (1.0 + t + root)  # 1 - sqrt(gamma), likewise
        return scheme

    @property
    def n(self) -> int:
        return len(self._diag if self._full is None else self._full)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise DimensionMismatch(f"expected leading dimension {self.n}, got {x.shape[0]}")
        return x

    def matrix(self) -> np.ndarray:
        """Materialize W as a dense array."""
        if self._full is not None:
            return self._full.copy()
        w = np.diag(self._diag)
        if self._u is not None:
            w -= self._c * np.outer(self._v, self._v)
        return w

    def quadratic(self, resid: np.ndarray) -> float:
        """Resid^T W Resid."""
        r = self._check(resid)
        if self._full is not None:
            return float(r @ (self._full @ r))
        if self._u is not None:
            rw = self.whiten(r)
            return float(rw @ rw)
        return float(r @ (self._diag * r))

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """R x (R^T R = W) for a vector or column-stacked matrix."""
        x = self._check(x)
        if self._full is not None:
            return self._root @ x
        s = np.sqrt(self._diag)
        y = s * x if x.ndim == 1 else s[:, None] * x
        if self._u is not None:
            y -= self._delta * np.multiply.outer(self._u, self._u @ y)
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x for a vector or column-stacked matrix."""
        x = self._check(x)
        if self._full is not None:
            return self._full @ x
        y = self._diag * x if x.ndim == 1 else self._diag[:, None] * x
        if self._u is not None:
            y -= self._c * np.multiply.outer(self._v, self._v @ x)
        return y


def model_response(p, fixed: MaterialParams, program: StrainProgram) -> np.ndarray:
    """Cauchy shear stress at every sample point of the program."""
    vec = p.as_vector() if isinstance(p, HardeningParams) else np.asarray(p, dtype=float)
    return model_response_batch(vec[None, :], fixed, program)[0]


def model_response_batch(pvecs: np.ndarray, fixed: MaterialParams,
                         program: StrainProgram) -> np.ndarray:
    """(M, N) shear-stress responses for a batch of parameter vectors,
    streamed from the integrator one sample at a time."""
    out = np.empty((len(pvecs), program.n_points))

    def keep_shear(i, t):
        out[:, i] = t[1]

    cauchy_response(program.deformation_gradients(), program.times(), fixed, pvecs,
                    n_sub=N_SUB_RESPONSE, sink=keep_shear)
    return out


#: relative central-difference step, and its absolute floor for parameters
#: sitting at or near zero
FD_REL_STEP = 1.0e-6
FD_ABS_FLOOR = 1.0e-8

#: Levenberg-Marquardt termination and damping. LM_TOL_G applies to the
#: whitened gradient measured on unit-column-scaled parameters (so it is
#: meaningful across mixed parameter units), LM_TOL_F to the relative
#: decrease of the error functional on accepted steps, and to the decrease
#: an undamped Gauss-Newton step promises once the damping passes
#: LM_LAMBDA_MAX.
LM_TOL_G = 1.0e-8
LM_TOL_F = 1.0e-12
LM_MAX_ITER = 200
LM_LAMBDA0 = 1.0e-3
LM_LAMBDA_FACTOR = 10.0
LM_LAMBDA_MAX = 1.0e12


def fd_step_sizes(pvec: np.ndarray) -> np.ndarray:
    """Central-difference steps: relative with an absolute floor."""
    return np.maximum(FD_REL_STEP * np.abs(pvec), FD_ABS_FLOOR)


def _response_and_jacobian(
        p, response_batch: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mod(p) and its (N, k) central-difference Jacobian from one
    response_batch call on the rows [p, p+h_1, p-h_1, ..., p+h_k, p-h_k]."""
    pvec = p.as_vector() if isinstance(p, HardeningParams) else np.asarray(p, dtype=float)
    k = len(pvec)
    h = fd_step_sizes(pvec)
    rows = np.tile(pvec, (2 * k + 1, 1))
    for i in range(k):
        rows[2 * i + 1, i] += h[i]
        rows[2 * i + 2, i] -= h[i]
    values = response_batch(rows)
    jac = (values[1::2] - values[2::2]) / (2.0 * h[:, None])
    return values[0], np.ascontiguousarray(jac.T)


def response_and_jacobian_fd(p, fixed: MaterialParams,
                             program: StrainProgram) -> tuple[np.ndarray, np.ndarray]:
    """model_response and jacobian_fd at p from one integrator pass over p
    and its 2k central-difference probes. Rows of the batch are computed
    independently, so both equal the separate calls bit for bit."""
    return _response_and_jacobian(p, lambda rows: model_response_batch(rows, fixed, program))


def jacobian_fd(p, fixed: MaterialParams, program: StrainProgram) -> np.ndarray:
    """(N, 6) central-difference sensitivity of the model response, columns
    in the fixed parameter order."""
    return response_and_jacobian_fd(p, fixed, program)[1]


@dataclass
class FitResult:
    """Least-squares fit: the final iterate x, the error functional phi and
    the Jacobian there, and the (iteration, phi, damping, accepted) history."""

    x: np.ndarray
    phi: float
    iterations: int
    jacobian: np.ndarray
    converged: bool
    history: list = field(default_factory=list)

    @property
    def params(self) -> HardeningParams:
        """x as hardening parameters (fits of the six-parameter model)."""
        return HardeningParams.from_vector(self.x)


def fit_least_squares(
    start: np.ndarray,
    observations: np.ndarray,
    response_batch: Callable[[np.ndarray], np.ndarray],
    scheme: WeightingScheme,
    lower_bound: float | None = 0.0,
) -> FitResult:
    """Damped least squares on the whitened residual observations - response.

    response_batch maps (M, k) parameter rows to (M, N) responses; the
    Jacobian is taken by central differences through the same function.
    The damping parameter grows by LM_LAMBDA_FACTOR on rejected steps and
    shrinks on accepted ones, accepted steps never increase the functional,
    and candidate iterates are clipped to the lower bound before they are
    evaluated. A component sitting at the lower bound whose gradient points
    below it is held fixed for the iteration: it leaves the damped solve and
    the gradient test. Without an active bound both see every component.

    Every candidate (the start too) is evaluated in one response_batch call
    together with its 2k central-difference probes, so an accepted step
    already carries the Jacobian at the new iterate: one call per trial.
    response_batch must therefore compute every row independently of the
    other rows of its batch, bit for bit, as the batched integrator does;
    otherwise residuals and Jacobians change at round-off level with what a
    row is batched with. If that joined call raises a VpidentError, the
    trial is evaluated alone and its phi logged, but it is rejected: a trial
    is accepted only together with its Jacobian. (Its probe rows would fail
    again.) The start has no such fallback.
    """
    obs = np.asarray(observations, dtype=float)
    p = np.asarray(start, dtype=float).copy()
    if lower_bound is not None:
        p = np.maximum(p, lower_bound)

    def residual(values: np.ndarray) -> np.ndarray:
        r = obs - values
        if not np.all(np.isfinite(r)):
            raise NonFiniteResidual("model response is not finite")
        return r

    if obs.ndim != 1:
        raise DimensionMismatch("observations must form a vector")
    values, j = _response_and_jacobian(p, response_batch)
    r = residual(values)
    if len(r) != len(obs):
        raise DimensionMismatch("response length does not match observations")
    phi = scheme.quadratic(r)
    lam = LM_LAMBDA0
    history = [(0, phi, lam, True)]
    converged = False
    iterations = 0

    for it in range(1, LM_MAX_ITER + 1):
        iterations = it
        jw = scheme.whiten(j)
        rw = scheme.whiten(r)
        grad = jw.T @ rw
        a = jw.T @ jw
        dcol = np.sqrt(np.diag(a))
        dcol[dcol == 0.0] = 1.0
        g_scaled = grad / dcol
        # Clipping the step of a component at the bound whose descent
        # direction (grad) points below it would spoil every damped step and
        # leave the fit crawling along the bound, so it is held fixed.
        free = np.ones(len(p), dtype=bool)
        if lower_bound is not None:
            free = ~((p <= lower_bound) & (grad < 0.0))
        if np.max(np.abs(g_scaled[free]), initial=0.0) < LM_TOL_G:
            converged = True
            break
        a_free = (a / np.outer(dcol, dcol))[np.ix_(free, free)]
        g_free = g_scaled[free]

        accepted = False
        while lam <= LM_LAMBDA_MAX:
            q = np.zeros(len(p))
            try:
                q[free] = np.linalg.solve(a_free + lam * np.eye(len(g_free)), g_free)
            except np.linalg.LinAlgError:
                lam *= LM_LAMBDA_FACTOR
                continue
            candidate = p + q / dcol
            if lower_bound is not None:
                candidate = np.maximum(candidate, lower_bound)
            try:
                values, j_new = _response_and_jacobian(candidate, response_batch)
            except VpidentError:  # a failing probe row must not end the fit
                values, j_new = response_batch(candidate[None, :])[0], None
            r_new = residual(values)
            phi_new = scheme.quadratic(r_new)
            if phi_new < phi and j_new is not None:
                rel_drop = (phi - phi_new) / max(phi, np.finfo(float).tiny)
                p, r, phi, j = candidate, r_new, phi_new, j_new
                lam = max(lam / LM_LAMBDA_FACTOR, 1.0e-14)
                history.append((it, phi, lam, True))
                accepted = True
                if rel_drop < LM_TOL_F:
                    converged = True
                break
            lam *= LM_LAMBDA_FACTOR
            history.append((it, phi_new, lam, False))
        if not accepted:
            # The damping ran out. At a minimum reached to round-off every
            # trial can come out above phi; the fit has converged if an
            # undamped Gauss-Newton step promises no relative decrease of
            # more than LM_TOL_F.
            try:
                decrement = g_free @ np.linalg.solve(a_free, g_free)
            except np.linalg.LinAlgError:
                decrement = np.inf
            converged = bool(decrement <= LM_TOL_F * phi)
            break
        if converged:
            break

    return FitResult(p, phi, iterations, j, converged, history)


def levenberg_marquardt(
    start: HardeningParams,
    data: ExperimentData,
    scheme: WeightingScheme,
    fixed: MaterialParams,
    program: StrainProgram,
) -> FitResult:
    """Identify the hardening parameters from measured shear stresses."""
    if data.n != program.n_points:
        raise DimensionMismatch(
            f"data has {data.n} observations but the program has {program.n_points} sample points"
        )
    return fit_least_squares(
        start.as_vector(),
        data.observations,
        lambda probes: model_response_batch(probes, fixed, program),
        scheme,
        lower_bound=0.0,
    )
