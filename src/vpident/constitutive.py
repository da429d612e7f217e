"""Finite-strain viscoplasticity with combined isotropic-kinematic hardening.

The material stores elastic energy in a compressible neo-Hookean-type
potential and hardening energy in two saturating backstress terms plus a
quadratic isotropic term. Flow is overstress-driven with a power-law
(Perzyna) multiplier, and the inelastic metric tensors evolve so that
their determinants stay at one (incompressible flow).

All stress expressions are the exact derivatives of the potentials; the
central-difference checks live in the test suite only. The single-point
functions take general 3x3 tensors. The integrator advances a whole batch
of hardening-parameter sets along one shared plane strain path, so Monte
Carlo work costs a single pass; it works on the five plane components of
each tensor.

Time stepping is first order: the elastic trial stress is evaluated at the
end-of-step strain with frozen internal variables, the flow magnitude is
solved implicitly against a linearized overstress relaxation (which keeps
large steps stable), and the internal tensors are updated in Euler form
followed by a unimodular projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    InvalidProgram,
    InvalidTimeGrid,
    NonPositiveDefinite,
    NonPositiveDeterminant,
    SingularTensor,
    StepFailure,
)
from .tensors import (
    det,
    deviator,
    frobenius_norm,
    inverse,
    is_positive_definite,
    sym,
    trace,
    transpose,
    unimodular,
)

SQ23 = math.sqrt(2.0 / 3.0)

#: Fixed component order of the identified parameter vector.
PARAM_NAMES = ("gamma", "beta", "c1", "c2", "kappa1", "kappa2")

#: |det - 1| allowed for the inelastic metric tensors after a step.
DET_TOL = 1.0e-10


@dataclass(frozen=True)
class HardeningParams:
    """Identified hardening parameters, in the fixed order of PARAM_NAMES.

    gamma  isotropic hardening modulus [MPa]
    beta   isotropic saturation parameter [-]
    c1, c2 kinematic hardening moduli [MPa]
    kappa1, kappa2 kinematic saturation parameters [1/MPa]
    """

    gamma: float
    beta: float
    c1: float
    c2: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"hardening parameter {name} must be finite and >= 0, got {value}")

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in PARAM_NAMES], dtype=float)

    @classmethod
    def from_vector(cls, vec) -> "HardeningParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (6,):
            raise ValueError(f"expected a parameter vector of shape (6,), got {vec.shape}")
        return cls(*(float(v) for v in vec))


@dataclass(frozen=True)
class MaterialParams:
    """Full material record: pre-identified constants plus hardening.

    k     bulk modulus [MPa]
    mu    shear modulus [MPa]
    eta   viscosity [s]
    m     stress exponent [-]
    K     initial yield stress [MPa]
    k0    overstress normalizer [MPa], fixed at 1.0
    """

    k: float
    mu: float
    eta: float
    m: float
    K: float
    hardening: HardeningParams
    k0: float = 1.0

    def __post_init__(self):
        for name in ("k", "mu", "K", "k0", "eta"):
            if not 0.0 < getattr(self, name) < np.inf:  # also false on NaN
                raise ValueError(f"material parameter {name} must be finite and > 0")
        if not 1.0 <= self.m < np.inf:
            raise ValueError("stress exponent m must be finite and >= 1")

    def with_hardening(self, hardening: HardeningParams) -> "MaterialParams":
        return replace(self, hardening=hardening)


@dataclass
class InternalState:
    """Inelastic state: three unit-determinant metric tensors plus the
    accumulated arc length s and its dissipative part sd."""

    Ci: np.ndarray
    C1i: np.ndarray
    C2i: np.ndarray
    s: float
    sd: float

    @classmethod
    def initial(cls) -> "InternalState":
        return cls(np.eye(3), np.eye(3), np.eye(3), 0.0, 0.0)


@dataclass
class StressOutput:
    """Stress quantities evaluated at one (deformation, state) pair."""

    second_pk: np.ndarray
    cauchy: np.ndarray
    backstress_total: np.ndarray
    R: float
    overstress_f: float
    driving_force_F: float
    lambda_i: float


# ---------------------------------------------------------------------------
# potentials


def _require_spd(a: np.ndarray) -> None:
    # Products like C Ci^-1 are only similar to an SPD tensor, so admissibility
    # is checked on the symmetric part and the determinant.
    if float(det(a)) <= 0.0 or not bool(is_positive_definite(sym(a))):
        raise NonPositiveDefinite("argument must be (similar to) symmetric positive definite")


def elastic_energy(a: np.ndarray, params: MaterialParams) -> float:
    """Stored elastic energy per reference volume [MPa]."""
    a = np.asarray(a, dtype=float)
    _require_spd(a)
    lnj = 0.5 * math.log(float(det(a)))
    return 0.5 * params.k * lnj**2 + 0.5 * params.mu * (float(trace(unimodular(a))) - 3.0)


def kinematic_energy(a: np.ndarray, c: float) -> float:
    """Backstress potential (c/4)(tr unimodular(A) - 3) per reference volume."""
    a = np.asarray(a, dtype=float)
    _require_spd(a)
    return 0.25 * c * (float(trace(unimodular(a))) - 3.0)


# ---------------------------------------------------------------------------
# stress relations (3x3; leading axes broadcast)


def _pk2_kernel(c_inv: np.ndarray, a_el: np.ndarray, k: float, mu: float) -> np.ndarray:
    """Second Piola-Kirchhoff stress from C^-1 and A = C Ci^-1."""
    lnj = 0.5 * np.log(det(a_el))
    t = k * lnj[..., None, None] * c_inv + mu * np.matmul(c_inv, deviator(unimodular(a_el)))
    return sym(t)


def second_pk_stress(C: np.ndarray, state: InternalState, params: MaterialParams) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    return _pk2_kernel(inverse(C), np.matmul(C, inverse(state.Ci)), params.k, params.mu)


def backstresses(state: InternalState, params: MaterialParams):
    """Both backstresses and their sum, on the reference configuration."""
    # Xk = sym(ck/2 Ci^-1 dev unimodular(Bk)), with Bk = Ci Cki^-1
    ci_inv, hard = inverse(state.Ci), params.hardening
    x1, x2 = (sym(0.5 * c * np.matmul(ci_inv, deviator(unimodular(state.Ci @ inverse(cki)))))
              for cki, c in ((state.C1i, hard.c1), (state.C2i, hard.c2)))
    return x1, x2, x1 + x2


def stress_state(F: np.ndarray, state: InternalState, params: MaterialParams) -> StressOutput:
    """Evaluate every stress-like quantity at one deformation/state pair."""
    F = np.asarray(F, dtype=float)
    j = float(det(F))
    if j <= 0.0:
        raise NonPositiveDeterminant("deformation gradient must have det F > 0")
    C = np.matmul(transpose(F), F)
    t = second_pk_stress(C, state, params)
    _, _, x = backstresses(state, params)
    hard = params.hardening
    r = hard.gamma * (state.s - state.sd)
    # flow direction xi = mu dev A - (c1 dev B1 + c2 dev B2)/2 = dev(C T - Ci X),
    # with A = C Ci^-1 and Bk = Ci Cki^-1 made unimodular
    dev = [deviator(unimodular(np.matmul(a, inverse(b))))
           for a, b in ((C, state.Ci), (state.Ci, state.C1i), (state.Ci, state.C2i))]
    drive = float(frobenius_norm(params.mu * dev[0] - 0.5 * hard.c1 * dev[1]
                                 - 0.5 * hard.c2 * dev[2]))
    f = drive - SQ23 * (params.K + r)
    lam = (max(f, 0.0) / params.k0) ** params.m / params.eta
    cauchy = sym(np.matmul(F, np.matmul(t, transpose(F))) / j)
    return StressOutput(t, cauchy, x, r, f, drive, lam)


# ---------------------------------------------------------------------------
# plane-block algebra of the batched integrator
#
# On a plane path from the isotropic start, every tensor keeps the block form
# [[2x2, 0], [0, zz]]. A batch of them is held components first, as the rows
# [xx, xy, yx, yy, zz] of a (5, ...) array; rows 0:4 are the 2x2 block.

_PLANE = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
_P_T = [0, 2, 1, 3, 4]  # rows of the transpose


def _plane(a: np.ndarray) -> np.ndarray:
    """(5, ...) plane components of (..., 3, 3) tensors."""
    return np.stack([a[..., i, j] for i, j in _PLANE])


def _pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product A B. One factor has the full batch shape; the other has as
    many axes and broadcasts against it."""
    shape = a.shape if a.size >= b.size else b.shape
    out = np.empty(shape)
    a2 = a[:4].reshape((2, 2) + a.shape[1:])
    b2 = b[:4].reshape((2, 2) + b.shape[1:])
    block = out[:4].reshape((2, 2) + shape[1:])
    np.multiply(a2[:, :1], b2[:1], out=block)
    block += a2[:, 1:] * b2[1:]
    np.multiply(a[4], b[4], out=out[4])
    return out


def _pdet(a: np.ndarray) -> np.ndarray:
    return (a[0] * a[3] - a[1] * a[2]) * a[4]


def _pinv(a: np.ndarray) -> np.ndarray:
    """Inverse; SingularTensor on a zero determinant."""
    det2 = a[0] * a[3] - a[1] * a[2]
    if not (det2 * a[4]).all():
        raise SingularTensor("inverse of a tensor with zero determinant")
    out = a[[3, 1, 2, 0, 4]]
    out[:4] /= det2
    np.negative(out[1:3], out=out[1:3])
    np.reciprocal(a[4], out=out[4])
    return out


def _psym(a: np.ndarray) -> np.ndarray:
    """Symmetrize in place: (A + A^T)/2 kills round-off drift."""
    a[1:3] = 0.5 * (a[1] + a[2])
    return a


def _pdev_unimodular(a: np.ndarray) -> np.ndarray:
    """dev((det A)^(-1/3) A); requires det A > 0."""
    d = _pdet(a)
    if not 0.0 < d.min() <= d.max() < np.inf:  # also false on NaN
        raise NonPositiveDeterminant("unimodular part requires det(A) > 0")
    u = a / np.cbrt(d)
    third = (u[0] + u[3] + u[4]) / 3.0
    u[0::3] -= third
    u[4] -= third
    return u


# ---------------------------------------------------------------------------
# time integration


def _flow_multiplier(f_trial, h_eff, mat: MaterialParams, dt: float):
    """Implicit flow magnitude: solve x + c (x/k0)^m = f_trial, with
    c = h_eff dt / eta, for the relaxed overstress x; then
    lambda = (x/k0)^m / eta.

    The left-hand side is increasing and convex, so Newton converges
    monotonically from any start above the root; it starts from the smaller
    of the root's bounds f_trial and k0 (f_trial/c)^(1/m). Entries with
    f_trial <= 0 stay at zero. Each entry is frozen as soon as it converges,
    which keeps results independent of how the batch is chunked.
    """
    ft = np.maximum(f_trial, 0.0)
    c = np.maximum(h_eff, 0.0) * (dt / mat.eta)
    cm = c * (mat.m / mat.k0)
    # where c = 0 the second bound is void: f_trial / c stays inf
    ratio = np.divide(ft, c, out=np.full_like(ft, np.inf), where=c > 0.0)
    x = np.minimum(ft, mat.k0 * ratio ** (1.0 / mat.m))
    tol = 1.0e-12 * np.maximum(ft, mat.k0)
    for _ in range(80):
        r = x / mat.k0
        rm1 = r ** (mat.m - 1.0)
        rm = r * rm1
        phi = x + c * rm - ft
        done = np.abs(phi) <= tol
        if done.all():
            break
        x = np.where(done, x, x - phi / (1.0 + cm * rm1))
    else:
        raise StepFailure("implicit flow solve did not converge")
    if not np.isfinite(x).all():
        raise StepFailure("implicit flow solve produced non-finite values")
    return rm / mat.eta


def _project_metric(a: np.ndarray):
    """Symmetrize and rescale to det = 1 (StepFailure if det drifted to
    <= 0); returns the projected tensors and their determinants."""
    d = _pdet(_psym(a))
    if not 0.0 < d.min() <= d.max() < np.inf:  # also false on NaN
        raise StepFailure("inelastic metric lost positive determinant (reduce the time step)")
    out = a / np.cbrt(d)
    d_out = _pdet(out)
    if (np.abs(d_out - 1.0) > DET_TOL).any():
        raise StepFailure("unimodular projection failed to restore det = 1")
    return out, d_out


def _advance(state, C_new, mat: MaterialParams, hp, dt: float):
    """One integration step for the whole batch to end-of-step strain C_new,
    given as (5, 1) plane components.

    state = (S, s, sd): S holds [Ci, C1i, C2i] as (5, 3, M) plane
    components; hp = (gamma, beta, c1, c2, kappa1, kappa2) as (M,) arrays.
    Each tensor operation runs once on the stack. Elastic entries pass
    through bit-identically.
    """
    S, s, sd = state
    gam, bet, c1, c2, kap1, kap2 = hp
    s_e = s - sd
    # Trial step with frozen state: dev unimodular [C Ci^-1, Ci C1i^-1,
    # Ci C2i^-1] = [A, B1, B2], whose first slot becomes the flow direction
    # xi = mu dev A - (c1 dev B1 + c2 dev B2)/2 = dev(C T - Ci X). The stack
    # [xi, dev B1, dev B2] is the left factor of the flow update.
    lhs = np.empty_like(S)
    lhs[:, 0] = C_new
    lhs[:, 1:] = S[:, :1]
    dev = _pdev_unimodular(_pmul(lhs, _pinv(S)))
    xi = dev[:, 0]
    xi *= mat.mu
    xi -= 0.5 * c1 * dev[:, 1]
    xi -= 0.5 * c2 * dev[:, 2]
    drive = np.sqrt((xi * xi).sum(axis=0))
    f_trial = drive - SQ23 * (mat.K + gam * s_e)
    plastic = f_trial > 0.0
    if not plastic.any():
        return state

    # Relaxation modulus for the implicit flow solve: elastic slope plus the
    # hardening slopes with their saturation (recovery) corrections. Each
    # backstress contribution fades as it saturates; without the correction
    # the overstress carries an O(dt) bias in developed flow.
    safe_drive = np.where(plastic, drive, 1.0)
    n_dot_b1, n_dot_b2 = (dev[:, :1] * dev[:, 1:]).sum(axis=0) / safe_drive
    h_eff = (
        2.0 * mat.mu
        + c1 * (1.0 - 0.5 * kap1 * c1 * n_dot_b1)
        + c2 * (1.0 - 0.5 * kap2 * c2 * n_dot_b2)
        + (2.0 / 3.0) * gam * (1.0 - bet * s_e)
    )
    lam = np.where(plastic, _flow_multiplier(f_trial, h_eff, mat, dt), 0.0)

    rates = np.array([2.0 * dt * lam / safe_drive, dt * lam * kap1 * c1, dt * lam * kap2 * c2])
    S_new, d_new = _project_metric(S + rates * _pmul(dev, S))
    # Sylvester criterion on the symmetric projected tensors
    minor2 = S_new[0] * S_new[3] - S_new[1] * S_new[2]
    ok = ((S_new[0] > 0.0) & (minor2 > 0.0) & (d_new > 0.0)).all(axis=0)
    if not (ok | ~plastic).all():
        raise StepFailure("inelastic metric lost positive definiteness (reduce the time step)")

    ds = dt * SQ23 * lam
    return (
        np.where(plastic, S_new, S),
        np.where(plastic, s + ds, s),
        np.where(plastic, sd + bet * ds * s_e, sd),
    )


def _hp_arrays(pvecs: np.ndarray):
    pvecs = np.asarray(pvecs, dtype=float)
    if pvecs.ndim != 2 or pvecs.shape[1] != 6:
        raise ValueError(f"expected parameter vectors of shape (M, 6), got {pvecs.shape}")
    return tuple(np.ascontiguousarray(pvecs[:, i]) for i in range(6))


def _check_path(F_samples, times, n_sub: int):
    """The sampled path as float arrays, after the shape, plane-block and
    time-grid checks."""
    F_samples = np.asarray(F_samples, dtype=float)
    times = np.asarray(times, dtype=float)
    if F_samples.ndim != 3 or F_samples.shape[1:] != (3, 3):
        raise ValueError("F_samples must have shape (T, 3, 3)")
    if np.any(F_samples[:, 2, :2] != 0.0) or np.any(F_samples[:, :2, 2] != 0.0):
        raise InvalidProgram("the batched integrator takes plane paths only: every sampled F "
                             "needs zero xz, yz, zx and zy entries")
    if len(times) != len(F_samples) or len(times) < 1:
        raise ValueError("times and F_samples must have equal nonzero length")
    if len(times) > 1 and np.any(np.diff(times) <= 0.0):
        raise InvalidTimeGrid("sample times must be strictly increasing")
    if n_sub < 1:
        raise InvalidTimeGrid("n_sub must be >= 1")
    return F_samples, times


def run_path(
    F_samples: np.ndarray,
    times: np.ndarray,
    material: MaterialParams,
    pvecs: np.ndarray,
    n_sub: int = 1,
    *,
    sink: Callable[[int, tuple], None],
) -> None:
    """Integrate a batch of parameter sets along one plane deformation path.

    F_samples: (T, 3, 3) deformation gradients at strictly increasing times
    (T,), with zero xz, yz, zx and zy entries (else InvalidProgram); the path
    is linear in F between samples, with n_sub steps per interval. pvecs:
    (M, 6) hardening vectors in PARAM_NAMES order. For every sample index i,
    in order, ``sink(i, state)`` receives the plane state (S, s, sd) after
    that sample (see _advance; i = 0 is the initial state). The sink must
    not modify it; it is the only output.
    """
    F_samples, times = _check_path(F_samples, times, n_sub)
    hp = _hp_arrays(pvecs)
    m = len(hp[0])
    S = np.broadcast_to(np.array([1.0, 0.0, 0.0, 1.0, 1.0])[:, None, None], (5, 3, m)).copy()
    state = (S, np.zeros(m), np.zeros(m))
    # C = F^T F at the end of every substep; w = 1 gives F_samples[i] exactly
    w = np.arange(1, n_sub + 1) / n_sub
    f = _plane(F_samples)[:, :, None]
    f_sub = (1.0 - w) * f[:, :-1] + w * f[:, 1:]
    c_sub = _pmul(f_sub[_P_T], f_sub)

    sink(0, state)
    for i in range(1, len(times)):
        dt = (times[i] - times[i - 1]) / n_sub
        for j in range(n_sub):
            state = _advance(state, c_sub[:, i - 1, j, None], material, hp, dt)
        sink(i, state)


def cauchy_response(
    F_samples: np.ndarray,
    times: np.ndarray,
    material: MaterialParams,
    pvecs: np.ndarray,
    n_sub: int = 1,
    *,
    sink: Callable[[int, np.ndarray], None],
) -> None:
    """Stream the Cauchy stresses at each sample point of a plane path (see
    run_path): ``sink(i, t)`` gets sample i's stresses as the symmetric
    (5, M) plane rows [xx, xy, yx, yy, zz], a fresh array it may overwrite.
    No stress history is stored."""
    F_samples, times = _check_path(F_samples, times, n_sub)
    detF = det(F_samples)
    if np.any(detF <= 0.0):
        raise NonPositiveDeterminant("every sampled F must have det F > 0")
    C_obs = np.matmul(transpose(F_samples), F_samples)
    f, c, c_inv = (_plane(a)[:, :, None] for a in (F_samples, C_obs, inverse(C_obs)))
    k, mu = material.k, material.mu

    def push_forward(i, state):
        # second Piola-Kirchhoff stress from C^-1 and A = C Ci^-1, then F T F^T / J
        a_el = _pmul(c[:, i], _pinv(state[0][:, 0]))
        lnj = 0.5 * np.log(_pdet(a_el))
        t = k * lnj * c_inv[:, i] + mu * _pmul(c_inv[:, i], _pdev_unimodular(a_el))
        t = _pmul(f[:, i], _pmul(_psym(t), f[_P_T, i])) / detF[i]
        sink(i, _psym(t))

    run_path(F_samples, times, material, pvecs, n_sub=n_sub, sink=push_forward)
