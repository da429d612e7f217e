"""Finite-strain viscoplasticity with combined isotropic-kinematic hardening.

The material stores elastic energy in a compressible neo-Hookean-type
potential and hardening energy in two saturating backstress terms plus a
quadratic isotropic term. Flow is overstress-driven with a power-law
(Perzyna) multiplier, and the inelastic metric tensors evolve so that
their determinants stay at one (incompressible flow).

All stress expressions are the exact derivatives of the potentials; the
central-difference checks live in the test suite only. The integrator
advances a whole batch of hardening-parameter sets along one shared strain
path with vectorized 3x3 algebra, so Monte Carlo work costs a single pass.

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
    InvalidTimeGrid,
    NonPositiveDefinite,
    NonPositiveDeterminant,
    StepFailure,
)
from .tensors import (
    I3,
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
            if getattr(self, name) <= 0.0:
                raise ValueError(f"material parameter {name} must be > 0")
        if self.m < 1.0:
            raise ValueError("stress exponent m must be >= 1")

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
# stress kernels (batched; leading axes broadcast)


def _pk2_kernel(c_inv: np.ndarray, a_el: np.ndarray, k: float, mu: float) -> np.ndarray:
    """Second Piola-Kirchhoff stress from C^-1 and A = C Ci^-1."""
    lnj = 0.5 * np.log(det(a_el))
    t = k * lnj[..., None, None] * c_inv + mu * np.matmul(c_inv, deviator(unimodular(a_el)))
    return sym(t)


def _backstress_kernel(ci_inv: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
    """Backstress from Ci^-1 and B = Ci Cai^-1."""
    x = 0.5 * c * np.matmul(ci_inv, deviator(unimodular(b)))
    return sym(x)


def second_pk_stress(C: np.ndarray, state: InternalState, params: MaterialParams) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    return _pk2_kernel(inverse(C), np.matmul(C, inverse(state.Ci)), params.k, params.mu)


def backstresses(state: InternalState, params: MaterialParams):
    """Both backstresses and their sum, on the reference configuration."""
    ci_inv = inverse(state.Ci)
    x1 = _backstress_kernel(ci_inv, np.matmul(state.Ci, inverse(state.C1i)), params.hardening.c1)
    x2 = _backstress_kernel(ci_inv, np.matmul(state.Ci, inverse(state.C2i)), params.hardening.c2)
    return x1, x2, x1 + x2


def _trial(C, S, S_inv, mat: MaterialParams, c1, c2, r):
    """Trial step at strain C with frozen state S = [Ci, C1i, C2i] (stacked
    on the first axis) and its inverse S_inv; r is the isotropic hardening.

    Returns the stack dev unimodular [C Ci^-1, Ci C1i^-1, Ci C2i^-1] with its
    first slot overwritten by the flow direction xi = mu dev A - (c1 dev B1
    + c2 dev B2)/2, which is dev(C T - Ci X); the drive ||xi||; and the
    overstress f = ||xi|| - sqrt(2/3)(K + r).
    """
    lhs = np.empty_like(S)
    lhs[0] = C
    lhs[1:] = S[0]
    dev = deviator(unimodular(np.matmul(lhs, S_inv)))
    dev[0] = (
        mat.mu * dev[0]
        - 0.5 * np.asarray(c1)[..., None, None] * dev[1]
        - 0.5 * np.asarray(c2)[..., None, None] * dev[2]
    )
    drive = frobenius_norm(dev[0])
    return dev, drive, drive - SQ23 * (mat.K + r)


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
    S = np.stack([state.Ci, state.C1i, state.C2i])
    _, drive, f = _trial(C, S, inverse(S), params, hard.c1, hard.c2, r)
    lam = (max(float(f), 0.0) / params.k0) ** params.m / params.eta
    cauchy = sym(np.matmul(F, np.matmul(t, transpose(F))) / j)
    return StressOutput(t, cauchy, x, r, float(f), float(drive), lam)


# ---------------------------------------------------------------------------
# time integration


def _flow_multiplier(f_trial, h_eff, mat: MaterialParams, dt: float):
    """Implicit flow magnitude: solve x + (h_eff dt / eta)(x/k0)^m = f_trial
    for the relaxed overstress x, then lambda = (x/k0)^m / eta.

    The left-hand side is increasing and convex, so Newton from x = f_trial
    converges monotonically; entries with f_trial <= 0 stay at zero. Each
    entry is frozen as soon as it converges, which keeps results independent
    of how the batch is chunked.
    """
    ft = np.maximum(f_trial, 0.0)
    c = np.maximum(h_eff, 0.0) * (dt / mat.eta)
    cm = c * (mat.m / mat.k0)
    x = ft.copy()
    tol = 1.0e-12 * np.maximum(ft, mat.k0)
    for _ in range(80):
        r = x / mat.k0
        rm = r**mat.m
        phi = x + c * rm - ft
        done = np.abs(phi) <= tol
        if done.all():
            break
        x = np.where(done, x, x - phi / (1.0 + cm * r ** (mat.m - 1.0)))
    else:
        raise StepFailure("implicit flow solve did not converge")
    if not np.isfinite(x).all():
        raise StepFailure("implicit flow solve produced non-finite values")
    return rm / mat.eta


def _project_metric(a: np.ndarray):
    """Symmetrize and rescale to det = 1; StepFailure if det drifted to <= 0.

    Returns the projected tensors and their determinants.
    """
    a = sym(a)
    d = det(a)
    if (d <= 0.0).any() or not np.isfinite(d).all():
        raise StepFailure("inelastic metric lost positive determinant (reduce the time step)")
    out = a / np.cbrt(d)[..., None, None]
    d_out = det(out)
    if (np.abs(d_out - 1.0) > DET_TOL).any():
        raise StepFailure("unimodular projection failed to restore det = 1")
    return out, d_out


def _advance(state, C_new, mat: MaterialParams, hp, dt: float):
    """One integration step for the whole batch to end-of-step strain C_new.

    state = (S, S_inv, s, sd): S stacks [Ci, C1i, C2i] as (3, M, 3, 3) and
    S_inv = inverse(S) is carried with it; hp = (gamma, beta, c1, c2,
    kappa1, kappa2) as broadcastable arrays. Each tensor operation runs once
    on the stack, which gives the same values as three separate calls.
    Elastic entries pass through bit-identically and keep their carried
    inverses.
    """
    S, S_inv, s, sd = state
    gam, bet, c1, c2, kap1, kap2 = hp
    s_e = s - sd
    # dev is the left factor [xi, dev B1, dev B2] of the flow update
    dev, drive, f_trial = _trial(C_new, S, S_inv, mat, c1, c2, gam * s_e)
    xi, dev_b1, dev_b2 = dev
    plastic = f_trial > 0.0
    if not plastic.any():
        return state

    # Relaxation modulus for the implicit flow solve: elastic slope plus the
    # hardening slopes with their saturation (recovery) corrections. Each
    # backstress contribution fades as it saturates; without the correction
    # the overstress carries an O(dt) bias in developed flow.
    safe_drive = np.where(plastic, drive, 1.0)
    n_dot_b1 = np.sum(xi * dev_b1, axis=(-2, -1)) / safe_drive
    n_dot_b2 = np.sum(xi * dev_b2, axis=(-2, -1)) / safe_drive
    h_eff = (
        2.0 * mat.mu
        + c1 * (1.0 - 0.5 * kap1 * c1 * n_dot_b1)
        + c2 * (1.0 - 0.5 * kap2 * c2 * n_dot_b2)
        + (2.0 / 3.0) * gam * (1.0 - bet * s_e)
    )
    lam = np.where(plastic, _flow_multiplier(f_trial, h_eff, mat, dt), 0.0)

    rates = np.stack([2.0 * dt * lam / safe_drive, dt * lam * kap1 * c1, dt * lam * kap2 * c2])
    S_new, d_new = _project_metric(S + rates[..., None, None] * np.matmul(dev, S))
    ok = is_positive_definite(S_new, d_new).all(axis=0)
    if not (ok | ~plastic).all():
        raise StepFailure("inelastic metric lost positive definiteness (reduce the time step)")

    mask = plastic[..., None, None]
    ds = dt * SQ23 * lam
    return (
        np.where(mask, S_new, S),
        np.where(mask, inverse(S_new), S_inv),
        np.where(plastic, s + ds, s),
        np.where(plastic, sd + bet * ds * s_e, sd),
    )


def _hp_arrays(pvecs: np.ndarray):
    pvecs = np.asarray(pvecs, dtype=float)
    if pvecs.ndim != 2 or pvecs.shape[1] != 6:
        raise ValueError(f"expected parameter vectors of shape (M, 6), got {pvecs.shape}")
    return tuple(np.ascontiguousarray(pvecs[:, i]) for i in range(6))


def _check_path(F_samples, times, n_sub: int):
    """The sampled path as float arrays, after the shape and time-grid checks."""
    F_samples = np.asarray(F_samples, dtype=float)
    times = np.asarray(times, dtype=float)
    if F_samples.ndim != 3 or F_samples.shape[1:] != (3, 3):
        raise ValueError("F_samples must have shape (T, 3, 3)")
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
    sink: Callable[[int, tuple], None] | None = None,
):
    """Integrate a batch of parameter sets along one deformation path.

    F_samples: (T, 3, 3) deformation gradients at strictly increasing times
    (T,); the path is linear in F between samples, with n_sub steps per
    interval. pvecs: (M, 6) hardening vectors in PARAM_NAMES order. For
    every sample index i, in order, ``sink(i, state)`` receives the carried
    state (S, S_inv, s, sd) after that sample (see _advance; i = 0 is the
    initial state). The sink must not modify it. Returns the final state
    arrays (Ci, C1i, C2i, s, sd).
    """
    F_samples, times = _check_path(F_samples, times, n_sub)
    hp = _hp_arrays(pvecs)
    m = len(hp[0])
    S = np.broadcast_to(I3, (3, m, 3, 3)).copy()
    state = (S, inverse(S), np.zeros(m), np.zeros(m))

    if sink is not None:
        sink(0, state)
    for i in range(1, len(times)):
        dt = (times[i] - times[i - 1]) / n_sub
        for j in range(1, n_sub + 1):
            w = j / n_sub  # w = 1 gives F_samples[i] exactly
            f_sub = (1.0 - w) * F_samples[i - 1] + w * F_samples[i]
            state = _advance(state, np.matmul(transpose(f_sub), f_sub), material, hp, dt)
        if sink is not None:
            sink(i, state)
    S, _, s, sd = state
    return S[0], S[1], S[2], s, sd


def cauchy_response(
    F_samples: np.ndarray,
    times: np.ndarray,
    material: MaterialParams,
    pvecs: np.ndarray,
    n_sub: int = 1,
    *,
    sink: Callable[[int, np.ndarray], None],
) -> None:
    """Stream the (M, 3, 3) Cauchy stresses at each sample point:
    ``sink(i, cauchy)`` gets sample i's stresses as a fresh array it may
    overwrite. No stress history is stored."""
    F_samples, times = _check_path(F_samples, times, n_sub)
    detF = det(F_samples)
    if np.any(detF <= 0.0):
        raise NonPositiveDeterminant("every sampled F must have det F > 0")
    C_obs = np.matmul(transpose(F_samples), F_samples)
    Cinv_obs = inverse(C_obs)

    def push_forward(i, state):
        t = _pk2_kernel(Cinv_obs[i], np.matmul(C_obs[i], state[1][0]), material.k, material.mu)
        sink(i, sym(np.matmul(F_samples[i], np.matmul(t, transpose(F_samples[i]))) / detF[i]))

    run_path(F_samples, times, material, pvecs, n_sub=n_sub, sink=push_forward)
