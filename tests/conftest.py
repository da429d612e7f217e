import numpy as np
import pytest

from vpident import HardeningParams, MaterialParams, cauchy_response, torsion_program
from vpident.constitutive import _PLANE


@pytest.fixture(scope="session")
def truth():
    return HardeningParams(gamma=435.22, beta=2.625, c1=1661.7, c2=24672.0,
                           kappa1=0.003810, kappa2=0.004282)


@pytest.fixture(scope="session")
def material(truth):
    return MaterialParams(k=135600.0, mu=52000.0, eta=5.0e5, m=2.26, K=335.0,
                          hardening=truth)


@pytest.fixture(scope="session")
def default_program():
    program, _ = torsion_program(0.5, [0.25, -0.2, 0.3], 800, 500.0)
    return program


@pytest.fixture(scope="session")
def small_program():
    """Cheap non-monotonic program for tests that fit repeatedly."""
    program, _ = torsion_program(0.5, [0.12, -0.08, 0.15], 60, 120.0)
    return program


def random_spd(rng, scale=0.1):
    g = rng.normal(size=(3, 3)) * scale
    a = np.eye(3) + 0.5 * (g + g.T)
    return a @ a.T


def random_spd_unimodular(rng, scale=0.1):
    a = random_spd(rng, scale)
    return a / np.cbrt(np.linalg.det(a))


def _full(x):
    """(..., 3, 3) tensors with the (5, ...) plane components x."""
    out = np.zeros(x.shape[1:] + (3, 3))
    for row, (i, j) in zip(x, _PLANE):
        out[..., i, j] = row
    return out


def stored_cauchy(F_samples, times, material, pvecs, n_sub=1):
    """(M, T, 3, 3) Cauchy stress histories, collected from cauchy_response's
    sink: the program streams them as plane rows and stores none."""
    rows = []
    cauchy_response(F_samples, times, material, np.atleast_2d(pvecs), n_sub=n_sub,
                    sink=lambda i, t: rows.append(_full(t)))
    return np.stack(rows, axis=1)


def metric_trajectories(spec, pvecs):
    """stored_cauchy along a mechanics metric's loading path and time grid."""
    times, f = spec.history.grid(spec.n_steps)
    return stored_cauchy(f, times, spec.material, pvecs, n_sub=1)
