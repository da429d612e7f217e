"""Dense 3x3 tensor algebra for the constitutive equations.

Every operation accepts arrays of shape ``(..., 3, 3)`` and broadcasts over
the leading axes. They serve the single-point stress functions (the test
reference of the plane-block integrator), the deformation histories and the
integrator's once-per-path set-up. Determinant and inverse use closed-form
cofactors: at this size they beat any factorization on speed and accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDeterminant, SingularTensor

I3 = np.eye(3)


def det(a: np.ndarray) -> np.ndarray | float:
    a = np.asarray(a)
    d = (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
    )
    return d


def trace(a: np.ndarray) -> np.ndarray | float:
    a = np.asarray(a)
    return a[..., 0, 0] + a[..., 1, 1] + a[..., 2, 2]


def transpose(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(np.asarray(a), -1, -2)


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part (A + A^T)/2; used to kill round-off drift."""
    a = np.asarray(a)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def deviator(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return a - (trace(a) / 3.0)[..., None, None] * I3


def frobenius_norm(a: np.ndarray) -> np.ndarray | float:
    a = np.asarray(a)
    return np.sqrt(np.sum(a * a, axis=(-2, -1)))


def unimodular(a: np.ndarray) -> np.ndarray:
    """Volume-preserving part (det A)^(-1/3) A; requires det A > 0."""
    a = np.asarray(a)
    d = det(a)
    if (d <= 0.0).any() or not np.isfinite(d).all():
        raise NonPositiveDeterminant("unimodular part requires det(A) > 0")
    return a / np.cbrt(d)[..., None, None]


def inverse(a: np.ndarray) -> np.ndarray:
    """Closed-form cofactor inverse. Raises SingularTensor on det = 0.

    The determinant is expanded along the first row from the cofactors
    already computed; those are the products and signs of det(), so the
    bits match it.
    """
    a = np.asarray(a)
    out = np.empty(a.shape, dtype=float)
    out[..., 0, 0] = a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1]
    out[..., 0, 1] = a[..., 0, 2] * a[..., 2, 1] - a[..., 0, 1] * a[..., 2, 2]
    out[..., 0, 2] = a[..., 0, 1] * a[..., 1, 2] - a[..., 0, 2] * a[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 2] * a[..., 2, 0] - a[..., 1, 0] * a[..., 2, 2]
    out[..., 1, 1] = a[..., 0, 0] * a[..., 2, 2] - a[..., 0, 2] * a[..., 2, 0]
    out[..., 1, 2] = a[..., 0, 2] * a[..., 1, 0] - a[..., 0, 0] * a[..., 1, 2]
    out[..., 2, 0] = a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]
    out[..., 2, 1] = a[..., 0, 1] * a[..., 2, 0] - a[..., 0, 0] * a[..., 2, 1]
    out[..., 2, 2] = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    d = a[..., 0, 0] * out[..., 0, 0] + a[..., 0, 1] * out[..., 1, 0] + a[..., 0, 2] * out[..., 2, 0]
    if (d == 0.0).any():
        raise SingularTensor("inverse of a tensor with zero determinant")
    out /= d[..., None, None]
    return out


def is_positive_definite(a: np.ndarray) -> np.ndarray | bool:
    """Sylvester criterion for symmetric input, broadcast over the batch."""
    a = np.asarray(a)
    m1 = a[..., 0, 0]
    m2 = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return (m1 > 0.0) & (m2 > 0.0) & (det(a) > 0.0)
