import numpy as np
import pytest

from vpident import tensors as tn
from vpident.errors import NonPositiveDeterminant, SingularTensor

from conftest import random_spd


def test_det_identity():
    assert tn.det(np.eye(3)) == 1.0


def test_det_diagonal_product():
    assert tn.det(np.diag([2.0, 3.0, 4.0])) == 24.0


def test_det_equal_rows_singular():
    a = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert tn.det(a) == 0.0


def test_deviator_identity_is_zero():
    assert np.allclose(tn.deviator(np.eye(3)), 0.0, atol=1e-15)


def test_deviator_fixed_point_for_traceless():
    a = np.array([[1.0, 2.0, 0.0], [2.0, -3.0, 1.0], [0.0, 1.0, 2.0]])
    assert np.array_equal(tn.deviator(a), a)


def test_deviator_direct_formula():
    assert np.allclose(tn.deviator(np.diag([3.0, 0.0, 0.0])), np.diag([2.0, -1.0, -1.0]))


def test_unimodular_identity_cases():
    assert np.allclose(tn.unimodular(np.eye(3)), np.eye(3))
    assert np.allclose(tn.unimodular(2.0 * np.eye(3)), np.eye(3))
    expected = np.diag([4.0, 1.0, 1.0]) / 4.0 ** (1.0 / 3.0)
    assert np.allclose(tn.unimodular(np.diag([4.0, 1.0, 1.0])), expected)


def test_unimodular_rejects_nonpositive_determinant():
    with pytest.raises(NonPositiveDeterminant):
        tn.unimodular(np.diag([1.0, -1.0, 1.0]))


def test_frobenius_norm_identity():
    assert tn.frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))


def test_inverse_diagonal():
    assert np.allclose(tn.inverse(np.diag([2.0, 4.0, 5.0])), np.diag([0.5, 0.25, 0.2]))


def test_inverse_singular_raises():
    with pytest.raises(SingularTensor):
        tn.inverse(np.diag([1.0, 0.0, 1.0]))


def test_trace_of_deviator_vanishes_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(3, 3)) * 5.0
        assert abs(tn.trace(tn.deviator(a))) <= 1e-14 * max(tn.frobenius_norm(a), 1.0)


def test_unimodular_det_one_on_random_spd():
    """det(unimodular(A)) = 1 on a large random SPD sample (condition kept
    moderate; the determinant evaluation itself limits near-singular input)."""
    rng = np.random.default_rng(42)
    mats = np.stack([random_spd(rng, scale=0.2) for _ in range(1000)])
    dets = tn.det(tn.unimodular(mats))
    assert np.max(np.abs(dets - 1.0)) < 1e-12


def test_orthogonal_decomposition_of_norm():
    """||dev A||^2 + tr(A)^2 / 3 = ||A||^2."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(200, 3, 3))
    left = tn.frobenius_norm(tn.deviator(a)) ** 2 + tn.trace(a) ** 2 / 3.0
    right = tn.frobenius_norm(a) ** 2
    assert np.allclose(left, right, rtol=1e-12)


def test_inverse_involution_and_product():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_spd(rng, scale=0.4)
        assert np.allclose(tn.inverse(tn.inverse(a)), a, rtol=1e-10, atol=1e-12)
        assert np.allclose(np.matmul(a, tn.inverse(a)), np.eye(3), atol=1e-10)


def test_inverse_is_cofactors_over_det_bit_for_bit():
    """inverse() takes its determinant from its own cofactors; the result
    must equal the adjugate divided by det() exactly."""
    rng = np.random.default_rng(13)
    batch = rng.normal(size=(500, 3, 3))
    adj = np.empty_like(batch)
    for i in range(3):
        for j in range(3):
            (r0, r1), (c0, c1) = [k for k in range(3) if k != j], [k for k in range(3) if k != i]
            minor = batch[:, r0, c0] * batch[:, r1, c1] - batch[:, r0, c1] * batch[:, r1, c0]
            adj[:, i, j] = minor if (i + j) % 2 == 0 else -minor
    assert np.array_equal(tn.inverse(batch), adj / tn.det(batch)[:, None, None])


def test_transpose_and_trace():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    assert np.array_equal(tn.transpose(a), a.T)
    assert tn.trace(a) == 15.0
    assert np.array_equal(tn.sym(a), 0.5 * (a + a.T))


def test_batched_matches_single():
    rng = np.random.default_rng(5)
    batch = np.stack([random_spd(rng) for _ in range(17)])
    inv_batch = tn.inverse(batch)
    for i in range(17):
        assert np.array_equal(inv_batch[i], tn.inverse(batch[i]))
