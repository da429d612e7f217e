import numpy as np
import pytest

from vpident import NoiseModel, covariance, sample_noise, sample_noise_matrix
from vpident.errors import DegenerateData, UnsupportedModel


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel.white(-1.0)
    with pytest.raises(ValueError):
        NoiseModel.ar(1.0, 1.0)
    with pytest.raises(ValueError):
        NoiseModel.ar(-0.1, 1.0)
    with pytest.raises(ValueError):
        NoiseModel("pink")


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])  # 1e200: its square overflows
@pytest.mark.parametrize("name", ["sigma", "sigma1", "sigma2"])
def test_model_rejects_non_finite_sigmas(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        NoiseModel("two_source" if name != "sigma" else "white", **{name: value})


def test_white_zero_sigma_is_zero():
    exp = np.linspace(1.0, 5.0, 20)
    assert np.all(sample_noise(NoiseModel.white(0.0), exp, 1) == 0.0)


def test_two_source_pure_correlated_is_rank_one():
    exp = np.array([1.0, -2.0, 4.0, 0.5])
    noise = sample_noise(NoiseModel.two_source(0.0, 3.0), exp, 5)
    # exactly proportional to the signal shape
    ratio = noise / (exp / np.max(np.abs(exp)))
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_ar_alpha_zero_equals_white_bitwise():
    exp = np.zeros(64)
    white = sample_noise(NoiseModel.white(2.5), exp, 99)
    ar0 = sample_noise(NoiseModel.ar(0.0, 2.5), exp, 99)
    assert np.array_equal(white, ar0)


def test_seeded_determinism_bit_identical():
    exp = np.linspace(-3.0, 7.0, 50)
    for model in (NoiseModel.white(1.0), NoiseModel.ar(0.6, 1.0), NoiseModel.two_source(2.0, 1.0)):
        a = sample_noise(model, exp, 1234)
        b = sample_noise(model, exp, 1234)
        c = sample_noise(model, exp, 1235)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_tuple_seeds_give_prefix_stable_instances():
    exp = np.linspace(1.0, 2.0, 10)
    model = NoiseModel.two_source(1.0, 0.5)
    big = sample_noise_matrix(model, exp, 7, 20)
    small = sample_noise_matrix(model, exp, 7, 5)
    assert np.array_equal(big[:5], small)
    assert np.array_equal(big[3], sample_noise(model, exp, (7, 3)))


def test_two_source_degenerate_signal():
    with pytest.raises(DegenerateData):
        sample_noise(NoiseModel.two_source(1.0, 1.0), np.zeros(5), 0)
    with pytest.raises(DegenerateData):
        covariance(NoiseModel.two_source(1.0, 1.0), np.zeros(5))


def test_covariance_white_limit():
    exp = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(covariance(NoiseModel.two_source(2.0, 0.0), exp), 4.0 * np.eye(3))
    assert np.array_equal(covariance(NoiseModel.white(3.0), exp), 9.0 * np.eye(3))


def test_covariance_direct_formula():
    exp = np.array([1.0, 2.0])
    cov = covariance(NoiseModel.two_source(1.0, 2.0), exp)
    assert np.allclose(cov, np.array([[2.0, 2.0], [2.0, 5.0]]), rtol=1e-14)


@pytest.mark.parametrize("model", [NoiseModel.white(3.0), NoiseModel.white(0.0),
                                   NoiseModel.two_source(1.5, 2.5),
                                   NoiseModel.two_source(0.01, 5.0),
                                   NoiseModel.two_source(2.0, 0.0)])
def test_structured_covariance_is_the_dense_formula_bit_for_bit(model):
    """covariance() holds white * I + shared * s s^T in O(N); numpy reads
    the dense matrix of the closed form, and diagonal() its np.diag, with
    the same bits (signed zeros included). A signal with zeros and negative
    samples gives off-diagonal products of both signs."""
    exp = np.array([0.0, -2.0, 3.0, 0.0, 4.0, -1.0, 1e-3])
    n = len(exp)
    if model.kind == "white":
        dense = model.sigma**2 * np.eye(n)
    else:
        shape = exp / np.max(np.abs(exp))
        dense = model.sigma1**2 * np.eye(n) + model.sigma2**2 * np.outer(shape, shape)
    cov = covariance(model, exp)
    assert np.asarray(cov).tobytes() == dense.tobytes()
    assert cov.diagonal().tobytes() == np.diag(dense).tobytes()
    # what callers of the dense matrix do with it
    assert np.diag(cov).tobytes() == np.diag(dense).tobytes()
    assert np.asarray(cov, dtype=np.float32).dtype == np.float32
    if model.sigma or model.sigma1:
        rhs = np.arange(2.0 * n).reshape(n, 2)
        assert np.linalg.solve(cov, rhs).tobytes() == np.linalg.solve(dense, rhs).tobytes()


def test_covariance_ar_unsupported():
    with pytest.raises(UnsupportedModel):
        covariance(NoiseModel.ar(0.5, 1.0), np.ones(4))


def test_empirical_mean_white():
    exp = np.zeros(100_000)
    noise = sample_noise(NoiseModel.white(2.0), exp, 2024)
    assert abs(noise.mean()) < 4.0 * 2.0 / np.sqrt(len(noise))


def test_empirical_mean_and_autocorrelation_ar():
    alpha, sigma = 0.7, 1.5
    n = 100_000
    noise = sample_noise(NoiseModel.ar(alpha, sigma), np.zeros(n), 11)
    sigma_stat = sigma / np.sqrt(1.0 - alpha**2)
    assert abs(noise.mean()) < 4.0 * sigma_stat / np.sqrt(n)

    centered = noise - noise.mean()
    r1 = np.dot(centered[1:], centered[:-1]) / np.dot(centered, centered)
    se = np.sqrt((1.0 - alpha**2) / n)
    assert abs(r1 - alpha) <= 3.0 * se


def test_two_source_sample_covariance_matches_formula():
    exp = np.array([1.0, -2.0, 3.0, 4.0, -1.0])
    model = NoiseModel.two_source(1.5, 2.5)
    draws = 100_000
    samples = sample_noise_matrix(model, exp, 3, draws)
    sample_cov = samples.T @ samples / draws
    exact = np.asarray(covariance(model, exp))
    # entrywise within 3 standard errors of the estimator
    var_i = np.diag(exact)
    se = 3.0 * np.sqrt((np.outer(var_i, var_i) + exact**2) / draws)
    assert np.all(np.abs(sample_cov - exact) <= se)
    mean = samples.mean(axis=0)
    sd = np.sqrt(var_i / draws)
    assert np.all(np.abs(mean) < 4.0 * sd)
