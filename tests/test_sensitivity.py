import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpident import (
    HardeningParams,
    LinearizedModel,
    MetricSpec,
    NoiseModel,
    WeightingScheme,
    benchmark_history,
    covariance,
    fit_least_squares,
    linearize,
    linearize_at,
    levenberg_marquardt,
    model_response,
    monte_carlo_cloud,
    normalized_variances,
    reidentify_linear,
)
from vpident.errors import SingularNormalMatrix, ZeroReferenceParameter
from vpident.identify import ExperimentData

from conftest import metric_trajectories


def random_instance(rng, n=8, k=3):
    jac = rng.normal(size=(n, k))
    p_star = rng.normal(size=k) + 2.0
    mod_star = rng.normal(size=n)
    return LinearizedModel(p_star, mod_star, jac)


def random_spd_matrix(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# linearization


def test_linearize_at_reproduces_model_locally(material, truth, small_program):
    lin = linearize_at(truth, material, small_program)
    assert np.array_equal(lin.response(truth.as_vector()[None, :])[0], lin.mod_star)

    rng = np.random.default_rng(2)
    full0 = model_response(truth, material, small_program)
    assert np.array_equal(full0, lin.mod_star)

    errors = []
    for scale in (1e-3, 1e-2):
        delta = truth.as_vector() * scale * rng.uniform(0.5, 1.0, 6)
        p = truth.as_vector() + delta
        approx = lin.response(p[None, :])[0]
        full = model_response(p, material, small_program)
        errors.append(np.max(np.abs(approx - full)))
    # quadratic remainder: 10x the perturbation, ~100x the error
    assert errors[1] <= 300.0 * errors[0]
    assert errors[0] < 0.05  # MPa at 0.1% perturbation


def test_linearize_at_is_one_pass_equal_to_separate_calls(material, truth, small_program,
                                                          monkeypatch):
    from vpident import identify, jacobian_fd

    separate = LinearizedModel(truth.as_vector(), model_response(truth, material, small_program),
                               jacobian_fd(truth, material, small_program))
    rows = []
    batch = identify.model_response_batch

    def counting(pvecs, *args, **kwargs):
        rows.append(len(pvecs))
        return batch(pvecs, *args, **kwargs)

    monkeypatch.setattr(identify, "model_response_batch", counting)
    lin = linearize_at(truth, material, small_program)
    assert rows == [13]
    assert np.array_equal(lin.p_star, separate.p_star)
    assert np.array_equal(lin.mod_star, separate.mod_star)
    assert np.array_equal(lin.jacobian, separate.jacobian)


def test_linearize_requires_convergence(material, truth, small_program):
    from vpident.identify import FitResult

    fake = FitResult(truth.as_vector(), 1.0, 3, np.zeros((small_program.n_points, 6)), False)
    with pytest.raises(ValueError):
        linearize(fake, material, small_program)


def test_linearize_from_fit(material, truth, small_program):
    exp = model_response(truth, material, small_program)
    data = ExperimentData(exp, small_program.shear_values)
    fit = levenberg_marquardt(truth, data, WeightingScheme.identity(data.n),
                              material, small_program)
    lin = linearize(fit, material, small_program)
    assert lin.jacobian.shape == (data.n, 6)
    assert np.allclose(lin.p_star, truth.as_vector())
    assert np.array_equal(lin.p_star, fit.x) and np.array_equal(fit.x, fit.params.as_vector())
    assert np.array_equal(lin.jacobian, fit.jacobian)
    assert np.array_equal(lin.mod_star, model_response(fit.params, material, small_program))


def test_jacobian_column_scaling_under_reparametrization(material, truth, small_program):
    """Chain rule: doubling a parameter's unit halves its Jacobian column."""
    lin = linearize_at(truth, material, small_program)
    scale = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])

    def reparam_response(qvecs):
        from vpident.identify import model_response_batch
        return model_response_batch(qvecs * scale[None, :], material, small_program)

    from vpident.identify import _response_and_jacobian
    _, j_q = _response_and_jacobian(truth.as_vector() / scale, reparam_response)
    assert np.allclose(j_q[:, 0], 2.0 * lin.jacobian[:, 0], rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# closed-form re-identification


def test_reidentify_zero_noise_restores_exactly():
    rng = np.random.default_rng(0)
    lin = random_instance(rng)
    exp = lin.mod_star.copy()
    scheme = WeightingScheme.full(random_spd_matrix(rng, 8))
    p = reidentify_linear(lin, scheme, exp, np.zeros(8))
    assert np.array_equal(p, lin.p_star)


def test_reidentify_scalar_toy():
    lin = LinearizedModel(np.array([2.0]), np.array([5.0]), np.array([[1.0]]))
    p = reidentify_linear(lin, WeightingScheme.identity(1), np.array([5.0]), np.array([0.3]))
    assert p[0] == pytest.approx(2.3, rel=1e-14)


def test_reidentify_matches_refined_grid_search():
    """Brute-force minimization of the noisy quadratic over an iteratively
    refined 3-parameter grid lands on the closed-form solution."""
    rng = np.random.default_rng(42)
    lin = random_instance(rng, n=8, k=3)
    w = random_spd_matrix(rng, 8)
    scheme = WeightingScheme.full(w)
    exp = lin.mod_star + rng.normal(size=8) * 0.2
    noise = rng.normal(size=8) * 0.2

    def phi(p):
        resid = exp + noise - lin.response(p[None, :])[0]
        return float(resid @ w @ resid)

    center = lin.p_star.copy()
    half = np.full(3, 2.0)
    for _ in range(40):
        axes = [np.linspace(center[i] - half[i], center[i] + half[i], 9) for i in range(3)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        values = [phi(p) for p in grid]
        center = grid[int(np.argmin(values))]
        half *= 0.35
        if np.all(half < 1e-7):
            break
    closed = reidentify_linear(lin, scheme, exp, noise)
    assert np.max(np.abs(closed - center)) < 1e-5


def test_reidentify_agrees_with_lm_solve():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lin = random_instance(rng, n=10, k=4)
        w = random_spd_matrix(rng, 10)
        scheme = WeightingScheme.full(w)
        exp = lin.mod_star + rng.normal(size=10) * 0.3
        noise = rng.normal(size=10) * 0.3
        closed = reidentify_linear(lin, scheme, exp, noise)
        raw = fit_least_squares(lin.p_star, exp + noise, lin.response, scheme,
                                lower_bound=None)
        assert raw.converged
        assert np.max(np.abs(raw.x - closed) / np.abs(closed)) < 1e-8


def test_reidentify_factor_invariance():
    """The implemented form uses W directly, so it equals the least-squares
    solution whitened by any square root of W, here a Cholesky factor R
    (R^T R = W) built in the test."""
    rng = np.random.default_rng(12)
    lin = random_instance(rng, n=9, k=3)
    w = random_spd_matrix(rng, 9)
    exp = lin.mod_star + rng.normal(size=9)
    noise = rng.normal(size=9)
    p_sym = reidentify_linear(lin, WeightingScheme.full(w), exp, noise)
    r = np.linalg.cholesky(0.5 * (w + w.T)).T
    step = np.linalg.lstsq(r @ lin.jacobian, r @ (exp + noise - lin.mod_star), rcond=None)[0]
    p_chol = lin.p_star + step
    assert np.max(np.abs(p_sym - p_chol) / np.abs(p_sym)) < 1e-10


def test_reidentify_singular_normal_matrix():
    rng = np.random.default_rng(3)
    jac = np.zeros((8, 3))
    jac[:, 0] = rng.normal(size=8)
    jac[:, 1] = 2.0 * jac[:, 0]  # exactly dependent columns
    jac[:, 2] = rng.normal(size=8)
    lin = LinearizedModel(np.ones(3), np.zeros(8), jac)
    with pytest.raises(SingularNormalMatrix):
        reidentify_linear(lin, WeightingScheme.identity(8), np.zeros(8), np.zeros(8))


# ---------------------------------------------------------------------------
# normalized variances


def test_normalized_variances_trivial():
    p_star = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    cloud = np.tile(p_star, (10, 1))
    assert np.all(normalized_variances(cloud, p_star) == 0.0)


def test_normalized_variances_two_point_divisor_n():
    p_star = np.ones(6) * 4.0
    cloud = np.stack([p_star, 1.1 * p_star])
    # population variance of {1, 1.1} is 0.0025 (divisor n)
    assert np.allclose(normalized_variances(cloud, p_star), 0.0025, rtol=1e-12)


def test_normalized_variances_zero_reference():
    with pytest.raises(ZeroReferenceParameter):
        normalized_variances(np.ones((3, 6)), np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]))


def test_cloud_reports_a_zero_reference_before_a_vanishing_column():
    """A zero gamma also zeroes gamma's Jacobian column; the cloud names the
    zero reference, not the singular normal matrix."""
    jac = np.random.default_rng(3).standard_normal((8, 6))
    jac[:, 0] = 0.0
    lin = LinearizedModel(np.array([0.0, 2.0, 3.0, 4.0, 5.0, 6.0]), np.ones(8), jac)
    with pytest.raises(ZeroReferenceParameter):
        monte_carlo_cloud(lin, WeightingScheme.identity(8), NoiseModel.white(1.0), np.ones(8),
                          3, 1, metrics={})


# ---------------------------------------------------------------------------
# Monte Carlo cloud


@pytest.fixture(scope="module")
def mc_setup(material, truth, small_program):
    exp = model_response(truth, material, small_program)
    lin = linearize_at(truth, material, small_program)
    metrics = {
        1: MetricSpec(benchmark_history(1, duration=40.0), material, n_steps=80),
    }
    return exp, lin, metrics


def test_monte_carlo_zero_noise_degenerate(material, mc_setup):
    exp, lin, metrics = mc_setup
    report = monte_carlo_cloud(
        lin, WeightingScheme.identity(len(exp)), NoiseModel.two_source(0.0, 0.0),
        exp, 25, 7, metrics=metrics,
    )
    assert np.array_equal(report.cloud, np.tile(lin.p_star, (25, 1)))
    assert report.size_per_history[1] == 0.0
    assert np.all(report.variances == 0.0)
    assert not np.any(report.outside_cone)


def test_monte_carlo_prefix_stability(material, mc_setup):
    exp, lin, metrics = mc_setup
    scheme = WeightingScheme.identity(len(exp))
    model = NoiseModel.two_source(10.0, 5.0)
    small = monte_carlo_cloud(lin, scheme, model, exp, 10, 11, metrics={})
    big = monte_carlo_cloud(lin, scheme, model, exp, 30, 11, metrics={})
    assert np.array_equal(big.cloud[:10], small.cloud)


def test_monte_carlo_matches_reidentify(material, mc_setup):
    exp, lin, metrics = mc_setup
    from vpident import sample_noise

    scheme = WeightingScheme.identity(len(exp))
    model = NoiseModel.two_source(4.0, 2.0)
    report = monte_carlo_cloud(lin, scheme, model, exp, 6, 123, metrics={})
    for j in range(6):
        noise = sample_noise(model, exp, (123, j))
        assert np.array_equal(report.cloud[j], reidentify_linear(lin, scheme, exp, noise))


def test_monte_carlo_cloud_repeats_bit_for_bit(material, truth, mc_setup):
    exp, lin, metrics = mc_setup
    scheme = WeightingScheme.identity(len(exp))
    model = NoiseModel.two_source(10.0, 5.0)
    first = monte_carlo_cloud(lin, scheme, model, exp, 40, 5, metrics=metrics)
    again = monte_carlo_cloud(lin, scheme, model, exp, 40, 5, metrics=metrics)
    assert np.array_equal(first.cloud, again.cloud)
    assert first.size_per_history == again.size_per_history


def test_chunk_size_does_not_change_distances(material, truth, mc_setup):
    from vpident import mechanics_distances
    from vpident import metric as metric_mod

    exp, lin, metrics = mc_setup
    rng = np.random.default_rng(0)
    cloud = lin.p_star[None, :] * (1.0 + 0.02 * rng.standard_normal((30, 6)))
    spec = metrics[1]
    d_big = mechanics_distances(cloud, truth, spec)
    old = metric_mod.CHUNK
    metric_mod.CHUNK = 7
    try:
        d_small = mechanics_distances(cloud, truth, spec)
    finally:
        metric_mod.CHUNK = old
    assert np.array_equal(d_big, d_small)


@settings(max_examples=8, deadline=None)
@given(n_members=st.integers(1, 7), chunk=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_mechanics_distances_do_not_depend_on_chunk(truth, mc_setup, n_members, chunk, seed):
    from vpident import metric as metric_mod
    from vpident.metric import mechanics_distances

    spec = mc_setup[2][1]
    rng = np.random.default_rng(seed)
    cloud = truth.as_vector()[None, :] * (1.0 + 0.02 * rng.standard_normal((n_members, 6)))
    whole = mechanics_distances(cloud, truth, spec)
    old = metric_mod.CHUNK
    metric_mod.CHUNK = chunk
    try:
        chunked = mechanics_distances(cloud, truth, spec)
    finally:
        metric_mod.CHUNK = old
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("n_members", [1, 7, 30])
def test_mechanics_distances_one_pass_per_chunk(material, truth, mc_setup, monkeypatch,
                                                n_members):
    """The reference rides as row 0 of every chunk: ceil(M / CHUNK)
    integrator passes of one chunk plus the reference each, results equal to
    scoring against a separate reference pass, and the same on a repeated
    call."""
    from vpident import metric as metric_mod
    from vpident.metric import mechanics_distances

    exp, lin, metrics = mc_setup
    spec = metrics[1]
    rng = np.random.default_rng(3)
    cloud = lin.p_star[None, :] * (1.0 + 0.02 * rng.standard_normal((n_members, 6)))
    ref_traj = metric_trajectories(spec, truth.as_vector())[0]
    diff = metric_trajectories(spec, cloud) - ref_traj[None]
    expected = np.max(np.sqrt(np.sum(diff * diff, axis=(-2, -1))), axis=1)

    calls = []
    response = metric_mod.cauchy_response

    def counting(f, times, material, pvecs, n_sub=1, **kw):
        calls.append(len(pvecs))
        return response(f, times, material, pvecs, n_sub=n_sub, **kw)

    monkeypatch.setattr(metric_mod, "cauchy_response", counting)
    monkeypatch.setattr(metric_mod, "CHUNK", 7)
    for _ in range(2):
        calls.clear()
        assert np.array_equal(mechanics_distances(cloud, truth, spec), expected)
        assert len(calls) == -(-n_members // 7)
        assert calls[0] == min(n_members, 7) + 1
        assert calls == [min(n_members - start, 7) + 1 for start in range(0, n_members, 7)]


def test_members_accessor_wraps_admissible(material, mc_setup):
    exp, lin, metrics = mc_setup
    report = monte_carlo_cloud(
        lin, WeightingScheme.identity(len(exp)), NoiseModel.two_source(1.0, 0.5),
        exp, 8, 3, metrics={},
    )
    members = report.members()
    for row, member, bad in zip(report.cloud, members, report.outside_cone):
        if bad:
            assert member is None
        else:
            assert isinstance(member, HardeningParams)
            assert np.array_equal(member.as_vector(), row)


def test_covariance_weighting_reduces_cloud_size(material, mc_setup):
    """Weighting by the inverse noise covariance must shrink the cloud
    under correlated noise."""
    exp, lin, metrics = mc_setup
    model = NoiseModel.two_source(10.0, 5.0)
    cov = covariance(model, exp)
    identity = monte_carlo_cloud(lin, WeightingScheme.identity(len(exp)), model,
                                 exp, 400, 21, metrics=metrics)
    weighted = monte_carlo_cloud(lin, WeightingScheme.full(np.linalg.inv(cov)), model,
                                 exp, 400, 21, metrics=metrics)
    assert weighted.size_per_history[1] < identity.size_per_history[1]
