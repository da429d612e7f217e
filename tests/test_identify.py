import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpident import (
    ExperimentData,
    HardeningParams,
    LMOptions,
    WeightingScheme,
    fit_least_squares,
    jacobian_fd,
    levenberg_marquardt,
    model_response,
    torsion_program,
)
from vpident.errors import DataError, DimensionMismatch, FactorizationFailure, StepFailure
from vpident.identify import (
    N_SUB_RESPONSE,
    _response_and_jacobian,
    fd_step_sizes,
    model_response_batch,
)

from conftest import stored_cauchy


def random_spd_matrix(rng, n):
    g = rng.normal(size=(n, n))
    return g @ g.T + n * np.eye(n)


def symmetric_root(w):
    """The symmetric eigendecomposition root W^(1/2) of an SPD matrix."""
    vals, vecs = np.linalg.eigh(w)
    return (vecs * np.sqrt(vals)) @ vecs.T


class SymmetricRootWhitened(WeightingScheme):
    """The full weighting W whitened by its symmetric root W^(1/2), built
    here, in place of the program's Cholesky factor."""

    def __init__(self, w):
        super().__init__(full=w)
        self.factor = symmetric_root(self.matrix())

    def whiten(self, x):
        return self.factor @ self._check(x)


# ---------------------------------------------------------------------------
# weighting and the error functional


def test_error_functional_trivial_cases():
    assert WeightingScheme.identity(4).quadratic(np.zeros(4)) == 0.0
    assert WeightingScheme.identity(2).quadratic(np.array([3.0, 4.0])) == 25.0


def test_error_functional_diagonal_matches_weighted_sum():
    sigmas = np.array([1.0, 2.0, 0.5, 4.0])
    scheme = WeightingScheme.diagonal(1.0 / sigmas**2)
    resid = np.array([1.0, -2.0, 3.0, 0.5])
    expected = np.sum(resid**2 / sigmas**2)
    assert scheme.quadratic(resid) == pytest.approx(expected, rel=1e-14)


def test_error_functional_dimension_mismatch():
    scheme = WeightingScheme.diagonal(np.ones(3))
    with pytest.raises(DimensionMismatch):
        scheme.quadratic(np.ones(4))
    with pytest.raises(DimensionMismatch):
        WeightingScheme.identity(3).quadratic(np.ones(4))


def test_weighting_rejects_bad_matrices():
    with pytest.raises(FactorizationFailure):
        WeightingScheme.diagonal(np.array([1.0, 0.0]))
    with pytest.raises(FactorizationFailure):
        WeightingScheme.full(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(FactorizationFailure):
        WeightingScheme.full(np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(FactorizationFailure, match="finite"):
        WeightingScheme.full(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_whiten_identity_and_diagonal():
    resid = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(WeightingScheme.identity(3).whiten(resid), resid)
    d = np.array([4.0, 9.0, 16.0])
    assert np.allclose(WeightingScheme.diagonal(d).whiten(resid), np.sqrt(d) * resid)


def test_whiten_norm_equals_quadratic_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = random_spd_matrix(rng, 6)
        scheme = WeightingScheme.full(w)
        r = rng.normal(size=6)
        direct = float(r @ w @ r)
        assert np.linalg.norm(scheme.whiten(r)) ** 2 == pytest.approx(direct, rel=1e-9)


def test_whiten_factor_choices_give_same_functional():
    rng = np.random.default_rng(23)
    w = random_spd_matrix(rng, 5)
    r = rng.normal(size=5)
    chol = WeightingScheme.full(w)
    sym = symmetric_root(0.5 * (w + w.T))
    assert np.linalg.norm(chol.whiten(r)) ** 2 == pytest.approx(
        np.linalg.norm(sym @ r) ** 2, rel=1e-12
    )


def test_full_weighting_factors_once_on_construction(monkeypatch):
    rng = np.random.default_rng(29)
    w = random_spd_matrix(rng, 7)
    eager = np.linalg.cholesky(0.5 * (w + w.T)).T
    calls = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a):
        calls.append(a.shape)
        return cholesky(a)

    def no_eigh(a):
        raise AssertionError("the full weighting must not eigendecompose W")

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    scheme = WeightingScheme.full(w)
    assert calls == [(7, 7)]
    assert np.array_equal(scheme._root, eager)
    r = rng.normal(size=7)
    scheme.apply(r)
    scheme.quadratic(r)
    assert calls == [(7, 7)]
    assert np.array_equal(scheme.whiten(r), eager @ r)
    scheme.whiten(np.eye(7))
    # the factor is kept: whitening again makes no new factorization
    assert np.array_equal(scheme.whiten(r), eager @ r)
    assert calls == [(7, 7)]


def test_full_weighting_rejects_failed_cholesky_on_construction(monkeypatch):
    """The Cholesky factorization on construction is the positive
    definiteness test: its LinAlgError becomes FactorizationFailure."""

    def failing_cholesky(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    with pytest.raises(FactorizationFailure):
        WeightingScheme.full(np.diag([1.0, 2.0]))


def test_materialized_matrix():
    scheme = WeightingScheme.diagonal(np.array([2.0, 3.0]))
    assert np.array_equal(scheme.matrix(), np.diag([2.0, 3.0]))
    ident = WeightingScheme.identity(3)
    assert np.array_equal(ident.matrix(), np.eye(3))


# ---------------------------------------------------------------------------
# experiment data


def test_experiment_data_validation():
    with pytest.raises(DataError):
        ExperimentData(np.arange(5.0), np.arange(5.0))  # N <= 6
    with pytest.raises(DataError):
        ExperimentData(np.array([np.nan] * 8), np.arange(8.0))
    data = ExperimentData(np.arange(8.0), np.arange(8.0) / 100.0)
    assert data.n == 8


# ---------------------------------------------------------------------------
# model response


def test_model_response_elastic_range(material, truth):
    program, _ = torsion_program(0.5, [0.001], 30, 2.0)
    r = model_response(truth, material, program)
    expected = material.mu * program.shear_values
    assert np.allclose(r[1:], expected[1:], rtol=0.01)


def test_model_response_deterministic(material, truth, small_program):
    a = model_response(truth, material, small_program)
    b = model_response(truth, material, small_program)
    assert np.array_equal(a, b)


def test_hardening_visible_beyond_yield(material, truth, small_program):
    zeroed = HardeningParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    r_true = model_response(truth, material, small_program)
    r_zero = model_response(zeroed, material, small_program)
    assert np.max(np.abs(r_true - r_zero)) > 1.0  # MPa


# ---------------------------------------------------------------------------
# finite-difference Jacobian


def test_fd_step_floor():
    p = np.array([435.22, 2.625, 0.0, 24672.0, 0.003810, 0.004282])
    steps = fd_step_sizes(p)
    assert steps[2] == 1e-8  # absolute floor at a zero parameter
    assert steps[0] == pytest.approx(435.22e-6)


def test_jacobian_elastic_program_is_zero(material, truth):
    program, _ = torsion_program(0.5, [0.001], 30, 2.0)
    jac = jacobian_fd(truth, material, program)
    assert np.max(np.abs(jac)) < 1e-9  # hardening invisible below yield


def test_jacobian_richardson_self_check(material, truth, small_program):
    """Halving the step changes central-difference entries by O(step^2).

    Steps are taken large enough that truncation dominates roundoff (at the
    default step the entries are already at the noise floor ~1e-8)."""
    j_ref = jacobian_fd(truth, material, small_program, rel_step=1e-6)
    j_h = jacobian_fd(truth, material, small_program, rel_step=0.1)
    j_h2 = jacobian_fd(truth, material, small_program, rel_step=0.05)
    col = np.max(np.abs(j_ref), axis=0)
    err_h = np.max(np.abs(j_h - j_ref), axis=0) / col
    err_h2 = np.max(np.abs(j_h2 - j_ref), axis=0) / col
    assert np.all(err_h2 <= 0.35 * err_h)


def test_jacobian_default_step_at_noise_floor(material, truth, small_program):
    """At the default relative step the Jacobian is converged to ~1e-7."""
    j1 = jacobian_fd(truth, material, small_program, rel_step=1e-6)
    j2 = jacobian_fd(truth, material, small_program, rel_step=2e-6)
    col = np.max(np.abs(j1), axis=0)
    assert np.max(np.abs(j1 - j2) / col[None, :]) < 1e-6


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


def test_lm_linear_toy_matches_normal_equations():
    """A linear 2-parameter residual has the closed-form GLS solution."""
    rng = np.random.default_rng(4)
    design = rng.normal(size=(12, 2))
    p_ref = np.array([1.5, -0.7])
    obs = design @ p_ref + rng.normal(size=12) * 0.1
    w = random_spd_matrix(rng, 12)
    scheme = WeightingScheme.full(w)

    def response(pvecs):
        return pvecs @ design.T

    raw = fit_least_squares(np.zeros(2), obs, response, scheme, lower_bound=None)
    closed = np.linalg.solve(design.T @ w @ design, design.T @ w @ obs)
    assert raw.converged
    assert np.max(np.abs(raw.x - closed)) < 1e-10


def test_lm_accepted_steps_never_increase_phi():
    rng = np.random.default_rng(9)
    design = rng.normal(size=(20, 3))
    obs = np.sin(np.arange(20.0))

    def response(pvecs):
        return np.tanh(pvecs @ design.T)  # mildly nonlinear

    raw = fit_least_squares(np.full(3, 0.3), obs, response,
                            WeightingScheme.identity(20), lower_bound=None)
    accepted_phis = [phi for _, phi, _, acc in raw.history if acc]
    assert np.all(np.diff(accepted_phis) <= 0.0)


def tanh_toy():
    """(obs, design) of the tanh(p @ design.T) toy of the LM tests."""
    rng = np.random.default_rng(9)
    design = rng.normal(size=(20, 3))
    return np.sin(np.arange(20.0)), design


@pytest.mark.parametrize("start", [0.3, 3.0])  # from 3.0 some trials are rejected
def test_lm_one_response_call_per_trial(start):
    """The start point and every trial point are evaluated in one call
    together with their 2k central-difference probes, and an accepted
    trial's Jacobian is reused: one call per history entry, none more."""
    obs, design = tanh_toy()
    calls = []

    def response(pvecs):
        calls.append(len(pvecs))
        return np.tanh(pvecs @ design.T)

    raw = fit_least_squares(np.full(3, start), obs, response,
                            WeightingScheme.identity(20), lower_bound=None)
    assert raw.converged
    assert len(calls) == len(raw.history)
    assert calls == [1 + 2 * 3] * len(calls)


def test_lm_failing_probe_row_falls_back_to_the_trial_alone():
    """A probe row that fails (while its trial row does not) must not end
    the fit: the trial is evaluated alone and the fit goes on as without
    the fault."""
    obs, design = tanh_toy()

    def response(pvecs):
        # row by row, so no row's value depends on the batch it is in
        return np.stack([np.tanh(design @ row) for row in pvecs])

    points = []

    def recording(pvecs):
        points.append(pvecs[0].copy())
        return response(pvecs)

    clean = fit_least_squares(np.full(3, 3.0), obs, recording,
                              WeightingScheme.identity(20), lower_bound=None)
    # call i evaluated the point of history entry i; fault the first probe
    # row (+h along parameter 0) of every rejected trial
    bad = [pt + np.eye(3)[0] * fd_step_sizes(pt)[0]
           for pt, (*_, accepted) in zip(points, clean.history) if not accepted]
    assert bad
    raised = []

    def faulty(pvecs):
        if any(np.array_equal(row, b) for row in pvecs for b in bad):
            raised.append(len(pvecs))
            raise StepFailure("probe row failed")
        return response(pvecs)

    fit = fit_least_squares(np.full(3, 3.0), obs, faulty,
                            WeightingScheme.identity(20), lower_bound=None)
    assert len(raised) == len(bad)
    assert np.array_equal(fit.x, clean.x)
    assert fit.phi == clean.phi
    assert fit.history == clean.history
    assert np.array_equal(fit.jacobian, clean.jacobian)


def test_lm_rejects_a_trial_whose_probe_rows_fail():
    """A trial whose probe rows fail is evaluated alone and its phi is
    logged, but it is rejected: it has no Jacobian, and accepting it would
    make the next iteration integrate the same failing rows again. With the
    +h probe of the clean fit's first accepted trial faulted, the fit logs
    that trial as rejected, converges, and its Jacobian is the one at its
    final iterate."""
    obs, design = tanh_toy()

    def response(pvecs):
        # row by row, so no row's value depends on the batch it is in
        return np.stack([np.tanh(design @ row) for row in pvecs])

    points = []

    def recording(pvecs):
        points.append(pvecs[0].copy())
        return response(pvecs)

    clean = fit_least_squares(np.full(3, 3.0), obs, recording,
                              WeightingScheme.identity(20), lower_bound=None)
    # call i evaluated the point of history entry i; entry 0 is the start
    first = next(i for i, (*_, accepted) in enumerate(clean.history) if i > 0 and accepted)
    bad = points[first] + np.eye(3)[0] * fd_step_sizes(points[first])[0]
    raised = []

    def faulty(pvecs):
        if any(np.array_equal(row, bad) for row in pvecs):
            raised.append(len(pvecs))
            raise StepFailure("probe row failed")
        return response(pvecs)

    fit = fit_least_squares(np.full(3, 3.0), obs, faulty,
                            WeightingScheme.identity(20), lower_bound=None)
    assert raised == [1 + 2 * 3]
    assert fit.history[:first] == clean.history[:first]
    it, phi, _, accepted = fit.history[first]
    assert (it, phi, accepted) == (clean.history[first][0], clean.history[first][1], False)
    assert fit.converged
    assert np.array_equal(fit.jacobian, _response_and_jacobian(fit.x, response)[1])
    assert fit.phi == pytest.approx(clean.phi, rel=1e-9)


def test_fit_jacobian_belongs_to_fitted_point(material, truth, small_program):
    """The fit's Jacobian is the one at the fitted parameters: it equals
    jacobian_fd there exactly, on a clean fit and on noisy ones, the last
    with rejected trials. So linearize(), which recomputes it at
    fit.params, hands on the fit's own Jacobian."""
    exp = model_response(truth, material, small_program)
    rng = np.random.default_rng(1)
    noisy = exp + rng.normal(size=len(exp)) * 20.0
    short = LMOptions(max_iter=5)
    for obs, scale, opts in ((exp, 1.3, None), (noisy, 1.3, short), (noisy, 2.0, short)):
        start = HardeningParams.from_vector(truth.as_vector() * scale)
        data = ExperimentData(obs, small_program.shear_values)
        fit = levenberg_marquardt(start, data, WeightingScheme.identity(data.n),
                                  material, small_program, opts=opts)
        assert np.array_equal(fit.jacobian, jacobian_fd(fit.params, material, small_program))
    assert not all(accepted for *_, accepted in fit.history)


def test_lm_holds_a_component_at_the_lower_bound(material, truth, small_program):
    """beta ends at its bound 0 on this noisy record. Clipping each damped
    step made the fit crawl along the bound for all 200 iterations (phi
    16630.6926, not converged); holding beta fixed while its gradient points
    below 0 converges in a few iterations to a lower phi."""
    exp = model_response(truth, material, small_program)
    noisy = exp + 20.0 * np.random.default_rng(1).standard_normal(len(exp))
    data = ExperimentData(noisy, small_program.shear_values)
    start = HardeningParams.from_vector(truth.as_vector() * 1.3)
    fit = levenberg_marquardt(start, data, WeightingScheme.identity(data.n),
                              material, small_program)
    assert fit.converged
    assert fit.iterations < 50
    assert fit.phi <= 16630.6926
    assert fit.params.beta == 0.0


def test_lm_start_at_truth_converges_immediately(material, truth, small_program):
    exp = model_response(truth, material, small_program)
    data = ExperimentData(exp, small_program.shear_values)
    fit = levenberg_marquardt(truth, data, WeightingScheme.identity(data.n),
                              material, small_program)
    assert fit.converged
    assert fit.iterations <= 2
    assert fit.phi <= 1e-18


def test_lm_recovers_truth_from_30_percent_start(material, truth, small_program):
    exp = model_response(truth, material, small_program)
    data = ExperimentData(exp, small_program.shear_values)
    start = HardeningParams.from_vector(truth.as_vector() * 1.3)
    fit = levenberg_marquardt(start, data, WeightingScheme.identity(data.n),
                              material, small_program)
    assert fit.converged
    rel = np.abs(fit.params.as_vector() / truth.as_vector() - 1.0)
    assert np.max(rel) < 1e-3


def test_lm_result_invariant_to_whitening_factor(material, truth, small_program):
    rng = np.random.default_rng(31)
    exp = model_response(truth, material, small_program)
    noisy = exp + rng.normal(size=len(exp)) * 5.0
    data = ExperimentData(noisy, small_program.shear_values)
    w = random_spd_matrix(rng, data.n) / data.n
    start = HardeningParams.from_vector(truth.as_vector() * 1.1)
    fits = [
        levenberg_marquardt(start, data, scheme, material, small_program)
        for scheme in (WeightingScheme.full(w), SymmetricRootWhitened(w))
    ]
    rel = np.abs(fits[0].params.as_vector() - fits[1].params.as_vector())
    rel /= np.abs(fits[0].params.as_vector())
    assert np.max(rel) < 1e-6


def test_lm_formulation_equivalence_along_iterates(material, truth, small_program):
    """Phi computed as the quadratic form equals the squared norm of the
    whitened residual at the fitted point."""
    rng = np.random.default_rng(6)
    exp = model_response(truth, material, small_program)
    noisy = exp + rng.normal(size=len(exp)) * 3.0
    data = ExperimentData(noisy, small_program.shear_values)
    w = random_spd_matrix(rng, data.n) / data.n
    scheme = WeightingScheme.full(w)
    start = HardeningParams.from_vector(truth.as_vector() * 1.15)
    fit = levenberg_marquardt(start, data, scheme, material, small_program)
    resid = data.observations - model_response(fit.params, material, small_program)
    assert np.linalg.norm(scheme.whiten(resid)) ** 2 == pytest.approx(
        scheme.quadratic(resid), rel=1e-9
    )


def test_lm_program_size_mismatch(material, truth, small_program):
    data = ExperimentData(np.zeros(10), np.linspace(0, 0.1, 10))
    with pytest.raises(DimensionMismatch):
        levenberg_marquardt(truth, data, WeightingScheme.identity(10), material, small_program)


def test_batched_response_matches_single(material, truth, small_program):
    vecs = np.stack([truth.as_vector(), truth.as_vector() * 1.2])
    batch = model_response_batch(vecs, material, small_program)
    single0 = model_response(truth, material, small_program)
    assert np.array_equal(batch[0], single0)


def test_batched_response_streams_the_shear_component(material, truth):
    """model_response_batch keeps only the shear component: it equals T_12 of
    the stored histories bit for bit, and its 13 rows add under a quarter of
    one stored (13, T, 3, 3) history to the traced peak of a 1-row call (the
    (T, 3, 3) arrays of the path itself do not grow with the rows)."""
    program, fs = torsion_program(0.5, [0.25, -0.2, 0.3], 400, 250.0)
    vecs = truth.as_vector()[None, :] * np.linspace(0.8, 1.2, 13)[:, None]
    times = program.times()
    stored = stored_cauchy(fs, times, material, vecs, n_sub=N_SUB_RESPONSE)
    assert np.array_equal(model_response_batch(vecs, material, program), stored[:, :, 0, 1])

    def peak(rows):
        tracemalloc.start()
        try:
            model_response_batch(rows, material, program)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(vecs) - peak(vecs[:1]) < 13 * len(times) * 72 / 4


# A parameter factor of the truth: 0 (the admissible bound) or 0.5 to 2.
_factor = st.one_of(st.just(0.0), st.floats(0.5, 2.0))
_rows = st.lists(st.tuples(*[_factor] * 6), min_size=1, max_size=6)


@settings(max_examples=10, deadline=None)
@given(rows=_rows, data=st.data())
def test_batched_response_row_is_independent_of_its_batch(material, truth, rows, data):
    """Any row of a batch, at any position, equals its single-row response
    bit for bit: the LM, linearize_at and the metric's reference row rely on
    it."""
    program, _ = torsion_program(0.5, [0.12, -0.08, 0.15], 30, 60.0)
    vecs = truth.as_vector()[None, :] * np.array(rows)
    i = data.draw(st.integers(0, len(vecs) - 1), label="position")
    batch = model_response_batch(vecs, material, program)
    assert np.array_equal(batch[i], model_response(vecs[i], material, program))
