from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpident import (
    HardeningParams,
    InternalState,
    backstresses,
    cauchy_response,
    elastic_energy,
    kinematic_energy,
    second_pk_stress,
    simple_shear_f,
    stress_state,
    torsion_program,
)
from vpident import constitutive, tensors
from vpident.constitutive import (
    DET_TOL,
    SQ23,
    _advance,
    _hp_arrays,
    _plane,
    _pk2_kernel,
    run_path,
)
from vpident.errors import (
    InvalidProgram,
    InvalidTimeGrid,
    NonPositiveDefinite,
    NonPositiveDeterminant,
    StepFailure,
)
from vpident.identify import N_SUB_RESPONSE
from vpident.loading import DeformationHistory

from conftest import _full, random_spd, random_spd_unimodular, stored_cauchy


def fd_stress_from_energy(energy, h=1e-6):
    """Central-difference gradient 2 d(energy)/dC over the six independent
    components of a symmetric argument."""
    t = np.zeros((3, 3))
    for i in range(3):
        d = np.zeros((3, 3))
        d[i, i] = h
        t[i, i] = 2.0 * (energy(d) - energy(-d)) / (2.0 * h)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        d = np.zeros((3, 3))
        d[i, j] = h
        d[j, i] = h
        g = (energy(d) - energy(-d)) / (2.0 * h)
        t[i, j] = t[j, i] = g
    return t


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["k", "mu", "eta", "m", "K", "k0"])
def test_material_rejects_non_finite_constants(material, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        replace(material, **{name: value})


# ---------------------------------------------------------------------------
# potentials


def test_elastic_energy_zero_at_identity(material):
    assert elastic_energy(np.eye(3), material) == 0.0


def test_elastic_energy_isochoric_stretch(material):
    lam = 1.05
    a = np.diag([lam**2, 1.0 / lam, 1.0 / lam])
    expected = 0.5 * material.mu * (lam**2 + 2.0 / lam - 3.0)
    assert elastic_energy(a, material) == pytest.approx(expected, rel=1e-12)


def test_elastic_energy_pure_dilatation(material):
    c = 1.2
    expected = 9.0 * material.k / 8.0 * np.log(c) ** 2
    assert elastic_energy(c * np.eye(3), material) == pytest.approx(expected, rel=1e-12)


def test_elastic_energy_rejects_indefinite(material):
    with pytest.raises(NonPositiveDefinite):
        elastic_energy(np.diag([1.0, -1.0, 1.0]), material)


def test_elastic_energy_nonnegative_random(material):
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert elastic_energy(random_spd(rng, 0.3), material) >= 0.0


# ---------------------------------------------------------------------------
# stress relations vs finite differences of their potentials


def test_second_pk_trivial_cases(material):
    state = InternalState.initial()
    assert np.all(second_pk_stress(np.eye(3), state, material) == 0.0)

    eps = 1e-6
    t = second_pk_stress((1.0 + eps) * np.eye(3), state, material)
    expected = 1.5 * material.k * eps / (1.0 + eps)
    assert t[0, 0] == pytest.approx(expected, rel=1e-5)
    assert abs(t[0, 1]) < 1e-12

    gam = 1e-6
    f = simple_shear_f(gam)
    t = second_pk_stress(f.T @ f, state, material)
    assert t[0, 1] == pytest.approx(material.mu * gam, rel=0.01)


def test_second_pk_matches_finite_difference(material):
    rng = np.random.default_rng(21)
    for _ in range(30):
        c = random_spd(rng, 0.05)
        ci = random_spd_unimodular(rng, 0.05)
        state = InternalState(ci, np.eye(3), np.eye(3), 0.0, 0.0)
        analytic = second_pk_stress(c, state, material)
        ci_inv = np.linalg.inv(ci)
        fd = fd_stress_from_energy(lambda d: elastic_energy((c + d) @ ci_inv, material))
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale


def test_backstresses_trivial_cases(material, truth):
    state = InternalState.initial()
    x1, x2, x = backstresses(state, material)
    assert np.all(x1 == 0.0) and np.all(x2 == 0.0) and np.all(x == 0.0)

    no_c1 = material.with_hardening(
        HardeningParams(truth.gamma, truth.beta, 0.0, truth.c2, truth.kappa1, truth.kappa2)
    )
    rng = np.random.default_rng(2)
    state = InternalState(random_spd_unimodular(rng), random_spd_unimodular(rng),
                          random_spd_unimodular(rng), 0.1, 0.0)
    x1, x2, x = backstresses(state, no_c1)
    assert np.all(x1 == 0.0)
    assert np.allclose(x, x1 + x2)


def test_backstresses_match_finite_difference(material, truth):
    rng = np.random.default_rng(8)
    for _ in range(30):
        ci = random_spd_unimodular(rng, 0.05)
        c1i = random_spd_unimodular(rng, 0.05)
        c2i = random_spd_unimodular(rng, 0.05)
        state = InternalState(ci, c1i, c2i, 0.0, 0.0)
        x1, x2, _ = backstresses(state, material)
        inv1 = np.linalg.inv(c1i)
        inv2 = np.linalg.inv(c2i)
        fd1 = fd_stress_from_energy(lambda d: kinematic_energy((ci + d) @ inv1, truth.c1))
        fd2 = fd_stress_from_energy(lambda d: kinematic_energy((ci + d) @ inv2, truth.c2))
        assert np.max(np.abs(x1 - fd1)) <= 1e-6 * np.max(np.abs(x1))
        assert np.max(np.abs(x2 - fd2)) <= 1e-6 * np.max(np.abs(x2))


def isotropic_hardening(state, material):
    return stress_state(np.eye(3), state, material).R


def overstress_and_multiplier(f, state, material):
    out = stress_state(f, state, material)
    return out.overstress_f, out.driving_force_F, out.lambda_i


def test_isotropic_hardening_values(material, truth):
    assert isotropic_hardening(InternalState.initial(), material) == 0.0
    state = InternalState(np.eye(3), np.eye(3), np.eye(3), 0.01, 0.0)
    assert isotropic_hardening(state, material) == pytest.approx(truth.gamma * 0.01)
    assert isotropic_hardening(state, material) == pytest.approx(4.3522, rel=1e-12)
    zero_gamma = material.with_hardening(
        HardeningParams(0.0, truth.beta, truth.c1, truth.c2, truth.kappa1, truth.kappa2)
    )
    assert isotropic_hardening(state, zero_gamma) == 0.0


def test_overstress_and_multiplier(material):
    state = InternalState.initial()
    # elastic state: small shear keeps the driving force below yield
    f = simple_shear_f(1e-4)
    over, drive, lam = overstress_and_multiplier(f, state, material)
    assert drive < np.sqrt(2.0 / 3.0) * material.K
    assert over < 0.0 and lam == 0.0

    # f = k0 gives lambda = 1/eta; f = 2 k0 gives 2^m / eta
    assert (max(material.k0, 0.0) / material.k0) ** material.m / material.eta == 1.0 / material.eta
    lam2 = (2.0 * material.k0 / material.k0) ** material.m / material.eta
    assert lam2 == pytest.approx(2.0**2.26 / 5.0e5, rel=1e-12)


def test_perzyna_multiplier_at_twice_the_normalizer(material):
    """Drive the virgin state to an overstress of exactly 2 k0 by bisecting
    the shear amount; the multiplier must be 2^m / eta."""
    state = InternalState.initial()

    def overstress(gam):
        return overstress_and_multiplier(simple_shear_f(gam), state, material)[0]

    lo, hi = 1e-4, 0.02
    assert overstress(lo) < 2.0 and overstress(hi) > 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if overstress(mid) < 2.0 * material.k0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    f_val, _, lam = overstress_and_multiplier(simple_shear_f(hi), state, material)
    assert f_val == pytest.approx(2.0 * material.k0, abs=1e-9)
    assert lam == pytest.approx(2.0**2.26 / 5.0e5, rel=1e-8)


def test_unit_overstress_gives_inverse_viscosity(material):
    """At f = k0 the multiplier is exactly 1/eta for any exponent."""
    state = InternalState.initial()

    def overstress(gam):
        return overstress_and_multiplier(simple_shear_f(gam), state, material)[0]

    lo, hi = 1e-4, 0.02
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if overstress(mid) < material.k0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    f_val, _, lam = overstress_and_multiplier(simple_shear_f(0.5 * (lo + hi)), state, material)
    assert f_val == pytest.approx(material.k0, abs=1e-9)
    assert lam == pytest.approx(1.0 / material.eta, rel=1e-8)


def test_too_large_step_raises_step_failure(material):
    from vpident.constitutive import run_path
    from vpident.errors import StepFailure

    pv = material.hardening.as_vector()[None, :]
    with pytest.raises(StepFailure):
        run_path(np.stack([np.eye(3), simple_shear_f(1.5)]),
                 np.array([0.0, 0.5]), material, pv, n_sub=1, sink=lambda i, state: None)
    with pytest.raises(StepFailure):
        run_path(np.stack([np.eye(3), simple_shear_f(3.0)]),
                 np.array([0.0, 0.1]), material, pv, n_sub=1, sink=lambda i, state: None)


def test_overstress_unit_ratio_through_state(material):
    """Construct a state whose overstress is positive and check the Perzyna
    bracket against a direct evaluation."""
    prog, fs = torsion_program(0.5, [0.05], 40, 25.0)
    out = stress_state(fs[-1], _final_state(prog, fs, material), material)
    assert out.lambda_i == pytest.approx(
        (max(out.overstress_f, 0.0) / material.k0) ** material.m / material.eta, rel=1e-12
    )
    assert out.lambda_i >= 0.0


def _last_state(fs, times, material, pvecs, n_sub):
    """The plane state (S, s, sd) that run_path's sink gets last."""
    states = []
    run_path(fs, times, material, pvecs, n_sub=n_sub, sink=lambda i, state: states.append(state))
    return states[-1]


def _final_state(prog, fs, material):
    S, s, sd = _last_state(fs, prog.times(), material,
                           material.hardening.as_vector()[None, :], n_sub=2)
    return InternalState(*_full(S[:, :, 0]), float(s[0]), float(sd[0]))


# ---------------------------------------------------------------------------
# time integration


def states_along(shear_of_t, material, grid):
    """InternalState at every time of the grid (initial state included),
    read through the run_path state sink from one step per interval of
    simple shear."""
    pvecs = material.hardening.as_vector()[None, :]
    fs = np.stack([simple_shear_f(shear_of_t(t)) for t in grid])
    states = []

    def sink(i, state):
        S, s, sd = state
        states.append(InternalState(*_full(S[:, :, 0]), float(s[0]), float(sd[0])))

    run_path(fs, grid, material, pvecs, n_sub=1, sink=sink)
    return states


def test_evolve_purely_elastic_path_keeps_state_exactly(material):
    state0 = InternalState.initial()
    gam = 0.002  # well below the elastic limit
    trajectory = states_along(lambda t: gam * np.sin(t), material, np.linspace(0.0, 6.0, 121))
    last = trajectory[-1]
    assert np.array_equal(last.Ci, state0.Ci)
    assert np.array_equal(last.C1i, state0.C1i)
    assert np.array_equal(last.C2i, state0.C2i)
    assert last.s == 0.0 and last.sd == 0.0
    # loading-unloading returns exactly to zero stress
    assert np.all(stress_state(np.eye(3), last, material).cauchy == 0.0)


def test_run_path_invalid_grid(material):
    pv = material.hardening.as_vector()[None, :]
    fs = np.stack([np.eye(3), np.eye(3)])
    with pytest.raises(InvalidTimeGrid):
        run_path(fs, np.array([1.0, 1.0]), material, pv, sink=lambda i, state: None)
    with pytest.raises(InvalidTimeGrid):
        run_path(fs, np.array([0.0, 1.0]), material, pv, n_sub=0, sink=lambda i, state: None)


def test_monotonic_shear_flows_and_stays_unimodular(material):
    prog, _ = torsion_program(0.5, [0.05], 80, 25.0)
    shears = prog.shear_values
    times = prog.times()
    trajectory = states_along(lambda t: np.interp(t, times, shears), material,
                              np.linspace(0.0, 25.0, 201))
    last = trajectory[-1]
    assert last.s > 0.0
    for state in trajectory:
        for a in (state.Ci, state.C1i, state.C2i):
            assert abs(np.linalg.det(a) - 1.0) <= 1e-10
            assert np.all(np.linalg.eigvalsh(a) > 0.0)
    # s non-decreasing, s - sd >= 0 along the trajectory
    s_values = [st.s for st in trajectory]
    assert np.all(np.diff(s_values) >= 0.0)
    assert all(st.s - st.sd >= -1e-15 for st in trajectory)


def test_reference_solution_from_finer_grid(material):
    """10x finer integration of the same scheme confirms the coarse run."""
    prog, fs = torsion_program(0.5, [0.05], 50, 25.0)
    pv = material.hardening.as_vector()[None, :]
    coarse = stored_cauchy(fs, prog.times(), material, pv, n_sub=1)[0, -1, 0, 1]
    fine = stored_cauchy(fs, prog.times(), material, pv, n_sub=10)[0, -1, 0, 1]
    assert coarse == pytest.approx(fine, rel=5e-3)


def test_halving_dt_changes_stress_below_half_percent(material):
    prog, fs = torsion_program(0.5, [0.2], 100, 94.0)
    pv = material.hardening.as_vector()[None, :]
    base = stored_cauchy(fs, prog.times(), material, pv, n_sub=1)[0, -1, 0, 1]
    halved = stored_cauchy(fs, prog.times(), material, pv, n_sub=2)[0, -1, 0, 1]
    assert abs(base - halved) / abs(halved) < 0.005


def test_self_convergence_order_at_least_one(material):
    prog, fs = torsion_program(0.5, [0.2], 100, 94.0)
    pv = material.hardening.as_vector()[None, :]
    ref = stored_cauchy(fs, prog.times(), material, pv, n_sub=16)[0, -1, 0, 1]
    errors = [abs(stored_cauchy(fs, prog.times(), material, pv, n_sub=ns)[0, -1, 0, 1] - ref)
              for ns in (1, 2, 4)]
    order12 = np.log2(errors[0] / errors[1])
    order24 = np.log2(errors[1] / errors[2])
    assert order12 >= 0.9
    assert order24 >= 0.9


def test_small_strain_shear_tangent(material):
    prog, fs = torsion_program(0.5, [1e-4], 20, 1.0)
    pv = material.hardening.as_vector()[None, :]
    t12 = stored_cauchy(fs, prog.times(), material, pv, n_sub=1)[0, :, 0, 1]
    expected = material.mu * prog.shear_values
    assert np.allclose(t12[1:], expected[1:], rtol=0.01)


def test_dissipation_sign_along_default_program(material, default_program):
    fs = default_program.deformation_gradients()
    _, s, sd = _last_state(fs, default_program.times(), material,
                           material.hardening.as_vector()[None, :], n_sub=1)
    assert float(s[0]) > 0.0
    assert float(s[0]) - float(sd[0]) >= 0.0


# ---------------------------------------------------------------------------
# push-forward


def test_cauchy_stress_trivial(material):
    state = InternalState.initial()
    assert np.all(stress_state(np.eye(3), state, material).cauchy == 0.0)


def test_cauchy_stress_matches_independent_product(material):
    rng = np.random.default_rng(13)
    state = InternalState.initial()
    for _ in range(20):
        f = np.eye(3) + rng.normal(size=(3, 3)) * 0.02
        if np.linalg.det(f) <= 0.0:
            continue
        t2 = second_pk_stress(f.T @ f, state, material)
        expected = f @ t2 @ f.T / np.linalg.det(f)
        got = stress_state(f, state, material).cauchy
        assert np.allclose(got, 0.5 * (expected + expected.T), rtol=1e-12, atol=1e-12)


def test_stress_state_lambda_zero_below_yield(material):
    out = stress_state(simple_shear_f(1e-4), InternalState.initial(), material)
    assert out.overstress_f <= 0.0
    assert out.lambda_i == 0.0
    assert np.allclose(out.backstress_total, 0.0)


# ---------------------------------------------------------------------------
# stacked step kernel

# A parameter factor of the truth: 0 (the admissible bound) or 0.5 to 2.
_factor = st.one_of(st.just(0.0), st.floats(0.5, 2.0))
_rows = st.lists(st.tuples(*[_factor] * 6), min_size=1, max_size=6)


@settings(max_examples=10, deadline=None)
@given(rows=_rows)
def test_final_metric_tensors_stay_admissible(material, truth, rows):
    """After plastic flow every row's Ci, C1i and C2i in run_path's last
    state is symmetric, positive definite and unimodular within DET_TOL. The
    path and substeps are those of the batched response."""
    prog, fs = torsion_program(0.5, [0.12, -0.08, 0.15], 30, 60.0)
    pvecs = truth.as_vector()[None, :] * np.array(rows)
    S, s, _ = _last_state(fs, prog.times(), material, pvecs, n_sub=N_SUB_RESPONSE)
    assert np.all(s > 0.0)
    for a in _full(S):
        assert a.shape == (len(pvecs), 3, 3)
        assert np.array_equal(a, np.swapaxes(a, -1, -2))
        assert np.all(np.linalg.eigvalsh(a) > 0.0)
        assert np.all(np.abs(tensors.det(a) - 1.0) <= DET_TOL)


def _mixed_path(truth):
    """Right Cauchy-Green tensors of a load-unload-reload shear path, and
    three rows whose hardening makes them yield at different steps."""
    # fine reversals: the rows' backstresses differ by a few MPa there
    shears = np.concatenate([np.linspace(0.0, 0.01, 11), np.linspace(0.01, -0.006, 161)[1:],
                             np.linspace(-0.006, 0.01, 161)[1:]])
    cs = [simple_shear_f(g).T @ simple_shear_f(g) for g in shears]
    pvecs = truth.as_vector()[None, :] * np.array([[0.0] * 6, [1.0] * 6, [2.0] * 6])
    return cs, pvecs


def test_elastic_rows_hand_on_their_state(material, truth):
    """At every step the rows that did not flow hand on their S, s and sd
    bit for bit, also in steps in which other rows flow."""
    cs, pvecs = _mixed_path(truth)
    hp = _hp_arrays(pvecs)
    S = _plane(np.broadcast_to(np.eye(3), (3, len(pvecs), 3, 3)))
    state = (S, np.zeros(len(pvecs)), np.zeros(len(pvecs)))
    kinds = set()
    for c in cs[1:]:
        new = _advance(state, _plane(c)[:, None], material, hp, 1.0)
        flowed = new[1] != state[1]
        kinds.add("mixed" if 0 < flowed.sum() < len(flowed) else "uniform")
        assert np.array_equal(new[0][..., ~flowed], state[0][..., ~flowed])
        assert np.array_equal(new[1][~flowed], state[1][~flowed])
        assert np.array_equal(new[2][~flowed], state[2][~flowed])
        state = new
    assert kinds == {"mixed", "uniform"}


def test_step_kernel_tensor_call_counts(material, truth, monkeypatch):
    """Per run one 3x3 det (of the sampled F) and one 3x3 inverse (of C at
    the samples), and no 3x3 call per step. In the plane kernel: one inverse
    per step and per sample; per plastic step three det calls (unimodular
    and the two of the projection), per elastic step one det, per sample
    two det."""
    cs, pvecs = _mixed_path(truth)
    fs = np.stack([np.linalg.cholesky(c).T for c in cs])  # F with F^T F = C
    calls = {"det": 0, "inverse": 0, "plane det": 0, "plane inverse": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    det_counter = counting("det", tensors.det)
    monkeypatch.setattr(constitutive, "det", det_counter)
    monkeypatch.setattr(tensors, "det", det_counter)
    monkeypatch.setattr(constitutive, "inverse", counting("inverse", tensors.inverse))
    monkeypatch.setattr(constitutive, "_pdet", counting("plane det", constitutive._pdet))
    monkeypatch.setattr(constitutive, "_pinv", counting("plane inverse", constitutive._pinv))
    plastic = []

    def recording(state, *args):
        new = _advance(state, *args)
        plastic.append(new is not state)
        return new

    monkeypatch.setattr(constitutive, "_advance", recording)
    times = np.arange(len(fs), dtype=float)
    constitutive.cauchy_response(fs, times, material, pvecs, sink=lambda i, cauchy: None)
    n_plastic = sum(plastic)
    assert 0 < n_plastic < len(plastic) == len(fs) - 1
    assert calls["det"] == 1 and calls["inverse"] == 1
    assert calls["plane inverse"] == len(plastic) + len(fs)
    assert calls["plane det"] == (len(plastic) - n_plastic) + 3 * n_plastic + 2 * len(fs)


def test_cauchy_response_sink_streams_the_stored_rows(material, truth):
    """Nothing is stored and None is returned; every sample arrives, in
    order, as a fresh (5, M) array of plane rows equal bit for bit to that
    sample of the (M, T, 3, 3) history a collector stored from a separate
    call, and overwriting it changes nothing."""
    prog, fs = torsion_program(0.5, [0.12, -0.08, 0.15], 30, 60.0)
    pvecs = truth.as_vector()[None, :] * np.array([[1.0] * 6, [0.5] * 6, [1.5] * 6])
    stored = stored_cauchy(fs, prog.times(), material, pvecs, n_sub=2)
    assert stored.shape == (len(pvecs), len(fs), 3, 3)
    streamed = []

    def sink(i, t):
        streamed.append((i, t.copy()))
        t[...] = np.nan

    assert constitutive.cauchy_response(fs, prog.times(), material, pvecs, n_sub=2,
                                        sink=sink) is None
    assert [i for i, _ in streamed] == list(range(len(fs)))
    for i, t in streamed:
        assert t.shape == (5, len(pvecs))
        assert np.array_equal(_full(t), stored[:, i])


# ---------------------------------------------------------------------------
# the path driver and its state sink


def test_run_path_state_sink(material, truth):
    """The sink gets the state once per sample, in order: the identity
    state at i = 0 and, at the last sample, the state a separate call ends
    in; run_path itself returns None."""
    prog, fs = torsion_program(0.5, [0.12, -0.08, 0.15], 30, 60.0)
    pvecs = truth.as_vector()[None, :] * np.array([[1.0] * 6, [0.5] * 6, [1.5] * 6])
    calls = []
    assert run_path(fs, prog.times(), material, pvecs, n_sub=2,
                    sink=lambda i, state: calls.append((i, state))) is None
    assert [i for i, _ in calls] == list(range(len(fs)))
    S, s, sd = calls[0][1]
    assert S.shape == (5, 3, len(pvecs))
    identity = np.broadcast_to(np.eye(3), (3, len(pvecs), 3, 3))
    assert np.array_equal(_full(S), identity)
    assert np.all(s == 0.0) and np.all(sd == 0.0)
    S, s, sd = calls[-1][1]
    assert np.all(s > 0.0)
    final = _last_state(fs, prog.times(), material, pvecs, n_sub=2)
    for got, want in zip((S, s, sd), final):
        assert np.array_equal(got, want)


def test_cauchy_response_rejects_nonpositive_det_f_sample(material):
    """A sampled F with det F <= 0 raises before anything is integrated."""
    pv = material.hardening.as_vector()[None, :]
    streamed = []
    for bad in (np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 0.0])):
        fs = np.stack([np.eye(3), simple_shear_f(0.01), bad])
        with pytest.raises(NonPositiveDeterminant):
            stored_cauchy(fs, np.arange(3.0), material, pv)
        with pytest.raises(NonPositiveDeterminant):
            cauchy_response(fs, np.arange(3.0), material, pv, sink=lambda i, c: streamed.append(i))
    assert streamed == []


def test_drive_equals_the_reference_formula(material):
    """stress_state's drive ||xi|| equals the deleted formula
    ||dev(C T - Ci X)|| on random admissible states."""
    rng = np.random.default_rng(44)
    for _ in range(50):
        f = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
        state = InternalState(random_spd_unimodular(rng, 0.05), random_spd_unimodular(rng, 0.05),
                              random_spd_unimodular(rng, 0.05), 0.02, 0.005)
        c = f.T @ f
        t = second_pk_stress(c, state, material)
        _, _, x = backstresses(state, material)
        expected = np.linalg.norm(tensors.deviator(c @ t - state.Ci @ x))
        out = stress_state(f, state, material)
        assert out.driving_force_F == pytest.approx(expected, rel=1e-12)
        assert out.overstress_f == pytest.approx(
            expected - np.sqrt(2.0 / 3.0) * (material.K + out.R), rel=1e-12)


# ---------------------------------------------------------------------------
# the plane kernel against the general 3x3 step it replaced


def _ref_trial(C, S, mat, c1, c2, r):
    lhs = np.empty_like(S)
    lhs[0] = C
    lhs[1:] = S[0]
    dev = tensors.deviator(tensors.unimodular(np.matmul(lhs, tensors.inverse(S))))
    dev[0] = (
        mat.mu * dev[0]
        - 0.5 * np.asarray(c1)[..., None, None] * dev[1]
        - 0.5 * np.asarray(c2)[..., None, None] * dev[2]
    )
    drive = tensors.frobenius_norm(dev[0])
    return dev, drive, drive - SQ23 * (mat.K + r)


def _ref_flow_multiplier(f_trial, h_eff, mat, dt):
    """Newton from x = f_trial, with two powers per iteration."""
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
    return rm / mat.eta


def _ref_project_metric(a):
    a = tensors.sym(a)
    d = tensors.det(a)
    if (d <= 0.0).any() or not np.isfinite(d).all():
        raise StepFailure("inelastic metric lost positive determinant")
    out = a / np.cbrt(d)[..., None, None]
    d_out = tensors.det(out)
    assert np.all(np.abs(d_out - 1.0) <= DET_TOL)
    return out, d_out


def _ref_advance(state, C_new, mat, hp, dt):
    """The batched 3x3 step: state (S, s, sd) with S = [Ci, C1i, C2i] as a
    (3, M, 3, 3) stack."""
    S, s, sd = state
    gam, bet, c1, c2, kap1, kap2 = hp
    s_e = s - sd
    dev, drive, f_trial = _ref_trial(C_new, S, mat, c1, c2, gam * s_e)
    xi, dev_b1, dev_b2 = dev
    plastic = f_trial > 0.0
    if not plastic.any():
        return state
    safe_drive = np.where(plastic, drive, 1.0)
    n_dot_b1 = np.sum(xi * dev_b1, axis=(-2, -1)) / safe_drive
    n_dot_b2 = np.sum(xi * dev_b2, axis=(-2, -1)) / safe_drive
    h_eff = (
        2.0 * mat.mu
        + c1 * (1.0 - 0.5 * kap1 * c1 * n_dot_b1)
        + c2 * (1.0 - 0.5 * kap2 * c2 * n_dot_b2)
        + (2.0 / 3.0) * gam * (1.0 - bet * s_e)
    )
    lam = np.where(plastic, _ref_flow_multiplier(f_trial, h_eff, mat, dt), 0.0)
    rates = np.stack([2.0 * dt * lam / safe_drive, dt * lam * kap1 * c1, dt * lam * kap2 * c2])
    S_new, _ = _ref_project_metric(S + rates[..., None, None] * np.matmul(dev, S))
    assert (tensors.is_positive_definite(S_new).all(axis=0) | ~plastic).all()
    mask = plastic[..., None, None]
    ds = dt * SQ23 * lam
    return (
        np.where(mask, S_new, S),
        np.where(plastic, s + ds, s),
        np.where(plastic, sd + bet * ds * s_e, sd),
    )


def _ref_cauchy(fs, times, material, pvecs, n_sub):
    """(T, M, 3, 3) Cauchy stresses from the 3x3 step and push-forward."""
    hp = _hp_arrays(pvecs)
    S = np.broadcast_to(np.eye(3), (3, len(pvecs), 3, 3)).copy()
    state = (S, np.zeros(len(pvecs)), np.zeros(len(pvecs)))
    out = []
    for i in range(len(times)):
        for j in range(1, n_sub + 1) if i else ():
            w = j / n_sub
            f_sub = (1.0 - w) * fs[i - 1] + w * fs[i]
            state = _ref_advance(state, f_sub.T @ f_sub, material, hp,
                                 (times[i] - times[i - 1]) / n_sub)
        c = fs[i].T @ fs[i]
        t = _pk2_kernel(tensors.inverse(c), np.matmul(c, tensors.inverse(state[0][0])),
                        material.k, material.mu)
        out.append(tensors.sym(np.matmul(fs[i], np.matmul(t, fs[i].T)) / np.linalg.det(fs[i])))
    return np.stack(out)


def _plane_keypoint(kind, amount):
    """A plane deformation gradient: uniaxial stretch along axis 1 or 2
    (volume preserving), or simple shear in the 1-2 plane."""
    if kind == "shear":
        return simple_shear_f(amount)
    f = np.diag([amount ** -0.5] * 3)
    f[kind, kind] = amount
    return f


# amounts past the elastic limit, so that every path flows
_keypoint = st.one_of(
    st.tuples(st.just("shear"), st.floats(-0.15, -0.02) | st.floats(0.02, 0.15)),
    st.tuples(st.sampled_from([0, 1]), st.floats(0.9, 0.98) | st.floats(1.02, 1.15)),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(keys=st.lists(_keypoint, min_size=1, max_size=4), n_sub=st.sampled_from([1, 2]),
       rows=st.lists(st.tuples(*[st.floats(0.5, 2.0)] * 6), min_size=1, max_size=3))
def test_plane_kernel_matches_the_3x3_reference(material, truth, keys, n_sub, rows):
    """On random plane paths (shear reversals, stretches along axes 1 and 2)
    and hardening rows around the truth, the streamed Cauchy stresses equal
    those of the 3x3 step and of stress_state on the carried state, within
    1e-10 of the largest stress on the path."""
    keypoints = [np.eye(3)] + [_plane_keypoint(*k) for k in keys]
    history = DeformationHistory(tuple((50.0 * i, f) for i, f in enumerate(keypoints)))
    times, fs = history.grid(20 * len(keys))
    pvecs = truth.as_vector()[None, :] * np.array(rows)

    got = stored_cauchy(fs, times, material, pvecs, n_sub=n_sub).swapaxes(0, 1)
    want = _ref_cauchy(fs, times, material, pvecs, n_sub)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-10 * scale

    states = []
    run_path(fs, times, material, pvecs, n_sub=n_sub,
             sink=lambda i, state: states.append((_full(state[0]), *state[1:])))
    assert np.all(states[-1][1] > 0.0)
    for i, (S, s, sd) in enumerate(states):
        for row in range(len(pvecs)):
            state = InternalState(S[0, row], S[1, row], S[2, row], float(s[row]), float(sd[row]))
            single = stress_state(fs[i], state, material).cauchy
            assert np.max(np.abs(got[i, row] - single)) <= 1e-10 * scale


def test_streamed_plane_rows_are_symmetric(material, truth):
    """Every streamed (5, M) sample has row xy equal to row yx bit for bit:
    the response reads row xy, and the Frobenius gap counts both rows. The
    path mixes shear with stretches, so F is not symmetric."""
    keys = [("shear", 0.1), (0, 1.1), ("shear", -0.06), (1, 0.93)]
    keypoints = [np.eye(3)] + [_plane_keypoint(*k) for k in keys]
    history = DeformationHistory(tuple((50.0 * i, f) for i, f in enumerate(keypoints)))
    times, fs = history.grid(80)
    pvecs = truth.as_vector()[None, :] * np.array([[1.0] * 6, [0.0] * 6, [2.0] * 6])
    streamed = []
    cauchy_response(fs, times, material, pvecs, n_sub=2, sink=lambda i, t: streamed.append(t))
    assert len(streamed) == len(fs)
    assert np.any(np.stack(streamed)[:, 1] != 0.0)
    for t in streamed:
        assert t.shape == (5, len(pvecs))
        assert np.array_equal(t[1], t[2])


@pytest.mark.parametrize("entry", [(0, 2), (1, 2), (2, 0), (2, 1)])
def test_a_sample_off_the_plane_block_is_rejected(material, entry):
    """A sampled F with a nonzero xz, yz, zx or zy entry raises
    InvalidProgram before anything is integrated."""
    pv = material.hardening.as_vector()[None, :]
    bad = simple_shear_f(0.01)
    bad[entry] = 1e-3
    fs = np.stack([np.eye(3), simple_shear_f(0.005), bad])
    streamed = []
    with pytest.raises(InvalidProgram, match="plane"):
        run_path(fs, np.arange(3.0), material, pv, sink=lambda i, state: streamed.append(i))
    with pytest.raises(InvalidProgram, match="plane"):
        cauchy_response(fs, np.arange(3.0), material, pv, sink=lambda i, c: streamed.append(i))
    assert streamed == []
