import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpident import metric
from vpident.cli import _metric_specs, main, read_data_file, read_param_file, write_param_file
from vpident.config import DEFAULT_CONFIG, load_config
from vpident.constitutive import PARAM_NAMES, HardeningParams, cauchy_response
from vpident.errors import ConfigError
from vpident.metric import dist_mechanics


SMALL = {
    "program": {"targets": [0.12, -0.08, 0.15], "n_points": 60, "duration": 120.0},
    "history_duration": 40.0,
    "history_steps": 80,
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# config


def test_defaults_load():
    cfg = load_config(None)
    assert cfg.material.mu == 52000.0
    assert cfg.truth.gamma == 435.22
    assert cfg.weighting == "full_inverse_cov"
    assert cfg.n_instances == 10000
    # start defaults to 1.2 x truth
    assert np.allclose(cfg.start.as_vector(), 1.2 * cfg.truth.as_vector())


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"program": {"n_pointz": 10}}))
    with pytest.raises(ConfigError, match="n_pointz"):
        load_config(str(path))


def test_invalid_value_reports_field_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"material": {"mu": -1.0}}))
    with pytest.raises(ConfigError, match="material"):
        load_config(str(path))
    path.write_text(json.dumps({"noise": {"kind": "pink"}}))
    with pytest.raises(ConfigError, match="noise.kind"):
        load_config(str(path))


def test_environment_does_not_configure_a_run(small_config, tmp_path, monkeypatch, capsys):
    """A run is its config file and its flags: variables named like the
    retired VPIDENT_* overrides change nothing."""
    ref = tmp_path / "ref"
    assert main(["simulate", "--with-noise", "--config", small_config, "--seed", "5",
                 "--out", str(ref)]) == 0
    env_out = tmp_path / "env_out"
    for name, value in [("SEED", "77"), ("INSTANCES", "12"), ("WEIGHTING", "identity"),
                        ("OUT", str(env_out)), ("WORKERS", "0")]:  # 0 fails validation if read
        monkeypatch.setenv("VPIDENT_" + name, value)
    cfg = load_config(None)
    assert cfg.master_seed == DEFAULT_CONFIG["master_seed"]
    assert cfg.n_instances == DEFAULT_CONFIG["n_instances"]
    assert cfg.weighting == DEFAULT_CONFIG["weighting"]
    assert cfg.output_dir == DEFAULT_CONFIG["output_dir"]
    config = tmp_path / "seeded.json"
    config.write_text(json.dumps({**SMALL, "master_seed": 5}))
    out = tmp_path / "sim"
    capsys.readouterr()
    assert main(["simulate", "--with-noise", "--config", str(config), "--out", str(out)]) == 0
    assert "seed 5" in capsys.readouterr().out
    assert read_bytes(out / "experiment.csv") == read_bytes(ref / "experiment.csv")
    assert not env_out.exists()


def test_negative_seed_is_a_config_error(small_config, tmp_path, capsys):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", small_config, "--seed", "-1", "--out", out]) == 2
    assert "master_seed" in capsys.readouterr().err
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({**SMALL, "master_seed": -3}))
    assert main(["simulate", "--config", str(path), "--out", out]) == 2
    assert not os.path.exists(out)


def test_empty_out_flag_is_a_config_error(small_config, tmp_path, monkeypatch, capsys):
    """A flag passes the config's check like the file value it overrides:
    --out "" is rejected, not replaced by the configured directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", small_config, "--out", ""]) == 2
    assert "output_dir" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_boolean_history_rejected(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"histories": [True]}))
    with pytest.raises(ConfigError, match="histories"):
        load_config(str(path))
    assert main(["montecarlo", "--config", str(path), "--instances", "2",
                 "--out", str(tmp_path / "mc")]) == 2


def test_default_config_is_json_clean():
    json.dumps(DEFAULT_CONFIG)


def _key_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _numbers(obj):
    """Every number held by a RunConfig, through its dataclasses."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, np.ndarray):
        yield from obj.ravel().tolist()
    elif isinstance(obj, (int, float)):
        yield obj


#: wrong types, wrong shapes, boundary and non-finite values; no large
#: sizes, because a valid n_points, n_instances or history_steps is allocated
SWEEP_VALUES = [None, True, "x", [], {}, 1.5, -1, 0, [1.0], ["a"], {"a": 1},
                float("nan"), float("inf")]


@pytest.mark.parametrize("key_path", list(_key_paths(DEFAULT_CONFIG)), ids=".".join)
def test_config_value_sweep(key_path, tmp_path):
    """Any value at any key either fails validation with a ConfigError or
    yields a run configuration of finite numbers; no other exception."""
    path = tmp_path / "sweep.json"
    for value in SWEEP_VALUES:
        raw = value
        for key in reversed(key_path):
            raw = {key: raw}
        path.write_text(json.dumps(raw))
        try:
            cfg = load_config(str(path))
        except ConfigError:
            continue
        assert all(np.isfinite(x) for x in _numbers(cfg)), (key_path, value)
        assert all(type(h) is int for h in cfg.histories), (key_path, value)


def test_config_sweep_covers_every_key():
    assert len(list(_key_paths(DEFAULT_CONFIG))) == 34


def _with_program(**keys):
    return {**SMALL, "program": {**SMALL["program"], **keys}}


@pytest.mark.parametrize("command, raw, key", [
    ("simulate", {**SMALL, "material": {"mu": float("nan")}}, "material.mu"),
    ("simulate", {**SMALL, "history_duration": float("inf")}, "history_duration"),
    ("simulate", _with_program(n_points=float("inf")), "program.n_points"),
    ("simulate", {**SMALL, "material": None}, "'material'"),
    ("simulate", {**SMALL, "start_hardening": 1.5}, "'start_hardening'"),
    ("simulate", {**SMALL, "start_hardening": {**DEFAULT_CONFIG["truth_hardening"], "gama": 1.0}},
     "'gama'"),
    ("simulate", _with_program(targets=[0.12, "a"]), "program.targets[1]"),
    ("simulate", _with_program(max_shear=2.0, targets=[True]), "program.targets[0]"),
    ("montecarlo", {**SMALL, "histories": [1.0]}, "histories"),
])
def test_malformed_config_exits_2_naming_the_key(command, raw, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    assert main(argv + (["--instances", "2"] if command == "montecarlo" else [])) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv(small_config, tmp_path):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", small_config, "--out", out]) == 0
    data = read_data_file(os.path.join(out, "experiment.csv"))
    assert data.n == 60
    assert data.observations[0] == 0.0  # stress at zero strain


def test_simulate_with_noise_deterministic(small_config, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        assert main(["simulate", "--config", small_config, "--with-noise",
                     "--seed", "7", "--out", out]) == 0
    assert read_bytes(os.path.join(out_a, "experiment.csv")) == \
        read_bytes(os.path.join(out_b, "experiment.csv"))


def test_simulate_seed_changes_noise(small_config, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["simulate", "--config", small_config, "--with-noise", "--seed", "7",
                 "--out", out_a]) == 0
    assert main(["simulate", "--config", small_config, "--with-noise", "--seed", "8",
                 "--out", out_b]) == 0
    assert read_bytes(os.path.join(out_a, "experiment.csv")) != \
        read_bytes(os.path.join(out_b, "experiment.csv"))


# ---------------------------------------------------------------------------
# identify


def test_identify_roundtrip_recovers_truth(small_config, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", small_config, "--out", out]) == 0
    code = main(["identify", os.path.join(out, "experiment.csv"),
                 "--config", small_config, "--weighting", "identity", "--out", out])
    assert code == 0
    fitted = read_param_file(os.path.join(out, "fit_params.csv"))
    cfg = load_config(small_config)
    rel = np.abs(fitted.as_vector() / cfg.truth.as_vector() - 1.0)
    assert np.max(rel) < 1e-3
    assert os.path.exists(os.path.join(out, "fit_log.csv"))


def test_identify_with_covariance_weighting(small_config, tmp_path):
    """full_inv_cov consumes sigma1/sigma2 from the config to build the
    covariance of the data vector."""
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", small_config, "--out", out]) == 0
    code = main(["identify", os.path.join(out, "experiment.csv"),
                 "--config", small_config, "--weighting", "full_inv_cov", "--out", out])
    assert code == 0
    fitted = read_param_file(os.path.join(out, "fit_params.csv"))
    cfg = load_config(small_config)
    rel = np.abs(fitted.as_vector() / cfg.truth.as_vector() - 1.0)
    assert np.max(rel) < 1e-3


def test_identify_full_weighting_needs_no_eigendecomposition(small_config, tmp_path,
                                                              monkeypatch):
    """The full weighting whitens with the Cholesky factor that checks it:
    a fit under full_inv_cov never calls eigh."""

    def no_eigh(a):
        raise AssertionError("the full weighting must not eigendecompose W")

    out = str(tmp_path / "run")
    assert main(["simulate", "--config", small_config, "--with-noise", "--out", out]) == 0
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert main(["identify", os.path.join(out, "experiment.csv"), "--config", small_config,
                 "--weighting", "full_inv_cov", "--out", out]) == 0


def damping_exhausted(out: str) -> bool:
    """fit_log.csv ends with an iteration whose every trial was rejected
    until the damping passed LM_LAMBDA_MAX."""
    from vpident.identify import LM_LAMBDA_MAX

    with open(os.path.join(out, "fit_log.csv")) as handle:
        rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    last = [row for row in rows if row[0] == rows[-1][0]]
    return not any(row[3] == "1" for row in last) and float(last[-1][2]) > LM_LAMBDA_MAX


#: a 200-point record with two-source noise (10, 5) fitted from 1.2 x truth
STALL = {
    "material": {"k": 135600.0, "mu": 52000.0, "eta": 5.0e5, "m": 2.26, "K": 335.0, "k0": 1.0},
    "truth_hardening": {"gamma": 435.22, "beta": 2.625, "c1": 1661.7, "c2": 24672.0,
                        "kappa1": 0.003810, "kappa2": 0.004282},
    "program": {"max_shear": 0.5, "targets": [0.25, -0.2, 0.3], "n_points": 200,
                "duration": 500.0},
    "noise": {"kind": "two_source", "sigma1": 10.0, "sigma2": 5.0},
    "history_duration": 400.0,
}


def test_identify_exhausted_damping_at_a_minimum_converges(tmp_path):
    """On the seed-7651 record the LM reaches the minimum to round-off and
    then rejects every trial until the damping passes LM_LAMBDA_MAX. An
    undamped Gauss-Newton step there promises a decrease below LM_TOL_F of
    phi, so the fit has converged: exit 0, converged=1."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(STALL))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(path), "--with-noise", "--seed", "7651",
                 "--out", out]) == 0
    assert main(["identify", os.path.join(out, "experiment.csv"), "--config", str(path),
                 "--weighting", "full_inv_cov", "--out", out]) == 0
    assert damping_exhausted(out)
    with open(os.path.join(out, "fit_params.csv")) as handle:
        assert "converged,1\n" in handle.read()


def test_identify_exhausted_damping_away_from_a_minimum_exits_4(small_config, tmp_path,
                                                                 monkeypatch):
    """A fit whose damping runs out where an undamped Gauss-Newton step
    still promises a large decrease has not converged: exit 4. Every row
    but the start is shifted by a constant, which leaves the Jacobian
    exact but rejects every trial step."""
    from vpident import identify

    out = str(tmp_path / "run")
    assert main(["simulate", "--config", small_config, "--with-noise", "--out", out]) == 0
    start = load_config(small_config).start.as_vector()
    batch = identify.model_response_batch

    def shifted(pvecs, fixed, program):
        away = np.any(pvecs != start, axis=1)
        return batch(pvecs, fixed, program) + 1000.0 * away[:, None]

    monkeypatch.setattr(identify, "model_response_batch", shifted)
    assert main(["identify", os.path.join(out, "experiment.csv"), "--config", small_config,
                 "--weighting", "full_inv_cov", "--out", out]) == 4
    assert damping_exhausted(out)
    with open(os.path.join(out, "fit_params.csv")) as handle:
        assert "converged,0\n" in handle.read()


def test_identify_rejects_short_data(small_config, tmp_path):
    path = tmp_path / "short.csv"
    rows = ["strain,stress"] + [f"0.00{i},{i}.0" for i in range(5)]
    path.write_text("\n".join(rows) + "\n")
    code = main(["identify", str(path), "--config", small_config, "--out", str(tmp_path)])
    assert code == 3


def test_identify_missing_file(small_config, tmp_path):
    code = main(["identify", str(tmp_path / "nope.csv"), "--config", small_config,
                 "--out", str(tmp_path)])
    assert code == 3


def test_identify_bad_header(small_config, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    assert main(["identify", str(path), "--config", small_config,
                 "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# montecarlo


def test_montecarlo_zero_noise_sizes(small_config, tmp_path):
    cfg_path = tmp_path / "zero.json"
    cfg_path.write_text(json.dumps({**SMALL, "noise": {"kind": "two_source",
                                                       "sigma1": 0.0, "sigma2": 0.0}}))
    out = str(tmp_path / "mc")
    assert main(["montecarlo", "--config", str(cfg_path), "--instances", "10",
                 "--weighting", "all", "--history", "1", "--out", out]) == 0
    with open(os.path.join(out, "mc_summary.csv")) as handle:
        lines = handle.read().strip().splitlines()
    assert lines[0].startswith("scheme,seed,instances,size_history_1")
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) == 0.0  # size
        assert all(float(v) == 0.0 for v in fields[4:10])


def test_montecarlo_reproducible_byte_for_byte(small_config, tmp_path):
    outs = []
    for name, workers in (("m1", "1"), ("m2", "4")):
        out = str(tmp_path / name)
        assert main(["montecarlo", "--config", small_config, "--instances", "40",
                     "--seed", "5", "--workers", workers, "--history", "1",
                     "--out", out]) == 0
        outs.append(out)
    for fname in ("cloud_full_inverse_cov.csv", "mc_summary.csv"):
        assert read_bytes(os.path.join(outs[0], fname)) == \
            read_bytes(os.path.join(outs[1], fname))


def test_full_weighting_cloud_bytes_do_not_depend_on_blas_threads(tmp_path):
    """With the O(N) weighting, a seeded full inverse-covariance cloud and
    its summary have the same bytes on one and on two BLAS threads (the
    dense inverse rounded differently with the thread count)."""
    import subprocess
    import sys

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"history_steps": 80}))
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        out = str(tmp_path / f"threads{threads}")
        proc = subprocess.run(
            [sys.executable, "-m", "vpident.cli", "montecarlo", "--config", str(config),
             "--weighting", "full_inv_cov", "--instances", "20", "--history", "1",
             "--seed", "4", "--out", out],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for fname in ("cloud_full_inverse_cov.csv", "mc_summary.csv"):
        assert read_bytes(os.path.join(outs[0], fname)) == \
            read_bytes(os.path.join(outs[1], fname))


def test_full_inverse_cov_weighting_is_the_symmetrized_inverse():
    """build_weighting inverts the two-source covariance by Sherman-Morrison
    instead of forming 0.5 (inv + inv.T). At sigma1 = 10 its W equals that
    dense symmetrized inverse within rtol 1e-12, entry by entry. At sigma1
    << sigma2, where round-off dominates the dense inverse, W Cov lies no
    farther from the identity than the dense inverse times Cov does."""
    from vpident.cli import build_weighting
    from vpident.noise import NoiseModel, covariance

    exp = 300.0 * np.sin(np.linspace(0.0, 6.0, 200))
    model = NoiseModel.two_source(10.0, 5.0)
    inv = np.linalg.inv(np.asarray(covariance(model, exp)))
    scheme = build_weighting("full_inverse_cov", exp, model)
    assert np.allclose(scheme.matrix(), 0.5 * (inv + inv.T), rtol=1e-12, atol=0.0)

    model = NoiseModel.two_source(0.01, 5.0)
    cov = np.asarray(covariance(model, exp))
    inv = np.linalg.inv(cov)
    scheme = build_weighting("full_inverse_cov", exp, model)
    eye = np.eye(len(exp))
    assert (np.linalg.norm(scheme.apply(cov) - eye)
            <= np.linalg.norm(0.5 * (inv + inv.T) @ cov - eye))


signals = st.lists(st.one_of(st.just(0.0), st.floats(-400.0, 400.0)), min_size=2,
                   max_size=40).filter(lambda xs: any(xs))
log_sigmas = st.floats(-3.0, 1.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(signal=signals, sigma1=log_sigmas, sigma2=st.one_of(st.just(0.0), log_sigmas),
       seed=st.integers(0, 2**16))
def test_full_weighting_matches_the_dense_inverse(signal, sigma1, sigma2, seed):
    """The O(N) full inverse-covariance weighting agrees with the dense
    inverse of np.asarray(covariance(...)) in apply, quadratic and whiten
    (R^T R = W), down to sigma1 << sigma2 and signals with zeros. The
    tolerance grows with the condition number of the covariance, which
    bounds the round-off of the dense inverse."""
    from vpident.cli import build_weighting
    from vpident.noise import NoiseModel, covariance

    exp = np.array(signal)
    model = NoiseModel.two_source(sigma1, sigma2)
    cov = np.asarray(covariance(model, exp))
    inv = np.linalg.inv(cov)
    scheme = build_weighting("full_inverse_cov", exp, model)
    tol = 1e-13 * np.linalg.cond(cov) * np.linalg.norm(inv, 2)
    x = np.random.default_rng(seed).standard_normal((len(exp), 3))
    assert np.linalg.norm(scheme.apply(x) - inv @ x) <= tol * np.linalg.norm(x)
    assert np.allclose([scheme.quadratic(c) for c in x.T], [c @ inv @ c for c in x.T],
                       rtol=0.0, atol=tol * np.max(np.sum(x * x, axis=0)))
    root = scheme.whiten(np.eye(len(exp)))
    assert np.linalg.norm(root.T @ root - inv) <= tol
    # R^T R is W itself to round-off, whatever the conditioning
    w = scheme.matrix()
    assert np.linalg.norm(root.T @ root - w) <= 1e-13 * np.linalg.norm(w, 2)


def test_full_weighting_build_holds_no_dense_matrix():
    """At N = 3000 one dense N x N matrix takes 72 MB; the full
    inverse-covariance weighting is built, and whitens and weights a
    Jacobian, in under 1 MB of peak allocation."""
    import tracemalloc

    from vpident.cli import build_weighting
    from vpident.noise import NoiseModel

    exp = 300.0 * np.sin(np.linspace(0.0, 6.0, 3000))
    jac = np.ones((3000, 6))
    tracemalloc.start()
    try:
        scheme = build_weighting("full_inverse_cov", exp, NoiseModel.two_source(10.0, 5.0))
        scheme.whiten(jac)
        scheme.apply(jac)
        scheme.quadratic(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_montecarlo_integrates_the_base_point_once(small_config, tmp_path, monkeypatch):
    """Mod(p*) and the Jacobian come from one 13-row pass, and the base
    response is not integrated again as the experiment."""
    from vpident import identify

    rows = []
    batch = identify.model_response_batch

    def counting(pvecs, *args, **kwargs):
        rows.append(len(pvecs))
        return batch(pvecs, *args, **kwargs)

    monkeypatch.setattr(identify, "model_response_batch", counting)
    assert main(["montecarlo", "--config", small_config, "--instances", "4",
                 "--weighting", "all", "--history", "1",
                 "--out", str(tmp_path / "mc")]) == 0
    assert rows == [13]


def test_montecarlo_zero_base_parameter_fails_before_the_draws(small_config, tmp_path,
                                                              monkeypatch, capsys, truth):
    """A zero component of the base point makes the normalized variances
    undefined. For each component, also one whose Jacobian column would
    vanish (gamma, c1), the run exits 5 with the ZeroReferenceParameter
    message before the linearization, any noise draw or metric pass, and
    writes no CSV."""
    from vpident import cli, sensitivity

    calls = []
    monkeypatch.setattr(cli, "linearize_at", lambda *a: calls.append("lin"))
    monkeypatch.setattr(sensitivity, "mechanics_distances", lambda *a, **k: calls.append("metric"))
    monkeypatch.setattr(sensitivity, "sample_noise", lambda *a, **k: calls.append("draw"))
    for name in PARAM_NAMES:
        params = tmp_path / f"zero_{name}.csv"
        write_param_file(str(params), HardeningParams.from_vector(
            truth.as_vector() * (np.array(PARAM_NAMES) != name)))
        out = tmp_path / f"mc_{name}"
        assert main(["montecarlo", "--config", small_config, "--instances", "50",
                     "--weighting", "all", "--history", "1", "--params", str(params),
                     "--out", str(out)]) == 5
        assert calls == []
        assert capsys.readouterr().err == (
            "numerical failure: normalized variances need nonzero reference parameters\n")
        assert not out.exists() or not any(out.iterdir())


def test_montecarlo_ar_noise_fails_before_the_linearization(tmp_path, monkeypatch, capsys):
    """AR noise has no closed-form covariance. --weighting all exits 2 with
    the covariance message before the linearization and any noise draw, and
    writes no CSV; --weighting identity needs no covariance and exits 0."""
    from vpident import cli, sensitivity

    path = tmp_path / "ar.json"
    path.write_text(json.dumps({**SMALL, "noise": {"kind": "ar", "alpha": 0.5, "sigma": 2.0}}))
    calls = []
    linearize = cli.linearize_at
    monkeypatch.setattr(cli, "linearize_at", lambda *a: calls.append("lin") or linearize(*a))
    draw = sensitivity.sample_noise
    monkeypatch.setattr(sensitivity, "sample_noise", lambda *a: calls.append("draw") or draw(*a))
    out = tmp_path / "mc"
    argv = ["montecarlo", "--config", str(path), "--instances", "5", "--history", "1",
            "--out", str(out)]
    assert main(argv + ["--weighting", "all"]) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "configuration error: weighting 'diag_inverse_cov': no closed-form covariance is "
        "provided for the AR model\n")
    assert not out.exists() or not any(out.iterdir())
    assert main(argv + ["--weighting", "identity"]) == 0
    assert calls == ["lin"] + ["draw"] * 5
    assert sorted(os.listdir(out)) == ["cloud_identity.csv", "mc_summary.csv"]


RANK_ONE = {**SMALL, "noise": {"kind": "two_source", "sigma1": 0.0, "sigma2": 5.0}}
RANK_ONE_ERROR = ("configuration error: weighting 'full_inverse_cov': the two-source "
                  "covariance with sigma1 = 0 is singular and has no inverse\n")


def test_identify_singular_covariance_exits_2(tmp_path, capsys):
    """Two-source noise without its white part (sigma1 = 0) has a rank-one
    covariance, which full_inv_cov cannot invert: identify exits 2 with the
    covariance message, not a traceback, and writes no CSV."""
    path = tmp_path / "rank_one.json"
    path.write_text(json.dumps(RANK_ONE))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(path), "--with-noise", "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "fit"
    assert main(["identify", str(data / "experiment.csv"), "--config", str(path),
                 "--weighting", "full_inv_cov", "--out", str(out)]) == 2
    assert capsys.readouterr().err == RANK_ONE_ERROR
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("weighting", ["full_inv_cov", "all"])
def test_montecarlo_singular_covariance_fails_before_the_linearization(weighting, tmp_path,
                                                                       monkeypatch, capsys):
    """The rank-one two-source covariance exits 2 before the linearization
    and any noise draw, and writes no CSV (under --weighting all, also no
    identity cloud)."""
    from vpident import cli, sensitivity

    path = tmp_path / "rank_one.json"
    path.write_text(json.dumps(RANK_ONE))
    calls = []
    linearize = cli.linearize_at
    monkeypatch.setattr(cli, "linearize_at", lambda *a: calls.append("lin") or linearize(*a))
    draw = sensitivity.sample_noise
    monkeypatch.setattr(sensitivity, "sample_noise", lambda *a: calls.append("draw") or draw(*a))
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(path), "--instances", "5", "--history", "1",
                 "--weighting", weighting, "--out", str(out)]) == 2
    assert calls == []
    assert capsys.readouterr().err == RANK_ONE_ERROR
    assert not out.exists() or not any(out.iterdir())


def test_numerically_singular_covariance_is_a_factorization_failure():
    """sigma1 = 1e-170 passes the configuration check, but sigma1^2
    underflows to 0 and leaves the covariance rank one: build_weighting
    raises FactorizationFailure (exit 5), not numpy's LinAlgError."""
    from vpident.cli import build_weighting
    from vpident.errors import FactorizationFailure
    from vpident.noise import NoiseModel

    exp = 300.0 * np.sin(np.linspace(0.0, 6.0, 200))
    with pytest.raises(FactorizationFailure, match="covariance is singular"):
        build_weighting("full_inverse_cov", exp, NoiseModel.two_source(1e-170, 5.0))


def two_source_config(tmp_path, sigma1):
    """A 60-point config with two-source noise of white level sigma1, and
    the noisy record it simulates (its first sample is exactly 0)."""
    path = tmp_path / "two_source.json"
    path.write_text(json.dumps({**SMALL, "noise": {"kind": "two_source", "sigma1": sigma1,
                                                   "sigma2": 5.0}}))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(path), "--with-noise", "--out", str(data)]) == 0
    return str(path), str(data / "experiment.csv")


@pytest.mark.parametrize("sigma1", [0.0, 1e-170])
@pytest.mark.parametrize("command", ["identify", "montecarlo"])
def test_zero_variance_sample_fails_diagonal_weighting(command, sigma1, tmp_path, capsys):
    """A sample whose noise variance is 0 (sigma1 = 0, or sigma1^2 underflowing,
    where the signal is 0) has no inverse variance: diag_inv_cov exits 5
    naming the sample, without a numpy warning, and writes no CSV."""
    path, data = two_source_config(tmp_path, sigma1)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["--config", path, "--weighting", "diag_inv_cov", "--out", str(out)]
    if command == "identify":
        argv = [data] + argv
    else:
        argv += ["--instances", "5", "--history", "1"]
    assert main([command] + argv) == 5
    assert capsys.readouterr().err == ("numerical failure: noise variance of sample 0 is zero "
                                       "and has no inverse\n")
    assert not out.exists() or not any(out.iterdir())


def test_non_finite_inverse_fails_identify_and_montecarlo_alike(tmp_path, capsys):
    """At sigma1 = 1e-170 the inverse of the covariance can come back
    non-finite without an error. Both commands treat that as a singular
    covariance: exit 5 with the same message, and no CSV."""
    path, data = two_source_config(tmp_path, 1e-170)
    capsys.readouterr()
    error = "numerical failure: noise covariance is singular and has no inverse\n"
    out = tmp_path / "fit"
    assert main(["identify", data, "--config", path, "--weighting", "full_inv_cov",
                 "--out", str(out)]) == 5
    assert capsys.readouterr().err == error
    assert not out.exists() or not any(out.iterdir())
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", path, "--weighting", "full_inv_cov",
                 "--instances", "5", "--history", "1", "--out", str(out)]) == 5
    assert capsys.readouterr().err == error
    assert not out.exists() or not any(out.iterdir())


def test_subnormal_white_variance_fails_both_inverse_weightings(tmp_path, capsys):
    """At sigma1 = 1e-160, sigma1^2 is subnormal and 1/sigma1^2 overflows.
    full_inv_cov exits 5 with the singular-covariance message in both
    commands; diag_inv_cov (and with it --weighting all) exits 5 naming the
    zero-signal sample, whose variance has no finite inverse. No numpy
    warning is raised (tier-1 turns RuntimeWarning into an error)."""
    path, data = two_source_config(tmp_path, 1e-160)
    capsys.readouterr()
    singular = "numerical failure: noise covariance is singular and has no inverse\n"
    subnormal = ("numerical failure: noise variance of sample 0 is 1e-320 and has no finite "
                 "inverse\n")
    runs = [(["identify", data, "--weighting", "full_inv_cov"], singular),
            (["montecarlo", "--weighting", "full_inv_cov"], singular),
            (["identify", data, "--weighting", "diag_inv_cov"], subnormal),
            (["montecarlo", "--weighting", "all"], subnormal)]
    for i, (argv, error) in enumerate(runs):
        out = tmp_path / f"out{i}"
        if argv[0] == "montecarlo":
            argv = argv + ["--instances", "5", "--history", "1"]
        assert main(argv + ["--config", path, "--out", str(out)]) == 5
        assert capsys.readouterr().err == error
        assert not out.exists() or not any(out.iterdir())


def test_overflowing_variance_is_a_config_error(tmp_path, capsys):
    """sigma2 = 1e200 is finite, but its square is not: every command exits
    2 naming noise, with no traceback, no numpy warning and no CSV."""
    _, data = two_source_config(tmp_path, 10.0)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**SMALL, "noise": {"kind": "two_source", "sigma1": 10.0,
                                                   "sigma2": 1e200}}))
    capsys.readouterr()
    error = ("configuration error: noise: sigma2 must be finite and >= 0, with a finite "
             "square\n")
    runs = [["simulate", "--with-noise"], ["identify", data],
            ["identify", data, "--weighting", "identity"],
            ["montecarlo", "--instances", "5", "--history", "1"]]
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == error
        assert not out.exists()


def test_montecarlo_all_schemes_fail_before_the_first_cloud(tmp_path, capsys):
    """Under --weighting all, a scheme whose weighting cannot be built
    (diag_inv_cov with a zero noise variance) ends the run with exit 5
    before any scheme's cloud is written."""
    path, _ = two_source_config(tmp_path, 1e-170)
    capsys.readouterr()
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", path, "--weighting", "all", "--instances", "5",
                 "--history", "1", "--out", str(out)]) == 5
    assert capsys.readouterr().err == ("numerical failure: noise variance of sample 0 is zero "
                                       "and has no inverse\n")
    assert not out.exists() or not any(out.iterdir())


def test_montecarlo_cloud_columns(small_config, tmp_path):
    out = str(tmp_path / "mc")
    assert main(["montecarlo", "--config", small_config, "--instances", "8",
                 "--weighting", "identity", "--history", "1", "--out", out]) == 0
    with open(os.path.join(out, "cloud_identity.csv")) as handle:
        header = handle.readline().strip()
    assert header == ",".join(PARAM_NAMES)


# ---------------------------------------------------------------------------
# distance


def test_distance_identical_files(small_config, tmp_path, capsys, truth):
    p = tmp_path / "p.csv"
    write_param_file(str(p), truth)
    assert main(["distance", str(p), str(p), "--config", small_config,
                 "--history", "1"]) == 0
    outp = capsys.readouterr().out
    assert "euclidean: 0.0" in outp
    assert "mechanics history 1: 0.0" in outp


def test_distance_different_parameter_sets(small_config, tmp_path, capsys, truth,
                                           monkeypatch):
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    write_param_file(str(p1), truth)
    from vpident import HardeningParams
    other = HardeningParams(321.92, 2.003, 1488.4, 20512.0, 0.004087, 0.004526)
    write_param_file(str(p2), other)
    specs = _metric_specs(load_config(small_config, overrides={"histories": [1, 2]}))
    expected = {h: repr(dist_mechanics(truth, other, spec)) for h, spec in specs.items()}
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[3]))
        return cauchy_response(*args, **kwargs)

    monkeypatch.setattr(metric, "cauchy_response", counting)
    assert main(["distance", str(p1), str(p2), "--config", small_config,
                 "--history", "1", "--history", "2"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("mechanics history 1:")][0]
    assert float(line.split(":")[1]) > 0.0
    # the printed distance comes from the axiom pass: one integration per history
    for h in (1, 2):
        assert f"mechanics history {h}: {expected[h]}" in out.splitlines()
    assert calls == [3, 3]


def test_distance_unknown_history(small_config, tmp_path, truth, capsys):
    """The config is the one check of a --history id, for every command."""
    p = tmp_path / "p.csv"
    write_param_file(str(p), truth)
    out = tmp_path / "out"
    for argv in (["distance", str(p), str(p)],
                 ["montecarlo", "--instances", "2", "--history", "1"]):
        assert main(argv + ["--config", small_config, "--history", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "histories: unknown benchmark history 3 (use 1 or 2)" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "p.csv"]


def test_param_file_roundtrip(tmp_path, truth):
    path = tmp_path / "p.csv"
    write_param_file(str(path), truth, extra={"phi": 0.0})
    again = read_param_file(str(path))
    assert np.array_equal(again.as_vector(), truth.as_vector())


def test_console_entry_point(small_config, tmp_path):
    import subprocess
    import sys

    out = str(tmp_path / "sim")
    proc = subprocess.run(
        [sys.executable, "-m", "vpident.cli", "simulate", "--config", small_config,
         "--out", out],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert os.path.exists(os.path.join(out, "experiment.csv"))
