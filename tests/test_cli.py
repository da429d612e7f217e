import json
import os

import numpy as np
import pytest

from vpident.cli import main, read_data_file, read_param_file, write_param_file
from vpident.config import DEFAULT_CONFIG, load_config
from vpident.constitutive import PARAM_NAMES, HardeningParams
from vpident.errors import ConfigError


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


def test_env_overrides(tmp_path):
    cfg = load_config(None, environ={"VPIDENT_SEED": "77", "VPIDENT_INSTANCES": "12"})
    assert cfg.master_seed == 77
    assert cfg.n_instances == 12
    with pytest.raises(ConfigError):
        load_config(None, environ={"VPIDENT_SEED": "notanint"})


def test_negative_seed_is_a_config_error(small_config, tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", small_config, "--seed", "-1", "--out", out]) == 2
    assert "master_seed" in capsys.readouterr().err
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({**SMALL, "master_seed": -3}))
    assert main(["simulate", "--config", str(path), "--out", out]) == 2
    monkeypatch.setenv("VPIDENT_SEED", "-1")
    assert main(["simulate", "--config", small_config, "--out", out]) == 2
    assert not os.path.exists(out)


def test_boolean_history_rejected(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"histories": [True]}))
    with pytest.raises(ConfigError, match="histories"):
        load_config(str(path))
    assert main(["montecarlo", "--config", str(path), "--instances", "2",
                 "--out", str(tmp_path / "mc")]) == 2


def test_default_config_is_json_clean():
    json.dumps(DEFAULT_CONFIG)


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


def test_full_inverse_cov_weighting_is_the_symmetrized_inverse():
    """build_weighting symmetrizes inv(cov) in place; the matrix must equal
    0.5 (inv + inv.T) bit for bit. At sigma1 << sigma2 the round-off
    asymmetry of inv(cov) exceeds the symmetry tolerance of the scheme."""
    from vpident.cli import build_weighting
    from vpident.noise import NoiseModel, covariance

    exp = 300.0 * np.sin(np.linspace(0.0, 6.0, 200))
    for model in (NoiseModel.two_source(10.0, 5.0), NoiseModel.two_source(0.01, 5.0)):
        inv = np.linalg.inv(covariance(model, exp))
        scheme = build_weighting("full_inverse_cov", exp, model)
        assert np.array_equal(scheme.matrix(), 0.5 * (inv + inv.T))


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
    undefined. The run exits 5 with the ZeroReferenceParameter message before
    any noise draw or metric pass, and writes no CSV."""
    from vpident import sensitivity

    calls = []
    monkeypatch.setattr(sensitivity, "mechanics_distances", lambda *a, **k: calls.append("metric"))
    monkeypatch.setattr(sensitivity, "sample_noise", lambda *a, **k: calls.append("draw"))
    params = tmp_path / "zero_beta.csv"
    write_param_file(str(params), HardeningParams.from_vector(truth.as_vector() * [1, 0, 1, 1, 1, 1]))
    out = tmp_path / "mc"
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


def test_distance_different_parameter_sets(small_config, tmp_path, capsys, truth):
    p1 = tmp_path / "p1.csv"
    p2 = tmp_path / "p2.csv"
    write_param_file(str(p1), truth)
    from vpident import HardeningParams
    other = HardeningParams(321.92, 2.003, 1488.4, 20512.0, 0.004087, 0.004526)
    write_param_file(str(p2), other)
    assert main(["distance", str(p1), str(p2), "--config", small_config,
                 "--history", "1"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("mechanics history 1:")][0]
    assert float(line.split(":")[1]) > 0.0


def test_distance_unknown_history(small_config, tmp_path, truth):
    p = tmp_path / "p.csv"
    write_param_file(str(p), truth)
    assert main(["distance", str(p), str(p), "--config", small_config,
                 "--history", "3"]) == 2


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
