"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench
"""

import csv
import os
import shutil
import subprocess
import sys

import pytest

import checks
import harness
import tracing
import vpident.cli
import vpident.constitutive
import vpident.loading
from workloads import TOY_WORKLOADS, call_vpident

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 3


@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_toy_workload_passes_untraced(name, tmp_path):
    result = harness.run(TOY_WORKLOADS[name], SEED, 0.1, False, 0.0, str(tmp_path), 2)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.listdir(tmp_path)  # the work directory is removed


@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_toy_workload_traced_covers_every_layer(name, tmp_path):
    wl = TOY_WORKLOADS[name]
    result = harness.run(wl, SEED, 0.1, True, 0.0, str(tmp_path), 1)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    metrics = result["metrics"]
    assert set(metrics) == set(harness.LAYER_UNITS)
    assert metrics["trace.zero_layers"]["value"] == 0
    assert all(metrics[layer]["value"] > 0 for layer in wl.expected_layers)
    # every wrapped site is restored, so untraced calls run the program as is
    assert vpident.cli.build_weighting.__module__ == "vpident.cli"
    assert vpident.identify.cauchy_response is vpident.constitutive.cauchy_response
    assert "wrapper" not in vpident.loading.DeformationHistory.grid.__qualname__


def test_tracer_counts_layers_and_restores_sites(tmp_path):
    wl = TOY_WORKLOADS["montecarlo"]
    inputs = wl.set_up(str(tmp_path / "in"), SEED)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert call_vpident(wl.argv(inputs, SEED, str(tmp_path / "out"))) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    values = tracing.layer_metrics(tracer, None)
    assert values["metric.members_scored"] == wl.instances * 3 * len(wl.histories)
    assert values["noise.sample_calls"] == wl.instances * 3
    integ = tracer.span(tracing.INTEGRATION)
    assert integ.self_time <= integ.total
    assert vpident.cli.covariance is vpident.noise.covariance


# ---------------------------------------------------------------------------
# each output check rejects a corrupted output


@pytest.fixture(scope="module")
def identify_run(tmp_path_factory):
    wl = TOY_WORKLOADS["identify"]
    root = tmp_path_factory.mktemp("identify")
    inputs = wl.set_up(str(root / "in"), SEED)
    out = str(root / "out")
    assert call_vpident(wl.argv(inputs, SEED, out)) == 0
    assert wl.check(inputs, SEED, out, 0) == []
    return wl, inputs, out


@pytest.fixture(scope="module")
def montecarlo_run(tmp_path_factory):
    wl = TOY_WORKLOADS["montecarlo"]
    root = tmp_path_factory.mktemp("montecarlo")
    inputs = wl.set_up(str(root / "in"), SEED)
    out = str(root / "out")
    assert call_vpident(wl.argv(inputs, SEED, out)) == 0
    assert wl.check(inputs, SEED, out, 0) == []
    return wl, inputs, out


def edit_csv(path: str, edit) -> None:
    """Rewrite the CSV file at `path` with edit(rows) applied to its rows."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def corrupt_copy(out: str, tmp_path, name: str, edit) -> str:
    """A copy of the output directory whose CSV `name` went through edit(rows)."""
    copy = str(tmp_path / "corrupt")
    shutil.copytree(out, copy)
    edit_csv(os.path.join(copy, name), edit)
    return copy


def test_identify_check_rejects_non_converged_fit(identify_run, tmp_path):
    wl, inputs, out = identify_run

    def not_converged(rows):
        next(r for r in rows if r[0] == "converged")[1] = "0"

    bad = corrupt_copy(out, tmp_path, "fit_params.csv", not_converged)
    assert any("converged=0" in p for p in wl.check(inputs, SEED, bad, 0))
    # exit code 4 without the damping exhausted: stopped early, not stalled
    assert any("damping exhausted" in p for p in wl.check(inputs, SEED, bad, 4))


def stall(out: str, tmp_path) -> str:
    """A copy of a converged fit's outputs as the program writes them when
    one more iteration rejects every trial step up to the maximum damping."""
    copy = str(tmp_path / "stalled")
    shutil.copytree(out, copy)
    params = dict(checks.read_rows(os.path.join(copy, "fit_params.csv"))[1])
    iteration = str(int(params["iterations"]) + 1)
    changed = {"converged": "0", "iterations": iteration}

    def not_converged(rows):
        for row in rows:
            row[1] = changed.get(row[0], row[1])

    def rejected_trials(rows):
        phi = float(params["phi"])
        rows += [[iteration, repr(phi * (1.0 + 1.0e-15)), repr(10.0 ** e), "0"]
                 for e in range(-7, 14)]

    edit_csv(os.path.join(copy, "fit_params.csv"), not_converged)
    edit_csv(os.path.join(copy, "fit_log.csv"), rejected_trials)
    return copy


def test_identify_check_accepts_a_fit_stalled_at_its_minimum(identify_run, tmp_path):
    wl, inputs, out = identify_run
    stalled = stall(out, tmp_path)
    assert wl.check(inputs, SEED, stalled, 4) == []
    assert any("converged=0 with exit code 0" in p for p in wl.check(inputs, SEED, stalled, 0))


def test_identify_check_rejects_a_fit_that_is_not_a_minimum(identify_run, tmp_path):
    wl, inputs, out = identify_run

    def nudged(rows):
        row = next(r for r in rows if r[0] == "c1")
        row[1] = repr(float(row[1]) * (1.0 + 1.0e-5))

    for rc, bad in ((0, corrupt_copy(out, tmp_path / "converged", "fit_params.csv", nudged)),
                    (4, corrupt_copy(stall(out, tmp_path / "s"), tmp_path / "stalled",
                                     "fit_params.csv", nudged))):
        assert any("not a minimum" in p for p in wl.check(inputs, SEED, bad, rc))


def test_identify_check_rejects_log_with_rising_phi(identify_run, tmp_path):
    wl, inputs, out = identify_run

    def rising(rows):
        rows[2][1] = repr(2.0 * float(rows[1][1]))  # iteration 1 accepted above the start

    bad = corrupt_copy(out, tmp_path, "fit_log.csv", rising)
    assert any("increased phi" in p for p in wl.check(inputs, SEED, bad, 0))


def test_identify_check_rejects_parameters_that_do_not_give_phi(identify_run, tmp_path):
    wl, inputs, out = identify_run

    def moved(rows):
        row = next(r for r in rows if r[0] == "c1")
        row[1] = repr(float(row[1]) * 1.01)

    bad = corrupt_copy(out, tmp_path, "fit_params.csv", moved)
    assert any("phi at the fitted parameters" in p for p in wl.check(inputs, SEED, bad, 0))


def test_montecarlo_check_rejects_perturbed_cloud_row(montecarlo_run, tmp_path):
    wl, inputs, out = montecarlo_run
    row = wl.instances // 2

    def perturb(rows):
        rows[1 + row][2] = repr(float(rows[1 + row][2]) * (1.0 + 1.0e-6))

    bad = corrupt_copy(out, tmp_path, "cloud_full_inverse_cov.csv", perturb)
    problems = wl.check(inputs, SEED, bad, 0)
    assert any(f"row {row} differs" in p for p in problems)


def test_montecarlo_check_rejects_summary_in_wrong_order(montecarlo_run, tmp_path):
    wl, inputs, out = montecarlo_run

    def swap(rows):
        rows[1], rows[3] = rows[3], rows[1]

    bad = corrupt_copy(out, tmp_path, "mc_summary.csv", swap)
    assert any("expected" in p for p in wl.check(inputs, SEED, bad, 0))


def test_montecarlo_check_rejects_full_weighting_not_smallest(montecarlo_run, tmp_path):
    wl, inputs, out = montecarlo_run

    def inflate(rows):
        col = rows[0].index("size_history_1")
        rows[3][col] = repr(10.0 * float(rows[3][col]))

    bad = corrupt_copy(out, tmp_path, "mc_summary.csv", inflate)
    assert any("not the smallest" in p for p in wl.check(inputs, SEED, bad, 0))


def test_failed_exit_and_failed_check_count_as_failures(montecarlo_run, tmp_path):
    wl, inputs, out = montecarlo_run
    assert harness._problems(wl, SEED, [(inputs, out, 5)]) == [["exit code 5"]]
    bad = corrupt_copy(out, tmp_path, "mc_summary.csv", lambda rows: rows.pop())
    calls = [(inputs, out, 0), (inputs, bad, 0), (inputs, out, 4)]
    assert harness._failures(wl, SEED, calls) == (2, 0)
    malformed = corrupt_copy(out, tmp_path / "m", "mc_summary.csv",
                             lambda rows: rows[1].__delitem__(slice(2, None)))
    assert harness._failures(wl, SEED, [(inputs, malformed, 0)]) == (1, 0)


def test_stalled_fit_is_counted_not_failed(identify_run, tmp_path):
    wl, inputs, out = identify_run
    calls = [(inputs, out, 0), (inputs, stall(out, tmp_path), 4), (inputs, out, 4)]
    assert harness._failures(wl, SEED, calls) == (1, 1)


def test_identify_calls_fit_records_of_their_own(identify_run):
    wl, inputs, _ = identify_run
    later = wl.call_inputs(inputs, SEED, 1)
    assert later["config"] == inputs["config"]
    with open(inputs["record"], "rb") as first, open(later["record"], "rb") as second:
        assert first.read() != second.read()


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
