"""Workloads of the vpident benchmark.

Every workload pins a complete JSON run configuration, so a change of the
package defaults never changes what is measured. A workload has a set-up
step that writes the inputs of the timed command (the configuration and,
for ``identify``, the noisy record), the argv of the timed ``vpident``
command, and the check of that command's outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

from vpident.cli import main as vpident_main
from vpident.config import load_config

import checks

MATERIAL = {"k": 135600.0, "mu": 52000.0, "eta": 5.0e5, "m": 2.26, "K": 335.0, "k0": 1.0}
TRUTH = {"gamma": 435.22, "beta": 2.625, "c1": 1661.7, "c2": 24672.0,
         "kappa1": 0.003810, "kappa2": 0.004282}
NOISE = {"kind": "two_source", "sigma": 0.0, "alpha": 0.0, "sigma1": 10.0, "sigma2": 5.0}

# Per-layer metrics that a traced run of each command must see at work.
# A zero here means a wrapped import site was bypassed (see tracing.py).
COMMON_LAYERS = (
    "constitutive.steps", "constitutive.member_steps", "constitutive.us_per_step",
    "constitutive.ns_per_member_step", "tensors.det_per_step", "tensors.inverse_per_step",
    "identify.response_calls", "identify.response_rows", "identify.weighting_s",
    "noise.covariance_s", "cli.csv_s", "config.load_s",
)
IDENTIFY_LAYERS = COMMON_LAYERS + (
    "identify.lm_iterations", "identify.lm_trials", "identify.lm_accept_ratio",
    "identify.lm_self_s",
)
MONTECARLO_LAYERS = COMMON_LAYERS + (
    "noise.sample_calls", "noise.sample_s", "sensitivity.normal_solve_s",
    "sensitivity.cloud_self_s", "metric.members_scored", "metric.self_s",
    "loading.grid_calls", "loading.grid_s",
)


def run_config(n_points: int, instances: int, histories, history_steps=400) -> dict:
    """A complete vpident configuration; the seed is passed on the command line."""
    return {
        "material": MATERIAL,
        "truth_hardening": TRUTH,
        "start_hardening": None,
        "program": {"max_shear": 0.5, "targets": [0.25, -0.2, 0.3], "n_points": n_points,
                    "duration": 500.0},
        "noise": NOISE,
        "weighting": "full_inverse_cov",
        "n_instances": instances,
        "master_seed": 0,
        "histories": list(histories),
        "history_steps": history_steps,
        "history_duration": 400.0,
        "workers": 1,
        "output_dir": "out",
    }


class SetupError(RuntimeError):
    """The inputs of a workload could not be produced."""


def call_vpident(argv: list[str]) -> int:
    """Run the real entry point in this process, keeping its console output
    out of the benchmark's own standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return vpident_main(argv)


def _write_config(path: str, config: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=1)
    load_config(path)  # a configuration the program rejects is a set-up error
    return path


def record_seed(seed: int, call: int) -> int:
    """Noise seed of the record that call `call` of a run fits."""
    return seed if call == 0 else 1000 * seed + call


@dataclass(frozen=True)
class IdentifyWorkload:
    """``vpident identify`` on noisy records written by ``vpident simulate``.

    Every call of a run fits a record of its own, so a run's median spans
    several noise instances and with them the seed-dependent LM work.
    """

    name: str
    config: dict
    expected_layers: tuple = IDENTIFY_LAYERS
    # exit 4 (no convergence) is checked too: see checks.check_identify
    checked_exits: tuple = (0, 4)

    def identified_per_call(self) -> int:
        return 1

    def set_up(self, directory: str, seed: int) -> dict:
        config = _write_config(os.path.join(directory, "config.json"), self.config)
        return {"config": config, "record": self._simulate(config, directory, seed, 0)}

    def call_inputs(self, inputs: dict, seed: int, call: int) -> dict:
        if call == 0:
            return inputs
        directory = os.path.dirname(os.path.dirname(inputs["record"]))
        return {"config": inputs["config"],
                "record": self._simulate(inputs["config"], directory, seed, call)}

    @staticmethod
    def _simulate(config: str, directory: str, seed: int, call: int) -> str:
        record_dir = os.path.join(directory, f"record{call}")
        rc = call_vpident(["simulate", "--config", config, "--with-noise",
                           "--seed", str(record_seed(seed, call)), "--out", record_dir])
        if rc != 0:
            raise SetupError(f"vpident simulate exited with {rc}")
        return os.path.join(record_dir, "experiment.csv")

    def argv(self, inputs: dict, seed: int, out_dir: str) -> list[str]:
        return ["identify", inputs["record"], "--config", inputs["config"],
                "--weighting", "full_inv_cov", "--seed", str(seed), "--out", out_dir]

    def check(self, inputs: dict, seed: int, out_dir: str, rc: int) -> list[str]:
        return checks.check_identify(inputs["config"], inputs["record"], out_dir, rc)


@dataclass(frozen=True)
class MonteCarloWorkload:
    """``vpident montecarlo --weighting all`` about the configured truth."""

    name: str
    config: dict
    expected_layers: tuple = MONTECARLO_LAYERS
    checked_exits: tuple = (0,)

    @property
    def instances(self) -> int:
        return self.config["n_instances"]

    @property
    def histories(self) -> tuple:
        return tuple(self.config["histories"])

    def identified_per_call(self) -> int:
        return self.instances * len(checks.SCHEMES)

    def set_up(self, directory: str, seed: int) -> dict:
        return {"config": _write_config(os.path.join(directory, "config.json"), self.config)}

    def call_inputs(self, inputs: dict, seed: int, call: int) -> dict:
        return inputs

    def argv(self, inputs: dict, seed: int, out_dir: str) -> list[str]:
        argv = ["montecarlo", "--config", inputs["config"], "--weighting", "all",
                "--seed", str(seed), "--instances", str(self.instances), "--workers", "1",
                "--out", out_dir]
        for h in self.histories:
            argv += ["--history", str(h)]
        return argv

    def check(self, inputs: dict, seed: int, out_dir: str, rc: int) -> list[str]:
        return checks.check_montecarlo(inputs["config"], out_dir, seed, self.instances,
                                       self.histories)


# The default torsion program at 200 points, identified from 1.2 x truth;
# a call takes about a quarter of the time of the default 800 points, so a
# run fits three to five records and reports their median (see README.md).
IDENTIFY = IdentifyWorkload("identify", run_config(200, 1, (1, 2)))
# Both benchmark histories scored for 1000 instances x 3 schemes: one
# chunk of ~1000 members per (scheme, history), so metric scoring dominates.
MONTECARLO = MonteCarloWorkload("montecarlo", run_config(800, 1000, (1, 2)))
# A densely sampled record: the dense N x N weighting build grows as N^3
# while metric scoring of 100 instances on one history stays small.
LONG_RECORD = MonteCarloWorkload("long_record", run_config(3000, 100, (1,)))

WORKLOADS = {w.name: w for w in (IDENTIFY, MONTECARLO, LONG_RECORD)}

# Toy sizes of the same three workloads, for the benchmark's own tests.
TOY_WORKLOADS = {
    "identify": IdentifyWorkload("identify", run_config(100, 1, (1, 2), history_steps=100)),
    "montecarlo": MonteCarloWorkload("montecarlo", run_config(200, 200, (1, 2), history_steps=100)),
    "long_record": MonteCarloWorkload("long_record", run_config(400, 100, (1,), history_steps=100)),
}
