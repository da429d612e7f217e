"""Run configuration: JSON file, environment overrides, strict validation.

A run is fully described by one config file; command-line flags win over
environment variables (prefix VPIDENT_), which win over the file, which
falls back to the built-in defaults. Unknown keys anywhere are rejected
with their field path so a typo cannot silently fall back to a default.

The default material constants are a pre-identified set for a quenched and
tempered 42CrMo4-type steel; the default hardening values act as the
synthetic ground truth from which experiments are generated.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any

from .constitutive import PARAM_NAMES, HardeningParams, MaterialParams
from .errors import ConfigError, InvalidProgram
from .loading import StrainProgram, torsion_program
from .noise import NoiseModel

WEIGHTING_KINDS = ("identity", "diag_inverse_cov", "full_inverse_cov")

#: CLI flag spellings for the weighting strategies
WEIGHTING_ALIASES = {
    "identity": "identity",
    "diag_inv_cov": "diag_inverse_cov",
    "full_inv_cov": "full_inverse_cov",
}

ENV_PREFIX = "VPIDENT_"

DEFAULT_CONFIG: dict[str, Any] = {
    "material": {
        "k": 135600.0,
        "mu": 52000.0,
        "eta": 5.0e5,
        "m": 2.26,
        "K": 335.0,
        "k0": 1.0,
    },
    "truth_hardening": {
        "gamma": 435.22,
        "beta": 2.625,
        "c1": 1661.7,
        "c2": 24672.0,
        "kappa1": 0.003810,
        "kappa2": 0.004282,
    },
    # identification start point; null means 1.2 x truth per component
    "start_hardening": None,
    # synthetic non-monotonic torsion experiment (three shear segments,
    # sampled so the correlated noise source is well resolved)
    "program": {
        "max_shear": 0.5,
        "targets": [0.25, -0.2, 0.3],
        "n_points": 800,
        "duration": 500.0,
    },
    "noise": {
        "kind": "two_source",
        "sigma": 0.0,
        "alpha": 0.0,
        "sigma1": 10.0,
        "sigma2": 5.0,
    },
    "weighting": "full_inverse_cov",
    "n_instances": 10000,
    "master_seed": 2026,
    "histories": [1, 2],
    "history_steps": 400,
    "history_duration": 400.0,
    "workers": 1,
    "output_dir": "out",
}


@dataclass
class RunConfig:
    material: MaterialParams
    truth: HardeningParams
    start: HardeningParams
    program: StrainProgram
    noise: NoiseModel
    weighting: str
    n_instances: int
    master_seed: int
    histories: list
    history_steps: int
    history_duration: float
    output_dir: str


def _reject_unknown(block: dict, allowed, path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}{key!r}")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    _reject_unknown(override, base.keys(), path)
    out = {}
    for key, default in base.items():
        if key in override and isinstance(default, dict):
            if not isinstance(override[key], dict):
                raise ConfigError(f"config key {path}{key!r} must be an object")
            out[key] = _merge(default, override[key], f"{path}{key}.")
        elif key in override:
            out[key] = override[key]
        else:
            out[key] = default
    return out


def _check_number(value, name: str, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {name}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {name}: expected a finite number, got {value!r}")
    if kind is int and int(value) != value:
        raise ConfigError(f"config key {name}: expected an integer, got {value!r}")
    return kind(value)


def _number(raw: dict, key: str, path: str, kind=float):
    return _check_number(raw.get(key), f"{path}{key}", kind)


def _hardening(block: dict, path: str) -> HardeningParams:
    _reject_unknown(block, PARAM_NAMES, path)
    values = {name: _number(block, name, path) for name in PARAM_NAMES}
    try:
        return HardeningParams(**values)
    except ValueError as err:
        raise ConfigError(f"{path[:-1]}: {err}") from None


def materialize(raw: dict) -> RunConfig:
    """Validate a merged config dict and build the run objects."""
    truth = _hardening(raw["truth_hardening"], "truth_hardening.")
    start_block = raw["start_hardening"]
    if start_block is None:
        start = HardeningParams.from_vector(truth.as_vector() * 1.2)
    elif isinstance(start_block, dict):
        start = _hardening(start_block, "start_hardening.")
    else:
        raise ConfigError("config key 'start_hardening' must be an object or null")

    mat_block = raw["material"]
    try:
        material = MaterialParams(
            k=_number(mat_block, "k", "material."),
            mu=_number(mat_block, "mu", "material."),
            eta=_number(mat_block, "eta", "material."),
            m=_number(mat_block, "m", "material."),
            K=_number(mat_block, "K", "material."),
            k0=_number(mat_block, "k0", "material."),
            hardening=truth,
        )
    except ValueError as err:
        raise ConfigError(f"material: {err}") from None

    prog_block = raw["program"]
    targets = prog_block.get("targets")
    if not isinstance(targets, (list, tuple)) or not targets:
        raise ConfigError("program.targets must be a non-empty list of shear values")
    try:
        program, _ = torsion_program(
            _number(prog_block, "max_shear", "program."),
            [_check_number(t, f"program.targets[{i}]") for i, t in enumerate(targets)],
            _number(prog_block, "n_points", "program.", int),
            _number(prog_block, "duration", "program."),
        )
    except InvalidProgram as err:
        raise ConfigError(f"program: {err}") from None

    noise_block = raw["noise"]
    kind = noise_block.get("kind")
    try:
        if kind == "white":
            noise = NoiseModel.white(_number(noise_block, "sigma", "noise."))
        elif kind == "ar":
            noise = NoiseModel.ar(_number(noise_block, "alpha", "noise."),
                                  _number(noise_block, "sigma", "noise."))
        elif kind == "two_source":
            noise = NoiseModel.two_source(_number(noise_block, "sigma1", "noise."),
                                          _number(noise_block, "sigma2", "noise."))
        else:
            raise ConfigError(f"noise.kind: unknown kind {kind!r}")
    except ValueError as err:
        raise ConfigError(f"noise: {err}") from None

    weighting = raw["weighting"]
    if weighting not in WEIGHTING_KINDS:
        raise ConfigError(f"weighting: expected one of {WEIGHTING_KINDS}, got {weighting!r}")

    n_instances = _number(raw, "n_instances", "", int)
    if n_instances < 1:
        raise ConfigError("n_instances must be >= 1")
    master_seed = _number(raw, "master_seed", "", int)
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")

    histories = raw["histories"]
    if not isinstance(histories, (list, tuple)) or not histories:
        raise ConfigError("histories must be a non-empty list")
    for h in histories:
        if type(h) is not int or h not in (1, 2):
            raise ConfigError(f"histories: unknown benchmark history {h!r} (use 1 or 2)")

    history_steps = _number(raw, "history_steps", "", int)
    if history_steps < 1:
        raise ConfigError("history_steps must be >= 1")
    history_duration = _number(raw, "history_duration", "")
    if history_duration <= 0.0:
        raise ConfigError("history_duration must be positive")
    # a validated no-op: cloud scoring runs its chunks one after another
    if _number(raw, "workers", "", int) < 1:
        raise ConfigError("workers must be >= 1")
    output_dir = raw["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a non-empty string")

    return RunConfig(
        material=material,
        truth=truth,
        start=start,
        program=program,
        noise=noise,
        weighting=weighting,
        n_instances=n_instances,
        master_seed=master_seed,
        histories=list(histories),
        history_steps=history_steps,
        history_duration=history_duration,
        output_dir=output_dir,
    )


def _env_overrides(environ) -> dict:
    out: dict[str, Any] = {}
    mapping = {
        "SEED": ("master_seed", int),
        "INSTANCES": ("n_instances", int),
        "WEIGHTING": ("weighting", str),
        "OUT": ("output_dir", str),
        "WORKERS": ("workers", int),
    }
    for suffix, (key, cast) in mapping.items():
        value = environ.get(ENV_PREFIX + suffix)
        if value is not None:
            try:
                out[key] = cast(value)
            except ValueError:
                raise ConfigError(f"environment variable {ENV_PREFIX}{suffix}: cannot parse {value!r}")
    return out


def load_config(path: str | None = None, overrides: dict | None = None,
                environ=None) -> RunConfig:
    """Load defaults, the optional JSON file, environment, then overrides."""
    file_dict: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                file_dict = json.load(handle)
        except OSError as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
        if not isinstance(file_dict, dict):
            raise ConfigError("config file must contain a JSON object")
    merged = _merge(DEFAULT_CONFIG, file_dict)
    env = _env_overrides(os.environ if environ is None else environ)
    merged.update({k: v for k, v in env.items()})
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in DEFAULT_CONFIG:
                raise ConfigError(f"unknown override {key!r}")
            merged[key] = value
    return materialize(merged)
