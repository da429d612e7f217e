"""Batch front end: simulate | identify | montecarlo | distance.

Outputs are plain CSV (small tables, diffable, deterministic byte-for-byte
under a fixed config and seed). Exit codes: 0 success, 2 configuration
error, 3 data error, 4 identification did not converge, 5 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import WEIGHTING_ALIASES, RunConfig, load_config
from .constitutive import PARAM_NAMES, HardeningParams
from .errors import ConfigError, DataError, FactorizationFailure, VpidentError
from .identify import (
    ExperimentData,
    WeightingScheme,
    levenberg_marquardt,
    model_response,
)
from .loading import StrainProgram, benchmark_history
from .metric import MetricSpec, check_metric_axioms, dist_euclidean, dist_euclidean_nondim, dist_mechanics
from .noise import NoiseModel, covariance, has_covariance, sample_noise
from .sensitivity import CloudReport, linearize_at, monte_carlo_cloud


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path: str, header: list, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_rows(path: str, header: list, what: str) -> list:
    """(line number, first, second) of every non-blank row of a two-column
    CSV file that starts with the given header."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            head = next(reader, None)
            if head is None or [h.strip() for h in head] != header:
                raise DataError(f"{path}: expected header '{','.join(header)}'")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise DataError(f"{path}:{lineno}: expected two columns")
                rows.append((lineno, row[0], row[1]))
    except OSError as err:
        raise DataError(f"cannot read {what} file {path}: {err}") from None
    return rows


def read_data_file(path: str) -> ExperimentData:
    """CSV with header 'strain,stress', one observation per row."""
    strains, stresses = [], []
    for lineno, strain, stress in _read_rows(path, ["strain", "stress"], "data"):
        try:
            strains.append(float(strain))
            stresses.append(float(stress))
        except ValueError:
            raise DataError(f"{path}:{lineno}: values must be numeric") from None
    if len(strains) < 2:
        raise DataError(f"{path}: need at least two observations")
    return ExperimentData(np.array(stresses), np.array(strains))


def write_data_file(path: str, strains: np.ndarray, stresses: np.ndarray) -> None:
    _write_csv(path, ["strain", "stress"], zip(strains.tolist(), stresses.tolist()))


def read_param_file(path: str) -> HardeningParams:
    """CSV with header 'name,value' carrying the six hardening parameters."""
    rows = _read_rows(path, ["name", "value"], "parameter")
    values = {name.strip(): value for _, name, value in rows}
    missing = [n for n in PARAM_NAMES if n not in values]
    if missing:
        raise DataError(f"{path}: missing parameters {missing}")
    try:
        return HardeningParams(**{n: float(values[n]) for n in PARAM_NAMES})
    except ValueError as err:
        raise DataError(f"{path}: {err}") from None


def write_param_file(path: str, params: HardeningParams, extra: dict | None = None) -> None:
    rows = [(name, getattr(params, name)) for name in PARAM_NAMES]
    rows.extend((extra or {}).items())
    _write_csv(path, ["name", "value"], rows)


def _require_covariance(kind: str, noise_model: NoiseModel) -> None:
    """ConfigError if the weighting needs a covariance the noise model lacks
    or cannot invert (two-source noise without its white part is rank one)."""
    if kind != "identity" and not has_covariance(noise_model):
        raise ConfigError(f"weighting {kind!r}: no closed-form covariance is provided for "
                          f"the {noise_model.kind.upper()} model")
    if (kind == "full_inverse_cov" and noise_model.kind == "two_source"
            and noise_model.sigma1 == 0.0 < noise_model.sigma2):
        raise ConfigError(f"weighting {kind!r}: the two-source covariance with sigma1 = 0 "
                          f"is singular and has no inverse")


def build_weighting(kind: str, observations: np.ndarray, noise_model: NoiseModel) -> WeightingScheme:
    """Materialize a weighting strategy against a concrete data vector.

    A covariance that is exactly zero (noise-free configuration) makes the
    inverse-covariance strategies undefined; every SPD weighting is then
    equivalent, so they fall back to the identity. Any other singular
    covariance raises ConfigError or FactorizationFailure.
    """
    _require_covariance(kind, noise_model)
    if kind == "identity":
        return WeightingScheme.identity(len(observations))
    cov = covariance(noise_model, observations)
    if not np.any(cov):
        return WeightingScheme.identity(len(observations))
    if kind == "diag_inverse_cov":
        var = np.diag(cov)
        if not np.all(var > 0.0):
            raise FactorizationFailure(f"noise variance of sample {np.argmin(var > 0.0)} is zero "
                                       "and has no inverse")
        return WeightingScheme.diagonal(1.0 / var)
    if kind == "full_inverse_cov":
        # In place, to hold as few N x N matrices at once as possible. numpy
        # buffers the overlapping inv.T, so the sum equals inv + inv.T.
        try:
            inv = np.linalg.inv(cov)
            del cov
            if not np.isfinite(np.max(np.abs(inv))):  # a singular cov can invert without an error
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise FactorizationFailure("noise covariance is singular and has no inverse") from None
        inv += inv.T
        inv *= 0.5
        return WeightingScheme.full(inv)
    raise ConfigError(f"unknown weighting kind {kind!r}")


def _metric_specs(cfg: RunConfig, history_ids=None) -> dict:
    ids = cfg.histories if history_ids is None else history_ids
    specs = {}
    for h in ids:
        if h not in (1, 2):
            raise ConfigError(f"unknown benchmark history {h!r} (use 1 or 2)")
        specs[h] = MetricSpec(
            benchmark_history(h, duration=cfg.history_duration),
            cfg.material,
            n_steps=cfg.history_steps,
        )
    return specs


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, with_noise: bool, out_dir: str) -> int:
    response = model_response(cfg.truth, cfg.material, cfg.program)
    stresses = response
    if with_noise:
        stresses = response + sample_noise(cfg.noise, response, cfg.master_seed)
    path = os.path.join(out_dir, "experiment.csv")
    write_data_file(path, cfg.program.shear_values, stresses)
    print(f"wrote {path} ({cfg.program.n_points} rows, "
          f"{'noisy' if with_noise else 'noise-free'}, seed {cfg.master_seed})")
    return 0


def _program_for_data(cfg: RunConfig, data: ExperimentData) -> StrainProgram:
    # User data carries no time stamps: assume the configured duration and
    # even time spacing, exactly matching what cmd_simulate produced.
    return StrainProgram(shear_values=data.abscissae, duration=cfg.program.duration)


def cmd_identify(cfg: RunConfig, data_path: str, out_dir: str) -> int:
    data = read_data_file(data_path)
    program = _program_for_data(cfg, data)
    scheme = build_weighting(cfg.weighting, data.observations, cfg.noise)
    fit = levenberg_marquardt(cfg.start, data, scheme, cfg.material, program)
    write_param_file(
        os.path.join(out_dir, "fit_params.csv"),
        fit.params,
        extra={
            "phi": fit.phi,
            "iterations": fit.iterations,
            "converged": int(fit.converged),
            "weighting": cfg.weighting,
        },
    )
    _write_csv(
        os.path.join(out_dir, "fit_log.csv"),
        ["iteration", "phi", "damping", "accepted"],
        [(it, phi, lam, int(acc)) for it, phi, lam, acc in fit.history],
    )
    print(f"fit {'converged' if fit.converged else 'DID NOT converge'} "
          f"after {fit.iterations} iterations, phi = {fit.phi!r}")
    for name in PARAM_NAMES:
        print(f"  {name} = {getattr(fit.params, name)!r}")
    return 0 if fit.converged else 4


def write_cloud(path: str, report: CloudReport) -> None:
    _write_csv(path, list(PARAM_NAMES), report.cloud.tolist())


def cmd_montecarlo(cfg: RunConfig, schemes: list, instances: int, out_dir: str,
                   history_ids, params_path: str | None) -> int:
    base = read_param_file(params_path) if params_path else cfg.truth
    for kind in schemes:  # before the linearization and the first draw
        _require_covariance(kind, cfg.noise)
    lin = linearize_at(base, cfg.material, cfg.program)
    exp = lin.mod_star
    metrics = _metric_specs(cfg, history_ids)

    summary_rows = []
    for kind in schemes:
        scheme = build_weighting(kind, exp, cfg.noise)
        report = monte_carlo_cloud(lin, scheme, cfg.noise, exp, instances, cfg.master_seed,
                                   metrics=metrics)
        cloud_path = os.path.join(out_dir, f"cloud_{kind}.csv")
        write_cloud(cloud_path, report)
        row = [kind, cfg.master_seed, instances]
        row += [report.size_per_history[h] for h in sorted(metrics)]
        row += list(report.variances)
        row += [int(report.outside_cone.sum())]
        summary_rows.append(row)
        sizes = ", ".join(f"history {h}: {report.size_per_history[h]:.4f} MPa"
                          for h in sorted(metrics))
        print(f"{kind}: wrote {cloud_path}; cloud size {sizes}")
    header = (["scheme", "seed", "instances"]
              + [f"size_history_{h}" for h in sorted(metrics)]
              + [f"var_{name}" for name in PARAM_NAMES]
              + ["outside_cone"])
    summary_path = os.path.join(out_dir, "mc_summary.csv")
    _write_csv(summary_path, header, summary_rows)
    print(f"wrote {summary_path}")
    return 0


def cmd_distance(cfg: RunConfig, p1_path: str, p2_path: str, history_ids) -> int:
    p1 = read_param_file(p1_path)
    p2 = read_param_file(p2_path)
    specs = _metric_specs(cfg, history_ids)
    print(f"euclidean: {dist_euclidean(p1, p2)!r}")
    print(f"euclidean_nondim (reference = configured truth): "
          f"{dist_euclidean_nondim(p1, p2, cfg.truth)!r}")
    mid = HardeningParams.from_vector(0.5 * (p1.as_vector() + p2.as_vector()))
    for h, spec in sorted(specs.items()):
        print(f"mechanics history {h}: {dist_mechanics(p1, p2, spec)!r}")
        report = check_metric_axioms(spec, [p1, p2, mid])
        print(f"axioms history {h} (samples: p1, p2, midpoint):")
        for line in report.summary().splitlines():
            print(f"  {line}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpident",
        description="Hardening-parameter identification and noise-sensitivity analysis "
                    "for a finite-strain viscoplasticity model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", metavar="DIR", help="output directory")

    p_sim = sub.add_parser("simulate", help="write a synthetic experiment CSV")
    common(p_sim)
    p_sim.add_argument("--with-noise", action="store_true",
                       help="add one sampled noise instance to the response")

    p_ident = sub.add_parser("identify", help="fit hardening parameters to a data file")
    common(p_ident)
    p_ident.add_argument("data", help="CSV file with header strain,stress")
    p_ident.add_argument("--weighting", choices=sorted(WEIGHTING_ALIASES),
                         help="weighting strategy")

    p_mc = sub.add_parser("montecarlo", help="parameter cloud under sampled noise")
    common(p_mc)
    p_mc.add_argument("--instances", type=int, help="number of noise instances")
    p_mc.add_argument("--weighting", choices=sorted(WEIGHTING_ALIASES) + ["all"],
                      help="weighting strategy, or 'all' for a comparison table")
    p_mc.add_argument("--history", type=int, action="append", choices=(1, 2),
                      help="benchmark history id (repeatable)")
    p_mc.add_argument("--params", metavar="PATH",
                      help="base parameter file (default: configured truth)")
    p_mc.add_argument("--workers", type=int, help="ignored; cloud scoring runs sequentially")

    p_dist = sub.add_parser("distance", help="distances between two parameter files")
    common(p_dist)
    p_dist.add_argument("p1", help="first parameter CSV (name,value)")
    p_dist.add_argument("p2", help="second parameter CSV (name,value)")
    p_dist.add_argument("--history", type=int, action="append",
                        help="benchmark history id (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        overrides = {"master_seed": getattr(args, "seed", None)}
        if getattr(args, "out", None):
            overrides["output_dir"] = args.out
        if getattr(args, "instances", None) is not None:
            overrides["n_instances"] = args.instances
        if getattr(args, "workers", None) is not None:
            overrides["workers"] = args.workers
        if getattr(args, "weighting", None) and args.weighting != "all":
            overrides["weighting"] = WEIGHTING_ALIASES[args.weighting]
        cfg = load_config(args.config, overrides=overrides)
        out_dir = cfg.output_dir

        if args.command == "simulate":
            return cmd_simulate(cfg, args.with_noise, out_dir)
        if args.command == "identify":
            return cmd_identify(cfg, args.data, out_dir)
        if args.command == "montecarlo":
            if getattr(args, "weighting", None) == "all":
                schemes = list(WEIGHTING_ALIASES.values())
            else:
                schemes = [cfg.weighting]
            return cmd_montecarlo(cfg, schemes, cfg.n_instances, out_dir,
                                  args.history, args.params)
        if args.command == "distance":
            return cmd_distance(cfg, args.p1, args.p2, args.history)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except VpidentError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
