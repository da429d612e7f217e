"""Output checks of the benchmark's timed commands.

Each check reads what one ``vpident`` call wrote and returns a list of
problems; an empty list means the outputs are correct. The checks hold for
any seed: they test properties of a converged fit and identities of the
linearized re-identification, not stored reference numbers.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from vpident.cli import build_weighting, read_data_file
from vpident.config import load_config
from vpident.constitutive import PARAM_NAMES
from vpident.identify import fd_step_sizes, model_response_batch
from vpident.loading import StrainProgram
from vpident.noise import covariance, sample_noise

#: scheme rows of mc_summary.csv, in the order `--weighting all` writes them
SCHEMES = ("identity", "diag_inverse_cov", "full_inverse_cov")

#: relative agreement of a recomputed error functional with the reported one
PHI_RTOL = 1.0e-9
#: largest decrease of phi, relative to phi, that one more Gauss-Newton step
#: from a fit may promise; the LM's own relative-decrease tolerance
DECREMENT_RTOL = 1.0e-12
#: the LM gives up once its damping passes this value without a descent step
LAMBDA_MAX = 1.0e12
#: agreement of recomputed cloud rows, relative to each parameter's spread
CLOUD_RTOL = 1.0e-9
#: agreement of the summary variances with the variances of the cloud file
VAR_RTOL = 1.0e-9


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]


def read_fit(out_dir: str) -> tuple[dict, list[tuple[int, float, float, bool]]]:
    """fit_params.csv as a name -> text mapping, and the rows of fit_log.csv
    as (iteration, phi, damping, accepted)."""
    _, params = read_rows(os.path.join(out_dir, "fit_params.csv"))
    header, log = read_rows(os.path.join(out_dir, "fit_log.csv"))
    col = {name: i for i, name in enumerate(header)}
    rows = [(int(r[col["iteration"]]), float(r[col["phi"]]), float(r[col["damping"]]),
             r[col["accepted"]] == "1") for r in log]
    return {name: value for name, value in params}, rows


def lm_counts(out_dir: str) -> dict:
    """LM iterations, trial steps and accepted trial steps of one fit."""
    params, log = read_fit(out_dir)
    trials = [accepted for iteration, _, _, accepted in log if iteration >= 1]
    return {"iterations": int(params["iterations"]), "trials": len(trials),
            "accepted": sum(trials)}


def _damping_exhausted(log: list[tuple[int, float, float, bool]], iterations: int) -> bool:
    """The fit's last iteration rejected every trial step until its damping
    passed the LM's maximum."""
    last = [row for row in log if row[0] == iterations]
    return (bool(last) and not any(accepted for _, _, _, accepted in last)
            and last[-1][2] > LAMBDA_MAX)


def gauss_newton_decrement(scheme, observations: np.ndarray, jac: np.ndarray,
                           response: np.ndarray) -> float:
    """The decrease of phi that a full Gauss-Newton step promises: g^T A^-1 g
    with g = (WJ)^T r and A = J^T W J, whitened as the program whitens."""
    jw = scheme.whiten(jac)
    grad = jw.T @ scheme.whiten(observations - response)
    return float(grad @ np.linalg.solve(jw.T @ jw, grad))


def difference_probes(p: np.ndarray):
    """The 2k central-difference probes about p followed by p itself, as the
    program forms them, and a function from their responses to J."""
    k = len(p)
    h = fd_step_sizes(p)
    probes = np.tile(p, (2 * k + 1, 1))
    for i in range(k):
        probes[2 * i, i] += h[i]
        probes[2 * i + 1, i] -= h[i]

    def jacobian_of(values: np.ndarray) -> np.ndarray:
        return np.stack([(values[2 * i] - values[2 * i + 1]) / (2.0 * h[i]) for i in range(k)],
                        axis=1)

    return probes, jacobian_of


def check_identify(config_path: str, record_path: str, out_dir: str, rc: int) -> list[str]:
    """The fit is a minimum of the error functional: accepted LM steps never
    raise phi; the reported phi is the error functional at the fitted
    parameters; one more Gauss-Newton step from there promises no decrease
    above DECREMENT_RTOL of phi; and the fit is no worse than the truth it
    was simulated from, under the same weighting. (The decrement test
    assumes no parameter sits at the LM's lower bound 0; none comes near it
    on these records.)

    Exit code 0 must come with converged=1. Exit code 4 (converged=0) is a
    correct fit only if the LM stopped by exhausting its damping: on noisy
    records the program's termination tests can miss a minimum that is
    reached to round-off, and the decrement test above then decides.
    """
    problems = []
    try:
        params, log = read_fit(out_dir)
        fitted = np.array([float(params[name]) for name in PARAM_NAMES])
        phi = float(params["phi"])
        converged = params["converged"]
        iterations = int(params["iterations"])
    except (OSError, KeyError, ValueError) as err:
        return [f"unreadable fit outputs: {err}"]
    if converged != {0: "1", 4: "0"}[rc]:
        problems.append(f"fit_params.csv: converged={converged} with exit code {rc}")
    elif converged == "0" and not _damping_exhausted(log, iterations):
        problems.append("fit_params.csv: converged=0, but fit_log.csv does not end with "
                        "the damping exhausted")
    accepted = [value for _, value, _, ok in log if ok]
    if not accepted:
        problems.append("fit_log.csv has no accepted row")
    elif any(b > a for a, b in zip(accepted, accepted[1:])):
        problems.append("fit_log.csv: an accepted step increased phi")
    elif accepted[-1] != phi:
        problems.append(f"fit_log.csv ends at phi {accepted[-1]!r}, fit_params.csv says {phi!r}")

    cfg = load_config(config_path)
    data = read_data_file(record_path)
    program = StrainProgram(shear_values=data.abscissae, duration=cfg.program.duration)
    scheme = build_weighting(cfg.weighting, data.observations, cfg.noise)
    probes, jacobian_of = difference_probes(fitted)
    responses = model_response_batch(np.vstack([cfg.truth.as_vector(), probes]),
                                     cfg.material, program)
    phi_truth = scheme.quadratic(data.observations - responses[0])
    phi_fit = scheme.quadratic(data.observations - responses[-1])
    if not math.isclose(phi_fit, phi, rel_tol=PHI_RTOL):
        problems.append(f"phi at the fitted parameters is {phi_fit!r}, reported {phi!r}")
    if phi_fit > phi_truth:
        problems.append(f"phi(fit) = {phi_fit!r} exceeds phi(truth) = {phi_truth!r}")
    decrement = gauss_newton_decrement(scheme, data.observations, jacobian_of(responses[1:]),
                                       responses[-1])
    if not decrement <= DECREMENT_RTOL * phi_fit:
        problems.append(f"the fit is not a minimum: a Gauss-Newton step promises to lower "
                        f"phi by {decrement / phi_fit:.3e} of phi")
    return problems


def linearization(cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p*, Mod(p*), J) at the configured truth, with J by the program's
    central differences, all in one batched response pass."""
    p_star = cfg.truth.as_vector()
    probes, jacobian_of = difference_probes(p_star)
    values = model_response_batch(probes, cfg.material, cfg.program)
    return p_star, values[-1], jacobian_of(values)


def weighted_jacobian(kind: str, cov: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """W J for W = the identity, diag(cov)^-1 or cov^-1, by a linear solve
    rather than the explicit inverse the program forms."""
    if kind == "identity":
        return jac
    if kind == "diag_inverse_cov":
        return jac / np.diag(cov)[:, None]
    return np.linalg.solve(cov, jac)


def reidentify(p_star: np.ndarray, jac: np.ndarray, wj: np.ndarray,
               noise: np.ndarray) -> np.ndarray:
    """Rows p* + (J^T W J)^-1 J^T W noise_j: the weighted least-squares fit of
    the linearized model to Mod(p*) + noise_j."""
    return p_star + np.linalg.solve(jac.T @ wj, wj.T @ noise.T).T


def check_montecarlo(config_path: str, out_dir: str, seed: int, instances: int,
                     histories) -> list[str]:
    """Three summary rows in scheme order with finite positive cloud sizes,
    full inverse-covariance weighting giving the smallest cloud on every
    history, and every cloud row equal to an independent closed-form
    re-identification from the noise instance (seed, j)."""
    try:
        header, summary = read_rows(os.path.join(out_dir, "mc_summary.csv"))
        clouds = {kind: np.array(read_rows(os.path.join(out_dir, f"cloud_{kind}.csv"))[1],
                                 dtype=float) for kind in SCHEMES}
    except (OSError, ValueError) as err:
        return [f"unreadable Monte Carlo outputs: {err}"]
    col = {name: i for i, name in enumerate(header)}
    if [row[0] for row in summary] != list(SCHEMES):
        return [f"mc_summary.csv schemes are {[row[0] for row in summary]}, expected {list(SCHEMES)}"]
    problems = []
    sizes = {}
    for row in summary:
        kind = row[0]
        if (int(row[col["seed"]]), int(row[col["instances"]])) != (seed, instances):
            problems.append(f"{kind}: summary seed/instances {row[1:3]} != {[seed, instances]}")
        sizes[kind] = [float(row[col[f"size_history_{h}"]]) for h in histories]
        if not all(math.isfinite(s) and s > 0.0 for s in sizes[kind]):
            problems.append(f"{kind}: cloud sizes {sizes[kind]} are not finite and positive")
        cloud = clouds[kind]
        if cloud.shape != (instances, 6) or not np.all(np.isfinite(cloud)):
            problems.append(f"cloud_{kind}.csv: shape {cloud.shape} or non-finite entries")
            continue
        if int(row[col["outside_cone"]]) != int(np.any(cloud < 0.0, axis=1).sum()):
            problems.append(f"{kind}: outside_cone does not count the negative cloud rows")
    for i, h in enumerate(histories):
        full = sizes["full_inverse_cov"][i]
        if not all(full < sizes[kind][i] for kind in SCHEMES[:2]):
            problems.append(f"history {h}: full_inverse_cov cloud {full!r} is not the smallest")
    if problems:
        return problems

    cfg = load_config(config_path)
    p_star, exp, jac = linearization(cfg)
    noise = np.stack([sample_noise(cfg.noise, exp, (seed, j)) for j in range(instances)])
    cov = covariance(cfg.noise, exp)
    for row in summary:
        kind, cloud = row[0], clouds[row[0]]
        expected = reidentify(p_star, jac, weighted_jacobian(kind, cov, jac), noise)
        spread = np.max(np.abs(expected - p_star), axis=0)
        err = np.abs(cloud - expected) / spread
        if not np.all(err <= CLOUD_RTOL):
            j = int(np.argmax(np.max(err, axis=1)))
            problems.append(f"cloud_{kind}.csv row {j} differs from the re-identification "
                            f"by {np.max(err):.3e} of the parameter spread")
        variances = np.array([float(row[col[f"var_{n}"]]) for n in PARAM_NAMES])
        if not np.allclose(variances, np.var(cloud / p_star, axis=0), rtol=VAR_RTOL, atol=0.0):
            problems.append(f"{kind}: summary variances differ from the cloud's")
    return problems
