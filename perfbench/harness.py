"""Set-up, timed loop, output checks and metrics of one benchmark run."""

from __future__ import annotations

import filecmp
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, SetupError, call_vpident

END_TO_END_UNITS = {"setup_s": "s", "identify_s": "s", "mc_instances_per_s": "1/s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "constitutive.steps": "count", "constitutive.member_steps": "count",
    "constitutive.us_per_step": "us", "constitutive.ns_per_member_step": "ns",
    "tensors.det_per_step": "calls/step", "tensors.inverse_per_step": "calls/step",
    "identify.response_calls": "count", "identify.response_rows": "rows/call",
    "identify.lm_iterations": "count", "identify.lm_trials": "count",
    "identify.lm_accept_ratio": "ratio", "identify.lm_self_s": "s",
    "identify.stalled_fits": "count", "identify.weighting_s": "s", "noise.sample_calls": "count", "noise.sample_s": "s",
    "noise.covariance_s": "s", "sensitivity.normal_solve_s": "s",
    "sensitivity.cloud_self_s": "s", "metric.members_scored": "count", "metric.self_s": "s",
    "loading.grid_calls": "count", "loading.grid_s": "s", "cli.csv_s": "s",
    "config.load_s": "s", "fail_ratio": "ratio", "trace.overhead_s": "s",
    "trace.zero_layers": "count",
}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = _blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads if threads is not None else int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def _timed_call(argv: list[str]) -> tuple[float, int | None]:
    """Seconds and exit code of one CLI call; None for an escaped exception,
    which is reported and counted as a failure."""
    start = time.perf_counter()
    try:
        rc = call_vpident(argv)
    except Exception:  # the run must go on to report the failure
        traceback.print_exc()
        rc = None
    return time.perf_counter() - start, rc


def _same_files(a: str, b: str) -> bool:
    """Both directory trees hold the same file names with the same bytes."""
    def names(root):
        return sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _, files in os.walk(root) for f in files)

    found = names(a)
    return found == names(b) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in found)


def _set_up(wl, work: str, seed: int, repeats: int) -> tuple[dict, list[float]]:
    """Produce the inputs `repeats` times; every repeat must write the same
    bytes."""
    inputs, times = None, []
    for k in range(repeats):
        start = time.perf_counter()
        made = wl.set_up(os.path.join(work, f"setup{k}"), seed)
        times.append(time.perf_counter() - start)
        if inputs is None:
            inputs = made
        elif not _same_files(os.path.join(work, "setup0"), os.path.join(work, f"setup{k}")):
            raise SetupError(f"set-up repeat {k} wrote different inputs")
    return inputs, times


def _check(wl, inputs: dict, seed: int, out: str, rc: int) -> list[str]:
    try:
        return wl.check(inputs, seed, out, rc)
    except Exception as err:  # malformed outputs fail the call, not the run
        traceback.print_exc()
        return [f"check raised {type(err).__name__}: {err}"]


def _problems(wl, seed: int, calls) -> list[list[str]]:
    """Problems per call, from (inputs, output directory, exit code)."""
    return [[f"exit code {rc}"] if rc not in wl.checked_exits
            else _check(wl, inputs, seed, out, rc) for inputs, out, rc in calls]


def _failures(wl, seed: int, calls) -> tuple[int, int]:
    """Numbers of failed calls and of stalled fits: correct fits for which
    the program reported no convergence (exit code 4). Each problem and each
    stalled fit is reported."""
    problems = _problems(wl, seed, calls)
    for k, found in enumerate(problems):
        for problem in found:
            print(f"FAILED call {k}: {problem}", file=sys.stderr, flush=True)
    stalled = [k for k, ((_, _, rc), found) in enumerate(zip(calls, problems))
               if rc == 4 and not found]
    for k in stalled:
        print(f"STALLED call {k}: exit code 4 (converged=0), but the fit is a verified "
              f"minimum", flush=True)
    return sum(bool(found) for found in problems), len(stalled)


def _report(label: str, values: list[float], unit: str) -> None:
    print(f"{label:34s} median {statistics.median(values):.6g} {unit} "
          f"(min {min(values):.6g}, max {max(values):.6g}, n={len(values)})", flush=True)


def run(wl, seed: int, seconds: float, trace: bool, import_s: float, root: str,
        setup_repeats: int) -> dict:
    print(f"environment {json.dumps(environment())}", flush=True)
    work_parent = os.path.join(root, ".perfbench_work")
    os.makedirs(work_parent, exist_ok=True)
    work = os.path.join(work_parent, f"{wl.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_times = _set_up(wl, work, seed, setup_repeats)
        if trace:
            return _traced(wl, inputs, seed, work)
        return _untraced(wl, inputs, seed, seconds, work, import_s, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_parent):
            os.rmdir(work_parent)


def _untraced(wl, inputs, seed, seconds, work, import_s, setup_times) -> dict:
    calls, durations = [], []
    start = time.perf_counter()
    while True:
        call_inputs = wl.call_inputs(inputs, seed, len(calls))
        out = os.path.join(work, f"call{len(calls)}")
        elapsed, rc = _timed_call(wl.argv(call_inputs, seed, out))
        calls.append((call_inputs, out, rc))
        durations.append(elapsed)
        # start another call only if it should end within the budget
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, stalled = _failures(wl, seed, calls)

    setup_s = import_s + statistics.median(setup_times)
    per_call = wl.identified_per_call()
    values = {
        "setup_s": setup_s,
        "identify_s": statistics.median(durations),
        "mc_instances_per_s": statistics.median(per_call / d for d in durations),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"import (median) {import_s:.4f} s; set-up repeats {[round(t, 4) for t in setup_times]} s",
          flush=True)
    _report("setup_s", [import_s + t for t in setup_times], "s")
    _report("identify_s (s per call)", durations, "s")
    _report(f"mc_instances_per_s ({per_call}/call)", [per_call / d for d in durations], "1/s")
    print(f"{'peak_rss_mb':34s} {peak_rss_mb:.1f} MB; calls {len(calls)}, failed {failed}, "
          f"stalled {stalled}", flush=True)
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in values.items()},
    }


def _traced(wl, inputs, seed, work) -> dict:
    """One untraced call, then the same call traced; the difference of the
    two is the tracing overhead."""
    plain_out, traced_out = os.path.join(work, "call0"), os.path.join(work, "call1")
    plain_s, plain_rc = _timed_call(wl.argv(inputs, seed, plain_out))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, traced_rc = _timed_call(wl.argv(inputs, seed, traced_out))
    finally:
        tracer.uninstall()
    calls = [(inputs, plain_out, plain_rc), (inputs, traced_out, traced_rc)]
    failed, stalled = _failures(wl, seed, calls)

    lm = None
    if os.path.exists(os.path.join(traced_out, "fit_log.csv")):
        lm = checks.lm_counts(traced_out)
    values = tracing.layer_metrics(tracer, lm)
    zero = [name for name in wl.expected_layers if not values[name]]
    values["identify.stalled_fits"] = stalled
    values["fail_ratio"] = failed / len(calls)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.zero_layers"] = len(zero)

    for site, count in sorted(tracer.site_calls.items()):
        print(f"wrapped {site:45s} {count:8d} calls", flush=True)
    for site in tracer.missing:
        print(f"WARNING wrapped site {site} does not exist", flush=True)
    for name in zero:
        print(f"WARNING layer metric {name} reads zero on {wl.name}: "
              f"a wrapped import site was bypassed", flush=True)
    if tracer.spans:
        layer, self_s = tracing.dominant_layer(tracer)
        print(f"dominant layer {layer}: self {self_s:.3f} s = "
              f"{100.0 * self_s / traced_s:.1f}% of the traced call", flush=True)
    for layer, span in sorted(tracer.spans.items(), key=lambda kv: -kv[1].self_time):
        print(f"span {layer:38s} calls {span.calls:7d} total {span.total:9.4f} s "
              f"self {span.self_time:9.4f} s", flush=True)
    print(f"tracing overhead {traced_s - plain_s:+.3f} s "
          f"(untraced {plain_s:.3f} s, traced {traced_s:.3f} s)", flush=True)
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": LAYER_UNITS[name]}
                    for name, value in values.items()},
    }
