"""Benchmark of the vpident command line, one workload per process.

    python3 perfbench/run.py --workload identify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The workload's inputs (a pinned
JSON configuration and, for ``identify``, a noisy record) are generated
from ``--seed``; the timed operation is a call of the real entry point
``vpident.cli.main`` in this process, repeated while ``--seconds`` allow.
Outputs are checked after the timed loop. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics of a traced call (see
tracing.py and README.md).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("identify", "montecarlo", "long_record")

# One BLAS thread: the dense weighting build then measures the same on any
# machine with at least one core, and never oversubscribes a small one
# (an 800x800 eigh was measured at 0.11 s alone and 6.8 s with BLAS threads
# competing for 2 cores).
BLAS_THREADS = 1
SETUP_REPEATS = 3
# The import is timed once here and again in this many fresh interpreters,
# one after the other; setup_s takes the median. A single import time
# varies by a factor of two between runs on a shared host.
IMPORT_REPEATS = 4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_environment() -> None:
    """Fix what would otherwise vary between runs; must run before numpy is
    imported."""
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    for var in [v for v in os.environ if v.startswith("VPIDENT_")]:
        del os.environ[var]  # configuration overrides the program would read


def import_seconds(src: str) -> float:
    """Seconds a fresh interpreter takes to import the benchmark and the
    program, timed as this process times its own import."""
    code = ("import time; start = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{HERE!r}, {src!r}]; import harness; "
            "print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "vpident")):
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import harness
    except ImportError as err:
        print(f"cannot import the program from {src}: {err}", file=sys.stderr)
        return 2
    import_times = [time.perf_counter() - START]
    try:
        import_times += [import_seconds(src) for _ in range(IMPORT_REPEATS)]
    except (subprocess.SubprocessError, ValueError) as err:
        print(f"timing the import in a fresh interpreter failed: {err}", file=sys.stderr)
        return 1
    print(f"import times {[round(t, 4) for t in import_times]} s", flush=True)
    try:
        result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), statistics.median(import_times), ROOT,
                             SETUP_REPEATS)
    except harness.SetupError as err:
        print(f"set-up failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
