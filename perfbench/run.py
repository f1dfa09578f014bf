"""telecost benchmark: one run of one workload, ending in one JSON line.

    python3 perfbench/run.py --workload noisy --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; it measures the telecost under ``src/``.
With ``--trace 0`` it reports the end-to-end metrics: the median wall time
of one CLI invocation and items per second (from one single-threaded
worker process, after a warm-up invocation), the worker's peak RSS, and the
median time of fresh interpreters to import ``telecost.cli`` and build its
parser. Times are rescaled to a nominal machine speed by calibrate.py.
With ``--trace 1`` it reports the per-layer metrics of a traced run
instead. Every output is checked; the line before the result holds the
full report (environment, sample counts, raw times, error rate, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
SETUP_PROBES = 7
TRACE_INVOCATIONS = 3
THREAD_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CALIBRATIONS_PER_PROBE = 3

# The calibration loops run after the timed import, which they must not
# warm; the probe is started with perfbench/ as sys.argv[1].
SETUP_PROBE = f"""\
import time
t0 = time.perf_counter()
import telecost.cli
telecost.cli.build_parser()
elapsed = time.perf_counter() - t0
import statistics, sys
sys.path.insert(0, sys.argv[1])
from calibrate import calibration_s
cal = statistics.median(calibration_s() for _ in range({CALIBRATIONS_PER_PROBE}))
print(telecost.cli.__file__)
print(repr(elapsed), repr(cal))
"""


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict[str, str]:
    """The checkout's src first on the path, BLAS capped at one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_CAP_VARS:
        env[var] = "1"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {TIME_LIMIT_S:.0f} s")
    return left


def setup_times(env: dict[str, str], deadline: float) -> tuple[list[float], list[float]]:
    """Import-plus-parser time of fresh interpreters, one at a time, raw
    and rescaled by the calibration loop each probe runs afterwards."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE)], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        origin, elapsed, cal = proc.stdout.split()
        if (ROOT / "src").resolve() not in Path(origin).resolve().parents:
            raise BenchError(f"set-up probe imported telecost from {origin}")
        raw.append(float(elapsed))
        scaled.append(calibrate.scale(float(elapsed), float(cal)))
    return raw, scaled


def run_worker(spec: dict, env: dict[str, str], deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"p25": values[0], "p50": values[0], "p75": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"p25": q1, "p50": q2, "p75": q3}


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(values)[n - 11]}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    if not (ROOT / "src" / "telecost" / "cli.py").is_file():
        raise BenchError(f"no telecost source under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    env = worker_env()
    reference = json.loads((HERE / "reference.json").read_text())
    size = workloads.SIZES[args.workload]
    if reference["sizes"][args.workload] != size or reference["seed"] != workloads.REFERENCE_SEED:
        raise BenchError("reference.json was made for other sizes; regenerate it")
    spec = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": size,
        "trace": bool(args.trace),
        "trace_invocations": TRACE_INVOCATIONS,
        "reference_sha256": reference["sha256"][args.workload],
        "spans_path": None,
    }
    report: dict = {"workload": args.workload, "seed": args.seed, "size": size,
                    "reference_seed": workloads.REFERENCE_SEED}
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spec["spans_path"] = str(out_dir / f"spans-{args.workload}.csv")
        result = run_worker(spec, env, deadline)
        metrics = {name: (value, unit_of(name)) for name, value in result["layers"].items()}
        report["samples"] = {"traced_invocations": TRACE_INVOCATIONS, "spans": result["spans"]}
        report["spans_file"] = spec["spans_path"]
    else:
        raw_setup, setup = setup_times(env, deadline)
        result = run_worker(spec, env, deadline)
        walls = result["wall_s"]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "items_per_s": (statistics.median(result["items_per_s"]), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        report["samples"] = {"wall_s": len(walls), "items_per_s": len(walls),
                             "setup_s": len(setup), "peak_rss_mb": 1}
        report["wall_s"] = {**quartiles(walls), "tail": tail(walls)}
        report["setup_s"] = quartiles(setup)
        # unscaled, as this machine ran them
        report["raw_wall_s"] = quartiles(result["raw_wall_s"])
        report["raw_setup_s"] = quartiles(raw_setup)
        report["calibration_s"] = {**quartiles(result["calibration_s"]),
                                   "nominal": calibrate.NOMINAL_S}
    report["attempted"] = result["attempted"]
    report["failed"] = result["failed"]
    report["error_rate"] = result["failed"] / result["attempted"]
    report["failures"] = result["failures"]
    report["environment"] = result["environment"]
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return report, final


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        report, final = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
