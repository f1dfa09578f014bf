"""Benchmark worker: runs ``telecost.cli.main(argv)`` in this process, one
invocation at a time with stdout captured, checks every output, and prints
one JSON line with the timings.

run.py starts it with the job on stdin:

    {"root": ..., "workload": ..., "seed": ..., "seconds": ..., "size": ...,
     "trace": ..., "trace_invocations": ..., "reference_sha256": ...,
     "spans_path": ...}

Every run begins with one invocation at the reference seed. It warms up
imports and caches, and its stdout must hash to the stored reference.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import workloads
from run import THREAD_CAP_VARS
from tracer import Tracer

MIN_SAMPLES = 3
MAX_FAILURES_KEPT = 5


class Session:
    """Invocations of one workload, with their failures."""

    def __init__(self, workload: str, tamper=None) -> None:
        self.workload = workload
        self.tamper = tamper  # lets a test corrupt stdout before it is checked
        self.attempted = 0
        self.failures: list[str] = []
        self.n_failed = 0

    def invoke(self, argv: list[str], expected_sha256: str | None = None) -> float:
        """Run the CLI once and return its wall time in seconds. A nonzero
        exit, a failed output check or a hash mismatch counts as failed."""
        import telecost.cli  # looked up per call, so an installed tracer sees main

        out, err = io.StringIO(), io.StringIO()
        rc: object = None
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = telecost.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code
            except Exception:  # noqa: BLE001 - any crash is one failed invocation
                err.write(traceback.format_exc())
            wall = time.perf_counter() - t0
        self.attempted += 1
        text = out.getvalue()
        if self.tamper is not None:
            text = self.tamper(text)
        failure = None
        if rc != 0:
            failure = f"exit {rc}: {err.getvalue().strip()[-400:]}"
        elif expected_sha256 is not None and workloads.sha256(text) != expected_sha256:
            failure = "stdout sha256 differs from the reference"
        else:
            try:
                workloads.check(self.workload, argv, text)
            except workloads.CheckFailed as exc:
                failure = str(exc)
        if failure is not None:
            self.n_failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"{' '.join(argv)}: {failure}")
        return wall


def measure(spec: dict, tamper=None) -> dict:
    """Untraced run: invocations until spec['seconds'] have passed. A
    calibration loop runs before the first invocation and after each one;
    each wall time is rescaled by the mean of the two loops around it."""
    workload, size = spec["workload"], spec["size"]
    session = Session(workload, tamper)
    session.invoke(workloads.reference_argv(workload, size), spec["reference_sha256"])
    rng = workloads.invocation_rng(workload, spec["seed"])
    walls: list[float] = []
    items: list[int] = []
    cals = [calibrate.calibration_s()]
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < spec["seconds"]:
        argv = workloads.make_argv(workload, rng, size)
        walls.append(session.invoke(argv))
        items.append(workloads.items(workload, argv))
        cals.append(calibrate.calibration_s())
    scaled = [calibrate.scale(wall, (before + after) / 2)
              for wall, before, after in zip(walls, cals, cals[1:])]
    return {
        **_outcome(session),
        "wall_s": scaled,
        "items_per_s": [n / wall for n, wall in zip(items, scaled)],
        "raw_wall_s": walls,
        "calibration_s": cals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(spec: dict, tamper=None) -> dict:
    """Traced run: a fixed number of invocations, so counts repeat exactly
    for a seed. Each is run once untraced and once traced; the median
    difference is the tracing overhead."""
    workload, size = spec["workload"], spec["size"]
    session = Session(workload, tamper)
    session.invoke(workloads.reference_argv(workload, size), spec["reference_sha256"])
    rng = workloads.invocation_rng(workload, spec["seed"])
    tracer = Tracer()
    overhead = []
    for i in range(spec["trace_invocations"]):
        argv = workloads.make_argv(workload, rng, size)
        plain = session.invoke(argv)
        tracer.run_id = i
        tracer.install()
        try:
            traced = session.invoke(argv)
        finally:
            tracer.uninstall()
        overhead.append(traced - plain)
    metrics = tracer.metrics(spec["trace_invocations"])
    metrics["trace.overhead_s"] = statistics.median(overhead)
    if spec.get("spans_path"):
        tracer.write_spans(spec["spans_path"])
    return {**_outcome(session), "layers": metrics, "spans": len(tracer.spans)}


def _outcome(session: Session) -> dict:
    return {"attempted": session.attempted, "failed": session.n_failed,
            "failures": session.failures}


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_thread_cap": {var: os.environ.get(var) for var in THREAD_CAP_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_origin(root: Path) -> None:
    """Refuse to measure a telecost that is not the checkout's own source."""
    import telecost.cli

    origin = Path(telecost.cli.__file__).resolve()
    if (root / "src").resolve() not in origin.parents:
        raise SystemExit(f"telecost was imported from {origin}, not from {root / 'src'}")


def main() -> int:
    spec = json.load(sys.stdin)
    check_origin(Path(spec["root"]))
    result = trace(spec) if spec["trace"] else measure(spec)
    result["environment"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
