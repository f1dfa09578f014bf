"""Tests of the benchmark itself: tiny runs of every workload, tampered
output, repeatable trace counts, and the run.py contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
TINY = {"ideal": 4, "noisy": 3, "sweep": 5, "verify": 4}


def spec(workload: str, seed: int = 1, **over) -> dict:
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "seconds": 0.0,
            "size": TINY[workload], "trace": False, "trace_invocations": 2,
            "reference_sha256": None, "spans_path": None}
    return {**base, **over}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload, seed):
    result = worker.measure(spec(workload, seed))
    assert result["failures"] == []
    assert result["attempted"] == 1 + worker.MIN_SAMPLES
    assert len(result["wall_s"]) == worker.MIN_SAMPLES
    assert all(rate > 0 for rate in result["items_per_s"])


@pytest.mark.parametrize("workload,tamper", [
    ("ideal", lambda text: text.replace('"fidelity": 1.0', '"fidelity": 0.999', 1)),
    ("noisy", lambda text: text.replace('"fidelity": 0.', '"fidelity": 0.1', 1)),
    ("sweep", lambda text: text.replace("\n0.", "\n0.0", 1)),
    ("verify", lambda text: text.replace("PASS", "FAIL", 1)),
])
def test_tampered_output_counts_as_failed(workload, tamper):
    result = worker.measure(spec(workload), tamper=tamper)
    assert result["failed"] == result["attempted"]


def test_reference_hash_mismatch_counts_as_failed():
    result = worker.measure(spec("verify", reference_sha256="0" * 64))
    assert result["failed"] == 1
    assert "sha256" in result["failures"][0]


def test_stored_reference_hashes_match_the_cli():
    reference = json.loads((BENCH / "reference.json").read_text())
    assert reference["sizes"] == workloads.SIZES
    for name in ("sweep", "verify"):  # the two fast ones; run.py checks all on every run
        session = worker.Session(name)
        session.invoke(workloads.reference_argv(name, workloads.SIZES[name]),
                       reference["sha256"][name])
        assert session.failures == []


COUNTS = ("calls", "_built", "noise.distill.attempts", "cost.ledger_entries")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_counts_repeat_for_a_seed(workload):
    first = worker.trace(spec(workload, seed=5, trace=True))
    second = worker.trace(spec(workload, seed=5, trace=True))
    assert first["failures"] == [] and second["failures"] == []
    counts = {k: v for k, v in first["layers"].items() if k.endswith(COUNTS)}
    assert counts == {k: second["layers"][k] for k in counts}
    assert any(counts.values())


def test_trace_sees_calls_made_through_imported_names_and_tables():
    ideal = worker.trace(spec("ideal", trace=True))["layers"]
    noisy = worker.trace(spec("noisy", trace=True))["layers"]
    runs = 2 * TINY["ideal"]  # trace_invocations == 2
    # cli imports run_protocol by name; every H of a run goes through
    # ProtocolMachine._GATES_1Q; measure_sample is imported into protocol
    assert ideal["protocol.run_protocol.calls"] == 2 * runs
    assert ideal["statevector.measure_sample.calls"] == 2 * runs
    assert ideal["statevector.gate.calls"] >= 2 * runs * 2
    assert ideal["statevector.states_built"] > 0
    # noise imports apply_cnot by name; the density path builds basis columns
    assert noisy["noise.apply_gate_density.calls"] > 0
    assert noisy["statevector.gate.calls"] >= 8 * noisy["noise.apply_gate_density.calls"]
    assert noisy["noise.densities_built"] > 0
    assert noisy["cost.ledger_entries"] == 2 * noisy["noise.distill.attempts"] + 2 * 2 * TINY["noisy"]


def test_tracer_refuses_a_function_it_cannot_patch(monkeypatch):
    import telecost.protocol
    from tracer import Tracer, TracingError

    monkeypatch.setattr(telecost.protocol, "_FROZEN", (telecost.protocol.apply_h,), raising=False)
    original = telecost.protocol.run_protocol
    with pytest.raises(TracingError, match="_FROZEN"):
        Tracer().install()
    assert telecost.protocol.run_protocol is original  # nothing left patched


def _run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_py_prints_the_result_line():
    proc = _run_py(ROOT, "--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for metric in bench["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_run_py_traced_reports_every_layer_metric():
    proc = _run_py(ROOT, "--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for metric in bench["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_run_py_fails_without_the_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_py(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
