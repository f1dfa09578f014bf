"""The benchmark's workloads: telecost CLI argument lists made from a seed,
the number of items each invocation completes, and output checks.

The checks rest on closed forms and on the CLI's documented contract, never
on telecost code, so a change that breaks the physics cannot also break the
check. Werner-state closed forms used here (BBPSSW recurrence, Bennett et
al., quant-ph/9511027 and quant-ph/9604024), with r = (1 - F) / 3:

    success probability  p  = F^2 + 2 F r + 5 r^2
    output fidelity      F' = (F^2 + r^2) / p
    teleport fidelity        (2 F + 1) / 3

This module imports only the standard library.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random

# Seed of the reference invocation whose stdout hash is stored in
# reference.json; every run checks it once, whatever --seed it was given.
REFERENCE_SEED = 0

# Invocation size per workload: protocol runs for ideal and noisy, grid
# points for sweep, Haar inputs for verify. One invocation takes 0.25 to
# 0.5 s on a 2-core Xeon VM, so a run's median rests on 40 to 100 samples.
SIZES = {"ideal": 400, "noisy": 20, "sweep": 25, "verify": 150}

WORKLOADS = tuple(SIZES)

NOISE_F = 0.75
DISTILL_TARGET = 0.9
NOISY_MAX_ROUNDS = 32  # the compare default
SWEEP_F_MIN = 0.51
SWEEP_SPAN = 0.48  # grid from SWEEP_F_MIN to 0.99
SWEEP_TARGET = 0.99
SWEEP_MAX_ROUNDS = 64  # the sweep default

TELEPORT_BITS = {"sqtp": 2, "kak": 1}
SWEEP_COLUMNS = ["F_in", "success_prob", "F_out", "rounds_to_target",
                 "locc_bits", "total_bits_sqtp", "total_bits_kak"]
VERIFY_CHECKS = 13
GOLDEN_ATOL = 1e-12
IDEAL_TOL = 5e-13
CLOSED_FORM_TOL = 1e-11


class CheckFailed(Exception):
    """The CLI output contradicts a closed form or the CLI's contract."""


def invocation_rng(workload: str, seed: int) -> random.Random:
    """Source of per-invocation inputs: the same (workload, seed) always
    gives the same sequence of invocations."""
    return random.Random(f"{workload}:{seed}")


def make_argv(workload: str, rng: random.Random, size: int) -> list[str]:
    """Arguments of the next invocation, drawn from rng."""
    if workload == "sweep":
        # a fresh grid offset per invocation, so a cache kept across
        # invocations in one process cannot hit either
        return sweep_argv(SWEEP_F_MIN + rng.randrange(1, 1000) * 1e-5, size)
    return seeded_argv(workload, rng.randrange(1, 2**31), size)


def reference_argv(workload: str, size: int) -> list[str]:
    """Arguments of the invocation whose stdout hash is stored."""
    if workload == "sweep":
        return sweep_argv(SWEEP_F_MIN, size)
    return seeded_argv(workload, REFERENCE_SEED, size)


def seeded_argv(workload: str, seed: int, size: int) -> list[str]:
    common = ["--runs", str(size), "--seed", str(seed)]
    if workload == "ideal":
        return ["compare", *common, "--format", "json"]
    if workload == "noisy":
        return ["compare", *common, "--noise-f", str(NOISE_F),
                "--distill-target", str(DISTILL_TARGET), "--format", "json"]
    if workload == "verify":
        return ["verify", *common]
    raise ValueError(f"unknown workload {workload!r}")


def sweep_argv(f_min: float, points: int) -> list[str]:
    return ["sweep", "--f-min", f"{f_min:.5f}", "--f-max", f"{f_min + SWEEP_SPAN:.5f}",
            "--f-step", str(SWEEP_SPAN / (points - 1)), "--distill-target", str(SWEEP_TARGET)]


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def items(workload: str, argv: list[str]) -> int:
    """Items one invocation completes: a protocol run (runs x 2 protocols)
    for compare, a grid point for sweep, a Haar input for verify."""
    if workload == "sweep":
        return len(_sweep_grid(argv))
    runs = int(_opt(argv, "--runs"))
    return 2 * runs if workload in ("ideal", "noisy") else runs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(workload: str, argv: list[str], stdout: str) -> None:
    """Raise CheckFailed unless stdout is a correct answer to argv."""
    try:
        if workload == "ideal":
            _check_compare(argv, json.loads(stdout), noisy=False)
        elif workload == "noisy":
            _check_compare(argv, json.loads(stdout), noisy=True)
        elif workload == "sweep":
            _check_sweep(argv, stdout)
        elif workload == "verify":
            _check_verify(stdout)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        # malformed output: unparsable JSON or CSV, missing fields
        raise CheckFailed(f"{workload}: malformed output: {exc!r}") from exc


def _near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def recurrence_step(f: float) -> tuple[float, float]:
    """(success probability, output fidelity) of one BBPSSW step on two
    Werner pairs of fidelity f."""
    r = (1.0 - f) / 3.0
    p = f * f + 2.0 * f * r + 5.0 * r * r
    return p, (f * f + r * r) / p


def rounds_to_target(f: float, target: float, max_rounds: int) -> set[int]:
    """Successful levels the recurrence needs to reach target, -1 when out
    of reach. A level that lands within float noise of the target may be
    counted either way, so every count consistent with it is returned."""
    if f >= target:
        return {0}
    if f <= 0.5:
        return {-1}
    allowed = set()
    rounds = 0
    while rounds < max_rounds:
        f = recurrence_step(f)[1]
        rounds += 1
        if abs(f - target) <= 1e-12:
            allowed.add(rounds)
        if f >= target:
            return allowed | {rounds}
    return allowed | {-1}


def distilled_fidelity(f: float, target: float, max_rounds: int) -> tuple[float, int]:
    """Channel fidelity a distillation run ends at, with its level count."""
    rounds = 0
    while f < target and rounds < max_rounds:
        f = recurrence_step(f)[1]
        rounds += 1
    return f, rounds


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _check_compare(argv: list[str], data: dict, noisy: bool) -> None:
    runs = int(_opt(argv, "--runs"))
    per_run = data["per_run"]
    if data["command"] != "compare" or data["config"]["seed"] != int(_opt(argv, "--seed")):
        raise CheckFailed("compare: report does not echo its command and seed")
    if len(per_run) != 2 * runs:
        raise CheckFailed(f"compare: {len(per_run)} rows for {runs} runs of 2 protocols")
    if noisy:
        channel_f, levels = distilled_fidelity(NOISE_F, DISTILL_TARGET, NOISY_MAX_ROUNDS)
    for i, row in enumerate(per_run):
        proto = ("sqtp", "kak")[i % 2]
        where = f"compare run {i // 2} {proto}"
        if row["run"] != i // 2 or row["protocol"] != proto:
            raise CheckFailed(f"{where}: rows out of order")
        if row["teleport_bits"] != TELEPORT_BITS[proto]:
            raise CheckFailed(f"{where}: teleport_bits {row['teleport_bits']}")
        if noisy:
            if not _near(row["channel_f"], channel_f, CLOSED_FORM_TOL):
                raise CheckFailed(f"{where}: channel_f {row['channel_f']} != {channel_f}")
            if not _near(row["fidelity"], (2.0 * row["channel_f"] + 1.0) / 3.0, CLOSED_FORM_TOL):
                raise CheckFailed(f"{where}: fidelity {row['fidelity']} != (2F+1)/3")
            locc = row["locc_bits"]
            if locc % 2 or locc < 2 * levels:
                raise CheckFailed(f"{where}: locc_bits {locc} for {levels} levels")
        else:
            if not _near(row["fidelity"], 1.0, IDEAL_TOL):
                raise CheckFailed(f"{where}: fidelity {row['fidelity']} != 1")
            if row["locc_bits"] != 0 or row["channel_f"] is not None:
                raise CheckFailed(f"{where}: noiseless run spent LOCC bits")
    for proto, summary in data["summary"].items():
        rows = [r for r in per_run if r["protocol"] == proto]
        locc_mean = sum(r["locc_bits"] for r in rows) / len(rows)
        fid_mean = sum(r["fidelity"] for r in rows) / len(rows)
        if (summary["teleport_bits"] != TELEPORT_BITS[proto]
                or not _near(summary["locc_bits"], locc_mean, 1e-9)
                or not _near(summary["total_bits"], TELEPORT_BITS[proto] + locc_mean, 1e-9)
                or not _near(summary["mean_fidelity"], fid_mean, 1e-9)):
            raise CheckFailed(f"compare summary for {proto} disagrees with its rows")


def _sweep_grid(argv: list[str]) -> list[float]:
    f_min, f_max = float(_opt(argv, "--f-min")), float(_opt(argv, "--f-max"))
    step = float(_opt(argv, "--f-step"))
    n = int(round((f_max - f_min) / step)) + 1
    return [f_min + k * step for k in range(n)]


def _check_sweep(argv: list[str], stdout: str) -> None:
    reader = csv.DictReader(io.StringIO(stdout))
    if reader.fieldnames != SWEEP_COLUMNS:
        raise CheckFailed(f"sweep: columns {reader.fieldnames}")
    rows = list(reader)
    grid = _sweep_grid(argv)
    target = float(_opt(argv, "--distill-target"))
    if len(rows) != len(grid):
        raise CheckFailed(f"sweep: {len(rows)} rows for a {len(grid)}-point grid")
    for row, f_grid in zip(rows, grid):
        f = float(row["F_in"])
        if not _near(f, f_grid, 1e-9):
            raise CheckFailed(f"sweep: grid point {f} where {f_grid} was asked")
        p, f_out = recurrence_step(f)
        if not _near(float(row["success_prob"]), p, CLOSED_FORM_TOL):
            raise CheckFailed(f"sweep F={f}: success_prob {row['success_prob']} != {p}")
        if not _near(float(row["F_out"]), f_out, CLOSED_FORM_TOL):
            raise CheckFailed(f"sweep F={f}: F_out {row['F_out']} != {f_out}")
        rounds = int(row["rounds_to_target"])
        if rounds not in rounds_to_target(f, target, SWEEP_MAX_ROUNDS):
            raise CheckFailed(f"sweep F={f}: rounds_to_target {rounds}")
        locc = 2 * rounds if rounds >= 0 else -1
        expected = [locc, 2 + locc if locc >= 0 else -1, 1 + locc if locc >= 0 else -1]
        got = [int(row[c]) for c in ("locc_bits", "total_bits_sqtp", "total_bits_kak")]
        if got != expected:
            raise CheckFailed(f"sweep F={f}: bit totals {got} != {expected}")


def _check_verify(stdout: str) -> None:
    lines = stdout.splitlines()
    if not lines or lines[-1] != f"overall: PASS ({VERIFY_CHECKS}/{VERIFY_CHECKS})":
        raise CheckFailed(f"verify: last line {lines[-1] if lines else ''!r}")
    rows = lines[1:-1]
    if len(rows) != VERIFY_CHECKS:
        raise CheckFailed(f"verify: {len(rows)} check rows")
    for line in rows:
        name, err, status = line.split()
        if status != "PASS" or float(err) > GOLDEN_ATOL:
            raise CheckFailed(f"verify: {name} {err} {status}")
