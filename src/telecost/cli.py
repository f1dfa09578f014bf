"""Command line front end.

Three subcommands:
  verify    check every shipped golden expansion and branch recovery
  compare   run both protocols and tabulate fidelity and classical cost
  sweep     CSV of the distillation economics over a channel-fidelity grid

All outputs are deterministic for a fixed seed: running a command twice
with the same arguments produces byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .expansions import ALL_EXPANSIONS, load_expansions
from .kinds import ProtocolKind
from .noise import LOCC_ROUND_BITS, run_noisy_stack, sweep_rows, SWEEP_COLUMNS
from .protocol import (
    BATCH_CHUNK,
    MAX_RUNS,
    SCHEDULES,
    checkpoints_stack,
    enumerate_protocol_stack,
    haar_sources,
    run_batch,
    sample_stack,
)

GOLDEN_ATOL = 1e-12
MAX_SWEEP_POINTS = 100_001
MAX_ROUNDS = 1024  # the float recurrence stalls below 1 within a few hundred levels


@dataclass(frozen=True)
class RunConfig:
    command: str
    protocol: str = "both"
    n_runs: int = 20
    seed: int = 0
    noise_f: float | None = None
    distill_target: float | None = None
    max_rounds: int = 32
    fmt: str = "text"
    out: str | None = None
    golden: str | None = None
    f_min: float = 0.55
    f_max: float = 0.95
    f_step: float = 0.1

    def __post_init__(self) -> None:
        if self.protocol not in ("sqtp", "kak", "both"):
            raise ValueError(f"protocol must be sqtp, kak or both, got {self.protocol!r}")
        # the bound: a run index must fit one uint32 word of its streams' spawn key
        if not 1 <= self.n_runs <= MAX_RUNS:
            raise ValueError(f"--runs must be in 1..{MAX_RUNS}, got {self.n_runs}")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if self.noise_f is not None and not 0.0 <= self.noise_f <= 1.0:
            raise ValueError(f"--noise-f must be in [0, 1], got {self.noise_f}")
        if self.distill_target is not None:
            if self.noise_f is None and self.command == "compare":
                raise ValueError("--distill-target requires --noise-f")
            if not 0.0 < self.distill_target <= 1.0:
                raise ValueError(f"--distill-target must be in (0, 1], got {self.distill_target}")
            if self.noise_f is not None and self.distill_target > self.noise_f and self.noise_f <= 0.5:
                raise ValueError(f"--noise-f {self.noise_f} <= 1/2 cannot be distilled to "
                                 f"--distill-target {self.distill_target}")
        if not 1 <= self.max_rounds <= MAX_ROUNDS:
            raise ValueError(f"--max-rounds must be in 1..{MAX_ROUNDS}, got {self.max_rounds}")

    def kinds(self) -> list[ProtocolKind]:
        if self.protocol == "both":
            return [ProtocolKind.SQTP, ProtocolKind.KAK]
        return [ProtocolKind(self.protocol)]

    def public_dict(self) -> dict:
        # the destination path is plumbing, not part of the computation,
        # and keeping it out makes reports byte-identical across runs
        d = asdict(self)
        d.pop("out")
        return d


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise RuntimeError(f"cannot write report to {out}: {exc}") from exc


# one flat row of a top-level list, with the separators indent=2 gives it there
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline, byte for
    byte. With indent set, json encodes in pure Python, so the rows of a
    `per_run` list, each a non-empty dict of scalars, are encoded by one C
    encoder call, split at the text between two rows, and spliced in
    where the document holds "per_run": null. No JSON string holds a raw
    newline, so "},\n      {" occurs only between rows; only a top-level
    key starts a line with two spaces and a quote, so the splice point
    occurs once."""
    rows = payload.get("per_run")
    if not rows:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    text = json.dumps({**payload, "per_run": None}, indent=2, sort_keys=True)
    encoded = _ROW_ENCODER.encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return text.replace('\n  "per_run": null',
                        f'\n  "per_run": [\n    {{\n      {encoded}\n    }}\n  ]', 1) + "\n"


def _csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    """Instantiate every golden expansion with random amplitudes and
    compare the engine's registers componentwise; also require every
    corrected branch of both protocols to recover the input. The inputs
    run in stacks of BATCH_CHUNK, each drawn as one block of rng.random(),
    which gives the draws of one random() call after another; the errors
    are maxima, so the stacking changes none of them."""
    table = load_expansions(cfg.golden)
    rng = np.random.default_rng(cfg.seed)
    max_err = {name: 0.0 for name in ALL_EXPANSIONS}
    branch_err = dict.fromkeys(ProtocolKind, 0.0)
    for start in range(0, cfg.n_runs, BATCH_CHUNK):
        sources = haar_sources(rng.random((min(BATCH_CHUNK, cfg.n_runs - start), 2)))
        alphas, betas = sources.T
        states = {**checkpoints_stack(ProtocolKind.SQTP, sources),
                  **checkpoints_stack(ProtocolKind.KAK, sources)}
        for name in ALL_EXPANSIONS:
            ref = table[name].instantiate(alphas, betas)
            err = float(np.max(np.abs(states[name] - ref)))
            max_err[name] = max(max_err[name], err)
        for kind in ProtocolKind:
            _, _, fidelities = enumerate_protocol_stack(kind, sources)
            branch_err[kind] = max(branch_err[kind], max(1.0 - f for f in fidelities))

    checks = [
        {"name": name, "max_abs_err": max_err[name], "pass": max_err[name] <= GOLDEN_ATOL}
        for name in ALL_EXPANSIONS
    ] + [
        {"name": f"{kind.value}_branch_recovery", "max_abs_err": err, "pass": err <= GOLDEN_ATOL}
        for kind, err in branch_err.items()
    ]
    all_pass = all(c["pass"] for c in checks)

    if cfg.fmt == "json":
        _emit(_json_text({"command": "verify", "config": cfg.public_dict(),
                          "checks": checks, "all_pass": all_pass}), cfg.out)
    else:
        lines = [f"{'check':24s} {'max_abs_err':>12s}  status"]
        for c in checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{c['name']:24s} {c['max_abs_err']:>12.3e}  {status}")
        passed = sum(c["pass"] for c in checks)
        lines.append(f"overall: {'PASS' if all_pass else 'FAIL'} ({passed}/{len(checks)})")
        _emit("\n".join(lines) + "\n", cfg.out)

    if not all_pass:
        first = next(c["name"] for c in checks if not c["pass"])
        print(f"verify failed: first mismatch in {first}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _compare_data(cfg: RunConfig) -> dict:
    """Each run's row per kind, in run order, from each chunk's columns;
    kind k draws from the chunk's streams[k]."""
    kinds = cfg.kinds()
    per_run: list[dict] = []
    for runs, sources, streams in run_batch(cfg.n_runs, cfg.seed, len(kinds)):
        rows = []
        for kind, rngs in zip(kinds, streams):
            if cfg.noise_f is None:
                stack = sample_stack(kind, sources, rngs.random())
                outcomes, channel_f, loccs = stack.outcome_bits(), None, [0] * len(runs)
            else:  # every run of a noisy stack ends on the same channel
                stack = run_noisy_stack(kind, sources, cfg.noise_f, rngs.random,
                                        distill_target=cfg.distill_target,
                                        max_rounds=cfg.max_rounds)
                outcomes, channel_f = [None] * len(runs), round(stack.f_final, 12)
                loccs = [LOCC_ROUND_BITS * attempts for attempts in stack.attempts]
            name, t_bits = kind.value, SCHEDULES[kind].announced
            rows.append([{"run": i, "protocol": name, "outcome_bits": outcome,
                          "fidelity": round(fidelity, 12), "channel_f": channel_f,
                          "teleport_bits": t_bits, "locc_bits": l_bits}
                         for i, outcome, fidelity, l_bits
                         in zip(runs, outcomes, stack.fidelities, loccs)])
        per_run += itertools.chain.from_iterable(zip(*rows))
    summary: dict[str, dict] = {}
    for k, kind in enumerate(kinds):
        rows = per_run[k::len(kinds)]  # the rows interleave the kinds run by run
        t_bits = SCHEDULES[kind].announced
        locc_mean = float(np.mean([r["locc_bits"] for r in rows]))
        summary[kind.value] = {
            "mean_fidelity": round(float(np.mean([r["fidelity"] for r in rows])), 12),
            "min_fidelity": round(min(r["fidelity"] for r in rows), 12),
            "teleport_bits": t_bits,
            "locc_bits": round(locc_mean, 12),
            "total_bits": round(t_bits + locc_mean, 12),
        }
    return {"command": "compare", "config": cfg.public_dict(),
            "per_run": per_run, "summary": summary}


_SUMMARY_COLUMNS = ["protocol", "mean_fidelity", "min_fidelity",
                    "teleport_bits", "locc_bits", "total_bits"]


def cmd_compare(cfg: RunConfig) -> int:
    data = _compare_data(cfg)
    if cfg.fmt == "json":
        _emit(_json_text(data), cfg.out)
        return 0
    rows = [{"protocol": name, **vals} for name, vals in data["summary"].items()]
    if cfg.fmt == "csv":
        _emit(_csv_text(_SUMMARY_COLUMNS, rows), cfg.out)
        return 0
    lines = [" ".join(f"{c:>14s}" for c in _SUMMARY_COLUMNS)]
    for r in rows:
        lines.append(" ".join(f"{str(r[c]):>14s}" for c in _SUMMARY_COLUMNS))
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(cfg: RunConfig) -> int:
    for flag, value in (("--f-min", cfg.f_min), ("--f-max", cfg.f_max), ("--f-step", cfg.f_step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if cfg.f_step <= 0:
        raise ValueError(f"--f-step must be > 0, got {cfg.f_step}")
    # points by index, not by adding floats; the slack keeps an f_max that sits on the grid
    span = (cfg.f_max - cfg.f_min) / cfg.f_step + 1e-9
    if span < 0:
        raise ValueError(f"empty grid, --f-min {cfg.f_min} exceeds --f-max {cfg.f_max}")
    if not span < MAX_SWEEP_POINTS:
        raise ValueError(f"grid from --f-min {cfg.f_min} to --f-max {cfg.f_max} at --f-step "
                         f"{cfg.f_step} has more than {MAX_SWEEP_POINTS} points")
    grid = [round(cfg.f_min + k * cfg.f_step, 12) for k in range(int(span) + 1)]
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValueError("grid must stay inside [0, 1]")
    rows = sweep_rows(grid, cfg.distill_target, cfg.max_rounds)
    _emit(_csv_text(SWEEP_COLUMNS, rows), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telecost",
        description="teleportation protocol simulator with classical-cost accounting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--runs", type=int, default=20, dest="n_runs")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=formats, default="text", dest="fmt")
        p.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="check golden expansions and branch recovery")
    common(p_verify, ("json", "text"))
    p_verify.add_argument("--golden", default=None, help="alternate golden expansion file")

    p_compare = sub.add_parser("compare", help="fidelity and classical cost per protocol")
    common(p_compare, ("json", "csv", "text"))
    p_compare.add_argument("--protocol", choices=("sqtp", "kak", "both"), default="both")
    p_compare.add_argument("--noise-f", type=float, default=None, dest="noise_f")
    p_compare.add_argument("--distill-target", type=float, default=None, dest="distill_target")
    p_compare.add_argument("--max-rounds", type=int, default=32, dest="max_rounds")

    p_sweep = sub.add_parser("sweep", help="distillation economics over a fidelity grid")
    p_sweep.add_argument("--f-min", type=float, default=0.55, dest="f_min")
    p_sweep.add_argument("--f-max", type=float, default=0.95, dest="f_max")
    p_sweep.add_argument("--f-step", type=float, default=0.1, dest="f_step")
    p_sweep.add_argument("--distill-target", type=float, default=0.95, dest="distill_target")
    p_sweep.add_argument("--max-rounds", type=int, default=64, dest="max_rounds")
    p_sweep.add_argument("--out", default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        handler = {"verify": cmd_verify, "compare": cmd_compare, "sweep": cmd_sweep}[cfg.command]
        return handler(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
