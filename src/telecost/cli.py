"""Command line front end.

Three subcommands:
  verify    check every shipped golden expansion and branch recovery
  compare   run both protocols and tabulate fidelity and classical cost
  sweep     CSV of the distillation economics over a channel-fidelity grid

All outputs are deterministic for a fixed seed: running a command twice
with the same arguments produces byte-identical reports. `compare` keeps
each kind's column over all runs, one channel fidelity and the one
teleport fidelity of every run, which only `--format json` renders as rows.

`main` parses with one parser per process, so its one build is set-up
cost; `build_parser()` returns a new parser on every call.

At import this module loads only `kinds`, `cost` and `schedule`, none of
which needs NumPy or `dataclasses` (`RunConfig` is a validated
namedtuple), so `sweep` never loads them; `verify` and `compare` import
NumPy and the engine (`protocol`, `noise`, `expansions`) when they run,
and `json` where they print it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import sys
from collections import namedtuple

from .cost import LOCC_ROUND_BITS, SWEEP_COLUMNS, _NOISY_MAX_ROUNDS, _SWEEP_MAX_ROUNDS, sweep_rows
from .kinds import ProtocolKind
from .schedule import BATCH_CHUNK, MAX_RUNS, SCHEDULES, _OUTCOMES

GOLDEN_ATOL = 1e-12
MAX_SWEEP_POINTS = 100_001
MAX_ROUNDS = 1024  # the float recurrence stalls below 1 within a few hundred levels
# each command's formats; sweep has no --format and prints CSV
_FORMATS = {"verify": ("json", "text"), "compare": ("json", "csv", "text"), "sweep": ("text",)}


class RunConfig(namedtuple("RunConfig", "command protocol n_runs seed noise_f distill_target "
                                        "max_rounds fmt out golden f_min f_max f_step",
                           defaults=("both", 20, 0, None, None, None, "text", None, None,
                                     0.55, 0.95, 0.1))):
    """Every flag's default, declared only here, and every flag's check but
    the sweep grid's, which cmd_sweep makes as it builds the grid. A None
    max_rounds is the command's cap; sweep reads a None distill_target as 0.95."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        sweep = self.command == "sweep"
        if sweep and self.distill_target is None:
            self = self._replace(distill_target=0.95)
        if self.max_rounds is None:
            self = self._replace(max_rounds=_SWEEP_MAX_ROUNDS if sweep else _NOISY_MAX_ROUNDS)
        formats = _FORMATS.get(self.command, ())
        if self.fmt not in formats:
            raise ValueError(f"{self.command} --format must be in {formats}, got {self.fmt!r}")
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
        return self

    def kinds(self) -> list[ProtocolKind]:
        if self.protocol == "both":
            return [ProtocolKind.SQTP, ProtocolKind.KAK]
        return [ProtocolKind(self.protocol)]

    def public_dict(self) -> dict:
        # the destination path is plumbing, not part of the computation,
        # and keeping it out makes reports byte-identical across runs
        d = self._asdict()
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
    run in stacks of BATCH_CHUNK, n rows from 2n draws of SeedSequence(seed)'s
    stream, default_rng(seed).random((n, 2)) without numpy.random, one
    verify_stack a kind; the errors are maxima, so the stacking changes none of them."""
    import json

    import numpy as np

    from .expansions import ALL_EXPANSIONS, load_expansions
    from .protocol import _streams, haar_sources, verify_stack

    table = load_expansions(cfg.golden)
    stream = _streams(cfg.seed)
    max_err = {name: 0.0 for name in ALL_EXPANSIONS}
    branch_err = dict.fromkeys(ProtocolKind, 0.0)
    for start in range(0, cfg.n_runs, BATCH_CHUNK):
        sources = haar_sources(stream.random(2 * min(BATCH_CHUNK, cfg.n_runs - start)).reshape(-1, 2))
        alphas, betas = sources.T
        states = {}
        for kind in ProtocolKind:
            named, _, _, fidelities = verify_stack(kind, sources)
            states.update(named)
            branch_err[kind] = max(branch_err[kind], 1.0 - min(fidelities))
        for name in ALL_EXPANSIONS:
            ref = table[name].instantiate(alphas, betas)
            err = float(np.max(np.abs(states[name] - ref)))
            max_err[name] = max(max_err[name], err)

    checks = [
        {"name": name, "max_abs_err": max_err[name], "pass": max_err[name] <= GOLDEN_ATOL}
        for name in ALL_EXPANSIONS
    ] + [
        {"name": f"{kind.value}_branch_recovery", "max_abs_err": err, "pass": err <= GOLDEN_ATOL}
        for kind, err in branch_err.items()
    ]
    all_pass = all(c["pass"] for c in checks)

    if cfg.fmt == "json":
        _emit(json.dumps({"command": "verify", "config": cfg.public_dict(), "checks": checks,
                          "all_pass": all_pass}, indent=2, sort_keys=True) + "\n", cfg.out)
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


def _compare_data(cfg: RunConfig) -> tuple[dict, float | None, float, dict]:
    """The summary per kind, the channel's round(f_final, 12), None if
    noiseless, every run's one fidelity, rounded to 12 digits, and each
    kind's column in run order: run i's outcome index (ideal) or attempts (noisy).
    Kind k, the k-th that --protocol selects, draws from stream 1 + k, so
    kak alone reads the stream that sqtp reads beside it. No input is drawn
    and no register evolved: an ideal run's fidelity is 1.0, and a noisy
    stack's one fidelity is run_noisy_stack's (2F+1)/3."""
    from .noise import run_noisy_stack
    from .protocol import run_batch

    kinds = cfg.kinds()
    channel_f, columns = None, {kind: [] for kind in kinds}
    for runs, streams in run_batch(cfg.n_runs, cfg.seed, len(kinds)):
        if cfg.noise_f is None:
            # run i's outcome is floor(4u) of its draw u in [0, 1), as every outcome is 1/4 likely for every
            # input (tests/test_protocol.py::test_every_outcome_has_born_probability_exactly_one_quarter)
            picks, fidelity = (4.0 * streams.random()).astype(int).tolist(), 1.0
        else:  # the ladder is deterministic, so every noisy chunk ends on one channel
            stacks = run_noisy_stack(kinds, len(runs), cfg.noise_f, streams.random,
                                     cfg.distill_target, cfg.max_rounds)
            # + 0.0, as in the sweep grid: a channel of F = -0.0 prints as 0.0
            channel_f, fidelity = round(stacks[0].f_final, 12) + 0.0, stacks[0].fidelity
            picks = [stack.attempts for stack in stacks]
        for kind_picks, row in zip(columns.values(), picks):
            kind_picks += row
    summary = {}
    for kind, picks in columns.items():
        t_bits = SCHEDULES[kind].announced
        # every run has the one fidelity; the integer sum is exact, so the mean is rounded once
        locc_mean = 0.0 if cfg.noise_f is None else LOCC_ROUND_BITS * sum(picks) / len(picks)
        summary[kind.value] = {"mean_fidelity": fidelity, "min_fidelity": fidelity, "teleport_bits": t_bits,
                               "locc_bits": round(locc_mean, 12), "total_bits": round(t_bits + locc_mean, 12)}
    return summary, channel_f, fidelity, columns


def _compare_json(payload: dict, channel_f: float | None, fidelity: float, columns: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline, byte for
    byte, with _compare_data's rows, kinds interleaved run by run, where
    "per_run": null stands. That text occurs once: no JSON string holds a raw
    newline, and only top-level keys start a line with two spaces and a quote.
    Each kind writes `fidelity` into its row template once and renders its
    row head, the template up to the run index, once per distinct cell;
    floats go through repr, as json's do."""
    import json

    noisy = channel_f is not None
    cell = '%d,\n      "outcome_bits": null' if noisy else '0,\n      "outcome_bits": "%s"'
    kind_rows = []
    for kind, picks in columns.items():
        cells = [LOCC_ROUND_BITS * a for a in picks] if noisy else [_OUTCOMES[k] for k in picks]
        template = (f'    {{\n      "channel_f": {json.dumps(channel_f)},\n      "fidelity": {fidelity!r},\n'
                    f'      "locc_bits": {cell},\n      "protocol": "{kind.value}",\n      "run": ')
        tail = f',\n      "teleport_bits": {SCHEDULES[kind].announced}\n    }}'
        heads = {c: template % c for c in set(cells)}
        kind_rows.append([f"{heads[c]}{i}{tail}" for i, c in enumerate(cells)])
    per_run = ",\n".join(itertools.chain.from_iterable(zip(*kind_rows)))
    text = json.dumps(payload, indent=2, sort_keys=True)
    return text.replace('\n  "per_run": null', f'\n  "per_run": [\n{per_run}\n  ]', 1) + "\n"


_SUMMARY_COLUMNS = ["protocol", "mean_fidelity", "min_fidelity",
                    "teleport_bits", "locc_bits", "total_bits"]


def cmd_compare(cfg: RunConfig) -> int:
    summary, channel_f, fidelity, columns = _compare_data(cfg)
    if cfg.fmt == "json":
        _emit(_compare_json({"command": "compare", "config": cfg.public_dict(), "per_run": None,
                             "summary": summary}, channel_f, fidelity, columns), cfg.out)
        return 0
    rows = [{"protocol": name, **vals} for name, vals in summary.items()]
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
    # + 0.0 turns a point that rounds to -0.0 into 0.0, which prints as such
    grid = [round(cfg.f_min + k * cfg.f_step, 12) + 0.0 for k in range(int(span) + 1)]
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

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # flags, types and choices only: a flag not given sets nothing, so RunConfig's default holds
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if name in ("verify", "compare"):
            p.add_argument("--runs", type=int, dest="n_runs")
            p.add_argument("--seed", type=int)
            p.add_argument("--format", choices=_FORMATS[name], dest="fmt")
            p.add_argument("--out")
        return p

    command("verify", "check golden expansions and branch recovery").add_argument(
        "--golden", help="alternate golden expansion file")

    p_compare = command("compare", "fidelity and classical cost per protocol")
    p_compare.add_argument("--protocol", choices=("sqtp", "kak", "both"))
    p_compare.add_argument("--noise-f", type=float)
    p_compare.add_argument("--distill-target", type=float)
    p_compare.add_argument("--max-rounds", type=int)

    p_sweep = command("sweep", "distillation economics over a fidelity grid")
    p_sweep.add_argument("--f-min", type=float)
    p_sweep.add_argument("--f-max", type=float)
    p_sweep.add_argument("--f-step", type=float)
    p_sweep.add_argument("--distill-target", type=float)
    p_sweep.add_argument("--max-rounds", type=int)
    p_sweep.add_argument("--out")
    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        handler = {"verify": cmd_verify, "compare": cmd_compare, "sweep": cmd_sweep}[cfg.command]
        return handler(cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
