"""Mixed-state channels, noisy teleportation and recurrence distillation.

The resource pair is modeled as a Werner state: fidelity F on the
(|00>+|11>)/sqrt(2) projector and (1-F)/3 on each of the other three Bell
projectors. Teleporting through it yields an input-independent fidelity
(2F+1)/3 for both protocol families, which pins the two boundary cases
used as cross-checks: F=1 gives 1, the maximally mixed channel gives 1/2.

One distillation step takes two Werner pairs, applies a bilateral CNOT,
measures the target pair on both sides, keeps the source pair when the
outcomes, announced 1 bit each way (`LOCC_ROUND`, the one record every LOCC
bill reads), agree and re-twirls the kept pair to Werner form. It is
computed from its exact closed form; the 4-qubit density evolution is the
test oracle. For F > 1/2 the step strictly improves fidelity; at F = 1/4
it is a fixed point.
Sampled runs and sweeps climb the same exact ladder of steps (`_ladder`).

Every DensityMatrix is a 2-qubit channel state, checked when built: shape
4x4, Hermiticity, trace and positivity. No density matrix is evolved: the
protocol is linear in the resource pair, so the fidelity through any
2-qubit channel is a quadratic form, in the channel's matrix, of
`protocol.pair_response`. A chunk of noisy runs is one stack with one
Werner channel per distinct F; `run_noisy_teleport` is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostLedger
from .kinds import ALICE, BOB, ProtocolKind, Purpose
from .protocol import SCHEDULES, UnknownQubit, pair_response

PSD_FLOOR = -1e-10

_SQRT2 = np.sqrt(2.0)
BELL_VECTORS = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / _SQRT2,
}


@dataclass(frozen=True)
class DensityMatrix:
    """Validated mixed state of two qubits, the resource pair of a channel."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        if mat.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
        if not np.allclose(mat, mat.conj().T, atol=1e-12):
            raise ValueError("density matrix must be Hermitian")
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace must be 1, got {tr}")
        min_eig = float(np.min(np.linalg.eigvalsh(mat)))
        if min_eig < PSD_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite, min eigenvalue {min_eig:.3e}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)


def werner_state(f: float) -> DensityMatrix:
    """Werner pair with Bell fidelity f; f = 1/4 is the maximally mixed state."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity parameter must be in [0, 1], got {f}")
    rest = (1.0 - f) / 3.0
    mat = f * np.outer(BELL_VECTORS["phi_plus"], BELL_VECTORS["phi_plus"].conj())
    for name in ("phi_minus", "psi_plus", "psi_minus"):
        v = BELL_VECTORS[name]
        mat = mat + rest * np.outer(v, v.conj())
    return DensityMatrix(mat)


def _channel_fidelity(a: np.ndarray, channel: DensityMatrix) -> float:
    """The sum over outcomes k of a[k]^T channel conj(a[k])."""
    return float(np.real(np.sum((a @ channel.mat) * a.conj())))


def teleport_fidelity_noisy(kind: ProtocolKind, psi: UnknownQubit, channel: DensityMatrix) -> float:
    """Fidelity <psi| rho_Bob |psi> of the protocol run through an
    arbitrary 2-qubit channel state, averaging Bob's corrected output
    over the four measurement outcomes with their Born weights: with
    a = pair_response(kind, [psi])[0], the sum over outcomes k of
    a[k]^T channel conj(a[k])."""
    return _channel_fidelity(pair_response(kind, [psi])[0], channel)


# ---------------------------------------------------------------------------
# recurrence distillation
# ---------------------------------------------------------------------------


def distill_step_map(f: float) -> tuple[float, float]:
    """Exact (success probability, output fidelity) of one recurrence step
    on two Werner pairs of fidelity f, by the BBPSSW closed form (Bennett et
    al., quant-ph/9511027). tests/oracle_dense.oracle_distill_map derives it
    by 4-qubit density evolution."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity parameter must be in [0, 1], got {f}")
    r = (1.0 - f) / 3.0
    p_succ = f**2 + 2.0 * f * r + 5.0 * r**2
    return p_succ, (f**2 + r**2) / p_succ


# one recurrence attempt's traffic: each party announces its target-pair outcome
LOCC_ROUND = ((ALICE, BOB, 1, Purpose.LOCC), (BOB, ALICE, 1, Purpose.LOCC))


def _ladder(f_in: float, f_target: float, max_rounds: int) -> tuple[list[tuple[float, float]], str]:
    """Exact (success probability, fidelity after) per recurrence level from
    f_in, and why it stopped: "target" reached, "half" (F at or below 1/2,
    which no level improves), "stalled" (a level left F unchanged; floats
    stall below 1) or "cap" (max_rounds levels)."""
    levels: list[tuple[float, float]] = []
    f, f_prev = f_in, None
    while 0.5 < f < f_target and len(levels) < max_rounds and f != f_prev:
        levels.append(distill_step_map(f))
        f, f_prev = levels[-1][1], f
    return levels, ("target" if f >= f_target else "half" if f <= 0.5
                    else "stalled" if f == f_prev else "cap")


@dataclass(frozen=True)
class DistillRun:
    rounds: int
    attempts: int
    final_f: float
    target_met: bool


def distill_to_threshold(
    f_in: float, f_target: float, max_rounds: int, rng: np.random.Generator
) -> DistillRun:
    """Climb the recurrence ladder from f_in toward f_target with sampled
    attempts; if the ladder stops short, target_met is False and final_f
    stays under the target.

    Each attempt succeeds with its level's exact probability, one
    rng.random() apiece, the only draw it needs. rounds counts successes,
    attempts counts every try; a failure loses both pairs and the next
    attempt retries the current level on fresh pairs. Each attempt sends
    one LOCC_ROUND. f_in at or below 1/2 raises, as the recurrence cannot
    improve it; any other f_in at or above the target returns with no
    attempts."""
    if not 0.5 < f_in <= 1.0:
        raise ValueError(f"f_in must be in (1/2, 1], got {f_in}")
    if not 0.0 < f_target <= 1.0:
        raise ValueError(f"f_target must be in (0, 1], got {f_target}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    levels, stop = _ladder(f_in, f_target, max_rounds)
    attempts = 0
    for p_succ, _ in levels:
        attempts += 1
        while not rng.random() < p_succ:
            attempts += 1
    return DistillRun(len(levels), attempts, levels[-1][1] if levels else f_in, stop == "target")


SWEEP_COLUMNS = [
    "F_in",
    "success_prob",
    "F_out",
    "rounds_to_target",
    "locc_bits",
    "total_bits_sqtp",
    "total_bits_kak",
]


def sweep_rows(f_grid: list[float], distill_target: float, max_rounds: int = 64) -> list[dict]:
    """Deterministic no-failure expectation per grid point: one-step
    success probability and output fidelity, the ladder's length to the
    target (-1 if short), and per-qubit totals for both protocol families."""
    sqtp_bits, kak_bits = SCHEDULES[ProtocolKind.SQTP].announced, SCHEDULES[ProtocolKind.KAK].announced
    round_bits = sum(bits for _, _, bits, _ in LOCC_ROUND)
    rows = []
    for f in f_grid:
        levels, stop = _ladder(f, distill_target, max_rounds)
        p_succ, f_out = levels[0] if levels else distill_step_map(f)
        rounds = len(levels) if stop == "target" else -1
        locc = round_bits * rounds if rounds >= 0 else -1
        rows.append(
            {
                "F_in": round(f, 12),
                "success_prob": round(p_succ, 12),
                "F_out": round(f_out, 12),
                "rounds_to_target": rounds,
                "locc_bits": locc,
                "total_bits_sqtp": sqtp_bits + locc if locc >= 0 else -1,
                "total_bits_kak": kak_bits + locc if locc >= 0 else -1,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# noisy end-to-end run with cost and copy accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoisyTeleportReport:
    """Distill-then-teleport accounting for one unknown state.

    Under KAK scheduling the channel interacts with the payload before
    anything is shared, so every distillation attempt burns one fresh
    copy of the unknown state; standard scheduling distills the channel
    on its own and burns none. target_met is False only when distillation
    stopped short of its target.
    """

    kind: ProtocolKind
    f_initial: float
    f_final: float
    target_met: bool
    rounds: int
    attempts: int
    copies_consumed: int
    fidelity: float
    ledger: CostLedger


def run_noisy_stack(kind: ProtocolKind, psis: list[UnknownQubit], channel_f: float,
                    rngs: list[np.random.Generator], distill_target: float | None = None,
                    max_rounds: int = 32) -> list[NoisyTeleportReport]:
    """One noisy run per input: run i distills with rngs[i] alone, drawing
    only random(), then all inputs go through pair_response as one stack,
    and each distinct final fidelity builds one Werner channel, shared by
    the runs that reach it."""
    runs = [distill_to_threshold(channel_f, distill_target, max_rounds, rng)
            if distill_target is not None and channel_f < distill_target
            else DistillRun(0, 0, channel_f, True) for rng in rngs]
    channels = {f: werner_state(f) for f in dict.fromkeys(run.final_f for run in runs)}
    schedule = SCHEDULES[kind]
    reports = []
    for a, run in zip(pair_response(kind, psis), runs, strict=True):
        ledger = CostLedger([*LOCC_ROUND * run.attempts, schedule.teleport])
        reports.append(NoisyTeleportReport(
            kind, channel_f, run.final_f, run.target_met, run.rounds, run.attempts,
            run.attempts if schedule.burns_copies else 0,
            _channel_fidelity(a, channels[run.final_f]), ledger))
    return reports


def run_noisy_teleport(kind: ProtocolKind, psi: UnknownQubit, channel_f: float,
                       rng: np.random.Generator, distill_target: float | None = None,
                       max_rounds: int = 32) -> NoisyTeleportReport:
    """One noisy run, as a stack of one."""
    return run_noisy_stack(kind, [psi], channel_f, [rng], distill_target, max_rounds)[0]
