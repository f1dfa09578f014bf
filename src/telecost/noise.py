"""Mixed-state channels, noisy teleportation and sampled distillation.

The resource pair is modeled as a Werner state: fidelity F on the
(|00>+|11>)/sqrt(2) projector and (1-F)/3 on each of the other three Bell
projectors. Teleporting through it yields an input-independent fidelity
(2F+1)/3 for both protocol families (Horodecki, "General teleportation
channel, singlet fraction and quasi-distillation"): F=1 gives 1, the
maximally mixed channel 1/2.

Distillation samples attempts up the exact recurrence ladder that
`cost._ladder` walks, the one `sweep` reads: each attempt succeeds with
its level's probability and sends one `cost.LOCC_ROUND`. The climb lives
in `run_noisy_stack`, which takes no inputs: every run climbs the same
ladder to the same F, so the stack walks it once, draws at once the steps
its slowest run still needs, and gives every run (2F+1)/3, correctly
rounded to 12 digits from the float F's exact value.

Every DensityMatrix is a 2-qubit channel state, checked when built: shape
4x4, Hermiticity, trace and positivity; `werner_state` checks on every call.
No density matrix is evolved: the protocol is linear in the resource pair,
so one input's fidelity through any 2-qubit channel is a quadratic form,
in the channel's matrix, of `protocol.pair_response`, one array expression
for a stack of inputs. `teleport_fidelity_noisy` and `run_noisy_teleport`
score their input so, and the tests check the closed form against it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .cost import LOCC_ROUND, _NOISY_MAX_ROUNDS, CostLedger, _ladder
from .kinds import ProtocolKind
from .protocol import UnknownQubit, pair_response
from .schedule import SCHEDULES
from .statevector import bell_pair

PSD_FLOOR = -1e-10


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
    """Werner pair with Bell fidelity f, r*I + (f - r)|Phi+><Phi+| with
    r = (1 - f)/3: f on |Phi+> and r on each other Bell projector; f = 1/4
    is the maximally mixed state. Built and checked on every call, frozen
    and read-only; an f outside [0, 1] raises."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity parameter must be in [0, 1], got {f}")
    rest, phi = (1.0 - f) / 3.0, bell_pair().amps
    return DensityMatrix(rest * np.eye(4) + (f - rest) * np.outer(phi, phi.conj()))


def _channel_fidelities(a: np.ndarray, channel: DensityMatrix) -> list[float]:
    """For every input i of a pair_response stack a, the sum over outcomes k
    of a[i, k]^T channel conj(a[i, k])."""
    return np.real(((a @ channel.mat) * a.conj()).reshape(len(a), 16).sum(axis=1)).tolist()


def teleport_fidelity_noisy(kind: ProtocolKind, psi: UnknownQubit, channel: DensityMatrix) -> float:
    """Fidelity <psi| rho_Bob |psi> of the protocol run through an
    arbitrary 2-qubit channel state, averaging Bob's corrected output
    over the four measurement outcomes with their Born weights: with
    a = pair_response(kind, [psi]), the sum over outcomes k of
    a[0, k]^T channel conj(a[0, k]), _channel_fidelities of a stack of
    one."""
    return _channel_fidelities(pair_response(kind, [psi]), channel)[0]


# ---------------------------------------------------------------------------
# distilled noisy runs, with cost and copy accounting
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


@dataclass(frozen=True)
class NoisyStack:
    """One kind's noisy runs of a stack. Every run distills to the same
    f_final in the same rounds, held once with target_met, and teleports
    at the one fidelity (2 f_final + 1)/3, rounded to 12 digits; run i's
    attempts are entry i of their column, and its LOCC bits attempts[i] *
    LOCC_ROUND_BITS. Every run then sends its schedule's TELEPORT message,
    which the stack does not copy."""

    rounds: int
    f_final: float
    target_met: bool
    attempts: list[int]
    fidelity: float


def run_noisy_stack(kinds: Sequence[ProtocolKind], n_runs: int, channel_f: float, draw: Callable,
                    distill_target: float | None = None,
                    max_rounds: int = _NOISY_MAX_ROUNDS) -> list[NoisyStack]:
    """A NoisyStack per kind of n_runs runs: the runs of all kinds climb the
    ladder, walked once, from channel_f toward distill_target as one (kinds,
    runs) level array. A given target must lie in (0, 1] and max_rounds be
    >= 1, whether or not the runs climb; a channel_f at the target makes no
    attempt, and one at or below 1/2 under it raises.

    draw(k) gives k columns, one per step, that broadcast to (kinds, runs);
    k is the steps the slowest run still needs, so no column past the last
    climbing step is drawn. A climbing run's attempt succeeds on a draw in
    [0, p), p its level's exact probability, else it retries: run i reads
    the first attempts[i] draws of its stream. Every level has p > 5/9, so a
    legal run passes 64 steps a level below (4/9)**64 likely; only past that
    bound is a column checked to lie in [0, 1), which ends draws that never
    succeed, NaN, 1.0 or negative, in a ValueError."""
    levels, stop = [], "target"
    if distill_target is not None:
        if not 0.0 < distill_target <= 1.0:
            raise ValueError(f"distill_target must be in (0, 1], got {distill_target}")
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        if channel_f < distill_target:
            if not 0.5 < channel_f <= 1.0:
                raise ValueError(f"f_in must be in (1/2, 1], got {channel_f}")
            levels, stop = _ladder(channel_f, distill_target, max_rounds)
    p_succ = np.array([p for p, _ in levels] + [0.0])  # past the top level no draw succeeds
    level = np.zeros((len(kinds), n_runs), dtype=int)
    attempts, steps = np.zeros_like(level), 0
    while k := len(levels) - int(level.min(initial=len(levels))):
        for steps, u in enumerate(draw(k), steps + 1):
            if steps > 64 * len(levels) and not np.all((0.0 <= u) & (u < 1.0)):
                raise ValueError("draws must be in [0, 1)")
            attempts += level < len(levels)
            level += (0.0 <= u) & (u < p_succ[level])
    f_final = levels[-1][1] if levels else channel_f
    # F = n/d exactly, so (2F + 1)/3 = (2n + d)/3d, rounded half-even to 12 digits as round() rounds
    n, d = f_final.as_integer_ratio()
    q, r = divmod((2 * n + d) * 10**12, 3 * d)
    fidelity = (q + (2 * r > 3 * d or 2 * r == 3 * d and q % 2)) / 10**12
    return [NoisyStack(len(levels), f_final, stop == "target", row.tolist(), fidelity)
            for row in attempts]


def run_noisy_teleport(kind: ProtocolKind, psi: UnknownQubit, channel_f: float,
                       rng: np.random.Generator, distill_target: float | None = None,
                       max_rounds: int = _NOISY_MAX_ROUNDS) -> NoisyTeleportReport:
    """One noisy run, as a stack of one, with a ledger of its own that
    bills one LOCC_ROUND per attempt before the teleport, and psi's
    fidelity through the Werner channel of f_final, unrounded."""
    [stack] = run_noisy_stack([kind], 1, channel_f, rng.random, distill_target, max_rounds)
    [attempts], schedule = stack.attempts, SCHEDULES[kind]
    fidelity = teleport_fidelity_noisy(kind, psi, werner_state(stack.f_final))
    return NoisyTeleportReport(kind, channel_f, stack.f_final, stack.target_met, stack.rounds,
                               attempts, attempts if schedule.burns_copies else 0, fidelity,
                               CostLedger([*LOCC_ROUND * attempts, schedule.teleport]))
