"""Two-party teleportation engine driven by one schedule table per protocol.

Both protocols start from the unknown qubit q0 next to the resource pair
(|00>+|11>)/sqrt(2) on q1 and q2, all three held by Alice. `SCHEDULES[kind]`
holds the rest: the ordered ops (party, gate or "transfer", qubits,
checkpoint name or None), the names of the initial and final registers,
how many of Alice's measured bits (q0, q1) she announces, and Bob's
correction on q2 for each announced value.

SQTP (standard): Alice hands q2 to Bob, runs CNOT q0->q1 and H on q0 and
announces both bits; Bob's four-row table applies Z then X on 11, leaving
a global phase of -1. KAK (chained XOR): Alice runs CNOT q0->q1 and
q1->q2 before q2 leaves her, then H on q0, and announces only q0's bit;
Bob applies Z when it is 1. The residual never depends on q1's outcome,
which is why one bit suffices.

One interpreter runs a table through `ProtocolMachine`, which lets a party
act only on qubits it owns, moves ownership only by transfers and bits
only by sends, so ordering claims (no signaling before the message,
channel interaction order) hold structurally. Sampled runs, checkpoints,
the branch walk, the entangled-input probe (the KAK table shifted one
qubit up) and the density walk in `noise` all read the same table;
`run_batch` is the one seeded batch runner.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .cost import CostLedger
from .kinds import ALICE, BOB, ProtocolKind, Purpose
from .statevector import (
    BranchOutcome,
    StateVector,
    apply_cnot,
    apply_h,
    apply_x,
    apply_z,
    bell_pair,
    collapse_residual,
    enumerate_branches,
    fidelity_pure,
    haar_amplitudes,
    measure_sample,
    tensor,
)

# Correction tables keyed by the announced bits. Gate tuples are applied
# left to right, so the SQTP 11 row means "first Z, then X".
SQTP_CORRECTIONS: dict[str, tuple[str, ...]] = {"00": (), "01": ("X",), "10": ("Z",), "11": ("Z", "X")}
KAK_CORRECTIONS: dict[str, tuple[str, ...]] = {"0": (), "1": ("Z",)}

@dataclass(frozen=True)
class Schedule:
    """One protocol as data. The ops run in order up to Alice's measurement
    of q0 and q1; a "transfer" op hands its qubit from its party to Bob. The
    first `announced` measured bits go to Bob, who applies the matching
    `corrections` row to q2."""

    initial: str
    ops: tuple[tuple[str, str, tuple[int, ...], str | None], ...]
    final: tuple[str, ...]
    announced: int
    corrections: dict[str, tuple[str, ...]]


SCHEDULES: dict[ProtocolKind, Schedule] = {
    ProtocolKind.SQTP: Schedule(
        "sqtp_initial",
        ((ALICE, "transfer", (2,), None),  # the pre-shared half of the resource pair
         (ALICE, "CNOT", (0, 1), "sqtp_after_cnot"),
         (ALICE, "H", (0,), "sqtp_after_h")),
        final=("sqtp_branch_form",), announced=2, corrections=SQTP_CORRECTIONS,
    ),
    ProtocolKind.KAK: Schedule(
        "kak_initial",
        ((ALICE, "CNOT", (0, 1), "kak_after_xor1"),
         (ALICE, "CNOT", (1, 2), "kak_after_xor2"),
         (ALICE, "transfer", (2,), None),
         (ALICE, "H", (0,), "kak_after_h")),
        final=("kak_branch_form", "kak_two_class_form"), announced=1, corrections=KAK_CORRECTIONS,
    ),
}


def correction_for(kind: ProtocolKind, outcome_bits: str) -> tuple[str, ...]:
    """Bob's gates for Alice's full two-bit outcome: the table row keyed by
    the announced bits, so KAK ignores the q1 outcome."""
    schedule = SCHEDULES[kind]
    return schedule.corrections[outcome_bits[: schedule.announced]]


@dataclass(frozen=True)
class UnknownQubit:
    """The state to be teleported, alpha|0> + beta|1>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # also rejects NaN and infinite amplitudes
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {norm}")

    @classmethod
    def haar(cls, rng: np.random.Generator) -> UnknownQubit:
        return cls(*haar_amplitudes(rng))

    def to_statevector(self) -> StateVector:
        return StateVector(1, np.array([self.alpha, self.beta], dtype=complex))


# ---------------------------------------------------------------------------
# trace events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateApplied:
    party: str
    gate: str
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class QubitTransferred:
    src: str
    dst: str
    qubit: int


@dataclass(frozen=True)
class Measured:
    party: str
    qubits: tuple[int, ...]
    bits: str


@dataclass(frozen=True)
class MessageSent:
    src: str
    dst: str
    bits: str
    purpose: Purpose


@dataclass(frozen=True)
class CorrectionApplied:
    party: str
    qubit: int
    gates: tuple[str, ...]


TraceStep = GateApplied | QubitTransferred | Measured | MessageSent | CorrectionApplied


def step_to_json(step: TraceStep) -> dict:
    """Serialize one step with the stable field vocabulary
    {step_type, party, qubits, bits, purpose, gate_seq}. Two-party steps
    encode party as a [from, to] pair."""
    if isinstance(step, GateApplied):
        return {"step_type": "gate_applied", "party": step.party,
                "qubits": list(step.qubits), "gate_seq": [step.gate]}
    if isinstance(step, QubitTransferred):
        return {"step_type": "qubit_transferred", "party": [step.src, step.dst],
                "qubits": [step.qubit]}
    if isinstance(step, Measured):
        return {"step_type": "measured", "party": step.party,
                "qubits": list(step.qubits), "bits": step.bits}
    if isinstance(step, MessageSent):
        return {"step_type": "message_sent", "party": [step.src, step.dst],
                "bits": step.bits, "purpose": step.purpose.value}
    if isinstance(step, CorrectionApplied):
        return {"step_type": "correction_applied", "party": step.party,
                "qubits": [step.qubit], "gate_seq": list(step.gates)}
    raise TypeError(f"not a trace step: {step!r}")


@dataclass
class ProtocolTrace:
    """Complete record of one teleportation run."""

    kind: ProtocolKind
    steps: list[TraceStep]
    final_bob_state: StateVector
    fidelity_achieved: float
    ledger: CostLedger

    def replay_ledger(self) -> CostLedger:
        """Rebuild the cost ledger from the MessageSent steps alone."""
        ledger = CostLedger()
        for step in self.steps:
            if isinstance(step, MessageSent):
                ledger.add(step.src, step.dst, len(step.bits), step.purpose)
        return ledger

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.kind.value,
            "steps": [step_to_json(s) for s in self.steps],
            "fidelity": round(self.fidelity_achieved, 12),
            "final_bob_state": [[float(a.real), float(a.imag)] for a in self.final_bob_state.amps],
        }


# ---------------------------------------------------------------------------
# two-party state machine
# ---------------------------------------------------------------------------


class ProtocolMachine:
    """Executes a schedule over a shared register while enforcing ownership.

    The machine refuses gates on qubits the acting party does not own and
    refuses transfers by non-owners, so any trace it emits is a physically
    schedulable sequence of local operations and classical messages.
    """

    _GATES_1Q = {"H": apply_h, "X": apply_x, "Z": apply_z}

    def __init__(self, state: StateVector, owners: dict[int, str]) -> None:
        if sorted(owners) != list(range(state.n_qubits)):
            raise ValueError("owners must cover every qubit index exactly once")
        self._state = state
        self._owners = dict(owners)
        self.steps: list[TraceStep] = []
        self.ledger = CostLedger()

    @property
    def state(self) -> StateVector:
        return self._state

    def _require_owner(self, party: str, qubits: tuple[int, ...]) -> None:
        for q in qubits:
            if self._owners.get(q) != party:
                raise ValueError(
                    f"{party} cannot act on qubit {q}, owned by {self._owners.get(q)!r}"
                )

    def apply(self, party: str, gate: str, *qubits: int) -> None:
        self._require_owner(party, qubits)
        if gate == "CNOT":
            if len(qubits) != 2:
                raise ValueError("CNOT takes control and target")
            self._state = apply_cnot(self._state, qubits[0], qubits[1])
        elif gate in self._GATES_1Q and len(qubits) == 1:
            self._state = self._GATES_1Q[gate](self._state, qubits[0])
        else:
            raise ValueError(f"unsupported gate {gate!r} on {len(qubits)} qubit(s)")
        self.steps.append(GateApplied(party, gate, tuple(qubits)))

    def transfer(self, qubit: int, src: str, dst: str) -> None:
        self._require_owner(src, (qubit,))
        if src == dst:
            raise ValueError("transfer must change ownership")
        self._owners[qubit] = dst
        self.steps.append(QubitTransferred(src, dst, qubit))

    def measure(self, party: str, qubits: tuple[int, ...], rng: np.random.Generator) -> str:
        self._require_owner(party, qubits)
        bits, self._state = measure_sample(self._state, list(qubits), rng)
        self.steps.append(Measured(party, tuple(qubits), bits))
        return bits

    def send(self, src: str, dst: str, bits: str, purpose: Purpose) -> None:
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"bits must be a nonempty 0/1 string, got {bits!r}")
        self.steps.append(MessageSent(src, dst, bits, purpose))
        self.ledger.add(src, dst, len(bits), purpose)

    def apply_correction(self, party: str, qubit: int, gates: tuple[str, ...]) -> None:
        self._require_owner(party, (qubit,))
        for g in gates:
            self._state = self._GATES_1Q[g](self._state, qubit)
        self.steps.append(CorrectionApplied(party, qubit, tuple(gates)))

    def fork(self, state: StateVector) -> ProtocolMachine:
        """A machine with this one's owners and no history, holding `state`:
        the branch walk continues each measurement outcome on its own fork."""
        return ProtocolMachine(state, self._owners)


# ---------------------------------------------------------------------------
# schedule interpreter
# ---------------------------------------------------------------------------


def _prefix(
    kind: ProtocolKind, source: StateVector, offset: int = 0
) -> tuple[ProtocolMachine, dict[str, StateVector]]:
    """Run SCHEDULES[kind] on source (x) resource pair up to, not including,
    Alice's measurement, with every qubit index shifted up by `offset`; the
    first `offset` qubits of source are held back by a third party.
    Returns the machine and the named register states along the way."""
    schedule = SCHEDULES[kind]
    register = tensor(source, bell_pair())
    owners = dict.fromkeys(range(register.n_qubits), ALICE)
    owners.update(dict.fromkeys(range(offset), "holdout"))
    m = ProtocolMachine(register, owners)
    states = {schedule.initial: register}
    for party, gate, qubits, name in schedule.ops:
        if offset:
            qubits = tuple(q + offset for q in qubits)
        if gate == "transfer":
            m.transfer(*qubits, party, BOB)
        else:
            m.apply(party, gate, *qubits)
        if name is not None:
            states[name] = m.state
    states.update(dict.fromkeys(schedule.final, m.state))
    return m, states


def _bob_residual(
    m: ProtocolMachine, bits: str, gates: tuple[str, ...], offset: int = 0
) -> StateVector:
    """Bob applies `gates` to his qubit; returns the register without
    Alice's measured qubits, which must already be collapsed to `bits`."""
    m.apply_correction(BOB, 2 + offset, gates)
    return collapse_residual(m.state, (offset, 1 + offset), bits)


def run_protocol(kind: ProtocolKind, psi: UnknownQubit, rng: np.random.Generator) -> ProtocolTrace:
    """One sampled run: the schedule, Alice's measurement, her announcement
    and Bob's correction."""
    target = psi.to_statevector()
    m, _ = _prefix(kind, target)
    bits = m.measure(ALICE, (0, 1), rng)
    m.send(ALICE, BOB, bits[: SCHEDULES[kind].announced], Purpose.TELEPORT)
    bob = _bob_residual(m, bits, correction_for(kind, bits))
    return ProtocolTrace(kind, m.steps, bob, fidelity_pure(bob, target), m.ledger)


def sqtp_checkpoints(psi: UnknownQubit) -> dict[str, StateVector]:
    """Named register states at each step of the standard protocol, plus
    the resource pair on its own."""
    return {"epr_pair": bell_pair(), **_prefix(ProtocolKind.SQTP, psi.to_statevector())[1]}


def kak_checkpoints(psi: UnknownQubit) -> dict[str, StateVector]:
    """Named register states at each step of the chained-XOR protocol."""
    return _prefix(ProtocolKind.KAK, psi.to_statevector())[1]


@dataclass(frozen=True)
class ProtocolBranch:
    """One measurement branch of a protocol with Bob's corrected qubit."""

    outcome: BranchOutcome
    bob_state: StateVector
    fidelity: float


def enumerate_protocol(kind: ProtocolKind, psi: UnknownQubit) -> list[ProtocolBranch]:
    """All four measurement branches with corrections applied.

    For SQTP the four corrected residuals all recover psi (branch 11 up to
    a global -1). For KAK the uncorrected residuals come in exactly two
    classes keyed on the q0 bit.
    """
    target = psi.to_statevector()
    m, _ = _prefix(kind, target)
    out = []
    for branch in enumerate_branches(m.state, (0, 1)):
        bits = branch.outcome_bits
        bob = _bob_residual(m.fork(branch.post_state), bits, correction_for(kind, bits))
        out.append(ProtocolBranch(branch, bob, fidelity_pure(bob, target)))
    return out


# ---------------------------------------------------------------------------
# entangled-input probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntangledBranch:
    outcome_bits: str
    probability: float
    fidelity_corrected: float
    fidelity_best: float


@dataclass(frozen=True)
class EntangledInputReport:
    """Per-branch outcome of feeding half of a 2-qubit state through KAK.

    fidelity_corrected uses the one-bit table as prescribed; fidelity_best
    takes the better of both one-bit corrections, which is the most
    charitable reading of what Bob could do with the transmitted bit.
    """

    joint_dim: int
    branches: tuple[EntangledBranch, ...]

    @property
    def min_branch_fidelity(self) -> float:
        return min(b.fidelity_best for b in self.branches)


def kak_entangled_input_demo(joint: StateVector) -> EntangledInputReport:
    """Feed the second qubit of `joint` through the chained-XOR protocol
    while holding the first back, and compare the resulting
    (holdout, Bob) joint state against the original on every branch.

    This is the KAK schedule shifted one qubit up: q0 is the holdout, q1
    the fed qubit, q2 and q3 the resource pair.
    """
    if joint.n_qubits != 2:
        raise ValueError(f"joint input must be 2 qubits, got {joint.n_qubits}")
    schedule = SCHEDULES[ProtocolKind.KAK]
    m, _ = _prefix(ProtocolKind.KAK, joint, offset=1)
    branches = []
    for branch in enumerate_branches(m.state, (1, 2)):
        bits = branch.outcome_bits
        fids = {}
        for key, gates in schedule.corrections.items():
            bob = _bob_residual(m.fork(branch.post_state), bits, gates, offset=1)
            fids[key] = fidelity_pure(bob, joint)
        prescribed = fids[bits[: schedule.announced]]
        branches.append(EntangledBranch(bits, branch.probability, prescribed, max(fids.values())))
    return EntangledInputReport(joint.dim, tuple(branches))


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def run_batch(
    kinds: list[ProtocolKind], n_runs: int, seed: int, run_one: Callable
) -> Iterator[tuple[int, ProtocolKind, object]]:
    """Seeded batch over Haar-random inputs, yielding (run, kind, result)
    one at a time. Run i splits child i of SeedSequence(seed) into
    1 + len(kinds) streams: psi draws from the first and kind k runs
    run_one(kind, psi, rng) on stream 1 + k, so run i does not depend on
    n_runs. Each result has a cost ledger whose TELEPORT bits must not
    vary across the runs of one kind."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    teleport_bits: dict[ProtocolKind, int] = {}
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_runs)):
        subs = child.spawn(1 + len(kinds))
        psi = UnknownQubit.haar(np.random.default_rng(subs[0]))
        for k, kind in enumerate(kinds):
            result = run_one(kind, psi, np.random.default_rng(subs[1 + k]))
            bits = result.ledger.total(Purpose.TELEPORT)
            if teleport_bits.setdefault(kind, bits) != bits:
                raise AssertionError(
                    f"teleport bits varied for {kind.value}: {teleport_bits[kind]} then {bits}"
                )
            yield i, kind, result
