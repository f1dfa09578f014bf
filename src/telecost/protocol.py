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

Building a `Schedule` is the one place locality is checked: a party may
gate or hand over only qubits it holds, and at the end Alice must hold q0
and q1 and Bob q2, so Alice measures her own qubits and Bob corrects his.
A non-local schedule cannot be built, and no run checks it again.

One interpreter runs a table once over a stack of registers, shape
(runs, 2, 2, 2), through the statevector gate kernels (apply_h/x/z,
apply_cnot), and applies Bob's corrections for all four outcomes to the
whole stack; only drawing each run's outcome from its own stream
(measure_sample) and normalising its state are per run.
`run_protocol_stack` is that for sampled runs. `run_protocol`, the
checkpoints, the branch walk and the entangled-input probe (the KAK table
shifted one qubit up) are stacks of one. The density walk in `noise`
reads the same table. `run_batch` is the one seeded batch runner; it
evaluates its runs in chunks of BATCH_CHUNK. The per-state path this
replaced is the bit-for-bit reference in tests/per_state_reference.py.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

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
    fidelity_pure,
    haar_amplitudes,
    measure_sample,
)

# Correction tables keyed by the announced bits. Gate tuples are applied
# left to right, so the SQTP 11 row means "first Z, then X".
SQTP_CORRECTIONS: dict[str, tuple[str, ...]] = {"00": (), "01": ("X",), "10": ("Z",), "11": ("Z", "X")}
KAK_CORRECTIONS: dict[str, tuple[str, ...]] = {"0": (), "1": ("Z",)}

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


@dataclass(frozen=True)
class Schedule:
    """One protocol as data. The ops run in order up to Alice's measurement
    of q0 and q1; a "transfer" op hands its qubit from its party to Bob. The
    first `announced` measured bits go to Bob, who applies the matching
    `corrections` row to q2.

    Building one checks that it is local, starting from Alice holding all
    three qubits, and records the ops as trace steps in `steps`."""

    initial: str
    ops: tuple[tuple[str, str, tuple[int, ...], str | None], ...]
    final: tuple[str, ...]
    announced: int
    corrections: dict[str, tuple[str, ...]]
    steps: tuple[GateApplied | QubitTransferred, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        owners = {0: ALICE, 1: ALICE, 2: ALICE}
        steps = []
        for party, gate, qubits, _name in self.ops:
            for q in qubits:
                if owners.get(q) != party:
                    raise ValueError(f"{party} cannot {gate} qubit {q}, owned by {owners.get(q)!r}")
            if gate == "transfer":
                owners[qubits[0]] = BOB
                steps.append(QubitTransferred(party, BOB, qubits[0]))
            else:
                steps.append(GateApplied(party, gate, qubits))
        if owners != {0: ALICE, 1: ALICE, 2: BOB}:
            raise ValueError(f"Alice must end holding q0 and q1 and Bob q2, got {owners}")
        object.__setattr__(self, "steps", tuple(steps))


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
# stacked schedule interpreter
# ---------------------------------------------------------------------------

# the stacked gate kernels by schedule name; a module dict, so the
# benchmark tracer can rebind them
_GATES = {"H": apply_h, "X": apply_x, "Z": apply_z, "CNOT": apply_cnot}


def _sources(psis: list[UnknownQubit]) -> np.ndarray:
    """The inputs' amplitudes, one row each; UnknownQubit checked their norm."""
    return np.array([(psi.alpha, psi.beta) for psi in psis], dtype=complex)


def _evolve(
    kind: ProtocolKind, sources: np.ndarray, offset: int = 0
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Run SCHEDULES[kind] once over a stack of registers, row i of
    `sources` (x) the resource pair, up to, not including, Alice's
    measurement. Axis 0 of the stack indexes the runs and axis q + 1 holds
    qubit q. Every op's qubits are shifted up by `offset`: the first
    `offset` qubits of each source are held back by a third party, which
    no op touches. Returns the stack before the measurement and the named
    stacks along the way."""
    schedule = SCHEDULES[kind]
    shape = (len(sources),) + (2,) * (3 + offset)
    t = np.multiply.outer(sources, bell_pair().amps).reshape(shape)
    stacks = {schedule.initial: t}
    for _party, gate, qubits, name in schedule.ops:
        if gate != "transfer":
            t = _GATES[gate](t, *(q + offset + 1 for q in qubits))
        if name is not None:
            stacks[name] = t
    stacks.update(dict.fromkeys(schedule.final, t))
    return t, stacks


def _born_rows(t: np.ndarray, offset: int = 0) -> np.ndarray:
    """Born probabilities of Alice's two measured qubits, one row per run,
    indexed like _OUTCOMES."""
    others = (*range(1, offset + 1), offset + 3)
    return (np.abs(t) ** 2).sum(axis=others).reshape(len(t), 4)


# Alice's two measured bits; outcome k reads as the binary number k
_OUTCOMES = ("00", "01", "10", "11")


def _residuals(
    t: np.ndarray, probs: np.ndarray, corrections: list[tuple[str, ...]], offset: int = 0
) -> np.ndarray:
    """The unmeasured qubits of every run for every outcome k, shape
    (runs, 4, 2 ** (1 + offset)): the stack where Alice reads outcome k,
    divided by sqrt(probs[:, k]), with Bob's gates corrections[k] applied
    to his qubit. Each vector still needs _normalised."""
    scale = (-1,) + (1,) * (offset + 1)
    out = []
    for k, gates in enumerate(corrections):
        at_k = (slice(None),) * (offset + 1) + divmod(k, 2)
        res = t[at_k] / np.sqrt(probs[:, k]).reshape(scale)
        for gate in gates:
            res = _GATES[gate](res, offset + 1)
        out.append(res.reshape(len(t), -1))
    return np.stack(out, axis=1)


def _normalised(v: np.ndarray) -> np.ndarray:
    """v over its norm, one vector at a time: a norm along an axis of the
    stack sums in another order and can move the last bit, which the
    per-state reference in the tests would catch."""
    return v / np.linalg.norm(v)


def run_protocol_stack(
    kind: ProtocolKind, psis: list[UnknownQubit], rngs: list[np.random.Generator]
) -> list[ProtocolTrace]:
    """One sampled run per input: the schedule and Bob's corrections for
    every outcome run once over the whole stack, then each run draws
    Alice's outcome from its own stream and keeps that outcome's state."""
    schedule = SCHEDULES[kind]
    sources = _sources(psis)
    t, _ = _evolve(kind, sources)
    probs = _born_rows(t)
    bobs = _residuals(t, probs, [correction_for(kind, bits) for bits in _OUTCOMES])
    traces = []
    for source, p, bob_rows, rng in zip(sources, probs, bobs, rngs, strict=True):
        k = measure_sample(p, rng)
        bits = _OUTCOMES[k]
        sent = bits[: schedule.announced]
        gates = schedule.corrections[sent]
        bob = StateVector._trusted(1, _normalised(bob_rows[k]))
        ledger = CostLedger()
        ledger.add(ALICE, BOB, len(sent), Purpose.TELEPORT)
        steps = [*schedule.steps, Measured(ALICE, (0, 1), bits),
                 MessageSent(ALICE, BOB, sent, Purpose.TELEPORT), CorrectionApplied(BOB, 2, gates)]
        fidelity = fidelity_pure(bob, StateVector._trusted(1, source))
        traces.append(ProtocolTrace(kind, steps, bob, fidelity, ledger))
    return traces


def run_protocol(kind: ProtocolKind, psi: UnknownQubit, rng: np.random.Generator) -> ProtocolTrace:
    """One sampled run: the schedule, Alice's measurement, her announcement
    and Bob's correction, as a stack of one."""
    return run_protocol_stack(kind, [psi], [rng])[0]


def _named_states(kind: ProtocolKind, psi: UnknownQubit) -> dict[str, StateVector]:
    """The named registers of one input; names of the same register share
    one StateVector."""
    _, stacks = _evolve(kind, _sources([psi]))
    built = {id(t): StateVector._trusted(3, t[0].reshape(-1)) for t in stacks.values()}
    return {name: built[id(t)] for name, t in stacks.items()}


def sqtp_checkpoints(psi: UnknownQubit) -> dict[str, StateVector]:
    """Named register states at each step of the standard protocol, plus
    the resource pair on its own."""
    return {"epr_pair": bell_pair(), **_named_states(ProtocolKind.SQTP, psi)}


def kak_checkpoints(psi: UnknownQubit) -> dict[str, StateVector]:
    """Named register states at each step of the chained-XOR protocol."""
    return _named_states(ProtocolKind.KAK, psi)


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
    sources = _sources([psi])
    target = StateVector._trusted(1, sources[0])
    t, _ = _evolve(kind, sources)
    probs = _born_rows(t)
    collapsed = _residuals(t, probs, [()] * 4)[0]
    bobs = _residuals(t, probs, [correction_for(kind, bits) for bits in _OUTCOMES])[0]
    out = []
    for k, bits in enumerate(_OUTCOMES):
        post = np.zeros((4, 2), dtype=complex)  # the full register, collapsed onto bits
        post[k] = collapsed[k]
        outcome = BranchOutcome(bits, float(probs[0, k]), StateVector._trusted(3, post.reshape(-1)))
        bob = StateVector._trusted(1, _normalised(bobs[k]))
        out.append(ProtocolBranch(outcome, bob, fidelity_pure(bob, target)))
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
    t, _ = _evolve(ProtocolKind.KAK, joint.amps[None], offset=1)
    probs = _born_rows(t, offset=1)
    fids = {key: [fidelity_pure(StateVector._trusted(2, _normalised(v)), joint)
                  for v in _residuals(t, probs, [gates] * 4, offset=1)[0]]
            for key, gates in schedule.corrections.items()}
    branches = []
    for k, bits in enumerate(_OUTCOMES):
        row = {key: fid[k] for key, fid in fids.items()}
        prescribed = row[bits[: schedule.announced]]
        branches.append(EntangledBranch(bits, float(probs[0, k]), prescribed, max(row.values())))
    return EntangledInputReport(joint.dim, tuple(branches))


# ---------------------------------------------------------------------------
# seeded batches
# ---------------------------------------------------------------------------

# runs per stack: bounds the inputs, streams and results held at once
BATCH_CHUNK = 256


def run_batch(
    kinds: list[ProtocolKind], n_runs: int, seed: int, run_chunk: Callable
) -> Iterator[tuple[int, ProtocolKind, object]]:
    """Seeded batch over Haar-random inputs, yielding (run, kind, result)
    in run order. Run i splits child i of SeedSequence(seed) into
    1 + len(kinds) streams: psi draws from the first and kind k from
    stream 1 + k, so run i does not depend on n_runs. The runs go in
    chunks of BATCH_CHUNK, and run_chunk(kind, psis, rngs) returns one
    result per input of a chunk; spawn keeps numbering children across
    calls, so the chunks change no stream. Each result has a cost ledger
    whose TELEPORT bits must not vary across the runs of one kind."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    root = np.random.SeedSequence(seed)
    teleport_bits: dict[ProtocolKind, int] = {}
    for start in range(0, n_runs, BATCH_CHUNK):
        streams = [child.spawn(1 + len(kinds))
                   for child in root.spawn(min(BATCH_CHUNK, n_runs - start))]
        psis = [UnknownQubit.haar(np.random.default_rng(subs[0])) for subs in streams]
        results = [run_chunk(kind, psis, [np.random.default_rng(subs[1 + k]) for subs in streams])
                   for k, kind in enumerate(kinds)]
        for j in range(len(psis)):
            for kind, chunk in zip(kinds, results):
                bits = chunk[j].ledger.total(Purpose.TELEPORT)
                if teleport_bits.setdefault(kind, bits) != bits:
                    raise AssertionError(
                        f"teleport bits varied for {kind.value}: {teleport_bits[kind]} then {bits}"
                    )
                yield start + j, kind, chunk[j]
