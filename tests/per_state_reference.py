"""The per-state protocol path, kept as the reference for the stacked one.

`telecost.protocol` evaluates each schedule once over a stack of runs.
This module is the path it replaced: one 3-qubit register per run, built
with `tensor`, driven gate by gate through the per-state gate functions,
measured with `measure_sample`, corrected on the full collapsed register
and cut down with `collapse_residual`. It uses the package's axis kernels
on one state at a time, so the stacked path must match it bit for bit.

The per-state statevector helpers the stacked path replaced live here
too, with their own unit tests in `test_statevector.py`: `apply_h/x/z/cnot`
and `measure_sample` on one `StateVector` (the package's functions of the
same names act on a stack), `enumerate_branches` and `collapse_residual`.
"""

from __future__ import annotations

import functools

import numpy as np

from telecost.cost import CostLedger
from telecost.kinds import ALICE, BOB, ProtocolKind, Purpose
from telecost.protocol import (
    SCHEDULES,
    CorrectionApplied,
    EntangledBranch,
    EntangledInputReport,
    Measured,
    MessageSent,
    ProtocolBranch,
    ProtocolTrace,
    UnknownQubit,
    correction_for,
)
from telecost.statevector import (
    _H,
    _X,
    _Z,
    BranchOutcome,
    StateVector,
    _check_qubit,
    _cnot_axes,
    _unitary1_axes,
    bell_pair,
    fidelity_pure,
    tensor,
)

# ---------------------------------------------------------------------------
# per-state gates, measurement and collapse
# ---------------------------------------------------------------------------


def _apply_fixed1(s: StateVector, q: int, m: np.ndarray) -> StateVector:
    _check_qubit(s, q)
    t = _unitary1_axes(s.amps.reshape([2] * s.n_qubits), q, m)
    return StateVector._trusted(s.n_qubits, t.reshape(-1))


def apply_h(s: StateVector, q: int) -> StateVector:
    return _apply_fixed1(s, q, _H)


def apply_x(s: StateVector, q: int) -> StateVector:
    return _apply_fixed1(s, q, _X)


def apply_z(s: StateVector, q: int) -> StateVector:
    return _apply_fixed1(s, q, _Z)


def apply_cnot(s: StateVector, control: int, target: int) -> StateVector:
    """Controlled NOT; flips target where control is 1."""
    _check_qubit(s, control)
    _check_qubit(s, target)
    if control == target:
        raise ValueError("control and target must differ")
    t = _cnot_axes(s.amps.reshape([2] * s.n_qubits), control, target)
    return StateVector._trusted(s.n_qubits, t.reshape(-1))


_GATES = {"H": apply_h, "X": apply_x, "Z": apply_z, "CNOT": apply_cnot}


def _validate_qubit_list(s: StateVector, qubits: tuple[int, ...] | list[int]) -> list[int]:
    qubits = list(qubits)
    if not qubits or len(set(qubits)) != len(qubits):
        raise ValueError(f"qubits must be a non-empty list of distinct indices, got {qubits}")
    for q in qubits:
        _check_qubit(s, q)
    return qubits


def _marginal_probs(s: StateVector, qubits: list[int]) -> np.ndarray:
    """Outcome probabilities for the listed qubits, indexed by their bit
    string in the given qubit order."""
    p = np.abs(s.amps.reshape([2] * s.n_qubits)) ** 2
    other = tuple(ax for ax in range(s.n_qubits) if ax not in qubits)
    m = p.sum(axis=other) if other else p
    # after the sum the axes are in ascending qubit order; restore caller order
    ascending = sorted(qubits)
    m = m.transpose([ascending.index(q) for q in qubits])
    return m.reshape(-1)


@functools.lru_cache(maxsize=256)
def _outcome_mask(n: int, qubits: tuple[int, ...], bits: str) -> np.ndarray:
    """Read-only mask of the basis indices where `qubits` read `bits`."""
    mask = np.ones(2**n, dtype=bool)
    idx = np.arange(2**n)
    for q, b in zip(qubits, bits):
        mask &= ((idx >> (n - 1 - q)) & 1) == int(b)
    mask.flags.writeable = False
    return mask


def _collapse(s: StateVector, qubits: list[int], bits: str, prob: float) -> StateVector:
    amps = np.where(_outcome_mask(s.n_qubits, tuple(qubits), bits), s.amps, 0.0)
    return StateVector._trusted(s.n_qubits, amps / np.sqrt(prob))


def measure_sample(
    s: StateVector, qubits: list[int] | tuple[int, ...], rng: np.random.Generator
) -> tuple[str, StateVector]:
    """Sample one computational-basis outcome for the listed qubits.

    Returns (outcome bit string in qubit-list order, collapsed full register).
    """
    qubits = _validate_qubit_list(s, qubits)
    probs = _marginal_probs(s, qubits)
    k = int(rng.choice(len(probs), p=probs / probs.sum()))
    bits = format(k, f"0{len(qubits)}b")
    return bits, _collapse(s, qubits, bits, float(probs[k]))


def enumerate_branches(
    s: StateVector, qubits: list[int] | tuple[int, ...]
) -> list[BranchOutcome]:
    """All measurement branches with nonzero probability, in lexicographic
    outcome order. Probabilities sum to 1."""
    qubits = _validate_qubit_list(s, qubits)
    probs = _marginal_probs(s, qubits)
    out = []
    for k, p in enumerate(probs):
        if p <= 0.0:
            continue
        bits = format(k, f"0{len(qubits)}b")
        out.append(BranchOutcome(bits, float(p), _collapse(s, qubits, bits, float(p))))
    return out


def collapse_residual(s: StateVector, qubits: list[int] | tuple[int, ...], bits: str) -> StateVector:
    """State of the remaining qubits given that `qubits` are collapsed to
    `bits`. The input must already have (near) zero amplitude outside that
    block; remaining qubits keep ascending-index order."""
    qubits = _validate_qubit_list(s, qubits)
    if len(bits) != len(qubits):
        raise ValueError("one bit per measured qubit required")
    mask = _outcome_mask(s.n_qubits, tuple(qubits), bits)
    off_block = float(np.sum(np.abs(s.amps[~mask]) ** 2))
    if off_block > 1e-9:
        raise ValueError(f"register is not collapsed onto outcome {bits}, leakage {off_block:.3e}")
    keep = [q for q in range(s.n_qubits) if q not in qubits]
    if not keep:
        raise ValueError("cannot drop every qubit of the register")
    t = s.amps.reshape([2] * s.n_qubits)
    sel: list = [slice(None)] * s.n_qubits
    for q, b in zip(qubits, bits):
        sel[q] = int(b)
    res = t[tuple(sel)].reshape(-1)
    return StateVector._trusted(len(keep), res / np.linalg.norm(res))


# ---------------------------------------------------------------------------
# the per-state protocol path
# ---------------------------------------------------------------------------


def prefix(
    kind: ProtocolKind, source: StateVector, offset: int = 0
) -> tuple[StateVector, dict[str, StateVector]]:
    """SCHEDULES[kind] on source (x) resource pair, one gate call per op,
    up to Alice's measurement; returns that register and the named ones."""
    schedule = SCHEDULES[kind]
    state = tensor(source, bell_pair())
    states = {schedule.initial: state}
    for _party, gate, qubits, name in schedule.ops:
        if gate != "transfer":
            state = _GATES[gate](state, *(q + offset for q in qubits))
        if name is not None:
            states[name] = state
    states.update(dict.fromkeys(schedule.final, state))
    return state, states


def bob_residual(
    state: StateVector, bits: str, gates: tuple[str, ...], offset: int = 0
) -> StateVector:
    """Bob's gates on the full collapsed register, then Alice's qubits cut away."""
    for gate in gates:
        state = _GATES[gate](state, 2 + offset)
    return collapse_residual(state, (offset, 1 + offset), bits)


def run_protocol(kind: ProtocolKind, psi: UnknownQubit, rng: np.random.Generator) -> ProtocolTrace:
    schedule = SCHEDULES[kind]
    target = psi.to_statevector()
    state, _ = prefix(kind, target)
    bits, state = measure_sample(state, [0, 1], rng)
    sent = bits[: schedule.announced]
    gates = schedule.corrections[sent]
    bob = bob_residual(state, bits, gates)
    ledger = CostLedger()
    ledger.add(ALICE, BOB, len(sent), Purpose.TELEPORT)
    steps = [*schedule.steps, Measured(ALICE, (0, 1), bits),
             MessageSent(ALICE, BOB, sent, Purpose.TELEPORT), CorrectionApplied(BOB, 2, gates)]
    return ProtocolTrace(kind, steps, bob, fidelity_pure(bob, target), ledger)


def run_batch(kinds: list[ProtocolKind], n_runs: int, seed: int):
    """The seeded batch one run at a time: run i splits child i of
    SeedSequence(seed) into the input's stream and one per kind."""
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_runs)):
        subs = child.spawn(1 + len(kinds))
        psi = UnknownQubit.haar(np.random.default_rng(subs[0]))
        for k, kind in enumerate(kinds):
            yield i, kind, run_protocol(kind, psi, np.random.default_rng(subs[1 + k]))


def checkpoints(kind: ProtocolKind, psi: UnknownQubit) -> dict[str, StateVector]:
    states = prefix(kind, psi.to_statevector())[1]
    if kind is ProtocolKind.SQTP:
        states = {"epr_pair": bell_pair(), **states}
    return states


def enumerate_protocol(kind: ProtocolKind, psi: UnknownQubit) -> list[ProtocolBranch]:
    target = psi.to_statevector()
    state, _ = prefix(kind, target)
    out = []
    for branch in enumerate_branches(state, (0, 1)):
        bits = branch.outcome_bits
        bob = bob_residual(branch.post_state, bits, correction_for(kind, bits))
        out.append(ProtocolBranch(branch, bob, fidelity_pure(bob, target)))
    return out


def kak_entangled_input_demo(joint: StateVector) -> EntangledInputReport:
    schedule = SCHEDULES[ProtocolKind.KAK]
    state, _ = prefix(ProtocolKind.KAK, joint, offset=1)
    branches = []
    for branch in enumerate_branches(state, (1, 2)):
        bits = branch.outcome_bits
        fids = {}
        for key, gates in schedule.corrections.items():
            bob = bob_residual(branch.post_state, bits, gates, offset=1)
            fids[key] = fidelity_pure(bob, joint)
        prescribed = fids[bits[: schedule.announced]]
        branches.append(EntangledBranch(bits, branch.probability, prescribed, max(fids.values())))
    return EntangledInputReport(joint.dim, tuple(branches))
