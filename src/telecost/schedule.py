"""One schedule table per protocol, its trace events and the batch bounds.

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

Building a `Schedule` walks its ops once, and every fact about them
besides the gates comes from that walk: locality (a party gates or hands
over only qubits it holds, and Alice ends holding q0 and q1 and Bob q2),
the checkpoint names that `expansions` reads, and whether a transfer
hands over a qubit the payload reached, so that a noisy run burns copies.

This module is plain data and needs no NumPy: `sweep` and the CLI's
argument checks read it without loading the engine (`protocol`), which
interprets it. Its records are namedtuples, not dataclasses, whose import
loads `inspect` and whose classes each exec their methods, so importing
it costs little.
"""

from __future__ import annotations

from collections import namedtuple

from .kinds import ALICE, BOB, ProtocolKind, Purpose

# Alice's two measured bits; outcome k reads as the binary number k
_OUTCOMES = ("00", "01", "10", "11")
# the checkpoint of the resource pair on its own, which SQTP's checkpoints add
_EPR_PAIR = "epr_pair"

# runs per stack: bounds the inputs, streams and results held at once
BATCH_CHUNK = 256
MAX_RUNS = 2**32 - 1  # a run index is one uint32 word of its streams' spawn key

# ---------------------------------------------------------------------------
# trace events
# ---------------------------------------------------------------------------

# Tuples compare by value, but two kinds of event never compare equal: in
# every pair of kinds of one length some position holds a str in one and a
# tuple or int in the other (qubits are tuples, a single qubit an int).
GateApplied = namedtuple("GateApplied", "party gate qubits")
QubitTransferred = namedtuple("QubitTransferred", "src dst qubit")
Measured = namedtuple("Measured", "party qubits bits")
MessageSent = namedtuple("MessageSent", "src dst bits purpose")
CorrectionApplied = namedtuple("CorrectionApplied", "party qubit gates")

TraceStep = GateApplied | QubitTransferred | Measured | MessageSent | CorrectionApplied


class Schedule(namedtuple("Schedule", "initial ops final announced corrections "
                                      "steps checkpoints bob_gates teleport burns_copies")):
    """One protocol as data. The ops run in order up to Alice's measurement
    of q0 and q1; a "transfer" op hands its qubit from its party to Bob. The
    first `announced` measured bits go to Bob, who applies the matching
    `corrections` row to q2; gate tuples apply left to right.

    Building one takes those five fields and walks the ops once, checking
    that they are local from Alice holding all three qubits, and records
    the ops as trace steps in `steps`, the register names (initial, named
    ops, final) in `checkpoints`, Bob's gates for each of Alice's four
    outcomes (in _OUTCOMES order) in `bob_gates`, the announcement as one
    ledger message in `teleport`, and in `burns_copies` whether a transfer
    hands over a qubit the payload has reached, from q0 through every gate
    on a reached qubit, so that a noisy channel meets the payload. Copies,
    pickles and the repr carry the five inputs only."""

    __slots__ = ()

    def __new__(cls, initial: str, ops: tuple[tuple[str, str, tuple[int, ...], str | None], ...],
                final: tuple[str, ...], announced: int,
                corrections: dict[str, tuple[str, ...]]) -> Schedule:
        owners = {0: ALICE, 1: ALICE, 2: ALICE}
        steps, names, reached, burns_copies = [], [initial], {0}, False
        for party, gate, qubits, name in ops:
            for q in qubits:
                if owners.get(q) != party:
                    raise ValueError(f"{party} cannot {gate} qubit {q}, owned by {owners.get(q)!r}")
            if gate == "transfer":
                owners[qubits[0]] = BOB
                burns_copies |= qubits[0] in reached
                steps.append(QubitTransferred(party, BOB, qubits[0]))
            else:
                reached.update(qubits if reached.intersection(qubits) else ())
                steps.append(GateApplied(party, gate, qubits))
            if name is not None:
                names.append(name)
        if owners != {0: ALICE, 1: ALICE, 2: BOB}:
            raise ValueError(f"Alice must end holding q0 and q1 and Bob q2, got {owners}")
        return super().__new__(cls, initial, ops, final, announced, corrections, tuple(steps),
                               (*names, *final),
                               tuple(corrections[bits[:announced]] for bits in _OUTCOMES),
                               (ALICE, BOB, announced, Purpose.TELEPORT), burns_copies)

    def __getnewargs__(self) -> tuple:
        return self[:5]

    def __repr__(self) -> str:
        return f"Schedule({', '.join(f'{k}={v!r}' for k, v in zip(self._fields, self[:5]))})"


SCHEDULES: dict[ProtocolKind, Schedule] = {
    ProtocolKind.SQTP: Schedule(
        "sqtp_initial",
        ((ALICE, "transfer", (2,), None),  # the pre-shared half of the resource pair
         (ALICE, "CNOT", (0, 1), "sqtp_after_cnot"),
         (ALICE, "H", (0,), "sqtp_after_h")),
        final=("sqtp_branch_form",), announced=2,  # 11: first Z, then X
        corrections={"00": (), "01": ("X",), "10": ("Z",), "11": ("Z", "X")},
    ),
    ProtocolKind.KAK: Schedule(
        "kak_initial",
        ((ALICE, "CNOT", (0, 1), "kak_after_xor1"),
         (ALICE, "CNOT", (1, 2), "kak_after_xor2"),
         (ALICE, "transfer", (2,), None),
         (ALICE, "H", (0,), "kak_after_h")),
        final=("kak_branch_form", "kak_two_class_form"), announced=1,
        corrections={"0": (), "1": ("Z",)},
    ),
}
