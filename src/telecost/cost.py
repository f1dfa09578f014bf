"""Classical-communication bookkeeping.

Every ledger is built from its classical messages, each a (sender,
receiver, bits, purpose) entry, and keeps only them: a total sums the
matching entries on each call. The ideal protocol costs are fixed by the
protocol family: teleporting a state of dimension N takes 2*log2(N) bits
the standard way and log2(N) bits (one per qubit) the chained-XOR way. A
noisy run's distillation adds one LOCC-tagged `noise.LOCC_ROUND` per try.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .kinds import ProtocolKind, Purpose


@dataclass(frozen=True)
class LedgerEntry:
    sender: str
    receiver: str
    bits: int
    purpose: Purpose

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or self.bits < 1:
            raise ValueError(f"bits must be a positive integer, got {self.bits!r}")
        if self.sender == self.receiver:
            raise ValueError("sender and receiver must differ")


class CostLedger:
    """Append-only list of classical messages, in order."""

    def __init__(self, messages: Iterable[tuple[str, str, int, Purpose]] = ()) -> None:
        self._entries: list[LedgerEntry] = []
        for message in messages:
            self.add(*message)

    def add(self, sender: str, receiver: str, bits: int, purpose: Purpose) -> LedgerEntry:
        entry = LedgerEntry(sender, receiver, bits, purpose)
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def total(self, purpose: Purpose | None = None) -> int:
        """Bits over the entries of `purpose`, or over all entries."""
        return sum(e.bits for e in self._entries if purpose is None or e.purpose == purpose)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostLedger):
            return NotImplemented
        return self._entries == other._entries

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class CostModel:
    """Ideal cost model for teleporting one N-dimensional state."""

    dimension: int
    kind: ProtocolKind

    def __post_init__(self) -> None:
        n = self.dimension
        if not isinstance(n, int) or n < 2 or n & (n - 1):
            raise ValueError(f"dimension must be a power of two >= 2, got {n!r}")


def ideal_bits(model: CostModel) -> int:
    """Classical bits an ideal run of the protocol family transmits."""
    n_qubits = model.dimension.bit_length() - 1
    return n_qubits if model.kind is ProtocolKind.KAK else 2 * n_qubits


def ledger_rows(run_id: str | int, ledger: CostLedger) -> list[dict]:
    """Flat export rows, one per message."""
    return [
        {
            "run_id": run_id,
            "from": e.sender,
            "to": e.receiver,
            "bits": e.bits,
            "purpose": e.purpose.value,
        }
        for e in ledger.entries
    ]
