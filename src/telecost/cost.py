"""Classical-communication bookkeeping and the recurrence's exact cost.

Every ledger is built from its classical messages, each a (sender,
receiver, bits, purpose) entry, and keeps only them: a total sums the
matching entries on each call. The ideal protocol costs are fixed by the
protocol family: teleporting a state of dimension N takes 2*log2(N) bits
the standard way and log2(N) bits (one per qubit) the chained-XOR way. A
noisy run's distillation adds one LOCC-tagged `LOCC_ROUND` per try.

One distillation step takes two Werner pairs, applies a bilateral CNOT,
measures the target pair on both sides, keeps the source pair when the
outcomes, announced 1 bit each way (`LOCC_ROUND`, the one record every LOCC
bill reads), agree and re-twirls the kept pair to Werner form. It is
computed from its exact closed form (`distill_step_map`); the 4-qubit
density evolution is the test oracle. For F > 1/2 the step strictly
improves fidelity; at F = 1/4 it is a fixed point. Sampled runs
(`noise`) and `sweep_rows` climb the same exact ladder of steps
(`_ladder`).

All of it is float arithmetic over the schedules' data, with no NumPy,
so `sweep` runs without loading the engine; its records are validated
namedtuples, as in `schedule`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .kinds import ALICE, BOB, ProtocolKind, Purpose
from .schedule import SCHEDULES


class LedgerEntry(namedtuple("LedgerEntry", "sender receiver bits purpose")):
    __slots__ = ()

    def __new__(cls, sender: str, receiver: str, bits: int, purpose: Purpose) -> LedgerEntry:
        if not isinstance(bits, int) or bits < 1:
            raise ValueError(f"bits must be a positive integer, got {bits!r}")
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        return super().__new__(cls, sender, receiver, bits, purpose)


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


class CostModel(namedtuple("CostModel", "dimension kind")):
    """Ideal cost model for teleporting one N-dimensional state."""

    __slots__ = ()

    def __new__(cls, dimension: int, kind: ProtocolKind) -> CostModel:
        n = dimension
        if not isinstance(n, int) or n < 2 or n & (n - 1):
            raise ValueError(f"dimension must be a power of two >= 2, got {n!r}")
        return super().__new__(cls, dimension, kind)


def ideal_bits(model: CostModel) -> int:
    """Classical bits an ideal run of the protocol family transmits."""
    return SCHEDULES[model.kind].announced * (model.dimension.bit_length() - 1)


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
LOCC_ROUND_BITS = sum(bits for _, _, bits, _ in LOCC_ROUND)
# the default level caps: a noisy run's (compare's) and sweep's
_NOISY_MAX_ROUNDS, _SWEEP_MAX_ROUNDS = 32, 64


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


SWEEP_COLUMNS = ["F_in", "success_prob", "F_out", "rounds_to_target", "locc_bits",
                 "total_bits_sqtp", "total_bits_kak"]


def sweep_rows(f_grid: list[float], distill_target: float, max_rounds: int = _SWEEP_MAX_ROUNDS) -> list[dict]:
    """Deterministic no-failure expectation per grid point: one-step
    success probability and output fidelity, the ladder's length to the
    target, and per-qubit totals for both protocol families; a ladder that
    stops short of the target reads -1 in each of its last four columns."""
    sqtp_bits, kak_bits = SCHEDULES[ProtocolKind.SQTP].announced, SCHEDULES[ProtocolKind.KAK].announced
    rows = []
    for f in f_grid:
        levels, stop = _ladder(f, distill_target, max_rounds)
        p_succ, f_out = levels[0] if levels else distill_step_map(f)
        locc = LOCC_ROUND_BITS * len(levels)
        costs = [len(levels), locc, sqtp_bits + locc, kak_bits + locc]
        if stop != "target":
            costs = [-1] * 4
        row = [round(f, 12), round(p_succ, 12), round(f_out, 12), *costs]
        rows.append(dict(zip(SWEEP_COLUMNS, row)))
    return rows
