"""Ledger arithmetic and the ideal cost table."""

import numpy as np
import pytest

from telecost.cost import (
    CostLedger,
    CostModel,
    LedgerEntry,
    ideal_bits,
)
from telecost.kinds import ALICE, BOB, ProtocolKind, Purpose
from telecost.noise import run_noisy_teleport
from telecost.protocol import UnknownQubit


@pytest.mark.parametrize(
    "dim,kind,expected",
    [
        (2, ProtocolKind.SQTP, 2),
        (2, ProtocolKind.KAK, 1),
        (4, ProtocolKind.SQTP, 4),
        (4, ProtocolKind.KAK, 2),
        (8, ProtocolKind.SQTP, 6),
        (8, ProtocolKind.KAK, 3),
        (1024, ProtocolKind.KAK, 10),
    ],
)
def test_ideal_bits_table(dim, kind, expected):
    assert ideal_bits(CostModel(dim, kind)) == expected


@pytest.mark.parametrize("dim", [0, 1, 3, 6, 12, -4])
def test_cost_model_rejects_non_power_of_two(dim):
    with pytest.raises(ValueError):
        CostModel(dim, ProtocolKind.SQTP)


def test_ledger_entry_validation():
    with pytest.raises(ValueError):
        LedgerEntry(ALICE, BOB, 0, Purpose.TELEPORT)
    with pytest.raises(ValueError):
        LedgerEntry(ALICE, ALICE, 1, Purpose.TELEPORT)
    with pytest.raises(ValueError):
        LedgerEntry(ALICE, BOB, 1.5, Purpose.TELEPORT)


def test_ledger_totals_by_purpose():
    ledger = CostLedger()
    ledger.add(ALICE, BOB, 2, Purpose.TELEPORT)
    ledger.add(ALICE, BOB, 1, Purpose.LOCC)
    ledger.add(BOB, ALICE, 1, Purpose.LOCC)
    assert len(ledger) == 3
    assert ledger.total() == 4
    assert ledger.total(Purpose.TELEPORT) == 2
    assert ledger.total(Purpose.LOCC) == 2


def test_ledger_equality():
    a, b = CostLedger(), CostLedger()
    a.add(ALICE, BOB, 1, Purpose.TELEPORT)
    assert a != b
    b.add(ALICE, BOB, 1, Purpose.TELEPORT)
    assert a == b
    assert a != "not a ledger"


def test_ledger_from_messages_equals_one_built_by_add():
    messages = [(ALICE, BOB, 1, Purpose.LOCC), (BOB, ALICE, 1, Purpose.LOCC),
                (ALICE, BOB, 2, Purpose.TELEPORT)]
    by_add = CostLedger()
    for message in messages:
        by_add.add(*message)
    assert CostLedger(messages) == by_add
    assert CostLedger(iter(messages)).entries == by_add.entries
    assert CostLedger([]) == CostLedger()


@pytest.mark.parametrize("message, error", [
    ((ALICE, BOB, 0, Purpose.LOCC), "bits must be a positive integer, got 0"),
    ((BOB, BOB, 1, Purpose.TELEPORT), "sender and receiver must differ"),
])
def test_ledger_from_messages_rejects_a_bad_message(message, error):
    with pytest.raises(ValueError, match=error):
        CostLedger([(ALICE, BOB, 1, Purpose.LOCC), message])


def test_ledger_from_messages_adds_each_once(monkeypatch):
    # the benchmark counts ledger entries as CostLedger.add calls
    calls = []
    add = CostLedger.add
    monkeypatch.setattr(CostLedger, "add", lambda self, *m: calls.append(m) or add(self, *m))
    messages = [(ALICE, BOB, 1, Purpose.LOCC), (BOB, ALICE, 1, Purpose.LOCC)] * 3
    ledger = CostLedger(messages)
    assert calls == messages
    assert len(ledger) == 6


def test_noisy_run_cost_coupling():
    # distillation costs two bits per attempt on top of the one-bit send
    psi = UnknownQubit.haar(np.random.default_rng(17))
    for seed in range(40):
        report = run_noisy_teleport(
            ProtocolKind.KAK, psi, 0.75, np.random.default_rng(seed), distill_target=0.9
        )
        assert report.attempts >= report.rounds >= 1
        assert report.ledger.total(Purpose.LOCC) == 2 * report.attempts
        assert report.ledger.total(Purpose.TELEPORT) == 1
        assert report.ledger.total() == 1 + 2 * report.attempts
        assert report.copies_consumed == report.attempts


def test_standard_scheduling_burns_no_copies():
    psi = UnknownQubit.haar(np.random.default_rng(18))
    report = run_noisy_teleport(
        ProtocolKind.SQTP, psi, 0.75, np.random.default_rng(3), distill_target=0.9
    )
    assert report.copies_consumed == 0
    assert report.ledger.total(Purpose.TELEPORT) == 2
