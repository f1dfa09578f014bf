"""Protocol-level behavior: traces, schedule locality, corrections, branch
structure, the entangled-input probe and seeded batches."""

import dataclasses
import itertools
import json
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

import oracle_dense
import oracle_exact
import per_state_reference
from per_state_reference import collapse_residual, sample_rows
from telecost import protocol
from telecost.cost import CostLedger, LedgerEntry
from telecost.expansions import ALL_EXPANSIONS
from telecost.kinds import ALICE, BOB, ProtocolKind, Purpose
from telecost.noise import run_noisy_stack, run_noisy_teleport
from telecost.protocol import (
    BATCH_CHUNK,
    MAX_RUNS,
    SCHEDULES,
    _OUTCOMES,
    CorrectionApplied,
    Measured,
    MessageSent,
    Schedule,
    UnknownQubit,
    enumerate_protocol,
    haar_sources,
    kak_checkpoints,
    kak_entangled_input_demo,
    pair_response,
    run_batch,
    run_protocol,
    sqtp_checkpoints,
    verify_stack,
)
from telecost.schedule import GateApplied, QubitTransferred
from telecost.statevector import (
    StateVector,
    basis_state,
    bell_pair,
    fidelity_pure,
    tensor,
)

ATOL = 1e-12


def haar(seed):
    return UnknownQubit.haar(np.random.default_rng(seed))


def test_unknown_qubit_validation():
    with pytest.raises(ValueError):
        UnknownQubit(1.0, 1.0)
    q = UnknownQubit(0.6, 0.8j)
    assert np.allclose(q.to_statevector().amps, [0.6, 0.8j], atol=ATOL)


@pytest.mark.parametrize("alpha,beta", [
    (float("nan"), 0.0),
    (1.0, complex(0.0, float("nan"))),
    (float("inf"), 0.0),
])
def test_unknown_qubit_rejects_non_finite_amplitudes(alpha, beta):
    # a NaN norm fails every comparison, so the check must not be "norm too far off"
    with pytest.raises(ValueError):
        UnknownQubit(alpha, beta)


def test_correction_tables_shape():
    sqtp, kak = SCHEDULES[ProtocolKind.SQTP], SCHEDULES[ProtocolKind.KAK]
    assert len(sqtp.corrections) == 4
    assert len(kak.corrections) == 2
    assert sqtp.corrections["11"] == ("Z", "X")  # Z first, then X
    # Bob's gates for Alice's full outcomes 00, 01, 10, 11: KAK ignores the q1 bit
    kak_by_outcome = dict(zip(("00", "01", "10", "11"), kak.bob_gates, strict=True))
    assert kak_by_outcome["10"] == ("Z",)
    assert kak_by_outcome["01"] == ()


def test_run_sqtp_recovers_input():
    for seed in range(20):
        psi = haar(seed)
        trace = run_protocol(ProtocolKind.SQTP, psi, np.random.default_rng(seed + 1000))
        assert trace.fidelity_achieved > 1 - ATOL
        assert trace.ledger.total(Purpose.TELEPORT) == 2
        assert trace.ledger.total(Purpose.LOCC) == 0


def test_run_kak_recovers_input_with_one_bit():
    for seed in range(20):
        psi = haar(seed)
        trace = run_protocol(ProtocolKind.KAK, psi, np.random.default_rng(seed + 2000))
        assert trace.fidelity_achieved > 1 - ATOL
        assert trace.ledger.total(Purpose.TELEPORT) == 1
        sent = [s for s in trace.steps if isinstance(s, MessageSent)]
        assert len(sent) == 1 and len(sent[0].bits) == 1


def test_degenerate_inputs_pass_through():
    for label, amps in (("0", (1, 0)), ("1", (0, 1))):
        psi = UnknownQubit(complex(amps[0]), complex(amps[1]))
        for kind in ProtocolKind:
            trace = run_protocol(kind, psi, np.random.default_rng(3))
            assert np.isclose(
                fidelity_pure(trace.final_bob_state, basis_state(1, label)), 1.0, atol=ATOL
            )


def assert_message_is_the_ledger(trace):
    # Alice's one announcement is the ledger's teleport total; no LOCC is spent
    [message] = [s for s in trace.steps if isinstance(s, MessageSent)]
    assert (message.src, message.dst, message.purpose) == (ALICE, BOB, Purpose.TELEPORT)
    assert len(message.bits) == trace.ledger.total(Purpose.TELEPORT)
    assert trace.ledger.total(Purpose.LOCC) == 0


def test_sqtp_trace_order():
    trace = run_protocol(ProtocolKind.SQTP, haar(4), np.random.default_rng(4))
    kinds = [type(s) for s in trace.steps]
    # EPR share first, then CNOT, H, measurement, message, correction
    assert kinds == [QubitTransferred, GateApplied, GateApplied, Measured,
                     MessageSent, CorrectionApplied]
    gates = [s.gate for s in trace.steps if isinstance(s, GateApplied)]
    assert gates == ["CNOT", "H"]
    assert_message_is_the_ledger(trace)


def test_kak_trace_order_transfer_between_xors_and_h():
    trace = run_protocol(ProtocolKind.KAK, haar(5), np.random.default_rng(5))
    kinds = [type(s) for s in trace.steps]
    assert kinds == [GateApplied, GateApplied, QubitTransferred, GateApplied,
                     Measured, MessageSent, CorrectionApplied]
    gates = [s.gate for s in trace.steps if isinstance(s, GateApplied)]
    assert gates == ["CNOT", "CNOT", "H"]
    # the qubit that leaves Alice is the chain's last target
    transfer = next(s for s in trace.steps if isinstance(s, QubitTransferred))
    assert (transfer.src, transfer.dst, transfer.qubit) == (ALICE, BOB, 2)
    assert_message_is_the_ledger(trace)


def test_exactly_one_measurement_by_alice():
    for kind in ProtocolKind:
        trace = run_protocol(kind, haar(6), np.random.default_rng(6))
        measured = [s for s in trace.steps if isinstance(s, Measured)]
        assert len(measured) == 1
        assert measured[0].party == ALICE
        assert measured[0].qubits == (0, 1)


def test_no_signaling_correction_after_message():
    for kind in ProtocolKind:
        for seed in range(10):
            trace = run_protocol(kind, haar(seed), np.random.default_rng(seed))
            i_msg = next(i for i, s in enumerate(trace.steps) if isinstance(s, MessageSent))
            i_corr = next(i for i, s in enumerate(trace.steps) if isinstance(s, CorrectionApplied))
            assert i_msg < i_corr


def test_ownership_enforced_by_schedule():
    def schedule(*ops):
        return Schedule("initial", ops, final=("final",), announced=1,
                        corrections=SCHEDULES[ProtocolKind.KAK].corrections)

    with pytest.raises(ValueError):
        schedule((BOB, "H", (0,), None), (ALICE, "transfer", (2,), None))  # Bob doesn't own qubit 0
    with pytest.raises(ValueError):
        schedule((ALICE, "transfer", (2,), None), (ALICE, "CNOT", (1, 2), None))  # qubit 2 is Bob's
    with pytest.raises(ValueError):
        # Alice cannot hand over Bob's qubit
        schedule((ALICE, "transfer", (2,), None), (ALICE, "transfer", (2,), None))
    with pytest.raises(ValueError):
        schedule((ALICE, "CNOT", (0, 1), None))  # Bob never gets qubit 2
    with pytest.raises(ValueError):
        # Alice must keep qubit 1 to measure it
        schedule((ALICE, "transfer", (2,), None), (ALICE, "transfer", (1,), None))
    schedule((ALICE, "CNOT", (0, 1), None), (ALICE, "transfer", (2,), None))  # both Alice's, fine
    for shipped in SCHEDULES.values():
        rebuilt = Schedule(shipped.initial, shipped.ops, shipped.final, shipped.announced,
                           shipped.corrections)
        assert rebuilt.steps == shipped.steps


def test_measured_register_is_classical_for_alice():
    # no-cloning bookkeeping: after measurement Alice's qubits are a basis state
    for kind in ProtocolKind:
        for br in per_state_reference.enumerate_protocol(kind, haar(8)):
            post = br.outcome.post_state
            for i, amp in enumerate(post.amps):
                if abs(amp) > ATOL:
                    assert format(i >> 1, "02b") == br.outcome.outcome_bits


def test_sqtp_branches_recover_exactly():
    psi = haar(9)
    branches = enumerate_protocol(ProtocolKind.SQTP, psi)
    assert len(branches) == 4
    for br in branches:
        assert np.isclose(br.outcome.probability, 0.25, atol=ATOL)
        assert br.fidelity > 1 - ATOL
    # the 11 branch carries the advertised global phase of -1
    b11 = next(b for b in branches if b.outcome.outcome_bits == "11")
    target = psi.to_statevector().amps
    assert np.allclose(b11.bob_state.amps, -target, atol=ATOL)


def test_kak_residuals_form_two_classes_keyed_on_q0():
    psi = haar(10)
    m_states = {}
    for br in per_state_reference.enumerate_protocol(ProtocolKind.KAK, psi):
        bits = br.outcome.outcome_bits
        # residual before correction, read from the reference's collapsed register
        res = br.outcome.post_state
        m_states[bits] = collapse_residual(res, (0, 1), bits).amps
    assert np.allclose(m_states["00"], m_states["01"], atol=ATOL)
    assert np.allclose(m_states["10"], m_states["11"], atol=ATOL)
    # and the two classes differ unless beta vanishes
    assert not np.allclose(m_states["00"], m_states["10"], atol=1e-6)


def test_kak_corrected_branches_identical_within_q0_groups():
    for seed in range(10):
        psi = haar(seed + 100)
        by_bits = {br.outcome.outcome_bits: br for br in enumerate_protocol(ProtocolKind.KAK, psi)}
        assert fidelity_pure(by_bits["00"].bob_state, by_bits["01"].bob_state) > 1 - ATOL
        assert fidelity_pure(by_bits["10"].bob_state, by_bits["11"].bob_state) > 1 - ATOL
        for br in by_bits.values():
            assert br.fidelity > 1 - ATOL


def test_checkpoints_match_displayed_residual_grouping():
    # the branch forms are the same registers as the post-H states
    psi = haar(11)
    sq = sqtp_checkpoints(psi)
    kk = kak_checkpoints(psi)
    assert sq["sqtp_branch_form"].amps.tobytes() == sq["sqtp_after_h"].amps.tobytes()
    assert kk["kak_branch_form"].amps.tobytes() == kk["kak_after_h"].amps.tobytes()
    assert np.allclose(sq["sqtp_initial"].amps, kk["kak_initial"].amps, atol=ATOL)


def test_a_protocol_trace_is_frozen_like_every_other_result_record():
    trace = run_protocol(ProtocolKind.SQTP, haar(14), np.random.default_rng(14))
    for name in ("kind", "steps", "final_bob_state", "fidelity_achieved", "ledger"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trace, name, None)


def test_entangled_demo_matches_dense_oracle():
    rng = np.random.default_rng(99)
    for _ in range(10):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        joint = StateVector(2, amps / np.linalg.norm(amps))
        report = kak_entangled_input_demo(joint)
        expected = oracle_dense.oracle_entangled_branches(joint.amps)
        assert len(report.branches) == len(expected)
        for br, (bits, prob, fid, best) in zip(report.branches, expected):
            assert br.outcome_bits == bits
            assert np.isclose(br.probability, prob, atol=ATOL)
            assert np.isclose(br.fidelity_corrected, fid, atol=ATOL)
            assert np.isclose(br.fidelity_best, best, atol=ATOL)


def test_entangled_demo_product_inputs_perfect():
    rng = np.random.default_rng(55)
    for _ in range(10):
        psi = UnknownQubit.haar(rng)
        joint = tensor(psi.to_statevector(), basis_state(1, "0"))
        report = kak_entangled_input_demo(joint)
        assert report.min_branch_fidelity > 1 - ATOL


def test_entangled_demo_bell_input_frozen_values():
    # frozen from tests/oracle_dense.py before the build: the chained-XOR
    # run returns every branch at fidelity 1.0 even for a Bell input
    report = kak_entangled_input_demo(bell_pair())
    assert len(report.branches) == 4
    for br in report.branches:
        assert np.isclose(br.probability, 0.25, atol=ATOL)
        assert np.isclose(br.fidelity_corrected, 1.0, atol=ATOL)
        assert np.isclose(br.fidelity_best, 1.0, atol=ATOL)


def test_kak_after_xor2_is_the_input_on_q0_q2_times_plus_on_q1_exactly():
    # the algebra behind test_acceptance.py's C5 message: after the two XORs
    # the input sits on q0 and q2 and q1 is |+>, so Alice's reading of q1
    # learns nothing of the input. With
    # test_each_corrected_residual_is_exactly_the_input_times_one_scalar, every
    # branch is one scalar times the identity on q0, and the same linear map
    # leaves a qubit held back beside the input as it is
    register = oracle_exact.run_schedule(SCHEDULES[ProtocolKind.KAK])["kak_after_xor2"]
    pair = {("00", "alpha"): oracle_exact.TOKENS["1"], ("11", "beta"): oracle_exact.TOKENS["1"]}
    plus = dict.fromkeys("01", oracle_exact.TOKENS["1/sqrt2"])
    assert register == {(q0q2[0] + q1 + q0q2[1], var): oracle_exact.mul(c, plus[q1])
                        for (q0q2, var), c in pair.items() for q1 in plus}
    # term for term, no coefficient depends on q1's bit
    for (label, var), c in register.items():
        assert register[label[0] + "10"[int(label[1])] + label[2], var] == c


def test_entangled_demo_rejects_wrong_size():
    with pytest.raises(ValueError):
        kak_entangled_input_demo(basis_state(3, "000"))


def sampled_chunks(kinds, n_runs, seed):
    """run_batch's chunks as (runs, one column per kind) on the runs' Haar
    inputs from stream 0: kind j's verify_stack, and run i's outcome k drawn
    by the Born-row oracle sample_rows from its entry of row j of the
    chunk's draw, one column of its streams. Run i keeps branch row 4i + k,
    as run_protocol keeps branch k of a stack of one, as (k, fidelity, Bob's
    qubit)."""
    chunks = []
    for runs, streams in run_batch(n_runs, seed, len(kinds)):
        sources, columns = per_state_reference.batch_sources(seed, runs), []
        for kind, u in zip(kinds, streams.random()):
            _, probs, bobs, fidelities = verify_stack(kind, sources)
            columns.append([(k, fidelities[4 * i + k], bobs[4 * i + k])
                            for i, k in enumerate(sample_rows(probs, u).tolist())])
        chunks.append((runs, columns))
    return chunks


def per_run(kinds, chunks, column):
    """One column of each chunk's stacks, one stack per kind, as (run, kind,
    entry), run by run and within a run kind by kind."""
    return [(i, kind, getattr(stack, column)[j]) for runs, stacks in chunks
            for j, i in enumerate(runs) for kind, stack in zip(kinds, stacks)]


def sampled_runs(kinds, n_runs, seed):
    """Each run of run_batch's sampled chunks as (run, kind, (outcome bits,
    fidelity, Bob's amplitudes as raw bytes))."""
    return [(i, kind, (format(k, "02b"), fidelity, bob.tobytes()))
            for runs, columns in sampled_chunks(kinds, n_runs, seed)
            for i, row in zip(runs, zip(*columns)) for kind, (k, fidelity, bob) in zip(kinds, row)]


def test_run_batch_run_i_does_not_depend_on_n_runs():
    kinds = [ProtocolKind.SQTP, ProtocolKind.KAK]
    first = sampled_runs(kinds, 12, 5)
    assert len(first) == 24
    assert sampled_runs(kinds, 5, 5) == first[:10]


def _trace_bits(trace):
    """What a run reports, as sampled_runs holds it: its outcome bits,
    fidelity and amplitudes as raw bytes."""
    bits = next(step.bits for step in trace.steps if isinstance(step, Measured))
    return bits, trace.fidelity_achieved, trace.final_bob_state.amps.tobytes()


# run_batch's chunk in the chunk-edge tests below, so that a few runs cross its edges
SMALL_CHUNK = 16


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_run_batch_matches_the_per_state_path_bit_for_bit(seed, monkeypatch):
    # run counts on both sides of a chunk boundary: every chunk continues the seed's streams
    monkeypatch.setattr("telecost.protocol.BATCH_CHUNK", SMALL_CHUNK)
    kinds = [ProtocolKind.SQTP, ProtocolKind.KAK]
    traces = list(per_state_reference.run_batch(kinds, 2 * SMALL_CHUNK + 1, seed))
    # every reference run bills its schedule's one TELEPORT message, which compare reads
    assert all(trace.ledger == CostLedger([SCHEDULES[kind].teleport]) for _, kind, trace in traces)
    want = [(i, kind, _trace_bits(trace)) for i, kind, trace in traces]
    for n_runs in (SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 1):
        assert sampled_runs(kinds, n_runs, seed) == want[: 2 * n_runs]


def test_run_batch_streams_are_the_spawn_chain_of_each_run(monkeypatch):
    # stream s of run i is child s of child i of SeedSequence(seed), across chunks
    monkeypatch.setattr("telecost.protocol.BATCH_CHUNK", SMALL_CHUNK)
    kinds = [ProtocolKind.SQTP, ProtocolKind.KAK]

    def recorded(n_runs, seed):
        psis, draws = [], {kind: [] for kind in kinds}
        for runs, streams in run_batch(n_runs, seed, len(kinds)):
            assert streams.hi.shape == (len(kinds), len(runs)) and len(runs) <= SMALL_CHUNK
            sources = per_state_reference.batch_sources(seed, runs)
            psis.extend(UnknownQubit(*row) for row in sources.tolist())
            for kind, u in zip(kinds, streams.random()):
                draws[kind].extend(u.tolist())
        return psis, draws

    n_runs = 2 * SMALL_CHUNK + 1
    for seed in (0, 12345):
        runs = [child.spawn(1 + len(kinds)) for child in np.random.SeedSequence(seed).spawn(n_runs)]
        want_psis = [UnknownQubit.haar(np.random.default_rng(subs[0])) for subs in runs]
        want_draws = {kind: [np.random.default_rng(subs[1 + k]).random() for subs in runs]
                      for k, kind in enumerate(kinds)}
        assert recorded(n_runs, seed) == (want_psis, want_draws)
        psis, draws = recorded(SMALL_CHUNK + 3, seed)
        assert psis == want_psis[: SMALL_CHUNK + 3]
        assert draws == {kind: want[: SMALL_CHUNK + 3] for kind, want in want_draws.items()}


def test_run_batch_noisy_streams_are_the_spawn_chain_across_a_chunk(monkeypatch):
    # a noisy run draws once per distillation attempt, so every draw of its stream must follow NumPy's
    monkeypatch.setattr("telecost.protocol.BATCH_CHUNK", SMALL_CHUNK)
    kinds = [ProtocolKind.SQTP, ProtocolKind.KAK]
    n_runs, seed = SMALL_CHUNK + 1, 9
    chunks = [(runs, run_noisy_stack(kinds, len(runs), 0.75, streams.random, distill_target=0.9))
              for runs, streams in run_batch(n_runs, seed, len(kinds))]
    got = per_run(kinds, chunks, "attempts")
    want = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_runs)):
        subs = child.spawn(1 + len(kinds))
        want += [(i, kind, run_noisy_teleport(kind, UnknownQubit(1, 0), 0.75,
                                              np.random.default_rng(subs[1 + k]), 0.9, 32).attempts)
                 for k, kind in enumerate(kinds)]
    assert got == want
    assert len({attempts for _, _, attempts in want}) > 1  # the runs retry different numbers of times


def test_a_long_lived_process_keeps_few_jump_tables():
    # verify draws blocks of 2 * min(BATCH_CHUNK, runs) columns, a new k for
    # every --runs value; the tables kept, 32k bytes each, stay within 4 MB
    protocol._jumps.cache_clear()
    maxsize = protocol._jumps.cache_info().maxsize
    for k in range(1, 3 * maxsize):
        assert protocol._jumps(k).shape == (4, k)
    assert protocol._jumps.cache_info().currsize == maxsize
    assert maxsize * protocol._jumps(2 * BATCH_CHUNK).nbytes <= 4 * 2**20


@pytest.mark.parametrize("k", [1, 2, 3, 5, 257, 300, 2048])
def test_jump_tables_are_their_python_int_definition(k):
    # column j - 1 holds A_j = M**j and G_j = sum_{i<j} M**i mod 2**128, M
    # PCG64's multiplier, as hi and lo uint64 limbs
    powers = [pow(protocol._PCG_MULT, i, 2**128) for i in range(k + 1)]
    a, g = powers[1:], [x % 2**128 for x in itertools.accumulate(powers[:-1])]
    want = np.array([[x >> s & 2**64 - 1 for x in v] for v in (g, a) for s in (64, 0)], dtype=np.uint64)
    protocol._jumps.cache_clear()
    table = protocol._jumps(k)
    assert table.dtype == np.uint64 and not table.flags.writeable
    assert table.tobytes() == want.tobytes()


def test_run_batch_rejects_zero_runs():
    with pytest.raises(ValueError):
        list(run_batch(0, 1, 1))


@pytest.mark.parametrize("n_runs, seed", [(MAX_RUNS + 1, 1), (2**64, 1), (1, -1)])
def test_run_batch_rejects_a_run_count_or_seed_it_cannot_key(n_runs, seed):
    # a run index past one uint32 word, or a negative seed, has no NumPy spawn-chain stream;
    # the first chunk refuses it before any stream is drawn
    with pytest.raises(ValueError):
        next(run_batch(n_runs, seed, 1))


def test_schedules_cover_every_expansion_and_noisy_bit_count():
    psi = haar(14)
    named = [*verify_stack(ProtocolKind.SQTP, [psi])[0], *verify_stack(ProtocolKind.KAK, [psi])[0]]
    assert named == list(ALL_EXPANSIONS)
    for kind in ProtocolKind:
        report = run_noisy_teleport(kind, psi, 0.8, np.random.default_rng(14), distill_target=0.9)
        assert report.attempts > 0
        assert report.ledger.total(Purpose.TELEPORT) == SCHEDULES[kind].announced


def test_golden_table_is_the_exact_run_of_each_schedule():
    # term for term, in Q(sqrt2) with no tolerance; epr_pair is the pair on its own
    golden = json.loads(resources.files("telecost").joinpath("data/expansions.json").read_text())
    exact = {"epr_pair": oracle_exact.epr_pair()}
    for kind in ProtocolKind:
        exact.update(oracle_exact.run_schedule(SCHEDULES[kind]))
    assert list(exact) == list(ALL_EXPANSIONS)
    assert {name: oracle_exact.golden_register(entry) for name, entry in golden.items()} == exact


def test_each_corrected_residual_is_exactly_the_input_times_one_scalar():
    for kind in ProtocolKind:
        schedule = SCHEDULES[kind]
        final = oracle_exact.run_schedule(schedule)[schedule.final[0]]
        for bits in _OUTCOMES:
            bob = oracle_exact.bob_residual(final, bits)
            for gate in schedule.corrections[bits[: schedule.announced]]:
                bob = oracle_exact.apply(bob, gate, (0,))
            scalar = bob.get(("0", "alpha"), oracle_exact.ZERO)
            assert bob == {("0", "alpha"): scalar, ("1", "beta"): scalar}, (kind, bits)
            # every branch has probability scalar**2 = 1/4 exactly
            assert oracle_exact.mul(scalar, scalar) == (Fraction(1, 4), 0)


def test_every_outcome_has_born_probability_exactly_one_quarter():
    # Alice's outcome `bits` leaves Bob the amplitudes c_a alpha + c_b beta
    # on each of his basis states, with c_a and c_b in Q(sqrt2), so its
    # probability is A |alpha|^2 + B |beta|^2 + 2 C Re(alpha conj(beta)) for
    # A = sum c_a^2, B = sum c_b^2 and C = sum c_a c_b; it is 1/4 for every
    # unit input exactly when A = B = 1/4 and C = 0, which the package's one
    # outcome rule, floor(4u) in protocol._outcomes, rests on
    def dot(register, x, y):
        total = oracle_exact.ZERO
        for bob in "01":
            total = oracle_exact.add(total, oracle_exact.mul(register.get((bob, x), oracle_exact.ZERO),
                                                             register.get((bob, y), oracle_exact.ZERO)))
        return total

    quarter = (Fraction(1, 4), 0)
    for kind in ProtocolKind:
        schedule = SCHEDULES[kind]
        final = oracle_exact.run_schedule(schedule)[schedule.final[0]]
        for bits in _OUTCOMES:
            bob = oracle_exact.bob_residual(final, bits)
            assert {var for _, var in bob} <= {"alpha", "beta"}, (kind, bits)
            assert (dot(bob, "alpha", "alpha"), dot(bob, "beta", "beta"),
                    dot(bob, "alpha", "beta")) == (quarter, quarter, oracle_exact.ZERO), (kind, bits)


def _derived_corrections(schedule):
    """The oracle for a schedule's table: per outcome, the gates of {I, X, Z,
    ZX}, applied through the engine's kernels, that leave Bob's residual
    proportional to I (None unless exactly one does), and every smallest set
    of Alice's bit positions that determines them."""
    t, _ = protocol._evolve(schedule, np.eye(2, dtype=complex))
    residuals = t.reshape(2, 4, 2)  # [j, k]: Bob's amplitudes for input |j> and outcome k
    table = []
    for k in range(4):
        fits = []
        for gates in [(), ("X",), ("Z",), ("Z", "X")]:
            m = residuals[:, k]
            for gate in gates:
                m = protocol._GATES[gate](m, 1)
            if abs(m[0, 0]) > 0.1 and np.allclose(m, m[0, 0] * np.eye(2), atol=1e-12):
                fits.append(gates)
        table.append(fits[0] if len(fits) == 1 else None)
    subsets = [positions for size in range(3) for positions in itertools.combinations((0, 1), size)]
    keyed = [{(tuple(bits[i] for i in positions), gates) for bits, gates in zip(_OUTCOMES, table)}
             for positions in subsets]
    determining = [positions for positions, pairs in zip(subsets, keyed)
                   if len(pairs) == len({key for key, _ in pairs})]
    return tuple(table), [p for p in determining if len(p) == len(determining[0])]


@pytest.mark.parametrize("kind", list(ProtocolKind))
def test_each_schedules_table_and_announcement_are_the_smallest_its_ops_allow(kind):
    # the residuals, not the written table, decide which Pauli Bob needs per
    # outcome and which of Alice's bits he must hear: both for SQTP, q0's
    # alone for KAK, and q1's alone for neither
    schedule = SCHEDULES[kind]
    table, smallest = _derived_corrections(schedule)
    assert table == schedule.bob_gates
    assert smallest == [tuple(range(schedule.announced))]


def test_schedule_owns_its_teleport_message_and_copy_rule():
    # KAK gates q2 before handing it over, so a noisy channel meets the payload
    assert SCHEDULES[ProtocolKind.KAK].burns_copies
    assert not SCHEDULES[ProtocolKind.SQTP].burns_copies
    psi = haar(15)
    for kind in ProtocolKind:
        schedule = SCHEDULES[kind]
        assert schedule.teleport == (ALICE, BOB, schedule.announced, Purpose.TELEPORT)
        want = LedgerEntry(*schedule.teleport)
        assert run_protocol(kind, psi, np.random.default_rng(15)).ledger.entries == (want,)
        noisy = run_noisy_teleport(kind, psi, 0.8, np.random.default_rng(15), distill_target=0.9)
        assert noisy.attempts > 0 and noisy.ledger.entries[-1] == want
        assert noisy.copies_consumed == (noisy.attempts if schedule.burns_copies else 0)


@pytest.mark.parametrize("ops, burns", [
    # the payload never reaches q2: q1 and q2 are entangled before q0 touches q1
    ([("H", (1,)), ("CNOT", (1, 2)), ("transfer", (2,)), ("CNOT", (0, 1)), ("H", (0,))], False),
    # the payload reaches q1, then q2 through a CNOT whose target is q1
    ([("CNOT", (0, 1)), ("CNOT", (2, 1)), ("transfer", (2,))], True),
    # a 1-qubit gate spreads it nowhere, and it reaches q1 only after q1 has met q2
    ([("H", (0,)), ("CNOT", (2, 1)), ("CNOT", (1, 0)), ("transfer", (2,))], False),
    ([op[1:3] for op in SCHEDULES[ProtocolKind.SQTP].ops], False),
    ([op[1:3] for op in SCHEDULES[ProtocolKind.KAK].ops], True),
])
def test_copies_burn_exactly_when_a_transfer_carries_the_payload(ops, burns):
    schedule = Schedule("start", tuple((ALICE, gate, qubits, None) for gate, qubits in ops),
                        final=(), announced=1, corrections={"0": (), "1": ("Z",)})
    assert schedule.burns_copies is burns


def test_every_stack_of_no_inputs_is_empty():
    for kind in ProtocolKind:
        empty, probs, bobs, fidelities = verify_stack(kind, [])
        assert (probs.shape, bobs.shape, fidelities) == ((0, 4), (0, 2), [])
        assert pair_response(kind, []).shape == (0, 4, 4)
        [noisy] = run_noisy_stack([kind], 0, 0.8, np.random.default_rng(0).random, distill_target=0.9)
        assert noisy.attempts == []
        one = verify_stack(kind, [haar(16)])[0]
        assert {name: rows.shape for name, rows in empty.items()} == {
            name: (0, rows.shape[1]) for name, rows in one.items()}


def test_sample_stack_holds_the_columns_of_its_traces():
    # the same draws twice: run_protocol's trace is branch k of verify_stack,
    # k drawn by the Born-row oracle sample_rows from the rng's one random()
    psis = [haar(seed) for seed in range(40)]
    for kind in ProtocolKind:
        _, probs, bobs, fidelities = verify_stack(kind, psis)
        u = np.array([np.random.default_rng(s).random() for s in range(40)])
        outcomes = sample_rows(probs, u).tolist()
        assert set(outcomes) == {0, 1, 2, 3}
        traces = [run_protocol(kind, psi, np.random.default_rng(s)) for s, psi in enumerate(psis)]
        for i, (k, trace) in enumerate(zip(outcomes, traces)):
            bits = next(step.bits for step in trace.steps if isinstance(step, Measured))
            assert (bits, trace.fidelity_achieved) == (_OUTCOMES[k], fidelities[4 * i + k])
            assert trace.final_bob_state.amps.tobytes() == bobs[4 * i + k].tobytes()
            assert trace.ledger == CostLedger([SCHEDULES[kind].teleport])
        assert len({id(trace.ledger) for trace in traces}) == 40  # no two traces share a ledger
        assert sample_rows(verify_stack(kind, [])[1], np.array([])).tolist() == []


def test_sample_stack_reads_each_runs_drawn_branch(monkeypatch):
    # Bob's gates go, one kernel call per outcome's gate, to every run's qubit
    # for that outcome: each X and Z call on Bob's qubits receives all n
    # rows. run_protocol keeps the drawn branch of a stack of one, whose
    # other outcomes still take their calls; the branch it keeps is
    # verify_stack's by construction
    rows = []
    for gate in ("X", "Z"):
        def recorded(t, *axes, kernel=protocol._GATES[gate]):
            if t.ndim == 2:
                rows.append(len(t))
            return kernel(t, *axes)
        monkeypatch.setitem(protocol._GATES, gate, recorded)
    sources = haar_sources(np.random.default_rng(23).random((257, 2)))
    for kind in ProtocolKind:
        calls = sum(map(len, SCHEDULES[kind].bob_gates))
        for n in (1, 257):
            rows.clear()
            verify_stack(kind, sources[:n])
            assert rows == [n] * calls
        rows.clear()
        run_protocol(kind, haar(23), np.random.default_rng(23))
        assert rows == [1] * calls


# inputs at the edges of the Born rows: a zero amplitude, a subnormal one,
# a tiny imaginary one beside a negative one, and equal real and imaginary ones
EDGE_INPUTS = [UnknownQubit(1.0, 0.0), UnknownQubit(0.0, 1.0), UnknownQubit(2**-0.5, 1j * 2**-0.5),
               UnknownQubit(5e-324, 1.0), UnknownQubit(-1.0, 1e-170j)]
# draws on both sides of every quarter, and outcome floor(4u) of each
QUARTER_DRAWS = [(0.0, 0), (np.nextafter(0.25, 0.0), 0), (0.25, 1), (0.5, 2),
                 (np.nextafter(0.75, 0.0), 2), (0.75, 3), (np.nextafter(1.0, 0.0), 3)]


@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.0])
def test_sample_stack_rejects_a_draw_outside_the_unit_interval(bad):
    # NaN and -0.5 would fall to outcome 0, and 1.0 would index past outcome 3,
    # whether run_protocol's rng gives it or it stands in either entry of a
    # column; every draw in [0, 1) picks floor(4u), whatever the input
    for kind in ProtocolKind:
        for psi in [haar(5), *EDGE_INPUTS]:
            for u, k in QUARTER_DRAWS:
                trace = run_protocol(kind, psi, SimpleNamespace(random=lambda u=u: u))
                assert next(step.bits for step in trace.steps if isinstance(step, Measured)) == _OUTCOMES[k]
            with pytest.raises(ValueError, match=r"draws must be in \[0, 1\)"):
                run_protocol(kind, psi, SimpleNamespace(random=lambda: bad))
    for u in ([bad, 0.5], [0.5, bad]):
        with pytest.raises(ValueError, match=r"draws must be in \[0, 1\)"):
            protocol._outcomes(np.array(u))


@pytest.mark.parametrize("u", [[np.nan, 0.5], [0.5, np.nan]])
def test_haar_sources_rejects_a_row_off_the_unit_sphere(u):
    with pytest.raises(ValueError, match="must be 1"):
        haar_sources(np.array([[0.25, 0.5], u]))


@pytest.mark.parametrize("rows", [[[1.0, 1.0]], [[np.nan, 0.0]], [[1.0, 0.0, 0.0]], [1.0, 0.0]])
def test_stack_functions_check_the_input_rows_they_are_given(rows):
    # rows stand for UnknownQubits, so they meet UnknownQubit's checks
    rows = np.array(rows, dtype=complex)
    for kind in ProtocolKind:
        for call in (lambda: verify_stack(kind, rows), lambda: pair_response(kind, rows)):
            with pytest.raises(ValueError, match="input row"):
                call()
