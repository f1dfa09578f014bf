"""Property tests: the closed-form recurrence, the teleport fidelity
through Werner and arbitrary full-rank channels, and branch recovery, each
against an independent reference; the sampled distillation run and the
sweep against the two recurrence walks they replaced, and their two LOCC
bills against each other; the stacked interpreter and run_protocol's
traces against the per-state path it replaced, bit for bit, and every
stack against its stacks of one; the stacked pair responses and the
engine's noisy fidelities against the retired per-input formulas and
all-outcomes correction, bit for bit; the engine as the oracle of
compare's closed forms: the Born-row oracle sample_rows on verify_stack's
rows picks the package's one outcome rule, floor(4u), and every branch's
fidelity rounds to 1, every
kind's Werner fidelity is (2F+1)/3, which a noisy stack gives correctly
rounded, and compare's JSON report is the engine's;
the locality of every sampled run's trace; SQTP and KAK as one channel
on any resource pair; the seeded batch's vector streams, 64 columns
deep, against NumPy's SeedSequence and PCG64, and the Haar draw, one at
a time and stacked, against the rng.uniform formula it replaced, bit for
bit; the noisy stack's attempt columns against the per-attempt walk; the
states that
kernels build unchecked, which must still pass the public constructor's
checks; the stacked normalisation and fidelity of Bob's qubits against
the per-vector arithmetic, bit for bit; the ledger's totals against
its entries; and compare's JSON report, rendered from columns,
against the dict rows and json.dumps it replaced, byte for byte."""

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle_dense
import per_state_reference
from per_state_reference import _residuals, sample_rows
from telecost.cli import RunConfig, _compare_json, build_parser, main
from telecost.cost import (
    LOCC_ROUND,
    LOCC_ROUND_BITS,
    CostLedger,
    CostModel,
    distill_step_map,
    ideal_bits,
    sweep_rows,
)
from telecost.kinds import ALICE, BOB, ProtocolKind, Purpose
from telecost.noise import (
    DensityMatrix,
    _channel_fidelities,
    run_noisy_stack,
    run_noisy_teleport,
    teleport_fidelity_noisy,
    werner_state,
)
from telecost.protocol import (
    BATCH_CHUNK,
    SCHEDULES,
    CorrectionApplied,
    Measured,
    MessageSent,
    UnknownQubit,
    enumerate_protocol,
    kak_checkpoints,
    kak_entangled_input_demo,
    pair_response,
    run_batch,
    run_protocol,
    _INIT_A,
    _INIT_B,
    _MULT_A,
    _MULT_B,
    _OUTCOMES,
    _bob_rows,
    _evolve,
    _hash_constants,
    _outcomes,
    _streams,
    haar_sources,
    sqtp_checkpoints,
    verify_stack,
)
from telecost.schedule import GateApplied, QubitTransferred
from telecost.statevector import BranchOutcome, StateVector, fidelity_pure

TOL = 1e-12
PROPERTY = settings(deadline=None, derandomize=True, max_examples=200)

unit_f = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(unit_f)
def test_distill_map_equals_dense_oracle(f):
    p, f_out = distill_step_map(f)
    p_ref, f_ref = oracle_dense.oracle_distill_map(f)
    assert abs(p - p_ref) < TOL
    assert abs(f_out - f_ref) < TOL


def walked_distill_run(f_in, f_target, max_rounds, rng):
    """The per-attempt loop the ladder replaced, as (rounds, attempts,
    f_final)."""
    f, f_prev = f_in, None
    rounds = attempts = 0
    while f < f_target and rounds < max_rounds and f != f_prev:
        p_succ, f_out = distill_step_map(f)
        attempts += 1
        if rng.random() < p_succ:
            f, f_prev = f_out, f
            rounds += 1
    return rounds, attempts, f


def walked_rounds_to_target(f_in, f_target, max_rounds):
    """The deterministic walk the ladder replaced: levels to the target,
    or -1 when the cap or a stalled iterate stops it short."""
    if f_in >= f_target:
        return 0
    if f_in <= 0.5:
        return -1
    f, f_prev, rounds = f_in, None, 0
    while f < f_target and rounds < max_rounds and f != f_prev:
        f, f_prev = distill_step_map(f)[1], f
        rounds += 1
    return rounds if f >= f_target else -1


above_half = st.floats(min_value=0.5, max_value=1.0, exclude_min=True)
targets = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
caps = st.integers(min_value=1, max_value=1024)


@PROPERTY
@given(above_half, targets, caps, seeds)
@example(0.75, 1.0, 1024, 0)  # the float iterate stalls below 1 long before the cap
@example(0.75, 0.9, 3, 0)  # the cap stops the ladder short of the target
def test_distill_run_matches_the_per_attempt_walk(f_in, f_target, max_rounds, seed):
    run = run_noisy_teleport(ProtocolKind.KAK, UnknownQubit(1, 0), f_in,
                             np.random.default_rng(seed), f_target, max_rounds)
    want = walked_distill_run(f_in, f_target, max_rounds, np.random.default_rng(seed))
    assert (run.rounds, run.attempts, run.f_final) == want
    assert run.target_met == (run.f_final >= f_target)


@PROPERTY
@given(st.lists(unit_f, min_size=1, max_size=8), targets, caps)
@example([0.0, 0.5, 0.75, 0.95], 1.0, 1024)
def test_sweep_rows_match_the_deterministic_walk(grid, f_target, max_rounds):
    for f, row in zip(grid, sweep_rows(grid, f_target, max_rounds), strict=True):
        rounds = walked_rounds_to_target(f, f_target, max_rounds)
        locc = 2 * rounds if rounds >= 0 else -1
        assert (row["rounds_to_target"], row["locc_bits"]) == (rounds, locc)
        # the standard protocol announces 2 bits and the chained-XOR one 1
        assert row["total_bits_sqtp"] == (2 + locc if locc >= 0 else -1)
        assert row["total_bits_kak"] == (1 + locc if locc >= 0 else -1)


class AlwaysSucceeds:
    """An rng stub under which every distillation attempt succeeds."""

    def random(self, k):
        return np.zeros(k)


@PROPERTY
@given(above_half, targets, caps, seeds)
@example(0.55, 0.95, 64, 0)  # sweep's first default row: 16 levels
@example(0.95, 0.9, 1, 0)  # already at the target: no LOCC round at all
def test_noisy_ledger_without_failures_bills_what_sweep_bills(f_in, f_target, max_rounds, seed):
    row = sweep_rows([f_in], f_target, max_rounds)[0]
    assume(row["rounds_to_target"] >= 0)
    psis = [UnknownQubit.haar(np.random.default_rng(seed + i)) for i in range(2)]
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        teleport = (ALICE, BOB, SCHEDULES[kind].announced, Purpose.TELEPORT)
        # the stack: a column of zeros makes every attempt succeed
        [stack] = run_noisy_stack([kind], 2, f_in, lambda k: np.zeros((k, 2)), f_target, max_rounds)
        assert stack.attempts == [stack.rounds] * 2 == [row["rounds_to_target"]] * 2
        # the stack bills no TELEPORT copy of its own: each run sends its schedule's message
        assert SCHEDULES[kind].teleport == teleport
        for attempts in stack.attempts:
            assert LOCC_ROUND_BITS * attempts == row["locc_bits"]
            assert teleport[2] + LOCC_ROUND_BITS * attempts == row[f"total_bits_{kind.value}"]
        # a run of its own bills each attempt's LOCC_ROUND in its ledger
        report = run_noisy_teleport(kind, psis[0], f_in, AlwaysSucceeds(), f_target, max_rounds)
        assert report.attempts == report.rounds == row["rounds_to_target"]
        entries = [(e.sender, e.receiver, e.bits, e.purpose) for e in report.ledger.entries]
        assert entries == [*LOCC_ROUND * report.attempts, teleport]
        assert report.ledger.total(Purpose.LOCC) == row["locc_bits"]
        assert report.ledger.total() == row[f"total_bits_{kind.value}"]


@PROPERTY
@given(unit_f, seeds)
def test_werner_teleport_fidelity_is_two_f_plus_one_over_three(f, seed):
    psi = UnknownQubit.haar(np.random.default_rng(seed))
    channel = werner_state(f)
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        assert abs(teleport_fidelity_noisy(kind, psi, channel) - (2 * f + 1) / 3) < TOL


@PROPERTY
@given(seeds)
def test_teleport_fidelity_through_any_channel_equals_dense_oracle(seed):
    # a random full-rank 2-qubit channel AA^dagger/tr, far from Werner form
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho = rho / np.real(np.trace(rho))
    psi = UnknownQubit.haar(rng)
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        want = oracle_dense.oracle_teleport_fidelity(kind.value, psi.alpha, psi.beta, rho)
        assert abs(teleport_fidelity_noisy(kind, psi, DensityMatrix(rho)) - want) < TOL


@PROPERTY
@given(seeds)
def test_sqtp_and_kak_are_the_same_channel_up_to_the_sign_of_outcome_11(seed):
    # SQTP corrects outcome 11 with Z then X, a global -1 that KAK's one-bit Z
    # leaves out; the fidelity's quadratic form does not see the sign of a row,
    # so no channel on the resource pair tells any two protocols apart.
    # run_noisy_stack rests on this: one kind's fidelity column is every kind's
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    channel = DensityMatrix(rho / np.real(np.trace(rho)))
    psi = UnknownQubit.haar(rng)
    responses = {kind: pair_response(kind, [psi])[0] for kind in ProtocolKind}
    sqtp = responses[ProtocolKind.SQTP]
    assert np.array_equal(responses[ProtocolKind.KAK], sqtp * np.array([[1], [1], [1], [-1]]))
    for kind, response in responses.items():
        assert all(np.array_equal(row, ref) or np.array_equal(row, -ref)
                   for row, ref in zip(response, sqtp, strict=True))
        assert (teleport_fidelity_noisy(kind, psi, channel)
                == teleport_fidelity_noisy(ProtocolKind.SQTP, psi, channel))


# Haar-uniform input from its two angles: cos(theta) uniform on [-1, 1],
# phase uniform on [0, 2pi)
haar_angles = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
)


def qubit_from_angles(angles) -> UnknownQubit:
    cos_theta, phi = angles
    theta = np.arccos(cos_theta)
    return UnknownQubit(complex(np.cos(theta / 2)), complex(np.exp(1j * phi) * np.sin(theta / 2)))


@PROPERTY
@given(haar_angles, seeds)
def test_every_corrected_branch_recovers_the_input(angles, seed):
    psi = qubit_from_angles(angles)
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        for branch in enumerate_protocol(kind, psi):
            assert branch.fidelity >= 1 - TOL
        trace = run_protocol(kind, psi, np.random.default_rng(seed))
        announced = SCHEDULES[kind].announced
        assert trace.ledger.total(Purpose.TELEPORT) == announced == ideal_bits(CostModel(2, kind))


@PROPERTY
@given(haar_angles)
def test_stacks_of_one_match_the_per_state_path_bit_for_bit(angles):
    psi = qubit_from_angles(angles)
    for kind, checkpoints in ((ProtocolKind.SQTP, sqtp_checkpoints),
                              (ProtocolKind.KAK, kak_checkpoints)):
        want, got = per_state_reference.checkpoints(kind, psi), checkpoints(psi)
        assert list(got) == list(want)
        for name, state in want.items():
            assert got[name].amps.tobytes() == state.amps.tobytes()
        for a, b in zip(per_state_reference.enumerate_protocol(kind, psi),
                        enumerate_protocol(kind, psi), strict=True):
            assert (b.outcome.outcome_bits, b.outcome.probability, b.fidelity) == (
                a.outcome.outcome_bits, a.outcome.probability, a.fidelity)
            assert b.bob_state.amps.tobytes() == a.bob_state.amps.tobytes()


@PROPERTY
@given(haar_angles, seeds)
def test_run_protocol_matches_the_per_state_path_bit_for_bit(angles, seed):
    # a sampled stack of one, trace for trace: the steps, the fidelity, Bob's amplitudes and the ledger
    psi = qubit_from_angles(angles)
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        want = per_state_reference.run_protocol(kind, psi, np.random.default_rng(seed))
        got = run_protocol(kind, psi, np.random.default_rng(seed))
        assert (got.kind, got.steps, got.fidelity_achieved, got.ledger) == (
            want.kind, want.steps, want.fidelity_achieved, want.ledger)
        assert got.final_bob_state.amps.tobytes() == want.final_bob_state.amps.tobytes()


# stack sizes: one, a pair, and a large stack
stack_sizes = st.sampled_from([1, 2, 257])
STACKS = settings(PROPERTY, max_examples=30)


@STACKS
@given(stack_sizes, seeds)
def test_stacks_match_their_stacks_of_one_bit_for_bit(size, seed):
    rng = np.random.default_rng(seed)
    psis = [UnknownQubit.haar(rng) for _ in range(size)]
    for kind, checkpoints in ((ProtocolKind.SQTP, sqtp_checkpoints),
                              (ProtocolKind.KAK, kak_checkpoints)):
        # branch k of input i is row i, k of probs and row 4i + k of bobs and fidelities
        stacked, probs, bobs, fidelities = verify_stack(kind, psis)
        assert (probs.shape, bobs.shape, len(fidelities)) == ((size, 4), (4 * size, 2), 4 * size)
        assert not bobs.flags.writeable
        for i, psi in enumerate(psis):
            single = checkpoints(psi)
            assert list(stacked) == list(single)
            for name, state in single.items():
                assert stacked[name][i].tobytes() == state.amps.tobytes()
            for k, (bits, a) in enumerate(zip(("00", "01", "10", "11"),
                                              enumerate_protocol(kind, psi), strict=True)):
                assert a.outcome == BranchOutcome(bits, probs[i, k])
                assert a.fidelity == fidelities[4 * i + k]
                assert a.bob_state.amps.tobytes() == bobs[4 * i + k].tobytes()


@STACKS
@given(stack_sizes, seeds, st.floats(min_value=0.51, max_value=1.0),
       st.one_of(st.none(), st.floats(min_value=0.5, max_value=1.0)),
       st.integers(min_value=1, max_value=64))
@example(2, 0, 0.75, 1.0, 1024)  # the float recurrence stalls below the target
@example(257, 0, 0.75, 0.9, 32)  # runs clear the top level at different steps
def test_noisy_stack_matches_its_runs_field_for_field(size, seed, channel_f, target, max_rounds):
    # the stack draws k columns of one random() per run's Generator per step
    psis = [UnknownQubit.haar(np.random.default_rng([seed, i])) for i in range(size)]

    def rng(i):
        return np.random.default_rng([seed, i, 1])

    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        rngs = [rng(i) for i in range(size)]
        [stack] = run_noisy_stack([kind], size, channel_f,
                                  lambda k: np.array([r.random(k) for r in rngs]).reshape(size, k).T,
                                  distill_target=target, max_rounds=max_rounds)
        assert len(stack.attempts) == size
        for i, psi in enumerate(psis):
            report = run_noisy_teleport(kind, psi, channel_f, rng(i),
                                        distill_target=target, max_rounds=max_rounds)
            assert (report.rounds, report.attempts, report.f_final, report.target_met) == (
                stack.rounds, stack.attempts[i], stack.f_final, stack.target_met)
            # the run scores its input through the channel, the stack in closed form
            assert abs(report.fidelity - stack.fidelity) < TOL
            assert report.ledger.entries[-1:] == CostLedger([SCHEDULES[kind].teleport]).entries
            assert report.ledger.total(Purpose.LOCC) == LOCC_ROUND_BITS * stack.attempts[i]
            walked = walked_distill_run(channel_f, channel_f if target is None else target,
                                        max_rounds, rng(i))
            assert (stack.rounds, stack.attempts[i], stack.f_final) == walked


def exact_teleport_fidelity(f):
    """(2F+1)/3 of the float f's exact value, and whether it lies within
    1e-15 of a 12-digit rounding edge, where floats may round either way."""
    exact = (2 * Fraction(f) + 1) / 3
    scaled = exact * 10**12
    return exact, abs(scaled - math.floor(scaled) - Fraction(1, 2)) < Fraction(1, 1000)


@STACKS
@given(stack_sizes, seeds, st.floats(min_value=0.51, max_value=1.0),
       st.one_of(st.none(), st.floats(min_value=0.5, max_value=1.0)))
@example(257, 0, 0.75, 0.9)
@example(1, 0, 1.0, None)  # a perfect channel
@example(1, 0, 0.70000000000075, None)  # on a rounding edge
def test_every_kind_of_a_noisy_stack_is_its_own_channel_response_bit_for_bit(
        size, seed, channel_f, target):
    # run_noisy_stack gives every kind one closed-form fidelity, so each
    # kind's own response through the Werner channel, the engine's, must
    # round to it bit for bit, off a rounding edge, and lie within TOL of it
    # on one; the responses of |0> and |1> hold zeros, one of them signed
    # apart by the kinds
    rng = np.random.default_rng(seed)
    psis = [UnknownQubit(1, 0), UnknownQubit(0, 1), *(UnknownQubit.haar(rng) for _ in range(size))]
    kinds_lists = [[ProtocolKind.SQTP, ProtocolKind.KAK], [ProtocolKind.KAK, ProtocolKind.SQTP],
                   [ProtocolKind.KAK], [ProtocolKind.SQTP], []]
    for kinds in kinds_lists:
        stacks = run_noisy_stack(kinds, len(psis), channel_f, lambda k: rng.random((k, 1, len(psis))),
                                 distill_target=target)
        assert len(stacks) == len(kinds)
        for kind, stack in zip(kinds, stacks):
            exact, on_edge = exact_teleport_fidelity(stack.f_final)
            assert stack.fidelity == float(round(exact, 12))
            for want in _channel_fidelities(pair_response(kind, psis), werner_state(stack.f_final)):
                assert abs(want - stack.fidelity) < TOL
                assert on_edge or round(want, 12).hex() == stack.fidelity.hex()


@PROPERTY
@given(unit_f)
@example(0.70000000000075)  # (2F+1)/3 a hair above a 12-digit edge: the float formula gives 0.8
@example(0.85000000000075)
@example(0.55000000000075)
@example(float(np.nextafter(0.70000000000075, 0.0)))  # a hair below it
@example(5e-324)
def test_a_noisy_stacks_fidelity_is_the_exact_closed_form_correctly_rounded(f):
    # no target, so the channel is f's own: (2f+1)/3 of f's exact value,
    # rounded half-even to 12 digits, the float nearest that decimal
    [stack] = run_noisy_stack([ProtocolKind.KAK], 1, f, lambda k: np.zeros((k, 1)))
    assert stack.fidelity == float(round((2 * Fraction(f) + 1) / 3, 12))


@PROPERTY
@given(st.lists(haar_angles, min_size=1, max_size=16), unit_f)
@example([(1.0, 0.0), (-1.0, 0.0)], 0.0)  # the poles, whose responses hold zeros
def test_each_kinds_werner_fidelity_is_two_f_plus_one_over_three(angles, f):
    # the engine as the closed form's oracle: every input of a stack, each
    # kind on its own, through the Werner pair of f; the bound is the
    # engine's float error over its 16 terms, measured at 1.33e-15 at most
    psis = [qubit_from_angles(a) for a in angles]
    want = float((2 * Fraction(f) + 1) / 3)
    for kind in ProtocolKind:
        for got in _channel_fidelities(pair_response(kind, psis), werner_state(f)):
            assert abs(got - want) <= 2e-15


@PROPERTY
@given(st.lists(st.tuples(haar_angles, st.integers(0, 2**53 - 1)), min_size=1, max_size=16))
@example([((1.0, 0.0), 2**51), ((-1.0, 0.0), 2**52), ((0.0, 1.0), 3 * 2**51), ((0.5, 2.0), 2**51 - 1)])
def test_sample_stacks_outcomes_are_floor_4u_and_its_fidelities_round_to_one(runs):
    # the engine as the oracle of the one outcome rule, _outcomes, which
    # run_protocol and compare's ideal columns follow: the Born-row sampler on
    # verify_stack's rows, at u on the streams' grid of multiples of 2**-53,
    # quarters and their neighbours included, and every branch's fidelity,
    # drawn or not
    psis = [qubit_from_angles(a) for a, _ in runs]
    u = np.array([k for _, k in runs]) * 2.0**-53
    for kind in ProtocolKind:
        _, probs, _, fidelities = verify_stack(kind, psis)
        assert sample_rows(probs, u).tolist() == _outcomes(u)
        assert len(fidelities) == 4 * len(psis) and {round(f, 12) for f in fidelities} == {1.0}


def retired_pair_response(kind, psi):
    """One input's pair response as it was computed before the stack became
    one array and before Bob's gates went through one kernel: that input's
    block of the retired residual stack, times conj(psi)."""
    schedule, source = SCHEDULES[kind], np.array([psi.alpha, psi.beta])
    t, _ = _evolve(schedule, np.repeat(source[None], 4, axis=0), np.eye(4, dtype=complex))
    return (_residuals(t, np.ones((4, 4)), schedule.bob_gates) @ source.conj()).T


def retired_channel_fidelity(a, rho):
    """The per-input quadratic form the stacked fidelity replaced."""
    return float(np.real(np.sum((a @ rho) * a.conj())))


@STACKS
@given(stack_sizes, seeds, st.floats(min_value=0.51, max_value=1.0))
def test_noisy_fidelities_are_the_retired_per_input_formula_bit_for_bit(size, seed, channel_f):
    rng = np.random.default_rng(seed)
    psis = [UnknownQubit.haar(rng) for _ in range(size)]
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    channel = DensityMatrix(rho / np.real(np.trace(rho)))  # full rank, far from Werner form
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        stacked = pair_response(kind, psis)
        assert stacked.shape == (size, 4, 4)
        [stack] = run_noisy_stack([kind], size, channel_f, lambda k: rng.random((k, size)),
                                  distill_target=0.9)
        werner = werner_state(stack.f_final)
        fidelities = _channel_fidelities(stacked, werner)
        for i, psi in enumerate(psis):
            single = retired_pair_response(kind, psi)
            assert stacked[i].tobytes() == pair_response(kind, [psi])[0].tobytes() == single.tobytes()
            # the engine's stacked form is the retired one bit for bit, and the
            # stack's closed form within TOL of both
            assert fidelities[i] == retired_channel_fidelity(single, werner.mat)
            assert abs(stack.fidelity - fidelities[i]) < TOL
            assert (teleport_fidelity_noisy(kind, psi, channel)
                    == retired_channel_fidelity(single, channel.mat))


# amplitudes whose Born probabilities hold zeros, a lone 1 and tiny entries
amplitude = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=1e-150, max_value=1e-6),
                      st.floats(min_value=-1.0, max_value=1.0))
two_qubit_rows = st.lists(st.tuples(st.lists(amplitude, min_size=4, max_size=4), seeds),
                          min_size=1, max_size=8)


@PROPERTY
@given(two_qubit_rows)
@example([([0.0, 0.0, 1.0, 0.0], 0), ([1.0, 1e-9, 0.0, 0.0], 1), ([0.0, 1.0, 1.0, 0.0], 2)])
def test_stacked_draw_matches_the_per_state_draw(rows):
    # one draw per row, from its own stream, picks what rng.choice picks and
    # leaves that stream where rng.choice leaves it
    amps = [np.array(row, dtype=complex) for row, _ in rows]
    assume(all(np.linalg.norm(a) > 0 for a in amps))
    states = [StateVector(2, a / np.linalg.norm(a)) for a in amps]
    probs = np.array([per_state_reference._marginal_probs(s, [0, 1]) for s in states])
    ref_rngs = [np.random.default_rng(seed) for _, seed in rows]
    rngs = [np.random.default_rng(seed) for _, seed in rows]
    want = [int(per_state_reference.measure_sample(s, [0, 1], rng)[0], 2)
            for s, rng in zip(states, ref_rngs)]
    assert sample_rows(probs, np.array([rng.random() for rng in rngs])).tolist() == want
    assert [rng.random() for rng in rngs] == [rng.random() for rng in ref_rngs]


@PROPERTY
@given(seeds)
def test_entangled_probe_matches_the_per_state_path_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    joint = StateVector(2, amps / np.linalg.norm(amps))
    assert kak_entangled_input_demo(joint) == per_state_reference.kak_entangled_input_demo(joint)


@PROPERTY
@given(haar_angles, seeds)
def test_every_run_trace_replays_as_local(angles, seed):
    # Alice starts with all three qubits; only the trace's transfers move them
    psi = qubit_from_angles(angles)
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        owners = {0: ALICE, 1: ALICE, 2: ALICE}
        sent = False
        for step in run_protocol(kind, psi, np.random.default_rng(seed)).steps:
            if isinstance(step, (GateApplied, Measured)):
                assert all(owners[q] == step.party for q in step.qubits)
            elif isinstance(step, QubitTransferred):
                assert owners[step.qubit] == step.src != step.dst
                owners[step.qubit] = step.dst
            elif isinstance(step, MessageSent):
                sent = True
            else:
                assert isinstance(step, CorrectionApplied)
                assert sent and owners[step.qubit] == step.party == BOB
        assert isinstance(step, CorrectionApplied)  # every run ends with Bob's correction


def assert_valid_and_frozen(state: StateVector) -> None:
    """A state built unchecked passes the public constructor and is read-only."""
    StateVector(state.n_qubits, state.amps)
    assert not state.amps.flags.writeable


@PROPERTY
@given(haar_angles, seeds)
def test_kernel_built_states_revalidate_and_stay_read_only(angles, seed):
    psi = qubit_from_angles(angles)
    states = [*sqtp_checkpoints(psi).values(), *kak_checkpoints(psi).values()]
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        states.append(run_protocol(kind, psi, np.random.default_rng(seed)).final_bob_state)
        states += [branch.bob_state for branch in enumerate_protocol(kind, psi)]
        # the reference's collapsed registers are built unchecked too
        states += [ref.outcome.post_state for ref in per_state_reference.enumerate_protocol(kind, psi)]
    for state in states:
        assert_valid_and_frozen(state)


# one word, two to four (zero-padded to four), and more than four (mixed in after the pool)
stream_seeds = st.one_of(seeds, st.integers(2**32, 2**128 - 1), st.integers(2**128, 2**320))
run_indices = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY
@given(stream_seeds, run_indices, st.just(3))
@example(2**130 + 99, 2**32 - 1, 3)
@example(2**300 + 1, 0, 3)
@example(2**96, 1, 3)
# a large stack ending at the last run index, for seeds of 1, 4 and 7 words
@example(2**31 + 5, 2**32 - 2, 256)
@example(2**100 + 3, 2**32 - 2, 256)
@example(2**200 + 7, 2**32 - 2, 256)
def test_stream_kernel_is_numpys_spawn_chain_bit_for_bit(seed, i, width):
    # a stack of up to `width` runs ending at run i, three streams per run, as
    # run_batch keys them, each limb one uint64 word per stream and run: 64
    # vector steps, as deep as distillation draws them, then a Haar draw of
    # two more columns
    runs = range(max(i + 1 - width, 0), i + 1)
    chunk = _streams(seed, runs, range(3))
    limbs = (chunk.hi, chunk.lo, chunk.inc_hi, chunk.inc_lo)
    assert all(limb.shape == (3, len(runs)) and limb.dtype == np.uint64 for limb in limbs)
    steps = [chunk.random() for _ in range(66)]
    for s in range(3):
        columns = [step[s].tolist() for step in steps[:64]]
        rows = haar_sources(np.stack([steps[64][s], steps[65][s]], axis=1))
        for j, run in enumerate(runs):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(run, s)))
            assert [column[j] for column in columns] == [rng.random() for _ in range(64)]
            psi = UnknownQubit.haar(rng)
            assert rows[j].tobytes() == np.array([psi.alpha, psi.beta]).tobytes()


@settings(PROPERTY, max_examples=60)
@given(stream_seeds, run_indices, st.integers(min_value=1, max_value=512),
       st.sampled_from([range(1), range(1, 3)]))
@example(2**64 + 5, 2**32 - 1, 512, range(1, 3))
@example(2**128 + 7, 0, 1, range(1))
@example(2**200 + 3, 7, 257, range(1, 3))
def test_a_block_of_k_columns_is_k_random_calls_bit_for_bit(seed, i, k, streams):
    # random(k) takes each step's state by one jump from cached tables: the
    # doubles of k random() calls, and their limbs after, on one stream per
    # run and on a chunk's kinds by runs, as run_batch keys them
    runs = range(max(i - 2, 0), i + 1)
    block, stepped = _streams(seed, runs, streams), _streams(seed, runs, streams)
    columns = block.random(k)
    assert columns.shape == (k, len(streams), len(runs)) == (k, *stepped.hi.shape)
    assert columns.tobytes() == np.stack([stepped.random() for _ in range(k)]).tobytes()
    for limb in ("hi", "lo", "inc_hi", "inc_lo"):
        assert getattr(block, limb).tobytes() == getattr(stepped, limb).tobytes()
    assert block.random().tobytes() == stepped.random().tobytes()


@PROPERTY
@given(stream_seeds)
@example(0)
@example(12345)
@example(2**31 - 1)
@example(2**64 + 5)
@example(2**70 + 1)
@example(2**130 + 7)
def test_verifys_stream_is_default_rng_of_the_seed_bit_for_bit(seed):
    # the stream of SeedSequence(seed) with no spawn key, drawn as verify
    # draws it, block after block of 2n doubles as n input rows
    stream, rng = _streams(seed), np.random.default_rng(seed)
    assert stream.hi.shape == (1, 1)
    for n in (44, 150, BATCH_CHUNK):
        assert stream.random(2 * n).reshape(n, 2).tobytes() == rng.random((n, 2)).tobytes()
    assert stream.random().tolist() == [[rng.random()]]


def test_cached_hash_constants_are_a_fresh_accumulate():
    # _streams asks for 4w + 8 constants of hash A for a seed of w words, the
    # pool zero-padded to at least 4, and 8 of hash B; after it the same call
    # is a cache hit, and the cached tuple is the recurrence computed afresh
    for seed, words in ((5, 1), (2**100 + 3, 4), (2**130 + 7, 5), (2**200 + 7, 7)):
        assert -(-seed.bit_length() // 32) == words
        _streams(seed, range(2), range(3))
        for init, mult, n in ((_INIT_A, _MULT_A, 4 * max(words, 4) + 8), (_INIT_B, _MULT_B, 8)):
            hits = _hash_constants.cache_info().hits
            cached = _hash_constants(init, mult, n)
            assert _hash_constants.cache_info().hits == hits + 1
            fresh = itertools.accumulate(range(n), lambda c, _: c * mult & 0xFFFFFFFF, initial=init)
            assert type(cached) is tuple and cached == tuple(fresh)


def retired_haar(rng) -> tuple[complex, complex]:
    """The Haar draw as it was before streams served only random(): both
    angles from rng.uniform."""
    theta = np.arccos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(theta / 2.0)), complex(np.exp(1j * phi) * np.sin(theta / 2.0))


@PROPERTY
@given(stream_seeds, run_indices)
def test_haar_draw_is_the_retired_uniform_formula_bit_for_bit(seed, i):
    # on a NumPy generator, and on run_batch's input stream of run i, drawn
    # as run_batch draws it, against the NumPy generator it reproduces,
    # which still has uniform()
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = _streams(seed, range(i, i + 1))  # stream 0 of one run
    twin = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, 0)))
    for _ in range(16):
        psi = UnknownQubit.haar(rng)
        assert (np.array([psi.alpha, psi.beta]).tobytes()
                == np.array(retired_haar(reference)).tobytes())
        row = haar_sources(np.stack([stream.random()[0], stream.random()[0]], axis=1))[0]
        assert row.tobytes() == np.array(retired_haar(twin)).tobytes()
    # as a stack: verify's block of rng.random((n, 2)) through haar_sources
    rows = haar_sources(np.random.default_rng(seed).random((16, 2)))
    reference = np.random.default_rng(seed)
    assert rows.tobytes() == np.array([retired_haar(reference) for _ in range(16)]).tobytes()


def test_stacked_bob_rows_match_the_per_vector_arithmetic_bit_for_bit():
    # 25 000 rows: enough that squaring the moduli as an array instead of as
    # Python floats fails here (it moves the last bit of about 1 row in 1000).
    # Only 1-qubit rows are stacked; the entangled-input probe keeps the
    # per-vector path, because np.vdot sums 2-qubit rows in another order:
    # stacked this way, 41 808 of 100 000 random 2-qubit fidelities differed.
    rng = np.random.default_rng(2024)
    n = 25_000
    bobs = (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))) * rng.uniform(0.5, 2, (n, 1))
    sources = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    sources /= np.linalg.norm(sources, axis=1, keepdims=True)
    normalised, fidelities = _bob_rows(bobs, sources)
    want = np.array([v / np.linalg.norm(v) for v in bobs])
    assert np.count_nonzero(np.any(normalised != want, axis=1)) == 0
    want_fidelities = [fidelity_pure(StateVector._trusted(1, bob), StateVector._trusted(1, source))
                       for bob, source in zip(want, sources.copy())]
    assert sum(a != b for a, b in zip(fidelities, want_fidelities, strict=True)) == 0
    assert not normalised.flags.writeable


messages = st.lists(st.tuples(st.sampled_from([ALICE, BOB]), st.integers(1, 2**70),
                              st.sampled_from(list(Purpose))), max_size=12)


@PROPERTY
@given(messages)
def test_ledger_totals_are_the_sums_over_its_entries(msgs):
    msgs = [(sender, BOB if sender == ALICE else ALICE, bits, purpose)
            for sender, bits, purpose in msgs]
    added = CostLedger()
    for message in msgs:
        added.add(*message)
    for ledger in (CostLedger(msgs), added):
        assert ledger.total() == sum(e.bits for e in ledger.entries)
        for purpose in Purpose:
            assert ledger.total(purpose) == sum(e.bits for e in ledger.entries
                                                if e.purpose is purpose)
    assert CostLedger(msgs) == added


def dict_rows(kind, runs, outcomes, fidelities, channel_f, loccs):
    """The per_run rows of one kind for the given run indices, as dicts."""
    name, t_bits = kind.value, SCHEDULES[kind].announced
    return [{"run": i, "protocol": name, "outcome_bits": outcome, "fidelity": fidelity,
             "channel_f": channel_f, "teleport_bits": t_bits, "locc_bits": l_bits}
            for i, outcome, fidelity, l_bits in zip(runs, outcomes, fidelities, loccs)]


def compare_json_reference(cfg):
    """compare's JSON report as the engine gives it, built as it was before
    the column template and the closed forms: run_batch's chunks, every
    run's Haar input from stream 0, kind j's stack alone on stream 1 + j,
    its outcome k from sample_rows of verify_stack's Born rows and the
    fidelity of its branch 4i + k, or its fidelity through the Werner
    channel from pair_response, a dict per run and kind, the kinds
    interleaved run by run, the summary read back from those rows, and
    json.dumps of the whole payload."""
    kinds = cfg.kinds()
    per_run = []
    for runs, _ in run_batch(cfg.n_runs, cfg.seed, len(kinds)):
        sources, rows = per_state_reference.batch_sources(cfg.seed, runs), []
        for j, kind in enumerate(kinds):
            stream = _streams(cfg.seed, runs, range(1 + j, 2 + j))
            if cfg.noise_f is None:
                _, probs, _, branches = verify_stack(kind, sources)
                ks = sample_rows(probs, stream.random()[0]).tolist()
                outcomes, channel_f = [_OUTCOMES[k] for k in ks], None
                loccs, fidelities = [0] * len(runs), [branches[4 * i + k] for i, k in enumerate(ks)]
            else:
                [stack] = run_noisy_stack([kind], len(runs), cfg.noise_f, stream.random,
                                          distill_target=cfg.distill_target,
                                          max_rounds=cfg.max_rounds)
                outcomes, channel_f = [None] * len(runs), round(stack.f_final, 12)
                loccs = [LOCC_ROUND_BITS * attempts for attempts in stack.attempts]
                fidelities = _channel_fidelities(pair_response(kind, sources), werner_state(stack.f_final))
            fidelities = [round(fidelity, 12) for fidelity in fidelities]
            rows.append(dict_rows(kind, runs, outcomes, fidelities, channel_f, loccs))
        per_run += itertools.chain.from_iterable(zip(*rows))
    summary = {}
    for k, kind in enumerate(kinds):
        rows = per_run[k::len(kinds)]
        t_bits = SCHEDULES[kind].announced
        locc_mean = float(np.mean([r["locc_bits"] for r in rows]))
        summary[kind.value] = {
            "mean_fidelity": round(float(np.mean([r["fidelity"] for r in rows])), 12),
            "min_fidelity": round(min(r["fidelity"] for r in rows), 12),
            "teleport_bits": t_bits,
            "locc_bits": round(locc_mean, 12),
            "total_bits": round(t_bits + locc_mean, 12),
        }
    payload = {"command": "compare", "config": cfg.public_dict(),
               "per_run": per_run, "summary": summary}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# run_batch's chunk in the compare test below, so that a few runs cross its edges
SMALL_CHUNK = 16


@st.composite
def compare_argvs(draw):
    # past one and two chunks of SMALL_CHUNK runs, with noisy channels whose
    # ladders stop at the target, the round cap, or not at all
    argv = ["compare", "--runs", str(draw(st.integers(1, 2 * SMALL_CHUNK + 8))),
            "--seed", str(draw(st.one_of(st.sampled_from([0, 2**64, 2**64 + 1, 2**100]),
                                         st.integers(0, 2**70)))),
            "--protocol", draw(st.sampled_from(["sqtp", "kak", "both"])), "--format", "json"]
    if draw(st.booleans()):
        argv += ["--noise-f", str(draw(st.sampled_from([0.55, 0.75, 0.8, 0.95, 1.0])))]
        if draw(st.booleans()):
            argv += ["--distill-target", str(draw(st.sampled_from([0.9, 0.95, 0.99, 1.0])))]
        argv += ["--max-rounds", str(draw(st.integers(1, 6)))]
    return argv


@settings(deadline=None, derandomize=True, max_examples=12)
@given(compare_argvs())
@example(["compare", "--runs", str(SMALL_CHUNK + 1), "--seed", str(2**64), "--protocol", "both",
          "--format", "json", "--noise-f", "0.75", "--distill-target", "0.9", "--max-rounds", "2"])
@example(["compare", "--runs", str(2 * SMALL_CHUNK + 8), "--seed", "3", "--protocol", "both",
          "--format", "json", "--noise-f", "0.75", "--distill-target", "0.9"])
def test_compare_json_is_the_dict_rows_report_byte_for_byte(argv):
    stdout = io.StringIO()
    with mock.patch("telecost.protocol.BATCH_CHUNK", SMALL_CHUNK):
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
        cfg = RunConfig(**vars(build_parser().parse_args(argv)))
        assert stdout.getvalue() == compare_json_reference(cfg)


# JSON scalars: escapes, non-ASCII, NaN, ints past 2**53 and past 64 bits
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**80, 2**80),
                         st.integers(2**53, 2**64), st.floats(), st.text())
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(), inner, max_size=3)), max_leaves=10)
# a per_run row held as text elsewhere in the payload must not be mistaken for the splice point
SPLICE = '\n  "per_run": null'
finite_floats = st.one_of(st.sampled_from([5e-324, 1e-5, 1e16, 0.1 + 0.2, -0.0]),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def compare_columns(draw):
    """(channel_f, fidelity, columns) in _compare_data's shape, ideal or
    noisy, with an arbitrary channel and one arbitrary fidelity per report,
    and attempts far past any real run's."""
    kinds = draw(st.sampled_from([[ProtocolKind.SQTP], [ProtocolKind.KAK], list(ProtocolKind)]))
    noisy = draw(st.booleans())
    n = draw(st.integers(1, 12))
    picks = st.integers(0, 2**70) if noisy else st.integers(0, 3)
    channel_f = draw(finite_floats) if noisy else None
    columns = {kind: draw(st.lists(picks, min_size=n, max_size=n)) for kind in kinds}
    return channel_f, draw(finite_floats), columns


@PROPERTY
@given(st.dictionaries(st.text(), json_values, max_size=4), compare_columns())
@example({"config": {"per_run": None}, "summary": SPLICE, SPLICE: [SPLICE]},
         (1e16, 2**53 + 1.0, {ProtocolKind.SQTP: [2**70, 1, 0]}))
@example({}, (1e16, 0.1 + 0.2, {ProtocolKind.SQTP: [2**70, 1, 0]}))
@example({}, (1e16, 5e-324, {ProtocolKind.SQTP: [2**70, 1, 0]}))
# a channel of -0.0, the fidelities compare prints, and a zero of either sign,
# which one template holds as it is
@example({}, (-0.0, 1 / 3, {ProtocolKind.SQTP: [2, 2], ProtocolKind.KAK: [2, 3]}))
@example({}, (None, 1.0, {ProtocolKind.SQTP: [0, 3, 0], ProtocolKind.KAK: [1, 1, 2]}))
@example({}, (0.5, -0.0, {ProtocolKind.KAK: [1, 1]}))
@example({}, (None, 0.0, {ProtocolKind.KAK: [1, 1]}))
# fidelities one ulp apart, across a 12-digit rounding edge (0.999999999999 and 1.0
# once rounded) and within one (both 1.0): each prints as its own repr
@example({}, (None, 0.9999999999995, {ProtocolKind.SQTP: [3, 3]}))
@example({}, (None, 0.9999999999995001, {ProtocolKind.SQTP: [3, 3]}))
@example({}, (None, 0.9999999999999999, {ProtocolKind.SQTP: [3, 3]}))
# four-digit run indices, with the last row taking no comma, and a single noisy kak row
@example({}, (None, 1.0, {ProtocolKind.SQTP: [k % 4 for k in range(1001)],
                          ProtocolKind.KAK: [k * 7 % 4 for k in range(1001)]}))
@example({}, (0.9, 0.9333333333333333, {ProtocolKind.KAK: [3]}))
def test_compare_json_is_json_dumps_of_the_dict_rows(payload, report):
    channel_f, fidelity, columns = report
    rows = []
    for kind, picks in columns.items():
        if channel_f is None:
            outcomes, loccs = [_OUTCOMES[k] for k in picks], [0] * len(picks)
        else:
            outcomes, loccs = [None] * len(picks), [LOCC_ROUND_BITS * a for a in picks]
        rows.append(dict_rows(kind, range(len(picks)), outcomes, [fidelity] * len(picks), channel_f, loccs))
    per_run = list(itertools.chain.from_iterable(zip(*rows)))
    text = _compare_json({**payload, "per_run": None}, channel_f, fidelity, columns)
    assert text == json.dumps({**payload, "per_run": per_run}, indent=2, sort_keys=True) + "\n"
