"""Werner channels, noisy teleport fidelity, and recurrence
distillation, checked against the dense oracle and frozen goldens."""

from types import SimpleNamespace

import numpy as np
import pytest

import oracle_dense
from telecost import cost
from telecost.cost import SWEEP_COLUMNS, distill_step_map, sweep_rows
from telecost.kinds import ProtocolKind, Purpose
from telecost.noise import (
    DensityMatrix,
    run_noisy_stack,
    run_noisy_teleport,
    teleport_fidelity_noisy,
    werner_state,
)
from telecost.protocol import BATCH_CHUNK, UnknownQubit, run_batch
from telecost.statevector import basis_state, bell_pair

F_GRID = [0.55, 0.65, 0.75, 0.85, 0.95]

# one recurrence step per input fidelity, frozen from tests/oracle_dense.py
# (run `python3 tests/oracle_dense.py` to regenerate the table)
DISTILL_GOLDENS = {
    0.25: (0.5, 0.25),
    0.55: (0.58, 0.560344827586207),
    0.65: (0.642222222222222, 0.679065743944637),
    0.75: (0.722222222222222, 0.788461538461538),
    0.85: (0.82, 0.884146341463414),
    0.95: (0.935555555555555, 0.964964370546318),
}

# deterministic ladder from 0.75 toward a 0.9 target, same oracle run
LADDER_075 = [
    0.788461538461538,
    0.827006507592191,
    0.863459406821828,
    0.895887054041566,
    0.923061003778285,
]


def haar(seed):
    return UnknownQubit.haar(np.random.default_rng(seed))


def distill(f_in, f_target, max_rounds, rng):
    """A noisy run's distillation: a KAK run of |0>, an input it draws nothing for."""
    return run_noisy_teleport(ProtocolKind.KAK, UnknownQubit(1, 0), f_in, rng, f_target, max_rounds)


def pure_density(state):
    return DensityMatrix(np.outer(state.amps, state.amps.conj()))


def test_werner_eigenvalues():
    w = werner_state(0.7)
    eigs = sorted(np.linalg.eigvalsh(w.mat))
    assert np.allclose(eigs, [0.1, 0.1, 0.1, 0.7], atol=1e-12)


def test_werner_quarter_is_maximally_mixed():
    w = werner_state(0.25)
    assert np.allclose(w.mat, np.eye(4) / 4.0, atol=1e-12)


@pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
def test_werner_state_is_the_oracles_four_projector_sum(f):
    # built from r*I + (f - r)|Phi+><Phi+|; the oracle sums all four Bell projectors
    for g in (f, *np.linspace(max(f - 0.25, 0.0), f, 251)):
        assert np.max(np.abs(werner_state(g).mat - oracle_dense.werner_dm(g))) <= 1e-15


@pytest.mark.parametrize("f", [-0.01, 1.01])
def test_werner_rejects_out_of_range(f):
    with pytest.raises(ValueError):
        werner_state(f)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.pad([[0.5, 0.5j], [0.5j, 0.5]], (0, 2)))  # not Hermitian
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(4) / 2.0)  # trace 2
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    with pytest.raises(ValueError, match="4x4"):
        DensityMatrix(np.eye(2) / 2.0)  # a 1-qubit state is no channel
    with pytest.raises(ValueError, match="4x4"):
        DensityMatrix(np.eye(32) / 32.0)  # nor is a 5-qubit one


def test_density_matrix_read_only():
    w = werner_state(0.8)
    with pytest.raises(ValueError):
        w.mat[0, 0] = 99.0


def test_perfect_channel_boundary():
    chan = pure_density(bell_pair())
    for kind in ProtocolKind:
        for seed in range(20):
            fid = teleport_fidelity_noisy(kind, haar(seed), chan)
            assert abs(fid - 1.0) < 1e-10


def test_maximally_mixed_channel_boundary():
    chan = werner_state(0.25)
    for kind in ProtocolKind:
        for seed in range(20):
            fid = teleport_fidelity_noisy(kind, haar(seed), chan)
            assert abs(fid - 0.5) < 1e-10


def test_werner_fidelity_linear_rule():
    # output fidelity is (2F + 1)/3 regardless of protocol or input
    for f in [0.0, 0.25, 0.4, 0.7, 0.85, 1.0]:
        chan = werner_state(f)
        expected = (2.0 * f + 1.0) / 3.0
        for kind in ProtocolKind:
            for seed in range(5):
                fid = teleport_fidelity_noisy(kind, haar(seed), chan)
                assert abs(fid - expected) < 1e-10


def test_frozen_working_point():
    chan = werner_state(0.85)
    fid = teleport_fidelity_noisy(ProtocolKind.SQTP, haar(0), chan)
    assert abs(fid - 0.9) < 1e-10


def test_fidelity_matches_dense_oracle():
    for f in F_GRID:
        chan = werner_state(f)
        oracle_chan = oracle_dense.werner_dm(f)
        for kind in ProtocolKind:
            for alpha, beta in oracle_dense.sphere_grid(4, 4):
                got = teleport_fidelity_noisy(kind, UnknownQubit(alpha, beta), chan)
                want = oracle_dense.oracle_teleport_fidelity(kind.value, alpha, beta, oracle_chan)
                assert abs(got - want) < 1e-9


def test_channel_size_validation():
    with pytest.raises(ValueError):
        teleport_fidelity_noisy(ProtocolKind.SQTP, haar(1), pure_density(basis_state(1, "0")))


def test_distill_map_frozen_goldens():
    for f, (p_want, f_want) in DISTILL_GOLDENS.items():
        p_got, f_got = distill_step_map(f)
        assert abs(p_got - p_want) < 1e-9
        assert abs(f_got - f_want) < 1e-9


def test_distill_map_matches_live_oracle():
    for f in F_GRID + [0.51, 0.6, 0.99]:
        got = distill_step_map(f)
        dense = oracle_dense.oracle_distill_map(f)
        closed = oracle_dense.closed_form_distill(f)
        assert abs(got[0] - dense[0]) < 1e-9 and abs(got[1] - dense[1]) < 1e-9
        assert abs(got[0] - closed[0]) < 1e-9 and abs(got[1] - closed[1]) < 1e-9


def test_sweep_rounds_the_exact_recurrence_value():
    # with f the double nearest 0.9589, exact rational arithmetic gives
    # F_out = 0.97145391717550002731..., just above a 12-digit rounding tie
    row = sweep_rows([0.9589], 0.99)[0]
    assert row["F_out"] == 0.971453917176


def test_distill_map_monotone_above_half():
    for f in np.linspace(0.52, 0.98, 24):
        _, f_out = distill_step_map(float(f))
        assert f_out > f + 1e-6


def test_distill_quarter_fixed_point():
    p, f_out = distill_step_map(0.25)
    assert abs(p - 0.5) < 1e-12
    assert abs(f_out - 0.25) < 1e-12


def test_distill_step_failure_keeps_input_fidelity():
    # a failed attempt retries the same level, so a run with failures ends on
    # the rung of the exact ladder that its successes alone reach
    saw_failure = False
    for seed in range(20):
        run = distill(0.75, 0.9, 64, np.random.default_rng(seed))
        saw_failure |= run.attempts > run.rounds
        f = 0.75
        for _ in range(run.rounds):
            f = distill_step_map(f)[1]
        assert run.f_final == f
    assert saw_failure


def test_distill_step_success_frequency():
    # one level from 0.75 clears 0.76; its attempts are geometric with mean 1/p
    rng = np.random.default_rng(7)
    n = 4000
    p, _ = distill_step_map(0.75)
    attempts = [distill(0.75, 0.76, 1, rng).attempts for _ in range(n)]
    sigma = np.sqrt((1.0 - p) / (n * p**2))
    assert abs(np.mean(attempts) - 1.0 / p) < 3.0 * sigma


def test_a_draw_at_the_success_probability_fails_its_attempt():
    # an attempt succeeds when its draw is below p, as rng.random() < p does
    # with probability p; a draw of exactly p retries the level
    p, _ = distill_step_map(0.75)
    draws = iter([p, 0.0])
    run = distill(0.75, 0.76, 1, SimpleNamespace(random=lambda: next(draws)))
    assert (run.rounds, run.attempts) == (1, 2)


def assert_locc_bill_matches(run, f_in, f_target, max_rounds, seed):
    """The noisy run on the same channel and stream makes the same
    attempts and bills 2 LOCC bits for each."""
    report = run_noisy_teleport(ProtocolKind.KAK, haar(seed), f_in, np.random.default_rng(seed),
                                distill_target=f_target, max_rounds=max_rounds)
    assert report.attempts == run.attempts
    assert report.ledger.total(Purpose.LOCC) == 2 * run.attempts


def test_distill_to_threshold_already_there():
    run = distill(0.999, 0.99, 32, np.random.default_rng(0))
    assert run.rounds == 0 and run.attempts == 0
    assert_locc_bill_matches(run, 0.999, 0.99, 32, 0)
    assert run.f_final == 0.999


def test_distill_to_threshold_reaches_target():
    for seed in range(10):
        run = distill(0.75, 0.9, 64, np.random.default_rng(seed))
        assert run.f_final >= 0.9
        assert run.rounds == 5  # the deterministic ladder length
        assert run.attempts >= run.rounds
        assert_locc_bill_matches(run, 0.75, 0.9, 64, seed)


@pytest.mark.parametrize("target,max_rounds", [(np.nan, 32), (0.0, 32), (-1.0, 32), (0.9, 0)])
def test_a_given_target_is_checked_even_when_no_run_climbs(target, max_rounds):
    # a channel at 0.95 climbs toward none of these targets, yet each is illegal
    with pytest.raises(ValueError, match="distill_target must be in|max_rounds must be >= 1"):
        run_noisy_stack(ProtocolKind.SQTP, [haar(0), haar(1)], 0.95, lambda: np.zeros(2),
                        target, max_rounds)
    with pytest.raises(ValueError, match="distill_target must be in|max_rounds must be >= 1"):
        distill(0.95, target, max_rounds, np.random.default_rng(0))


def test_distill_to_threshold_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        distill(0.5, 0.9, 32, rng)
    with pytest.raises(ValueError):
        distill(0.3, 0.9, 32, rng)
    with pytest.raises(ValueError):
        distill(0.75, 0.0, 32, rng)
    with pytest.raises(ValueError):
        distill(0.75, 1.5, 32, rng)
    with pytest.raises(ValueError):
        distill(0.75, 0.9, 0, rng)


def sweep_rounds(f_in, f_target, max_rounds=64):
    return sweep_rows([f_in], f_target, max_rounds)[0]["rounds_to_target"]


def test_deterministic_ladder_from_075():
    f = 0.75
    for want in LADDER_075:
        f = distill_step_map(f)[1]
        assert abs(f - want) < 1e-9
    assert sweep_rounds(0.75, 0.9) == 5


def test_deterministic_rounds_edge_cases():
    assert sweep_rounds(0.95, 0.9) == 0
    assert sweep_rounds(0.4, 0.9) == -1
    assert sweep_rounds(0.75, 1.0) == -1  # cap hit


def test_deterministic_rounds_stop_when_the_iterate_stalls(monkeypatch):
    # in floats the recurrence stalls just below 1, so F = 1 is never reached
    calls = []
    monkeypatch.setattr(cost, "distill_step_map", lambda f: calls.append(f) or distill_step_map(f))
    assert sweep_rounds(0.75, 1.0, 100_000) == -1
    assert len(calls) < 300
    assert distill_step_map(calls[-1])[1] == calls[-1]


def test_distill_to_threshold_stops_when_the_iterate_stalls():
    # F = 1 is out of reach in floats; a cap of 1024 levels must not be spent
    run = distill(0.75, 1.0, 1024, np.random.default_rng(0))
    assert run.f_final < 1.0
    assert distill_step_map(run.f_final)[1] == run.f_final
    assert run.rounds < 300
    assert_locc_bill_matches(run, 0.75, 1.0, 1024, 0)


@pytest.mark.parametrize("f_in,f_target,max_rounds,stop", [
    (0.75, 0.9, 64, "target"), (0.95, 0.9, 64, "target"), (0.75, 0.9, 3, "cap"),
    (0.75, 1.0, 1024, "stalled"), (0.5, 0.9, 64, "half"), (0.3, 0.9, 64, "half"),
])
def test_ladder_says_why_it_stopped(f_in, f_target, max_rounds, stop):
    levels, got = cost._ladder(f_in, f_target, max_rounds)
    assert got == stop
    assert ((levels[-1][1] if levels else f_in) >= f_target) == (stop == "target")


def test_noisy_report_says_whether_the_target_was_met():
    def report(target, max_rounds=1024):
        return run_noisy_teleport(ProtocolKind.KAK, haar(0), 0.75, np.random.default_rng(0),
                                  distill_target=target, max_rounds=max_rounds)

    # the stalled run prints channel_f 1.0 after rounding, yet never reaches F = 1
    stalled = report(1.0)
    assert stalled.target_met is False and round(stalled.f_final, 12) == 1.0
    assert report(0.9).target_met is True
    assert report(0.9, max_rounds=3).target_met is False
    assert report(0.7).target_met is True and report(None).target_met is True


@pytest.mark.parametrize("channel_f,target,max_rounds,rounds,met", [
    (0.75, 0.9, 32, 5, True),
    (0.55, 0.95, 32, 16, True),
    (0.75, 0.99, 3, 3, False),  # the round cap
    (0.75, 1.0, 1024, 90, False),  # the ladder stalls below 1
    (0.8, None, 32, 0, True),
])
def test_every_noisy_stack_ends_on_one_channel(channel_f, target, max_rounds, rounds, met):
    # the ladder is deterministic and the draws decide only each run's
    # attempts, so compare reports one channel_f for all its stacks
    ends = set()
    for n_runs in (1, 7, BATCH_CHUNK + 1):
        for _, sources, streams in run_batch(n_runs, 11, 2):
            for kind, rngs in zip(ProtocolKind, streams):
                stack = run_noisy_stack(kind, sources, channel_f, rngs.random, target, max_rounds)
                ends.add((stack.rounds, stack.f_final, stack.target_met))
    assert len(ends) == 1
    [(got_rounds, _, got_met)] = ends
    assert (got_rounds, got_met) == (rounds, met)


def test_distill_to_threshold_steps_the_map_once_per_level(monkeypatch):
    # a failed attempt retries its level without evaluating the map again
    calls = []
    monkeypatch.setattr(cost, "distill_step_map", lambda f: calls.append(f) or distill_step_map(f))
    run = distill(0.75, 0.9, 64, np.random.default_rng(1))
    assert run.attempts > run.rounds == len(calls) == len(set(calls))


def test_sweep_rows_shape_and_coupling():
    rows = sweep_rows(F_GRID, 0.95)
    assert [r["F_in"] for r in rows] == F_GRID
    for row in rows:
        assert list(row) == SWEEP_COLUMNS
        assert row["locc_bits"] == 2 * row["rounds_to_target"]
        assert row["total_bits_sqtp"] - row["total_bits_kak"] == 1
        assert row["total_bits_kak"] == 1 + row["locc_bits"]
    f_outs = [r["F_out"] for r in rows]
    assert f_outs == sorted(f_outs)


def test_sweep_rows_unreachable_marker():
    row = sweep_rows([0.3], 0.95)[0]
    assert row["rounds_to_target"] == -1
    assert row["locc_bits"] == -1
    assert row["total_bits_sqtp"] == -1 and row["total_bits_kak"] == -1


def test_run_noisy_teleport_without_distillation():
    psi = haar(5)
    report = run_noisy_teleport(ProtocolKind.KAK, psi, 0.95, np.random.default_rng(5),
                                distill_target=0.9)
    assert report.rounds == 0 and report.attempts == 0
    assert report.f_final == 0.95
    assert report.ledger.total(Purpose.LOCC) == 0
    assert abs(report.fidelity - (2 * 0.95 + 1) / 3) < 1e-10


def test_run_noisy_teleport_distills_and_reports():
    psi = haar(6)
    report = run_noisy_teleport(ProtocolKind.SQTP, psi, 0.75, np.random.default_rng(6),
                                distill_target=0.9)
    assert report.f_initial == 0.75
    assert report.f_final >= 0.9
    assert abs(report.fidelity - (2 * report.f_final + 1) / 3) < 1e-10
    assert report.ledger.total(Purpose.TELEPORT) == 2


def test_run_noisy_teleport_seeded_repeatability():
    psi = haar(7)
    a = run_noisy_teleport(ProtocolKind.KAK, psi, 0.75, np.random.default_rng(9),
                           distill_target=0.9)
    b = run_noisy_teleport(ProtocolKind.KAK, psi, 0.75, np.random.default_rng(9),
                           distill_target=0.9)
    assert (a.rounds, a.attempts, a.f_final, a.fidelity) == (b.rounds, b.attempts, b.f_final, b.fidelity)
    assert a.ledger == b.ledger


@pytest.mark.parametrize("bad", [np.nan, 1.0, -0.5])
def test_a_climb_on_draws_that_never_succeed_ends_in_a_value_error(bad):
    # no draw of NaN, 1.0 or -0.5 lies in [0, p) for a level's probability p,
    # so without the check past 64 steps a level NaN and 1.0 would climb
    # forever, and -0.5 would pass for a success at every step
    for column in ([bad, bad], [0.0, bad]):
        with pytest.raises(ValueError, match=r"draws must be in \[0, 1\)"):
            run_noisy_stack(ProtocolKind.KAK, [haar(0), haar(1)], 0.75,
                            lambda column=column: np.array(column), 0.9)
    with pytest.raises(ValueError, match=r"draws must be in \[0, 1\)"):
        distill(0.75, 0.9, 32, SimpleNamespace(random=lambda: bad))


def test_a_climb_past_its_check_bound_still_counts_every_attempt():
    # 0.75 -> 0.9 has 5 levels, so columns past step 320 are checked; legal
    # ones pass, and 400 failures then 5 successes are 405 attempts
    draws = iter([np.full(2, 0.999)] * 400 + [np.zeros(2)] * 5)
    stack = run_noisy_stack(ProtocolKind.SQTP, [haar(0), haar(1)], 0.75, lambda: next(draws), 0.9)
    assert (stack.rounds, stack.attempts, stack.target_met) == (5, [405, 405], True)
