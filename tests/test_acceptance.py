"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test prints an ACCEPTANCE line through the conftest summary hook.
test_c5_entangled_input_damage asserts a damage clause that the exact
algebra contradicts; it is expected to fail and the assertion message
records the measured values. Do not weaken it.
"""

import json

import numpy as np

import oracle_dense
from telecost.cli import main
from telecost.cost import CostModel, distill_step_map, ideal_bits
from telecost.expansions import ALL_EXPANSIONS, load_expansions
from telecost.kinds import ProtocolKind, Purpose
from telecost.noise import (
    run_noisy_teleport,
    teleport_fidelity_noisy,
    werner_state,
)
from telecost.protocol import (
    UnknownQubit,
    enumerate_protocol,
    kak_checkpoints,
    kak_entangled_input_demo,
    run_protocol,
    sqtp_checkpoints,
)
from telecost.statevector import basis_state, bell_pair, fidelity_pure, tensor

STATE_ATOL = 1e-12
BOUNDARY_ATOL = 1e-10
ORACLE_ATOL = 1e-9
DAMAGE_MARGIN = 1e-6


def _haar_stream(seed):
    rng = np.random.default_rng(seed)
    while True:
        yield UnknownQubit.haar(rng)


def test_c1_golden_expansions():
    """100 random inputs: every displayed register expansion matches the
    engine componentwise within 1e-12."""
    table = load_expansions()
    stream = _haar_stream(1001)
    worst = 0.0
    for _ in range(100):
        psi = next(stream)
        states = {**sqtp_checkpoints(psi), **kak_checkpoints(psi)}
        for name in ALL_EXPANSIONS:
            ref = table[name].instantiate(psi.alpha, psi.beta)
            worst = max(worst, float(np.max(np.abs(states[name].amps - ref))))
    assert worst <= STATE_ATOL, f"max componentwise error {worst:.3e}"


def test_c2_correction_tables_complete():
    """100 random inputs: all four branches of both protocols recover the
    input at fidelity 1 within 1e-12; the 11 branch of the two-bit table
    recovers it with global phase -1."""
    stream = _haar_stream(1002)
    for _ in range(100):
        psi = next(stream)
        target = psi.to_statevector()
        for kind in ProtocolKind:
            branches = enumerate_protocol(kind, psi)
            assert len(branches) == 4
            for br in branches:
                assert br.fidelity > 1 - STATE_ATOL, (
                    f"{kind.value} branch {br.outcome.outcome_bits}: "
                    f"fidelity {br.fidelity}"
                )
        b11 = next(
            b for b in enumerate_protocol(ProtocolKind.SQTP, psi)
            if b.outcome.outcome_bits == "11"
        )
        assert np.allclose(b11.bob_state.amps, -target.amps, atol=STATE_ATOL)


def test_c3_cost_exactness():
    """1000 seeded runs per protocol: exactly 2 teleport bits the standard
    way, exactly 1 the chained-XOR way, never any LOCC bits."""
    for kind, want in ((ProtocolKind.SQTP, 2), (ProtocolKind.KAK, 1)):
        stream = _haar_stream(1003)
        rng = np.random.default_rng(2003)
        for _ in range(1000):
            trace = run_protocol(kind, next(stream), rng)
            assert trace.ledger.total(Purpose.TELEPORT) == want
            assert trace.ledger.total(Purpose.LOCC) == 0
        assert ideal_bits(CostModel(2, kind)) == want


def test_c4_kak_q1_irrelevance():
    """100 random inputs: chained-XOR branches that differ only in the
    second measured bit give identical corrected receiver states, so one
    transmitted bit suffices."""
    stream = _haar_stream(1004)
    for _ in range(100):
        psi = next(stream)
        by_bits = {
            br.outcome.outcome_bits: br
            for br in enumerate_protocol(ProtocolKind.KAK, psi)
        }
        for a, b in (("00", "01"), ("10", "11")):
            pair_fid = fidelity_pure(by_bits[a].bob_state, by_bits[b].bob_state)
            assert pair_fid > 1 - STATE_ATOL
            assert np.allclose(
                by_bits[a].bob_state.amps, by_bits[b].bob_state.amps, atol=STATE_ATOL
            )
        for br in by_bits.values():
            assert br.fidelity > 1 - STATE_ATOL


def test_c5_entangled_input_damage():
    """Feeding half of a Bell pair through the chained-XOR run is claimed
    to damage the joint state on at least one branch; product inputs must
    pass through unharmed.

    The product clause holds. The damage clause is contradicted by the
    exact algebra: every branch operator is proportional to the identity
    on the untouched subsystem, so the corrected joint fidelity is 1.0 on
    all four branches, for Bell inputs as for any other. The frozen
    brute-force oracle values agree. The final assertion states the
    damage clause as given and therefore fails.
    """
    # product inputs pass through at fidelity 1
    stream = _haar_stream(1005)
    for _ in range(20):
        joint = tensor(next(stream).to_statevector(), basis_state(1, "0"))
        report = kak_entangled_input_demo(joint)
        assert report.min_branch_fidelity > 1 - STATE_ATOL

    # implementation agrees with the committed brute-force oracle
    bell = bell_pair()
    report = kak_entangled_input_demo(bell)
    oracle = oracle_dense.oracle_entangled_branches(bell.amps)
    assert len(report.branches) == len(oracle) == 4
    for br, (bits, prob, prescribed, best) in zip(report.branches, oracle):
        assert br.outcome_bits == bits
        assert abs(br.probability - prob) < STATE_ATOL
        assert abs(br.fidelity_corrected - prescribed) < STATE_ATOL
        assert abs(br.fidelity_best - best) < STATE_ATOL

    # the damage clause, stated as given
    fids = {br.outcome_bits: br.fidelity_corrected for br in report.branches}
    assert any(f < 1 - DAMAGE_MARGIN for f in fids.values()), (
        "no branch shows damage: corrected joint fidelities are "
        f"{fids} (oracle agrees); every branch returns the Bell input "
        "exactly, so the required fidelity drop below "
        f"{1 - DAMAGE_MARGIN} does not occur"
    )


def test_c6_noise_boundary_cases():
    """20 random inputs: a clean channel teleports at fidelity 1 and the
    maximally mixed channel at 1/2, each within 1e-10, both protocols."""
    clean = werner_state(1.0)
    mixed = werner_state(0.25)
    stream = _haar_stream(1006)
    for _ in range(20):
        psi = next(stream)
        for kind in ProtocolKind:
            assert abs(teleport_fidelity_noisy(kind, psi, clean) - 1.0) < BOUNDARY_ATOL
            assert abs(teleport_fidelity_noisy(kind, psi, mixed) - 0.5) < BOUNDARY_ATOL


def test_c7_distillation_monotonicity_and_cost():
    """Grid F_in in {0.55..0.95}: one recurrence step improves fidelity
    and matches the committed density oracle within 1e-9; any noisy run
    with k >= 1 attempts reports total bits = ideal + 2k > ideal."""
    for f_in in (0.55, 0.65, 0.75, 0.85, 0.95):
        p_succ, f_out = distill_step_map(f_in)
        assert f_out > f_in
        want_p, want_f = oracle_dense.oracle_distill_map(f_in)
        assert abs(p_succ - want_p) < ORACLE_ATOL
        assert abs(f_out - want_f) < ORACLE_ATOL

    stream = _haar_stream(1007)
    for kind in ProtocolKind:
        ideal = ideal_bits(CostModel(2, kind))
        for seed in range(25):
            report = run_noisy_teleport(
                kind, next(stream), 0.75, np.random.default_rng(seed),
                distill_target=0.9,
            )
            assert report.attempts >= 1
            total = report.ledger.total()
            assert total == ideal + 2 * report.attempts
            assert total > ideal


def test_c8_deterministic_reports(tmp_path):
    """verify and compare with fixed seeds write byte-identical JSON
    across two invocations."""
    for sub, extra in (
        ("verify", []),
        ("compare", ["--noise-f", "0.75", "--distill-target", "0.9"]),
    ):
        outs = []
        for tag in ("first", "second"):
            path = tmp_path / f"{sub}_{tag}.json"
            code = main(
                [sub, "--runs", "10", "--seed", "5", "--format", "json",
                 "--out", str(path)] + extra
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], f"{sub} output differs between invocations"
        json.loads(outs[0])  # and it is valid JSON
