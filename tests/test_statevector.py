"""Register-level invariants: indexing convention, gate algebra,
measurement branches and sampling. The per-state gates, measurement and
collapse helpers are the test reference in per_state_reference."""

import itertools

import numpy as np
import pytest

import telecost.statevector as sv

import per_state_reference
from per_state_reference import (
    apply_cnot,
    apply_h,
    apply_x,
    apply_z,
    collapse_residual,
    enumerate_branches,
    measure_sample,
)
from telecost.protocol import UnknownQubit
from telecost.statevector import (
    BranchOutcome,
    StateVector,
    basis_state,
    bell_pair,
    fidelity_pure,
    tensor,
)

ATOL = 1e-12


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_stacked_gates_match_the_per_state_gates_on_every_register():
    # the protocol's kernels: axis 0 indexes the registers, axis q + 1 holds qubit q
    rng = np.random.default_rng(5)
    states = [random_state(rng, 3) for _ in range(4)]
    stack = np.stack([s.amps.reshape(2, 2, 2) for s in states])
    cases = [(sv.apply_h, apply_h, (q,)) for q in range(3)]
    cases += [(sv.apply_x, apply_x, (q,)) for q in range(3)]
    cases += [(sv.apply_z, apply_z, (q,)) for q in range(3)]
    cases += [(sv.apply_cnot, apply_cnot, qs) for qs in [(0, 1), (1, 2), (2, 0)]]
    for stacked, single, qubits in cases:
        out = stacked(stack, *(q + 1 for q in qubits))
        for row, s in zip(out, states):
            assert row.reshape(-1).tobytes() == single(s, *qubits).amps.tobytes()


def test_x_and_z_index_kernels_equal_their_matrices_through_the_tensordot_kernel():
    # apply_x flips its axis and apply_z negates index 1 of it; the oracle is
    # each matrix through _unitary1_axes. Bit for bit on amplitudes without
    # zeros; by value on {+-0, +-1, 0.5}^2 entries, where zero signs can differ
    values = [0.0, -0.0, 1.0, -1.0, 0.5]
    entries = [complex(re, im) for re in values for im in values]
    zeros = np.array(list(itertools.product(entries, repeat=2)))
    before = zeros.tobytes()
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(50, 2, 2, 2)) + 1j * rng.normal(size=(50, 2, 2, 2))
    for kernel, matrix in ((sv.apply_x, per_state_reference._X), (sv.apply_z, per_state_reference._Z)):
        for axis in (1, -1):
            got, want = kernel(zeros, axis), sv._unitary1_axes(zeros, axis, matrix)
            assert got.shape == want.shape == (625, 2) and np.array_equal(got, want)
        for axis in (1, 2, 3, -2):
            assert kernel(stack, axis).tobytes() == sv._unitary1_axes(stack, axis, matrix).tobytes()
    assert zeros.tobytes() == before  # the kernels work on copies


def test_basis_state_index_convention():
    # qubit 0 is the most significant bit: |010> sits at index 2
    s = basis_state(3, "010")
    assert s.amps[2] == 1.0
    assert np.sum(np.abs(s.amps)) == 1.0


def test_basis_state_rejects_bad_labels():
    with pytest.raises(ValueError):
        basis_state(3, "01")
    with pytest.raises(ValueError):
        basis_state(2, "02")


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0], dtype=complex))  # wrong length
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))  # not normalized
    with pytest.raises(ValueError):
        StateVector(0, np.array([1.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(9, np.zeros(512, dtype=complex))


def test_amps_are_read_only():
    s = basis_state(1, "0")
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_tensor_order_and_limit():
    # first factor occupies the most significant bits
    s = tensor(basis_state(1, "1"), basis_state(1, "0"))
    assert s.amps[2] == 1.0
    with pytest.raises(ValueError):
        tensor(random_state(np.random.default_rng(0), 5), random_state(np.random.default_rng(1), 4))


def test_single_qubit_gates_on_basis_states():
    plus = apply_h(basis_state(1, "0"), 0)
    assert np.allclose(plus.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=ATOL)
    assert np.allclose(apply_x(basis_state(1, "0"), 0).amps, [0, 1], atol=ATOL)
    assert np.allclose(apply_z(basis_state(1, "1"), 0).amps, [0, -1], atol=ATOL)


def test_gate_involutions():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = random_state(rng, 3)
        q = int(rng.integers(3))
        for gate in (apply_h, apply_x, apply_z):
            assert np.allclose(gate(gate(s, q), q).amps, s.amps, atol=ATOL)
        c, t = rng.choice(3, size=2, replace=False)
        assert np.allclose(apply_cnot(apply_cnot(s, c, t), c, t).amps, s.amps, atol=ATOL)


def test_norm_preservation_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        s = random_state(rng, n)
        for _ in range(12):
            which = rng.integers(4)
            q = int(rng.integers(n))
            if which == 3 and n > 1:
                t = int(rng.integers(n - 1))
                t = t if t < q else t + 1
                s = apply_cnot(s, q, t)
            else:
                s = (apply_h, apply_x, apply_z)[which % 3](s, q)
        assert np.isclose(np.vdot(s.amps, s.amps).real, 1.0, atol=ATOL)


def test_cnot_action_both_directions():
    assert np.allclose(apply_cnot(basis_state(2, "10"), 0, 1).amps, basis_state(2, "11").amps)
    assert np.allclose(apply_cnot(basis_state(2, "01"), 1, 0).amps, basis_state(2, "11").amps)
    assert np.allclose(apply_cnot(basis_state(2, "00"), 0, 1).amps, basis_state(2, "00").amps)
    with pytest.raises(ValueError):
        apply_cnot(basis_state(2, "00"), 1, 1)


def test_gates_are_linear():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s1, s2 = random_state(rng, 3), random_state(rng, 3)
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        combo = a * s1.amps + b * s2.amps
        combo = StateVector(3, combo / np.linalg.norm(combo))
        norm = np.linalg.norm(a * s1.amps + b * s2.amps)
        for gate, args in ((apply_h, (0,)), (apply_x, (1,)), (apply_z, (2,)), (apply_cnot, (0, 2))):
            lhs = gate(combo, *args).amps
            rhs = (a * gate(s1, *args).amps + b * gate(s2, *args).amps) / norm
            assert np.allclose(lhs, rhs, atol=ATOL)


def test_enumerate_branches_completeness():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = random_state(rng, n)
        k = int(rng.integers(1, n + 1))
        qubits = list(rng.choice(n, size=k, replace=False))
        branches = enumerate_branches(s, qubits)
        assert np.isclose(sum(b.probability for b in branches), 1.0, atol=ATOL)
        for b in branches:
            assert b.probability > 0
            assert isinstance(b, BranchOutcome)
            # post_state keeps the full register and is normalized
            assert b.post_state.n_qubits == n
            assert np.isclose(np.vdot(b.post_state.amps, b.post_state.amps).real, 1.0, atol=ATOL)


def test_enumerate_branches_skips_zero_probability():
    branches = enumerate_branches(basis_state(2, "10"), [0])
    assert len(branches) == 1
    assert branches[0].outcome_bits == "1"
    assert np.isclose(branches[0].probability, 1.0, atol=ATOL)


def test_branch_post_state_is_collapsed():
    s = apply_h(bell_pair(), 0)  # entangled, both qubits involved
    for b in enumerate_branches(s, [0]):
        # every surviving amplitude has qubit 0 equal to the outcome bit
        for i, amp in enumerate(b.post_state.amps):
            if abs(amp) > ATOL:
                assert (i >> 1) & 1 == int(b.outcome_bits)


def test_measure_sample_matches_branch_probabilities():
    # sampling consistency: outcome frequencies within 3 sigma binomial
    s = tensor(apply_h(basis_state(1, "0"), 0), basis_state(1, "0"))
    s = apply_cnot(s, 0, 1)  # bell pair, outcomes 00 and 11 at 1/2 each
    rng = np.random.default_rng(123)
    n_draws = 4000
    counts = {"00": 0, "11": 0}
    for _ in range(n_draws):
        bits, post = measure_sample(s, [0, 1], rng)
        counts[bits] += 1
    p = 0.5
    sigma = np.sqrt(n_draws * p * (1 - p))
    assert abs(counts["00"] - n_draws * p) < 3 * sigma
    assert counts["00"] + counts["11"] == n_draws


def test_measure_sample_collapses():
    s = bell_pair()
    bits, post = measure_sample(s, [0], np.random.default_rng(0))
    expect = basis_state(2, bits * 2)
    assert np.allclose(np.abs(post.amps), np.abs(expect.amps), atol=ATOL)


def test_collapse_residual():
    s = bell_pair()
    branches = enumerate_branches(s, [0])
    res = collapse_residual(branches[0].post_state, [0], branches[0].outcome_bits)
    assert res.n_qubits == 1
    assert np.allclose(res.amps, basis_state(1, branches[0].outcome_bits).amps, atol=ATOL)
    with pytest.raises(ValueError):
        collapse_residual(s, [0], "0")  # not collapsed, leakage on |11>


def test_fidelity_pure_phase_invariant():
    rng = np.random.default_rng(9)
    s = random_state(rng, 2)
    rotated = StateVector(2, np.exp(1j * 0.7) * s.amps)
    assert np.isclose(fidelity_pure(s, rotated), 1.0, atol=ATOL)
    with pytest.raises(ValueError):
        fidelity_pure(s, random_state(rng, 3))


def test_fidelity_orthogonal_states():
    assert np.isclose(fidelity_pure(basis_state(1, "0"), basis_state(1, "1")), 0.0, atol=ATOL)


def test_haar_amplitudes_normalized():
    rng = np.random.default_rng(21)
    for _ in range(100):
        psi = UnknownQubit.haar(rng)
        assert np.isclose(abs(psi.alpha) ** 2 + abs(psi.beta) ** 2, 1.0, atol=ATOL)
