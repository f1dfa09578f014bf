"""Property tests: the closed-form recurrence, the density gate kernel,
the Werner teleport fidelity and branch recovery, each against an
independent reference; and the states that kernels build unchecked, which
must still pass the public constructors' checks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_dense
from telecost.cost import CostModel, ideal_bits
from telecost.kinds import ProtocolKind, Purpose
from telecost.noise import (
    DensityMatrix,
    apply_gate_density,
    density_from_pure,
    density_tensor,
    distill_step_map,
    teleport_fidelity_noisy,
    werner_state,
)
from telecost.protocol import (
    SCHEDULES,
    UnknownQubit,
    enumerate_protocol,
    kak_checkpoints,
    run_protocol,
    sqtp_checkpoints,
)
from telecost.statevector import StateVector

TOL = 1e-12
PROPERTY = settings(deadline=None, derandomize=True, max_examples=200)

unit_f = st.floats(min_value=0.0, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
GATES_1Q = {"H": oracle_dense.H, "X": oracle_dense.X, "Z": oracle_dense.Z}


@PROPERTY
@given(unit_f)
def test_distill_map_equals_dense_oracle(f):
    p, f_out = distill_step_map(f)
    p_ref, f_ref = oracle_dense.oracle_distill_map(f)
    assert abs(p - p_ref) < TOL
    assert abs(f_out - f_ref) < TOL


@st.composite
def gate_on_density(draw):
    """A random n-qubit density matrix AA^dagger/tr, n in 1..4, with a gate
    and a valid qubit choice for it."""
    n = draw(st.integers(min_value=1, max_value=4))
    gates = ["H", "X", "Z"] + (["CNOT"] if n > 1 else [])
    gate = draw(st.sampled_from(gates))
    if gate == "CNOT":
        qubits = tuple(draw(st.permutations(range(n)))[:2])
    else:
        qubits = (draw(st.integers(min_value=0, max_value=n - 1)),)
    rng = np.random.default_rng(draw(seeds))
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return n, gate, qubits, rho / np.real(np.trace(rho))


@PROPERTY
@given(gate_on_density())
def test_apply_gate_density_equals_embedded_unitary(case):
    n, gate, qubits, rho = case
    if gate == "CNOT":
        u = oracle_dense.embed_cnot(n, *qubits)
    else:
        u = oracle_dense.embed_1q(n, qubits[0], GATES_1Q[gate])
    got = apply_gate_density(DensityMatrix(n, rho), gate, qubits)
    assert np.max(np.abs(got.mat - u @ rho @ u.conj().T)) < TOL


@PROPERTY
@given(unit_f, seeds)
def test_werner_teleport_fidelity_is_two_f_plus_one_over_three(f, seed):
    psi = UnknownQubit.haar(np.random.default_rng(seed))
    channel = werner_state(f)
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        assert abs(teleport_fidelity_noisy(kind, psi, channel) - (2 * f + 1) / 3) < TOL


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


def assert_valid_and_frozen(state) -> None:
    """A state built unchecked passes the public constructor and is read-only."""
    if isinstance(state, StateVector):
        StateVector(state.n_qubits, state.amps)
        assert not state.amps.flags.writeable
    else:
        DensityMatrix(state.n_qubits, state.mat)
        assert not state.mat.flags.writeable


@PROPERTY
@given(haar_angles, seeds, unit_f)
def test_kernel_built_states_revalidate_and_stay_read_only(angles, seed, f):
    psi = qubit_from_angles(angles)
    states = [*sqtp_checkpoints(psi).values(), *kak_checkpoints(psi).values()]
    for kind in (ProtocolKind.SQTP, ProtocolKind.KAK):
        states.append(run_protocol(kind, psi, np.random.default_rng(seed)).final_bob_state)
        for branch in enumerate_protocol(kind, psi):
            states += [branch.outcome.post_state, branch.bob_state]
        rho = density_tensor(density_from_pure(psi.to_statevector()), werner_state(f))
        states.append(rho)
        for _party, gate, qubits, _name in SCHEDULES[kind].ops:
            if gate != "transfer":
                rho = apply_gate_density(rho, gate, qubits)
                states.append(rho)
    for state in states:
        assert_valid_and_frozen(state)
