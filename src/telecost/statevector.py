"""Dense statevector simulation for small registers.

Conventions, fixed across the whole package:
  - registers hold 1..8 qubits, amplitudes are a dense complex128 array
  - qubit 0 is the MOST significant index bit, so for a 3-qubit register
    the amplitude of |q0 q1 q2> sits at index 4*q0 + 2*q1 + q2
  - states are immutable; every operation returns a new StateVector
  - the only state-equality notion used for physics checks is the
    phase-invariant fidelity |<a|b>|^2
  - validation happens at the public boundary: the StateVector(...)
    constructor and basis_state check size, finiteness and norm. Kernels
    whose output is valid by construction (tensor, and the registers the
    protocol interpreter builds) trust it and skip the checks.
  - the fixed gates apply_h/x/z and apply_cnot act on a stack of
    registers, one size-2 axis per qubit, and take any leading axes along,
    so `protocol` runs one gate over all its runs; X and Z are index
    kernels, H the private matrix kernel _unitary1_axes. No function here
    draws: `protocol` samples Alice's outcome as floor(4u). The per-state
    gates, sampling and collapse helpers the stacked path replaced, and the
    stacked Born-row sampler, are the test reference in
    tests/per_state_reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 8
ATOL = 1e-12

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state of an n-qubit register."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector must have length {2**self.n_qubits}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = float(np.real(np.vdot(amps, amps)))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state must be normalized, |norm^2 - 1| = {abs(norm - 1.0):.3e}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _trusted(cls, n_qubits: int, amps: np.ndarray) -> StateVector:
        """Unchecked build from a kernel's fresh, valid-by-construction
        complex array, which is taken over and made read-only."""
        s = object.__new__(cls)
        amps.flags.writeable = False
        object.__setattr__(s, "n_qubits", n_qubits)
        object.__setattr__(s, "amps", amps)
        return s


def basis_state(n_qubits: int, label: str) -> StateVector:
    """Computational basis state from a bit string, e.g. ``basis_state(3, "010")``."""
    if len(label) != n_qubits or any(c not in "01" for c in label):
        raise ValueError(f"label must be {n_qubits} chars of 0/1, got {label!r}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[int(label, 2)] = 1.0
    return StateVector(n_qubits, amps)


_BELL_PAIR = StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))


def bell_pair() -> StateVector:
    """The shared resource pair (|00> + |11>)/sqrt(2)."""
    return _BELL_PAIR


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; a's qubits become the most significant block."""
    n = a.n_qubits + b.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would need {n} qubits, limit is {MAX_QUBITS}")
    # the same bits as np.kron for vectors
    return StateVector._trusted(n, np.multiply.outer(a.amps, b.amps).reshape(-1))


def _unitary1_axes(t: np.ndarray, q: int, m: np.ndarray) -> np.ndarray:
    """Apply the 2x2 matrix m to axis q of a tensor of size-2 axes (unchecked)."""
    return np.moveaxis(np.tensordot(m, t, axes=([1], [q])), 0, q)


# The fixed gates of the protocol interpreter, on one axis of a stack of
# registers (unchecked), so `protocol` runs each op once over all its runs.


def apply_h(t: np.ndarray, axis: int) -> np.ndarray:
    return _unitary1_axes(t, axis, _H)


def apply_x(t: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(t, axis=axis).copy()


def apply_z(t: np.ndarray, axis: int) -> np.ndarray:
    out = t.copy()
    ones = np.moveaxis(out, axis, 0)[1:]  # a view of index 1 of the size-2 axis
    np.negative(ones, out=ones)
    return out


def apply_cnot(t: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip axis target where axis control is 1, on a copy."""
    sel: list = [slice(None)] * t.ndim
    sel[control] = 1
    out = t.copy()
    out[tuple(sel)] = np.flip(t, axis=target)[tuple(sel)]
    return out


@dataclass(frozen=True)
class BranchOutcome:
    """One projective measurement branch: the measured bits and their Born
    probability."""

    outcome_bits: str
    probability: float


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the phase-invariant overlap of two pure states."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"dimension mismatch: {a.n_qubits} vs {b.n_qubits} qubits")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
