"""Exact interpreter of the protocol schedules over Q(sqrt2), a test oracle.

Every amplitude the two schedules produce from psi (x) Phi+ is a sum of
alpha and beta with coefficients a + b*sqrt2, a and b rational, because
the gates are H, X, Z and CNOT. So this file runs each schedule's ops with
no rounding at all: a coefficient is a pair (a, b) of Fractions, and a
register is a dict from (basis label, variable) to a nonzero coefficient,
the variable one of "alpha", "beta" and "1". Only the schedules' ops and
correction tables come from the package, as data; the gates are written
out here, so a golden entry or a correction that the engine and this file
both accept does not rest on float tolerance.
"""

from __future__ import annotations

from fractions import Fraction

Coeff = tuple[Fraction, Fraction]  # (a, b) is a + b*sqrt2
Register = dict[tuple[str, str], Coeff]

ZERO: Coeff = (Fraction(0), Fraction(0))
# the golden file's coefficient tokens, exactly: 1/sqrt2 is sqrt2/2
TOKENS: dict[str, Coeff] = {
    "1": (Fraction(1), Fraction(0)),
    "-1": (Fraction(-1), Fraction(0)),
    "1/2": (Fraction(1, 2), Fraction(0)),
    "-1/2": (Fraction(-1, 2), Fraction(0)),
    "1/sqrt2": (Fraction(0), Fraction(1, 2)),
    "-1/sqrt2": (Fraction(0), Fraction(-1, 2)),
}


def add(x: Coeff, y: Coeff) -> Coeff:
    return x[0] + y[0], x[1] + y[1]


def mul(x: Coeff, y: Coeff) -> Coeff:
    """(a + b sqrt2)(c + d sqrt2) = (ac + 2bd) + (ad + bc) sqrt2."""
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _flip(label: str, q: int) -> str:
    return label[:q] + "10"[int(label[q])] + label[q + 1:]


def apply(register: Register, gate: str, qubits: tuple[int, ...]) -> Register:
    """One schedule op on an exact register; "transfer" moves a qubit
    between parties and leaves the amplitudes as they are."""
    out: Register = {}

    def put(label: str, var: str, c: Coeff) -> None:
        out[label, var] = add(out.get((label, var), ZERO), c)

    for (label, var), c in register.items():
        if gate == "transfer":
            put(label, var, c)
        elif gate == "X":
            put(_flip(label, qubits[0]), var, c)
        elif gate == "Z":
            put(label, var, mul(TOKENS["-1" if label[qubits[0]] == "1" else "1"], c))
        elif gate == "H":  # |0> -> (|0> + |1>)/sqrt2, |1> -> (|0> - |1>)/sqrt2
            q = qubits[0]
            c = mul(TOKENS["1/sqrt2"], c)
            put(label[:q] + "0" + label[q + 1:], var, c)
            put(label[:q] + "1" + label[q + 1:], var, mul(TOKENS["-1"], c) if label[q] == "1" else c)
        elif gate == "CNOT":
            control, target = qubits
            put(_flip(label, target) if label[control] == "1" else label, var, c)
        else:
            raise ValueError(f"no exact gate {gate!r}")
    return {key: c for key, c in out.items() if c != ZERO}


def epr_pair() -> Register:
    """The resource pair Phi+ = (|00> + |11>)/sqrt2 on its own."""
    return {(pair, "1"): TOKENS["1/sqrt2"] for pair in ("00", "11")}


def initial_register() -> Register:
    """psi (x) Phi+ on q0, q1 and q2, psi = alpha|0> + beta|1>."""
    return {(bit + pair, var): c for bit, var in (("0", "alpha"), ("1", "beta"))
            for (pair, _), c in epr_pair().items()}


def run_schedule(schedule) -> dict[str, Register]:
    """Every named register of one schedule run exactly from the initial
    register: the initial name, each named op's and the final names'."""
    register = initial_register()
    named = {schedule.initial: register}
    for _party, gate, qubits, name in schedule.ops:
        register = apply(register, gate, qubits)
        if name is not None:
            named[name] = register
    named.update(dict.fromkeys(schedule.final, register))
    return named


def golden_register(entry: dict) -> Register:
    """One golden-file entry as an exact register, each term its own key."""
    register = {(t["basis"], t["var"]): TOKENS[t["coeff"]] for t in entry["terms"]}
    if len(register) != len(entry["terms"]):
        raise ValueError("a golden entry names one (basis, variable) twice")
    return register


def bob_residual(register: Register, bits: str) -> Register:
    """Bob's qubit where Alice reads `bits` on q0 and q1, unnormalised, as
    a 1-qubit register."""
    return {(label[2], var): c for (label, var), c in register.items() if label[:2] == bits}
