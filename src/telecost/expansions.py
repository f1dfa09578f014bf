"""Golden register expansions for protocol verification.

The shipped data file holds, for each named checkpoint of both protocols,
the exact amplitude of every basis ket as a symbolic coefficient from
{+-1, +-1/sqrt2, +-1/2} times one of {alpha, beta, 1}. Instantiating the
table with concrete amplitudes gives reference vectors an engine run must
match componentwise. Eleven expansions are shipped: five for the standard
protocol (EPR pair, initial product, after CNOT, after H, branch form)
and six for the chained-XOR protocol (initial, after each XOR, after H,
branch form, two-class form). In `verify`'s order, they are "epr_pair"
and then the `checkpoints` of each schedule in `schedule.SCHEDULES`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .kinds import ProtocolKind
from .schedule import SCHEDULES, _EPR_PAIR

_COEFF_VALUES = {
    "1": 1.0,
    "-1": -1.0,
    "1/2": 0.5,
    "-1/2": -0.5,
    "1/sqrt2": 1.0 / np.sqrt(2.0),
    "-1/sqrt2": -1.0 / np.sqrt(2.0),
}

ALL_EXPANSIONS = (_EPR_PAIR, *SCHEDULES[ProtocolKind.SQTP].checkpoints,
                  *SCHEDULES[ProtocolKind.KAK].checkpoints)


@dataclass(frozen=True)
class Expansion:
    name: str
    n_qubits: int
    terms: tuple[tuple[str, str, str], ...]  # (basis, coeff token, var)

    def instantiate(self, alpha: complex | np.ndarray, beta: complex | np.ndarray) -> np.ndarray:
        """Reference amplitude vector for concrete input amplitudes; arrays
        of alpha and beta give one vector per entry, along the last axis."""
        vec = np.zeros(np.broadcast(alpha, beta).shape + (2**self.n_qubits,), dtype=complex)
        var_values = {"alpha": alpha, "beta": beta, "1": 1.0}
        for basis, coeff, var in self.terms:
            vec[..., int(basis, 2)] += _COEFF_VALUES[coeff] * var_values[var]
        return vec


def load_expansions(path: str | Path | None = None) -> dict[str, Expansion]:
    """Load the golden table, from `path` if given, else the shipped file."""
    if path is None:
        data = json.loads(resources.files("telecost").joinpath("data/expansions.json").read_text())
    else:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ValueError(f"cannot read golden file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"golden table must be a JSON object, got {type(data).__name__}")
    table: dict[str, Expansion] = {}
    for name, entry in data.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{name}: entry must be a JSON object, got {type(entry).__name__}")
        terms = []
        try:
            size = 2 if name == _EPR_PAIR else 3
            if entry["n_qubits"] != size:
                raise ValueError(f"{name}: n_qubits must be {size}, got {entry['n_qubits']!r}")
            if not isinstance(entry["terms"], list):
                raise ValueError(f"{name}: terms must be a list, got {entry['terms']!r}")
            for t in entry["terms"]:
                if not isinstance(t, dict) or not all(isinstance(v, str) for v in t.values()):
                    raise ValueError(f"{name}: term {t!r} must be an object of strings")
                if t["coeff"] not in _COEFF_VALUES:
                    raise ValueError(f"{name}: unknown coefficient token {t['coeff']!r}")
                if t["var"] not in ("alpha", "beta", "1"):
                    raise ValueError(f"{name}: unknown variable {t['var']!r}")
                if len(t["basis"]) != entry["n_qubits"] or any(c not in "01" for c in t["basis"]):
                    raise ValueError(f"{name}: bad basis label {t['basis']!r}")
                terms.append((t["basis"], t["coeff"], t["var"]))
            table[name] = Expansion(name, int(entry["n_qubits"]), tuple(terms))
        except KeyError as exc:
            raise ValueError(f"{name}: entry has no field {exc}") from exc
    missing = [n for n in ALL_EXPANSIONS if n not in table]
    if missing:
        raise ValueError(f"golden table is missing expansions: {missing}")
    return table
