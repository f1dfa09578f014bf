"""telecost: exact teleportation-protocol simulation with cost accounting.

The names below resolve on first use (PEP 562), each from its module, so
importing the package or its NumPy-free modules (`kinds`, `schedule`,
`cost`, `cli`) loads no NumPy.
"""

import importlib

_EXPORTS = {
    "cost": ("CostLedger", "CostModel", "LedgerEntry", "distill_step_map", "ideal_bits",
             "ledger_rows", "sweep_rows"),
    "expansions": ("ALL_EXPANSIONS", "Expansion", "load_expansions"),
    "kinds": ("ALICE", "BOB", "ProtocolKind", "Purpose"),
    "noise": ("DensityMatrix", "DistillRun", "NoisyTeleportReport", "distill_to_threshold",
              "run_noisy_teleport", "teleport_fidelity_noisy", "werner_state"),
    "protocol": ("EntangledInputReport", "ProtocolBranch", "ProtocolTrace", "UnknownQubit",
                 "enumerate_protocol", "kak_checkpoints", "kak_entangled_input_demo",
                 "run_protocol", "sqtp_checkpoints"),
    "statevector": ("BranchOutcome", "StateVector", "basis_state", "bell_pair",
                    "fidelity_pure", "tensor"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
