"""telecost: exact teleportation-protocol simulation with cost accounting."""

from .cost import (
    CostLedger,
    CostModel,
    LedgerEntry,
    ideal_bits,
    ledger_rows,
)
from .expansions import ALL_EXPANSIONS, Expansion, load_expansions
from .kinds import ALICE, BOB, ProtocolKind, Purpose
from .noise import (
    DensityMatrix,
    DistillRun,
    NoisyTeleportReport,
    distill_step_map,
    distill_to_threshold,
    run_noisy_teleport,
    sweep_rows,
    teleport_fidelity_noisy,
    werner_state,
)
from .protocol import (
    EntangledInputReport,
    ProtocolBranch,
    ProtocolTrace,
    UnknownQubit,
    enumerate_protocol,
    kak_checkpoints,
    kak_entangled_input_demo,
    run_protocol,
    sqtp_checkpoints,
)
from .statevector import (
    BranchOutcome,
    StateVector,
    basis_state,
    bell_pair,
    fidelity_pure,
    tensor,
)

__version__ = "0.1.0"
