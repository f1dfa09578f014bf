"""The public surface stays what the package, the README and the acceptance
gate use: a public top-level function or class that only unit tests call
has no job in the program. The private names of `statevector` stay
inside it, and each checkpoint name is written once, in its schedule.
The NumPy-free modules import no engine module when they are imported,
and the package still resolves every name it has exported."""

import ast
import re
import sys
from pathlib import Path

import pytest

import telecost
from telecost.expansions import ALL_EXPANSIONS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "telecost"
# ROADMAP item 1: `compare --trace` writes each run's ledger as ledger_rows
UNREFERENCED_ALLOWED = {"ledger_rows"}


def _identifiers(node):
    """Names a piece of code reads, as plain names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_has_a_caller():
    modules = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    # one identifier set per top-level statement, so a definition's own body is left out
    statements = [(stmt, _identifiers(stmt)) for tree in modules.values() for stmt in tree.body]
    docs = (ROOT / "README.md").read_text() + (ROOT / "tests" / "test_acceptance.py").read_text()
    orphans = []
    for module, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in UNREFERENCED_ALLOWED):
                continue
            used = any(node.name in ids for stmt, ids in statements if stmt is not node)
            if not used and not re.search(rf"\b{node.name}\b", docs):
                orphans.append(f"{module}:{node.name}")
    assert orphans == [], (
        f"public names with no caller in src/, README.md or tests/test_acceptance.py: {orphans}"
    )


def test_only_statevector_touches_its_private_names():
    # the gate matrices and axis kernels have one owner; other modules use the public gates
    leaks = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "statevector.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("statevector",
                                                                    "telecost.statevector"):
                leaks += [f"{path.name}:{a.name}" for a in node.names if a.name.startswith("_")]
    assert leaks == [], f"private statevector names imported elsewhere: {leaks}"


def test_every_checkpoint_name_is_written_once_in_src():
    # the schedules own the names; expansions and the interpreter derive them
    constants = [node.value for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Constant)]
    counts = {name: constants.count(name) for name in ALL_EXPANSIONS if name != "epr_pair"}
    assert counts == dict.fromkeys(counts, 1), f"checkpoint names written other than once: {counts}"


# `sweep`, the CLI's set-up and the package import only these modules
NUMPY_FREE = ("__init__.py", "cli.py", "cost.py", "kinds.py", "schedule.py")
ENGINE = {"numpy", "protocol", "statevector", "noise", "expansions"}


def _imports_at_import_time(tree):
    """Every module an import outside a function body names, dotted."""
    pending, names = list(tree.body), []
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module] if node.module else [alias.name for alias in node.names]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending += ast.iter_child_nodes(node)
    return names


def test_the_numpy_free_modules_import_no_engine_module_at_import_time():
    leaks = [f"{module}:{name}" for module in NUMPY_FREE
             for name in _imports_at_import_time(ast.parse((SRC / module).read_text()))
             if ENGINE.intersection(name.split("."))]
    assert leaks == [], f"NumPy-free modules importing the engine at import time: {leaks}"


# every name telecost/__init__.py bound when it imported all its modules at once
PACKAGE_NAMES = {
    "CostLedger", "CostModel", "LedgerEntry", "ideal_bits", "ledger_rows",
    "ALL_EXPANSIONS", "Expansion", "load_expansions",
    "ALICE", "BOB", "ProtocolKind", "Purpose",
    "DensityMatrix", "DistillRun", "NoisyTeleportReport", "distill_step_map",
    "distill_to_threshold", "run_noisy_teleport", "sweep_rows", "teleport_fidelity_noisy",
    "werner_state",
    "EntangledInputReport", "ProtocolBranch", "ProtocolTrace", "UnknownQubit",
    "enumerate_protocol", "kak_checkpoints", "kak_entangled_input_demo", "run_protocol",
    "sqtp_checkpoints",
    "BranchOutcome", "StateVector", "basis_state", "bell_pair", "fidelity_pure", "tensor",
}


def test_the_package_resolves_every_name_it_has_exported():
    namespace = {}
    exec("from telecost import *", namespace)
    assert set(namespace) - {"__builtins__"} == PACKAGE_NAMES == set(telecost.__all__)
    for name in PACKAGE_NAMES:
        value = getattr(telecost, name)
        assert value is namespace[name]
        if hasattr(value, "__module__") and value.__module__.startswith("telecost."):
            assert value is vars(sys.modules[value.__module__])[name]
    assert telecost.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="'telecost' has no attribute 'no_such_name'"):
        telecost.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from telecost import no_such_name", {})
