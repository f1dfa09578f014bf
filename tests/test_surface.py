"""The public surface stays what the package, the README and the acceptance
gate use: a public top-level function or class, or a public method of a
public class, that only unit tests call has no job in the program, and a
caller counts only while it has a caller itself. The private names of
`statevector` stay inside it, and each checkpoint name is written once, in
its schedule; three functions of `protocol` run a schedule, `verify_stack`
the one register-and-branch evaluator among them.
The NumPy-free modules import no engine module, and none of `dataclasses`,
`inspect` and `json`, when they are imported; their records, namedtuples,
keep a frozen dataclass's repr, immutability, copies, pickles and checks.
The package still resolves every name it has exported."""

import ast
import copy
import itertools
import pickle
import re
import sys
from pathlib import Path

import pytest

import telecost
from telecost.cli import MAX_ROUNDS, RunConfig
from telecost.cost import CostModel, LedgerEntry
from telecost.expansions import ALL_EXPANSIONS
from telecost.kinds import ALICE, BOB, ProtocolKind, Purpose
from telecost.schedule import (MAX_RUNS, SCHEDULES, CorrectionApplied, GateApplied, Measured,
                               MessageSent, QubitTransferred, Schedule)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "telecost"


def _identifiers(node):
    """Names a piece of code reads, as plain names or as attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _public(body):
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _pieces(tree):
    """(owner, identifiers) of each piece of a module: a public top-level
    function or a public method owns its own code, a public class the rest
    of its own, and owner None marks code that always counts."""
    public = _public(tree.body)
    for stmt in tree.body:
        if stmt not in public:
            yield None, _identifiers(stmt)
        elif isinstance(stmt, ast.FunctionDef):
            yield stmt, _identifiers(stmt)
        else:
            methods = _public(stmt.body)
            rest = [*stmt.bases, *stmt.keywords, *stmt.decorator_list,
                    *(member for member in stmt.body if member not in methods)]
            yield stmt, set().union(*map(_identifiers, rest))
            yield from ((method, _identifiers(method)) for method in methods)


def test_every_public_definition_has_a_caller():
    modules = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    pieces = [piece for tree in modules.values() for piece in _pieces(tree)]
    docs = (ROOT / "README.md").read_text() + (ROOT / "tests" / "test_acceptance.py").read_text()
    # every public function and class, and every public method of a public class
    labels = {}
    for module, tree in modules.items():
        for node in _public(tree.body):
            labels[node] = f"{module}:{node.name}"
            if isinstance(node, ast.ClassDef):
                labels.update((m, f"{module}:{node.name}.{m.name}") for m in _public(node.body))
    # a caller counts only while it has a caller itself
    live = set(labels)
    while dead := {node for node in live if not re.search(rf"\b{node.name}\b", docs)
                   and not any(node.name in ids for owner, ids in pieces
                               if owner is not node and (owner is None or owner in live))}:
        live -= dead
    orphans = sorted(labels[node] for node in set(labels) - live)
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
    counts = {name: constants.count(name) for name in ALL_EXPANSIONS}
    assert counts == dict.fromkeys(counts, 1), f"checkpoint names written other than once: {counts}"


def test_protocol_runs_its_schedules_in_three_functions_only():
    # verify_stack is the one register-and-branch evaluator, which
    # run_protocol, the checkpoints and enumerate_protocol read; only the
    # channel response and the entangled-input probe run a schedule besides
    tree = ast.parse((SRC / "protocol.py").read_text())
    callers = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Name) and call.func.id == "_evolve"}
    assert callers == {"verify_stack", "pair_response", "kak_entangled_input_demo"}


# `sweep`, the CLI's set-up and the package import only these modules
NUMPY_FREE = ("__init__.py", "cli.py", "cost.py", "kinds.py", "schedule.py")
ENGINE = {"numpy", "protocol", "statevector", "noise", "expansions"}
# dataclasses loads inspect, ast, dis and tokenize; only verify and compare print JSON
BOOKKEEPING = {"dataclasses", "inspect", "json"}


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
             if (ENGINE | BOOKKEEPING).intersection(name.split("."))]
    assert leaks == [], f"NumPy-free modules importing the engine at import time: {leaks}"


# one record of each kind the CLI's import path declares, and its first field
RECORDS = [
    (GateApplied(ALICE, "H", (0,)), "party"),
    (QubitTransferred(ALICE, BOB, 2), "src"),
    (Measured(ALICE, (0, 1), "01"), "party"),
    (MessageSent(ALICE, BOB, "0", Purpose.TELEPORT), "src"),
    (CorrectionApplied(BOB, 2, ("Z", "X")), "party"),
    (SCHEDULES[ProtocolKind.SQTP], "initial"),
    (LedgerEntry(ALICE, BOB, 2, Purpose.TELEPORT), "sender"),
    (CostModel(4, ProtocolKind.KAK), "dimension"),
    (RunConfig("compare", noise_f=0.8, distill_target=0.9), "command"),
]


@pytest.mark.parametrize("record, first", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_frozen_and_survive_copies_and_pickles(record, first):
    for name in (first, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)


def test_record_reprs_are_the_dataclass_text():
    assert repr(GateApplied(ALICE, "H", (0,))) == "GateApplied(party='alice', gate='H', qubits=(0,))"
    assert repr(RunConfig("sweep")) == (
        "RunConfig(command='sweep', protocol='both', n_runs=20, seed=0, noise_f=None, "
        "distill_target=0.95, max_rounds=64, fmt='text', out=None, golden=None, f_min=0.55, "
        "f_max=0.95, f_step=0.1)")
    # a schedule shows its five inputs, not what the walk derives from them
    assert repr(SCHEDULES[ProtocolKind.KAK]) == (
        "Schedule(initial='kak_initial', ops=(('alice', 'CNOT', (0, 1), 'kak_after_xor1'), "
        "('alice', 'CNOT', (1, 2), 'kak_after_xor2'), ('alice', 'transfer', (2,), None), "
        "('alice', 'H', (0,), 'kak_after_h')), final=('kak_branch_form', 'kak_two_class_form'), "
        "announced=1, corrections={'0': (), '1': ('Z',)})")


KAK_TABLE = {"0": (), "1": ("Z",)}
# (record, positional arguments, keyword arguments, the ValueError's message)
CHECKS = [
    (LedgerEntry, (ALICE, BOB, 0, Purpose.LOCC), {}, "bits must be a positive integer"),
    (LedgerEntry, (ALICE, BOB, 1.5, Purpose.LOCC), {}, "bits must be a positive integer"),
    (LedgerEntry, (BOB, BOB, 1, Purpose.LOCC), {}, "sender and receiver must differ"),
    (CostModel, (6, ProtocolKind.SQTP), {}, "dimension must be a power of two"),
    (CostModel, (1, ProtocolKind.KAK), {}, "dimension must be a power of two"),
    (Schedule, ("s", ((BOB, "H", (0,), None),), (), 1, KAK_TABLE), {}, "bob cannot H qubit 0"),
    (Schedule, ("s", ((ALICE, "H", (0,), None),), (), 1, KAK_TABLE), {},
     "Alice must end holding q0 and q1 and Bob q2"),
    (RunConfig, ("compare",), {"protocol": "quantum"}, "protocol must be sqtp, kak or both"),
    (RunConfig, ("compare",), {"n_runs": 0}, "--runs must be in"),
    (RunConfig, ("verify",), {"n_runs": MAX_RUNS + 1}, "--runs must be in"),
    (RunConfig, ("compare",), {"seed": -1}, "--seed must be >= 0"),
    (RunConfig, ("compare",), {"noise_f": 1.5}, r"--noise-f must be in \[0, 1\]"),
    (RunConfig, ("compare",), {"distill_target": 0.9}, "--distill-target requires --noise-f"),
    (RunConfig, ("sweep",), {"distill_target": 0.0}, r"--distill-target must be in \(0, 1\]"),
    (RunConfig, ("compare",), {"noise_f": 0.5, "distill_target": 0.9}, "cannot be distilled"),
    (RunConfig, ("sweep",), {"max_rounds": MAX_ROUNDS + 1}, "--max-rounds must be in"),
    (RunConfig, ("sweep",), {"fmt": "json"}, "sweep --format must be in"),
]


@pytest.mark.parametrize("record, args, kwargs, message", CHECKS,
                         ids=[f"{c[0].__name__}-{i}" for i, c in enumerate(CHECKS)])
def test_every_record_check_still_fires(record, args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        record(*args, **kwargs)


def test_events_of_different_kinds_never_compare_equal():
    # events are tuples, and in every pair of kinds of one length some position
    # holds a str in one and a tuple or int in the other, so no values make them equal
    values = {str: ("alice", "bob", "H", "01"), tuple: ((0,), (2,), ("Z",)), int: (0, 2),
              Purpose: tuple(Purpose)}
    fields = {GateApplied: (str, str, tuple), QubitTransferred: (str, str, int),
              Measured: (str, tuple, str), MessageSent: (str, str, str, Purpose),
              CorrectionApplied: (str, int, tuple)}
    events = [kind(*args) for kind, types in fields.items()
              for args in itertools.product(*map(values.get, types))]
    events += [step for schedule in SCHEDULES.values() for step in schedule.steps]
    clashes = [(a, b) for a, b in itertools.combinations(events, 2)
               if type(a) is not type(b) and a == b]
    assert clashes == []


# every name telecost/__init__.py bound when it imported all its modules at once
PACKAGE_NAMES = {
    "CostLedger", "CostModel", "LedgerEntry", "ideal_bits",
    "ALL_EXPANSIONS", "Expansion", "load_expansions",
    "ALICE", "BOB", "ProtocolKind", "Purpose",
    "DensityMatrix", "NoisyTeleportReport", "distill_step_map", "run_noisy_teleport",
    "sweep_rows", "teleport_fidelity_noisy", "werner_state",
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
