"""The public surface stays what the package, the README and the acceptance
gate use: a public top-level function or class that only unit tests call
has no job in the program. The private names of `statevector` stay
inside it, and each checkpoint name is written once, in its schedule."""

import ast
import re
from pathlib import Path

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
