"""Every public function and class of the library has a caller outside the
tests, or an entry below saying why it stays.

A name counts as referenced when an identifier of that spelling appears in
``src/resspace`` or in the benchmark's modules outside the name's own
definition: a variable or call, an attribute, or a component of a dotted
string such as the benchmark's tracing targets.  The test is conservative:
a local variable that shares a public name hides it.

A second scan keeps the pairing of replay events with boards inside
``proofs.py``: the other modules read boards through ``proofs.walk``.  A
third keeps that walk the one place where a step is checked and applied:
no other module imports ``replay``, so no board reader reads a proof twice.
A fourth keeps the derivation builder the one owner of line lifetimes: no
other module reads its holder counts or its live lines.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "resspace").glob("*.py"))
BENCHMARK = sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)

# public names that nothing outside the tests reaches, each with its reason
ALLOWLIST = {
    "is_frugal": "acceptance criterion 12 checks make_frugal's output with it",
    "derive_dnf_from_cnf": "acceptance criterion 14 builds its k-DNF walk with it",
    "refute_dnf_pair": "acceptance criterion 14 refutes DNF pairs with it",
    "derive_implied_clause": "acceptance criterion 11 checks its length and space bounds",
    "is_satisfiable": "acceptance criterion 3 compares satisfiability with it",
    "evaluate": "the case-table oracle of the kernel tests and criterion 2",
    "graph_from_text": "reader of the documented graph format",
    "parse_substitution_comment": "reader of the documented DIMACS substitution comment",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def _referenced(tree) -> set[str]:
    out = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _DOTTED.match(node.value)
            ):
                names = set(node.value.split("."))
            else:
                continue
            out |= names - {own}
    return out


def _public_definitions() -> dict[str, str]:
    out = {}
    for path in LIBRARY:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    out[stmt.name] = path.name
    return out


def test_every_public_name_has_a_caller_or_a_reason():
    referenced = set()
    for path in LIBRARY + BENCHMARK:
        referenced |= _referenced(ast.parse(path.read_text()))
    defined = _public_definitions()
    unreached = {
        f"{module}:{name}" for name, module in defined.items() if name not in referenced
    }
    allowed = {f"{defined.get(name, '?')}:{name}" for name in ALLOWLIST}
    only_tests = sorted(unreached - allowed)
    assert not only_tests, f"public names reached only from tests: {only_tests}"
    stale = sorted(allowed - unreached)
    assert not stale, f"allowlist entries that are gone or have a caller: {stale}"


def _reads_outside_proofs(attrs) -> dict[str, list[str]]:
    """Per library module other than ``proofs.py``, its reads of the given
    attributes."""
    found = {}
    for path in LIBRARY:
        if path.name == "proofs.py":
            continue
        hits = [
            f"line {node.lineno}: .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in attrs
        ]
        if hits:
            found[path.name] = hits
    return found


def test_only_proofs_pairs_steps_with_boards():
    """Which event leads to which board is known to ``proofs.py`` alone:
    every other module reads the boards through ``proofs.walk``.  A replay
    keeps neither boards nor events, so a read of a ``configs`` or an
    ``events`` attribute is a second record of them."""
    found = _reads_outside_proofs(("configs", "events"))
    assert not found, f"boards paired with steps outside proofs.py: {found}"


def test_only_the_builder_owns_line_lifetimes():
    """A builder line's holders are counted by ``DerivationBuilder`` alone:
    the other modules hold and erase lines and read values through its
    methods, never through its ``holds`` or ``live`` tables."""
    found = _reads_outside_proofs(("holds", "live"))
    assert not found, f"builder tables read outside proofs.py: {found}"


def test_one_walk_checks_and_applies_every_step():
    """``proofs.walk`` alone calls the step checker and the applier, and
    the modules that read boards walk them instead of importing ``replay``."""
    callers = {}
    for path in LIBRARY:
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("_check_step", "_apply")
                ):
                    callers.setdefault(node.func.id, []).append(
                        f"{path.name}:{getattr(stmt, 'name', '?')}"
                    )
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "proofs":
                names = {alias.name for alias in node.names}
                assert "replay" not in names, f"{path.name} imports replay"
    assert callers == {"_check_step": ["proofs.py:walk"], "_apply": ["proofs.py:walk"]}
