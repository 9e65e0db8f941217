"""src/ holds what runs: every module-level function, class and assigned
constant of the package (dunder names aside) is referenced somewhere in src/
outside its own definition, or exported from hypersusy/__init__.  Test-only
references live in tests/oracles.py.  Index and point arguments are refused
in one place, families."""

import ast
from pathlib import Path

import hypersusy

SRC = Path(hypersusy.__file__).parent

# defined in src/ with no caller there, each for its reason
ALLOWED = {
    "riccati.partner_eigenfunction": "public in the README; the partner's Gram-matrix check "
                                     "is to call it",
    "ladder.apply_hamiltonian": "a public ladder map in the README, next to raise_order and "
                                "lower_order; test_ladder calls it",
}


def _identifiers(node):
    """Every name and attribute referenced under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _defined_names(stmt):
    """The names a top-level statement defines: a def or class, or each name
    an assignment binds, dunder names (such as __version__) exempt."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and not (n.id.startswith("__") and n.id.endswith("__"))]


def uncalled_definitions():
    """module.name of each top-level def, class or assigned constant that src/
    never references elsewhere."""
    trees = _trees()
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names}
    # (module, index of the top-level statement) -> identifiers it references
    refs = {(mod, i): _identifiers(stmt)
            for mod, tree in trees.items() for i, stmt in enumerate(tree.body)}
    dead = set()
    for mod, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for name in _defined_names(stmt):
                used = any(name in ids for key, ids in refs.items() if key != (mod, i))
                if not used and name not in exported:
                    dead.add(f"{mod}.{name}")
    return dead


def test_every_src_definition_has_a_caller_in_src():
    assert uncalled_definitions() == set(ALLOWED)


# raised only by families.require_index and families.require_open
_ARGUMENT_ERRORS = {"IndexViolation", "OutOfDomain"}


def argument_refusals_outside_families():
    """module:line of each `raise IndexViolation(...)` or `raise OutOfDomain(...)`
    in src/ outside families.py."""
    return {f"{mod}:{node.lineno}" for mod, tree in _trees().items() if mod != "families"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and _identifiers(node.exc.func) & _ARGUMENT_ERRORS}


def test_only_families_refuses_an_index_or_a_point():
    assert argument_refusals_outside_families() == set()
