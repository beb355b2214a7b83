import ast
from pathlib import Path

import pytest

import spcheck
from spcheck import oracle
from spcheck.constraints import Constraint

PACKAGE = Path(spcheck.__file__).parent


def _imported_modules(path: Path) -> set:
    """Absolute names of every module ``path`` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "spcheck" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


ENGINES = ["spkey", "spfd", "tuplegen", "search", "matching"]


@pytest.mark.parametrize("module", ENGINES)
def test_engines_do_not_import_the_oracle(module):
    # The oracle is the independent reference the engines are compared
    # against, so no engine may share its code.
    imported = _imported_modules(PACKAGE / f"{module}.py")
    assert "spcheck.oracle" not in imported


def test_the_oracle_imports_no_engine():
    imported = _imported_modules(PACKAGE / "oracle.py")
    assert not imported & {f"spcheck.{m}" for m in ENGINES}


def test_the_oracle_dispatches_on_kind_through_its_table():
    # Every constraint kind has its KINDS entry, and no code path of the
    # oracle asks for a kind on its own.
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    called = {n.func.id for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert "isinstance" not in called
    assert set(oracle.KINDS) == set(Constraint.__subclasses__())
