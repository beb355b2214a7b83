import ast
from pathlib import Path

import pytest

import spcheck

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


@pytest.mark.parametrize("module", ["spkey", "spfd", "tuplegen", "search", "matching"])
def test_engines_do_not_import_the_oracle(module):
    # The oracle is the independent reference the engines are compared
    # against, so no engine may share its code.
    imported = _imported_modules(PACKAGE / f"{module}.py")
    assert "spcheck.oracle" not in imported
