"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "icofridge"

# (module, name) pairs imported on purpose without a use
ALLOWED = {
    # the benchmark tests wrap cswap_evolve where the CLI module binds it
    ("cli", "cswap_evolve"),
}


def _unused(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in _unused(path) if (path.stem, name) not in ALLOWED]
    assert not unused, f"{path.name} imports {unused} without using them"


def test_allowlist_names_real_imports():
    # an allowlisted name that is no longer imported, or is now used, goes
    for module, name in ALLOWED:
        assert name in _unused(SRC / f"{module}.py"), (module, name)
