"""No module of the package imports a name it never uses.

A stdlib ``ast`` check: a name bound by ``import`` or ``from ... import``
must be read somewhere in the module.  The package ``__init__`` is exempt,
since its imports are the names it exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "retword"


def unused_imports(source: str) -> list[str]:
    """Imported names of ``source`` that no expression reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_unused_names():
    source = "from __future__ import annotations\nimport os.path\nimport sys as system\nfrom math import ceil, floor\nx: ceil = floor(os.path.sep)\n"
    assert unused_imports(source) == ["system"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
