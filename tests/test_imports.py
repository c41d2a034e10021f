"""No module of the package imports a name it never uses, and the package
exports no name that only the tests use.

A stdlib ``ast`` check: a name bound by ``import`` or ``from ... import``
must be read somewhere in the module.  The package ``__init__`` is exempt,
since its imports are the names it exports; each of those must be read by
another module of the package or named in the README, apart from a short
allowlist with a reason for each.
"""

from __future__ import annotations

import ast
import re
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


# Exported although nothing in the package or the README reads them, each for
# a reason of its own.
EXPORTED_FOR_THEIR_OWN_SAKE = {
    "find_gamma": "the source paper's first step, which no other code holds",
    "return_words_of_prefix": "the return words of a finite host, acceptance criterion 4",
    "format_substitution": "the writer of the file format, for a planned `periodic --emit`",
}


def exported_names() -> list[str]:
    """The names ``retword/__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )


def test_every_export_is_read_by_the_package_or_the_readme():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    readme = set(re.findall(r"\w+", (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")))
    unread = [name for name in exported_names() if name not in read | readme]
    assert unread == sorted(EXPORTED_FOR_THEIR_OWN_SAKE)
