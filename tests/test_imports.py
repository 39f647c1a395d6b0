"""No module in src/, tests/ or bench/ imports a name it never uses (a stdlib stand-in for a linter)."""

import ast

import pytest

from tests.conftest import REPO_ROOT

SOURCES = [path for folder in ("src", "tests", "bench") for path in sorted((REPO_ROOT / folder).rglob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_check_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(pi, xml.dom)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "osp (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
