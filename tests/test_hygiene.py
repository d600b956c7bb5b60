"""Source hygiene: no module of the package imports a name it never uses.

``__init__.py`` is exempt, because its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import tracecodes

PACKAGE_DIR = Path(tracecodes.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\n\nprint(lcm(2, 3), 'os')\n"
    assert unused_imports(source) == ["gcd (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    assert unused_imports(path.read_text()) == []
