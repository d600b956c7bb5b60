"""Source hygiene: no module of the package imports a name it never uses,
and no module-level private name is defined that nothing refers to.

``__init__.py`` is exempt from the import check, because its imports are
the public re-exports.  A private name counts as referred to when it
appears, outside its own definition, in any Python file under ``src/``,
``tests/``, ``bench/`` or ``demos/`` (the benchmark tracer binds some of
them by name, as strings).
"""

import ast
import re
from pathlib import Path

import pytest

import tracecodes

PACKAGE_DIR = Path(tracecodes.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
REPO_DIR = Path(__file__).resolve().parent.parent
CORPUS_DIRS = ("src", "tests", "bench", "demos")


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


def private_definitions(source: str) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore, not dunder) that a module defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def unreferenced_private_names(source: str, corpus: list[str]) -> list[str]:
    """Private names defined in `source` that occur only once, at their
    definition, in all of the corpus texts (which include `source`)."""
    def occurrences(name):
        word = re.compile(rf"\b{re.escape(name)}\b")
        return sum(len(word.findall(text)) for text in corpus)
    return sorted(n for n in private_definitions(source) if occurrences(n) <= 1)


def test_detector_flags_an_unreferenced_private_name():
    source = ("_LIMIT = 3\n_cache: dict = {}\n__all__ = []\n\n"
              "def _helper():\n    return _LIMIT\n\n"
              "def _bound():\n    pass\n\nclass _Spare:\n    pass\n")
    other = 'wrap(module, "_bound")\nmodule._cache.clear()\n'
    assert unreferenced_private_names(source, [source, other]) == ["_Spare", "_helper"]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_module_private_names_are_all_referenced(path):
    corpus = [f.read_text() for d in CORPUS_DIRS for f in (REPO_DIR / d).rglob("*.py")]
    assert unreferenced_private_names(path.read_text(), corpus) == []
