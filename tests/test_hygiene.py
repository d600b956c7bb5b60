"""Source hygiene: no module of the package imports a name it never uses,
no module-level private name is defined that nothing refers to, and no
public function, class, method or property exists only for the tests.

``__init__.py`` is exempt from the import check, because its imports are
the public re-exports.  A private name counts as referred to when it
appears, outside its own definition, in any Python file under ``src/``,
``tests/``, ``bench/`` or ``demos/`` (the benchmark tracer binds some of
them by name, as strings).  A public name counts as used when the package
refers to it outside its own definition and ``__init__.py``, or a file
under ``demos/`` or ``bench/`` does; a method or property counts as used
wherever its bare name occurs there.  Test-only oracles live in
``tests/oracles.py``.
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


#: Public names that only the tests call, each with the reason it stays.
TEST_ONLY_PUBLIC = {
    "construction.evaluate": "the evaluation map that defines a codeword; "
                             "the streaming oracle and the tests read it",
    "ring.frobenius": "tests state that Frobenius is a ring automorphism of order m",
    "ring.classify": "tests state the partition of the ring into its four classes",
}


def identifiers(tree, skip=None) -> set[str]:
    """Names, attributes, imported names and string constants in `tree`,
    leaving out the subtree `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def public_definitions(tree) -> list[tuple[str, ast.AST]]:
    """("name", node) for each public module-level function or class of
    `tree`, and ("Class.name", node) for each public method or property of
    its module-level classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{member.name}", member) for member in node.body
                         if isinstance(member, ast.FunctionDef)
                         and not member.name.startswith("_"))
    return found


def unreferenced_public_names(modules: dict[str, str], outside: list[str]) -> list[str]:
    """"module.name" (or "module.Class.name") for each public definition of
    the `modules` sources (module name -> source) that neither those
    modules, outside its own definition, nor the `outside` sources refer to.
    A member counts as referred to wherever its bare name occurs."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used_outside = set().union(*(identifiers(ast.parse(text)) for text in outside))
    flagged = []
    for module, tree in trees.items():
        used = used_outside.union(*(identifiers(other) for name, other in trees.items()
                                    if name != module))
        for qualname, node in public_definitions(tree):
            if node.name not in used and node.name not in identifiers(tree, skip=node):
                flagged.append(f"{module}.{qualname}")
    return sorted(flagged)


def test_detector_flags_a_test_only_public_name():
    modules = {
        "a": ("def used():\n    pass\n\ndef spare(n):\n    return spare(n - 1)\n\n"
              "def bound():\n    pass\n\nclass Report:\n    pass\n\n"
              "def _private():\n    pass\n"),
        "b": "from .a import used\n\ndef run():\n    return used()\n",
    }
    outside = ['wrap(module, "bound")\n', "print(b.run, a.Report)\n"]
    assert unreferenced_public_names(modules, outside) == ["a.spare"]


def test_detector_flags_a_test_only_method_or_property():
    modules = {
        "a": ("class Table:\n"
              "    def read(self):\n        return self.size\n\n"
              "    @property\n    def size(self):\n        return 1\n\n"
              "    @property\n    def spare(self):\n        return self.spare\n\n"
              "    def shown(self):\n        pass\n\n"
              "    def _private(self):\n        pass\n"),
    }
    outside = ["print(a.Table().read(), t.shown)\n"]
    assert unreferenced_public_names(modules, outside) == ["a.Table.spare"]


def test_public_names_have_a_caller_outside_the_tests():
    modules = {path.stem: path.read_text() for path in MODULES}
    outside = [f.read_text() for d in ("demos", "bench") for f in (REPO_DIR / d).rglob("*.py")]
    assert unreferenced_public_names(modules, outside) == sorted(TEST_ONLY_PUBLIC)
