"""Source hygiene: no module of the package imports a name it never uses,
no module-level private name is defined that nothing refers to, every
function the CLI's modules define is run by the CLI or named with a reason,
and every public oracle has a caller.

``__init__.py`` re-exports the public names lazily, through a name map
and a PEP 562 ``__getattr__``, so it imports no name of its own package and
takes the import check like every module; it defines no function the CLI
runs, so the census and the public-name check leave it out.  A private
name counts as referred to when it appears, outside its own definition, in
any Python file under ``src/``, ``tests/``, ``bench/`` or ``demos/`` (the
benchmark tracer binds some of them by name, as strings).  A public name of a module the CLI loads counts
as used when the package refers to it outside its own definition and
``__init__.py`` (``oracles.py`` included), or a file under ``demos/`` or
``bench/`` does; a public name of ``oracles.py`` counts as used when a file
under ``tests/`` or ``demos/`` refers to it.  A method or property counts
as used wherever its bare name occurs there.  The runtime census records,
with ``sys.setprofile`` in a fresh interpreter, which functions and methods
a fixed list of in-process ``cli.main`` runs enters.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tracecodes

PACKAGE_DIR = Path(tracecodes.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
#: The modules that ``python -m tracecodes.cli`` loads: all but the oracles.
CLI_MODULES = [p for p in MODULES if p.stem != "oracles"]
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


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
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
    modules = {path.stem: path.read_text() for path in CLI_MODULES}
    outside = [f.read_text() for d in ("demos", "bench") for f in (REPO_DIR / d).rglob("*.py")]
    outside.append((PACKAGE_DIR / "oracles.py").read_text())
    assert unreferenced_public_names(modules, outside) == []


def test_oracles_have_a_caller_in_the_tests_or_demos():
    modules = {"oracles": (PACKAGE_DIR / "oracles.py").read_text()}
    outside = [f.read_text() for d in ("tests", "demos") for f in (REPO_DIR / d).rglob("*.py")]
    assert unreferenced_public_names(modules, outside) == []


#: In-process ``cli.main`` runs for the census, with their exit codes:
#: analyze in both variants and
#: both methods, CSV output and the interval-only regime, dual with a
#: modulus whose x is not primitive, verify with and without --subcode, and
#: the guard, verify's budget and the modulus refusals.
CENSUS_RUNS = {
    "analyze -p 3 -m 2": 0,
    "analyze -p 5 -m 2 -N 3 --variant units --format csv": 0,
    "analyze -p 5 -m 2 -N 3 --method class": 0,
    "analyze -p 3 -m 2 --variant units --method class": 0,
    "analyze -p 3 -m 4 -N 8": 0,
    "dual -p 3 -m 2 --modulus 1,0,1": 0,
    "verify -p 3 -m 2 --trials 3": 0,
    "verify -p 5 -m 2 -N 3 --subcode --trials 3": 0,
    "analyze -p 5 -m 7": 2,
    "verify -p 3 -m 2 --trials 100000000": 3,
    "dual -p 3 -m 2 --modulus 1,1,1": 2,
}

#: Functions and methods of CLI_MODULES that no census run enters, each
#: with the reason it stays.
NOT_RUN_BY_THE_CLI = {
    "analysis._bulk_worker": "bench/tracer.py binds it by name",
    "cli.run": "the process entry; it ends the process, so the census calls main",
    "construction._decode": "the stream decoder of coord_blocks and coord_at",
    "construction.coord_at": "one coordinate of the stream, which demos and test oracles read",
    "construction.coord_blocks": "bench/tracer.py binds it; oracles.enumerate_coords reads it",
    "field.Field.__eq__": "ring elements over a Field compare their fields in the oracles",
    "field.Field.__repr__": "the debug text of a field",
    "field.Field.__hash__": "Field defines __eq__, so it stays hashable through this",
    "field.Field.add": "F_q arithmetic of RingElem over a Field, for oracles, demos and tests",
    "field.Field.dlog": "the log lookup of the oracles' Frobenius and characters, and the demos",
    "field.Field.inv": "F_q arithmetic of RingElem over a Field, for oracles, demos and tests",
    "field.Field.lex_code": "the digit reversal of _decode and oracles.gray_symbols",
    "field.Field.mul": "F_q arithmetic of RingElem over a Field, for oracles, demos and tests",
    "field.Field.mul_table": "bench/tracer.py binds it by name",
    "field.Field.neg": "F_q arithmetic of RingElem over a Field, for oracles, demos and tests",
    "field.Field.trmul_flat": "bench/tracer.py binds it by name",
    "ring.RingElem.__rmul__": "refuses k * r, which a tuple would repeat; tests/test_ring.py checks it",
    "ring.RingElem.__sub__": "ring subtraction, which the demos and tests use",
    "ring.RingElem.__str__": "the text form of an element",
    "ring.zero": "the zero element, which the demos and test oracles build",
}

CENSUS_SCRIPT = """
import contextlib, io, json, sys
import tracecodes.cli as cli
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
codes = []
sys.setprofile(profile)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def function_lines(path: Path) -> dict[str, int]:
    """"name" or "Class.name" of each module-level function and each method
    of a module-level class, with the first line of its code object: the
    first decorator's line, or the def's."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        members = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            members = [(f"{node.name}.{m.name}", m) for m in node.body
                       if isinstance(m, ast.FunctionDef)]
        for name, fn in members:
            found[name] = min([d.lineno for d in fn.decorator_list] + [fn.lineno])
    return found


def test_every_function_the_cli_loads_is_run_or_named():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    runs = [argv.split() for argv in CENSUS_RUNS]
    out = subprocess.run([sys.executable, "-c", CENSUS_SCRIPT, json.dumps(runs)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    census = json.loads(out.stdout)
    assert census["codes"] == list(CENSUS_RUNS.values())
    entered = {tuple(site) for site in census["entered"]}
    not_run = []
    for path in CLI_MODULES:
        not_run += [f"{path.stem}.{name}" for name, line in function_lines(path).items()
                    if (str(path), line) not in entered]
    assert sorted(not_run) == sorted(NOT_RUN_BY_THE_CLI)
