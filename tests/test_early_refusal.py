"""The process entry refuses table-free bad input before the engine loads.

``python -m tracecodes.cli`` parses its arguments and runs
limits.check_request before it imports numpy and the engine, so an
argparse error, --help and every refusal that needs no field table (a
bad -N among them: N >= 1 and N | p^m - 1 read only p and m) end at the
cost of interpreter start-up, and a request that passes is the one its
handler runs, parsed once.  ``dual`` needs no field table at all (its
modulus, integer parameters and witness over F_p), so it answers, or
refuses a supplied modulus, before numpy loads as well.  Each such run
must exit and print as an in-process ``cli.main`` call does; a refusal
that needs the field (analyze's or verify's supplied modulus of the
wrong degree or reducible, or verify's budget) must still come after it
is built; the installed
script's entry, tracecodes.main, must run as ``python -m`` does;
``import tracecodes`` must load no submodule; and ``import tracecodes.cli``
must still load the whole engine, which the benchmark tracer's
``cli.import`` span times.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tracecodes
from tracecodes.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The package's public names, each with the module it is read from.
REEXPORTS = {
    "analysis": ["IdentityReport", "Prediction", "WeightDistribution",
                 "compare_with_predictions", "distribution_by_class",
                 "distribution_exhaustive", "gray_symbol_histogram", "predict",
                 "predict_subcode", "semiprimitive_exponent", "subcode_report",
                 "verify_identities"],
    "bounds": ["DualDistanceResult", "GriesmerVerdict", "SssVerdict", "dual_lee_distance",
               "griesmer_optimal", "griesmer_sum", "minimality_check",
               "sphere_packing_excludes"],
    "construction": ["CodeParams", "DerivedParams", "Variant", "coord_at",
                     "derive_params", "subcode_distribution"],
    "errors": ["ParameterError", "WorkBudgetExceeded"],
    "field": ["Field", "gauss_sums"],
    "limits": ["DEFAULT_SEED", "DEFAULT_WORK_BUDGET", "parse_modulus"],
    "ring": ["RingElem", "gray", "gray_inverse", "is_unit", "lee_weight", "ring_inv"],
}

def _env(budget=None) -> dict:
    """The child's environment: the package under src/, a fixed help width,
    and TRACECODES_WORK_BUDGET only when `budget` is given."""
    env = {k: v for k, v in os.environ.items() if k != "TRACECODES_WORK_BUDGET"}
    env.update(PYTHONPATH=SRC, COLUMNS="80")
    if budget is not None:
        env["TRACECODES_WORK_BUDGET"] = budget
    return env


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", script], env=_env(), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


def test_import_tracecodes_cli_loads_the_whole_engine():
    modules = _modules_after("import tracecodes.cli")
    assert {"numpy", "tracecodes.analysis", "tracecodes.bounds", "tracecodes.construction",
            "tracecodes.field", "tracecodes.ring", "tracecodes.limits"} <= modules


def test_the_cli_loads_no_dataclasses():
    # the records of the reports are NamedTuples: @dataclass would compile
    # and exec their generated methods in every process that runs the CLI
    assert "dataclasses" not in _modules_after("import tracecodes.cli")
    code, out, err, imports = _process(["analyze", "-p", "3", "-m", "2", "--threads", "1"])
    assert (code, err, json.loads(out)["command"]) == (0, "", "analyze")
    assert _loads_numpy(imports)
    assert not [line for line in imports if "dataclasses" in line]


def test_import_tracecodes_loads_no_submodule():
    modules = _modules_after("import tracecodes")
    loaded = [m for m in modules if m == "numpy" or m.startswith(("numpy.", "tracecodes."))]
    assert loaded == []


def test_reexports_are_the_public_names_and_the_library_objects():
    assert tracecodes.__all__ == sorted(name for names in REEXPORTS.values() for name in names)
    for module, names in REEXPORTS.items():
        home = importlib.import_module(f"tracecodes.{module}")
        for name in names:
            assert getattr(tracecodes, name) is getattr(home, name), name
    assert (tracecodes.DEFAULT_SEED, tracecodes.DEFAULT_WORK_BUDGET) == (2024, 10**10)
    assert set(tracecodes.__all__) <= set(dir(tracecodes))
    with pytest.raises(AttributeError):
        getattr(tracecodes, "no_such_name")


#: The process entries: ``python -m tracecodes.cli``, and what the installed
#: ``tracecodes`` script runs, tracecodes.main.
MODULE_ENTRY = ("-m", "tracecodes.cli")
SCRIPT_ENTRY = ("-c", "import sys, tracecodes; sys.exit(tracecodes.main())")


def _process(argv, budget=None, entry=MODULE_ENTRY) -> tuple[int, str, str, list[str]]:
    """Exit code, stdout, stderr and the -X importtime lines of one run of
    a process entry."""
    out = subprocess.run([sys.executable, "-X", "importtime", *entry, *argv],
                         env=_env(budget), capture_output=True, text=True, timeout=120)
    lines = out.stderr.splitlines(keepends=True)
    imports = [line for line in lines if line.startswith("import time:")]
    err = "".join(line for line in lines if not line.startswith("import time:"))
    return out.returncode, out.stdout, err, imports


def _in_process(argv, monkeypatch, capsys, budget=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("TRACECODES_WORK_BUDGET", raising=False)
    if budget is not None:
        monkeypatch.setenv("TRACECODES_WORK_BUDGET", budget)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors and --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _loads_numpy(imports: list[str]) -> bool:
    return any("numpy" in line for line in imports)


@pytest.mark.parametrize("argv", [
    ["analyze", "-p", "5", "-m", "7", "--threads", "1"],  # the benchmark's guard job
    ["analyze", "-p", "5"],                               # argparse: -m is missing
    ["--help"],
], ids=["guard", "usage", "help"])
def test_table_free_refusals_load_no_numpy(argv, monkeypatch, capsys):
    code, out, err, imports = _process(argv)
    assert imports and not _loads_numpy(imports)
    assert (code, out, err) == _in_process(argv, monkeypatch, capsys)
    assert code == (0 if argv == ["--help"] else 2)


RUNTIME = re.compile(r'"runtime_ms": \d+')


@pytest.mark.parametrize("argv,code,numpy", [
    (["analyze", "-p", "5", "-m", "7", "--threads", "1"], 2, False),  # the guard job
    (["dual", "-p", "3", "-m", "2", "--threads", "1"], 0, False),
    (["analyze", "-p", "3", "-m", "2", "--threads", "1"], 0, True),
], ids=["guard", "pass", "analyze"])
def test_script_entry_runs_as_python_m(argv, code, numpy):
    script_code, script_out, script_err, imports = _process(argv, entry=SCRIPT_ENTRY)
    module_code, module_out, module_err, _ = _process(argv)
    assert (script_code, RUNTIME.sub("", script_out), script_err) == (
        module_code, RUNTIME.sub("", module_out), module_err)
    assert script_code == code
    assert _loads_numpy(imports) is numpy


#: dual runs: the benchmark's two field-setup jobs, a units run, a
#: degenerate point whose report keeps evaluation-map-not-injective, and a
#: pinned modulus whose x is not primitive.
DUAL_RUNS = [
    ["dual", "-p", "3", "-m", "9", "-N", "1", "--threads", "1"],
    ["dual", "-p", "5", "-m", "6", "-N", "1", "--threads", "1"],
    ["dual", "-p", "5", "-m", "6", "-N", "1", "--variant", "units"],
    ["dual", "-p", "3", "-m", "2", "-N", "4"],
    ["dual", "-p", "3", "-m", "2", "--modulus", "1,0,1"],
]


@pytest.mark.parametrize("argv", DUAL_RUNS, ids=[" ".join(argv[1:]) for argv in DUAL_RUNS])
def test_dual_loads_no_numpy_and_prints_as_main_does(argv, monkeypatch, capsys):
    code, out, err, imports = _process(argv)
    assert imports and not _loads_numpy(imports)
    in_code, in_out, in_err = _in_process(argv, monkeypatch, capsys)
    assert (code, RUNTIME.sub("", out), err) == (in_code, RUNTIME.sub("", in_out), in_err)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["dual_distance"]["verified"]
    assert ("evaluation-map-not-injective" in report["erratum_flags"]) is (argv == DUAL_RUNS[3])


def test_every_module_dual_loads_imports_no_numpy():
    # each tracecodes module the dual run loads, imported alone in a fresh
    # interpreter, leaves numpy unloaded
    *_, imports = _process(DUAL_RUNS[0])
    loaded = {line.split("|")[-1].strip() for line in imports}
    package = sorted(name for name in loaded if name.startswith("tracecodes."))
    assert {"tracecodes.bounds", "tracecodes.modulus", "tracecodes.params",
            "tracecodes.ring"} <= set(package)
    for name in package:
        assert "numpy" not in _modules_after(f"import {name}"), name


def test_guard_job_refusal_bytes():
    code, out, err, _ = _process(["analyze", "-p", "5", "-m", "7", "--threads", "1"])
    assert (code, out, err) == (
        2, "", "error: codeword count p^(4m) exceeds the 64-bit counting guard\n")


#: Bad command lines, the TRACECODES_WORK_BUDGET they run with, the last
#: line of their stderr, and whether their refusal needs no field table.
#: Lines with two faults pin which one a run names first.
REFUSALS = [
    (["analyze", "--threads", "0", "-p", "5", "-m", "7"], None,
     "error: --threads must be >= 1, got 0", True),
    # analyze has no work budget: argparse refuses the options that set one
    (["analyze", "--budget", "-1", "-p", "5", "-m", "7"], None,
     "tracecodes: error: unrecognized arguments: --budget -1", True),
    (["analyze", "-p", "4", "-m", "1", "--modulus", "x"], None,
     "error: bad modulus record 'x'", True),
    (["analyze", "-p", "5", "-m", "7", "--modulus", "1,2"], None,
     "error: codeword count p^(4m) exceeds the 64-bit counting guard", True),
    (["dual", "-p", "5", "-m", "7", "--modulus", "x"], None,
     "error: codeword count p^(4m) exceeds the 64-bit counting guard", True),
    (["verify", "-p", "3", "-m", "2", "--seed", "-1"], None,
     "error: --seed must be >= 0, got -1", True),
    (["dual", "-p", "3", "-m", "2", "-o", ""], None,
     "error: -o/--out needs a file name, got an empty one", True),
    (["dual", "-p", "2", "-m", "3"], None, "error: p must be odd", True),
    (["dual", "-p", "9", "-m", "1"], None, "error: p = 9 is not prime", True),
    (["verify", "-p", str(2**61 - 1), "-m", "0"], None,
     "error: extension degree m must be >= 1", True),
    (["analyze", "-p", "x", "-m", "2"], None,
     "tracecodes analyze: error: argument -p: invalid int value: 'x'", True),
    (["dual", "-p", "3", "-m", "2", "-N", "5"], None,
     "error: N does not divide p^m - 1 (5 does not divide 8)", True),
    (["dual", "-p", "3", "-m", "2", "-N", "0"], None,
     "error: N must be a positive integer", True),
    # a bad -N is named before a supplied modulus that only the field's
    # build refuses, and, as verify reads its budget only once its field
    # is built, before verify's budget
    (["dual", "-p", "3", "-m", "2", "-N", "5", "--modulus", "1,1,1"], None,
     "error: N does not divide p^m - 1 (5 does not divide 8)", True),
    (["verify", "-p", "3", "-m", "2", "-N", "5"], "abc",
     "error: N does not divide p^m - 1 (5 does not divide 8)", True),
    (["verify", "-p", "3", "-m", "2", "--trials", "0"], None,
     "error: trials must be >= 1, got 0", True),
    # verify's --trials is named before a supplied modulus of the wrong
    # degree, which only the field's build refuses, and before its budget
    (["verify", "-p", "3", "-m", "2", "--trials", "0", "--modulus", "1,1"], None,
     "error: trials must be >= 1, got 0", True),
    (["verify", "-p", "3", "-m", "2", "--trials", "0"], "abc",
     "error: trials must be >= 1, got 0", True),
    (["verify", "-p", "3", "-m", "2", "--trials", "1"], "abc",
     "error: TRACECODES_WORK_BUDGET must be an integer, got 'abc'", False),
    (["verify", "-p", "3", "-m", "2"], "-1",
     "error: TRACECODES_WORK_BUDGET must be >= 0, got -1", False),
    # dual checks a supplied modulus before numpy loads, analyze after
    (["dual", "-p", "3", "-m", "2", "--modulus", "1,1,1"], None,
     "error: supplied modulus is reducible", True),
    (["analyze", "-p", "3", "-m", "2", "--modulus", "1,1,1"], None,
     "error: supplied modulus is reducible", False),
    (["analyze", "-p", "3", "-m", "2", "--method", "class", "--samples", "0"], None,
     "tracecodes: error: unrecognized arguments: --samples 0", True),
]


@pytest.mark.parametrize("argv,budget,last_line,early", REFUSALS,
                         ids=[" ".join(argv) for argv, *_ in REFUSALS])
def test_process_entry_refuses_as_main_does(argv, budget, last_line, early,
                                            monkeypatch, capsys):
    code, out, err, imports = _process(argv, budget)
    assert (code, out, err) == _in_process(argv, monkeypatch, capsys, budget)
    assert (code, out, err.splitlines()[-1]) == (2, "", last_line)
    assert _loads_numpy(imports) is not early


#: Runs ``python -m tracecodes.cli`` as the interpreter does, with every
#: construction of the program's top-level parser (prog "tracecodes")
#: counted on stderr; run() flushes stderr before the process ends.
COUNTED_ENTRY = """
import argparse, runpy, sys
real = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    if kwargs.get("prog") == "tracecodes":
        sys.stderr.write("parser built\\n")
    real(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
sys.argv[0] = "tracecodes.cli"
runpy.run_module("tracecodes.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv,code", [
    (["dual", "-p", "3", "-m", "2", "--threads", "1"], 0),
    (["analyze", "-p", "5", "-m", "7"], 2),
    (["analyze", "-p", "3", "-m", "2", "--modulus", "1,1,1"], 2),
], ids=["pass", "early-refusal", "late-refusal"])
def test_process_entry_builds_one_parser(argv, code):
    out = subprocess.run([sys.executable, "-c", COUNTED_ENTRY, *argv], env=_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == code, out.stderr
    assert out.stderr.count("parser built") == 1
