"""The process entry refuses table-free bad input before the engine loads.

``python -m tracecodes.cli`` parses its arguments and runs
limits.check_request before it imports numpy and the engine, so an
argparse error, --help and every refusal that needs no field table end at
the cost of interpreter start-up.  Each such run must exit and print as an
in-process ``cli.main`` call does; a refusal that today comes after the
field is built must still come after it; ``import tracecodes`` must load
no submodule; and ``import tracecodes.cli`` must still load the whole
engine, which the benchmark tracer's ``cli.import`` span times.
"""

import importlib
import json
import os
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
    "construction": ["CodeParams", "DerivedParams", "Variant", "coord_at", "coord_index",
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


def _process(argv, budget=None) -> tuple[int, str, str, list[str]]:
    """Exit code, stdout, stderr and the -X importtime lines of one
    ``python -m tracecodes.cli`` run."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "tracecodes.cli", *argv],
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
    (["analyze", "--budget", "-1", "-p", "5", "-m", "7"], None,
     "error: work budget must be >= 0, got -1", True),
    (["analyze", "-p", "3", "-m", "2"], "abc",
     "error: TRACECODES_WORK_BUDGET must be an integer, got 'abc'", True),
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
    # verify reads its budget only once its field is built, so these pass
    # the early checks, and a bad -N is named before the budget
    (["verify", "-p", "3", "-m", "2", "--trials", "1"], "abc",
     "error: TRACECODES_WORK_BUDGET must be an integer, got 'abc'", False),
    (["verify", "-p", "3", "-m", "2", "-N", "5"], "abc",
     "error: N does not divide p^m - 1 (5 does not divide 8)", False),
    (["dual", "-p", "3", "-m", "2", "--modulus", "1,1,1"], None,
     "error: supplied modulus is reducible", False),
    (["analyze", "-p", "3", "-m", "2", "--method", "class", "--samples", "0"], None,
     "error: samples per class must be >= 1, got 0: the class method validates "
     "every uv-line class on seeded samples", False),
]


@pytest.mark.parametrize("argv,budget,last_line,early", REFUSALS,
                         ids=[" ".join(argv) for argv, *_ in REFUSALS])
def test_process_entry_refuses_as_main_does(argv, budget, last_line, early,
                                            monkeypatch, capsys):
    code, out, err, imports = _process(argv, budget)
    assert (code, out, err) == _in_process(argv, monkeypatch, capsys, budget)
    assert (code, out, err.splitlines()[-1]) == (2, "", last_line)
    assert _loads_numpy(imports) is not early
