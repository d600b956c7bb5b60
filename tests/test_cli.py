import argparse
import functools
import inspect
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from tracecodes import Field, bounds
from tracecodes.cli import build_parser, main
from tracecodes.construction import DerivedParams
from tracecodes.limits import DEFAULT_SEED


def run(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = main(list(argv) + ["-o", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_json(tmp_path, *argv):
    code, text = run(tmp_path, *argv)
    return code, json.loads(text)


def test_analyze_exhaustive(tmp_path):
    code, report = run_json(
        tmp_path, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--variant", "lift", "--method", "exhaustive", "--threads", "1",
    )
    assert code == 0
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    assert rows == {0: 1, 7776: 6552, 8748: 8}
    assert report["griesmer"]["optimal"] is True
    assert report["comparison"]["ok"] is True
    assert report["dual_distance"]["distance"] == 2
    assert report["sss"]["classification"] == "dictatorial"
    assert report["params"]["gray_length"] == 11664
    assert "lee-weight-is-gray-image-weight" in report["erratum_flags"]


@pytest.mark.parametrize("argv", [
    ("analyze", "-p", "3", "-m", "2", "--threads", "1"),
    ("dual", "-p", "3", "-m", "9", "--threads", "1"),
], ids=["analyze-3-2", "dual-3-9"])
def test_one_field_per_run(tmp_path, monkeypatch, argv):
    # the base ring lives in the code's own field, so no second Field is built
    builds = []
    init = Field.__init__
    monkeypatch.setattr(Field, "__init__",
                        lambda self, *a, **k: builds.append(a) or init(self, *a, **k))
    assert run(tmp_path, *argv)[0] == 0
    assert len(builds) == 1


def test_analyze_class_method(tmp_path):
    code, report = run_json(
        tmp_path, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--method", "class", "--samples", "20", "--threads", "1",
    )
    assert code == 0
    assert report["method"] == "class"
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    assert rows == {0: 1, 7776: 6552, 8748: 8}
    assert report["detail"]["samples_per_class"] == 20


def test_analyze_units_variant(tmp_path):
    code, report = run_json(
        tmp_path, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--variant", "units", "--method", "exhaustive", "--threads", "1",
    )
    assert code == 0
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    assert rows == {0: 1, 15552: 6552, 17496: 8}
    assert report["params"]["note"].startswith("units variant")


def test_analyze_rejects_bad_divisor(tmp_path, capsys):
    code = main(["analyze", "-p", "3", "-m", "2", "-N", "7"])
    assert code == 2
    assert "N does not divide p^m - 1" in capsys.readouterr().err


def test_even_characteristic_rejected(capsys):
    code = main(["verify", "-p", "2", "-m", "2", "-N", "1"])
    assert code == 2
    assert "odd" in capsys.readouterr().err


def test_budget_refusal_distinct_exit_code(tmp_path, capsys):
    # the exhaustive method is charged q = 25, one over this budget
    code = main(["analyze", "-p", "5", "-m", "2", "-N", "3",
                 "--method", "exhaustive", "--budget", "24", "--threads", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "budget" in err and "no method fits" in err


@pytest.mark.parametrize("method", [[], ["--method", "class"]])
def test_budget_below_q_refuses_every_method(method, capsys):
    # both methods are charged q = 9 for the uv-line's class counts, so a
    # budget of 8 fits neither
    code = main(["analyze", "-p", "3", "-m", "2", "--budget", "8", "--threads", "1", *method])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "refused: the distribution needs q = 9 entry-operations, over the budget of 8; "
        "no method fits below q, since every method reads the uv-line's class counts"]


def test_class_samples_past_the_budget_are_refused_at_once(capsys):
    # q + N2*samples = 3 + 10^8 at (3,1,1): one refused line with the
    # estimate and the largest --samples that fits, and no report
    code = main(["analyze", "-p", "3", "-m", "1", "--method", "class",
                 "--samples", "100000000", "--budget", "100", "--threads", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "refused: the class method needs q + N2*samples = 100000003 entry-operations, "
        "over the budget of 100; the largest --samples that fits is 97"]


def test_reports_are_deterministic(tmp_path):
    argv = ["analyze", "-p", "3", "-m", "2", "-N", "2",
            "--method", "exhaustive", "--threads", "1", "--seed", "5"]
    _, first = run_json(tmp_path, *argv)
    _, second = run_json(tmp_path, *argv)
    first.pop("runtime_ms")
    second.pop("runtime_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_csv_export(tmp_path):
    code, text = run(
        tmp_path, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--method", "exhaustive", "--threads", "1", "--format", "csv",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "weight,frequency"
    assert "7776,6552" in lines
    assert "8748,8" in lines


@pytest.mark.parametrize("command", ["dual", "verify"])
def test_csv_is_refused_where_there_are_no_rows(command, capsys):
    # only analyze reports weight rows; elsewhere CSV would lose the report
    with pytest.raises(SystemExit) as excinfo:
        main([command, "-p", "3", "-m", "2", "--format", "csv"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_dual_command_both_variants(tmp_path):
    for variant in ("lift", "units"):
        code, report = run_json(
            tmp_path, "dual", "-p", "3", "-m", "2", "-N", "1",
            "--variant", variant, "--threads", "1",
        )
        assert code == 0
        assert report["dual_distance"]["distance"] == 2
        assert report["dual_distance"]["witness"]
        assert report["sphere_packing_excludes_distance_3"] is True


def test_dual_cap_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["dual", "-p", "3", "-m", "2", "--cap", "5"])
    assert excinfo.value.code == 2


def test_option_inventory_is_pinned():
    # every settable knob, with its default: a new one shows up in this diff
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    inventory = {name: {"/".join(a.option_strings): a.default for a in sp._actions}
                 for name, sp in sub.choices.items()}
    common = {"-h/--help": argparse.SUPPRESS, "-p": None, "-m": None, "-N": 1,
              "--variant": "lift", "--modulus": None, "--seed": DEFAULT_SEED,
              "--threads": 1, "-o/--out": None}
    assert inventory == {
        "analyze": {**common, "--format": "json", "--method": "exhaustive", "--samples": 500,
                    "--budget": None},
        "dual": common,
        "verify": {**common, "--trials": 100, "--subcode": False},
    }
    assert list(inspect.signature(Field.__init__).parameters) == ["self", "p", "m", "modulus"]
    assert list(inspect.signature(bounds.dual_lee_distance).parameters) == ["dp"]
    assert list(inspect.signature(bounds.sphere_packing_excludes).parameters) == ["n", "k", "p"]


def test_verify_command(tmp_path):
    code, report = run_json(
        tmp_path, "verify", "-p", "3", "-m", "2", "-N", "2",
        "--trials", "10", "--threads", "1",
    )
    assert code == 0
    assert report["breaches"] == []
    assert all(v < 1e-6 for v in report["residuals"].values())


@pytest.mark.parametrize("m", [5, 6])
def test_verify_large_gray_length_is_clean_and_fast(tmp_path, m):
    # gray lengths 6.9e9 and 1.7e12: the float tau sums stay within the
    # tolerance, and the folded slot counts keep the run short
    start = time.perf_counter()
    code, report = run_json(tmp_path, "verify", "-p", "3", "-m", str(m), "-N", "1",
                            "--seed", "7", "--threads", "1")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert report["breaches"] == []
    assert all(v < 1e-9 for v in report["residuals"].values())


def test_verify_subcode(tmp_path):
    code, report = run_json(
        tmp_path, "verify", "-p", "3", "-m", "4", "-N", "4",
        "--trials", "2", "--threads", "1", "--subcode",
    )
    assert code == 0
    rows = {r["weight"]: r["frequency"] for r in report["subcode"]["rows"]}
    assert rows == {0: 1, 6: 60, 9: 20}
    assert report["subcode"]["ok"] is True


def test_verify_subcode_without_prediction_reports_no_verdict(tmp_path):
    # m = 2 with N2 = 1: no subcode closed form applies, so nothing is compared
    code, report = run_json(tmp_path, "verify", "-p", "3", "-m", "2", "-N", "1",
                            "--trials", "2", "--threads", "1", "--subcode")
    assert code == 0
    assert report["report_version"] == 6
    sub = report["subcode"]
    assert sub["predictions"] == []
    assert sub["ok"] is None
    assert sub["status"] == "no-applicable-prediction"


def test_verify_subcode_units_counts_every_unit(tmp_path):
    # the units code's constant coordinates are all q - 1 units, whatever N
    # is: every nonzero b has weight q - q/p on them, and no table applies
    sections = []
    for N in ("3", "1"):
        code, report = run_json(tmp_path, "verify", "-p", "5", "-m", "2", "-N", N,
                                "--variant", "units", "--trials", "2", "--threads", "1",
                                "--subcode")
        assert code == 0
        sections.append(report["subcode"])
    sub = sections[0]
    assert sub["length"] == 24
    assert {r["weight"]: r["frequency"] for r in sub["rows"]} == {0: 1, 20: 24}
    assert sub["predictions"] == [] and sub["ok"] is None
    assert sub["status"] == "no-applicable-prediction"
    assert sections[1] == sub


def test_verify_subcode_mismatch_exit_code(tmp_path, monkeypatch):
    from tracecodes import analysis
    from tracecodes.analysis import Prediction

    def wrong_prediction(params):
        return [Prediction(regime="subcode_two_weight_general",
                           rows=((6, 61), (9, 19)), side_conditions=())]

    monkeypatch.setattr(analysis, "predict_subcode", wrong_prediction)
    code, report = run_json(tmp_path, "verify", "-p", "3", "-m", "4", "-N", "4",
                            "--trials", "2", "--threads", "1", "--subcode")
    assert code == 1
    assert report["subcode"]["ok"] is False
    assert "status" not in report["subcode"]


def test_explicit_modulus_accepted(tmp_path):
    code, report = run_json(
        tmp_path, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--modulus", "2,1,1", "--method", "exhaustive", "--threads", "1",
    )
    assert code == 0
    assert report["params"]["modulus"] == [2, 1, 1]


def test_bad_modulus_rejected(capsys):
    code = main(["analyze", "-p", "3", "-m", "2", "-N", "1", "--modulus", "1,2,1"])
    assert code == 2
    assert "reducible" in capsys.readouterr().err


def test_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TRACECODES_WORK_BUDGET", "8")
    code = main(["analyze", "-p", "3", "-m", "2", "-N", "1",
                 "--method", "exhaustive", "--threads", "1"])
    assert code == 3


def test_exhaustive_at_q_19683_runs_at_the_default_budget(tmp_path):
    # one pass over a table of q = 3^9 zero-trace counts
    start = time.perf_counter()
    code, report = run_json(tmp_path, "analyze", "-p", "3", "-m", "9", "-N", "1",
                            "--method", "exhaustive", "--threads", "1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert report["method"] == "exhaustive"
    assert [(d["regime"], d["matched"]) for d in report["comparison"]["details"]] == [
        ("two_weight_lift", True)]


@pytest.mark.parametrize("method", ["exhaustive", "class"])
def test_degenerate_lift_reports_its_dimension(tmp_path, method):
    # at (3,3,13) nine r give the zero word: k = 10, not 4m = 12, and at
    # k = 10 the code is Griesmer-optimal (at 12 the bound would fail); both
    # methods run at the default budget, which charges the exhaustive one q
    code, report = run_json(tmp_path, "analyze", "-p", "3", "-m", "3", "-N", "13",
                            "--method", method, "--threads", "1")
    assert code == 0
    assert report["params"]["dimension"] == 10
    assert report["rows"][0] == {"weight": 0, "frequency": 9}
    griesmer = report["griesmer"]
    assert griesmer["k"] == 10 and griesmer["optimal"] is True
    assert griesmer["sum_at_d"] <= griesmer["n"] == 78732
    assert "evaluation-map-not-injective" in report["erratum_flags"]
    code, report = run_json(tmp_path, "analyze", "-p", "3", "-m", "2", "-N", "4",
                            "--method", method, "--threads", "1")
    assert code == 0
    assert report["params"]["dimension"] == 7
    assert report["rows"][0] == {"weight": 0, "frequency": 3}


@pytest.mark.parametrize("command", ["analyze", "dual", "verify"])
def test_every_report_carries_the_dimension_and_its_flag(tmp_path, command):
    code, report = run_json(tmp_path, command, "-p", "3", "-m", "2", "-N", "2",
                            "--threads", "1")
    assert code == 0
    assert report["params"]["dimension"] == 8
    assert "evaluation-map-not-injective" not in report["erratum_flags"]
    code, report = run_json(tmp_path, command, "-p", "3", "-m", "2", "-N", "4",
                            "--threads", "1")
    assert report["params"]["dimension"] == 7
    assert "evaluation-map-not-injective" in report["erratum_flags"]


def test_zero_row_off_the_dimension_exits_one(tmp_path, monkeypatch):
    # a distribution whose zero row is not p^(4m-k) contradicts the
    # dimension: a failed theorem check, an AssertionError that main does
    # not catch, so the process exits 1 through the interpreter
    from tracecodes import analysis

    real = analysis.subcode_distribution

    def one_zero_word(params):
        rows = real(params)
        rows[0] -= 2
        rows[1] = rows.get(1, 0) + 2
        return rows

    monkeypatch.setattr(analysis, "subcode_distribution", one_zero_word)
    out = tmp_path / "report.json"
    for method in ("exhaustive", "class"):
        with pytest.raises(AssertionError,
                           match=r"zero row holds 1 codewords, expected p\^\(4m-k\) = 3"):
            main(["analyze", "-p", "3", "-m", "2", "-N", "4", "--method", method,
                  "--threads", "1", "-o", str(out)])
    assert not out.exists()


def test_prediction_mismatch_exit_code(tmp_path, monkeypatch):
    # a run whose measurement contradicts an emitted prediction must exit 1
    from tracecodes import analysis
    from tracecodes.analysis import Prediction

    def wrong_prediction(params):
        return [Prediction(regime="two_weight_lift",
                           rows=((7776, 6551), (8748, 9)),
                           side_conditions=())]

    monkeypatch.setattr(analysis, "predict", wrong_prediction)
    code, report = run_json(
        tmp_path, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--method", "exhaustive", "--threads", "1",
    )
    assert code == 1
    assert report["comparison"]["ok"] is False


@pytest.mark.parametrize("variant", ["lift", "units"])
def test_analyze_without_prediction_reports_no_verdict(tmp_path, variant):
    # m odd and p = 1 (mod 4): no closed form applies, so nothing is compared
    code, report = run_json(tmp_path, "analyze", "-p", "5", "-m", "1",
                            "--variant", variant, "--threads", "1")
    assert code == 0
    assert report["report_version"] == 6
    assert report["predictions"] == []
    assert report["comparison"] == {"ok": None, "details": [],
                                    "status": "no-applicable-prediction"}


@pytest.mark.parametrize("extra,env", [
    (["--threads", "0"], None),
    (["--budget", "-1"], None),
    (["--method", "class", "--samples", "0"], None),
    ([], "abc"),
])
def test_bad_input_exits_two_with_one_line_error(extra, env, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("TRACECODES_WORK_BUDGET", env)
    code = main(["analyze", "-p", "3", "-m", "2", "-N", "1", "--threads", "1", *extra])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("p,m", [(5, 7), (3, 13)])
def test_size_guard_refuses_before_any_search(p, m, monkeypatch, capsys):
    from tracecodes import field

    def no_search(*args):
        raise AssertionError("modulus search ran before the size guard")

    monkeypatch.setattr(field, "first_primitive_modulus", no_search)
    code = main(["analyze", "-p", str(p), "-m", str(m), "--threads", "1"])
    assert code == 2
    assert "exceeds the 64-bit counting guard" in capsys.readouterr().err


def _analyze_within_one_gib(*argv):
    """Run `tracecodes analyze` in a child limited to 1 GiB of address space."""
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    # single-threaded BLAS, so its per-thread buffers do not scale with the host
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "tracecodes.cli", "analyze", *argv],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=limit_address_space)


def test_large_prime_stays_within_one_gib():
    """analyze at p = 131 in a child limited to 1 GiB of address space: no
    table may grow with p^4 (an earlier kernel asked for 34.6 GiB here)."""
    out = _analyze_within_one_gib("-p", "131", "-m", "1", "--threads", "1")
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    report = json.loads(out.stdout)
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    assert rows == {0: 1, 8923720: 294499790, 8992364: 130}
    assert report["comparison"]["ok"] is True


def test_largest_table_prime_finishes_within_one_gib():
    """analyze at p = 4093, the largest prime under the product-table limit,
    in a child limited to 1 GiB: the kernel costs O(1) per row off the
    uv-line (an earlier kernel spent 2.8 s per row and did not finish in
    600 s).  No prediction applies, and the report says so."""
    start = time.monotonic()
    out = _analyze_within_one_gib("-p", "4093", "-m", "1", "-N", "1", "--threads", "1")
    elapsed = time.monotonic() - start
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    report = json.loads(out.stdout)
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    assert rows == {0: 1, 274207358832: 280651248513108, 274274369428: 4092}
    assert report["predictions"] == []
    assert report["comparison"] == {"ok": None, "details": [],
                                    "status": "no-applicable-prediction"}
    assert elapsed < 10


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_trials_below_one(trials, capsys):
    # with no trials the real-part and weight checks never run
    code = main(["verify", "-p", "3", "-m", "2", "--threads", "1", "--trials", trials])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_largest_table_prime_builds_no_product_table(monkeypatch, capsys):
    # the uv-line traces come from the exp/log tables and the identity
    # suite's full additive sum from the trace table, not a q*q table
    def no_table(self):
        raise AssertionError("a q*q product table was built")
    for name in ("mul_table", "trmul_flat"):
        monkeypatch.setattr(Field, name, property(no_table))
    code = main(["analyze", "-p", "4093", "-m", "1", "-N", "1", "--threads", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    assert rows == {0: 1, 274207358832: 280651248513108, 274274369428: 4092}
    code = main(["verify", "-p", "3", "-m", "5", "--trials", "5", "--threads", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["breaches"] == []


def test_analyze_past_product_table_limit(capsys):
    # q = 6561 > COORD_TABLE_LIMIT: no q*q table is read, the default
    # exhaustive method is charged q, and the two-weight prediction matches
    code = main(["analyze", "-p", "3", "-m", "8", "--threads", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    assert rows == {0: 1, 2470317012420480: 1853020188845280, 2470693585135788: 6560}
    assert report["comparison"]["ok"] is True


def test_analyze_weights_past_int64_are_exact(capsys):
    # units at q = 40009: the Gray length 4(q-1)q^3 passes 2^63, so the
    # kernel weighs in Python ints; both methods report the exact rows
    p = 40009
    expected = {0: 1, 4 * (p - 1) * (p**3 - p**2): p**4 - p, 4 * (p - 1) * p**3: p - 1}
    assert max(expected) > 2**63
    for method in ("exhaustive", "class"):
        code = main(["analyze", "-p", str(p), "-m", "1", "--variant", "units",
                     "--method", method, "--samples", "3", "--threads", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert {r["weight"]: r["frequency"] for r in report["rows"]} == expected


def test_method_auto_is_refused(capsys):
    # one path builds the rows, so --method has nothing left to choose automatically
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-p", "3", "-m", "2", "--method", "auto"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_past_product_table_limit_runs_every_check(capsys):
    # q = 6561 > COORD_TABLE_LIMIT: G_0 = -1 is read as a count of the
    # trace table's zeros, exactly, so the suite runs and finds no breach
    code = main(["verify", "-p", "3", "-m", "8", "--trials", "1", "--threads", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["breaches"] == []
    assert report["residuals"]["gauss_sum_trivial"] == 0.0


def test_verify_at_the_largest_table_prime_refuses_at_once(monkeypatch, capsys):
    # 200 weight rows, each a uv-slot count of O(p^2): refused from the
    # estimate alone, before any table, zero-trace count or histogram
    from tracecodes import analysis

    def no_work(*args):
        raise AssertionError("identity-suite work ran before the refusal")
    monkeypatch.setattr(Field, "mul_table", property(no_work))
    monkeypatch.setattr(analysis, "uv_slot_counts", no_work)
    monkeypatch.setattr(DerivedParams, "class_counts", property(no_work))
    start = time.perf_counter()
    code = main(["verify", "-p", "4093", "-m", "1", "-N", "1", "--trials", "200",
                 "--threads", "1"])
    assert time.perf_counter() - start < 1
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "refused: identity suite needs 10056570969 entry-operations, over the "
        "budget of 10000000000; the largest --trials that fits is 198"]


def test_verify_just_past_the_table_limit_is_refused_by_the_estimate(monkeypatch, capsys):
    # q = 4099 > COORD_TABLE_LIMIT: no table limit applies, and the work
    # estimate (p = 3 mod 4, so each real-part trial counts p - 1 multiples)
    # refuses the run at the default budget before any histogram or
    # zero-trace count
    from tracecodes import analysis

    def no_work(*args):
        raise AssertionError("identity-suite work ran before the refusal")
    monkeypatch.setattr(analysis, "uv_slot_counts", no_work)
    monkeypatch.setattr(DerivedParams, "class_counts", property(no_work))
    start = time.perf_counter()
    code = main(["verify", "-p", "4099", "-m", "1", "--threads", "1"])
    assert time.perf_counter() - start < 1
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "refused: identity suite needs 20666213663969 entry-operations, over the "
        "budget of 10000000000; no --trials value fits"]


def test_verify_refusal_names_the_largest_trials_that_fit(monkeypatch, capsys):
    import re

    monkeypatch.setenv("TRACECODES_WORK_BUDGET", "50000")
    argv = ["verify", "-p", "3", "-m", "3", "-N", "1", "--threads", "1"]
    assert main([*argv, "--trials", "200"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("refused: identity suite needs ")
    fits = int(re.search(r"the largest --trials that fits is (\d+)$", err[0]).group(1))
    assert fits == 115
    assert main([*argv, "--trials", str(fits)]) == 0
    assert main([*argv, "--trials", str(fits + 1)]) == 3


def test_verify_estimate_charges_the_work_that_runs(monkeypatch, capsys):
    # q = 6561, N2 = 1, one trial: the codeword's p - 1 = 2 multiples, each
    # a uv-slot row of 2*n0 + 6*q + 3*p^2 (91906 for both), the first of
    # them read by the weight check too; one pass over q each for the class
    # counts and the trace count, N2*p comparisons, and the Gauss sums'
    # gather (two passes over q) and one FFT of order q - 1 (111527); no
    # term grows like q^2
    argv = ["verify", "-p", "3", "-m", "8", "--trials", "1", "--threads", "1"]
    monkeypatch.setenv("TRACECODES_WORK_BUDGET", "10000000")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["breaches"] == []
    monkeypatch.setenv("TRACECODES_WORK_BUDGET", "203432")
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "refused: identity suite needs 203433 entry-operations, over the budget of 203432")


def test_verify_forms_no_histogram_per_multiplier(monkeypatch, capsys):
    # the Gaussian sums and the class check read the trace table at the unit
    # codes and take no trace products: every trace_products call is one of the four per batch of
    # the one uv-slot count (the codeword's two multiples, the first of
    # them read by the weight check too); a product per z != 0 would take
    # q - 1 = 728 calls
    from tracecodes import analysis

    calls, batches = [], []
    real, real_counts = Field.trace_products, analysis.uv_slot_counts

    def counted(self, a, b):
        calls.append(1)
        return real(self, a, b)

    def counted_batches(rows, dp):
        batches.append(len(rows))
        return real_counts(rows, dp)
    monkeypatch.setattr(Field, "trace_products", counted)
    monkeypatch.setattr(analysis, "uv_slot_counts", counted_batches)
    assert main(["verify", "-p", "3", "-m", "6", "--trials", "1", "--threads", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["breaches"] == []
    assert batches == [2]
    assert len(calls) == 4 * len(batches)


def test_verify_at_61_counts_each_weight_row_once_in_time(capsys):
    # 100 weight rows counted once each take about 0.03 s on a 2-core x86
    # host; counting each row's 60 multiples as well takes 0.7-1.0 s there
    argv = ["verify", "-p", "61", "-m", "1", "--threads", "1"]
    assert main(argv) == 0  # field tables and the root table built once
    capsys.readouterr()
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 0.3
    assert json.loads(capsys.readouterr().out)["breaches"] == []


def test_verify_reduces_character_angles_exactly(tmp_path):
    # q - 1 = 2186 and N2 = 1093: the suite forms no float angle of its
    # own, every Gaussian sum coming from one FFT of the root table read at
    # the trace table (a roots-of-unity identity that once summed unreduced float
    # angles left 2.2e-8 here, and a false breach of 3.6e-6 at (3, 9,
    # N = 9841)); every residual, each of the field or the code, stays below
    # 1e-10
    start = time.perf_counter()
    code, report = run_json(tmp_path, "verify", "-p", "3", "-m", "7", "-N", "1093",
                            "--trials", "1", "--threads", "1")
    assert time.perf_counter() - start < 10
    assert code == 0 and report["breaches"] == []
    assert max(report["residuals"].values()) < 1e-10


def test_verify_at_large_n2_forms_its_gauss_sums_by_fft(tmp_path):
    # N2 = 9841: the 19682 sums of order q - 1 from one FFT serve every
    # order, and the 9841 class counts are checked by one integer count of
    # the trace table; the sums one at a time, q - 1 complex exponentials
    # each, took over 10 s at this point
    start = time.perf_counter()
    code, report = run_json(tmp_path, "verify", "-p", "3", "-m", "9", "-N", "9841",
                            "--trials", "1", "--threads", "1")
    assert time.perf_counter() - start < 5
    assert code == 0 and report["breaches"] == []
    assert max(report["residuals"].values()) < 1e-10


@pytest.mark.parametrize("argv,residuals", [
    (["-p", "3", "-m", "3", "-N", "1"], {
        "class_zero_traces": 0.0,
        "gauss_sum_modulus": 1.7763568394002505e-15,
        "gauss_sum_trivial": 0.0,
        "real_part_collapse": 0.0,
        "weight_vs_zero_count": 0.0}),
    (["-p", "5", "-m", "2", "-N", "3", "--subcode"], {
        "class_zero_traces": 0.0,
        "gauss_sum_modulus": 1.7763568394002505e-15,
        "gauss_sum_trivial": 0.0,
        "weight_vs_zero_count": 0.0}),
    (["-p", "61", "-m", "1", "--trials", "5"], {
        "class_zero_traces": 0.0,
        "gauss_sum_modulus": 3.552713678800501e-15,
        "gauss_sum_trivial": 0.0,
        "weight_vs_zero_count": 0.0}),
])
def test_verify_residuals_pinned(tmp_path, argv, residuals):
    # every residual of the identity suite, bit for bit, at seed 7: the
    # trial codewords, their multiples and the float sums keep their order;
    # p = 61 sums 61 roots per theta, through numpy's eight-way unrolled sum
    code, report = run_json(tmp_path, "verify", *argv, "--seed", "7", "--threads", "1")
    assert code == 0
    assert report["residuals"] == residuals


def test_unwritable_output_path_exits_two(tmp_path, capsys, monkeypatch):
    # a report that cannot be written is a usage error, not a mismatch, and
    # it is refused before any work: no field is built
    def no_field(*args, **kwargs):
        raise AssertionError("the run started before the output was checked")

    monkeypatch.setattr(Field, "__init__", no_field)
    for out in (tmp_path / "missing" / "r.json", tmp_path):  # no directory; a directory
        code = main(["analyze", "-p", "3", "-m", "1", "--threads", "1", "-o", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.is_file()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write the report to {out}")


def _cli_process(argv, **kwargs) -> subprocess.Popen:
    """Start `python -m tracecodes.cli argv` on the package under src/, its
    stdout block-buffered (PYTHONUNBUFFERED unset) as a user's would be."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.Popen([sys.executable, "-m", "tracecodes.cli", *argv], env=env,
                            text=True, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_exits_two_naming_stdout():
    # the report is flushed inside main, so a full device is caught there
    # and named; nothing is left for the interpreter to fail on at exit
    with open("/dev/full", "w") as full:
        proc = _cli_process(["analyze", "-p", "3", "-m", "1", "--format", "csv"],
                            stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2, err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write the report to stdout: ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_process_entry_writes_what_main_returns(tmp_path, capsys):
    # the process ends by os._exit after its report: each child's exit code
    # and stderr equal an in-process main call's, and its stdout equals the
    # report that call writes with -o, apart from runtime_ms
    runs = [
        ["analyze", "-p", "3", "-m", "2"],
        ["dual", "-p", "3", "-m", "3"],
        ["verify", "-p", "5", "-m", "2", "-N", "3", "--subcode"],
        ["analyze", "-p", "5", "-m", "7"],  # the 64-bit guard: exit 2
        ["analyze", "-p", "3", "-m", "2", "--budget", "1"],  # exit 3
    ]
    procs = [_cli_process(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in runs]
    runtime = re.compile(r'"runtime_ms": \d+')
    for i, (argv, proc, code) in enumerate(zip(runs, procs, (0, 0, 0, 2, 3))):
        out, err = proc.communicate(timeout=120)
        report = tmp_path / f"{i}.json"
        assert main([*argv, "-o", str(report)]) == code == proc.returncode
        assert capsys.readouterr().err == err
        written = report.read_text() if report.exists() else ""
        assert runtime.sub("", out) == runtime.sub("", written)
        assert ("runtime_ms" in out) == (code == 0)
    # the installed script runs the CLI module as python -m does
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'tracecodes = "tracecodes:main"' in pyproject.read_text()


@pytest.mark.parametrize("extra", [["--modulus", ""], ["-o", ""]])
def test_empty_modulus_or_output_exits_two_before_any_field(extra, monkeypatch, capsys):
    # an empty value was given, so it is refused, not read as the default
    def no_field(*args, **kwargs):
        raise AssertionError("a field was built before the empty value was refused")

    monkeypatch.setattr(Field, "__init__", no_field)
    code = main(["analyze", "-p", "3", "-m", "2", "--threads", "1", *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv", [["analyze"], ["dual"], ["verify", "--subcode"]])
def test_one_run_derives_its_parameters_once(argv, monkeypatch, capsys):
    # every library function takes the DerivedParams the run derived: count
    # the calls of derive_params through every tracecodes module that binds it
    from tracecodes import construction

    real, calls = construction.derive_params, []

    def counted(params):
        calls.append(params)
        return real(params)
    for name, module in list(sys.modules.items()):
        if name == "tracecodes" or name.startswith("tracecodes."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    assert main([*argv, "-p", "3", "-m", "2", "-N", "1", "--threads", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--method", "class"],
    ["analyze", "--method", "exhaustive"],
    ["dual"],
    ["verify"],
])
def test_negative_seed_exits_two_with_one_line_error(argv, capsys):
    code = main([*argv, "-p", "3", "-m", "2", "--threads", "1", "--seed", "-1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --seed must be >= 0, got -1"]


def test_pool_workers_are_capped_at_the_cpu_count(tmp_path, monkeypatch):
    # a large --threads must not start that many processes: a stand-in pool
    # records every request and none is made, the report keeps the requested
    # value, and the rows do not depend on it
    import concurrent.futures

    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["analyze", "-p", "3", "-m", "2", "--method", "exhaustive"]
    code, report = run_json(tmp_path, *argv, "--threads", "3000")
    assert code == 0
    assert requested == []
    assert report["threads"] == 3000
    assert report["rows"] == run_json(tmp_path, *argv, "--threads", "1")[1]["rows"]


def test_threads_option_starts_no_process(tmp_path):
    # --threads is checked and recorded but selects no code path: every
    # weight is counted in the calling process, so a fresh interpreter that
    # runs both methods at --threads 4 and 3000 never imports a process pool
    script = (
        "import json, sys\n"
        "from tracecodes.cli import main\n"
        "for method in ('class', 'exhaustive'):\n"
        "    for threads in ('4', '3000', '1'):\n"
        "        assert main(['analyze', '-p', '3', '-m', '2', '--method', method,\n"
        "                     '--threads', threads, '-o', f'{sys.argv[1]}/{method}-{threads}.json']) == 0\n"
        "print(json.dumps(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')\n"
        "                        if m in sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []
    for method in ("class", "exhaustive"):
        four, many, one = (json.loads((tmp_path / f"{method}-{t}.json").read_text())
                           for t in ("4", "3000", "1"))
        assert (four["threads"], many["threads"], one["threads"]) == (4, 3000, 1)
        assert four["method"] == many["method"] == method
        assert four["rows"] == many["rows"] == one["rows"]


@functools.lru_cache(maxsize=None)
def _modules_after_fresh_run(argv: tuple[str, ...]) -> list[str]:
    """Which of numpy.random, numpy.ma and tracecodes.oracles a fresh
    interpreter holds after main(argv) exits 0 (the pytest process has them
    all loaded already)."""
    script = (
        "import json, sys\n"
        "from tracecodes.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps([m for m in ('numpy.random', 'numpy.ma', 'tracecodes.oracles')\n"
        "                  if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*argv, "--threads", "1", "-o", str(Path(tmp) / "r.json")]
        out = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], env=env,
                             capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize("argv", [
    ("analyze", "-p", "3", "-m", "3", "--method", "class"),
    ("analyze", "-p", "3", "-m", "2", "--method", "exhaustive"),
    ("verify", "-p", "5", "-m", "2", "-N", "3", "--subcode"),
    ("dual", "-p", "3", "-m", "3"),
])
def test_no_cli_run_imports_numpy_random(argv):
    # every seeded draw comes from random.Random
    assert "numpy.random" not in _modules_after_fresh_run(argv)


@pytest.mark.parametrize("argv", [
    ("analyze", "-p", "3", "-m", "3", "--method", "class"),
    ("analyze", "-p", "3", "-m", "2", "--method", "exhaustive"),
    ("verify", "-p", "5", "-m", "2", "-N", "3", "--subcode"),
    ("dual", "-p", "3", "-m", "3"),
])
def test_no_cli_run_imports_the_oracles(argv):
    # the scalar and brute-force paths, the symbol streams among them, live
    # in tracecodes.oracles, which neither a command nor the package loads
    assert "tracecodes.oracles" not in _modules_after_fresh_run(argv)


@pytest.mark.parametrize("argv", [
    ("analyze", "-p", "3", "-m", "3", "--method", "class"),
    ("analyze", "-p", "3", "-m", "2", "--method", "exhaustive"),
    ("verify", "-p", "5", "-m", "2", "-N", "3", "--subcode"),
    ("dual", "-p", "3", "-m", "9"),
])
def test_no_cli_run_imports_numpy_ma(argv):
    # a plain np.unique(x) imports numpy.ma, about 1.4 MB of RSS per process;
    # np.unique(x, return_counts=True) and sorted-difference checks do not
    assert "numpy.ma" not in _modules_after_fresh_run(argv)
