import json

import pytest

from tracecodes.cli import main


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
    code = main(["analyze", "-p", "5", "-m", "2", "-N", "3",
                 "--method", "exhaustive", "--threads", "1"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


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
    with pytest.raises(SystemExit):
        main(["dual", "-p", "3", "-m", "2", "--cap", "5"])


def test_verify_command(tmp_path):
    code, report = run_json(
        tmp_path, "verify", "-p", "3", "-m", "2", "-N", "2",
        "--trials", "10", "--threads", "1",
    )
    assert code == 0
    assert report["breaches"] == []
    assert all(v < 1e-6 for v in report["residuals"].values())


def test_verify_subcode(tmp_path):
    code, report = run_json(
        tmp_path, "verify", "-p", "3", "-m", "4", "-N", "4",
        "--trials", "2", "--threads", "1", "--subcode",
    )
    assert code == 0
    rows = {r["weight"]: r["frequency"] for r in report["subcode"]["rows"]}
    assert rows == {0: 1, 6: 60, 9: 20}
    assert report["subcode"]["ok"] is True


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
    monkeypatch.setenv("TRACECODES_WORK_BUDGET", "1000")
    code = main(["analyze", "-p", "3", "-m", "2", "-N", "1",
                 "--method", "exhaustive", "--threads", "1"])
    assert code == 3


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
