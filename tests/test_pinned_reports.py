"""Whole reports pinned: the claim that a change leaves every report
byte-identical apart from runtime_ms is this test.

Each argv runs through cli.main in this process.  Its outcome is the
sorted-key JSON of the report without runtime_ms (None when nothing is
printed), its stderr and its exit code, and the test pins a sha256 prefix
of that.  The runs are the benchmark's eleven jobs at seed 7 (bench/jobs.py),
the subcode check at (3,4,N=4), a units point whose weights pass 2^63, a
budget refusal, the CSV format, two points with exact interval bounds, a
units dual and, through a wrong prediction, a wrong subcode table and a
corrupted class count, two mismatches and an identity breach: every
subcommand, both variants and formats, and exit codes 0 to 3.  On a
mismatch the new outcome is printed, so a declared report change can be
read and re-pinned.
"""

import hashlib
import json

import pytest

from tracecodes.cli import main

PINNED = {
    # exhaustive
    "analyze -p 3 -m 2 -N 1 --variant lift --method exhaustive --threads 1 --seed 7":
        "3d98a28ed7e03a9e",
    "analyze -p 3 -m 2 -N 1 --variant units --method exhaustive --threads 1 --seed 7":
        "2b7b4345265276fb",
    "analyze -p 11 -m 1 -N 1 --variant lift --method exhaustive --threads 1 --seed 7":
        "214d9119332c349b",
    "analyze -p 11 -m 1 -N 1 --variant units --method exhaustive --threads 1 --seed 7":
        "df777f8202c52f0f",
    # class
    "analyze -p 3 -m 3 -N 1 --variant lift --method class --threads 2 --seed 7":
        "c21158bf9ff71416",
    "analyze -p 5 -m 2 -N 3 --variant lift --method class --threads 2 --seed 7":
        "9c30ebcae2c5c7ce",
    # identities
    "verify -p 3 -m 3 -N 1 --threads 1 --seed 7":
        "c6a26558e2548476",
    "verify -p 5 -m 2 -N 3 --subcode --threads 1 --seed 7":
        "fdf76b2f30b9506a",
    # field-setup
    "dual -p 3 -m 9 -N 1 --threads 1 --seed 7":
        "47bbdd1f985f9e4c",
    "dual -p 5 -m 6 -N 1 --threads 1 --seed 7":
        "2f3af06961d09ce4",
    "analyze -p 5 -m 7 --threads 1 --seed 7":
        "6f672fb913b00d1d",
    # beyond the benchmark
    "verify -p 3 -m 4 -N 4 --subcode":
        "282a7d334f4bf430",
    "analyze -p 40009 -m 1 --variant units":
        "8fe4425c76d2e7f6",
    "analyze -p 3 -m 2 --budget 8":
        "b96f447185fc3436",
    "analyze -p 3 -m 2 --format csv":
        "6a28708fa8853db4",
    "analyze -p 31 -m 3 -N 3":
        "602dc92d3e29de66",
    "analyze -p 3 -m 6 -N 13":
        "8ffa9995d040aa85",
    "dual -p 131 -m 1 --variant units":
        "1a25983dae1cc207",
}


def outcome(argv: str, capsys) -> str:
    """The sorted-key JSON of one run's report (a JSON report without
    runtime_ms, CSV as printed), stderr and exit code."""
    code = main(argv.split())
    out, err = capsys.readouterr()
    if out.startswith("{"):
        out = json.loads(out)
        del out["runtime_ms"]
    return json.dumps({"exit": code, "report": out or None, "stderr": err},
                      sort_keys=True, indent=1)


def assert_pinned(argv: str, pin: str, capsys) -> dict:
    """Check one run's pin and return its outcome as parsed JSON."""
    text = outcome(argv, capsys)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    if digest != pin:
        print(text)
    assert digest == pin, f"{argv}: the report changed (printed above)"
    return json.loads(text)


@pytest.fixture(autouse=True)
def _default_budget(monkeypatch):
    monkeypatch.delenv("TRACECODES_WORK_BUDGET", raising=False)


@pytest.mark.parametrize("argv", list(PINNED))
def test_report_is_pinned(argv, capsys):
    assert_pinned(argv, PINNED[argv], capsys)


def test_mismatch_report_is_pinned(capsys, monkeypatch):
    # exit 1: a prediction the measured rows contradict
    from tracecodes import analysis

    def wrong_prediction(params):
        return [analysis.Prediction(regime="two_weight_lift",
                                    rows=((7776, 6551), (8748, 9)), side_conditions=())]

    monkeypatch.setattr(analysis, "predict", wrong_prediction)
    assert_pinned("analyze -p 3 -m 2 -N 1", "871f9a06409b7983", capsys)


def test_subcode_mismatch_report_is_pinned(capsys, monkeypatch):
    # exit 1 through verify --subcode: a subcode table with its frequencies
    # swapped, so the section's predictions, verdict and rows are all pinned
    from tracecodes import analysis

    def wrong_subcode_table(params):
        return [analysis.Prediction(regime="subcode_two_weight_general",
                                    rows=((6, 20), (9, 60)), side_conditions=(),
                                    scope="subcode")]

    monkeypatch.setattr(analysis, "predict_subcode", wrong_subcode_table)
    result = assert_pinned("verify -p 3 -m 4 -N 4 --subcode", "b494fe6b306e0450", capsys)
    assert result["exit"] == 1
    assert result["report"]["subcode"]["ok"] is False


def test_breach_report_is_pinned(capsys, monkeypatch):
    # exit 1 through verify: one class count off by one breaches the identity
    # suite at that class, and the report carries the library's breaches,
    # witness included
    from test_analysis import _corrupt_class_counts

    from tracecodes import CodeParams, Field, derive_params, verify_identities

    _corrupt_class_counts(monkeypatch, [3])
    result = assert_pinned("verify -p 3 -m 4 -N 4 --trials 1", "48f956f2a868ed04", capsys)
    breaches = verify_identities(derive_params(CodeParams(Field(3, 4), 4)), trials=1).breaches
    assert result["exit"] == 1
    assert [b["witness"] for b in breaches] == [{"class": 3}]
    assert result["report"]["breaches"] == breaches
