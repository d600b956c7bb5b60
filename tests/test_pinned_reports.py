"""Whole reports pinned: the claim that a change leaves every report
byte-identical apart from runtime_ms is this test.

Each argv runs through cli.main in this process.  Its outcome is the
sorted-key JSON of the report without runtime_ms (None when nothing is
printed), its stderr and its exit code, and the test pins a sha256 prefix
of that.  The runs are the benchmark's eleven jobs at seed 7 (bench/jobs.py),
the subcode check at (3,4,N=4), a units point whose weights pass 2^63,
argparse's refusal of an unknown option, verify's budget refusal, the CSV
format, two points with exact interval bounds, a
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
        "f94c08cfaa4393c7",
    "analyze -p 3 -m 2 -N 1 --variant units --method exhaustive --threads 1 --seed 7":
        "c3f119ef13fedc58",
    "analyze -p 11 -m 1 -N 1 --variant lift --method exhaustive --threads 1 --seed 7":
        "5fa7336de50f6e21",
    "analyze -p 11 -m 1 -N 1 --variant units --method exhaustive --threads 1 --seed 7":
        "1b1d64adf55877e2",
    # class
    "analyze -p 3 -m 3 -N 1 --variant lift --method class --threads 2 --seed 7":
        "52a37f19452bc9b1",
    "analyze -p 5 -m 2 -N 3 --variant lift --method class --threads 2 --seed 7":
        "b1f1085acfbd25f7",
    # identities
    "verify -p 3 -m 3 -N 1 --threads 1 --seed 7":
        "cca4a8bf938e2ac9",
    "verify -p 5 -m 2 -N 3 --subcode --threads 1 --seed 7":
        "d5aca058fd3d1552",
    # field-setup
    "dual -p 3 -m 9 -N 1 --threads 1 --seed 7":
        "b0affdfcd5602ac9",
    "dual -p 5 -m 6 -N 1 --threads 1 --seed 7":
        "5aee909843cbc7e0",
    "analyze -p 5 -m 7 --threads 1 --seed 7":
        "6f672fb913b00d1d",
    # beyond the benchmark
    "verify -p 3 -m 4 -N 4 --subcode":
        "6554b2be52e5b108",
    "analyze -p 40009 -m 1 --variant units":
        "8403290af2c3c07a",
    "analyze -p 3 -m 2 --budget 8":
        "ecd0a26914389d93",
    "verify -p 4099 -m 1":
        "ed2ab8c8dd6b9633",
    "analyze -p 3 -m 2 --format csv":
        "6a28708fa8853db4",
    "analyze -p 31 -m 3 -N 3":
        "0c458748758a6255",
    "analyze -p 3 -m 6 -N 13":
        "af9406bd05c8cd7e",
    "dual -p 131 -m 1 --variant units":
        "65437e8c14a06b6d",
}


def outcome(argv: str, capsys) -> str:
    """The sorted-key JSON of one run's report (a JSON report without
    runtime_ms, CSV as printed), stderr and exit code."""
    try:
        code = main(argv.split())
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
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
    assert_pinned("analyze -p 3 -m 2 -N 1", "1ece34330f0a3874", capsys)


def test_subcode_mismatch_report_is_pinned(capsys, monkeypatch):
    # exit 1 through verify --subcode: a subcode table with its frequencies
    # swapped, so the section's predictions, verdict and rows are all pinned
    from tracecodes import analysis

    def wrong_subcode_table(params):
        return [analysis.Prediction(regime="subcode_two_weight_general",
                                    rows=((6, 20), (9, 60)), side_conditions=(),
                                    scope="subcode")]

    monkeypatch.setattr(analysis, "predict_subcode", wrong_subcode_table)
    result = assert_pinned("verify -p 3 -m 4 -N 4 --subcode", "d8a422dfccb20f46", capsys)
    assert result["exit"] == 1
    assert result["report"]["subcode"]["ok"] is False


def test_breach_report_is_pinned(capsys, monkeypatch):
    # exit 1 through verify: one class count off by one breaches the identity
    # suite at that class, and the report carries the library's breaches,
    # witness included
    from test_analysis import _corrupt_class_counts

    from tracecodes import CodeParams, Field, derive_params, verify_identities

    _corrupt_class_counts(monkeypatch, [3])
    result = assert_pinned("verify -p 3 -m 4 -N 4 --trials 1", "ea7a03c6d890810d", capsys)
    breaches = verify_identities(derive_params(CodeParams(Field(3, 4), 4)), trials=1).breaches
    assert result["exit"] == 1
    assert [b["witness"] for b in breaches] == [{"class": 3}]
    assert result["report"]["breaches"] == breaches
