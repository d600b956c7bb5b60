"""Self-test of the benchmark: a tiny job list end to end, and the checker.

Run from the repository root: ``python -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs as joblist  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

EXHAUSTIVE = joblist.Job(
    ("analyze", "-p", "3", "-m", "1", "-N", "1", "--variant", "lift",
     "--method", "exhaustive", "--threads", "1"),
    modulus=(1, 1), rows={0: 1, 72: 78, 108: 2})
SMOKE = [
    EXHAUSTIVE,
    joblist.Job(("analyze", "-p", "3", "-m", "1", "-N", "1", "--variant", "lift",
                 "--method", "class", "--threads", "2"),
                modulus=(1, 1), rows={0: 1, 72: 78, 108: 2}),
    joblist.Job(("verify", "-p", "3", "-m", "1", "-N", "1", "--threads", "1"),
                modulus=(1, 1)),
    joblist.Job(("dual", "-p", "3", "-m", "1", "-N", "1", "--threads", "1"),
                modulus=(1, 1), dual_distance=2, sphere_packing=True),
    joblist.Job(("analyze", "-p", "3", "-m", "2", "-N", "5", "--threads", "1"),
                exit=2, stderr="N does not divide"),
]


def _run(tmp_path, trace):
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    return run.run_workload(SMOKE, 7, 0.0, trace, tmp_path, deadline)


def test_smoke_end_to_end(tmp_path):
    result = _run(tmp_path, trace=False)
    assert result["failed"] == 0, [r["problems"] for r in result["records"]]
    assert result["passes"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value, _ in result["metrics"].values())
    assert result["metrics"]["ok_ratio"][0] == 1.0
    job_args = [r for r in result["records"] if r["kind"] == "job"]
    assert len(job_args) == len(SMOKE)


def test_smoke_traced_spans_account_for_wall(tmp_path):
    result = _run(tmp_path, trace=True)
    assert result["failed"] == 0, [r["problems"] for r in result["records"]]
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["analysis.kernel_calls"] > 0
    assert metrics["analysis.histogram_calls"] > 0
    assert 0 < metrics["analysis.validation_ops_share"] < 1
    assert 0.5 < metrics["trace.span_coverage"] <= 1.0
    for record in result["records"]:
        if record["kind"] != "traced":
            continue
        layers = record["layers"]
        self_total = sum(layers[m] for m in tracer.SELF_TIME_METRICS)
        assert layers["trace.spanned_s"] <= record["wall_s"]
        words = record["job"].split()
        if words[words.index("--threads") + 1] == "1":
            assert self_total == pytest.approx(layers["trace.spanned_s"], abs=1e-6)
        else:  # pool workers add their own spanned time on top
            assert self_total >= layers["trace.spanned_s"] - 1e-6


def _report(job):
    out = subprocess.run([sys.executable, "-m", "tracecodes.cli", *job.argv(7)],
                         cwd=ROOT, env=run.CHILD_ENV, capture_output=True, text=True,
                         timeout=120)
    return out.returncode, out.stdout, out.stderr


def test_checker_counts_doctored_report_and_wrong_exit():
    code, stdout, stderr = _report(EXHAUSTIVE)
    assert joblist.check(EXHAUSTIVE, code, stdout, stderr) == []

    report = json.loads(stdout)
    report["rows"][1]["frequency"] += 1
    assert joblist.check(EXHAUSTIVE, code, json.dumps(report), stderr)

    assert joblist.check(EXHAUSTIVE, 1, stdout, stderr)
    refusal = SMOKE[-1]
    assert joblist.check(refusal, 0, stdout, "")
    assert joblist.check(refusal, 2, "", "error: something else\n")


def test_pinned_rows_match_predictions():
    from tracecodes import CodeParams, Field, Variant, derive_params, predict

    for jobs in joblist.WORKLOADS.values():
        for job in jobs:
            if job.rows is None:
                continue
            args = dict(zip(job.args[1::2], job.args[2::2]))
            field = Field(int(args["-p"]), int(args["-m"]))
            assert field.modulus == job.modulus
            dp = derive_params(CodeParams(field, int(args["-N"]), Variant(args["--variant"])))
            exact = [p for p in predict(dp) if p.rows]
            assert exact, job.label()
            nonzero = {w: f for w, f in job.rows.items() if w}
            assert all(p.rows_dict() == nonzero for p in exact), job.label()


def test_every_job_passes_threads_and_gets_the_seed():
    for jobs in joblist.WORKLOADS.values():
        for job in jobs:
            assert "--threads" in job.args
            assert job.argv(5)[-2:] == ["--seed", "5"]


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "exhaustive",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(joblist.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
