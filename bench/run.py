"""Benchmark of the tracecodes CLI: four workloads, checked reports, a traced run.

Usage, from the repository root::

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 15 --trace 0

One load-generating process runs each job of the workload as its own
``python -m tracecodes.cli`` subprocess, one at a time (a closed loop with a
single client: the next job starts when the previous one has exited).  Each
job is timed from outside and metered with ``os.wait4`` rusage, which
includes the pool workers the job reaped.  Every report is checked against
the outcome pinned in ``jobs.py``.  Whole passes over the job list repeat
while the next pass still fits in ``--seconds`` (at least one pass); each
metric is the median over passes.

``--trace 0`` prints the end-to-end metrics; before the passes, each job's
set-up (fresh interpreter, ``import tracecodes.cli``, field build,
``derive_params``) is probed three times in its own interpreter.
``--trace 1`` runs each job untraced and then replays it through
``bench/tracer.py`` (``tracecodes.cli.main`` in-process, with spans around
the layer entry points); it prints the per-layer metrics, and the tracing
overhead as traced over untraced wall time of the same jobs.

The workload seed is forwarded as ``--seed`` to every job.  The last line of
stdout is one JSON object; a fuller record (per-job samples, seed, commit,
machine facts) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as joblist  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"

#: The whole run ends within this many seconds; jobs still running then are
#: killed and count as failed.
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 3

#: Children see only this environment: the package from src/, no work
#: budget override (so auto/budget decisions cannot drift) and single-threaded
#: BLAS so numpy stays inside each job's stated --threads.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", os.defpath),
    "PYTHONPATH": "src",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}

PER_LAYER_UNITS = {
    "field.modulus_search_s": "s",
    "field.irreducibility_tests": "count",
    "field.table_build_s": "s",
    "field.trmul_table_s": "s",
    "field.table_bytes": "bytes",
    "construction.derive_params_s": "s",
    "construction.coord_blocks_s": "s",
    "construction.stream_passes": "count",
    "analysis.kernel_s": "s",
    "analysis.kernel_calls": "count",
    "analysis.kernel_entry_ops": "count",
    "analysis.kernel_entry_ops_per_s": "1/s",
    "analysis.validation_ops_share": "ratio",
    "analysis.distribution_s": "s",
    "analysis.identities_s": "s",
    "analysis.histogram_s": "s",
    "analysis.histogram_calls": "count",
    "analysis.histogram_entry_ops": "count",
    "analysis.subcode_s": "s",
    "analysis.predict_compare_s": "s",
    "bounds.certificates_s": "s",
    "bounds.dual_s": "s",
    "cli.import_s": "s",
    "cli.report_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
}


class Runner:
    """Runs child processes one at a time and keeps every job record."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.records: list[dict] = []
        self._count = 0

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; wall time, rusage and output."""
        self._count += 1
        out_path = self.workdir / f"{self._count}.out"
        err_path = self.workdir / f"{self._count}.err"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, start_new_session=True)

            def kill():
                timed_out.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)  # the job and its pool workers
                except ProcessLookupError:
                    pass
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "returncode": proc.returncode,
            "timed_out": timed_out.is_set(),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace"),
        }

    def run_job(self, job: joblist.Job, seed: int, kind: str, prefix: list[str]) -> dict:
        """Run one job (or its set-up probe) and record it with its problems."""
        result = self.spawn([sys.executable, *prefix, *job.argv(seed)])
        if kind == "setup":
            problems = [] if result["returncode"] == 0 else [
                f"set-up probe exit code {result['returncode']}"]
        else:
            problems = joblist.check(job, result["returncode"], result["stdout"],
                                     result["stderr"])
        if result["timed_out"]:
            problems.insert(0, "killed at the run deadline")
        record = {"job": job.label(), "kind": kind, "problems": problems,
                  **{k: result[k] for k in ("returncode", "wall_s", "cpu_s", "maxrss_kb")}}
        self.records.append(record)
        return record

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def untraced_pass(runner: Runner, jobs: list[joblist.Job], seed: int) -> list[dict]:
    return [runner.run_job(job, seed, "job", ["-m", "tracecodes.cli"]) for job in jobs]


def setup_pass(runner: Runner, jobs: list[joblist.Job], seed: int) -> list[dict | None]:
    """One set-up probe per non-refusal job (None for refusals: a refusal
    job is all set-up, so its own wall time is its set-up sample)."""
    return [None if job.refusal else
            runner.run_job(job, seed, "setup", ["bench/setup_probe.py"])
            for job in jobs]


def traced_pass(runner: Runner, jobs: list[joblist.Job], seed: int) -> list[dict]:
    """Each job untraced, then at once traced, so the pair sees the same
    machine state; traced records carry the paired untraced wall time."""
    records = []
    for job in jobs:
        untraced = runner.run_job(job, seed, "job", ["-m", "tracecodes.cli"])
        spans_dir = runner.workdir / f"spans-{len(runner.records)}"
        spans_dir.mkdir()
        record = runner.run_job(job, seed, "traced",
                                ["bench/tracer.py", str(spans_dir), "--"])
        if (spans_dir / "main.json").exists():
            record["layers"] = tracer.layer_metrics(*tracer.load_spans(spans_dir))
        else:
            record["problems"].append("the traced job wrote no spans")
        record["untraced_wall_s"] = untraced["wall_s"]
        records.append(record)
    return records


def repeat(run_pass, seconds: float, runner: Runner) -> list[list[dict]]:
    """Whole passes while the next one still fits in `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass())
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed + last > seconds or last > runner.time_left():
            return passes


def end_to_end(passes: list[list[dict]], setups: list[list[dict | None]],
               jobs: list[joblist.Job]) -> dict[str, float]:
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    cpus = [sum(r["cpu_s"] for r in p) for p in passes]
    rss = [max(r["maxrss_kb"] for r in p) / 1024 for p in passes]
    setup = 0.0
    for i, job in enumerate(jobs):
        if job.refusal:
            samples = [p[i]["wall_s"] for p in passes]
        else:
            samples = [s[i]["wall_s"] for s in setups]
        setup += statistics.median(samples)
    return {"wall_s": statistics.median(walls), "setup_s": setup,
            "cpu_s": statistics.median(cpus), "peak_rss_mb": statistics.median(rss)}


def per_layer(passes: list[list[dict]]) -> dict[str, float]:
    per_pass = []
    for p in passes:
        sums: dict[str, float] = {}
        for record in p:
            for key, value in record.get("layers", {}).items():
                sums[key] = sums.get(key, 0) + value
        traced_wall = sum(r["wall_s"] for r in p)
        ops = sums.get("analysis.kernel_entry_ops", 0)
        inclusive = sums.get("analysis.kernel_inclusive_s", 0.0)
        class_ops = sums.get("analysis.class_ops", 0)
        sums["analysis.kernel_entry_ops_per_s"] = ops / inclusive if inclusive else 0.0
        sums["analysis.validation_ops_share"] = (
            sums.get("analysis.validation_ops", 0) / class_ops if class_ops else 0.0)
        sums["trace.overhead_ratio"] = traced_wall / sum(r["untraced_wall_s"] for r in p)
        sums["trace.span_coverage"] = sums.get("trace.spanned_s", 0.0) / traced_wall
        per_pass.append(sums)
    return {name: statistics.median(s.get(name, 0) for s in per_pass)
            for name in PER_LAYER_UNITS}


def machine_facts(versions: dict) -> dict:
    facts = {"nproc": os.cpu_count(), "platform": platform.platform(), **versions,
             "cpu_model": None, "l2_bytes": None, "l3_bytes": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and size.endswith("K"):
            facts[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return facts


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def preflight() -> dict:
    """Versions from a child with the pinned environment; raises when the
    program cannot be imported from src/."""
    if not (ROOT / "src" / "tracecodes" / "cli.py").is_file():
        raise RuntimeError(f"no program at {ROOT / 'src' / 'tracecodes'}")
    probe = ("import json, platform, numpy, tracecodes.cli; "
             "print(json.dumps({'python': platform.python_version(), "
             "'numpy': numpy.__version__}))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=CHILD_ENV,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import tracecodes.cli: {out.stderr.strip()}")
    return json.loads(out.stdout)


def run_workload(jobs: list[joblist.Job], seed: int, seconds: float, trace: bool,
                 workdir: Path, deadline: float) -> dict:
    """Measure one workload; returns metrics, counts and every job record."""
    runner = Runner(workdir, deadline)
    if trace:
        passes = repeat(lambda: traced_pass(runner, jobs, seed), seconds, runner)
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in per_layer(passes).items()}
    else:
        setups = [setup_pass(runner, jobs, seed) for _ in range(SETUP_REPEATS)]
        passes = repeat(lambda: untraced_pass(runner, jobs, seed), seconds, runner)
        values = end_to_end(passes, setups, jobs)
        attempted = len(runner.records)
        values["ok_ratio"] = sum(not r["problems"] for r in runner.records) / attempted
        metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}
    failed = sum(bool(r["problems"]) for r in runner.records)
    return {"attempted": len(runner.records), "failed": failed, "passes": len(passes),
            "metrics": metrics, "records": runner.records}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(joblist.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024,
                        help="workload seed, forwarded to every job as --seed "
                             "(reduced modulo 2^32)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measurement window; whole passes repeat while the "
                             "next one fits")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        versions = preflight()
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    jobs = joblist.WORKLOADS[args.workload]
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    workdir = RESULTS / f"{name}.work"
    workdir.mkdir()
    try:
        result = run_workload(jobs, seed, args.seconds, bool(args.trace), workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for record in result["records"]:
        for problem in record["problems"]:
            print(f"FAIL [{record['kind']}] {record['job']}: {problem}", file=sys.stderr)
    for metric, (value, unit) in result["metrics"].items():
        print(f"{args.workload:12s} {metric:36s} {value:16.6f} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "job_seed": seed,
        "seconds": args.seconds, "trace": args.trace, "commit": git_commit(),
        "machine": machine_facts(versions), "passes": result["passes"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "records": result["records"],
    }
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
