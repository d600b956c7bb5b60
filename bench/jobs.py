"""Workload job lists and the report checker of the benchmark.

A job is one ``tracecodes`` CLI invocation (an argument list without
``--seed``; the benchmark appends the workload seed) together with the
outcome pinned from the unmodified program: exit code, field modulus,
weight rows, dual distance, refusal message.  ``check`` compares a finished
job against its pin and returns the list of problems (empty when the job
produced the expected, verified report).
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    exit: int = 0
    modulus: tuple[int, ...] | None = None
    rows: dict[int, int] | None = None  # analyze: the full weight distribution
    dual_distance: int | None = None    # dual: the verified distance
    sphere_packing: bool | None = None  # dual: sphere_packing_excludes_distance_3
    subcode: bool = False               # verify --subcode: subcode.ok must hold
    stderr: str | None = None           # refusal: message expected on stderr

    @property
    def refusal(self) -> bool:
        """The job ends at a parameter refusal, so all of it is set-up."""
        return self.exit != 0

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed)]

    def label(self) -> str:
        return " ".join(self.args)


def _analyze(p, m, N, variant, method, threads, modulus, rows):
    return Job(("analyze", "-p", str(p), "-m", str(m), "-N", str(N),
                "--variant", variant, "--method", method, "--threads", str(threads)),
               modulus=modulus, rows=rows)


GUARD_MESSAGE = "exceeds the 64-bit counting guard"

WORKLOADS: dict[str, list[Job]] = {
    # Many codeword rows over short coordinate streams; the kernel does
    # almost all the work in one process.
    "exhaustive": [
        _analyze(3, 2, 1, "lift", "exhaustive", 1, (2, 1, 1),
                 {0: 1, 7776: 6552, 8748: 8}),
        _analyze(3, 2, 1, "units", "exhaustive", 1, (2, 1, 1),
                 {0: 1, 15552: 6552, 17496: 8}),
        _analyze(11, 1, 1, "lift", "exhaustive", 1, (3, 1),
                 {0: 1, 4840: 14630, 5324: 10}),
        _analyze(11, 1, 1, "units", "exhaustive", 1, (3, 1),
                 {0: 1, 48400: 14630, 53240: 10}),
    ],
    # Few rows over long streams, through the process pool at two workers;
    # almost all kernel work is validation samples.
    "class": [
        _analyze(3, 3, 1, "lift", "class", 2, (1, 0, 2, 1),
                 {0: 1, 682344: 531414, 708588: 26}),
        _analyze(5, 2, 3, "lift", "class", 2, (2, 1, 1),
                 {0: 1, 62500: 8, 100000: 390600, 125000: 16}),
    ],
    # Character-sum identity suite: Gray histograms, Gaussian sums and
    # scalar field loops.
    "identities": [
        Job(("verify", "-p", "3", "-m", "3", "-N", "1", "--threads", "1"),
            modulus=(1, 0, 2, 1)),
        Job(("verify", "-p", "5", "-m", "2", "-N", "3", "--subcode", "--threads", "1"),
            modulus=(2, 1, 1), subcode=True),
    ],
    # Field construction: the modulus search dominates, and the last job is
    # refused by the 64-bit guard only after its field is built.
    "field-setup": [
        Job(("dual", "-p", "3", "-m", "9", "-N", "1", "--threads", "1"),
            modulus=(1, 0, 0, 0, 0, 0, 2, 1, 0, 1), dual_distance=2,
            sphere_packing=True),
        Job(("dual", "-p", "5", "-m", "6", "-N", "1", "--threads", "1"),
            modulus=(2, 0, 0, 0, 0, 1, 1), dual_distance=2, sphere_packing=True),
        Job(("analyze", "-p", "5", "-m", "7", "--threads", "1"),
            exit=2, stderr=GUARD_MESSAGE),
    ],
}


def _rows(entries) -> dict[int, int]:
    return {int(w): int(f) for w, f in entries}


def check(job: Job, returncode: int, stdout: str, stderr: str) -> list[str]:
    """Problems with one finished job, compared with its pinned outcome."""
    if returncode != job.exit:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {returncode}, expected {job.exit}: {tail[0]}"]
    if job.refusal:
        problems = []
        if job.stderr and job.stderr not in stderr:
            problems.append(f"refusal message {job.stderr!r} missing from stderr")
        if stdout.strip():
            problems.append("a refused job printed a report")
        return problems
    try:
        return _check_report(job, json.loads(stdout))
    except ValueError:
        return ["stdout is not a JSON report"]
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def _check_report(job: Job, report: dict) -> list[str]:
    problems: list[str] = []
    params = report.get("params", {})
    if job.modulus is not None and tuple(params.get("modulus", ())) != job.modulus:
        problems.append(f"modulus {params.get('modulus')}, expected {list(job.modulus)}")
    command = job.args[0]
    if command == "analyze":
        rows = _rows((r["weight"], r["frequency"]) for r in report.get("rows", []))
        if rows != job.rows:
            problems.append(f"weight rows {rows}, expected {job.rows}")
        if report.get("comparison", {}).get("ok") is not True:
            problems.append("comparison.ok is not true")
        exact = [p for p in report.get("predictions", []) if p.get("rows")]
        if not exact:
            problems.append("no prediction with exact rows")
        nonzero = {w: f for w, f in rows.items() if w}
        for pred in exact:
            if _rows(pred["rows"]) != nonzero:
                problems.append(f"rows differ from the {pred.get('regime')} prediction")
    elif command == "verify":
        if report.get("breaches") != []:
            problems.append(f"identity breaches {report.get('breaches')}")
        if job.subcode and report.get("subcode", {}).get("ok") is not True:
            problems.append("subcode.ok is not true")
    elif command == "dual":
        dual = report.get("dual_distance", {})
        if dual.get("distance") != job.dual_distance or dual.get("verified") is not True:
            problems.append(f"dual distance {dual}, expected {job.dual_distance} verified")
        if report.get("sphere_packing_excludes_distance_3") is not job.sphere_packing:
            problems.append("sphere-packing verdict changed")
    return problems
