"""Command-line front end: analyze / dual / verify with JSON or CSV reports.

Identical configurations (including the seed) produce byte-identical
reports apart from the runtime_ms field.  Exit codes: 0 all executed
checks passed, 1 mathematical mismatch or residual breach, 2 parameter or
usage error, 3 work-budget refusal.  A failed internal theorem check is an
AssertionError that main does not catch: it ends the process through the
interpreter, with its traceback and exit 1.  An analyze run that no
prediction applies to compares nothing: its comparison reads "ok": null
with status "no-applicable-prediction", and it exits 0.  The same holds
for the subcode section of verify --subcode; both sections come from
analysis.compare_with_predictions.  This module is the only one that
shapes JSON: each report section is dataclasses.asdict of the result the
library returns, so a verify breach carries its witness.  Handlers read
the parsed argparse.Namespace directly; the parser is the one list of
options and defaults.  The module holds the parser before the engine's
imports: run as ``python -m tracecodes.cli`` it refuses a request that
argparse or limits.check_request rejects before numpy is imported, while
``import tracecodes.cli`` loads the whole engine.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import NoReturn

from . import limits
from .errors import ParameterError, WorkBudgetExceeded

REPORT_VERSION = 5

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

#: Documented corrections relative to the published closed forms these
#: reports mirror; a flag appears whenever a run leans on the correction.
FLAG_LEE = "lee-weight-is-gray-image-weight"
FLAG_FREQ = "three-weight-middle-frequency-corrected"
FLAG_CEIL = "griesmer-exact-ceilings"
FLAG_DIM = "evaluation-map-not-injective"


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("-p", dest="p", type=int, required=True, help="odd prime")
    sp.add_argument("-m", dest="m", type=int, required=True, help="extension degree")
    sp.add_argument("-N", dest="N", type=int, default=1,
                    help="divisor of p^m - 1 selecting the base set (default 1)")
    sp.add_argument("--variant", choices=["lift", "units"], default="lift")
    sp.add_argument("--modulus",
                    help="comma-separated constant-first modulus coefficients, "
                         "for reproducing third-party computations")
    sp.add_argument("--seed", type=int, default=limits.DEFAULT_SEED,
                    help=f"PRNG seed (default {limits.DEFAULT_SEED})")
    sp.add_argument("--threads", type=int, default=1,
                    help="accepted, checked (>= 1) and recorded in the report; "
                         "all counting runs in this process (default 1)")
    sp.add_argument("-o", "--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecodes",
        description="Few-weight codes from trace evaluations over a nilpotent "
                    "local ring: exact Lee-weight distributions and certificates.",
    )
    parser.set_defaults(fmt="json")  # only analyze has rows to write as CSV
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="weight distribution, predictions, "
                                        "Griesmer and secret-sharing verdicts")
    _add_common(sp)
    sp.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    sp.add_argument("--method", choices=["exhaustive", "class"], default="exhaustive",
                    help="class also checks the uv-line classes on seeded samples")
    sp.add_argument("--samples", type=int, default=500,
                    help="validation samples per uv-line class (class method)")
    sp.add_argument("--budget", type=int, default=None,
                    help="entry-operation budget: q, plus N2 per class sample "
                         "(default from TRACECODES_WORK_BUDGET or 10^10)")

    sp = sub.add_parser("dual", help="dual Lee distance with witness")
    _add_common(sp)

    sp = sub.add_parser("verify", help="character-sum identity suite")
    _add_common(sp)
    sp.add_argument("--trials", type=int, default=100,
                    help="random codewords each code identity checks (default 100)")
    sp.add_argument("--subcode", action="store_true",
                    help="also count the field subcode and compare")

    return parser


def _usage_error(exc: ParameterError) -> int:
    print(f"error: {exc}", file=sys.stderr, flush=True)
    return EXIT_USAGE


if __name__ == "__main__":
    # python -m tracecodes.cli: a request that a table-free check refuses,
    # or that argparse rejects, ends here, before the engine and numpy load
    try:
        limits.check_request(build_parser().parse_args())
    except ParameterError as exc:
        os._exit(_usage_error(exc))

import json
from dataclasses import asdict

from . import analysis, bounds
from .construction import CodeParams, DerivedParams, Variant, derive_params
from .field import Field


def _build_params(cfg: argparse.Namespace) -> DerivedParams:
    """The run's one derived parameter set; every handler passes it on."""
    modulus = limits.parse_modulus(cfg.modulus) if cfg.modulus is not None else None
    field = Field(cfg.p, cfg.m, modulus=modulus)
    return derive_params(CodeParams(field, cfg.N, Variant(cfg.variant)))


def _params_section(dp) -> dict:
    return {
        "p": dp.p,
        "m": dp.m,
        "N": dp.params.N,
        "variant": dp.variant.value,
        "modulus": list(dp.field.modulus),
        "q": dp.q,
        "N1": dp.N1,
        "N2": dp.N2,
        "n": dp.n,
        "length": dp.length,
        "gray_length": dp.gray_length,
        "dimension": dp.dimension,
        "note": dp.note,
    }


def _report_head(command: str, cfg: argparse.Namespace, dp, flags: list[str]) -> dict:
    """The keys every report shares; the dimension flag joins `flags`
    whenever r -> c(r) has a kernel (dimension below 4m)."""
    if dp.dimension < 4 * dp.m:
        flags = [*flags, FLAG_DIM]
    return {"report_version": REPORT_VERSION, "command": command,
            "params": _params_section(dp), "seed": cfg.seed, "threads": cfg.threads,
            "erratum_flags": sorted(flags)}


def _rows_section(entries: dict[int, int]) -> list[dict]:
    return [{"weight": w, "frequency": f} for w, f in sorted(entries.items())]


def _compared(section: dict) -> dict:
    """A comparison section; one that compared nothing says so."""
    if section["ok"] is None:
        section["status"] = "no-applicable-prediction"
    return section


def cmd_analyze(cfg: argparse.Namespace) -> tuple[dict, int]:
    budget = limits.resolve_budget(cfg.budget)
    dp = _build_params(cfg)
    if cfg.method == "class":
        dist = analysis.distribution_by_class(dp, samples_per_class=cfg.samples,
                                              seed=cfg.seed, budget=budget)
    else:
        dist = analysis.distribution_exhaustive(dp, budget=budget)

    preds = analysis.predict(dp)
    comparison = analysis.compare_with_predictions(dist.entries, preds)

    d_min = dist.min_nonzero_weight
    verdict = bounds.griesmer_optimal(dp.gray_length, dp.dimension, d_min, dp.p)
    dual = bounds.dual_lee_distance(dp)
    sss = bounds.minimality_check(dist.entries, dp.p)

    flags = [FLAG_LEE, FLAG_CEIL]
    if any(p.regime.startswith("three_weight") for p in preds):
        flags.append(FLAG_FREQ)

    report = _report_head("analyze", cfg, dp, flags) | {
        "method": dist.method,
        "rows": _rows_section(dist.entries),
        "detail": dist.detail,
        "predictions": [asdict(p) for p in preds],
        "comparison": _compared(asdict(comparison)),
        "griesmer": asdict(verdict) | {"optimal": verdict.optimal,
                                       "inconclusive": verdict.inconclusive},
        "dual_distance": asdict(dual),
        "sss": asdict(sss),
    }
    # the zero row holds the kernel of r -> c(r), p^(4m - k) codewords
    kernel = dp.p ** (4 * dp.m - dp.dimension)
    if dist.entries.get(0) != kernel:
        print(f"mathematical violation: the zero row holds {dist.entries.get(0)} codewords, "
              f"expected p^(4m-k) = {kernel} at dimension k = {dp.dimension}", file=sys.stderr)
        return report, EXIT_MISMATCH
    return report, EXIT_MISMATCH if comparison.ok is False else EXIT_OK


def cmd_dual(cfg: argparse.Namespace) -> tuple[dict, int]:
    dp = _build_params(cfg)
    result = bounds.dual_lee_distance(dp)
    excluded = bounds.sphere_packing_excludes(dp.gray_length, dp.dimension, dp.p)
    report = _report_head("dual", cfg, dp, [FLAG_LEE]) | {
        "dual_distance": asdict(result),
        "sphere_packing_excludes_distance_3": excluded,
    }
    return report, EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> tuple[dict, int]:
    dp = _build_params(cfg)
    identities = analysis.verify_identities(dp, trials=cfg.trials, seed=cfg.seed)
    report = _report_head("verify", cfg, dp, [FLAG_LEE]) | asdict(identities)
    ok = identities.ok
    if cfg.subcode:
        sub = analysis.subcode_report(dp)
        rows = _rows_section(sub.pop("distribution"))
        report["subcode"] = _compared(sub | {"rows": rows})
        ok = ok and sub["ok"] is not False
    return report, EXIT_OK if ok else EXIT_MISMATCH


def _emit(report: dict, cfg: argparse.Namespace, runtime_ms: int) -> None:
    report["runtime_ms"] = runtime_ms
    if cfg.fmt == "csv":
        lines = ["weight,frequency"]
        for row in report["rows"]:
            lines.append(f"{row['weight']},{row['frequency']}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


_HANDLERS = {"analyze": cmd_analyze, "dual": cmd_dual, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    start = time.monotonic()
    try:
        limits.check_request(cfg)
        report, code = _HANDLERS[cfg.command](cfg)
    except ParameterError as exc:
        return _usage_error(exc)
    except WorkBudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    runtime_ms = int((time.monotonic() - start) * 1000)
    try:
        _emit(report, cfg, runtime_ms)
    except OSError as exc:  # the -o path, or stdout (a full device, a closed pipe), refused it
        print(f"error: cannot write the report to {cfg.out or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    return code


def run() -> NoReturn:
    """The process entry of ``python -m tracecodes.cli`` and of the
    ``tracecodes`` script: `main`, stderr flushed, then the process ends at
    once with its exit code.  The interpreter's teardown (a final GC and
    module cleanup over numpy's heap, about 40 ms) writes nothing, so it is
    skipped.  `_emit` flushed the report inside `main`, where a failure is
    caught and reported; flushing stdout again would retry the bytes that
    failed.  An exception escaping `main` still leaves through the
    interpreter, with its traceback and exit 1; in-process callers of
    `main` get its return value and keep their interpreter.  Under
    ``python -m`` a request that a table-free check refuses has already
    ended before the engine's imports; the script imports the engine first."""
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
