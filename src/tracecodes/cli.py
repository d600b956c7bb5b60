"""Command-line front end: analyze / dual / verify with JSON or CSV reports.

Identical configurations (including the seed) produce byte-identical
reports apart from the runtime_ms field.  Exit codes: 0 all executed
checks passed, 1 a prediction mismatch or residual breach, 2 parameter or
usage error, 3 a work-budget refusal, which only verify makes: the 64-bit
guard bounds analyze's O(q) work.  A failed internal theorem check (the
library's, such as a zero row off the dimension in
analysis.distribution_exhaustive) is an AssertionError that main does not
catch: it ends the process through the interpreter, with its traceback
and exit 1, and writes no report.  An analyze run that no
prediction applies to compares nothing: its comparison reads "ok": null
with status "no-applicable-prediction", and it exits 0.  The same holds
for the subcode section of verify --subcode; both sections come from
analysis.compare_with_predictions.  This module is the only one that
shapes JSON: each report section is the _asdict() of the record the
library returns, so a verify breach carries its witness.  Handlers read
the parsed argparse.Namespace directly; the parser is the one list of
options and defaults.  The parser, the report writer and cmd_dual, which
reads no field table, come before the engine's imports: run as ``python -m
tracecodes.cli`` it refuses a request that argparse or limits.check_request
rejects, and answers ``dual``, before numpy is imported, while ``import
tracecodes.cli`` loads the whole engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import NoReturn

from . import bounds, limits
from .errors import ParameterError, WorkBudgetExceeded
from .modulus import field_modulus
from .params import Variant, integer_params

REPORT_VERSION = 6

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
                    help="class also checks each uv-line class on 500 seeded samples")

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


#: The integer keys of a report's params section, read off the run's
#: DerivedParams or, for dual, its IntegerParams.
_PARAM_KEYS = ("p", "m", "N", "q", "N1", "N2", "n", "length", "gray_length", "dimension",
               "note")


def _report_head(command: str, cfg: argparse.Namespace, dp, modulus,
                 flags: list[str]) -> dict:
    """The keys every report shares; the dimension flag joins `flags`
    whenever r -> c(r) has a kernel (dimension below 4m)."""
    if dp.dimension < 4 * dp.m:
        flags = [*flags, FLAG_DIM]
    params = {key: getattr(dp, key) for key in _PARAM_KEYS}
    return {"report_version": REPORT_VERSION, "command": command, "seed": cfg.seed,
            "params": params | {"variant": dp.variant.value, "modulus": list(modulus)},
            "threads": cfg.threads, "erratum_flags": sorted(flags)}


def _supplied_modulus(cfg: argparse.Namespace) -> tuple[int, ...] | None:
    return limits.parse_modulus(cfg.modulus) if cfg.modulus is not None else None


def cmd_dual(cfg: argparse.Namespace) -> tuple[dict, int]:
    """The dual distance from the modulus, the integer parameters and the
    witness over F_p, none of which reads a field table or numpy."""
    modulus = field_modulus(cfg.p, cfg.m, _supplied_modulus(cfg))
    dp = integer_params(cfg.p, cfg.m, cfg.N, Variant(cfg.variant))
    result = bounds.dual_lee_distance(dp)
    excluded = bounds.sphere_packing_excludes(dp.gray_length, dp.dimension, dp.p)
    report = _report_head("dual", cfg, dp, modulus, [FLAG_LEE]) | {
        "dual_distance": result._asdict(),
        "sphere_packing_excludes_distance_3": excluded,
    }
    return report, EXIT_OK


def _emit(report: dict, cfg: argparse.Namespace, runtime_ms: int) -> None:
    report["runtime_ms"] = runtime_ms
    if cfg.fmt == "csv":
        lines = ["weight,frequency", *(f"{r['weight']},{r['frequency']}" for r in report["rows"])]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _execute(cfg: argparse.Namespace, handler) -> int:
    """Run a request that limits.check_request has passed through its
    handler and write its report; the exit code."""
    start = time.monotonic()
    try:
        report, code = handler(cfg)
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


def run(request: argparse.Namespace, handler) -> NoReturn:
    """The process entry, which the ``__main__`` block below calls under
    ``python -m tracecodes.cli`` and under the ``tracecodes`` script
    (tracecodes.main): `_execute` of the `request` that limits.check_request
    passed before the engine's imports, through its handler (cmd_dual
    before the engine loads), stderr flushed, then the process ends at once
    with its exit code.  The interpreter's teardown (a final
    GC and module cleanup over numpy's heap, about 40 ms) writes nothing, so
    it is skipped.  `_emit` flushed the report inside `_execute`, where a
    failure is caught and reported; flushing stdout again would retry the
    bytes that failed.  An exception escaping `_execute` still leaves
    through the interpreter, with its traceback and exit 1."""
    code = _execute(request, handler)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    # python -m tracecodes.cli: a request that a table-free check refuses,
    # or that argparse rejects, ends here, before the engine and numpy load,
    # and so does dual; another that passes is run() below
    _request = build_parser().parse_args()
    try:
        limits.check_request(_request)
    except ParameterError as exc:
        os._exit(_usage_error(exc))
    if _request.command == "dual":
        run(_request, cmd_dual)

from . import analysis
from .construction import CodeParams, DerivedParams, derive_params
from .field import Field


def _build_params(cfg: argparse.Namespace) -> DerivedParams:
    """The run's one derived parameter set; every handler passes it on."""
    field = Field(cfg.p, cfg.m, modulus=_supplied_modulus(cfg))
    return derive_params(CodeParams(field, cfg.N, Variant(cfg.variant)))


def _rows_section(entries: dict[int, int]) -> list[dict]:
    return [{"weight": w, "frequency": f} for w, f in sorted(entries.items())]


def _compared(section: dict) -> dict:
    """A comparison section; one that compared nothing says so."""
    if section["ok"] is None:
        section["status"] = "no-applicable-prediction"
    return section


def cmd_analyze(cfg: argparse.Namespace) -> tuple[dict, int]:
    dp = _build_params(cfg)
    if cfg.method == "class":
        dist = analysis.distribution_by_class(dp, seed=cfg.seed)
    else:
        dist = analysis.distribution_exhaustive(dp)

    preds = analysis.predict(dp)
    comparison = analysis.compare_with_predictions(dist.entries, preds)

    d_min = dist.min_nonzero_weight
    verdict = bounds.griesmer_optimal(dp.gray_length, dp.dimension, d_min, dp.p)
    dual = bounds.dual_lee_distance(dp)
    sss = bounds.minimality_check(dist.entries, dp.p)

    flags = [FLAG_LEE, FLAG_CEIL]
    if any(p.regime.startswith("three_weight") for p in preds):
        flags.append(FLAG_FREQ)

    report = _report_head("analyze", cfg, dp, dp.field.modulus, flags) | {
        "method": dist.method,
        "rows": _rows_section(dist.entries),
        "detail": dist.detail,
        "predictions": [p._asdict() for p in preds],
        "comparison": _compared(comparison._asdict()),
        "griesmer": verdict._asdict() | {"optimal": verdict.optimal,
                                         "inconclusive": verdict.inconclusive},
        "dual_distance": dual._asdict(),
        "sss": sss._asdict(),
    }
    return report, EXIT_MISMATCH if comparison.ok is False else EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> tuple[dict, int]:
    dp = _build_params(cfg)
    identities = analysis.verify_identities(dp, trials=cfg.trials, seed=cfg.seed)
    report = _report_head("verify", cfg, dp, dp.field.modulus, [FLAG_LEE]) | identities._asdict()
    ok = identities.ok
    if cfg.subcode:
        sub = analysis.subcode_report(dp)
        rows = _rows_section(sub.pop("distribution"))
        report["subcode"] = _compared(sub | {"rows": rows})
        ok = ok and sub["ok"] is not False
    return report, EXIT_OK if ok else EXIT_MISMATCH


_HANDLERS = {"analyze": cmd_analyze, "dual": cmd_dual, "verify": cmd_verify}


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        limits.check_request(cfg)
    except ParameterError as exc:
        return _usage_error(exc)
    return _execute(cfg, _HANDLERS[cfg.command])


if __name__ == "__main__":
    run(_request, _HANDLERS[_request.command])
