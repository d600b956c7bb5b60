"""The request defaults and every check a run passes before its first field
table is built.  This module imports no numpy, so ``python -m tracecodes.cli``
refuses a bad request before it imports the engine; cli.main, Field,
derive_params and the analysis budget call these same checks.
"""

from __future__ import annotations

import math
import os

from .errors import ParameterError

#: Default ceiling on exhaustive and identity-suite work, in entry-operations.
DEFAULT_WORK_BUDGET = 10**10

#: Default seed of every seeded draw (class samples, identity-suite trials).
DEFAULT_SEED = 2024

#: Largest q a Field accepts; every Field builds exp/log tables, so dlog is a lookup.
DLOG_TABLE_LIMIT = 2**20

#: Everything is counted in native 64-bit integers; parameter sets whose
#: codeword count would overflow them are rejected outright.
CODEWORD_COUNT_GUARD = 2**63


def check_request(cfg) -> None:
    """Every check of a parsed CLI request (an argparse.Namespace) that needs
    no field table, in the order a run meets them: --threads, --seed, -o,
    analyze's work budget, the 64-bit codeword guard, the --modulus syntax
    and the field's p and m.  verify reads its budget only once its field is
    built, so it is not checked here."""
    if cfg.threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {cfg.threads}")
    if cfg.seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {cfg.seed}")
    if cfg.out == "":
        raise ParameterError("-o/--out needs a file name, got an empty one")
    if cfg.out and os.path.isdir(cfg.out):
        raise ParameterError(f"cannot write the report to {cfg.out}: it is a directory")
    if cfg.out and not os.access(os.path.dirname(cfg.out) or ".", os.W_OK):
        raise ParameterError(f"cannot write the report to {cfg.out}: "
                             "its directory is missing or not writable")
    if cfg.command == "analyze":
        resolve_budget(cfg.budget)
    check_codeword_count_guard(cfg.p, cfg.m)
    if cfg.modulus is not None:
        parse_modulus(cfg.modulus)
    check_field_params(cfg.p, cfg.m)


def resolve_budget(budget: int | None) -> int:
    """The work budget: `budget`, else TRACECODES_WORK_BUDGET, else the default."""
    if budget is None:
        env = os.environ.get("TRACECODES_WORK_BUDGET")
        if not env:
            return DEFAULT_WORK_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise ParameterError(
                f"TRACECODES_WORK_BUDGET must be an integer, got {env!r}") from None
    if budget < 0:
        raise ParameterError(f"work budget must be >= 0, got {budget}")
    return budget


def power_exceeds(p: int, m: int, limit: int) -> bool:
    """p**m > limit for p >= 2, without building p**m when it is far past
    limit: p**m >= 2**(m * (p.bit_length() - 1))."""
    return m * (p.bit_length() - 1) >= limit.bit_length() or p**m > limit


def check_codeword_count_guard(p: int, m: int) -> None:
    """Refuse (p, m) whose codeword count p^(4m) overflows the 64-bit counters.

    Its bound, q < 2^15.75, is tighter than the field's table range, and a
    run checks it first.  It reads only p >= 2 and m >= 1: other p or m
    pass it and are refused by check_field_params.
    """
    if p >= 2 and m >= 1 and power_exceeds(p, 4 * m, CODEWORD_COUNT_GUARD - 1):
        raise ParameterError("codeword count p^(4m) exceeds the 64-bit counting guard")


def parse_modulus(text: str) -> tuple[int, ...]:
    """Parse a comma-separated constant-first coefficient list."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad modulus record {text!r}") from exc


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def check_field_params(p: int, m: int) -> None:
    """Refuse a field F_{p^m} that Field cannot build: p must be an odd prime,
    m >= 1 and p^m at most DLOG_TABLE_LIMIT.  Primality is checked last, so
    trial division only sees p <= DLOG_TABLE_LIMIT."""
    if p == 2:
        raise ParameterError("p must be odd")
    if p < 3:
        raise ParameterError(f"p = {p} is not prime")
    if m < 1:
        raise ParameterError("extension degree m must be >= 1")
    if power_exceeds(p, m, DLOG_TABLE_LIMIT):
        raise ParameterError(f"field size {p}^{m} exceeds the supported table range "
                             f"({DLOG_TABLE_LIMIT}); desk-scale parameters only")
    if not _is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
