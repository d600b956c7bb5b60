"""Defining sets, coordinate enumeration and the evaluation map.

Parameters (p, m, N) fix the field F_q, q = p^m, and the subgroup data
N1 = lcm(N, (q-1)/(p-1)), N2 = gcd(N, (q-1)/(p-1)), n = N1/N.  The base
set D = {xi^(N*j) : j = 0..n-1} is a complete set of coset representatives
of C_0^{N2} modulo F_p*.  Two coordinate sets are supported:

* lift:  all ring elements whose constant coordinate lies in D and whose
  nilpotent coordinates are free, size n * q^3;
* units: the full unit group, size (q-1) * q^3.

Codewords are evaluations x -> Tr(r*x) over the coordinate set, one base
ring symbol per coordinate.  Coordinates are streamed in a fixed order
(constant coordinate first through D or through xi-powers, then each
nilpotent coordinate ascending in coefficient-vector lexicographic order)
so exports are reproducible; weight data never depends on the order.

Streams are restartable and partitionable: worker k of w takes the k-th
contiguous stripe of the fixed order, and all consumers merge associatively.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError
from .field import Field, power_exceeds
from .ring import RingElem, big_trace, is_unit, random_element

#: Everything is counted in native 64-bit integers; parameter sets whose
#: codeword count would overflow them are rejected outright.
CODEWORD_COUNT_GUARD = 2**63

ORDERING_TAG = "x0-major/lex-v1"

DEFAULT_SEED = 2024


class Variant(enum.Enum):
    LIFT = "lift"
    UNITS = "units"


@dataclass(frozen=True)
class CodeParams:
    """User-facing parameters: field, divisor N of q - 1, coordinate-set variant."""

    field: Field
    N: int = 1
    variant: Variant = Variant.LIFT


@dataclass(frozen=True)
class DerivedParams:
    """Everything derived from CodeParams that the rest of the package consumes."""

    params: CodeParams
    N1: int
    N2: int
    n: int
    base_set: tuple[int, ...]
    length: int
    gray_length: int
    note: str = ""

    @property
    def field(self) -> Field:
        return self.params.field

    @property
    def variant(self) -> Variant:
        return self.params.variant

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def codeword_count(self) -> int:
        return self.q**4

    def x0_codes(self) -> np.ndarray:
        if self.variant is Variant.UNITS:
            return self.field.unit_codes()
        return np.asarray(self.base_set, dtype=np.int64)


def coset_representatives(field: Field, N: int, n: int) -> tuple[int, ...]:
    """The base set {xi^(N*j) : j = 0..n-1}, verified pairwise inequivalent
    modulo F_p* (their discrete logs are distinct mod (q-1)/(p-1))."""
    reps = tuple(field.exp_code(N * j) for j in range(n))
    k = (field.q - 1) // (field.p - 1)
    residues = {field.dlog(d) % k for d in reps}
    if len(residues) != n:
        raise AssertionError("coset representatives collapse modulo F_p*")
    return reps


def check_codeword_count_guard(p: int, m: int) -> None:
    """Refuse (p, m) whose codeword count p^(4m) overflows the 64-bit counters.

    Depends on (p, m) alone, so a caller can run it before building the
    field and its modulus search.  Its bound, q < 2^15.75, is tighter than
    the field's table range, which Field checks before its own search.
    Invalid p or m are left to Field to reject.
    """
    if p >= 2 and m >= 1 and power_exceeds(p, 4 * m, CODEWORD_COUNT_GUARD - 1):
        raise ParameterError(
            "codeword count p^(4m) exceeds the 64-bit counting guard"
        )


def derive_params(params: CodeParams | DerivedParams) -> DerivedParams:
    if isinstance(params, DerivedParams):
        return params
    field = params.field
    p, m, q = field.p, field.m, field.q
    N = params.N
    if N < 1:
        raise ParameterError("N must be a positive integer")
    if (q - 1) % N != 0:
        raise ParameterError(f"N does not divide p^m - 1 ({N} does not divide {q - 1})")
    check_codeword_count_guard(p, m)
    k = (q - 1) // (p - 1)
    N1 = math.lcm(N, k)
    N2 = math.gcd(N, k)
    n = N1 // N
    base = coset_representatives(field, N, n)
    if params.variant is Variant.UNITS:
        length = (q - 1) * q**3
        note = "units variant: the coordinate set is the full unit group and N is ignored"
    else:
        length = n * q**3
        note = ""
    return DerivedParams(params=params, N1=N1, N2=N2, n=n, base_set=base,
                         length=length, gray_length=4 * length, note=note)


# ---------------------------------------------------------------------------
# Coordinate streams
# ---------------------------------------------------------------------------

def enumerate_coords(params: CodeParams | DerivedParams) -> Iterator[RingElem]:
    """Stream the coordinate set in the fixed deterministic order."""
    dp = derive_params(params)
    field = dp.field
    x0s = [int(x) for x in dp.x0_codes()]
    lex = [int(x) for x in field.lex_codes]
    for x0 in x0s:
        for x1 in lex:
            for x2 in lex:
                for x3 in lex:
                    yield RingElem(field, x0, x1, x2, x3)


def coord_at(params: CodeParams | DerivedParams, index: int) -> RingElem:
    """The coordinate at a flat stream position."""
    dp = derive_params(params)
    q = dp.q
    if not 0 <= index < dp.length:
        raise IndexError(f"coordinate index {index} outside [0, {dp.length})")
    lex = dp.field.lex_codes
    i0, rest = divmod(index, q**3)
    i1, rest = divmod(rest, q**2)
    i2, i3 = divmod(rest, q)
    x0 = int(dp.x0_codes()[i0])
    return RingElem(dp.field, x0, int(lex[i1]), int(lex[i2]), int(lex[i3]))


def coord_index(params: CodeParams | DerivedParams, x: RingElem) -> int:
    """Flat stream position of a coordinate element; inverse of coord_at."""
    dp = derive_params(params)
    q = dp.q
    x0s = dp.x0_codes()
    pos0 = {int(c): i for i, c in enumerate(x0s)}
    if x.a not in pos0:
        raise ValueError("element is not in the coordinate set")
    lex_rank = dp.field.lex_rank
    return ((pos0[x.a] * q + int(lex_rank[x.b])) * q + int(lex_rank[x.c])) * q \
        + int(lex_rank[x.d])


def contains(params: CodeParams | DerivedParams, x: RingElem) -> bool:
    """Membership test for the coordinate set (O(1) via a hashed base set)."""
    dp = derive_params(params)
    if not is_unit(x):
        return False
    if dp.variant is Variant.UNITS:
        return True
    return x.a in set(dp.base_set)


def coord_blocks(params: CodeParams | DerivedParams,
                 block_size: int = 1 << 14,
                 part: tuple[int, int] = (0, 1)):
    """Yield (X0, X1, X2, X3) int64 code arrays covering one worker's stripe.

    part = (k, w) selects the k-th of w contiguous stripes of the stream;
    blocks are decoded from flat positions, so nothing is materialized
    beyond one block.
    """
    dp = derive_params(params)
    q = dp.q
    k, w = part
    lo = dp.length * k // w
    hi = dp.length * (k + 1) // w
    x0s = dp.x0_codes()
    lex = dp.field.lex_codes
    for start in range(lo, hi, block_size):
        stop = min(start + block_size, hi)
        flat = np.arange(start, stop, dtype=np.int64)
        i0, rest = np.divmod(flat, q**3)
        i1, rest = np.divmod(rest, q**2)
        i2, i3 = np.divmod(rest, q)
        yield x0s[i0], lex[i1], lex[i2], lex[i3]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(r: RingElem, params: CodeParams | DerivedParams) -> Iterator[RingElem]:
    """Stream the codeword of r: base ring symbols Tr(r*x), x over the
    coordinate set.  Linear in r; never materialized."""
    for x in enumerate_coords(params):
        yield big_trace(r * x)


def gray_symbols(r: RingElem, params: CodeParams | DerivedParams,
                 block_size: int = 1 << 14) -> Iterator[np.ndarray]:
    """Stream the Gray image of the codeword of r as (block, 4) uint8 arrays.

    Symbol order inside a coordinate follows the Gray map output
    (d, c+d, b+d, a+b+c+d) applied to the traced entry.
    """
    dp = derive_params(params)
    field = dp.field
    p, q = dp.p, dp.q
    T = field.trmul_flat
    r0, r1, r2, r3 = (np.int64(c) * q for c in r.coords())
    for X0, X1, X2, X3 in coord_blocks(dp, block_size=block_size):
        t1 = T[r0 + X0].astype(np.int16)
        t2 = T[r0 + X1] + T[r1 + X0]
        t3 = T[r0 + X2] + T[r2 + X0]
        t4 = T[r0 + X3] + T[r1 + X2] + T[r2 + X1] + T[r3 + X0]
        out = np.empty((len(X0), 4), dtype=np.uint8)
        out[:, 0] = t4 % p
        out[:, 1] = (t3 + t4) % p
        out[:, 2] = (t2 + t4) % p
        out[:, 3] = (t1 + t2 + t3 + t4) % p
        yield out


def export_gray_words(params: CodeParams | DerivedParams, rs, path) -> tuple[str, str]:
    """Write Gray-mapped codewords as flat binary (one byte per symbol, one
    row per codeword) plus a JSON sidecar pinning the parameters and the
    ordering version tag.  Returns (data_path, sidecar_path)."""
    dp = derive_params(params)
    rs = list(rs)
    path = str(path)
    with open(path, "wb") as fh:
        for r in rs:
            for block in gray_symbols(r, dp):
                fh.write(block.tobytes())
    sidecar = {
        "p": dp.p,
        "m": dp.m,
        "N": dp.params.N,
        "variant": dp.variant.value,
        "modulus": list(dp.field.modulus),
        "ordering": ORDERING_TAG,
        "rows": len(rs),
        "row_symbols": dp.gray_length,
        "r_coords": [list(r.coords()) for r in rs],
    }
    sidecar_path = path + ".json"
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
    return path, sidecar_path


# ---------------------------------------------------------------------------
# The field subcode: length-n words (trace(b*d))_{d in base set}
# ---------------------------------------------------------------------------

def eval_field_subcode(b: int, params: CodeParams | DerivedParams) -> tuple[int, ...]:
    """The length-n prime-field word (trace(b*d))_{d in base set}.

    Its Hamming weight is n minus the number of zero traces of b over the
    base set.
    """
    dp = derive_params(params)
    field = dp.field
    return tuple(field.trace(field.mul(b, d)) for d in dp.base_set)


def subcode_distribution(params: CodeParams | DerivedParams) -> dict[int, int]:
    """Brute-force Hamming weight distribution of the field subcode over
    all q inputs."""
    dp = derive_params(params)
    out: dict[int, int] = {}
    for b in dp.field.elements():
        w = sum(1 for s in eval_field_subcode(b, dp) if s)
        out[w] = out.get(w, 0) + 1
    return out


def subcode_is_injective(params: CodeParams | DerivedParams) -> bool:
    dp = derive_params(params)
    words = {eval_field_subcode(b, dp) for b in dp.field.elements()}
    return len(words) == dp.q


# ---------------------------------------------------------------------------
# Group action spot check
# ---------------------------------------------------------------------------

@dataclass
class SpotcheckReport:
    trials: int
    failures: list
    seed: int

    @property
    def ok(self) -> bool:
        return not self.failures


SPOTCHECK_LIMIT = 10_000


def group_action_spotcheck(params: CodeParams | DerivedParams, trials: int = 50,
                           seed: int = DEFAULT_SEED,
                           g: RingElem | None = None) -> SpotcheckReport:
    """Check that pulling a codeword back along x -> g*x lands on the
    codeword of r*g, entrywise over the whole coordinate stream.

    Failures are collected in the report, not raised.  Restricted to small
    coordinate sets; a supplied g must belong to the coordinate set.
    """
    dp = derive_params(params)
    if dp.length > SPOTCHECK_LIMIT:
        raise ParameterError(
            f"spot check restricted to coordinate sets of size <= {SPOTCHECK_LIMIT}"
        )
    if g is not None and not contains(dp, g):
        raise ParameterError("g is not in the coordinate set")
    rng = np.random.default_rng(seed)
    field = dp.field
    x0s = dp.x0_codes()
    failures = []
    for trial in range(trials):
        if g is None:
            gx0 = int(x0s[rng.integers(0, len(x0s))])
            g_trial = RingElem(field, gx0, *(int(c) for c in rng.integers(0, dp.q, size=3)))
        else:
            g_trial = g
        r = random_element(field, rng)
        rg = r * g_trial
        for x in enumerate_coords(dp):
            lhs = big_trace(r * (g_trial * x))
            rhs = big_trace(rg * x)
            if lhs != rhs:
                failures.append({"trial": trial, "g": g_trial, "r": r, "x": x,
                                 "pulled_back": lhs, "expected": rhs})
                break
    return SpotcheckReport(trials=trials, failures=failures, seed=seed)
