"""Exact Lee-weight distributions, table predictions and character-sum checks.

Weights are always computed by exact counting: one pass over the coordinate
stream per codeword, accumulating the number of nonzero Gray symbols.  The
vectorized kernel reduces each coordinate to the four traces
(t1, t2, t3, t4) of the product coordinates and looks the Gray nonzero
count up in a table indexed by them; it is bit-identical to streaming
symbols one by one (the tests pin this).  Character sums (theta, Gaussian
sums) are double-precision cross-checks only; no integer fact depends on
floating point.

Three ways to obtain a distribution:

* exhaustive: every codeword, guarded by a work budget in entry-operations;
* class-based: one representative per weight class (the uv-line splits
  into cyclotomic classes, the rest of the maximal ideal forms one class,
  the units another), exact weights scaled by class sizes and validated on
  seeded random class members;
* ideal survey: the whole maximal ideal exhaustively plus sampled units,
  the oracle used to validate the class protocol itself.

Work partitions across processes by r-blocks; merges are associative.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .construction import (
    DEFAULT_SEED,
    CodeParams,
    DerivedParams,
    Variant,
    coord_blocks,
    derive_params,
    evaluate,
    subcode_distribution,
)
from .errors import ParameterError, WeightConstancyError, WorkBudgetExceeded
from .field import Field, gauss_sum
from .ring import RingElem, lee_weight, scale

#: Default ceiling on exhaustive work, in entry-operations
#: (codeword count times coordinate count).
DEFAULT_WORK_BUDGET = 10**10

_R_CHUNK = 512
_COORD_BLOCK = 4096


# ---------------------------------------------------------------------------
# Weight kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gray_nonzero_table(p: int):
    """Nonzero-symbol count of the Gray image, indexed by the four raw
    (unreduced) trace sums; returns (flat table, strides)."""
    s1, s2, s3, s4 = p, 2 * p - 1, 2 * p - 1, 4 * p - 3
    t1, t2, t3, t4 = np.ogrid[0:s1, 0:s2, 0:s3, 0:s4]
    g1 = t4 % p
    g2 = (t3 + t4) % p
    g3 = (t2 + t4) % p
    g4 = (t1 + t2 + t3 + t4) % p
    nz = ((g1 != 0).astype(np.int8) + (g2 != 0) + (g3 != 0) + (g4 != 0))
    return np.ascontiguousarray(nz, dtype=np.int8).ravel(), (s2 * s3 * s4, s3 * s4, s4)


def _weights_serial(dp: DerivedParams, rows: np.ndarray,
                    r_chunk: int = _R_CHUNK,
                    coord_block: int = _COORD_BLOCK) -> np.ndarray:
    """Exact Lee weights for each codeword row (a, b, c, d); int64 array."""
    field = dp.field
    q = dp.q
    T = field.trmul_flat
    nz, (sa, sb, sc) = _gray_nonzero_table(dp.p)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    out = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), r_chunk):
        chunk = rows[lo:lo + r_chunk] * q
        r0 = chunk[:, 0:1]
        r1 = chunk[:, 1:2]
        r2 = chunk[:, 2:3]
        r3 = chunk[:, 3:4]
        acc = np.zeros(len(chunk), dtype=np.int64)
        for x0, x1, x2, x3 in coord_blocks(dp, block_size=coord_block):
            t1 = T[r0 + x0]
            t2 = T[r0 + x1] + T[r1 + x0]
            t3 = T[r0 + x2] + T[r2 + x0]
            t4 = T[r0 + x3] + T[r1 + x2] + T[r2 + x1] + T[r3 + x0]
            idx = t1.astype(np.int32)
            idx *= sa
            tmp = t2.astype(np.int32)
            tmp *= sb
            idx += tmp
            tmp = t3.astype(np.int32)
            tmp *= sc
            idx += tmp
            idx += t4
            acc += nz[idx].sum(axis=1, dtype=np.int64)
        out[lo:lo + len(chunk)] = acc
    return out


def _bulk_worker(args):
    p, m, modulus, N, variant_value, rows = args
    field = Field(p, m, modulus=modulus)
    dp = derive_params(CodeParams(field, N, Variant(variant_value)))
    return _weights_serial(dp, rows)


def lee_weights_bulk(params: CodeParams | DerivedParams, rows,
                     threads: int = 1) -> np.ndarray:
    """Exact Lee weights of the codewords given by coordinate rows (a,b,c,d).

    With threads > 1 the r-block is partitioned across worker processes and
    the results concatenated; each worker rebuilds its tables from the
    parameter record, so results are independent of the split.
    """
    dp = derive_params(params)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    if threads <= 1 or len(rows) < 4 * threads:
        return _weights_serial(dp, rows)
    stripes = np.array_split(rows, threads)
    spec = (dp.p, dp.m, dp.field.modulus, dp.params.N, dp.variant.value)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_bulk_worker, [spec + (s,) for s in stripes]))
    return np.concatenate(parts)


def codeword_lee_weight(r: RingElem, params: CodeParams | DerivedParams) -> int:
    """Exact Lee weight of the codeword of r."""
    dp = derive_params(params)
    return int(lee_weights_bulk(dp, [r.coords()])[0])


def lee_weight_by_streaming(r: RingElem, params: CodeParams | DerivedParams) -> int:
    """Reference path: stream the codeword symbol by symbol and add Lee
    weights.  Slow; exists to pin the vectorized kernel."""
    return sum(lee_weight(s) for s in evaluate(r, params))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass
class WeightDistribution:
    """Exact weight -> frequency map with provenance."""

    entries: dict[int, int]
    method: str  # "exhaustive" | "class" | "sampled"
    total: int
    detail: dict | None = None

    def nonzero(self) -> dict[int, int]:
        return {w: f for w, f in self.entries.items() if w != 0}

    def rows(self) -> list[tuple[int, int]]:
        return sorted(self.entries.items())

    @property
    def min_nonzero_weight(self) -> int:
        return min(self.nonzero())

    @property
    def max_nonzero_weight(self) -> int:
        return max(self.nonzero())


def _all_codeword_rows(q: int) -> np.ndarray:
    flat = np.arange(q**4, dtype=np.int64)
    a, rest = np.divmod(flat, q**3)
    b, rest = np.divmod(rest, q**2)
    c, d = np.divmod(rest, q)
    return np.stack([a, b, c, d], axis=1)


def _resolve_budget(budget: int | None) -> int:
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


def distribution_exhaustive(params: CodeParams | DerivedParams,
                            budget: int | None = None,
                            threads: int = 1) -> WeightDistribution:
    """Iterate every codeword; exact counts.

    Refuses jobs beyond the work budget (entry-operations = codeword count
    times coordinate count) and points the caller at the class-based method.
    """
    dp = derive_params(params)
    budget = _resolve_budget(budget)
    work = dp.codeword_count * dp.length
    if work > budget:
        raise WorkBudgetExceeded(
            f"exhaustive enumeration needs {work} entry-operations, over the "
            f"budget of {budget}; use the class-based method"
        )
    weights = lee_weights_bulk(dp, _all_codeword_rows(dp.q), threads=threads)
    values, counts = np.unique(weights, return_counts=True)
    entries = {int(w): int(c) for w, c in zip(values, counts)}
    return WeightDistribution(entries=entries, method="exhaustive",
                              total=dp.codeword_count)


def class_representatives(params: CodeParams | DerivedParams):
    """(name, representative, class size) for the weight classes: one per
    uv-line cyclotomic class, one for the rest of the maximal ideal, one
    for the units."""
    dp = derive_params(params)
    field = dp.field
    q = dp.q
    reps = []
    for j in range(dp.N2):
        alpha = field.exp_code(j)
        reps.append((f"uv-line class {j}", RingElem(field, 0, 0, 0, alpha),
                     (q - 1) // dp.N2))
    reps.append(("off-line maximal ideal", RingElem(field, 0, 1, 0, 0), q**3 - q))
    reps.append(("units", RingElem(field, 1, 0, 0, 0), (q - 1) * q**3))
    return reps


def _sample_class(name: str, j: int, dp: DerivedParams, rng) -> RingElem:
    field = dp.field
    q = dp.q
    if name.startswith("uv-line"):
        k = int(rng.integers(0, (q - 1) // dp.N2))
        return RingElem(field, 0, 0, 0, field.exp_code(j + dp.N2 * k))
    if name.startswith("off-line"):
        while True:
            b, c, d = (int(x) for x in rng.integers(0, q, size=3))
            if b or c:
                return RingElem(field, 0, b, c, d)
    a = int(rng.integers(1, q))
    b, c, d = (int(x) for x in rng.integers(0, q, size=3))
    return RingElem(field, a, b, c, d)


def distribution_by_class(params: CodeParams | DerivedParams,
                          samples_per_class: int = 500,
                          seed: int = DEFAULT_SEED,
                          threads: int = 1) -> WeightDistribution:
    """Exact weights of class representatives scaled by class sizes.

    Weight constancy on each class is validated on `samples_per_class`
    seeded random members; any disagreement raises WeightConstancyError
    with the witness element.
    """
    if samples_per_class < 1:
        raise ParameterError(
            f"samples per class must be >= 1, got {samples_per_class}: the class "
            "method validates every class on seeded samples")
    dp = derive_params(params)
    reps = class_representatives(dp)
    rep_rows = [r.coords() for _, r, _ in reps]
    rep_weights = lee_weights_bulk(dp, rep_rows, threads=threads)

    rng = np.random.default_rng(seed)
    samples: list[RingElem] = []
    owners: list[int] = []
    for i, (name, _, _) in enumerate(reps):
        j = i if name.startswith("uv-line") else -1
        for _ in range(samples_per_class):
            samples.append(_sample_class(name, j, dp, rng))
            owners.append(i)
    got = lee_weights_bulk(dp, [s.coords() for s in samples], threads=threads)
    for s, owner, w in zip(samples, owners, got):
        if w != rep_weights[owner]:
            raise WeightConstancyError(reps[owner][0], s,
                                       int(rep_weights[owner]), int(w))

    entries: dict[int, int] = {0: 1}
    for (name, _, size), w in zip(reps, rep_weights):
        entries[int(w)] = entries.get(int(w), 0) + size
    assert sum(entries.values()) == dp.codeword_count
    detail = {
        "seed": seed,
        "samples_per_class": samples_per_class,
        "representatives": [
            {"class": name, "coords": list(rep.coords()), "size": size,
             "weight": int(w)}
            for (name, rep, size), w in zip(reps, rep_weights)
        ],
    }
    return WeightDistribution(entries=entries, method="class",
                              total=dp.codeword_count, detail=detail)


@dataclass
class IdealSurvey:
    """Exhaustive maximal-ideal weights plus sampled unit weights."""

    uv_line: dict[int, int]
    other_maximal: dict[int, int]
    units_sampled: dict[int, int]
    unit_samples: int
    seed: int

    @property
    def weights_seen(self) -> set[int]:
        out = set(self.uv_line) | set(self.other_maximal) | set(self.units_sampled)
        out.discard(0)
        return out


def survey_ideal_and_units(params: CodeParams | DerivedParams,
                           unit_samples: int = 1000,
                           seed: int = DEFAULT_SEED,
                           budget: int | None = None,
                           threads: int = 1) -> IdealSurvey:
    """Enumerate the whole maximal ideal exactly and sample the units.

    This is the oracle that validates the class-based protocol: the uv-line
    histogram is exact, the off-line ideal histogram is exact, and the unit
    samples must all land on a single weight.
    """
    dp = derive_params(params)
    budget = _resolve_budget(budget)
    q = dp.q
    work = (q**3 + unit_samples) * dp.length
    if work > budget:
        raise WorkBudgetExceeded(
            f"ideal survey needs {work} entry-operations, over the budget of {budget}"
        )
    flat = np.arange(q**3, dtype=np.int64)
    b, rest = np.divmod(flat, q**2)
    c, d = np.divmod(rest, q)
    rows = np.stack([np.zeros_like(b), b, c, d], axis=1)
    weights = lee_weights_bulk(dp, rows, threads=threads)

    uv_mask = (b == 0) & (c == 0) & (d != 0)
    zero_mask = (b == 0) & (c == 0) & (d == 0)
    om_mask = ~(uv_mask | zero_mask)

    def hist(mask) -> dict[int, int]:
        vals, counts = np.unique(weights[mask], return_counts=True)
        return {int(wv): int(cv) for wv, cv in zip(vals, counts)}

    rng = np.random.default_rng(seed)
    unit_rows = np.stack([
        rng.integers(1, q, size=unit_samples),
        rng.integers(0, q, size=unit_samples),
        rng.integers(0, q, size=unit_samples),
        rng.integers(0, q, size=unit_samples),
    ], axis=1)
    unit_weights = lee_weights_bulk(dp, unit_rows, threads=threads)
    uvals, ucounts = np.unique(unit_weights, return_counts=True)

    return IdealSurvey(
        uv_line=hist(uv_mask),
        other_maximal=hist(om_mask),
        units_sampled={int(wv): int(cv) for wv, cv in zip(uvals, ucounts)},
        unit_samples=unit_samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Character sums over codewords
# ---------------------------------------------------------------------------

def gray_symbol_histogram(r: RingElem, params: CodeParams | DerivedParams) -> np.ndarray:
    """Counts of each prime-field value among the Gray symbols of the
    codeword of r; length-p int64 array summing to the Gray length."""
    dp = derive_params(params)
    field = dp.field
    p, q = dp.p, dp.q
    T = field.trmul_flat
    r0, r1, r2, r3 = (np.int64(c) * q for c in r.coords())
    hist = np.zeros(p, dtype=np.int64)
    for x0, x1, x2, x3 in coord_blocks(dp, block_size=1 << 14):
        t1 = T[r0 + x0]
        t2 = T[r0 + x1] + T[r1 + x0]
        t3 = T[r0 + x2] + T[r2 + x0]
        t4 = T[r0 + x3] + T[r1 + x2] + T[r2 + x1] + T[r3 + x0]
        for g in (t4 % p, (t3 + t4) % p, (t2 + t4) % p, (t1 + t2 + t3 + t4) % p):
            hist += np.bincount(g, minlength=p)
    return hist


def theta_of_vector(y, p: int) -> complex:
    """Sum of eta^y_j over a prime-field vector, eta = exp(2*pi*i/p)."""
    y = np.asarray(y, dtype=np.int64) % p
    hist = np.bincount(y, minlength=p)
    eta_pow = np.exp(2j * np.pi * np.arange(p) / p)
    return complex(hist @ eta_pow)


def theta(r: RingElem, params: CodeParams | DerivedParams) -> complex:
    """Sum of eta^symbol over the Gray image of the codeword of r."""
    dp = derive_params(params)
    hist = gray_symbol_histogram(r, dp)
    eta_pow = np.exp(2j * np.pi * np.arange(dp.p) / dp.p)
    return complex(hist @ eta_pow)


def lee_weight_from_theta(r: RingElem, params: CodeParams | DerivedParams) -> float:
    """Cross-check value ((p-1)*s - sum over tau of theta(tau*r)) / p."""
    dp = derive_params(params)
    p, s = dp.p, dp.gray_length
    tau_sum = sum(theta(scale(r, tau), dp) for tau in range(1, p))
    return ((p - 1) * s - tau_sum.real) / p, abs(tau_sum.imag)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    residuals: dict[str, float]
    breaches: list[dict]
    seed: int
    tolerance: float
    trials: int

    @property
    def ok(self) -> bool:
        return not self.breaches


def verify_identities(params: CodeParams | DerivedParams, trials: int = 100,
                      seed: int = DEFAULT_SEED,
                      tolerance: float = 1e-6) -> IdentityReport:
    """Residuals of the character-sum identities behind the weight formulas.

    Covers: the zero-trace count against its Gaussian-sum expansion (every
    nonzero b); the root-of-unity partial sums against Hamming weight on
    random vectors; the real-part collapse (p = 3 mod 4 only) and the
    weight-from-theta formula on random codewords; the vanishing full
    additive sum for every nonzero multiplier; Gaussian sum normalization
    and multiplicative-character orthogonality.  Breaches are reported with
    witnesses, never raised.
    """
    dp = derive_params(params)
    field = dp.field
    p, q, m = dp.p, dp.q, dp.m
    rng = np.random.default_rng(seed)
    residuals: dict[str, float] = {}
    breaches: list[dict] = []

    def record(name: str, value: float, witness):
        residuals[name] = max(residuals.get(name, 0.0), value)
        if value > tolerance:
            breaches.append({"identity": name, "residual": value,
                             "witness": witness})

    # zero-trace count vs Gaussian-sum expansion, every nonzero b
    gsums = [gauss_sum(field, j, dp.N2) for j in range(dp.N2)]
    tr = field.trace_table
    for b in range(1, q):
        count = 0
        for d in dp.base_set:
            if tr[field.mul(b, d)] == 0:
                count += 1
        k = field.dlog(b)
        rhs = dp.n + sum(
            gsums[j] * np.exp(2j * np.pi * j * k / dp.N2) for j in range(dp.N2)
        ) / dp.N2
        record("zero_trace_count_vs_character_sum", abs(p * count - rhs), {"b": b})

    # partial sums vs Hamming weight, random prime-field vectors
    for _ in range(trials):
        length = int(rng.integers(1, 64))
        y = rng.integers(0, p, size=length)
        lhs = sum(theta_of_vector(tau * y, p) for tau in range(1, p))
        rhs = (p - 1) * length - p * int(np.count_nonzero(y % p))
        record("partial_sums_vs_hamming", abs(lhs - rhs), {"y": y.tolist()})

    # real-part collapse on codewords (p = 3 mod 4 branch)
    if p % 4 == 3:
        for _ in range(trials):
            r = RingElem(field, *(int(x) for x in rng.integers(0, q, size=4)))
            th = theta(r, dp)
            tau_sum = sum(theta(scale(r, tau), dp) for tau in range(1, p))
            record("real_part_collapse", abs(tau_sum - (p - 1) * th.real),
                   {"r": r.coords()})

    # weight from theta
    for _ in range(min(trials, 100)):
        r = RingElem(field, *(int(x) for x in rng.integers(0, q, size=4)))
        w = codeword_lee_weight(r, dp)
        value, imag = lee_weight_from_theta(r, dp)
        record("weight_vs_character_sum", abs(w - value) + imag, {"r": r.coords()})

    # the full additive sum vanishes for every nonzero multiplier
    mul_table = field.mul_table
    eta_pow = np.exp(2j * np.pi * np.arange(p) / p)
    for z in range(1, q):
        hist = np.bincount(tr[mul_table[z]], minlength=p)
        record("full_additive_sum", abs(complex(hist @ eta_pow)), {"z": z})

    # Gaussian sum normalization
    record("gauss_sum_trivial", abs(gauss_sum(field, 0, max(dp.N2, 1)) + 1), {})
    for order in sorted({dp.N2, q - 1} - {1}):
        for j in range(1, min(order, 16)):
            g = gauss_sum(field, j, order)
            record("gauss_sum_modulus", abs(abs(g) - math.sqrt(q)),
                   {"order": order, "j": j})

    # multiplicative-character orthogonality through N2-th powers
    ks = np.arange(q - 1)
    for j in range(0, min(q - 1, 32)):
        total = np.exp(-2j * np.pi * j * dp.N2 * ks / (q - 1)).sum()
        expected = (q - 1) if (j * dp.N2) % (q - 1) == 0 else 0.0
        record("character_orthogonality", abs(total - expected), {"j": j})

    return IdentityReport(residuals=residuals, breaches=breaches, seed=seed,
                          tolerance=tolerance, trials=trials)


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    """Theoretical (weight, frequency) rows with their applicability
    conditions; bounds-only regimes carry an interval instead of rows."""

    regime: str
    rows: tuple[tuple[int, int], ...]
    side_conditions: tuple[tuple[str, bool], ...]
    scope: str = "full"  # "full" | "subcode"
    l: int | None = None
    t: int | None = None
    d_lower: int | None = None
    d_upper: int | None = None
    max_nonzero_weights: int | None = None

    def rows_dict(self) -> dict[int, int]:
        return dict(self.rows)


def semiprimitive_exponent(p: int, n2: int) -> int | None:
    """Smallest l with p^l = -1 modulo n2, or None if no power of p is -1.

    Only meaningful for n2 > 2; the minimal l is half the multiplicative
    order of p when that order is even and the halfway power is -1.
    """
    if n2 <= 2:
        return None
    order = 1
    acc = p % n2
    while acc != 1:
        acc = (acc * p) % n2
        order += 1
        if order > n2:
            return None
    if order % 2:
        return None
    return order // 2 if pow(p, order // 2, n2) == n2 - 1 else None


def _exact_three_weight_rows(dp: DerivedParams, sign: int):
    p, m, q, n2 = dp.p, dp.m, dp.q, dp.N2
    half = p ** (m // 2)
    base = 4 * p ** (3 * m - 1)
    w_rare = base * (q + sign * (n2 - 1) * half) // n2
    w_mid = base * (q - 1) // n2
    w_bulk = base * (q - sign * half) // n2
    rows = [
        (w_rare, (q - 1) // n2),
        (w_mid, q**4 - q),  # units plus the off-line maximal ideal
        (w_bulk, (n2 - 1) * (q - 1) // n2),
    ]
    return tuple(sorted(rows))


def predict(params: CodeParams | DerivedParams) -> list[Prediction]:
    """Predictions applicable to the full code at these parameters.

    Every regime whose side conditions hold is emitted; when no exact-row
    regime applies, the interval-only regime is emitted if its own window
    on N2 holds.  Inapplicability is data, not an error.
    """
    dp = derive_params(params)
    p, m, q, n2 = dp.p, dp.m, dp.q, dp.N2
    parity_ok = (m % 2 == 0) or (p % 4 == 3)
    parity_cond = ("m even, or m odd and p = 3 (mod 4)", parity_ok)
    preds: list[Prediction] = []

    if dp.variant is Variant.UNITS:
        if parity_ok:
            w_hi = 4 * (p - 1) * p ** (4 * m - 1)
            w_lo = 4 * (p - 1) * (p ** (4 * m - 1) - p ** (3 * m - 1))
            preds.append(Prediction(
                regime="two_weight_units",
                rows=((w_lo, q**4 - q), (w_hi, q - 1)),
                side_conditions=(parity_cond,),
            ))
        return preds

    if n2 == 1 and parity_ok:
        w_hi = 4 * p ** (4 * m - 1)
        w_lo = w_hi - 4 * p ** (3 * m - 1)
        preds.append(Prediction(
            regime="two_weight_lift",
            rows=((w_lo, q**4 - q), (w_hi, q - 1)),
            side_conditions=(("N2 = 1", True), parity_cond),
        ))

    if n2 > 2 and m % 2 == 0:
        l = semiprimitive_exponent(p, n2)
        if l is not None:
            t = m // (2 * l)
            sign = -1 if t % 2 else 1
            half = p ** (m // 2)
            special = (n2 % 2 == 0 and t % 2 == 1
                       and ((p**l + 1) // n2) % 2 == 1)
            conds = (
                ("m even", True),
                ("N2 > 2", True),
                ("some power of p is -1 modulo N2", True),
                ("N2 even, t odd, (p^l+1)/N2 odd", special),
            )
            if special and n2 < half + 1:
                preds.append(Prediction(
                    regime="three_weight_special",
                    rows=_exact_three_weight_rows(dp, -1),
                    side_conditions=conds + (("N2 < p^(m/2) + 1", True),),
                    l=l, t=t,
                ))
            elif not special and half + sign * (n2 - 1) > 0:
                preds.append(Prediction(
                    regime="three_weight_general",
                    rows=_exact_three_weight_rows(dp, sign),
                    side_conditions=conds + (("p^(m/2) + (-1)^t (N2-1) > 0", True),),
                    l=l, t=t,
                ))

    if not preds and 1 < n2 and (n2 - 1) ** 2 < q and parity_ok:
        base = 4 * p ** (3 * m - 1)
        if m % 2 == 0:
            half = p ** (m // 2)
            d_lower = base * (q - (n2 - 1) * half) // n2
        else:
            d_lower = math.ceil(base * (q - (n2 - 1) * math.sqrt(q)) / n2 - 1e-9)
        d_upper = base * (q - 1) // n2
        preds.append(Prediction(
            regime="distance_bounds",
            rows=(),
            side_conditions=(parity_cond, ("1 < N2 < sqrt(q) + 1", True)),
            d_lower=d_lower, d_upper=d_upper,
            max_nonzero_weights=n2 + 1,
        ))
    return preds


def predict_subcode(params: CodeParams | DerivedParams) -> list[Prediction]:
    """Predicted Hamming rows for the length-n field subcode."""
    dp = derive_params(params)
    p, m, q, n2 = dp.p, dp.m, dp.q, dp.N2
    preds: list[Prediction] = []
    if not (m % 2 == 0 and n2 > 2):
        return preds
    l = semiprimitive_exponent(p, n2)
    if l is None:
        return preds
    t = m // (2 * l)
    sign = -1 if t % 2 else 1
    half = p ** (m // 2)
    special = (n2 % 2 == 0 and t % 2 == 1 and ((p**l + 1) // n2) % 2 == 1)
    conds = (
        ("m even", True),
        ("N2 > 2", True),
        ("some power of p is -1 modulo N2", True),
        ("N2 even, t odd, (p^l+1)/N2 odd", special),
    )

    def exact_div(num: int) -> int:
        quot, rem = divmod(num, p * n2)
        if rem:
            raise AssertionError("subcode weight formula produced a non-integer")
        return quot

    if special and n2 < half + 1:
        rows = tuple(sorted([
            (exact_div(q - (n2 - 1) * half), (q - 1) // n2),
            (exact_div(q + half), (n2 - 1) * (q - 1) // n2),
        ]))
        preds.append(Prediction(
            regime="subcode_two_weight_special", rows=rows,
            side_conditions=conds + (("N2 < p^(m/2) + 1", True),),
            scope="subcode", l=l, t=t,
        ))
    elif not special and half + sign * (n2 - 1) > 0:
        rows = tuple(sorted([
            (exact_div(q + sign * (n2 - 1) * half), (q - 1) // n2),
            (exact_div(q - sign * half), (n2 - 1) * (q - 1) // n2),
        ]))
        preds.append(Prediction(
            regime="subcode_two_weight_general", rows=rows,
            side_conditions=conds + (("p^(m/2) + (-1)^t (N2-1) > 0", True),),
            scope="subcode", l=l, t=t,
        ))
    return preds


@dataclass
class ComparisonReport:
    ok: bool
    details: list[dict]


def compare_with_predictions(dist: WeightDistribution,
                             preds: list[Prediction]) -> ComparisonReport:
    """Row-by-row comparison of a measured distribution against every
    applicable prediction; interval regimes check the weight count and the
    minimum weight instead."""
    details = []
    ok = True
    measured = dist.nonzero()
    for pred in preds:
        if pred.rows:
            expected = pred.rows_dict()
            mismatches = []
            for w in sorted(set(expected) | set(measured)):
                if expected.get(w) != measured.get(w):
                    mismatches.append({"weight": w,
                                       "expected": expected.get(w),
                                       "measured": measured.get(w)})
            matched = not mismatches
            details.append({"regime": pred.regime, "matched": matched,
                            "mismatches": mismatches})
        else:
            checks = []
            if pred.max_nonzero_weights is not None:
                checks.append(("nonzero weight count",
                               len(measured) <= pred.max_nonzero_weights))
            if pred.d_lower is not None:
                dmin = min(measured)
                checks.append(("minimum weight within interval",
                               pred.d_lower <= dmin <= pred.d_upper))
            matched = all(okc for _, okc in checks)
            details.append({"regime": pred.regime, "matched": matched,
                            "checks": [{"check": c, "ok": okc} for c, okc in checks]})
        ok = ok and matched
    return ComparisonReport(ok=ok, details=details)


def subcode_report(params: CodeParams | DerivedParams) -> dict:
    """Brute-force field-subcode distribution next to its predictions."""
    dp = derive_params(params)
    measured = subcode_distribution(dp)
    preds = predict_subcode(dp)
    nonzero = {w: f for w, f in measured.items() if w != 0}
    detail = []
    ok = True
    for pred in preds:
        matched = pred.rows_dict() == nonzero
        ok = ok and matched
        detail.append({"regime": pred.regime, "matched": matched,
                       "rows": [list(r) for r in pred.rows]})
    return {"length": dp.n, "distribution": measured, "predictions": detail,
            "ok": ok}
