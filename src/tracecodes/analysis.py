"""Exact Lee-weight distributions, table predictions and character-sum checks.

Theorem E: every Gray slot of a codeword Tr(r*x) has the symbol counts
of its uv-coordinate, slot 0.  Proof: with (r_0, r_1, r_2, r_3) = (a, b,
c, d), slot k is, mod p, the sum of Tr(r_j*y_j), y_j the sum of the axes
x_t with j in ring.SLOT_TERMS[t][k]: y_3 = x0, y_2 = x1 + [k odd]*x0,
y_1 = x2 + [k & 2]*x0 and y_0 = x3 + [k & 2]*x1 + [k & 1]*x2 + [k = 3]*x0.
For a fixed x0, (x1, x2, x3) -> (y_2, y_1, y_0) is unitriangular plus a
constant, a bijection of F_q^3, so over the coordinates slot k takes each
value as often as slot 0, Tr(d*x0 + c*x1 + b*x2 + a*x3).

Weights are exact integers from a closed form, proved from Theorem E in
_weights_serial: every codeword off the uv-line has weight
4*(p-1)*length/p, and a uv-line codeword d*uv has 4*q^3 times the number
of x0 with Tr(d*x0) != 0.  The tests pin it bit for bit against a
per-coordinate count and a symbol-by-symbol stream (the oracles), and
Theorem E against that stream's four slots.  Character sums (theta, Gaussian
sums) are double-precision cross-checks only; no integer fact depends on
floating point.  Both read field.roots_of_unity(p), one cached table per
p: a theta sum is an integer count vector times it, elementwise and
summed, and the Gaussian sums read it at the trace table.  The identity
suite, verify_identities, checks five facts: three of the field's tables
(two counts in integers, and |G_j| in floats) and two of `trials` random
codewords, whose Gray symbol counts are 4 times the explicit uv-slot
counts of construction.uv_slot_counts, never the closed form, so it
checks the closed form's weights against an explicit count, in integers.

One lift, _lifted, turns subcode rows into the full code's: the q uv-line
codewords d*uv weigh 4*q^3 times their field subcode words, and the other
q^4 - q form one bulk row.  distribution_exhaustive lifts the subcode rows
of the class counts (the work budget charges them q), checked against all
q^4 rows weighed one by one (tests/oracles.py); predict lifts each table,
written once for the subcode.  distribution_by_class returns those rows and
weighs seeded members of each class (j < N2) against its representative
xi^j*uv, both read from one class count.  compare_with_predictions is the
one comparison of measured rows with predicted ones: analyze passes it the
full code's rows, subcode_report the field subcode's.

A failed theorem check (a sampled weight off its class, a non-integer
table weight) raises AssertionError, as the checks of field, construction
and bounds do; it is never a report verdict.

Every seeded draw (class samples, identity-suite trials) comes from one
stdlib random.Random(seed) per call, as exact-uniform randrange values;
no path here imports numpy.random.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .construction import (
    CodeParams,
    DerivedParams,
    Variant,
    derive_params,
    slot_batch_rows,
    subcode_distribution,
    uv_slot_counts,
)
from .errors import ParameterError, WorkBudgetExceeded
from .field import Field, gauss_sums, multiplicative_order, roots_of_unity
from .limits import DEFAULT_SEED, check_trials, resolve_budget

#: The identity suite reports a residual above this as a breach.
TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# Weight kernel
# ---------------------------------------------------------------------------

def _weights_serial(dp: DerivedParams, rows: np.ndarray) -> np.ndarray:
    """Exact Lee weights for each codeword row (a, b, c, d); an int64 array,
    or Python ints (dtype object) once the Gray length reaches 2^63, which
    the units variant does for q past about 38900.

    A coordinate is x = x0 + x1*u + x2*v + x3*uv, x0 in x0_codes() and
    x1, x2, x3 in F_q.  By Theorem E (the module docstring) the weight is 4
    times the number of x where the uv-slot Tr(d*x0 + c*x1 + b*x2 + a*x3)
    is nonzero.  For y != 0 the map x -> Tr(y*x) takes every value of F_p
    q/p times (Lidl-Niederreiter, Finite Fields).  Off the uv-line (a, b,
    c) != 0, so the uv-slot has such a term on x3, x2 or x1, is zero on
    exactly length/p coordinates, and the weight is 4*(p-1)*length/p.  On
    the uv-line (a = b = c = 0) it is Tr(d*x0), repeated q^3 times, so the
    weight is 4*q^3*#{x0 : Tr(d*x0) != 0}: n0 - DerivedParams.class_counts
    at dlog(d) mod N2 for d != 0, and 0 at d = 0, whose traces all vanish.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    dtype = np.int64 if dp.gray_length < 2**63 else object  # no weight exceeds it
    out = np.full(len(rows), _bulk_weight(dp), dtype=dtype)
    on_line = ~rows[:, :3].any(axis=1)
    d, n0 = rows[on_line, 3], len(dp.x0_codes())
    zeros = np.where(d == 0, n0, dp.class_counts[dp.field.log_table[d] % dp.N2])
    out[on_line] = 4 * dp.q**3 * (n0 - zeros).astype(dtype)
    return out


def _bulk_weight(dp: DerivedParams) -> int:
    """The one weight of every codeword off the uv-line, 4*(p-1)*length/p
    (the theorem in _weights_serial)."""
    return 4 * (dp.p - 1) * (dp.length // dp.p)


def _lifted(dp: DerivedParams, subcode_rows: dict[int, int]) -> dict[int, int]:
    """The full code's rows from Hamming rows of its field subcode (the
    theorem in _weights_serial): a uv-line codeword d*uv weighs 4*q^3 times
    its subcode word, and the other q^4 - q codewords form the bulk row,
    merged into a lifted row of the same weight if there is one."""
    entries = {4 * dp.q**3 * w: codes for w, codes in subcode_rows.items()}
    bulk = _bulk_weight(dp)
    entries[bulk] = entries.get(bulk, 0) + dp.codeword_count - dp.q
    return dict(sorted(entries.items()))


# No caller in the package: bench/tracer.py binds it by name; it goes with bench/'s next change.
def _bulk_worker(args):
    p, m, modulus, N, variant_value, rows = args
    field = Field(p, m, modulus=modulus)
    dp = derive_params(CodeParams(field, N, Variant(variant_value)))
    return _weights_serial(dp, rows)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass
class WeightDistribution:
    """Exact weight -> frequency map with provenance."""

    entries: dict[int, int]
    method: str  # "exhaustive" | "class"
    detail: dict | None = None

    def nonzero(self) -> dict[int, int]:
        return {w: f for w, f in self.entries.items() if w != 0}

    @property
    def min_nonzero_weight(self) -> int:
        return min(self.nonzero())


def distribution_exhaustive(dp: DerivedParams, budget: int | None = None) -> WeightDistribution:
    """The weight of every codeword, exact, by the theorem in _weights_serial.

    The measured field subcode rows, lifted (_lifted): the q uv-line rows
    (0, 0, 0, d) weigh 4*q^3 times their subcode words, so d = 0 and the d
    of a degenerate lift whose traces all vanish weigh 0, and the other
    q^4 - q codewords form the bulk row, of weight _bulk_weight(dp).

    The work budget charges q entry-operations, one pass over the trace
    table for the class counts; a smaller budget is refused, and no method
    fits it, since the class method reads the same counts.  The zero row
    must hold the kernel of r -> c(r), p^(4m-k) codewords at dimension k;
    a zero row of any other size fails a theorem check.
    """
    budget = resolve_budget(budget)
    if dp.q > budget:
        raise WorkBudgetExceeded(
            f"the distribution needs q = {dp.q} entry-operations, over the budget of "
            f"{budget}; no method fits below q, since every method reads the uv-line's "
            "class counts")
    entries = _lifted(dp, subcode_distribution(dp))
    kernel = dp.p ** (4 * dp.m - dp.dimension)
    if entries.get(0) != kernel:
        raise AssertionError(f"the zero row holds {entries.get(0)} codewords, expected "
                             f"p^(4m-k) = {kernel} at dimension k = {dp.dimension}")
    return WeightDistribution(entries=entries, method="exhaustive")


def _sample_class(name: str, j: int, dp: DerivedParams,
                  rng: random.Random) -> tuple[int, int, int, int]:
    """One uniform member (0, 0, 0, d) of uv-line cyclotomic class j, d in
    xi^j <xi^N2>.  The class name is not read; bench/tracer.py counts the
    draws through this signature."""
    k = rng.randrange((dp.q - 1) // dp.N2)
    return 0, 0, 0, dp.field.exp_code(j + dp.N2 * k)


def distribution_by_class(dp: DerivedParams, samples_per_class: int = 500,
                          seed: int = DEFAULT_SEED,
                          budget: int | None = None) -> WeightDistribution:
    """The rows of distribution_exhaustive, with the cyclotomic split of the
    uv-line checked on seeded samples.

    One representative xi^j*uv per class (j < N2), of size (q-1)/N2, is
    weighed and recorded in `detail`.  `samples_per_class` members d of each
    class, drawn from random.Random(seed), must give the same count
    #{x0 : Tr(d*x0) != 0} as their representative.  Samples are drawn,
    class by class, and weighed 4096 at a time, so memory does not grow
    with their number.  The draws read the class counts, as their
    representative does, so they cannot disagree: a disagreement is a
    failed theorem check, an AssertionError whose message names the class,
    the sample's row as witness, and both weights.  The work budget charges
    q + N2*samples_per_class before any draw.
    """
    if samples_per_class < 1:
        raise ParameterError(
            f"samples per class must be >= 1, got {samples_per_class}: the class "
            "method validates every uv-line class on seeded samples")
    budget, work = resolve_budget(budget), dp.q + dp.N2 * samples_per_class
    if dp.q <= budget < work:
        fits = (budget - dp.q) // dp.N2
        raise WorkBudgetExceeded(
            f"the class method needs q + N2*samples = {work} entry-operations, over the "
            f"budget of {budget}; " + (f"the largest --samples that fits is {fits}" if fits else
                                       "no --samples value fits; --method exhaustive does"))
    dist = distribution_exhaustive(dp, budget)
    names = [f"uv-line class {j}" for j in range(dp.N2)]
    size = (dp.q - 1) // dp.N2
    rep_rows = [(0, 0, 0, dp.field.exp_code(j)) for j in range(dp.N2)]
    rep_weights = _weights_serial(dp, rep_rows)

    rng = random.Random(seed)
    total, step = dp.N2 * samples_per_class, 4096
    for start in range(0, total, step):
        classes = np.arange(start, min(start + step, total)) // samples_per_class
        samples = np.array([_sample_class(names[j], j, dp, rng) for j in classes.tolist()],
                           dtype=np.int64)
        got, expected = _weights_serial(dp, samples), rep_weights[classes]
        if (bad := np.flatnonzero(got != expected)).size:
            i = int(bad[0])
            raise AssertionError(
                f"weight not constant on {names[int(classes[i])]}: row "
                f"{tuple(samples[i].tolist())} has weight {int(got[i])}, its "
                f"representative {int(expected[i])}")

    detail = {
        "seed": seed,
        "samples_per_class": samples_per_class,
        "representatives": [
            {"class": name, "coords": list(row), "size": size, "weight": w}
            for name, row, w in zip(names, rep_rows, rep_weights.tolist())
        ],
    }
    return replace(dist, method="class", detail=detail)


# ---------------------------------------------------------------------------
# Character sums over codewords
# ---------------------------------------------------------------------------

def gray_symbol_histogram(rows, dp: DerivedParams) -> np.ndarray:
    """(K, p) int64 counts of each prime-field value among the Gray symbols
    of the codewords of the K rows (a, b, c, d); each row sums to the Gray
    length: 4 times construction.uv_slot_counts, by Theorem E."""
    return 4 * uv_slot_counts(rows, dp)


def thetas(hist: np.ndarray) -> np.ndarray:
    """(K,) complex128 sums of eta^s over the symbols s of K words, from
    their (K, p) counts of each value of F_p (gray_symbol_histogram): each
    row's counts times the roots of unity, summed along the row.  The roots
    sum to 0, so dropping a row's least count first keeps the Gray length
    out of the float rounding."""
    hist = hist - hist.min(axis=1, keepdims=True)
    return (hist * roots_of_unity(hist.shape[1])).sum(axis=1)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    residuals: dict[str, float]
    breaches: list[dict]
    tolerance: float
    trials: int

    @property
    def ok(self) -> bool:
        return not self.breaches


def verify_identities(dp: DerivedParams, trials: int = 100,
                      seed: int = DEFAULT_SEED) -> IdentityReport:
    """Residuals of the five identities behind the weight formulas, each
    fact checked once and named with what it reads.

    - class_zero_traces (field tables, integer): H[r, a] counts the k < q - 1
      with k = r mod N2 and Tr(xi^k) = a.  Column 0 is (p - 1) times the
      lift's class counts Z_r, either variant, and, a class being closed
      under F_p*, each row's nonzero traces are equidistributed.  A breach
      names its class.
    - gauss_sum_trivial (field tables, integer): the zero traces of all
      classes number q/p - 1, that is G_0 = -1.
    - gauss_sum_modulus (field tables, float): |G_j| = sqrt(q), j = 1..q-2,
      for the order-(q - 1) character, of which every character is a power.
    - real_part_collapse (the code; p = 3 mod 4): each codeword r's
      multiples tau*r (tau = 1..p-1), each multiplied and counted on its
      own, have theta sums that add up to p - 1 times the real part of
      theta(r).
    - weight_vs_zero_count (the code): each codeword's weight from the
      kernel against the Gray length less the zero count of r's own
      symbols (its tau = 1 row), in integers; tau only permutes the nonzero
      symbol values, so p*w = (p-1)*s - sum of theta(tau*r) says no more.

    The code identities check the same `trials` codewords, randrange draws
    from one random.Random(seed), drawn and counted a block at a time, at
    most slot_batch_rows rows of multiples per block, so memory does not
    grow with `trials`.  The work estimate is fixed + trials * per_trial;
    a run past the work budget is refused first, naming the largest
    `trials` that fits.  Breaches are reported with witnesses, never raised.
    """
    check_trials(trials)
    field, p, q, n0, n2 = dp.field, dp.p, dp.q, len(dp.x0_codes()), dp.N2
    taus = p - 1 if p % 4 == 3 else 1  # the multiples tau*r counted per codeword
    # per multiple one uv-slot row: trace products (n0 + 3*q), entries
    # (n0 + 3*q) and 3 axes x p shifts x p multiply-adds
    per_trial = taus * (2 * n0 + 6 * q + 3 * p * p)
    # one pass over q each for the class counts and the trace count, N2*p
    # comparisons, and the Gauss sums' gather (two passes over q) and FFT
    fixed = 4 * q + n2 * p + (q - 1) * (q - 1).bit_length()
    if (needs := fixed + trials * per_trial) > (budget := resolve_budget(None)):
        fits = max(0, (budget - fixed) // per_trial)
        raise WorkBudgetExceeded(
            f"identity suite needs {needs} entry-operations, over the budget of {budget}; "
            + (f"the largest --trials that fits is {fits}" if fits else "no --trials value fits"))
    rng = random.Random(seed)
    residuals: dict[str, float] = {}
    breaches: list[dict] = []

    def record(name: str, value: float, witness):
        residuals[name] = max(residuals.get(name, 0.0), value)
        if value > TOLERANCE:
            breaches.append({"identity": name, "residual": value, "witness": witness})

    # H[r, a] from the xi-order traces in rows of N2: column r holds the k = r mod N2
    hist = np.bincount((field.trace_table[field.unit_codes()].reshape(-1, n2)
                        + p * np.arange(n2)).ravel(), minlength=n2 * p).reshape(n2, p)
    lift = dp if dp.variant is Variant.LIFT else derive_params(
        replace(dp.params, variant=Variant.LIFT))
    zeros, expected = hist[:, 0], (p - 1) * lift.class_counts
    # |zeros - expected| as a maximum: np.abs on int64 faults in 64 KB more of numpy's code
    gaps = np.maximum(np.maximum(zeros - expected, expected - zeros), np.ptp(hist[:, 1:], axis=1))
    for r, gap in enumerate(gaps.tolist()):
        record("class_zero_traces", float(gap), {"class": r})
    record("gauss_sum_trivial", float(abs(int(zeros.sum()) - (q // p - 1))), {})
    del hist, zeros, expected, gaps
    # |G_j| = sqrt(q), j = 1..q-2; the sums are freed before any codeword block is drawn
    gaps = np.abs(np.abs(gauss_sums(field)[1:]) - math.sqrt(q))
    residuals["gauss_sum_modulus"] = float(gaps.max())
    for j in np.flatnonzero(gaps > TOLERANCE).tolist():
        record("gauss_sum_modulus", float(gaps[j]), {"j": j + 1})
    del gaps

    # the code identities, codewords r drawn a block at a time: every tau*r multiplied
    # and counted on its own, tau = 1 (r itself) first
    block, multipliers = max(1, slot_batch_rows(dp) // taus), np.arange(1, taus + 1)[:, None]
    for start in range(0, trials, block):
        rows = np.array([rng.randrange(q) for _ in range(4 * min(block, trials - start))],
                        dtype=np.int64).reshape(-1, 4)
        multiples = field.products(multipliers, rows[:, None, :]).reshape(-1, 4)
        hist = gray_symbol_histogram(multiples, dp)
        # the kernel's weight against the Gray length less r's own zero count, in integers
        zeros = hist[::taus, 0].tolist()
        for row, w, z in zip(rows.tolist(), _weights_serial(dp, rows).tolist(), zeros):
            record("weight_vs_zero_count", float(abs(w - (dp.gray_length - z))), {"r": row})
        if taus > 1:
            for row, (th, *rest) in zip(rows.tolist(), thetas(hist).reshape(-1, taus).tolist()):
                record("real_part_collapse", abs(th + sum(rest) - (p - 1) * th.real),
                       {"r": row})

    return IdentityReport(residuals=residuals, breaches=breaches, tolerance=TOLERANCE,
                          trials=trials)


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

    Only meaningful for n2 >= 2: l = 1 at n2 = 2 (every odd p is -1), else
    half the order of p when that order is even and its halfway power is -1.
    """
    if n2 < 2 or math.gcd(p, n2) != 1:
        return None
    if n2 == 2:
        return 1
    order = multiplicative_order(p, n2)
    if order % 2:
        return None
    return order // 2 if pow(p, order // 2, n2) == n2 - 1 else None


def distance_interval(p: int, m: int, n2: int) -> tuple[int, int]:
    """(d_lower, d_upper) of distance_bounds, exact: the ceiling of base*(q -
    (N2-1)*sqrt(q))/N2 and base*(q-1)/N2, base = 4p^(3m-1).  For odd m, q is
    no square: s = isqrt(base^2 (N2-1)^2 q) < base*(N2-1)*sqrt(q) < s + 1."""
    q, base = p**m, 4 * p ** (3 * m - 1)
    if m % 2 == 0:
        d_lower = -(-base * (q - (n2 - 1) * p ** (m // 2)) // n2)
    else:
        d_lower = (base * q - math.isqrt(base**2 * (n2 - 1) ** 2 * q) - 1) // n2 + 1
    return d_lower, base * (q - 1) // n2


#: The full code's regime for each table of predict_subcode, which predict lifts.
_LIFTED_REGIME = {"subcode_two_weight_general": "three_weight_general",
                  "subcode_two_weight_special": "three_weight_special"}


def predict(dp: DerivedParams) -> list[Prediction]:
    """Predictions applicable to the full code at these parameters.

    Each exact table is a Hamming table of the field subcode, written once
    and lifted by _lifted (weights times 4*q^3, plus the bulk row of the
    q^4 - q codewords off the uv-line): one weight on all q - 1 nonzero
    words, q/p for the lift at N2 = 1 and q - q/p for the units, or a table
    of predict_subcode.  Every regime whose side conditions hold is emitted;
    when no exact-row regime applies, the interval-only regime is emitted if
    its own window on N2 holds.  Inapplicability is data, not an error.
    """
    p, m, q, n2 = dp.p, dp.m, dp.q, dp.N2
    parity_ok = (m % 2 == 0) or (p % 4 == 3)
    parity_cond = ("m even, or m odd and p = 3 (mod 4)", parity_ok)

    def lifted(regime: str, subcode_rows: dict[int, int], conds, **case) -> Prediction:
        return Prediction(regime=regime, rows=tuple(_lifted(dp, subcode_rows).items()),
                          side_conditions=conds, **case)

    if dp.variant is Variant.UNITS:
        units = lifted("two_weight_units", {q - q // p: q - 1}, (parity_cond,))
        return [units] if parity_ok else []
    preds: list[Prediction] = []
    if n2 == 1 and parity_ok:
        preds.append(lifted("two_weight_lift", {q // p: q - 1}, (("N2 = 1", True), parity_cond)))
    preds += [lifted(_LIFTED_REGIME[sub.regime], sub.rows_dict(), sub.side_conditions,
                     l=sub.l, t=sub.t) for sub in predict_subcode(dp)]

    if not preds and 1 < n2 and (n2 - 1) ** 2 < q and parity_ok:
        d_lower, d_upper = distance_interval(p, m, n2)
        preds.append(Prediction(
            regime="distance_bounds",
            rows=(),
            side_conditions=(parity_cond, ("1 < N2 < sqrt(q) + 1", True)),
            d_lower=d_lower, d_upper=d_upper,
            max_nonzero_weights=n2 + 1,
        ))
    return preds


def predict_subcode(dp: DerivedParams) -> list[Prediction]:
    """Predicted Hamming rows for the length-n field subcode of the lift in
    the semiprimitive case: m even, N2 >= 2, p^l = -1 modulo N2 and
    p^(m/2) + (-1)^t (N2-1) > 0, t = m/(2l).  The special case (N2 even, t
    odd, (p^l+1)/N2 odd) has (-1)^t = -1, so its window is stated as
    N2 < p^(m/2) + 1.  The units variant's subcode has no table here.

    The window is nondegeneracy: N2 divides p^l + 1 and l divides m/2, so
    outside it N2 = p^(m/2) + 1, t = 1 and the rare weight is 0: nonzero
    subcode words vanish, the dimension is below 4m.  So a table is emitted
    exactly when the dimension is 4m."""
    p, m, q, n2 = dp.p, dp.m, dp.q, dp.N2
    l = semiprimitive_exponent(p, n2) if m % 2 == 0 else None
    if dp.variant is Variant.UNITS or l is None:
        return []
    t = m // (2 * l)
    sign, half = -1 if t % 2 else 1, p ** (m // 2)
    if half + sign * (n2 - 1) <= 0:
        return []
    special = n2 % 2 == 0 and t % 2 == 1 and ((p**l + 1) // n2) % 2 == 1
    # each row's weight times p*N2, with its frequency
    scaled = ((q + sign * (n2 - 1) * half, (q - 1) // n2),
              (q - sign * half, (n2 - 1) * (q - 1) // n2))
    if any(w % (p * n2) for w, _ in scaled):
        raise AssertionError("subcode weight formula produced a non-integer")
    conds = (("m even", True), ("N2 >= 2", True), ("some power of p is -1 modulo N2", True),
             ("N2 even, t odd, (p^l+1)/N2 odd", special),
             ("N2 < p^(m/2) + 1", True) if special
             else ("p^(m/2) + (-1)^t (N2-1) > 0", True))
    return [Prediction(
        regime="subcode_two_weight_special" if special else "subcode_two_weight_general",
        rows=tuple(sorted((w // (p * n2), codes) for w, codes in scaled)),
        side_conditions=conds, scope="subcode", l=l, t=t)]


@dataclass
class ComparisonReport:
    ok: bool | None  # None: no prediction applied, so nothing was compared
    details: list[dict]


def compare_with_predictions(measured: dict[int, int],
                             preds: list[Prediction]) -> ComparisonReport:
    """Row-by-row comparison of a measured weight -> frequency map (its zero
    row is not compared) against every applicable prediction; interval
    regimes check the weight count and the minimum weight instead.  With no
    prediction the verdict is None, not a pass."""
    details = []
    ok = True if preds else None
    measured = {w: f for w, f in measured.items() if w != 0}
    for pred in preds:
        if pred.rows:
            expected = pred.rows_dict()
            mismatches = [{"weight": w, "expected": expected.get(w), "measured": measured.get(w)}
                          for w in sorted(set(expected) | set(measured))
                          if expected.get(w) != measured.get(w)]
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


def subcode_report(dp: DerivedParams) -> dict:
    """The field-subcode distribution next to its predictions, compared by
    compare_with_predictions; each prediction shows its rows in place of
    the mismatches.  "ok" is None when no prediction applies, so nothing
    was compared."""
    measured = subcode_distribution(dp)
    preds = predict_subcode(dp)
    comparison = compare_with_predictions(measured, preds)
    detail = [{"regime": pred.regime, "matched": d["matched"], "rows": pred.rows}
              for pred, d in zip(preds, comparison.details)]
    return {"length": len(dp.x0_codes()), "distribution": measured, "predictions": detail,
            "ok": comparison.ok}
