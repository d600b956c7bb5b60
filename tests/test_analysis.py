import hashlib
import math
import random
import re
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from tracecodes import (
    CodeParams,
    RingElem,
    Variant,
    compare_with_predictions,
    derive_params,
    distribution_by_class,
    distribution_exhaustive,
    gray_symbol_histogram,
    griesmer_optimal,
    predict,
    predict_subcode,
    semiprimitive_exponent,
    subcode_report,
    verify_identities,
)
from tracecodes import Field, analysis, construction, oracles, ring
from tracecodes.analysis import _weights_serial, distance_interval
from tracecodes.construction import coord_blocks
from tracecodes.field import gauss_sums, roots_of_unity
from tracecodes.oracles import evaluate, lee_weight_word, random_element

from oracles import (
    all_codeword_rows,
    distance_lower_by_decimal,
    distribution_by_enumeration,
)


# ---------------------------------------------------------------------------
# single-codeword weights
# ---------------------------------------------------------------------------

def test_zero_codeword_weight(f9):
    assert _weights_serial(derive_params(CodeParams(f9, 1)), [ring.zero(f9).coords()])[0] == 0


def test_uv_codeword_weight(f9):
    assert _weights_serial(derive_params(CodeParams(f9, 1)), [oracles.uv(f9).coords()])[0] == 8748


def test_unit_codeword_weight(f9):
    assert _weights_serial(derive_params(CodeParams(f9, 1)), [oracles.one(f9).coords()])[0] == 7776


def test_uv_codeword_weight_units_variant(f9):
    dp = derive_params(CodeParams(f9, 1, Variant.UNITS))
    assert _weights_serial(dp, [oracles.uv(f9).coords()])[0] == 17496


def test_kernel_matches_streamed_reference(f9):
    rng = np.random.default_rng(21)
    for N in (1, 2):
        dp = derive_params(CodeParams(f9, N))
        for _ in range(4):
            r = random_element(f9, rng)
            assert _weights_serial(dp, [r.coords()])[0] == lee_weight_word(evaluate(r, dp))


# ---------------------------------------------------------------------------
# the closed-form kernel against the per-coordinate oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gray_nonzero_table(p):
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


def _reference_weights(dp, rows):
    """Oracle: visit every coordinate of every codeword, reduce it to the
    four traces (t1, t2, t3, t4) and look its Gray nonzero count up."""
    q = dp.q
    T = dp.field.trmul_flat.astype(np.int32)
    nz, (sa, sb, sc) = _gray_nonzero_table(dp.p)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    out = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), 512):
        chunk = rows[lo:lo + 512] * q
        r0, r1, r2, r3 = (chunk[:, i:i + 1] for i in range(4))
        acc = np.zeros(len(chunk), dtype=np.int64)
        for x0, x1, x2, x3 in coord_blocks(dp, block_size=4096):
            t1 = T[r0 + x0]
            t2 = T[r0 + x1] + T[r1 + x0]
            t3 = T[r0 + x2] + T[r2 + x0]
            t4 = T[r0 + x3] + T[r1 + x2] + T[r2 + x1] + T[r3 + x0]
            acc += nz[t1 * sa + t2 * sb + t3 * sc + t4].sum(axis=1, dtype=np.int64)
        out[lo:lo + len(chunk)] = acc
    return out


def _grid_rows(q, count, seed):
    """Every codeword row when count is None; otherwise `count` seeded rows,
    half of them in the maximal ideal and a quarter on the uv-line."""
    if count is None:
        return all_codeword_rows(q)
    rows = np.random.default_rng(seed).integers(0, q, size=(count, 4))
    rows[:count // 2, 0] = 0
    rows[:count // 4, 1:3] = 0
    rows[0] = 0
    return rows


@pytest.mark.parametrize("p,m,N,variant,count", [
    (3, 1, 1, "lift", None), (3, 1, 1, "units", None), (5, 1, 1, "lift", None),
    (5, 1, 2, "units", None), (7, 1, 3, "lift", None),
    (3, 2, 1, "lift", None), (3, 2, 2, "lift", None), (3, 2, 4, "lift", None),
    (3, 2, 1, "units", 1000), (11, 1, 1, "lift", 3000), (11, 1, 1, "units", 500),
    (5, 2, 3, "lift", 24), (5, 2, 3, "units", 12), (3, 3, 1, "lift", 24),
    (3, 3, 13, "lift", 60), (7, 2, 4, "lift", 24),
])
def test_kernel_matches_per_coordinate_oracle(p, m, N, variant, count):
    dp = derive_params(CodeParams(Field(p, m), N, Variant(variant)))
    rows = _grid_rows(dp.q, count, seed=p * 100 + m * 10 + N)
    assert np.array_equal(analysis._weights_serial(dp, rows),
                          _reference_weights(dp, rows))


def test_kernel_matches_oracle_with_non_primitive_modulus():
    # x has order 4 modulo x^2 + 1, so xi is not the class of x
    field = Field(3, 2, modulus=(1, 0, 1))
    for N, variant in ((1, "lift"), (2, "lift"), (1, "units")):
        dp = derive_params(CodeParams(field, N, Variant(variant)))
        rows = _grid_rows(dp.q, 600, seed=N)
        assert np.array_equal(analysis._weights_serial(dp, rows),
                              _reference_weights(dp, rows))


@pytest.mark.parametrize("p,N", [(131, 1), (257, 256)])
def test_kernel_matches_gray_histogram_past_p_13(p, N):
    # the closed form against an explicit count of the Gray symbols, at
    # primes where the per-coordinate oracle's p^4 table does not fit
    dp = derive_params(CodeParams(Field(p, 1), N))
    a, b, c, d = (int(x) for x in np.random.default_rng(p).integers(1, p, size=4))
    rows = [(0, 0, 0, d), (0, b, 0, 0), (0, b, c, d), (a, 0, 0, 0), (a, b, c, d)]
    counted = dp.gray_length - gray_symbol_histogram(rows, dp)[:, 0]
    assert analysis._weights_serial(dp, rows).tolist() == counted.tolist()


def test_bulk_weights_parallel_merge(f9):
    # the bulk count holds no state across rows: weights counted over split
    # batches and merged equal the weights of the whole batch
    dp = derive_params(CodeParams(f9, 2))
    rows = all_codeword_rows(9)[:600]
    whole = _weights_serial(dp, rows)
    merged = np.concatenate([_weights_serial(dp, rows[:250]),
                             _weights_serial(dp, rows[250:])])
    assert np.array_equal(whole, merged)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_exhaustive_two_weight_lift(f9):
    dist = distribution_exhaustive(derive_params(CodeParams(f9, 1)))
    assert dist.entries == {0: 1, 7776: 6552, 8748: 8}
    assert sum(dist.entries.values()) == 3**8
    assert dist.method == "exhaustive"


def test_exhaustive_two_weight_units(f9):
    dist = distribution_exhaustive(derive_params(CodeParams(f9, 1, Variant.UNITS)))
    assert dist.entries == {0: 1, 15552: 6552, 17496: 8}


def test_exhaustive_three_weight_window(f9):
    dist = distribution_exhaustive(derive_params(CodeParams(f9, 2)))
    assert dist.entries == {0: 1, 2916: 4, 3888: 6552, 5832: 4}
    nonzero = dist.nonzero()
    assert len(nonzero) <= 3
    assert 2916 <= min(nonzero) <= 3888


#: How far the q^4-row oracle reaches, in codewords times coordinates.
ORACLE_REACH = 10**10


def _exhaustive_grid():
    """Every point with p <= 23 and q <= 4096 within the oracle's reach: the
    lift at every N | q - 1 and the units at N = 1."""
    points = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for m in range(1, int(math.log(4096, p)) + 1):
            q = p**m
            for N in range(1, q):
                n = math.lcm(N, (q - 1) // (p - 1)) // N
                if (q - 1) % N == 0 and q**7 * n <= ORACLE_REACH:
                    points.append((p, m, N, "lift"))
            if q**7 * (q - 1) <= ORACLE_REACH:
                points.append((p, m, 1, "units"))
    return points


def test_exhaustive_grid_has_degenerate_points():
    # (3,2,4): the traces of 2 nonzero d vanish on the whole base set, so
    # the zero row holds 3 codewords
    points = _exhaustive_grid()
    assert len(points) == 48 and (3, 2, 4, "lift") in points
    dist = distribution_exhaustive(derive_params(CodeParams(Field(3, 2), 4)))
    assert dist.entries == {0: 3, 1944: 6552, 2916: 6}


@pytest.mark.parametrize("p,m,N,variant", _exhaustive_grid())
def test_exhaustive_matches_every_codeword_weighed(p, m, N, variant):
    # the lifted subcode rows plus the bulk row against all q^4 rows weighed
    # one by one; at degenerate points the zero row holds p^(m-e) codewords
    dp = derive_params(CodeParams(Field(p, m), N, Variant(variant)))
    assert distribution_exhaustive(dp).entries == distribution_by_enumeration(dp)


@pytest.mark.parametrize("p,m,N,variant", _exhaustive_grid())
def test_theorem_e_every_gray_slot_counts_as_the_uv_slot(p, m, N, variant):
    # each of the four slots of the symbol stream, built by ring.SUBSETS and
    # ring.GRAY, counts each value of F_p as the uv-slot count does, row for
    # row, and the Gray symbol histogram is their sum; the seeded rows are
    # 0, on the uv-line, in the rest of the maximal ideal, and a unit
    field = Field(p, m)
    dp = derive_params(CodeParams(field, N, Variant(variant)))
    rows = np.random.default_rng(p * 1000 + m * 100 + N).integers(1, field.q, size=(6, 4))
    rows[0], rows[1, :3], rows[2, [0, 2]], rows[3, :2], rows[4, 0] = 0, 0, 0, 0, 0
    uv, histogram = construction.uv_slot_counts(rows, dp), gray_symbol_histogram(rows, dp)
    for coords, counts, total in zip(rows.tolist(), uv, histogram):
        slots = np.zeros((4, p), dtype=np.int64)
        for block in oracles.gray_symbols(RingElem(field, *coords), dp):
            slots += [np.bincount(block[:, k], minlength=p) for k in range(4)]
        assert all(np.array_equal(slot, counts) for slot in slots)
        assert np.array_equal(slots.sum(axis=0), total)


def test_exhaustive_reads_the_uv_line_from_the_class_counts(f25, monkeypatch):
    # no kernel call and no q-row array: the uv-line rows are the N2 = 3
    # class counts of the n = 2 base-set points, tallied with the class
    # size 8, and they equal the kernel's weights of the q rows (0, 0, 0, d)
    dp = derive_params(CodeParams(f25, 3))
    kernel = Counter(analysis._weights_serial(dp, [(0, 0, 0, d) for d in range(25)]).tolist())

    def no_kernel(*args):
        raise AssertionError("the kernel weighed a row")
    monkeypatch.setattr(analysis, "_weights_serial", no_kernel)
    dist = distribution_exhaustive(dp)
    assert dp.class_counts.tolist() == [1, 0, 0]
    assert dist.entries == dict(kernel + Counter({100000: dp.codeword_count - dp.q}))


def test_distribution_invariants(f9):
    for cp in (CodeParams(f9, 1), CodeParams(f9, 2), CodeParams(f9, 1, Variant.UNITS)):
        dp = derive_params(cp)
        dist = distribution_exhaustive(dp)
        assert sum(dist.entries.values()) == dp.codeword_count
        assert dist.entries[0] == 1
        assert all(w <= dp.gray_length for w in dist.entries)
        assert all(w % 4 == 0 for w in dist.nonzero())
        assert all(w % dp.p ** (3 * dp.m - 1) == 0 for w in dist.nonzero())


def test_class_method_equals_exhaustive(f9):
    for N in (1, 2):
        dp = derive_params(CodeParams(f9, N))
        by_class = distribution_by_class(dp, samples_per_class=100)
        assert by_class.entries == distribution_exhaustive(dp).entries
        assert by_class.method == "class"
        assert by_class.detail["samples_per_class"] == 100


def _class_grid():
    """Every odd p <= 29 with q <= 729: the lift at every N | q - 1 and the
    units at N = 1."""
    points = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
        m = 1
        while p**m <= 729:
            q = p**m
            points += [(p, m, N, "lift") for N in range(1, q) if (q - 1) % N == 0]
            points.append((p, m, 1, "units"))
            m += 1
    return points


def test_class_method_equals_exhaustive_on_the_grid():
    # the cyclotomic split (N2 representatives, each weight times its class
    # size, with the zero row and the bulk row) against the exhaustive rows,
    # degenerate lift points included
    points = _class_grid()
    assert len(points) == 254
    mismatched = []
    for p, m, N, variant in points:
        dp = derive_params(CodeParams(Field(p, m), N, Variant(variant)))
        by_class = distribution_by_class(dp, samples_per_class=1)
        split = Counter({0: 1, analysis._bulk_weight(dp): dp.codeword_count - dp.q})
        for rep in by_class.detail["representatives"]:
            split[rep["weight"]] += rep["size"]
        exhaustive = distribution_exhaustive(dp).entries
        if not by_class.entries == dict(split) == exhaustive:
            mismatched.append((p, m, N, variant))
    assert mismatched == []


def test_dimension_counts_the_zero_row_on_the_grid():
    # k = 3m + e (lift) or 4m (units): the zero row holds the p^(4m-k)
    # codewords of the kernel of r -> c(r), and the Griesmer bound holds at
    # k, while 55 of the 63 points with k < 4m would break it at 4m
    degenerate = broken_at_4m = 0
    for p, m, N, variant in _class_grid():
        dp = derive_params(CodeParams(Field(p, m), N, Variant(variant)))
        dist = distribution_exhaustive(dp)
        d = dist.min_nonzero_weight
        assert dist.entries[0] == p ** (4 * m - dp.dimension), (p, m, N, variant)
        assert griesmer_optimal(dp.gray_length, dp.dimension, d, p).feasible
        if dp.dimension < 4 * m:
            degenerate += 1
            broken_at_4m += not griesmer_optimal(dp.gray_length, 4 * m, d, p).feasible
    assert (degenerate, broken_at_4m) == (63, 55)


def test_class_method_cubic_field(f27):
    dist = distribution_by_class(derive_params(CodeParams(f27, 1)), samples_per_class=60)
    assert dist.entries == {0: 1, 682344: 531414, 708588: 26}


def test_class_method_three_weight(f25):
    dist = distribution_by_class(derive_params(CodeParams(f25, 3)), samples_per_class=100)
    pred = predict(derive_params(CodeParams(f25, 3)))[0]
    assert dist.nonzero() == pred.rows_dict()


def test_class_method_seed_recorded(f9):
    dist = distribution_by_class(derive_params(CodeParams(f9, 1)), samples_per_class=10, seed=77)
    assert dist.detail["seed"] == 77


@pytest.mark.parametrize("p,m,N", [(5, 2, 3), (3, 2, 4)])
def test_class_sampler_draws_members_of_its_class(p, m, N):
    # N2 > 1 at both points, so the uv-line splits into several classes
    dp = derive_params(CodeParams(Field(p, m), N))
    assert dp.N2 > 1
    names = [r["class"] for r in
             distribution_by_class(dp, samples_per_class=1).detail["representatives"]]
    assert len(names) == dp.N2

    def draw(seed):
        rng = random.Random(seed)
        return [[analysis._sample_class(name, j, dp, rng) for _ in range(200)]
                for j, name in enumerate(names)]

    rows = draw(1)
    for j, members in enumerate(rows):
        for a, b, c, d in members:
            assert (a, b, c) == (0, 0, 0) and dp.field.dlog(d) % dp.N2 == j
    assert draw(1) == rows
    assert draw(2) != rows


def test_constancy_violation_raises_with_witness(f9, monkeypatch):
    real = analysis._weights_serial
    calls = {"n": 0}

    def corrupting(dp, rows):
        out = real(dp, rows)
        calls["n"] += 1
        if calls["n"] == 2:  # the validation batch, after the representatives
            out = out.copy()
            out[-1] += 4
        return out

    monkeypatch.setattr(analysis, "_weights_serial", corrupting)
    # the message names the class, the witness row and both weights
    witness = (r"on uv-line class 0: row \(0, 0, 0, (\d+)\) has weight (\d+), "
               r"its representative (\d+)")
    with pytest.raises(AssertionError, match=witness) as info:
        distribution_by_class(derive_params(CodeParams(f9, 1)), samples_per_class=5)
    d, got, expected = map(int, re.search(witness, str(info.value)).groups())
    assert 0 < d < f9.q
    assert got == expected + 4


def test_ideal_survey_three_weight(f25):
    # the maximal ideal's weights: the uv-line is the field subcode lifted
    # by 4*q^3; the rest of the ideal shares the bulk row with the units
    dp = derive_params(CodeParams(f25, 3))
    uv_line = {4 * dp.q**3 * w: f
               for w, f in construction.subcode_distribution(dp).items() if w}
    assert uv_line == {62500: 8, 125000: 16}
    rows = distribution_by_class(dp, samples_per_class=200).nonzero()
    bulk = {w: f for w, f in rows.items() if w not in uv_line}
    assert bulk == {100000: (dp.q**3 - dp.q) + (dp.q - 1) * dp.q**3} == {100000: 390600}
    assert set(rows) == {62500, 100000, 125000}


def test_scaling_invariance_on_uv_line(f9, f25):
    # scalar multiples of uv-line codewords keep their Lee weight
    for f, N in ((f9, 1), (f25, 3)):
        dp = derive_params(CodeParams(f, N))
        rows, scaled = [], []
        for alpha in range(1, f.q):
            for lam in range(1, f.p):
                rows.append((0, 0, 0, alpha))
                scaled.append((0, 0, 0, f.mul(lam, alpha)))
        assert np.array_equal(_weights_serial(dp, rows), _weights_serial(dp, scaled))


# ---------------------------------------------------------------------------
# theta sums
# ---------------------------------------------------------------------------

def test_theta_of_zero_codeword(f9):
    dp = derive_params(CodeParams(f9, 1))
    hist = gray_symbol_histogram([ring.zero(f9).coords()], dp)
    assert abs(analysis.thetas(hist)[0] - dp.gray_length) < 1e-9


def test_symbol_histogram_total(f9):
    dp = derive_params(CodeParams(f9, 2))
    hist = gray_symbol_histogram([oracles.uv(f9).coords()], dp)
    assert hist.shape == (1, 3) and hist.sum() == dp.gray_length
    assert np.array_equal(gray_symbol_histogram(oracles.uv(f9).coords(), dp), hist)


def test_thetas_equal_one_row_theta(f9):
    dp = derive_params(CodeParams(f9, 2))
    rows = np.random.default_rng(3).integers(0, f9.q, size=(20, 4))
    got = analysis.thetas(gray_symbol_histogram(rows, dp)).tolist()
    assert got == [analysis.thetas(gray_symbol_histogram([r], dp))[0] for r in rows]


def test_weight_from_theta_formula(f9):
    dp = derive_params(CodeParams(f9, 1))
    rng = np.random.default_rng(22)
    for _ in range(100):
        r = random_element(f9, rng)
        w = _weights_serial(dp, [r.coords()])[0]
        taus = [(RingElem(f9, tau, 0, 0, 0) * r).coords() for tau in range(1, 3)]
        tau_sum = sum(analysis.thetas(gray_symbol_histogram(taus, dp)))
        value = (2 * dp.gray_length - tau_sum) / 3
        assert abs(w - value) < 1e-6


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def test_identity_suite_passes(f9):
    rep = verify_identities(derive_params(CodeParams(f9, 2)), trials=50)
    assert rep.ok
    assert rep.residuals["class_zero_traces"] == 0.0  # integer counts, exact
    assert rep.residuals["gauss_sum_trivial"] == 0.0  # G_0 = -1 as a count
    assert rep.residuals["real_part_collapse"] < 1e-6  # p = 3 mod 4 branch


def test_identity_suite_field_counts_are_exact_on_the_grid():
    # the two integer facts of the field's tables read exactly 0 at every
    # point of the class grid, both variants and degenerate lifts included
    for p, m, N, variant in _class_grid():
        rep = verify_identities(derive_params(CodeParams(Field(p, m), N, Variant(variant))),
                                trials=1)
        assert rep.breaches == [], (p, m, N, variant)
        assert rep.residuals["class_zero_traces"] == 0.0, (p, m, N, variant)
        assert rep.residuals["gauss_sum_trivial"] == 0.0, (p, m, N, variant)


def test_identity_suite_forms_each_gauss_sum_once(monkeypatch):
    # at N2 = 4 the suite forms no sums of order N2: the q - 1 sums of one
    # gauss_sums call cover every character, and the class counts are
    # checked in integers
    dp = derive_params(CodeParams(Field(3, 4), 4))
    assert dp.N2 == 4
    real, calls = analysis.gauss_sums, []

    def counted(field):
        calls.append(field)
        return real(field)
    monkeypatch.setattr(analysis, "gauss_sums", counted)
    assert verify_identities(dp, trials=1).ok
    assert calls == [dp.field]


def _corrupt_class_counts(monkeypatch, classes):
    # the lift's class counts, which every lift DerivedParams and the units
    # variant's identity suite read, come with one added at `classes`
    real = construction.lift_class_counts

    def corrupted(field, n2):
        counts = real(field, n2)
        counts[classes] += 1
        return counts
    for module in (construction, analysis):
        monkeypatch.setattr(module, "lift_class_counts", corrupted)


def test_identity_suite_checks_the_counts_against_an_independent_sum(monkeypatch):
    # one class count off by one must breach at that class (r = 3 of N2 = 4,
    # the class of xi^7), by p - 1 zero traces: the suite counts the trace
    # table by class itself, never reading the counts it checks; a units
    # run checks the lift's counts at (N, n) too
    _corrupt_class_counts(monkeypatch, [3])
    for variant in Variant:
        dp = derive_params(CodeParams(Field(3, 4), 4, variant))
        rep = verify_identities(dp, trials=1)
        assert [(b["identity"], b["witness"]) for b in rep.breaches] == [
            ("class_zero_traces", {"class": 3})], variant
        assert rep.breaches[0]["residual"] == dp.p - 1


def test_units_identity_suite_derives_no_second_code(monkeypatch):
    # the units run checks the lift's class counts from lift_class_counts,
    # the one pass DerivedParams.class_counts makes, not from a lift
    # DerivedParams of its own
    dp = derive_params(CodeParams(Field(3, 4), 4, Variant.UNITS))

    def no_derive(*args):
        raise AssertionError("verify_identities derived a second DerivedParams")
    for module in (analysis, construction):
        monkeypatch.setattr(module, "derive_params", no_derive)
    rep = verify_identities(dp, trials=1)
    assert rep.ok and rep.residuals["class_zero_traces"] == 0.0


def test_identity_suite_checks_the_trace_table(monkeypatch):
    # one nonzero trace set to 0 in the table the suite reads, after
    # derive_params took the class counts from the true one: the zero traces number
    # q/p, one too many (residual exactly 1), and that element's class has
    # one zero too many and its nonzero traces no longer equidistributed
    field = Field(3, 4)
    dp = derive_params(CodeParams(field, 4))
    k = next(k for k in range(7, field.order, 4)
             if field.trace_table[field.exp_code(k)] != 0)
    mutant = field.trace_table.copy()
    mutant[field.exp_code(k)] = 0
    monkeypatch.setattr(field, "_trace_np", mutant)
    rep = verify_identities(dp, trials=1)
    assert [(b["identity"], b["witness"], b["residual"]) for b in rep.breaches
            if b["identity"] in ("class_zero_traces", "gauss_sum_trivial")] == [
        ("class_zero_traces", {"class": k % dp.N2}, 1.0), ("gauss_sum_trivial", {}, 1.0)]


def test_identity_suite_measures_the_kernel(f9, monkeypatch):
    # the character-sum side must not share the kernel, or a wrong kernel
    # would agree with itself
    real = analysis._weights_serial
    monkeypatch.setattr(analysis, "_weights_serial",
                        lambda dp, rows: real(dp, rows) + 4)
    rep = verify_identities(derive_params(CodeParams(f9, 1)), trials=5)
    assert not rep.ok
    assert {b["identity"] for b in rep.breaches} == {"weight_vs_zero_count"}


def test_identity_suite_names_each_zero_trace_breach_by_class(f9, monkeypatch):
    # the trace counts are compared with every class count at once; wrong
    # counts at both classes of N2 = 2 breach there, named by class in order
    _corrupt_class_counts(monkeypatch, [1, 0])
    rep = verify_identities(derive_params(CodeParams(f9, 2)), trials=5)
    assert [b["identity"] for b in rep.breaches] == ["class_zero_traces"] * 2
    assert [b["witness"] for b in rep.breaches] == [{"class": 0}, {"class": 1}]
    assert rep.residuals["class_zero_traces"] == 2.0  # p - 1 zero traces


def test_identity_suite_measures_the_histograms(f9, monkeypatch):
    # the other side: wrong uv-slot counts (reduced mod p - 1, so the count
    # at the symbol p - 1 moves onto 0) must breach against the kernel weights
    real = analysis.uv_slot_counts

    def mutant(rows, params):
        counts = real(rows, params)
        counts[:, 0] += counts[:, -1]
        counts[:, -1] = 0
        return counts
    monkeypatch.setattr(analysis, "uv_slot_counts", mutant)
    rep = verify_identities(derive_params(CodeParams(f9, 1)), trials=5)
    assert not rep.ok
    breached = {b["identity"] for b in rep.breaches}
    assert "weight_vs_zero_count" in breached
    assert breached <= {"weight_vs_zero_count", "real_part_collapse"}


def test_identity_suite_still_measures_past_float_ulp(monkeypatch):
    # gray length 4 * 121 * 243^3 = 6.9e9, whose float64 ulp is near the
    # 1e-6 tolerance: the exact integer side must not hide a wrong kernel
    # or wrong counts
    dp = derive_params(CodeParams(Field(3, 5), 1))
    real_kernel, real_counts = analysis._weights_serial, analysis.uv_slot_counts
    monkeypatch.setattr(analysis, "_weights_serial",
                        lambda dp, rows: real_kernel(dp, rows) + 4)
    rep = verify_identities(dp, trials=5)
    assert {b["identity"] for b in rep.breaches} == {"weight_vs_zero_count"}
    monkeypatch.setattr(analysis, "_weights_serial", real_kernel)

    def mutant(rows, params):
        counts = real_counts(rows, params)
        counts[:, 0] += counts[:, -1]
        counts[:, -1] = 0
        return counts
    monkeypatch.setattr(analysis, "uv_slot_counts", mutant)
    rep = verify_identities(dp, trials=5)
    assert "weight_vs_zero_count" in {b["identity"] for b in rep.breaches}


@pytest.mark.parametrize("p,m,trials", [(3, 3, 100), (131, 1, 3)])
def test_identity_suite_counts_scaled_rows_in_bounded_batches(p, m, trials, monkeypatch):
    # every tau*r of a drawn codeword is multiplied and counted on its own,
    # never derived from r's counts, in several batches of at most
    # slot_batch_rows rows, each taking one coordinate's trace products at a
    # time: one over the base set and three over F_q for the uv-slot; no
    # batch of its own is counted for the weight check
    dp = derive_params(CodeParams(Field(p, m), 1))
    real_hist, real_traces = analysis.gray_symbol_histogram, Field.trace_products
    batches, counted = [], []

    def recorded(rows, params):
        batches.append(np.array(rows))
        return real_hist(rows, params)

    def traces(field, a, b):
        counted.append(np.shape(a))
        return real_traces(field, a, b)
    monkeypatch.setattr(analysis, "gray_symbol_histogram", recorded)
    monkeypatch.setattr(Field, "trace_products", traces)
    assert verify_identities(dp, trials=trials).ok
    assert len(counted) > 4 and len(counted) % 4 == 0
    assert {shape[1:] for shape in counted} == {(1,)}
    assert max(shape[0] for shape in counted) <= construction.slot_batch_rows(dp)
    # each codeword's p - 1 multiples, tau = 1 first, are its products with
    # the embedded units tau, and each codeword is counted once
    groups = np.concatenate(batches).reshape(-1, p - 1, 4).tolist()
    assert len(groups) == trials
    for group in groups:
        r = RingElem(dp.field, *group[0])
        taus = [RingElem(dp.field, tau, 0, 0, 0) * r for tau in range(1, p)]
        assert [list(t.coords()) for t in taus] == group


@pytest.mark.parametrize("p,m,N,trials", [(61, 1, 1, 100), (5, 2, 3, 120), (3, 3, 1, 37)])
def test_identity_suite_counts_each_weight_row_once(p, m, N, trials, monkeypatch):
    # the weight fact is w = s - h_r[0], read from r's own counts: every
    # drawn codeword is weighed once and counted once as its tau = 1 row;
    # at p = 3 mod 4 its other p - 2 multiples follow it, for the real part,
    # and otherwise no multiple is counted
    dp = derive_params(CodeParams(Field(p, m), N))
    real_hist, real_kernel = analysis.gray_symbol_histogram, analysis._weights_serial
    counted, weighed = [], []

    def recorded_hist(rows, params):
        counted.extend(np.asarray(rows).reshape(-1, 4).tolist())
        return real_hist(rows, params)

    def recorded_kernel(params, rows):
        weighed.extend(np.asarray(rows).reshape(-1, 4).tolist())
        return real_kernel(params, rows)
    monkeypatch.setattr(analysis, "gray_symbol_histogram", recorded_hist)
    monkeypatch.setattr(analysis, "_weights_serial", recorded_kernel)
    assert verify_identities(dp, trials=trials).ok
    taus = p - 1 if p % 4 == 3 else 1
    assert len(weighed) == trials
    assert len(counted) == trials * taus
    assert counted[::taus] == weighed


@pytest.mark.parametrize("trials", [1, 37, 120])
def test_identity_suite_weighs_each_weight_trial_once(trials, monkeypatch):
    # (3,3,1) counts 75 codewords, 150 multiples, per block: 120 trials are
    # two blocks, of 75 and 45 codewords, each weighed once, in its block
    dp = derive_params(CodeParams(Field(3, 3), 1))
    assert construction.slot_batch_rows(dp) // 2 == 75
    real = analysis._weights_serial
    calls = []

    def recorded(dp, rows):
        calls.append(np.asarray(rows).reshape(-1, 4).tolist())
        return real(dp, rows)
    monkeypatch.setattr(analysis, "_weights_serial", recorded)
    assert verify_identities(dp, trials=trials).ok
    blocks = [75] * (trials // 75) + [trials % 75] * (trials % 75 > 0)
    assert [len(rows) for rows in calls] == blocks


def test_identity_suite_weighs_as_many_codewords_as_trials(monkeypatch):
    # --trials is the number of codewords checked: 150 at (5,2,3), where
    # the weight check once stopped at 100
    dp = derive_params(CodeParams(Field(5, 2), 3))
    real = analysis._weights_serial
    weighed = []

    def recorded(dp, rows):
        weighed.extend(np.asarray(rows).reshape(-1, 4).tolist())
        return real(dp, rows)
    monkeypatch.setattr(analysis, "_weights_serial", recorded)
    rep = verify_identities(dp, trials=150)
    assert rep.ok and rep.trials == 150
    assert len(weighed) == 150


def test_identity_suite_memory_does_not_grow_with_trials():
    # the real-part rows are drawn and counted a block at a time, so ten
    # times the trials keep the peak of traced allocations (all of them at
    # once would add about 0.6 MB here)
    import tracemalloc

    dp = derive_params(CodeParams(Field(3, 1), 1))
    verify_identities(dp, trials=1)  # lazy tables built before any peak is read
    peaks = []
    for trials in (400, 4000):
        tracemalloc.start()
        try:
            assert verify_identities(dp, trials=trials).ok
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 200_000


@pytest.mark.parametrize("N,bound_mb", [(9841, 0.75), (1, 0.85)])
def test_identity_suite_frees_the_gauss_sums_before_the_codewords(N, bound_mb):
    # the normalization residuals are read off the Gaussian sums right after
    # the class counts, which are freed first, and the sums are freed, so the
    # codeword blocks do not stack on the 16(q - 1) bytes of order q - 1
    # (holding them read 1.27 and 1.01 MB here; the order-N2 sums and their
    # inverse FFT beside them read 1.03 MB at N = 9841)
    import tracemalloc

    dp = derive_params(CodeParams(Field(3, 9), N))
    verify_identities(dp, trials=1)  # lazy tables built before any peak is read
    tracemalloc.start()
    try:
        assert verify_identities(dp, trials=1).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_class_samples_memory_does_not_grow_with_samples():
    # the samples are drawn and weighed a block of 4096 at a time, so ten
    # times the samples keep the peak of traced allocations; (3,1,1) has one
    # uv-line class, so both counts fill at least one whole block
    import tracemalloc

    dp = derive_params(CodeParams(Field(3, 1), 1))
    assert dp.N2 == 1
    distribution_by_class(dp, samples_per_class=1)
    peaks = []
    for samples in (10000, 100000):
        tracemalloc.start()
        try:
            distribution_by_class(dp, samples_per_class=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 200_000


def test_identity_suite_makes_no_scalar_products(monkeypatch):
    # the zero-trace check and the tau multiples go through array products
    dp = derive_params(CodeParams(Field(3, 4), 4))
    calls = []
    real = Field.mul

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)
    monkeypatch.setattr(Field, "mul", counted)
    assert verify_identities(dp, trials=5).ok
    assert calls == []


def test_identity_suite_skips_real_part_for_p_one_mod_four(f25):
    rep = verify_identities(derive_params(CodeParams(f25, 3)), trials=10)
    assert rep.ok
    assert "real_part_collapse" not in rep.residuals


@pytest.mark.parametrize("p,m", [(3, 3), (61, 1)])
def test_identity_suite_exponentials_do_not_grow_with_trials_or_p(p, m, monkeypatch):
    # every theta and Gaussian sum reads the one cached root table of p, so
    # np.exp runs once, for that table; a table per theta call would run it
    # once per trial and multiplier
    dp = derive_params(CodeParams(Field(p, m), 1))
    real, calls = np.exp, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "exp", counted)
    roots_of_unity.cache_clear()
    assert verify_identities(dp, trials=100).ok
    assert len(calls) == 1


def _traced_peak(call):
    import tracemalloc

    call()  # lazy tables and the root table built before any peak is read
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identity_suite_memory_stays_at_one_complex_array_per_sum():
    # gauss_sums gathers the root table at the trace table once, one complex
    # (q - 1)-array, and the FFT writes over it, where a complex q-array and
    # its gather traced 2.0 times it; the order-2 sums are a slice of it,
    # within the bound they had when formed on their own.  The suite frees
    # its Gaussian sums before it draws any codeword, so it stays below the
    # 1 662 396 and 1 835 708 bytes once traced with the sums held past them
    for p, m in [(3, 9), (13, 4), (7, 5)]:
        f = Field(p, m)
        half, peak = _traced_peak(lambda: gauss_sums(f)[::(f.q - 1) // 2])
        assert len(half) == 2 and peak <= 1.6 * 16 * (f.q - 1), (p, m)
    for p, m, N, trials, bound in [(3, 9, 9841, 1, 1_662_396), (13, 4, 4, 5, 1_835_708)]:
        dp = derive_params(CodeParams(Field(p, m), N))
        peak = _traced_peak(lambda: verify_identities(dp, trials=trials))[1]
        assert peak <= bound, (p, m, N, peak)


@pytest.mark.parametrize("p,m", [(3, 9), (3, 12)])
def test_gauss_sums_of_order_q_minus_1_sum_no_copy(p, m):
    # every class of order q - 1 is one exponent, so the root gather goes to
    # the FFT as it is, and the FFT writes over it: under 1.6 times 16(q - 1)
    # traced, where a separate output traced 2.0 times and summing the gather
    # over an axis of length one first 3.0 times; the sums stay bit for bit
    f = Field(p, m)
    sums, peak = _traced_peak(lambda: gauss_sums(f))
    assert peak <= 1.6 * 16 * (f.q - 1), peak
    eta = roots_of_unity(p)[f.trace_table[f.unit_codes()]]
    assert sums.tobytes() == np.fft.fft(eta).tobytes()


# ---------------------------------------------------------------------------
# predictions
# ---------------------------------------------------------------------------

def test_predict_two_weight_lift(f9):
    preds = predict(derive_params(CodeParams(f9, 1)))
    assert len(preds) == 1
    assert preds[0].regime == "two_weight_lift"
    assert preds[0].rows_dict() == {7776: 6552, 8748: 8}
    assert sum(f for _, f in preds[0].rows) == 3**8 - 1


def test_predict_two_weight_lift_cubic(f27):
    preds = predict(derive_params(CodeParams(f27, 1)))
    assert preds[0].rows_dict() == {682344: 531414, 708588: 26}


def test_predict_two_weight_units(f9):
    preds = predict(derive_params(CodeParams(f9, 1, Variant.UNITS)))
    assert preds[0].regime == "two_weight_units"
    assert preds[0].rows_dict() == {15552: 6552, 17496: 8}


def test_predict_bounds_regime(f81):
    # N2 = 8: no power of 3 is -1 modulo 8, so only the interval applies
    preds = predict(derive_params(CodeParams(f81, 8)))
    assert len(preds) == 1
    pred = preds[0]
    assert pred.regime == "distance_bounds"
    assert pred.rows == ()
    assert (pred.d_lower, pred.d_upper) == (1594323, 7085880)
    assert pred.max_nonzero_weights == 9


def _interval_triples(limit):
    """Every (p, m, N2) in the interval regime's window with q <= limit:
    p odd, m > 1, m even or p = 3 (mod 4), 1 < N2 dividing (q-1)/(p-1) and
    (N2-1)^2 < q."""
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not all(p % f for f in range(3, math.isqrt(p) + 1, 2)):
            continue
        for m in range(2, limit.bit_length()):
            q = p**m
            if q > limit:
                break
            if m % 2 == 0 or p % 4 == 3:
                k = (q - 1) // (p - 1)
                yield from ((p, m, n2) for n2 in range(2, math.isqrt(q - 1) + 2)
                            if k % n2 == 0 and (n2 - 1) ** 2 < q)


def test_distance_interval_is_the_exact_ceiling():
    # both parities at every window triple with q <= 2^20; a float sqrt gave
    # 33485410299118772 at (31,3,3) and a floor 16092851081 at (3,6,13)
    triples = list(_interval_triples(2**20))
    assert {m % 2 for _, m, _ in triples} == {0, 1}
    for p, m, n2 in triples:
        d_lower, d_upper = distance_interval(p, m, n2)
        assert d_lower == distance_lower_by_decimal(p, m, n2), (p, m, n2)
        assert d_upper * n2 == 4 * p ** (3 * m - 1) * (p**m - 1)
    assert distance_interval(31, 3, 3)[0] == 33485410299118775
    assert distance_interval(3, 6, 13)[0] == 16092851082
    pred, = predict(derive_params(CodeParams(Field(31, 3), 3)))
    assert (pred.regime, pred.d_lower) == ("distance_bounds", 33485410299118775)


def test_predict_three_weight_small(f25):
    preds = predict(derive_params(CodeParams(f25, 3)))
    assert len(preds) == 1
    pred = preds[0]
    assert pred.regime == "three_weight_general"
    assert (pred.l, pred.t) == (1, 1)
    assert pred.rows_dict() == {62500: 8, 100000: 390600, 125000: 16}
    assert sum(f for _, f in pred.rows) == 5**8 - 1


def test_predict_three_weight_quartic(f81):
    preds = predict(derive_params(CodeParams(f81, 4)))
    pred = preds[0]
    assert pred.regime == "three_weight_general"
    assert (pred.l, pred.t) == (1, 2)
    assert pred.rows_dict() == {
        12754584: 60,
        14171760: 3**16 - 81,
        19131876: 20,
    }


def test_predict_nothing_without_parity():
    # m odd and p = 1 mod 4: the exact two-weight regime does not apply
    from tracecodes import Field
    f = Field(5, 1)
    assert predict(derive_params(CodeParams(f, 1))) == []


def test_exact_regimes_have_two_or_three_weights(f9, f25, f27, f81):
    for f, N in ((f9, 1), (f27, 1), (f25, 3), (f81, 4)):
        for pred in predict(derive_params(CodeParams(f, N))):
            if pred.regime.startswith("two_weight"):
                assert len(pred.rows) == 2
            if pred.regime.startswith("three_weight"):
                assert len(pred.rows) == 3


def test_semiprimitive_exponent_values():
    assert semiprimitive_exponent(5, 3) == 1
    assert semiprimitive_exponent(3, 4) == 1
    assert semiprimitive_exponent(3, 13) is None  # 3 generates squares only
    assert semiprimitive_exponent(3, 2) == semiprimitive_exponent(5, 2) == 1  # quadratic
    assert semiprimitive_exponent(3, 1) is None


def test_predict_subcode_quartic(f81):
    preds = predict_subcode(derive_params(CodeParams(f81, 4)))
    assert len(preds) == 1
    assert preds[0].regime == "subcode_two_weight_general"
    assert preds[0].rows_dict() == {6: 60, 9: 20}
    assert sum(f for _, f in preds[0].rows) == 81 - 1


def test_predict_subcode_inapplicable(f9):
    assert predict_subcode(derive_params(CodeParams(f9, 1))) == []


def test_quadratic_case_matches_exact_rows_on_the_grid():
    # N2 = 2 (m is then even): every odd p is -1 modulo 2, so l = 1, and the
    # three-weight table and the subcode table both match the measured rows
    # at every such lift point of the grid
    points = [(p, m, N) for p, m, N, variant in _class_grid() if variant == "lift"
              and math.gcd(N, (p**m - 1) // (p - 1)) == 2]
    assert len(points) == 27
    for p, m, N in points:
        dp = derive_params(CodeParams(Field(p, m), N))
        (pred,) = predict(dp)
        assert pred.regime.startswith("three_weight") and pred.l == 1, (p, m, N)
        assert ("N2 >= 2", True) in pred.side_conditions
        assert compare_with_predictions(distribution_exhaustive(dp).entries, [pred]).ok, (p, m, N)
        assert subcode_report(dp)["ok"] is True, (p, m, N)


@pytest.mark.parametrize("p,m,N", [(3, 2, 4), (3, 4, 10)])
def test_semiprimitive_tables_stop_at_the_window(p, m, N):
    # special semiprimitive points with N2 >= p^(m/2) + 1: the table's rare
    # weight would be 0, and the subcode has nonzero words of weight 0, so
    # neither the three-weight nor the subcode table is emitted
    dp = derive_params(CodeParams(Field(p, m), N))
    assert semiprimitive_exponent(p, dp.N2) is not None
    assert dp.N2 >= p ** (m // 2) + 1
    assert not [pred for pred in predict(dp) if pred.regime.startswith("three_weight")]
    assert predict_subcode(dp) == []
    assert construction.subcode_distribution(dp)[0] == p ** (m // 2)


def test_every_prediction_on_the_grid_is_pinned():
    # every field of every Prediction (regime, rows, side conditions, scope,
    # l, t, interval) of predict and predict_subcode at the 254 grid points,
    # in grid order: the digest was taken when each table was still written
    # out for the full code as well as for the subcode
    digest = hashlib.sha256()
    for p, m, N, variant in _class_grid():
        dp = derive_params(CodeParams(Field(p, m), N, Variant(variant)))
        digest.update(repr(([pred._asdict() for pred in predict(dp)],
                            [pred._asdict() for pred in predict_subcode(dp)])).encode())
    assert digest.hexdigest()[:16] == "aaf7b1bab9c8ad2c"


def test_units_code_is_the_lift_at_n1_repeated_on_the_grid():
    # Theorem B: the units coordinates are lambda*x, lambda in F_p*, x a
    # coordinate of the lift at N = 1, and the Gray map is F_p-linear, so a
    # units codeword weighs p - 1 times the lift's; its exact tables are the
    # lift's with the weights scaled, at every field of the grid
    fields = sorted({(p, m) for p, m, _, _ in _class_grid()})
    assert len(fields) == 24
    for p, m in fields:
        lift, units = (derive_params(CodeParams(Field(p, m), 1, v)) for v in Variant)
        scaled = {(p - 1) * w: codes for w, codes in distribution_exhaustive(lift).entries.items()}
        assert distribution_exhaustive(units).entries == scaled, (p, m)
        tables = [pred.rows for pred in predict(lift) if pred.rows]
        assert [pred.rows for pred in predict(units) if pred.rows] == [
            tuple(((p - 1) * w, codes) for w, codes in rows) for rows in tables], (p, m)


def test_exact_tables_are_emitted_only_at_full_dimension_on_the_grid():
    # the windows are nondegeneracy: every lift point with an exact table has
    # dimension 4m, and in the semiprimitive case (m even, N2 >= 2, a power of
    # p is -1 modulo N2) predict_subcode emits its table exactly when k = 4m
    exact = semiprimitive = emitted = 0
    for p, m, N, variant in _class_grid():
        if variant != "lift":
            continue
        dp = derive_params(CodeParams(Field(p, m), N))
        if any(pred.rows for pred in predict(dp)):
            exact += 1
            assert dp.dimension == 4 * m, (p, m, N)
        if m % 2 == 0 and dp.N2 >= 2 and semiprimitive_exponent(p, dp.N2) is not None:
            semiprimitive += 1
            emitted += bool(predict_subcode(dp))
            assert bool(predict_subcode(dp)) == (dp.dimension == 4 * m), (p, m, N)
    assert (exact, semiprimitive, emitted) == (123, 118, 80)


def test_subcode_report_matches(f81):
    rep = subcode_report(derive_params(CodeParams(f81, 4)))
    assert rep["ok"]
    assert rep["length"] == 10
    assert rep["distribution"] == {0: 1, 6: 60, 9: 20}


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_exact_rows(f9):
    dp = derive_params(CodeParams(f9, 1))
    comparison = compare_with_predictions(distribution_exhaustive(dp).entries, predict(dp))
    assert comparison.ok
    assert comparison.details[0]["matched"]


def test_compare_bounds(f81):
    dp = derive_params(CodeParams(f81, 8))
    comparison = compare_with_predictions(distribution_exhaustive(dp).entries, predict(dp))
    assert comparison.ok
    assert [d["regime"] for d in comparison.details] == ["distance_bounds"]


def test_compare_without_predictions_is_no_verdict(f9):
    dp = derive_params(CodeParams(f9, 1))
    comparison = compare_with_predictions(distribution_exhaustive(dp).entries, [])
    assert comparison.ok is None
    assert comparison.details == []


def test_compare_reports_mismatches(f9):
    wrong = {0: 1, 7776: 6551, 8748: 9}
    comparison = compare_with_predictions(wrong, predict(derive_params(CodeParams(f9, 1))))
    assert not comparison.ok
    mism = comparison.details[0]["mismatches"]
    assert {m["weight"] for m in mism} == {7776, 8748}
