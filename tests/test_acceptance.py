"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import time

import numpy as np
import pytest

from tracecodes import (
    CodeParams,
    Field,
    RingElem,
    Variant,
    derive_params,
    distribution_by_class,
    dual_lee_distance,
    gray,
    gray_inverse,
    griesmer_optimal,
    minimality_check,
    subcode_distribution,
    verify_identities,
)
from tracecodes.cli import main
from tracecodes.oracles import big_trace, gray_word, lee_weight_word, random_element, syndrome
from tracecodes.ring import lee_weight


def _report(num: int, ok: bool, desc: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num:02d} {status}{timing}: {desc}")


def _cli_rows(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["-o", str(out)])
    report = json.loads(out.read_text())
    rows = {r["weight"]: r["frequency"] for r in report["rows"]}
    return code, rows, report


@pytest.fixture(scope="module")
def two_weight_lift_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c1")
    start = time.perf_counter()
    code, rows, report = _cli_rows(
        tmp, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--variant", "lift", "--method", "exhaustive", "--threads", "1",
    )
    return code, rows, report, time.perf_counter() - start


@pytest.fixture(scope="module")
def two_weight_units_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c2")
    start = time.perf_counter()
    code, rows, report = _cli_rows(
        tmp, "analyze", "-p", "3", "-m", "2", "-N", "1",
        "--variant", "units", "--method", "exhaustive", "--threads", "1",
    )
    return code, rows, report, time.perf_counter() - start


@pytest.fixture(scope="module")
def cubic_class_distribution():
    start = time.perf_counter()
    dist = distribution_by_class(derive_params(CodeParams(Field(3, 3), 1)), samples_per_class=500)
    return dist, time.perf_counter() - start


def test_criterion_01_two_weight_reproduction(two_weight_lift_rows):
    code, rows, report, elapsed = two_weight_lift_rows
    ok = (code == 0
          and rows == {0: 1, 7776: 6552, 8748: 8}
          and sum(rows.values()) == 3**8
          and report["params"]["gray_length"] == 11664
          and elapsed < 60.0)
    _report(1, ok, "exhaustive lift at (3,2,N=1) is 1 + 6552x^7776 + 8x^8748",
            elapsed)
    assert code == 0
    assert rows == {0: 1, 7776: 6552, 8748: 8}
    assert report["params"]["gray_length"] == 11664
    assert elapsed < 60.0


def test_criterion_02_units_reproduction(two_weight_units_rows):
    code, rows, report, elapsed = two_weight_units_rows
    ok = (code == 0
          and rows == {0: 1, 15552: 6552, 17496: 8}
          and report["params"]["gray_length"] == 23328
          and elapsed < 120.0)
    _report(2, ok, "exhaustive units at (3,2) is 1 + 6552x^15552 + 8x^17496",
            elapsed)
    assert code == 0
    assert rows == {0: 1, 15552: 6552, 17496: 8}
    assert elapsed < 120.0


def test_criterion_03_class_based_reproduction(cubic_class_distribution):
    dist, elapsed = cubic_class_distribution
    ok = (dist.entries == {0: 1, 682344: 531414, 708588: 26}
          and dist.detail["samples_per_class"] == 500
          and elapsed < 120.0)
    _report(3, ok, "class-based (3,3,N=1) gives 682344:531414 and 708588:26 "
                   "with 500 validated samples per class", elapsed)
    assert dist.entries == {0: 1, 682344: 531414, 708588: 26}
    assert dist.detail["samples_per_class"] == 500
    assert elapsed < 120.0


def test_criterion_04_bounded_regime():
    from tracecodes import distribution_exhaustive
    start = time.perf_counter()
    dist = distribution_exhaustive(derive_params(CodeParams(Field(3, 2), 2)))
    elapsed = time.perf_counter() - start
    nonzero = dist.nonzero()
    ok = (len(nonzero) <= 3
          and 2916 <= min(nonzero) <= 3888
          and sum(dist.entries.values()) == 3**8
          and elapsed < 60.0)
    _report(4, ok, "(3,2,N=2) exhaustive has <= 3 nonzero weights with "
                   "minimum in [2916, 3888]", elapsed)
    assert len(nonzero) <= 3
    assert 2916 <= min(nonzero) <= 3888
    assert elapsed < 60.0


def test_criterion_05_three_weight_survey():
    # the maximal ideal's weights: the uv-line is the field subcode lifted
    # by 4*q^3; the rest of the ideal shares the bulk row with the units
    start = time.perf_counter()
    dp = derive_params(CodeParams(Field(5, 2), 3))
    uv_line = {4 * dp.q**3 * w: f for w, f in subcode_distribution(dp).items() if w}
    rows = distribution_by_class(dp, samples_per_class=1000).nonzero()
    bulk = {w: f for w, f in rows.items() if w not in uv_line}
    off_line, units = dp.q**3 - dp.q, (dp.q - 1) * dp.q**3
    elapsed = time.perf_counter() - start
    ok = (uv_line == {62500: 8, 125000: 16}
          and bulk == {100000: 390600}
          and off_line + units == 390600
          and set(rows) == {62500, 100000, 125000}
          and elapsed < 600.0)
    _report(5, ok, "(5,2,N=3) maximal ideal: weights {62500,100000,125000}, "
                   "uv-line split 8/16, the off-line ideal and the units share "
                   "the bulk row 390600 at 100000", elapsed)
    assert uv_line == {62500: 8, 125000: 16}
    assert bulk == {100000: 390600}
    assert off_line + units == 390600
    assert set(rows) == {62500, 100000, 125000}
    assert elapsed < 600.0


def test_criterion_06_subcode_rows():
    start = time.perf_counter()
    dist = subcode_distribution(derive_params(CodeParams(Field(3, 4), 4)))
    elapsed = time.perf_counter() - start
    ok = dist == {0: 1, 6: 60, 9: 20} and elapsed < 1.0
    _report(6, ok, "the [10,4] ternary subcode at (3,4,N=4) has rows "
                   "(6,60) and (9,20)", elapsed)
    assert dist == {0: 1, 6: 60, 9: 20}
    assert elapsed < 1.0


def test_criterion_07_griesmer_optimality():
    start = time.perf_counter()
    first = griesmer_optimal(11664, 8, 7776, 3)
    second = griesmer_optimal(23328, 8, 15552, 3)
    elapsed = time.perf_counter() - start
    ok = (first.optimal and (first.sum_at_d, first.sum_at_d_plus_1) == (11663, 11669)
          and second.optimal
          and (second.sum_at_d, second.sum_at_d_plus_1) == (23326, 23332))
    _report(7, ok, "Griesmer verdicts: [11664,8,7776] optimal (11663/11669), "
                   "[23328,8,15552] optimal (23326/23332)", elapsed)
    assert first.optimal and second.optimal
    assert (first.sum_at_d, first.sum_at_d_plus_1) == (11663, 11669)
    assert (second.sum_at_d, second.sum_at_d_plus_1) == (23326, 23332)
    assert elapsed < 1.0


def test_criterion_08_dual_distance():
    f9 = Field(3, 2)
    start = time.perf_counter()
    results = {}
    for variant in (Variant.LIFT, Variant.UNITS):
        dp = derive_params(CodeParams(f9, 1, variant))
        res = dual_lee_distance(dp)
        support = [(idx, RingElem(f9, *coords)) for idx, coords in res.witness]
        recheck = (not syndrome(dp, support)
                   and sum(lee_weight(val) for _, val in support) == 2)
        results[variant] = (res.distance, res.verified, recheck)
    elapsed = time.perf_counter() - start
    ok = all(d == 2 and v and rc for d, v, rc in results.values()) and elapsed < 10.0
    _report(8, ok, "dual Lee distance is exactly 2 with re-verified witnesses "
                   "for both coordinate sets at (3,2,N=1)", elapsed)
    for d, v, rc in results.values():
        assert d == 2 and v and rc
    assert elapsed < 10.0


def test_criterion_09_identity_suites():
    start = time.perf_counter()
    ok = True
    # character-sum identities at the four parameter sets, 100+ trials each,
    # with the zero-trace expansion checked for every nonzero b inside
    for p, m, N in [(3, 2, 1), (3, 2, 2), (3, 3, 1), (5, 2, 3)]:
        rep = verify_identities(derive_params(CodeParams(Field(p, m), N)), trials=100)
        ok = ok and rep.ok and max(rep.residuals.values()) < 1e-6

    # Gray bijectivity exhaustively at p = 3 and 5
    for p in (3, 5):
        f = Field(p, 1)
        images = set()
        for coords in itertools.product(range(p), repeat=4):
            r = RingElem(f, *coords)
            img = gray(r)
            images.add(img)
            ok = ok and gray_inverse(f, img) == r
        ok = ok and len(images) == p**4

    # Gray isometry on random vectors at p = 3 and 5
    rng = np.random.default_rng(2024)
    for p in (3, 5):
        f = Field(p, 1)
        for _ in range(100):
            n = int(rng.integers(1, 16))
            xs = [random_element(f, rng) for _ in range(n)]
            ys = [random_element(f, rng) for _ in range(n)]
            lhs = lee_weight_word([a - b for a, b in zip(xs, ys)])
            rhs = int(np.count_nonzero(gray_word(xs) != gray_word(ys)))
            ok = ok and lhs == rhs

    # trace nondegeneracy exhaustively at (3,2)
    f9 = Field(3, 2)
    probes = []
    for i in range(2):
        xi_i = f9.exp_code(i)
        for slot in range(4):
            coords = [0, 0, 0, 0]
            coords[slot] = xi_i
            probes.append(RingElem(f9, *coords))
    for coords in itertools.product(range(9), repeat=4):
        x = RingElem(f9, *coords)
        if x:
            ok = ok and any(big_trace(r * x) for r in probes)

    elapsed = time.perf_counter() - start
    _report(9, ok, "identity suites at four parameter sets, Gray bijectivity "
                   "and isometry at p=3,5, trace nondegeneracy at (3,2), "
                   "all residuals < 1e-6", elapsed)
    assert ok


def test_criterion_10_minimality(two_weight_lift_rows, two_weight_units_rows,
                                 cubic_class_distribution):
    start = time.perf_counter()
    _, lift_rows, _, _ = two_weight_lift_rows
    _, units_rows, _, _ = two_weight_units_rows
    cubic_dist, _ = cubic_class_distribution
    verdicts = [
        minimality_check({w: f for w, f in rows.items() if w}, 3)
        for rows in (lift_rows, units_rows, cubic_dist.entries)
    ]
    elapsed = time.perf_counter() - start
    ok = all(v.all_minimal and v.classification == "dictatorial" for v in verdicts)
    _report(10, ok, "ratio test passes on the measured distributions of "
                    "criteria 1-3 and classifies the scheme as dictatorial "
                    "given dual distance 2", elapsed)
    for v in verdicts:
        assert v.all_minimal
        assert v.classification == "dictatorial"
