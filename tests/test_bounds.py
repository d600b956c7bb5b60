import json

import numpy as np
import pytest

from tracecodes import (
    CodeParams,
    Field,
    ParameterError,
    Variant,
    derive_params,
    dual_lee_distance,
    griesmer_optimal,
    griesmer_sum,
    minimality_check,
    sphere_packing_excludes,
)
from tracecodes import bounds, ring
from tracecodes.oracles import eval_field_subcode, minimal_codewords_bruteforce, syndrome
from tracecodes.params import integer_params
from tracecodes.ring import gray_inverse, lee_weight

from oracles import dual_witness_holds, lee_one_elements, orthogonality_direct


# ---------------------------------------------------------------------------
# Griesmer arithmetic
# ---------------------------------------------------------------------------

def test_single_term_sum():
    assert griesmer_sum(1, 123, 3) == 123


def test_sum_at_two_weight_distance():
    # term-by-term: 7776+2592+864+288+96+32+11+4
    assert griesmer_sum(8, 7776, 3) == 11663


def test_sum_one_past_distance():
    assert griesmer_sum(8, 7777, 3) == 11669


def test_sum_properties():
    for d in (1, 10, 100, 7776):
        assert griesmer_sum(5, d, 3) >= d
        assert griesmer_sum(5, d + 1, 3) >= griesmer_sum(5, d, 3)


def test_sum_preconditions():
    with pytest.raises(ParameterError):
        griesmer_sum(0, 5, 3)
    with pytest.raises(ParameterError):
        griesmer_sum(5, 0, 3)


def test_optimal_two_weight_lift():
    verdict = griesmer_optimal(11664, 8, 7776, 3)
    assert verdict.sum_at_d == 11663
    assert verdict.sum_at_d_plus_1 == 11669
    assert verdict.optimal
    assert not verdict.inconclusive


def test_optimal_two_weight_units():
    verdict = griesmer_optimal(23328, 8, 15552, 3)
    assert verdict.sum_at_d == 23326
    assert verdict.sum_at_d_plus_1 == 23332
    assert verdict.optimal


def test_inconclusive_when_bound_allows_more():
    verdict = griesmer_optimal(11664, 8, 7000, 3)
    assert verdict.sum_at_d_plus_1 == 10503
    assert verdict.inconclusive
    assert not verdict.optimal


def test_infeasible_parameters_reported():
    verdict = griesmer_optimal(100, 8, 7776, 3)
    assert not verdict.feasible
    assert not verdict.optimal


def test_sphere_packing_exclusions():
    assert sphere_packing_excludes(11664, 8, 3)
    assert sphere_packing_excludes(23328, 8, 3)
    assert not sphere_packing_excludes(0, 8, 3)


# ---------------------------------------------------------------------------
# dual distance
# ---------------------------------------------------------------------------

def test_lee_one_elements_are_units(f5):
    # the dual's weight-1 phase checks only the four Gray basis words e_k:
    # every Lee-weight-1 value is s*e_k, whose constant coordinate is s
    # times that of e_k, so the four words certify all 4(p-1) values
    ones = lee_one_elements(f5)
    assert len(ones) == 4 * 4
    assert all(lee_weight(x) == 1 for x in ones)
    assert all(ring.is_unit(x) for x in ones)
    basis = [gray_inverse(f5, tuple(int(i == k) for i in range(4))) for k in range(4)]
    assert all(ring.is_unit(e) for e in basis)
    assert ones == [ring.RingElem(f5, s, 0, 0, 0) * e for e in basis for s in range(1, 5)]
    assert [x.a for x in ones] == [s * e.a % 5 for e in basis for s in range(1, 5)]


def test_dual_distance_lift(f9):
    result = dual_lee_distance(derive_params(CodeParams(f9, 1, Variant.LIFT)))
    assert result.distance == 2
    assert result.verified
    # re-verify the witness independently
    dp = derive_params(CodeParams(f9, 1, Variant.LIFT))
    support = [(idx, ring.RingElem(f9, *coords)) for idx, coords in result.witness]
    assert not syndrome(dp, support)
    assert sum(lee_weight(val) for _, val in support) == 2


def test_dual_distance_units(f9):
    result = dual_lee_distance(derive_params(CodeParams(f9, 1, Variant.UNITS)))
    assert result.distance == 2
    assert result.verified


def test_dual_distance_other_parameters(f9, f27):
    for cp in (CodeParams(f9, 2), CodeParams(f27, 1)):
        assert dual_lee_distance(derive_params(cp)).distance == 2


@pytest.mark.parametrize("p, m, N, variant, witness", [
    (3, 2, 1, Variant.LIFT, [[0, [1, 2, 2, 1]], [486, [2, 0, 1, 0]]]),
    (3, 2, 1, Variant.UNITS, [[0, [1, 2, 2, 1]], [2916, [1, 2, 2, 1]]]),
    (3, 9, 1, Variant.LIFT, [[0, [1, 2, 2, 1]], [5083731656658, [2, 0, 1, 0]]]),
    (5, 2, 3, Variant.LIFT, [[0, [1, 4, 4, 1]], [12500, [4, 0, 1, 0]]]),
    (131, 1, 1, Variant.LIFT, [[0, [1, 130, 130, 1]], [2230930, [130, 0, 1, 0]]]),
    (131, 1, 1, Variant.UNITS, [[0, [1, 130, 130, 1]], [146125915, [1, 130, 130, 1]]]),
])
def test_dual_witnesses_pinned(p, m, N, variant, witness):
    # the witnesses the coordinate-walking search reported, found at index 0
    dp = derive_params(CodeParams(Field(p, m), N, variant))
    result = dual_lee_distance(dp)
    assert json.loads(json.dumps(result._asdict())) == {
        "distance": 2, "lower_bound": 2, "witness": witness, "verified": True}
    support = [(idx, ring.RingElem(dp.field, *coords)) for idx, coords in witness]
    assert not syndrome(dp, support)
    assert orthogonality_direct(dp, support)


@pytest.mark.parametrize("variant", [Variant.LIFT, Variant.UNITS])
def test_dual_witness_needs_no_pair_table(monkeypatch, variant):
    # the witness is built from the first working pair at coordinate 0, so
    # at most one inversion per Lee-weight-1 value, not one per ordered pair
    calls = []
    inverse = bounds.ring_inv
    monkeypatch.setattr(bounds, "ring_inv", lambda x: calls.append(x) or inverse(x))
    p = 131
    assert dual_lee_distance(derive_params(CodeParams(Field(p, 1), 1, variant))).distance == 2
    assert 1 <= len(calls) <= 4 * (p - 1)


def test_dual_witness_is_built_not_searched(monkeypatch):
    # the witness is built from the closed form over F_p, so exactly one
    # inversion runs, however large p is, and it reads no field: the
    # integer parameters alone give the report's witness
    calls = []
    inverse = bounds.ring_inv
    monkeypatch.setattr(bounds, "ring_inv", lambda x: calls.append(x) or inverse(x))
    dp = derive_params(CodeParams(Field(4093, 1), 1, Variant.LIFT))
    result = dual_lee_distance(dp)
    assert result.distance == 2 and len(calls) == 1
    assert dual_lee_distance(integer_params(4093, 1, 1, Variant.LIFT)) == result


@pytest.mark.parametrize("p,m", [(2, 2), (9, 1), (3, 0)])
def test_integer_params_refuse_a_field_that_field_refuses(p, m):
    # the integer parameters exist only where Field could build F_q, so the
    # F_p witness never reads p = 2 (where dlog(-1) = dlog(1)) or a non-prime p
    with pytest.raises(ParameterError):
        integer_params(p, m, 1, Variant.UNITS)


#: Every odd prime p <= 29 with q <= 729, every N | q - 1, both variants.
WITNESS_GRID = [(p, m, N, variant) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29)
                for m in range(1, 7) if p**m <= 729
                for N in range(1, p**m) if (p**m - 1) % N == 0
                for variant in Variant]


def test_dual_witness_over_f_p_passes_the_f_q_recheck_on_the_grid():
    # the F_p witness, with its integer position, against coordinate 0 and
    # the coordinate set over F_q: membership, position, zero syndrome and
    # Lee weight 2, at every point; the IntegerParams that dual reads give
    # the same result as the DerivedParams
    fields = {}
    for p, m, N, variant in WITNESS_GRID:
        field = fields.setdefault((p, m), Field(p, m))
        dp = derive_params(CodeParams(field, N, variant))
        result = dual_lee_distance(dp)
        assert dual_witness_holds(dp, result.witness), (p, m, N, variant)
        assert dual_lee_distance(integer_params(p, m, N, variant)) == result
    assert len(WITNESS_GRID) == 460


def test_syndrome_matches_direct_orthogonality(f9):
    # the one-equation syndrome characterization agrees with checking the
    # inner product against a generating family of codewords
    dp = derive_params(CodeParams(f9, 1))
    rng = np.random.default_rng(31)
    agree = 0
    for _ in range(200):
        size = int(rng.integers(1, 4))
        support = [
            (int(rng.integers(0, dp.length)),
             ring.RingElem(f9, *(int(c) for c in rng.integers(0, 3, size=4))))
            for _ in range(size)
        ]
        assert (not syndrome(dp, support)) == orthogonality_direct(dp, support)
        agree += 1
    assert agree == 200


def test_syndrome_positive_cases(f9):
    # witnesses and their base ring multiples are dual vectors under both checks
    dp = derive_params(CodeParams(f9, 1))
    result = dual_lee_distance(dp)
    support = [(idx, ring.RingElem(f9, *coords)) for idx, coords in result.witness]
    assert not syndrome(dp, support)
    assert orthogonality_direct(dp, support)
    for lam_coords in [(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)]:
        lam = ring.RingElem(f9, *lam_coords)
        scaled = [(idx, lam * val) for idx, val in support]
        assert not syndrome(dp, scaled)
        assert orthogonality_direct(dp, scaled)


# ---------------------------------------------------------------------------
# minimality and secret sharing
# ---------------------------------------------------------------------------

def test_two_weight_distribution_all_minimal():
    verdict = minimality_check({7776: 6552, 8748: 8}, 3)
    assert verdict.all_minimal
    assert verdict.classification == "dictatorial"
    assert 3 * 7776 > 2 * 8748


def test_synthetic_ratio_failure():
    verdict = minimality_check({1: 5, 10: 5}, 3)
    assert not verdict.all_minimal
    assert verdict.classification == "undetermined"


def test_margin_identity(f9):
    from tracecodes import distribution_exhaustive
    dist = distribution_exhaustive(derive_params(CodeParams(f9, 1)))
    lhs = 3 * dist.min_nonzero_weight - 2 * max(dist.nonzero())
    # the two-weight family's margin 4p^(4m-1) - 4p^(3m), at p = 3, m = 2
    assert lhs == 4 * 3 ** (4 * 2 - 1) - 4 * 3 ** (3 * 2)
    assert lhs > 0


def test_empty_distribution_rejected():
    with pytest.raises(ParameterError):
        minimality_check({}, 3)


def test_bruteforce_repetition_code():
    # scalar multiples never disqualify each other
    words = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
    mins = minimal_codewords_bruteforce(words, 3)
    assert sorted(mins) == [(1, 1, 1), (2, 2, 2)]


def test_bruteforce_zero_code():
    assert minimal_codewords_bruteforce([(0, 0, 0)], 3) == []


def test_bruteforce_strict_cover():
    words = [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2), (1, 2), (2, 1), (0, 1), (0, 2)]
    mins = minimal_codewords_bruteforce(words, 3)
    # full-support words cover the single-coordinate words
    assert (1, 0) in mins and (0, 1) in mins
    assert (1, 1) not in mins


def test_bruteforce_field_subcode(f81):
    dp = derive_params(CodeParams(f81, 4))
    words = [eval_field_subcode(b, dp) for b in range(f81.q)]
    mins = minimal_codewords_bruteforce(words, 3)
    # ratio test is exactly at threshold (6/9 = 2/3) and fails; the scan
    # decides: only the 60 words of weight 6 are minimal
    assert len(mins) == 60
    assert all(sum(1 for s in w if s) == 6 for w in mins)
    assert not minimality_check({6: 60, 9: 20}, 3).all_minimal


def test_bruteforce_size_guard():
    with pytest.raises(ParameterError):
        minimal_codewords_bruteforce([(1,)] * 10_001, 3)
