#!/usr/bin/env python3
"""Dual Lee distance and the secret-sharing access structure.

The dual of each trace code has Lee distance exactly 2: weight 1 is
impossible because every coordinate is a unit, and a weight-2 vector is
found by solving the two-coordinate syndrome equation.  Together with the
all-minimal verdict from the weight ratio this makes the induced
secret-sharing scheme dictatorial.  The field subcode shows the other
side: its ratio test fails at exactly the threshold and brute force
decides which codewords are minimal.
"""

from tracecodes import (
    CodeParams,
    Field,
    RingElem,
    Variant,
    derive_params,
    distribution_exhaustive,
    dual_lee_distance,
    minimality_check,
    sphere_packing_excludes,
)
from tracecodes.bounds import syndrome
from tracecodes.oracles import eval_field_subcode, minimal_codewords_bruteforce
from tracecodes.ring import lee_weight

field = Field(3, 2)

# ----------------------------------------------------------------------
# 1. dual distance with a concrete witness, both coordinate sets
# ----------------------------------------------------------------------
for variant in (Variant.LIFT, Variant.UNITS):
    dp = derive_params(CodeParams(field, 1, variant))
    result = dual_lee_distance(dp)
    print(f"{variant.value}: dual Lee distance = {result.distance}")
    support = [(i, RingElem(field, *c)) for i, c in result.witness]
    for index, value in support:
        print(f"  coordinate {index}: value {value.coords()} "
              f"(lee weight {lee_weight(value)})")
    print(f"  syndrome re-check vanishes: {not syndrome(dp, support)}")
    excluded = sphere_packing_excludes(dp.gray_length, dp.dimension, dp.p)
    print(f"  sphere packing rules out distance >= 3: {excluded}")

# ----------------------------------------------------------------------
# 2. every nonzero codeword is minimal, so the scheme is dictatorial
# ----------------------------------------------------------------------
dp = derive_params(CodeParams(field, 1))
dist = distribution_exhaustive(dp)
verdict = minimality_check(dist.entries, field.p)
print(f"\nweights {verdict.w_min}..{verdict.w_max}: "
      f"p*w_min = {field.p * verdict.w_min} > "
      f"(p-1)*w_max = {(field.p - 1) * verdict.w_max}")
print(f"all nonzero codewords minimal: {verdict.all_minimal}")
print(f"access structure: {verdict.classification}")

# ----------------------------------------------------------------------
# 3. the [10, 4] field subcode sits exactly at the ratio threshold
# ----------------------------------------------------------------------
f81 = Field(3, 4)
dp81 = derive_params(CodeParams(f81, 4))
words = [eval_field_subcode(b, dp81) for b in range(f81.q)]
sub_verdict = minimality_check({6: 60, 9: 20}, 3)
print(f"\n[10,4] subcode ratio test 6/9 vs 2/3: all_minimal = "
      f"{sub_verdict.all_minimal} (threshold exactly met, test fails)")
minimal = minimal_codewords_bruteforce(words, 3)
weights = sorted({sum(1 for s in w if s) for w in minimal})
print(f"brute force: {len(minimal)} of 80 nonzero codewords are minimal, "
      f"all of weight {weights}")
