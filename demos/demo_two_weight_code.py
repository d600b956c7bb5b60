#!/usr/bin/env python3
"""Build the two-weight code at (p, m, N) = (3, 2, 1) and check everything.

Walks the full pipeline: derive the parameters, enumerate all 3^8 codewords
exactly, compare the measured weight distribution against the closed-form
two-weight prediction, certify Griesmer optimality of the Gray image, and
export a few Gray-mapped codewords to disk.
"""

import tempfile
from pathlib import Path

from tracecodes import (
    CodeParams,
    Field,
    Variant,
    compare_with_predictions,
    derive_params,
    distribution_exhaustive,
    griesmer_optimal,
    predict,
)
from tracecodes import oracles, ring

# ----------------------------------------------------------------------
# 1. the field and the derived parameters
# ----------------------------------------------------------------------
field = Field(3, 2)
print(f"field: p={field.p} m={field.m} modulus={','.join(map(str, field.modulus))}, "
      f"primitive element xi = {field.coeffs(field.xi)}")

params = CodeParams(field, N=1, variant=Variant.LIFT)
dp = derive_params(params)
print(f"N1 = {dp.N1}, N2 = {dp.N2}, n = {dp.n}")
print(f"base set (powers of xi): {[field.coeffs(d) for d in dp.base_set.tolist()]}")
print(f"ring-code length |L| = {dp.length}, Gray length = {dp.gray_length}")

# ----------------------------------------------------------------------
# 2. exact weight distribution over all 3^8 codewords
# ----------------------------------------------------------------------
dist = distribution_exhaustive(dp)
print("\nmeasured Lee-weight distribution (weight: frequency):")
for w, f in sorted(dist.entries.items()):
    print(f"  {w:>6}: {f}")

# ----------------------------------------------------------------------
# 3. the closed-form prediction and the row-by-row comparison
# ----------------------------------------------------------------------
preds = predict(dp)
for pred in preds:
    print(f"\nprediction [{pred.regime}]: rows {pred.rows}")
    for name, holds in pred.side_conditions:
        print(f"  condition: {name} -> {holds}")
comparison = compare_with_predictions(dist.entries, preds)
print(f"prediction matches measurement: {comparison.ok}")

# ----------------------------------------------------------------------
# 4. Griesmer certificate for the Gray image [11664, 8, 7776]
# ----------------------------------------------------------------------
verdict = griesmer_optimal(dp.gray_length, dp.dimension, dist.min_nonzero_weight, dp.p)
print(f"\nGriesmer sums: at d = {verdict.sum_at_d}, at d+1 = {verdict.sum_at_d_plus_1}, "
      f"length = {verdict.n}")
print(f"Griesmer-optimal: {verdict.optimal}")

# ----------------------------------------------------------------------
# 5. export the Gray images of a few codewords
# ----------------------------------------------------------------------
rs = [ring.zero(field), oracles.one(field), oracles.uv(field)]
with tempfile.TemporaryDirectory() as tmp:
    data, sidecar = oracles.export_gray_words(dp, rs, Path(tmp) / "codewords.bin")
    print(f"\nexported {len(rs)} rows of {dp.gray_length} symbols each")
    print(f"  data:    {Path(data).stat().st_size} bytes")
    print(f"  sidecar: {Path(sidecar).name}")
