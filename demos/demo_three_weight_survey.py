#!/usr/bin/env python3
"""Three-weight regime at (5, 2, N = 3): the maximal ideal, class by class.

No method enumerates all 5^8 codewords over 31250 coordinates, and none
needs to; the protocol is: read the uv-line off the field subcode
(the codeword d*uv weighs 4*q^3 times the subcode weight of d), read the
bulk row (every codeword off the uv-line, the rest of the maximal ideal
and the units alike, has one weight, a theorem pinned by the kernel's
oracle tests), and check the outcome against the three-weight prediction
with its corrected middle frequency.
"""

from tracecodes import (
    CodeParams,
    Field,
    derive_params,
    distribution_by_class,
    predict,
    subcode_distribution,
)

field = Field(5, 2)
dp = derive_params(CodeParams(field, 3))
print(f"parameters: p=5, m=2, N=3 -> N1={dp.N1}, N2={dp.N2}, n={dp.n}, "
      f"|L|={dp.length}, Gray length {dp.gray_length}")

# ----------------------------------------------------------------------
# 1. the prediction: three weights, with the middle frequency covering
#    units plus the off-line part of the maximal ideal
# ----------------------------------------------------------------------
pred = predict(dp)[0]
print(f"\nprediction [{pred.regime}] with l={pred.l}, t={pred.t}:")
for w, f in pred.rows:
    print(f"  weight {w:>7}: frequency {f}")

# ----------------------------------------------------------------------
# 2. the uv-line from the lifted subcode, the rest from the bulk row
# ----------------------------------------------------------------------
uv_line = {4 * dp.q**3 * w: f for w, f in subcode_distribution(dp).items() if w}
print("\nuv-line (the field subcode, each weight times 4*q^3):")
for w, f in sorted(uv_line.items()):
    print(f"  weight {w:>7}: {f} elements")
dist = distribution_by_class(dp, samples_per_class=200)
(bulk_weight, middle_frequency), = {w: f for w, f in dist.nonzero().items()
                                    if w not in uv_line}.items()
off_line, units = dp.q**3 - dp.q, (dp.q - 1) * dp.q**3
print(f"bulk row: {middle_frequency} codewords of weight {bulk_weight}: the "
      f"{off_line} off-line maximal ideal elements and the {units} units")

# ----------------------------------------------------------------------
# 3. reconcile with the prediction
# ----------------------------------------------------------------------
rare, bulk = sorted(uv_line.items())
print(f"\nuv-line split: {rare[1]} at {rare[0]}, {bulk[1]} at {bulk[0]}")
print(f"middle frequency (off-line ideal + units): {middle_frequency}")
print(f"prediction's corrected middle frequency:   "
      f"{pred.rows_dict()[bulk_weight]}")
assert middle_frequency == off_line + units == pred.rows_dict()[bulk_weight]

# ----------------------------------------------------------------------
# 4. the class-based distribution packages the same facts
# ----------------------------------------------------------------------
print("\nclass-based distribution:")
for w, f in sorted(dist.entries.items()):
    print(f"  weight {w:>7}: frequency {f}")
print(f"matches prediction: {dist.nonzero() == pred.rows_dict()}")
