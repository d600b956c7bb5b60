#!/usr/bin/env python3
"""Three-weight regime at (5, 2, N = 3): survey the maximal ideal exactly.

Full enumeration of all 5^8 codewords times 31250 coordinates is past the
work budget, so the protocol is: enumerate the 15625-element maximal ideal
exhaustively, sample the units, and check the outcome against the
three-weight prediction with its corrected middle frequency.
"""

from tracecodes import (
    CodeParams,
    Field,
    derive_params,
    distribution_by_class,
    predict,
    survey_ideal_and_units,
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
# 2. the survey: exhaustive ideal, sampled units
# ----------------------------------------------------------------------
survey = survey_ideal_and_units(dp, unit_samples=1000)
print("\nuv-line (exhaustive):")
for w, f in sorted(survey.uv_line.items()):
    print(f"  weight {w:>7}: {f} elements")
print("off-line maximal ideal (exhaustive):")
for w, f in sorted(survey.other_maximal.items()):
    print(f"  weight {w:>7}: {f} elements")
print(f"units ({survey.unit_samples} samples): weights {sorted(survey.units_sampled)}")

# ----------------------------------------------------------------------
# 3. reconcile with the prediction
# ----------------------------------------------------------------------
unit_weight = next(iter(survey.units_sampled))
om_weight = next(iter(survey.other_maximal))
print(f"\noff-line ideal weight equals the unit weight: {om_weight == unit_weight}")
rare, bulk = sorted(survey.uv_line.items())
print(f"uv-line split: {rare[1]} at {rare[0]}, {bulk[1]} at {bulk[0]}")

middle_frequency = (survey.other_maximal[om_weight]
                    + (field.q - 1) * field.q**3)  # off-line ideal + all units
print(f"middle frequency (ideal part measured + unit count): {middle_frequency}")
print(f"prediction's corrected middle frequency:            "
      f"{pred.rows_dict()[unit_weight]}")
assert middle_frequency == pred.rows_dict()[unit_weight]

# ----------------------------------------------------------------------
# 4. the class-based distribution packages the same facts
# ----------------------------------------------------------------------
dist = distribution_by_class(dp, samples_per_class=200)
print("\nclass-based distribution:")
for w, f in dist.rows():
    print(f"  weight {w:>7}: frequency {f}")
print(f"matches prediction: {dist.nonzero() == pred.rows_dict()}")
