#!/usr/bin/env python3
"""Gaussian sums, cyclotomic classes and the zero-trace counting formula.

The weight formulas rest on one identity: p times the number of base-set
points with trace(b*d) = 0 expands into a short sum of Gaussian sums
weighted by multiplicative character values.  The count depends on b only
through its class dlog(b) mod N2, so the code keeps N2 counts.  This demo
prints them, evaluates both sides independently at (5, 2, N = 3) and runs
the full identity suite.
"""

import math

from tracecodes import (
    CodeParams,
    Field,
    derive_params,
    gauss_sums,
    verify_identities,
)
from tracecodes.oracles import MultChar, cyclotomic_class

field = Field(5, 2)
dp = derive_params(CodeParams(field, 3))
print(f"field: p={field.p} m={field.m} modulus={','.join(map(str, field.modulus))}")
print(f"N = 3 splits the units into cyclotomic classes of order N2 = {dp.N2}")

# ----------------------------------------------------------------------
# 1. cyclotomic classes partition the unit group
# ----------------------------------------------------------------------
for i in range(dp.N2):
    cls = cyclotomic_class(field, i, dp.N2)
    print(f"  class {i}: {len(cls)} elements")

# ----------------------------------------------------------------------
# 2. Gaussian sums of the order-N2 character
# ----------------------------------------------------------------------
print("\nGaussian sums, all N2 of them from one FFT (the trivial index gives -1):")
gsums = gauss_sums(field)[::(field.q - 1) // dp.N2]  # psi^((q-1)/N2) has order N2
for j, g in enumerate(gsums):
    print(f"  j = {j}: {g:.6f}   |G| = {abs(g):.6f}"
          f"   sqrt(q) = {math.sqrt(field.q):.6f}")

# ----------------------------------------------------------------------
# 3. the counting formula: p*N(b) = n + (1/N2) sum_j G_j phi^j(b)
# ----------------------------------------------------------------------
phi = MultChar(field, order=dp.N2)
print("\nzero-trace counts of the N2 classes (b = xi^r, r = dlog(b) mod N2):")
for r, count in enumerate(dp.class_counts.tolist()):
    print(f"  class {r}: {count} of the n = {dp.n} base-set points have trace(b*d) = 0")
print("\nthe count of b is its class's, against the character expansion:")
for b in [1, field.xi, field.exp_code(2), field.exp_code(3)]:
    count = int(dp.class_counts[field.dlog(b) % dp.N2])
    rhs = dp.n + sum(gsums[j] * phi(b) ** j for j in range(dp.N2)) / dp.N2
    print(f"  b = xi^{field.dlog(b)}: count = {count}, "
          f"expansion/p = {rhs.real / field.p:.6f}, "
          f"residual = {abs(field.p * count - rhs):.2e}")

# ----------------------------------------------------------------------
# 4. the full identity suite
# ----------------------------------------------------------------------
report = verify_identities(dp, trials=50)
print(f"\nidentity suite over {report.trials} trials, tolerance {report.tolerance}:")
for name, value in sorted(report.residuals.items()):
    print(f"  {name:<40} max residual {value:.2e}")
print(f"all identities hold: {report.ok}")
