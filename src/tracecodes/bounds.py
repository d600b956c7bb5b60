"""Griesmer certificates, dual Lee distance, and secret-sharing structure.

Griesmer verdicts use exact integer ceilings only; "optimal" always means
"no code with the same length and dimension and distance d+1 can exist by
the Griesmer inequality" and nothing stronger.

The dual distance rests on a syndrome characterization: a vector y over the
base ring is orthogonal to every codeword exactly when the ring sum of
y_x * x over the coordinate set is zero.  (The coordinatewise trace is
linear over the base ring and nondegenerate, so orthogonality to every
evaluation collapses to one ring equation.)  Weight 1 is impossible
outright because every coordinate is a unit.  Weight 2 is always reached at
coordinate 0: a pair alpha*x + beta*x' has zero syndrome exactly when
x' = lam*x with lam = -beta^-1*alpha, and the first coordinate x always
has such an x' in the coordinate set.  For the lift, alpha and beta with
Gray images (1, 0, 0, 0) and (0, 1, 0, 0) give lam = 1 - u, which keeps
the constant coordinate of x; for the units, alpha = beta gives lam = -1.
So the dual Lee distance is 2 for both variants, and the witness is built
at coordinate 0 instead of searched for.  As x = 1 and lam is in R, it is
computed over a ring.PrimeField, with no field table and no numpy.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterError
from .params import Variant
from .ring import PrimeField, gray_inverse, is_unit, lee_weight, ring_inv

# ---------------------------------------------------------------------------
# Griesmer bound
# ---------------------------------------------------------------------------


def griesmer_sum(k: int, d: int, p: int) -> int:
    """Sum of ceil(d / p^j) for j = 0..k-1, exact integers."""
    if k < 1 or d < 1:
        raise ParameterError("Griesmer sum needs k >= 1 and d >= 1")
    return sum(-(-d // p**j) for j in range(k))


class GriesmerVerdict(NamedTuple):
    n: int
    k: int
    d: int
    p: int
    sum_at_d: int
    sum_at_d_plus_1: int

    @property
    def feasible(self) -> bool:
        """The stated parameters satisfy the bound themselves."""
        return self.sum_at_d <= self.n

    @property
    def optimal(self) -> bool:
        """No code of the same length and dimension exists at distance d+1."""
        return self.feasible and self.sum_at_d_plus_1 > self.n

    @property
    def inconclusive(self) -> bool:
        """Distance d+1 is not refuted by the bound."""
        return self.feasible and self.sum_at_d_plus_1 <= self.n


def griesmer_optimal(n: int, k: int, d: int, p: int) -> GriesmerVerdict:
    return GriesmerVerdict(n=n, k=k, d=d, p=p,
                           sum_at_d=griesmer_sum(k, d, p),
                           sum_at_d_plus_1=griesmer_sum(k, d + 1, p))


def sphere_packing_excludes(n: int, k: int, p: int) -> bool:
    """Whether packing spheres of radius 1 rules out dual distance >= 3.

    For a length-n image code whose dual has p^k codewords less than the
    ambient, distance >= 3 forces p^k >= 1 + n(p-1); returns True when that
    inequality fails.
    """
    return p**k < 1 + n * (p - 1)


# ---------------------------------------------------------------------------
# Dual Lee distance
# ---------------------------------------------------------------------------


class DualDistanceResult(NamedTuple):
    distance: int
    lower_bound: int
    witness: tuple[tuple[int, tuple[int, int, int, int]], ...]
    verified: bool


def dual_lee_distance(dp) -> DualDistanceResult:
    """Exact dual Lee distance, which is 2, with a witness at coordinate 0.

    `dp` is a DerivedParams or an IntegerParams; p, m, q and the variant
    are read.  Weight 1 (and the single-coordinate slice of weight 2) is
    impossible: every coordinate is a unit, and a unit times a unit is a
    unit.  The 4(p-1) Lee-weight-1 values are the s*e_k for the Gray basis
    words e_k and s in F_p*; gray_inverse is F_p-linear, so the constant
    coordinate of s*e_k is s times that of e_k, and checking that the four
    e_k are units certifies all of them.
    The weight-2 witness is the closed form of the module docstring: alpha
    is the Lee-weight-1 value with Gray image (1, 0, 0, 0), beta has Gray
    image (0, 1, 0, 0) for the lift and equals alpha for the units, and
    x' = lam*x with lam = -beta^-1 * alpha and x = 1, coordinate 0.  x' is
    in the stream at xi^0 = 1 or, for the units only, xi^((q-1)/2) = -1,
    and a code c < p sits at lex(c) = c*p^(m-1).  The syndrome
    alpha*x + beta*x' must vanish and the Lee weight must equal 2; each
    failure is an AssertionError.
    """
    p, q = dp.p, dp.q
    base = PrimeField(p)

    # Weight-1 phase: certify emptiness through unit-ness of the Gray basis words.
    for k in range(4):
        if not is_unit(gray_inverse(base, tuple(int(i == k) for i in range(4)))):
            raise AssertionError("a Lee-weight-1 value failed to be a unit")

    alpha = gray_inverse(base, (1, 0, 0, 0))
    beta = alpha if dp.variant is Variant.UNITS else gray_inverse(base, (0, 1, 0, 0))
    lam = -(ring_inv(beta) * alpha)
    starts = {1: 0} if dp.variant is Variant.LIFT else {1: 0, p - 1: (q - 1) // 2}
    if lam.a not in starts:
        raise AssertionError(
            "no Lee-weight-2 dual witness at coordinate 0: a scaling lam = 1 - u "
            "(lift) or lam = -1 (units) should keep it in the coordinate set"
        )
    if alpha + beta * lam or lee_weight(alpha) + lee_weight(beta) != 2:
        raise AssertionError("weight-2 witness failed re-verification")
    index = starts[lam.a]
    for c in lam.coords()[1:]:
        index = index * q + c * p ** (dp.m - 1)
    witness = ((0, alpha.coords()), (index, beta.coords()))
    return DualDistanceResult(distance=2, lower_bound=2,
                              witness=witness, verified=True)


# ---------------------------------------------------------------------------
# Secret sharing structure
# ---------------------------------------------------------------------------


class SssVerdict(NamedTuple):
    w_min: int
    w_max: int
    all_minimal: bool
    classification: str  # "dictatorial" | "undetermined"


def minimality_check(rows: dict[int, int], p: int) -> SssVerdict:
    """Ratio test p*w_min > (p-1)*w_max on the nonzero weights of a
    weight -> frequency map.

    When it passes, every nonzero codeword is minimal and the access
    structure is read off the dual distance, which is 2 for every code here
    (the module docstring's proof): the verdict is "dictatorial" whenever
    the ratio test passes and "undetermined" otherwise.
    """
    weights = [w for w in rows if w != 0]
    if not weights:
        raise ParameterError("empty weight distribution")
    w_min, w_max = min(weights), max(weights)
    all_minimal = p * w_min > (p - 1) * w_max
    return SssVerdict(w_min=w_min, w_max=w_max, all_minimal=all_minimal,
                      classification="dictatorial" if all_minimal else "undetermined")

