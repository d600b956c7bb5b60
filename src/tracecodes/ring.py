"""The nilpotent local alphabet ring and its degree-m extension.

The alphabet is R = F_p + uF_p + vF_p + uvF_p with u^2 = v^2 = 0 and
uv = vu; evaluation points live in the extension with F_{p^m} coordinates.
Both are covered by one element type: four field codes (a, b, c, d)
standing for a + b*u + c*v + d*uv over a shared :class:`~tracecodes.field.Field`.
R is the subring of base ring elements, coordinates in F_p (the codes below p);
over a PrimeField, F_p with no table, the same rules compute in R and no numpy loads.

Coordinate i is the monomial with bitmask i (1, u, v, uv), so the product
and the Gray map are subset rules, written once as SUBSETS and GRAY and
read by every other module; the Gray map (d, c+d, b+d, a+b+c+d) is the
Kronecker square of the F_p + uF_p map a + bu -> (b, a + b) (Shi, Wu, Liu
and Sole, Cryptogr. Commun. 9, 2017), and SLOT_TERMS is both rules at once.

The unit group is exactly {a != 0}; the unique maximal ideal is {a = 0},
which splits into the line F_q*.uv and the rest.  The Lee weight of a
symbol is the Hamming weight of its Gray image.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, NamedTuple

from .errors import ParameterError

if TYPE_CHECKING:
    from .field import Field

#: SUBSETS[s]: the subsets t of s; (r*x)_s sums r_(s^t) * x_t over them.
SUBSETS = tuple(tuple(t for t in range(4) if t & s == t) for s in range(4))
#: GRAY[k]: the coordinates that Gray slot k sums, those i with i | k = 3.
GRAY = tuple(tuple(i for i in range(4) if i | k == 3) for k in range(4))
#: SLOT_TERMS[t][k]: the j whose Tr(r_j * x_t) axis x_t adds to Gray slot k of Tr(r*x).
SLOT_TERMS = tuple(tuple(tuple(j for j in range(4) if j & t == 0 and j | t | k == 3)
                         for k in range(4)) for t in range(4))


class PrimeField(NamedTuple):
    """F_p, the codes below p of any Field, with the operations RingElem reads."""

    p: int

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)


class RingElem(NamedTuple):
    """a + b*u + c*v + d*uv with coordinates in the attached field.

    Value semantics; arithmetic never mutates.  k * r refuses any left
    operand that is not a ring element, the tuple repetition included.
    """

    field: Field | PrimeField
    a: int
    b: int
    c: int
    d: int

    def coords(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "RingElem") -> "RingElem":
        f = self.field
        _check_same_field(f, other.field)
        return RingElem(f, f.add(self.a, other.a), f.add(self.b, other.b),
                        f.add(self.c, other.c), f.add(self.d, other.d))

    def __neg__(self) -> "RingElem":
        f = self.field
        return RingElem(f, f.neg(self.a), f.neg(self.b), f.neg(self.c), f.neg(self.d))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        f = self.field
        _check_same_field(f, other.field)
        r, x = self.coords(), other.coords()
        return RingElem(f, *(reduce(f.add, (f.mul(r[s ^ t], x[t]) for t in SUBSETS[s]))
                             for s in range(4)))

    def __rmul__(self, other):
        raise TypeError(f"unsupported operand type(s) for *: "
                        f"'{type(other).__name__}' and 'RingElem'")

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def __str__(self) -> str:
        f = self.field
        parts = [str(f.coeffs(self.a)),
                 f"{f.coeffs(self.b)}*u",
                 f"{f.coeffs(self.c)}*v",
                 f"{f.coeffs(self.d)}*uv"]
        return " + ".join(parts)


def _check_same_field(f: Field, g: Field) -> None:
    if f != g:
        raise ParameterError("ring elements live over different fields")


def zero(field: Field) -> RingElem:
    return RingElem(field, 0, 0, 0, 0)


def is_unit(r: RingElem) -> bool:
    return r.a != 0


def ring_inv(r: RingElem) -> RingElem:
    """Inverse of a unit, the triangular solve of r*y = 1 by SUBSETS:
    y_0 = a^-1 and y_s = -a^-1 * (sum of r_(s^t) * y_t over t < s in SUBSETS[s])."""
    if not is_unit(r):
        raise ValueError("element is not a unit")
    f, coords = r.field, r.coords()
    ai = f.inv(r.a)
    y = [ai, 0, 0, 0]
    for s in range(1, 4):  # every proper subset of s is below s
        terms = (f.mul(coords[s ^ t], y[t]) for t in SUBSETS[s] if t != s)
        y[s] = f.neg(f.mul(ai, reduce(f.add, terms)))
    return RingElem(f, *y)


def gray(r: RingElem) -> tuple[int, int, int, int]:
    """Gray image of a base ring element: slot k sums the coordinates in GRAY[k]."""
    p, coords = r.field.p, r.coords()
    if max(coords) >= p:
        raise ValueError("the Gray map applies to base ring elements, coordinates in F_p")
    return tuple(sum(coords[i] for i in slots) % p for slots in GRAY)


def gray_inverse(field: Field, word: tuple[int, int, int, int]) -> RingElem:
    """Preimage of a 4-tuple under the Gray map, a base ring element over `field`:
    word[3 - t] sums the coordinates over the supersets of t, so by Moebius
    inversion r_s is the sum of (-1)^|t - s| * word[3 - t] over t with s in SUBSETS[t]."""
    return RingElem(field, *(sum((-1) ** (t ^ s).bit_count() * word[3 - t]
                                 for t in range(4) if s in SUBSETS[t]) % field.p
                             for s in range(4)))


def lee_weight(r: RingElem) -> int:
    """Hamming weight of the Gray image; an integer in [0, 4]."""
    return sum(1 for s in gray(r) if s)
