"""The nilpotent local alphabet ring and its degree-m extension.

The alphabet is R = F_p + uF_p + vF_p + uvF_p with u^2 = v^2 = 0 and
uv = vu; evaluation points live in the extension with F_{p^m} coordinates.
Both are covered by one element type: four field codes (a, b, c, d)
standing for a + b*u + c*v + d*uv over a shared :class:`~tracecodes.field.Field`.
R is the subring of base ring elements, coordinates in F_p (the codes below p).

The unit group is exactly {a != 0}; the unique maximal ideal is {a = 0},
which splits into the line F_q*.uv and the rest.  The Gray map sends a base
ring element a + b*u + c*v + d*uv to (d, c+d, b+d, a+b+c+d) in F_p^4, and
the Lee weight of a symbol is the Hamming weight of its Gray image.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .field import Field


@dataclass(frozen=True, slots=True)
class RingElem:
    """a + b*u + c*v + d*uv with coordinates in the attached field.

    Value semantics; arithmetic never mutates.
    """

    field: Field
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
        # (a1 + b1 u + c1 v + d1 uv)(a2 + ...) with u^2 = v^2 = 0, uv = vu:
        # the cross terms that survive are a1*?, ?*a2 and b*c mixes into uv.
        f = self.field
        _check_same_field(f, other.field)
        mul, add = f.mul, f.add
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        a = mul(a1, a2)
        b = add(mul(a1, b2), mul(b1, a2))
        c = add(mul(a1, c2), mul(c1, a2))
        d = add(add(mul(a1, d2), mul(b1, c2)),
                add(mul(c1, b2), mul(d1, a2)))
        return RingElem(f, a, b, c, d)

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
    """Inverse of a unit via the nilpotent expansion.

    With r = a + n, n nilpotent of degree <= 3, the inverse is
    a^-1 (1 - t + t^2) where t = a^-1 n and t^3 = 0.
    """
    if not is_unit(r):
        raise ValueError("element is not a unit")
    f = r.field
    ai = f.inv(r.a)
    tb, tc, td = f.mul(ai, r.b), f.mul(ai, r.c), f.mul(ai, r.d)
    # t^2 = 2*tb*tc * uv
    t2d = f.mul(f.mul(tb, tc), 2 % f.p)
    return RingElem(
        f,
        ai,
        f.mul(ai, f.neg(tb)),
        f.mul(ai, f.neg(tc)),
        f.mul(ai, f.sub(t2d, td)),
    )


def gray(r: RingElem) -> tuple[int, int, int, int]:
    """Gray image (d, c+d, b+d, a+b+c+d) of a base ring element."""
    p = r.field.p
    a, b, c, d = r.a, r.b, r.c, r.d
    if max(a, b, c, d) >= p:
        raise ValueError("the Gray map applies to base ring elements, coordinates in F_p")
    return (d % p, (c + d) % p, (b + d) % p, (a + b + c + d) % p)


def gray_inverse(field: Field, word: tuple[int, int, int, int]) -> RingElem:
    """Preimage of a 4-tuple under the Gray map, a base ring element over `field`."""
    p = field.p
    g1, g2, g3, g4 = (x % p for x in word)
    d = g1
    c = (g2 - g1) % p
    b = (g3 - g1) % p
    a = (g4 - g2 - g3 + g1) % p
    return RingElem(field, a, b, c, d)


def lee_weight(r: RingElem) -> int:
    """Hamming weight of the Gray image; an integer in [0, 4]."""
    return sum(1 for s in gray(r) if s)

