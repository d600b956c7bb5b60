"""The integer parameters of a code (construction.DerivedParams), formulas
in (p, m, N) that read no field table.  This module imports no numpy, so
``dual`` derives them before the engine loads; derive_params calls it too.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .limits import check_codeword_count_guard, check_divisor, check_field_params
from .modulus import multiplicative_order


class Variant(enum.Enum):
    LIFT = "lift"
    UNITS = "units"


class IntegerParams(NamedTuple):
    p: int
    m: int
    N: int
    variant: Variant
    N1: int
    N2: int
    n: int
    length: int
    gray_length: int
    dimension: int
    note: str

    @property
    def q(self) -> int:
        return self.p**self.m


def integer_params(p: int, m: int, N: int, variant: Variant) -> IntegerParams:
    """The integer parameters at (p, m, N), after the checks Field and
    derive_params make: a buildable F_q, N | q - 1 and the 64-bit guard."""
    check_field_params(p, m)
    check_divisor(p, m, N)
    check_codeword_count_guard(p, m)
    q = p**m
    k = (q - 1) // (p - 1)
    N1, N2 = math.lcm(N, k), math.gcd(N, k)
    n = N1 // N
    if variant is Variant.UNITS:
        length, dimension = (q - 1) * q**3, 4 * m
        note = "units variant: the coordinate set is the full unit group and N is ignored"
    else:
        length, dimension = n * q**3, 3 * m + multiplicative_order(p, (q - 1) // N2)
        note = ""
    return IntegerParams(p, m, N, variant, N1, N2, n, length, 4 * length, dimension, note)
