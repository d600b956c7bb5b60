"""Brute-force oracles that state paper claims in the tests.

Each one is slow and exists to pin a fast path of the package, named in
its docstring; none of them is called from ``src/``.  The split: oracles
that demos can use too live in the package, in ``tracecodes.oracles``, and
those that only the tests use stay here.
"""

from decimal import ROUND_CEILING, Decimal, localcontext

import numpy as np

from tracecodes import Field, RingElem
from tracecodes.analysis import _weights_serial
from tracecodes.construction import DerivedParams, coord_at
from tracecodes.oracles import big_trace
from tracecodes.ring import gray_inverse, zero as ring_zero


def add_codes(field: Field, a, b) -> np.ndarray:
    """Vectorized addition on arrays of codes, one base-p digit at a time;
    the oracle of scalar addition (Field.add) over whole arrays."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    for i in range(field.m):
        w = field.p**i
        out += (a // w + b // w) % field.p * w
    return out


def zero_trace_counts(field: Field, step: int, count: int) -> np.ndarray:
    """#{j < count : trace(c * xi^(step*j)) = 0} for every code c, as one
    read-only int64 array of length q; entry 0 is `count`, since every
    trace of 0 is 0.  The per-code oracle of DerivedParams.class_counts:
    the lift's base set is (step, count) = (N, n), the units are (1, q - 1).

    With step | q - 1 and count <= (q - 1)/step, write c = xi^(i*step + r),
    r < step: its count sums the zero indicator of trace(xi^k) over
    k = (i + j)*step + r, j < count, a cyclic window of column r of that
    indicator reshaped to rows of `step`.  One cumulative sum down the
    doubled columns gives all q - 1 windows, with no class structure used."""
    rows = field.order // step
    zero = (field.trace_table[field.unit_codes()] == 0).reshape(rows, step)
    sums = np.zeros((2 * rows + 1, step), dtype=np.int64)
    np.cumsum(np.concatenate([zero, zero]), axis=0, out=sums[1:])
    out = np.empty(field.q, dtype=np.int64)
    out[0] = count
    out[field.unit_codes()] = (sums[count:count + rows] - sums[:rows]).ravel()
    out.flags.writeable = False
    return out


def spread_class_counts(dp: DerivedParams) -> np.ndarray:
    """The zero-trace count of every code (length q): the point count at
    code 0, DerivedParams.class_counts[dlog(c) mod N2] at every other c,
    for comparison with zero_trace_counts."""
    field = dp.field
    out = np.empty(field.q, dtype=np.int64)
    out[0] = len(dp.x0_codes())
    out[1:] = dp.class_counts[field.log_table[1:] % dp.N2]
    return out


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over F_p on coefficient lists, constant term
# first: the reference of the companion-matrix arithmetic in field.py.
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    k = len(a)
    while k > 0 and a[k - 1] == 0:
        k -= 1
    return a[:k]


def poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial `mod`, padded to deg(mod)."""
    dm = len(mod) - 1
    a = [x % p for x in a]
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    a = a[:dm]
    return a + [0] * (dm - len(a))


def poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return poly_mod(prod, mod, p)


def poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result, acc = poly_mod([1], mod, p), poly_mod(base, mod, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, acc, mod, p)
        acc = poly_mulmod(acc, acc, mod, p)
        e >>= 1
    return result


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b, by Euclid's algorithm with long division."""
    a, b = _poly_trim([x % p for x in a]), _poly_trim([x % p for x in b])
    while b:
        inv_lead, r = pow(b[-1], -1, p), a
        while len(r) >= len(b):
            c, shift = r[-1] * inv_lead % p, len(r) - len(b)
            r = _poly_trim([(x - c * b[i - shift]) % p if i >= shift else x
                            for i, x in enumerate(r)])
        a, b = b, r
    inv_lead = pow(a[-1], -1, p)
    return [x * inv_lead % p for x in a]


def is_irreducible_by_gcd(poly: list[int], p: int) -> bool:
    """Rabin's test on coefficient lists: x^(p^m) = x mod f, and
    gcd(x^(p^(m/l)) - x, f) = 1 for every prime l dividing m.  The
    reference of field.is_irreducible, which runs it on the companion
    matrix."""
    poly = [c % p for c in poly]
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        return False
    x = poly_mod([0, 1], poly, p)
    if poly_powmod([0, 1], p**m, poly, p) != x:
        return False
    for ell in (ell for ell in range(2, m + 1) if m % ell == 0 and
                all(ell % d for d in range(2, ell))):
        y = poly_powmod([0, 1], p ** (m // ell), poly, p)
        if len(poly_gcd(poly, [(a - b) % p for a, b in zip(y, x)], p)) > 1:
            return False
    return True


def order_is_full_by_powers(poly: list[int], p: int) -> bool:
    """Whether x has order q - 1 modulo the monic `poly`, by powering x to
    every proper divisor of q - 1: the reference of
    field._x_class_order_is_full."""
    q1 = p ** (len(poly) - 1) - 1
    one = poly_mod([1], poly, p)
    return (poly_powmod([0, 1], q1, poly, p) == one
            and all(poly_powmod([0, 1], d, poly, p) != one
                    for d in range(1, q1) if q1 % d == 0))


def cosets_distinct_by_sort(field: Field, N: int, n: int) -> bool:
    """Whether xi^(N*j), j < n, are pairwise inequivalent modulo F_p*, by
    sorting their discrete logs mod (q-1)/(p-1): the oracle of the marked
    check in construction.coset_representatives."""
    residues = np.sort(N * np.arange(n) % ((field.q - 1) // (field.p - 1)))
    return not (residues[1:] == residues[:-1]).any()


def distance_lower_by_decimal(p: int, m: int, n2: int) -> int:
    """Ceiling of 4p^(3m-1) * (q - (N2-1)*sqrt(q)) / N2 in 200-digit
    decimal arithmetic: the oracle of analysis.distance_interval's d_lower."""
    with localcontext() as ctx:
        ctx.prec = 200
        q = Decimal(p) ** m
        bound = 4 * Decimal(p) ** (3 * m - 1) * (q - (n2 - 1) * q.sqrt()) / n2
        return int(bound.to_integral_value(rounding=ROUND_CEILING))


def all_codeword_rows(q: int) -> np.ndarray:
    """Every codeword row (a, b, c, d), a (q^4, 4) int64 array in
    lexicographic order."""
    flat = np.arange(q**4, dtype=np.int64)
    a, rest = np.divmod(flat, q**3)
    b, rest = np.divmod(rest, q**2)
    c, d = np.divmod(rest, q)
    return np.stack([a, b, c, d], axis=1)


def distribution_by_enumeration(dp: DerivedParams) -> dict[int, int]:
    """Weight -> frequency over all q^4 codewords, each row weighed on its
    own by analysis._weights_serial.  The oracle of
    analysis.distribution_exhaustive, which weighs only the q uv-line rows
    and counts the other codewords as one bulk row."""
    weights, counts = np.unique(_weights_serial(dp, all_codeword_rows(dp.q)),
                                return_counts=True)
    return {int(w): int(c) for w, c in zip(weights, counts)}


def orthogonality_direct(dp: DerivedParams, support) -> bool:
    """Direct check against a generating set of codewords: orthogonal to
    every evaluation iff orthogonal to the evaluations of the m field-basis
    elements (base ring coefficients factor out of the trace).  The oracle
    of the one-equation syndrome test (bounds.syndrome) behind
    bounds.dual_lee_distance."""
    field = dp.field
    for i in range(dp.m):
        gen = RingElem(field, field.encode([0] * i + [1]), 0, 0, 0)
        total = ring_zero(field)
        for index, value in support:
            total = total + value * big_trace(gen * coord_at(dp, index))
        if total:
            return False
    return True


def gauss_sum(field: Field, j: int, order: int) -> complex:
    """One Gaussian sum from its definition: the sum over k < q - 1 of
    exp(2*pi*i*(trace(xi^k)/p - j*k/order)), q - 1 fresh complex
    exponentials.  The oracle of field.gauss_sums, which forms the q - 1
    sums of order q - 1 from one FFT; those of `order` are every
    ((q-1)/order)-th of them."""
    ks = np.arange(field.q - 1)
    tr = field.trace_table[field.unit_codes()].astype(np.float64)
    angles = 2 * np.pi * (tr / field.p - (j % order) * ks / order)
    return complex(np.exp(1j * angles).sum())


def lee_one_elements(base_field) -> list[RingElem]:
    """The 4(p-1) base ring elements of Lee weight 1, the Gray preimages of
    s*e_k for s in F_p* and the Gray basis words e_k.  The oracle of the
    weight-1 phase of bounds.dual_lee_distance, which checks only the e_k."""
    p = base_field.p
    out = []
    for slot in range(4):
        for val in range(1, p):
            word = [0, 0, 0, 0]
            word[slot] = val
            out.append(gray_inverse(base_field, tuple(word)))
    return out

