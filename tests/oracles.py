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
from tracecodes.construction import DerivedParams, Variant, coord_at
from tracecodes.modulus import distinct_prime_factors
from tracecodes.oracles import big_trace, syndrome
from tracecodes.ring import gray_inverse, is_unit, lee_weight, ring_inv, zero as ring_zero


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
# first: a second reference of tracecodes.modulus, by powers and gcds of
# whole polynomials.
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
    gcd(x^(p^(m/l)) - x, f) = 1 for every prime l dividing m.  A
    reference of modulus.is_irreducible."""
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
    every proper divisor of q - 1: a reference of modulus.has_full_order."""
    q1 = p ** (len(poly) - 1) - 1
    one = poly_mod([1], poly, p)
    return (poly_powmod([0, 1], q1, poly, p) == one
            and all(poly_powmod([0, 1], d, poly, p) != one
                    for d in range(1, q1) if q1 % d == 0))


# ---------------------------------------------------------------------------
# Arithmetic on matrices of multiplication: an element of F_p[x]/(f) is its
# int64 matrix mod p, row i x^i times it; x's is the companion matrix M of
# f.  The reference of the polynomial arithmetic of tracecodes.modulus.
# ---------------------------------------------------------------------------

def companion(mod, p: int) -> np.ndarray:
    """Matrix of multiplication by x modulo the monic `mod` over F_p: row i
    is x^(i+1) mod f, e_(i+1) above the last row and -(c0, ..., c_{m-1}) in
    it, so a constant-first coefficient row times it is that element times x."""
    comp = np.eye(len(mod) - 1, k=1, dtype=np.int64)
    comp[-1] = [-c % p for c in mod[:-1]]
    return comp


def element_matrix(coeffs, mod, p: int) -> np.ndarray:
    """Matrix of multiplication by sum c_i x^i, the sum of c_i M^i, by
    Horner's rule: row j is x^j times the element.  The reference of
    modulus.multiplication_rows."""
    comp = companion(mod, p)
    eye, mat = np.eye(len(comp), dtype=np.int64), np.zeros_like(comp)
    for c in reversed(coeffs):
        mat = (mat @ comp + c * eye) % p
    return mat


def matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p by square and multiply."""
    out = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ a % p
        a, e = a @ a % p, e >> 1
    return out


def is_invertible(a: np.ndarray, p: int) -> bool:
    """Whether a square matrix is invertible mod the prime p, by Gaussian
    elimination; a row scaled by its pivot, a unit mod p, keeps the rank."""
    a = a % p
    for col in range(len(a)):
        rows = col + np.flatnonzero(a[col:, col])
        if not rows.size:
            return False
        a[[col, rows[0]]] = a[[rows[0], col]]
        a[col + 1:] = (a[col, col] * a[col + 1:] - np.outer(a[col + 1:, col], a[col])) % p
    return True


def is_irreducible_by_matrix(poly: list[int], p: int) -> bool:
    """Rabin's test on the companion matrix M of a monic f: M^(p^m) = M,
    and M^(p^(m/l)) - M, the matrix of x^(p^(m/l)) - x, invertible mod p
    for every prime l dividing m.  The reference of modulus.is_irreducible."""
    poly = [c % p for c in poly]
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        return False
    comp = companion(poly, p)
    if not np.array_equal(matpow(comp, p**m, p), comp):
        return False
    return all(is_invertible(matpow(comp, p ** (m // ell), p) - comp, p)
               for ell in distinct_prime_factors(m))


def order_is_full_by_matrix(poly: list[int], p: int, element=(0, 1)) -> bool:
    """Whether the matrix E of `element` modulo the monic `poly` has
    E^(q-1) = I and E^((q-1)/l) != I for every prime l dividing q - 1.  The
    reference of modulus.has_full_order."""
    m = len(poly) - 1
    q1, eye = p**m - 1, np.eye(m, dtype=np.int64)
    mat = element_matrix(element, poly, p)
    return np.array_equal(matpow(mat, q1, p), eye) and not any(
        np.array_equal(matpow(mat, q1 // ell, p), eye) for ell in distinct_prime_factors(q1))


def basis_traces_by_matrix(mod, p: int) -> list[int]:
    """trace(M^i) mod p for i < m, the trace of multiplication by x^i: the
    reference of modulus.basis_traces."""
    comp = companion(mod, p)
    return [int(np.trace(matpow(comp, i, p)) % p) for i in range(len(comp))]


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


def x0_position(dp: DerivedParams, code: int) -> int:
    """Stream position of a code in dp.x0_codes(), -1 off the set, read off
    the log table: dlog(c) for the units; dlog(c)/N for the lift's
    xi^(N*j), j < n, when N divides dlog(c) and the quotient is below n."""
    if code == 0:
        return -1
    if dp.variant is Variant.UNITS:
        return dp.field.dlog(code)
    j, r = divmod(dp.field.dlog(code), dp.N)
    return j if r == 0 and j < dp.n else -1


def coord_index(dp: DerivedParams, x: RingElem) -> int:
    """Flat stream position of a coordinate element; the inverse of
    construction.coord_at."""
    q = dp.q
    pos0 = x0_position(dp, x.a)
    if pos0 < 0:
        raise ValueError("element is not in the coordinate set")
    lex = dp.field.lex_code  # its own inverse: the position of each code
    return ((pos0 * q + lex(x.b)) * q + lex(x.c)) * q + lex(x.d)


def contains(dp: DerivedParams, x: RingElem) -> bool:
    """Membership test for the coordinate set (O(1): one log-table read)."""
    return is_unit(x) and x0_position(dp, x.a) >= 0


def dual_witness_holds(dp: DerivedParams, witness) -> bool:
    """The F_q re-check of a witness of bounds.dual_lee_distance, which
    builds it over F_p from integer positions: its first coordinate is
    coordinate 0; x' = -beta^-1 * alpha * x lies in the coordinate set, at
    the witness's second position; the syndrome vanishes; and the Lee
    weights sum to 2."""
    (i0, a), (i1, b) = witness
    alpha, beta = RingElem(dp.field, *a), RingElem(dp.field, *b)
    x_prime = -(ring_inv(beta) * alpha) * coord_at(dp, 0)
    support = ((i0, alpha), (i1, beta))
    return (i0 == 0 and contains(dp, x_prime) and coord_index(dp, x_prime) == i1
            and not syndrome(dp, support) and lee_weight(alpha) + lee_weight(beta) == 2)


def orthogonality_direct(dp: DerivedParams, support) -> bool:
    """Direct check against a generating set of codewords: orthogonal to
    every evaluation iff orthogonal to the evaluations of the m field-basis
    elements (base ring coefficients factor out of the trace).  The oracle
    of the one-equation syndrome test (syndrome) behind
    bounds.dual_lee_distance."""
    field = dp.field
    for i in range(dp.m):
        gen = RingElem(field, field.p**i, 0, 0, 0)
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

