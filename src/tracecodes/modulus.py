"""The modulus f of F_{p^m} and its facts, by polynomial arithmetic mod f.

An element of F_p[x]/(f) is its list of m coefficients mod p, constant
term first.  The search, the order test, Rabin's test (SIAM J. Comput. 9,
1980; Lidl & Niederreiter, Ch. 3), the basis traces and the matrix that
starts a Field's table build run on these lists, with no table and no
numpy, so ``dual`` reads its modulus before the engine loads.  Powers go
left to right; a multiplication by x, the usual base, is a shift.
"""

from __future__ import annotations

from .errors import ParameterError


def distinct_prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Smallest e >= 1 with a^e = 1 modulo n, for a coprime to n."""
    e, power = 1, a % n
    while power != 1 % n:
        e, power = e + 1, power * a % n
    return e


def _times_x(a: list[int], mod, p: int) -> list[int]:
    """x*a mod the monic `mod`: a shift, then x^m = -(c0 + ... + c_{m-1} x^(m-1))."""
    top = a[-1]
    return [(lo - top * c) % p for lo, c in zip([0, *a[:-1]], mod)]


def _mulmod(a: list[int], b: list[int], mod, p: int) -> list[int]:
    """a*b mod the monic `mod`, the high coefficients reduced top down."""
    m = len(mod) - 1
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                prod[k] += ai * bj
    for i in range(2 * m - 2, m - 1, -1):
        top = prod[i] % p
        if top:  # less top * x^(i-m) * f, whose last term leaves p | prod[i]
            for k, c in enumerate(mod, i - m):
                prod[k] -= top * c
    return [c % p for c in prod[:m]]


def _power(e: int, mod, p: int, base=None) -> list[int]:
    """base^e mod the monic `mod` (base x when None) by left-to-right
    square and multiply."""
    out = [1] + [0] * (len(mod) - 2)
    for bit in bin(e)[2:]:
        out = _mulmod(out, out, mod, p)
        if bit == "1":
            out = _times_x(out, mod, p) if base is None else _mulmod(out, base, mod, p)
    return out


def is_irreducible(poly: list[int] | tuple[int, ...], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial f over F_p:
    x^(p^m) = x mod f, and gcd(x^(p^(m/l)) - x, f) = 1 for every prime l
    dividing m.  Once the first holds, F_p[x]/(f) is a product of fields
    F_(p^d), d | m, so g is coprime to f, a unit, exactly when g^(q-1) = 1."""
    poly = [c % p for c in poly]
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        return False
    one = [1] + [0] * (m - 1)
    x = _times_x(one, poly, p)
    if _power(p**m, poly, p) != x:
        return False
    return all(_power(p**m - 1, poly, p, [(y - z) % p for y, z in zip(
        _power(p ** (m // ell), poly, p), x)]) == one for ell in distinct_prime_factors(m))


def has_full_order(poly: list[int] | tuple[int, ...], p: int, m: int, element=None) -> bool:
    """Whether the class of `element` (m coefficients, default x) modulo
    the monic degree-m `poly` has order q - 1: its (q-1)-th power is 1 and
    no (q-1)/l-th power is, for a prime l | q - 1.  Then poly is
    irreducible: a quotient ring that is not a field has fewer than q - 1
    units, so no element of order q - 1."""
    q1, one = p**m - 1, [1] + [0] * (m - 1)
    return _power(q1, poly, p, element) == one and not any(
        _power(q1 // ell, poly, p, element) == one for ell in distinct_prime_factors(q1))


def basis_traces(mod: list[int] | tuple[int, ...], p: int) -> list[int]:
    """trace(x^i) for i < m: the field trace of an element is the trace of
    its multiplication map (Lidl & Niederreiter, Ch. 2)."""
    powers = multiplication_rows([1] + [0] * (len(mod) - 2), mod, p)
    return [sum(row[j] for j, row in enumerate(multiplication_rows(power, mod, p))) % p
            for power in powers]


def multiplication_rows(element, mod: list[int] | tuple[int, ...], p: int) -> list[list[int]]:
    """Matrix of multiplication by `element` (m constant-first
    coefficients) mod f: row j is x^j times it, so a coefficient row times
    the matrix is that element times `element`."""
    rows = [[c % p for c in element]]
    for _ in range(len(mod) - 2):
        rows.append(_times_x(rows[-1], mod, p))
    return rows


def _has_root(poly: list[int], p: int) -> bool:
    """Whether the constant-first polynomial vanishes at some nonzero residue."""
    for a in range(1, p):
        value = 0
        for c in reversed(poly):
            value = (value * a + c) % p
        if value == 0:
            return True
    return False


def _sieved_candidates(p: int, m: int):
    """Monic degree-m polynomials in search order, minus those that fail a
    cheap necessary condition for primitivity: x divides f when c0 = 0; a
    root of f has norm (-1)^m * c0, which must generate F_p^* (tested on
    the one factorization of p - 1); and for m >= 2 a root in F_p makes f
    reducible."""
    group, sign = p - 1, -1 if m % 2 else 1
    factors = distinct_prime_factors(group)
    for c0 in range(1, p):
        if any(pow(sign * c0 % p, group // ell, p) == 1 for ell in factors):
            continue
        for rest in range(p ** (m - 1)):
            poly = [c0] + [(rest // p ** (m - 1 - i)) % p for i in range(1, m)] + [1]
            if m >= 2 and _has_root(poly, p):
                continue
            yield poly


def first_primitive_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically first monic degree-m primitive polynomial over F_p.

    Candidates are ordered by their non-leading coefficient vector
    (c0, ..., c_{m-1}), constant term compared first.  Candidates that fail
    a necessary condition (c0 = 0; (-1)^m * c0, the norm of a root, not a
    primitive root mod p; for m >= 2 a root in F_p) are skipped before the
    order test, which every other candidate gets, so the first modulus
    found is the same as an unsieved scan's.  A full order of x implies
    irreducibility (has_full_order), so no separate irreducibility test
    runs.  Deterministic, so repeated builds agree bit for bit.
    """
    for poly in _sieved_candidates(p, m):
        if has_full_order(poly, p, m):
            return tuple(poly)
    raise ParameterError(f"no primitive polynomial found for p={p}, m={m}")


def field_modulus(p: int, m: int, modulus=None) -> tuple[int, ...]:
    """The modulus of F_{p^m}: the first primitive one when none is
    supplied, else the supplied one reduced mod p, refused unless it is
    monic of degree m and irreducible."""
    if modulus is None:
        return first_primitive_modulus(p, m)
    modulus = tuple(int(c) % p for c in modulus)
    if len(modulus) != m + 1 or modulus[-1] != 1:
        raise ParameterError("modulus must be monic of degree m")
    if not is_irreducible(modulus, p):
        raise ParameterError("supplied modulus is reducible")
    return modulus
