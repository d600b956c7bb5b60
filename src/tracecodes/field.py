"""Finite fields F_{p^m} in polynomial basis, with the character-sum toolkit.

Elements are plain integers ("codes") in [0, p^m): the element whose
coordinate vector in the polynomial basis is (c0, c1, ..., c_{m-1}),
constant term first, has code c0 + c1*p + ... + c_{m-1}*p^(m-1).  All
scalar operations take and return codes; vectorized consumers read the
numpy lookup tables exposed by :class:`Field`.

A Field instance is immutable after construction (lazy caches are built
once and read-only thereafter); every operation is a pure function of its
inputs and safe under concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

#: Discrete logs are table-backed up to this field size, baby-step/giant-step above.
DLOG_TABLE_LIMIT = 2**20

#: Full q*q product tables (needed by the vectorized enumeration engine) are
#: only built up to this q; beyond it exhaustive work is out of desk scale anyway.
COORD_TABLE_LIMIT = 4096

_ADD_TABLE_LIMIT = 1024


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _distinct_prime_factors(n: int) -> list[int]:
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


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over F_p, coefficient lists with constant term
# first.  Only used at construction time; runtime arithmetic goes through
# exp/log tables.
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    k = len(a)
    while k > 0 and a[k - 1] == 0:
        k -= 1
    return a[:k]


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
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


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, mod, p)


def _poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = _poly_mod([1], mod, p)
    acc = _poly_mod(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, mod, p)
        acc = _poly_mulmod(acc, acc, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        # reduce a by b via long division
        r = [x % p for x in a]
        while len(r) >= len(b) and _poly_trim(r):
            r = _poly_trim(r)
            if len(r) < len(b):
                break
            c = (r[-1] * inv_lead) % p
            shift = len(r) - len(b)
            for j in range(len(b)):
                r[shift + j] = (r[shift + j] - c * b[j]) % p
            r = _poly_trim(r)
        a, b = b, r
    a = _poly_trim(a)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = [(x * inv_lead) % p for x in a]
    return a


def _frobenius_iterate(times: int, mod: list[int], p: int) -> list[int]:
    """x^(p^times) reduced modulo `mod`."""
    y = _poly_mod([0, 1], mod, p)
    for _ in range(times):
        y = _poly_powmod(y, p, mod, p)
    return y


def is_irreducible(poly: list[int] | tuple[int, ...], p: int) -> bool:
    """Full irreducibility test for a monic polynomial over F_p.

    Checks x^(p^m) = x mod f together with gcd(x^(p^(m/l)) - x, f) = 1 for
    every prime l dividing m.
    """
    poly = [c % p for c in poly]
    m = len(poly) - 1
    if m < 1 or poly[-1] != 1:
        return False
    if m == 1:
        return True
    x = _poly_mod([0, 1], poly, p)
    if _frobenius_iterate(m, poly, p) != x:
        return False
    for ell in _distinct_prime_factors(m):
        y = _frobenius_iterate(m // ell, poly, p)
        diff = [(yi - xi) % p for yi, xi in zip(y, x)]
        g = _poly_gcd(poly, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def _x_class_order_is_full(poly: list[int], p: int, m: int) -> bool:
    q1 = p**m - 1
    one = _poly_mod([1], poly, p)
    # the class of x must be a unit of full order; x^(q-1) = 1 rules out the
    # degenerate zero class (modulus divisible by x)
    if _poly_powmod([0, 1], q1, poly, p) != one:
        return False
    for ell in _distinct_prime_factors(q1):
        if _poly_powmod([0, 1], q1 // ell, poly, p) == one:
            return False
    return True


def power_exceeds(p: int, m: int, limit: int) -> bool:
    """p**m > limit for p >= 2, without building p**m when m is huge."""
    power = 1
    for _ in range(m):
        power *= p
        if power > limit:
            return True
    return False


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
    root of f has norm (-1)^m * c0, which must generate F_p^*; and for
    m >= 2 a root in F_p makes f reducible."""
    group = p - 1
    generators = {g for g in range(1, p)
                  if all(pow(g, group // ell, p) != 1
                         for ell in _distinct_prime_factors(group))}
    sign = -1 if m % 2 else 1
    for c0 in range(1, p):
        if (sign * c0) % p not in generators:
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
    full irreducibility and order tests, which every other candidate gets,
    so the first modulus found is the same as an unsieved scan's.
    Deterministic, so repeated builds agree bit for bit.
    """
    for poly in _sieved_candidates(p, m):
        if is_irreducible(poly, p) and _x_class_order_is_full(poly, p, m):
            return tuple(poly)
    raise ParameterError(f"no primitive polynomial found for p={p}, m={m}")


class Field:
    """F_{p^m} with a designated primitive element xi.

    When `modulus` is omitted the constructor scans monic degree-m
    polynomials in lexicographic order of their coefficient vectors and
    keeps the first primitive one, so xi is the residue class of the
    indeterminate.  A supplied modulus must be monic, degree m and
    irreducible; if its indeterminate class is not primitive, xi falls back
    to the smallest code of full multiplicative order.

    p must be an odd prime, m >= 1 and p^m at most DLOG_TABLE_LIMIT; all
    three are checked before any modulus search.  For m = 1 the trace is
    the identity and codes coincide with residues mod p.
    """

    def __init__(self, p: int, m: int,
                 modulus: list[int] | tuple[int, ...] | None = None,
                 dlog_table_limit: int = DLOG_TABLE_LIMIT):
        if p == 2:
            raise ParameterError("p must be odd")
        if not _is_prime(p):
            raise ParameterError(f"p = {p} is not prime")
        if m < 1:
            raise ParameterError("extension degree m must be >= 1")
        if power_exceeds(p, m, DLOG_TABLE_LIMIT):
            raise ParameterError(
                f"field size {p}^{m} exceeds the supported table range "
                f"({DLOG_TABLE_LIMIT}); desk-scale parameters only"
            )
        self.p = int(p)
        self.m = int(m)
        self.q = p**m
        self.order = self.q - 1
        self.dlog_table_limit = dlog_table_limit

        if modulus is None:
            self.modulus = first_primitive_modulus(p, m)
            xi_is_x = True
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ParameterError("modulus must be monic of degree m")
            if not is_irreducible(list(modulus), p):
                raise ParameterError("supplied modulus is reducible")
            self.modulus = modulus
            xi_is_x = _x_class_order_is_full(list(modulus), p, m)

        self._pow_weights = tuple(p**i for i in range(m))
        x_class = _poly_mod([0, 1], list(self.modulus), p)
        x_code = self._encode_list(x_class)
        self.xi = x_code if xi_is_x else self._find_primitive_code(x_code)

        # exp/log tables: exp[k] = code of xi^k.  Row i of `step` is the
        # coefficient vector of x^i * xi, so a row vector times `step` is
        # that element times xi; powers come by doubling, about log2(q)
        # matrix products mod p.
        mod = list(self.modulus)
        xi_list = self._decode_list(self.xi)
        step = np.array([_poly_mulmod([0] * i + [1], xi_list, mod, p) for i in range(m)],
                        dtype=np.int64)
        powers = np.zeros((1, m), dtype=np.int64)
        powers[0, 0] = 1
        while len(powers) < self.order:
            more = powers[:self.order - len(powers)] @ step % p
            powers = np.concatenate([powers, more])
            step = step @ step % p
        weights = np.asarray(self._pow_weights, dtype=np.int64)
        self._exp_np = powers @ weights
        self._log_np = np.full(self.q, -1, dtype=np.int64)
        self._log_np[self._exp_np] = np.arange(self.order)
        self._exp = self._exp_np.tolist()
        self._log = self._log_np.tolist()

        codes = np.arange(self.q, dtype=np.int64)
        digits = np.empty((self.q, m), dtype=np.int64)
        for i in range(m):
            digits[:, i] = (codes // p**i) % p
        self._digits_np = digits
        self._neg_np = ((p - digits) % p) @ weights
        self._neg = self._neg_np.tolist()

        # trace table: sum of the Frobenius orbit, which must land in the
        # prime subfield.
        frob = np.zeros(self.q, dtype=np.int64)
        if self.order:
            frob[self._exp_np] = self._exp_np[(np.arange(self.order) * p) % self.order]
        acc = digits.copy()
        cur = codes
        for _ in range(m - 1):
            cur = frob[cur]
            acc += digits[cur]
        acc %= p
        if m > 1 and acc[:, 1:].any():
            raise AssertionError("trace escaped the prime subfield")
        self._frob_np = frob
        self._trace_np = acc[:, 0].astype(np.int8)
        self._trace = self._trace_np.tolist()

        self._add_flat: list[int] | None = None
        if self.q <= _ADD_TABLE_LIMIT:
            sums = (digits[:, None, :] + digits[None, :, :]) % p
            self._add_flat = (sums @ weights).ravel().tolist()

        self._mul_table_np: np.ndarray | None = None
        self._trmul_flat_np: np.ndarray | None = None
        self._lex_codes_np: np.ndarray | None = None
        self._lex_rank_np: np.ndarray | None = None
        self._prime_subfield: Field | None = None

    # -- identification ----------------------------------------------------

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def same_as(self, other: "Field") -> bool:
        return self is other or self == other

    # -- encoding ------------------------------------------------------------

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Coordinate vector of a code, constant term first."""
        p = self.p
        return tuple((code // p**i) % p for i in range(self.m))

    def encode(self, coeffs) -> int:
        return sum((int(c) % self.p) * w for c, w in zip(coeffs, self._pow_weights))

    def _encode_list(self, coeffs: list[int]) -> int:
        return sum(c * w for c, w in zip(coeffs, self._pow_weights))

    def _decode_list(self, code: int) -> list[int]:
        return list(self.coeffs(code))

    def elements(self) -> range:
        return range(self.q)

    def unit_codes(self) -> np.ndarray:
        """All nonzero codes in xi-power order: xi^0, xi^1, ..."""
        return self._exp_np.copy()

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_flat is not None:
            return self._add_flat[a * self.q + b]
        p = self.p
        out = 0
        for w in self._pow_weights:
            out += (((a // w) + (b // w)) % p) * w
        return out

    def add_codes(self, a, b) -> np.ndarray:
        """Vectorized addition on arrays of codes."""
        d = (self._digits_np[np.asarray(a)] + self._digits_np[np.asarray(b)]) % self.p
        return d @ np.asarray(self._pow_weights, dtype=np.int64)

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero is not invertible")
        return self._exp[(-self._log[a]) % self.order]

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ValueError("zero is not invertible")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % self.order]

    def trace(self, a: int) -> int:
        """Absolute trace down to F_p: sum of the m Frobenius conjugates."""
        return self._trace[a]

    def frobenius_code(self, a: int) -> int:
        return int(self._frob_np[a])

    def exp_code(self, k: int) -> int:
        """Code of xi^k."""
        return self._exp[k % self.order] if self.order else 1

    def multiplicative_order(self, a: int) -> int:
        """Order of a nonzero element, computed over the divisors of q - 1."""
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        k = self._log[a]
        return self.order // math.gcd(self.order, k) if self.order else 1

    # -- discrete logarithms ---------------------------------------------------

    def dlog(self, x: int) -> int:
        """Exponent k in [0, q-1) with xi^k = x.

        Table-backed while q stays at or below the configured limit,
        baby-step/giant-step above it.
        """
        if x == 0:
            raise ValueError("discrete log of zero is undefined")
        if self.q <= self.dlog_table_limit:
            return self._log[x]
        return self._dlog_bsgs(x)

    def _dlog_bsgs(self, x: int) -> int:
        n = self.order
        step = math.isqrt(n - 1) + 1
        baby = {}
        cur = 1
        for j in range(step):
            baby.setdefault(cur, j)
            cur = self.mul(cur, self.xi)
        factor = self.inv(self.pow_(self.xi, step))
        cur = x
        for i in range(step + 1):
            if cur in baby:
                return (i * step + baby[cur]) % n
            cur = self.mul(cur, factor)
        raise ValueError("element not in the cyclic group")  # unreachable for valid x

    # -- derived structures ------------------------------------------------

    def prime_subfield(self) -> "Field":
        if self.m == 1:
            return self
        if self._prime_subfield is None:
            self._prime_subfield = Field(self.p, 1)
        return self._prime_subfield

    @property
    def lex_rank(self) -> np.ndarray:
        """Position of each code in the order of `lex_codes`: the code with
        its digits reversed, so the constant term is the most significant."""
        if self._lex_rank_np is None:
            reversed_weights = np.asarray(self._pow_weights[::-1], dtype=np.int64)
            self._lex_rank_np = self._digits_np @ reversed_weights
        return self._lex_rank_np

    @property
    def lex_codes(self) -> np.ndarray:
        """All codes sorted by coefficient vector, constant term compared first."""
        if self._lex_codes_np is None:
            self._lex_codes_np = np.argsort(self.lex_rank)
        return self._lex_codes_np

    @property
    def mul_table(self) -> np.ndarray:
        """Full q*q product table (int32), for vectorized consumers."""
        if self._mul_table_np is None:
            if self.q > COORD_TABLE_LIMIT:
                raise ParameterError(
                    f"product tables need q <= {COORD_TABLE_LIMIT}, got {self.q}"
                )
            q = self.q
            table = np.zeros((q, q), dtype=np.int32)
            if self.order:
                nz = np.arange(1, q)
                lg = self._log_np[nz]
                table[np.ix_(nz, nz)] = self._exp_np[
                    (lg[:, None] + lg[None, :]) % self.order
                ]
            self._mul_table_np = table
        return self._mul_table_np

    @property
    def trmul_flat(self) -> np.ndarray:
        """Flattened q*q table of trace(a*b) (int16); the enumeration kernel."""
        if self._trmul_flat_np is None:
            self._trmul_flat_np = (
                self._trace_np[self.mul_table].astype(np.int16).ravel()
            )
        return self._trmul_flat_np

    @property
    def trace_table(self) -> np.ndarray:
        return self._trace_np

    # -- text record ---------------------------------------------------------

    def modulus_record(self) -> str:
        """Modulus as a comma-separated constant-first coefficient list."""
        return ",".join(str(c) for c in self.modulus)

    def describe(self) -> str:
        return f"p={self.p} m={self.m} modulus={self.modulus_record()}"

    def _find_primitive_code(self, x_code: int) -> int:
        # Bootstrap arithmetic without tables: raw polynomial products.
        mod = list(self.modulus)
        for code in range(2, self.q):
            a = self._decode_list(code)
            order_full = True
            for ell in _distinct_prime_factors(self.order):
                if _poly_powmod(a, self.order // ell, mod, self.p) == _poly_mod([1], mod, self.p):
                    order_full = False
                    break
            if order_full:
                return code
        raise ParameterError("no primitive element found")  # unreachable


def parse_modulus(text: str) -> tuple[int, ...]:
    """Parse a comma-separated constant-first coefficient list."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"bad modulus record {text!r}") from exc


# ---------------------------------------------------------------------------
# Characters and Gaussian sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultChar:
    """Multiplicative character of the given order: the index-j power of the
    canonical character sending xi^k to exp(2*pi*i*j*k/order).

    Undefined at zero.
    """

    field: Field
    order: int
    index: int = 1

    def __post_init__(self):
        if self.order < 1 or (self.field.q - 1) % self.order != 0:
            raise ParameterError(
                f"character order {self.order} does not divide q - 1 = {self.field.q - 1}"
            )

    @property
    def is_trivial(self) -> bool:
        return self.index % self.order == 0

    def __call__(self, x: int) -> complex:
        if x == 0:
            raise ValueError("multiplicative characters are undefined at zero")
        k = self.field.dlog(x)
        return cmath.exp(2j * cmath.pi * self.index * k / self.order)


def gauss_sum(field: Field, j: int, order: int) -> complex:
    """Sum over nonzero x of conj(psi)^j(x) * eta^trace(x), psi of the given order.

    Double-precision complex; downstream integer facts never depend on it,
    it serves as a cross-check at 1e-6 relative tolerance.  The trivial
    character (j = 0 mod order) gives exactly -1.
    """
    if order < 1 or (field.q - 1) % order != 0:
        raise ParameterError(f"character order {order} does not divide q - 1")
    ks = np.arange(field.q - 1)
    tr = field.trace_table[field._exp_np].astype(np.float64)
    angles = 2 * np.pi * (tr / field.p - (j % order) * ks / order)
    return complex(np.exp(1j * angles).sum())


def cyclotomic_class(field: Field, i: int, order: int) -> frozenset[int]:
    """The coset xi^i * <xi^order> inside the multiplicative group."""
    if order < 1 or (field.q - 1) % order != 0:
        raise ParameterError(f"class order {order} does not divide q - 1")
    if not 0 <= i < order:
        raise ParameterError(f"class index {i} outside [0, {order})")
    size = (field.q - 1) // order
    return frozenset(field.exp_code(i + order * k) for k in range(size))


def count_zero_traces(field: Field, b: int, points) -> int:
    """Exact count of points d with trace(b*d) = 0."""
    if b == 0:
        raise ValueError("b must be nonzero")
    tr = field._trace
    mul = field.mul
    return sum(1 for d in points if tr[mul(b, d)] == 0)
