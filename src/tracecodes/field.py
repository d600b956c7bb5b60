"""Finite fields F_{p^m} in polynomial basis, with the character-sum toolkit.

Elements are plain integers ("codes") in [0, p^m): the element whose
coordinate vector in the polynomial basis is (c0, c1, ..., c_{m-1}),
constant term first, has code c0 + c1*p + ... + c_{m-1}*p^(m-1).  All
scalar operations take and return codes; vectorized consumers read the
numpy lookup tables exposed by :class:`Field`.

A Field keeps three q-sized tables, all read-only: exp (int64, code of
xi^k for k < q - 1), log (int64, -1 at code 0) and trace (int32).  That is
20 bytes per element; no q x m digit table and no Python-list copy is
kept.  A build peaks at the three tables and one block in a narrow buffer:
its digit rows, at most half of q and only those a later doubling pass
reads, are freed before the log table is made.  Scalar operations index
memoryviews of the exp and log tables, which return Python ints and hold
no second copy; a trace is trace_table[a].  Negation comes from the same
two tables: -1 = xi^((q-1)/2), so -a = xi^(log a + (q-1)/2).  Addition
and lex_code work on the base-p digits of the codes, computed when needed.

A Field instance is immutable after construction (lazy caches are built
once and read-only thereafter); every operation is a pure function of its
inputs and safe under concurrent use.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError
from .limits import check_field_params

#: The test oracles' full q*q product tables (mul_table, trmul_flat) are
#: only built up to this q; no computation in the package reads them, and
#: bench/tracer.py binds them by name.
COORD_TABLE_LIMIT = 4096

#: Exponents per block of the table build: its products, log fill and checks.
_BUILD_ROWS = 2**12

#: Rows per int64 code product inside a build block.
_WEIGHT_ROWS = 2**10


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


def multiplicative_order(a: int, n: int) -> int:
    """Smallest e >= 1 with a^e = 1 modulo n, for a coprime to n."""
    e, power = 1, a % n
    while power != 1 % n:
        e, power = e + 1, power * a % n
    return e


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


def _x_class_order_is_full(poly: list[int], p: int, m: int, element=(0, 1)) -> bool:
    """Whether the class of `element` (default x) modulo the monic degree-m
    `poly` has multiplicative order q - 1.  x^(q-1) = 1 rules out a class
    that is no unit (a modulus divisible by x).  When it holds, poly is
    irreducible: a quotient ring that is not a field has fewer than q - 1
    units, so no element of order q - 1."""
    q1 = p**m - 1
    one = _poly_mod([1], poly, p)
    if _poly_powmod(element, q1, poly, p) != one:
        return False
    return all(_poly_powmod(element, q1 // ell, poly, p) != one
               for ell in _distinct_prime_factors(q1))


def _basis_traces(mod: list[int], p: int) -> np.ndarray:
    """trace(x^i) for i < m (int64), the i-th power sum P_i of the roots of
    the irreducible `mod`, the Frobenius conjugates of x.  Newton's
    identities give P_0 = m, P_i = -(i*c_{m-i} + sum_{0<j<i} c_{m-j}*P_{i-j})
    from the coefficients c_j of x^j (Lidl & Niederreiter, Thm. 1.75)."""
    m = len(mod) - 1
    sums = [m % p]
    for i in range(1, m):
        total = i * mod[m - i] + sum(mod[m - j] * sums[i - j] for j in range(1, i))
        sums.append(-total % p)
    return np.array(sums, dtype=np.int64)


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
    factors = _distinct_prime_factors(group)
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
    irreducibility (_x_class_order_is_full), so no separate irreducibility
    test runs.  Deterministic, so repeated builds agree bit for bit.
    """
    for poly in _sieved_candidates(p, m):
        if _x_class_order_is_full(poly, p, m):
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

    p must be an odd prime, m >= 1 and p^m at most DLOG_TABLE_LIMIT, all
    checked by limits.check_field_params before any modulus search.  The
    codes below p, the constant polynomials, are F_p and coincide with the
    residues mod p; for m = 1 they are all codes and the trace is the
    identity.

    The build peaks at the kept tables and one block of products in one
    narrow buffer.  The powers of xi are filled by doubling; only the digit
    rows a later pass reads are kept, in the narrowest dtype that holds
    p - 1, and they are freed before the log table is made.  The trace,
    F_p-linear, is each row times the traces of the basis x^i (Newton's
    identities), written straight into the code-indexed table.  The log
    table and two whole-table checks, the powers of xi are every nonzero
    code once and the trace is constant on Frobenius orbits, run a block at
    a time.
    """

    def __init__(self, p: int, m: int,
                 modulus: list[int] | tuple[int, ...] | None = None):
        check_field_params(p, m)
        self.p = int(p)
        self.m = int(m)
        self.q = p**m
        self.order = self.q - 1

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
        self.xi = self.encode(x_class) if xi_is_x else self._find_primitive_code()

        # exp table: row k of `digits` is the coefficient vector of xi^k.
        # Rows [0, L) times `step`, the matrix of multiplication by xi^L,
        # give rows [L, 2L): about log2(q) doubling passes, each in blocks of
        # _BUILD_ROWS rows multiplied into one buffer of the narrowest signed
        # dtype that holds m*(p-1)^2.  The pass from L reads the rows below
        # min(L, order - L), so only the rows below the largest of these are
        # kept, in the narrowest dtype that holds p - 1.  The trace is
        # F_p-linear: the trace of xi^k, its row times the basis traces in the
        # buffer's dtype, goes straight into the code-indexed table (widened
        # to int32 first: a scatter that casts is slower).  The int64 codes
        # are formed _WEIGHT_ROWS rows at a time, so the int64 copy of the
        # block numpy makes for them stays small.
        mod = list(self.modulus)
        buffer = np.empty((_BUILD_ROWS, m), dtype=np.min_scalar_type(-1 - m * (p - 1) ** 2))
        step = np.array([_poly_mulmod([0] * i + [1], self.coeffs(self.xi), mod, p)
                         for i in range(m)],
                        dtype=buffer.dtype)
        weights = np.asarray(self._pow_weights, dtype=np.int64)
        basis_traces = _basis_traces(mod, p).astype(buffer.dtype)
        passes = [2**i for i in range((self.order - 1).bit_length())]
        read = max(min(filled, self.order - filled) for filled in passes)
        digits = np.zeros((read, m), dtype=np.min_scalar_type(p - 1))
        digits[0, 0] = 1
        exp = np.empty(self.order, dtype=np.int64)
        exp[0] = 1
        trace = np.zeros(self.q, dtype=np.int32)
        trace[1] = basis_traces[0]
        for filled in passes:
            count = min(filled, self.order - filled)
            for lo in range(0, count, _BUILD_ROWS):
                hi = min(lo + _BUILD_ROWS, count)
                block = np.matmul(digits[lo:hi], step, out=buffer[:hi - lo])
                np.remainder(block, p, out=block)
                digits[filled + lo:filled + hi] = block[:max(0, read - filled - lo)]
                codes = exp[filled + lo:filled + hi]
                for sub in range(0, hi - lo, _WEIGHT_ROWS):
                    codes[sub:sub + _WEIGHT_ROWS] = block[sub:sub + _WEIGHT_ROWS] @ weights
                trace[codes] = (block @ basis_traces % p).astype(np.int32)
            step = step @ step % p
        del digits, block, buffer

        # the trace is constant on Frobenius orbits, frob(xi^k) = xi^(kp),
        # checked a block at a time (vacuous at m = 1, where kp = k mod q - 1).
        # As q - 1 = -1 mod p, the k from ceil(j(q-1)/p) to ceil((j+1)(q-1)/p)
        # have kp mod q - 1 = j, j + p, j + 2p, ...: their images are exp[j::p]
        for j in range(p if m > 1 else 0):
            frob = exp[j::p]
            start = -(-j * self.order // p)
            own = exp[start:start + len(frob)]
            for lo in range(0, len(frob), _BUILD_ROWS):
                b = slice(lo, lo + _BUILD_ROWS)
                if (trace[frob[b]] != trace[own[b]]).any():
                    raise AssertionError("trace is not constant on Frobenius orbits")

        # log, a block of exponents at a time, with the check that xi^k runs
        # through every nonzero code once (log -1 at 0 alone)
        blocks = [slice(lo, lo + _BUILD_ROWS) for lo in range(0, self.order, _BUILD_ROWS)]
        log = np.full(self.q, -1, dtype=np.int64)
        for b in blocks:
            log[exp[b]] = np.arange(*b.indices(self.order))
        if log[0] != -1 or any((log[1:][b] < 0).any() for b in blocks):
            raise AssertionError("the powers of xi are not the nonzero codes")

        for table in (exp, log, trace):
            table.flags.writeable = False
        self._exp_np, self._log_np, self._trace_np = exp, log, trace
        # scalar lookups read memoryviews: Python ints, no second copy
        self._exp, self._log = memoryview(exp), memoryview(log)

        self._mul_table_np: np.ndarray | None = None
        self._trmul_flat_np: np.ndarray | None = None

    # -- identification ----------------------------------------------------

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- encoding ------------------------------------------------------------

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Coordinate vector of a code, constant term first."""
        p = self.p
        return tuple((code // p**i) % p for i in range(self.m))

    def encode(self, coeffs) -> int:
        return sum((int(c) % self.p) * w for c, w in zip(coeffs, self._pow_weights))

    def unit_codes(self) -> np.ndarray:
        """All nonzero codes in xi-power order: xi^0, xi^1, ... (a read-only view)."""
        return self._exp_np.view()

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b, one base-p digit at a time; no addition table is built."""
        p = self.p
        out = 0
        for w in self._pow_weights:
            out += (((a // w) + (b // w)) % p) * w
        return out

    def neg(self, a: int) -> int:
        """-a = xi^(log a + (q-1)/2), since -1 = xi^((q-1)/2)."""
        if a == 0:
            return 0
        return self._exp[(self._log[a] + self.order // 2) % self.order]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero is not invertible")
        return self._exp[(-self._log[a]) % self.order]

    def exp_code(self, k: int) -> int:
        """Code of xi^k."""
        return self._exp[k % self.order]

    # -- discrete logarithms ---------------------------------------------------

    def dlog(self, x: int) -> int:
        """Exponent k in [0, q-1) with xi^k = x, read from the log table."""
        if x == 0:
            raise ValueError("discrete log of zero is undefined")
        return self._log[x]

    # -- derived structures ------------------------------------------------

    def lex_code(self, i):
        """Code at position i (an int or an int64 array) of the codes sorted by
        coefficient vector, constant term first: i with its m base-p digits
        reversed, an involution, so also each code's position in the order."""
        code = 0
        for _ in range(self.m):
            code, i = code * self.p + i % self.p, i // self.p
        return code

    @property
    def mul_table(self) -> np.ndarray:
        """Full q*q product table (int32), a table of the test oracles that
        bench/tracer.py binds by name; refused past COORD_TABLE_LIMIT.  Rows
        are filled through `products` about 2^16 entries at a time, so the
        int64 temporaries stay small next to the table."""
        if self._mul_table_np is None:
            if self.q > COORD_TABLE_LIMIT:
                raise ParameterError(
                    f"product tables need q <= {COORD_TABLE_LIMIT}, got {self.q}")
            codes = np.arange(self.q)
            table = np.empty((self.q, self.q), dtype=np.int32)
            step = max(1, 2**16 // self.q)
            for lo in range(0, self.q, step):
                table[lo:lo + step] = self.products(codes[lo:lo + step, None], codes)
            self._mul_table_np = table
        return self._mul_table_np

    @property
    def trmul_flat(self) -> np.ndarray:
        """Flattened q*q table of trace(a*b) (int16), a table of the test
        oracles that bench/tracer.py binds by name."""
        if self._trmul_flat_np is None:
            self._trmul_flat_np = (
                self._trace_np[self.mul_table].astype(np.int16).ravel()
            )
        return self._trmul_flat_np

    @property
    def trace_table(self) -> np.ndarray:
        return self._trace_np

    @property
    def log_table(self) -> np.ndarray:
        """dlog of every code (int64, -1 at code 0), read-only."""
        return self._log_np

    def products(self, a, b) -> np.ndarray:
        """a*b (int64) for broadcastable arrays of codes through the exp/log
        tables as in mul, 0 wherever a factor is 0; no q*q table is built."""
        a, b = np.asarray(a), np.asarray(b)
        prod = self._exp_np[(self._log_np[a] + self._log_np[b]) % self.order]
        return np.where((a == 0) | (b == 0), 0, prod)

    def trace_products(self, a, b) -> np.ndarray:
        """trace(a*b) (int32) for broadcastable arrays of codes, via `products`."""
        return self._trace_np[self.products(a, b)]

    def _find_primitive_code(self) -> int:
        """The smallest code of full order, by raw polynomial powers (no
        tables exist yet)."""
        mod = list(self.modulus)
        for code in range(2, self.q):
            if _x_class_order_is_full(mod, self.p, self.m, self.coeffs(code)):
                return code
        raise ParameterError("no primitive element found")  # unreachable


# ---------------------------------------------------------------------------
# Characters and Gaussian sums
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def roots_of_unity(p: int) -> np.ndarray:
    """The p-th roots of unity eta^s = exp(2*pi*i*s/p), s < p (complex128,
    read-only), formed once per p: every theta and Gaussian sum reads its
    additive character values from this table."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    roots.flags.writeable = False
    return roots


def gauss_sums(field: Field, order: int) -> np.ndarray:
    """All G_j = sum over nonzero x of conj(psi)^j(x) * eta^trace(x), j < order,
    psi of the given order (complex128): psi^j(xi^k) = exp(2*pi*i*j*k/order)
    depends only on r = k mod order, so G_j = sum_r exp(-2*pi*i*j*r/order) * S_r,
    with S_r the sum of eta^trace(xi^k) over k = r mod order: the root table
    read at the trace table in xi-order, one complex (q-1)-array summed per
    class, and one FFT.  At order q - 1 every class is one exponent, so the
    gathered array is the class sums, not summed into a copy.  A float
    cross-check; G_0 = -1."""
    if order < 1 or (field.q - 1) % order != 0:
        raise ParameterError(f"character order {order} does not divide q - 1")
    eta = roots_of_unity(field.p)[field.trace_table[field.unit_codes()]]
    return np.fft.fft(eta if order == field.q - 1 else eta.reshape(-1, order).sum(axis=0))

