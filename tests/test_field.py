import cmath
import hashlib
import math
import time

import numpy as np
import pytest

from tracecodes import (
    Field,
    ParameterError,
    gauss_sums,
    parse_modulus,
)
from tracecodes.field import roots_of_unity
from tracecodes.limits import _is_prime
from tracecodes.modulus import (
    basis_traces,
    first_primitive_modulus,
    has_full_order,
    is_irreducible,
    multiplication_rows,
)
from tracecodes.oracles import MultChar, cyclotomic_class

from oracles import (
    add_codes,
    basis_traces_by_matrix,
    element_matrix,
    gauss_sum,
    is_irreducible_by_gcd,
    is_irreducible_by_matrix,
    order_is_full_by_matrix,
    order_is_full_by_powers,
    poly_powmod,
    spread_class_counts,
    zero_trace_counts,
)


def frobenius_image(field, x: int) -> int:
    """x^p = xi^(p log x), 0 at x = 0, read from the exp and log tables."""
    return field.exp_code(field.dlog(x) * field.p) if x else 0


def power(field, x: int, e: int) -> int:
    """x^e by e - 1 scalar multiplications, no table lookup of the exponent."""
    out = x
    for _ in range(e - 1):
        out = field.mul(out, x)
    return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_prime_field_primitive_element_is_two(f3):
    assert f3.q == 3
    assert f3.xi == 2
    assert f3.modulus == (1, 1)


def test_quadratic_field_xi_has_full_order(f9):
    # order computed over all divisors of 8 by repeated powering
    for divisor in (1, 2, 4):
        assert power(f9, f9.xi, divisor) != 1
    assert power(f9, f9.xi, 8) == 1


def test_even_characteristic_rejected():
    with pytest.raises(ParameterError, match="odd"):
        Field(2, 3)


def test_non_prime_rejected():
    with pytest.raises(ParameterError):
        Field(9, 1)


def test_degree_below_one_rejected():
    with pytest.raises(ParameterError):
        Field(3, 0)


@pytest.mark.parametrize("p,m", [(2**61 - 1, 1), (2**61 - 1, 0), (-(2**61 - 1), 3)])
def test_bad_parameters_are_refused_before_trial_division(p, m):
    # the sign, degree and table-range checks come first, so primality is
    # only ever tested for p <= DLOG_TABLE_LIMIT; trial division up to
    # sqrt(2^61) took longer than any test's budget
    start = time.perf_counter()
    with pytest.raises(ParameterError):
        Field(p, m)
    assert time.perf_counter() - start < 0.1


def test_reducible_modulus_rejected():
    # 1 + 2x + x^2 = (1 + x)^2 over F_3
    with pytest.raises(ParameterError, match="reducible"):
        Field(3, 2, modulus=(1, 2, 1))


def test_non_monic_modulus_rejected():
    with pytest.raises(ParameterError, match="monic"):
        Field(3, 2, modulus=(2, 1, 2))


def test_builds_are_reproducible(f9):
    again = Field(3, 2)
    assert again == f9
    assert again.xi == f9.xi
    assert again._exp.tolist() == f9._exp.tolist()


def test_supplied_irreducible_non_primitive_modulus():
    # x^2 + 1 is irreducible over F_3 but its root has order 4, so xi falls
    # back to the smallest full-order element.
    f = Field(3, 2, modulus=(1, 0, 1))
    for divisor in (1, 2, 4):
        assert power(f, f.xi, divisor) != 1
    assert power(f, f.xi, 8) == 1


def test_first_primitive_modulus_search_is_exactly_first():
    found = first_primitive_modulus(3, 2)
    assert found == (2, 1, 1)
    assert is_irreducible(list(found), 3)


def _unsieved_first_primitive(p, m):
    # Reference: every candidate in search order gets the full tests, on
    # coefficient lists.
    for idx in range(p**m):
        poly = [(idx // p ** (m - 1 - i)) % p for i in range(m)] + [1]
        if is_irreducible_by_gcd(poly, p) and order_is_full_by_powers(poly, p):
            return tuple(poly)
    raise AssertionError("no primitive polynomial")


SEARCH_GRID = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 8) if p**m <= 2200]


@pytest.mark.parametrize("p,m", SEARCH_GRID)
def test_sieved_search_equals_unsieved_scan(p, m):
    assert first_primitive_modulus(p, m) == _unsieved_first_primitive(p, m)


def test_matrix_rabin_test_matches_the_gcd_reference():
    # every monic polynomial with p = 3 and m <= 5, or p in {5, 7} and
    # m <= 3: 917 of them, 275 irreducible, as Gauss's formula
    # (1/m) * sum over d | m of mu(d) * p^(m/d) counts per degree; Rabin's
    # test on lists agrees with the gcd reference, the two together take
    # under 2 s for all of them, and the companion-matrix oracle agrees
    # too (untimed, in a second pass)
    polys = [(p, [idx // p**i % p for i in range(m)] + [1])
             for p, top in ((3, 5), (5, 3), (7, 3))
             for m in range(1, top + 1) for idx in range(p**m)]
    start, irreducible = time.perf_counter(), 0
    for p, poly in polys:
        expected = is_irreducible_by_gcd(poly, p)
        assert is_irreducible(poly, p) == expected, (p, poly)
        irreducible += expected
    assert irreducible == 275
    assert time.perf_counter() - start < 2
    for p, poly in polys:
        assert is_irreducible_by_matrix(poly, p) == is_irreducible(poly, p), (p, poly)


def test_polynomial_arithmetic_matches_the_companion_matrices():
    # every monic polynomial with p = 3 and m <= 4, or p in {5, 7} and
    # m <= 2: the order test (of x and of a second element), the basis
    # traces and the matrix of multiplication that starts a table build,
    # each against its form on f's companion matrix
    for p, top in ((3, 4), (5, 2), (7, 2)):
        for m in range(1, top + 1):
            for idx in range(p**m):
                poly = [idx // p**i % p for i in range(m)] + [1]
                element = [(idx + 2 * i + 1) % p for i in range(m)]
                assert has_full_order(poly, p, m) == order_is_full_by_matrix(
                    poly, p, [0, 1] if m > 1 else [-poly[0] % p]), (p, poly)
                assert has_full_order(poly, p, m, element) == order_is_full_by_matrix(
                    poly, p, element), (p, poly, element)
                assert basis_traces(poly, p) == basis_traces_by_matrix(poly, p), (p, poly)
                assert multiplication_rows(element, poly, p) == element_matrix(
                    element, poly, p).tolist(), (p, poly, element)


@pytest.mark.parametrize("p,m,modulus", [
    (3, 9, (1, 0, 0, 0, 0, 0, 2, 1, 0, 1)),
    (5, 6, (2, 0, 0, 0, 0, 1, 1)),
    (5, 7, (2, 0, 0, 0, 0, 0, 1, 1)),
    (3, 10, (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1)),
    (3, 12, (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1)),
    (5, 8, (2, 0, 0, 0, 0, 0, 2, 1, 1)),
    (1021, 2, (10, 1, 1)),
    (4093, 1, (2, 1)),
])
def test_pinned_moduli(p, m, modulus):
    assert first_primitive_modulus(p, m) == modulus


def test_field_at_the_table_limit_builds_fast():
    # p - 1 is factored once and only the constant terms the scan reaches
    # are tested; building the set of all primitive roots mod p first, with
    # p - 1 factored once per candidate, took several seconds at this p
    start = time.perf_counter()
    f = Field(1048573, 1)
    assert time.perf_counter() - start < 1
    assert f.modulus == (2, 1)


def _mulmod(a, b, mod, p):
    m = len(mod) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i] % p
        for j in range(m + 1):
            prod[i - m + j] -= c * mod[j]
    return [c % p for c in prod[:m]]


def _reference_tables(f):
    """exp, log, trace, lex, neg and Frobenius tables by plain polynomial
    arithmetic."""
    p, m, q, mod = f.p, f.m, f.q, list(f.modulus)

    def code(poly):
        return sum(c * p**i for i, c in enumerate(poly))

    def frobenius(poly):
        power = [1] + [0] * (m - 1)
        for _ in range(p):
            power = _mulmod(power, poly, mod, p)
        return power

    exp, val = [], [1] + [0] * (m - 1)
    for _ in range(q - 1):
        exp.append(code(val))
        val = _mulmod(val, list(f.coeffs(f.xi)), mod, p)
    log = [-1] * q
    for k, c in enumerate(exp):
        log[c] = k
    trace, frob = [], []
    for x in range(q):
        conj = list(f.coeffs(x))
        frob.append(code(frobenius(conj)))
        total = conj
        for _ in range(m - 1):
            conj = frobenius(conj)
            total = [(s + c) % p for s, c in zip(total, conj)]
        assert not any(total[1:])
        trace.append(total[0])
    lex = sorted(range(q), key=f.coeffs)
    neg = [code([-c % p for c in f.coeffs(x)]) for x in range(q)]
    return exp, log, trace, lex, neg, frob


@pytest.mark.parametrize("p,m,modulus", [
    (3, 1, None), (11, 1, None), (3, 2, None), (5, 2, None), (3, 3, None),
    (7, 2, None), (3, 4, None), (5, 3, None), (3, 2, (1, 0, 1)),
])
def test_tables_match_python_reference(p, m, modulus):
    f = Field(p, m, modulus=modulus)
    exp, log, trace, lex, neg, frob = _reference_tables(f)
    assert f._exp.tolist() == exp
    assert f._log.tolist() == log
    assert f.trace_table.tolist() == trace
    lex_codes = f.lex_code(np.arange(f.q))
    assert lex_codes.tolist() == lex
    assert [f.lex_code(i) for i in range(f.q)] == lex
    # digit reversal is an involution: the order is its own inverse
    assert f.lex_code(lex_codes).tolist() == list(range(f.q))
    assert [f.neg(x) for x in range(f.q)] == neg
    assert [frobenius_image(f, x) for x in range(f.q)] == frob


#: Every field with p odd, p <= 61 and q <= 4096.
TRACE_GRID = [(p, m) for p in range(3, 62, 2) if _is_prime(p)
              for m in range(1, 13) if p**m <= 4096]


@pytest.mark.parametrize("p,m", TRACE_GRID)
def test_basis_traces_match_the_defining_sum(p, m):
    # trace(x^i) against Tr(x^i) = sum over j < m of x^(i*p^j) mod f
    mod = list(first_primitive_modulus(p, m))
    expected = []
    for i in range(m):
        total = [0] * m
        for j in range(m):
            conj = poly_powmod([0, 1], i * p**j, mod, p)
            total = [(s + c) % p for s, c in zip(total, conj)]
        assert not any(total[1:])
        expected.append(total[0])
    assert basis_traces(mod, p) == expected


#: sha256 prefixes of the int64 little-endian bytes of each table, taken
#: from the tables built through full q x m digit arrays and per-element
#: Frobenius orbit sums.
TABLE_DIGESTS = {
    (3, 9, None): ("ecb87d68e02335f8", "3f0eb7f931dab025", "db0a82d4e985bbb7",
                   "42a68dba3c11cd83", "69454ef47287ad96", "8455ad7f13271f7c"),
    (5, 6, None): ("7bf1cd0f2dfd4cf6", "1f32ce91b838abdf", "b51b2fa1d3983000",
                   "9f14fbea37be344f", "d8924fdbccf65dfc", "ac884dfaf6187409"),
    (7, 5, None): ("212afb0ada7207d7", "1336ac592c4beca7", "2f3970ee23737a8e",
                   "fd323aef3eb15f35", "e14f73aac5b471fe", "7a65459852f890e8"),
    (13, 4, None): ("6350328726be2ed6", "b2b9e2ab378dcdc6", "cc8c53c4ae7f6ed6",
                    "7a23e17597a2342b", "f013a3eb0d1ce132", "6de87efbcd7c87bc"),
    (4093, 1, None): ("fac67291129e5795", "a6238f2687af48c8", "358f72e3e73f046b",
                      "358f72e3e73f046b", "3ea2a609f6714bac", "358f72e3e73f046b"),
    (3, 2, (1, 0, 1)): ("107beef16789fe21", "da0d10ec35bfa438", "8cc825d972544d25",
                        "37fcb2c479ef6533", "0b567cf282f27d20", "4c940919d756c6bb"),
}


@pytest.mark.parametrize("p,m,modulus", list(TABLE_DIGESTS))
def test_tables_are_pinned_bit_for_bit(p, m, modulus):
    f = Field(p, m, modulus=modulus)
    tables = (f._exp, f._log, f.trace_table, f.lex_code(np.arange(f.q)),
              [f.neg(x) for x in range(f.q)], [frobenius_image(f, x) for x in range(f.q)])
    digests = tuple(hashlib.sha256(np.asarray(t, dtype="<i8").tobytes()).hexdigest()[:16]
                    for t in tables)
    assert digests == TABLE_DIGESTS[p, m, modulus]


def test_field_tables_are_built_in_o_q_memory():
    # the build peaks at no more than 1.02 times the three tables it keeps
    # (10.6 MB at (3,12)), and 1.3 times at small q, where one block is a
    # larger share: only the digit rows a later pass reads are kept, the
    # traces go straight into the code-indexed table, the int64 codes are
    # formed a sub-block at a time, and the checks and the log table run a
    # block at a time once the digits are freed.  With every digit row, a
    # trace array in xi-order and whole-block int64 codes, a build read
    # 1.25 times at (3,12), 1.99 at (3,9) and 1.72 at (5,6)
    import tracemalloc

    for p, m, bound in ((3, 12, 1.02), (7, 7, 1.02), (1048573, 1, 1.02),
                        (3, 9, 1.3), (5, 6, 1.3)):
        tracemalloc.start()
        try:
            f = Field(p, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(t.nbytes for t in (f._exp_np, f._log_np, f._trace_np))
        assert peak <= bound * kept, (p, m, peak, kept)
        assert [name for name, value in vars(f).items()
                if isinstance(value, list) and len(value) >= f.q] == []
        for table in (f._exp_np, f._log_np, f._trace_np):
            assert not table.flags.writeable
        assert not f.unit_codes().flags.writeable


def test_field_build_refuses_a_trace_off_frobenius_orbits(monkeypatch):
    # the coefficient of x is F_p-linear but not a trace: it differs on
    # the Frobenius orbit of x at (3,2), and the whole-table check says so
    from tracecodes import field as field_module

    monkeypatch.setattr(field_module, "basis_traces", lambda mod, p: [0, 1])
    with pytest.raises(AssertionError, match="Frobenius orbits"):
        Field(3, 2)


@pytest.mark.parametrize("p,m", [(3, 9), (5, 6), (7, 3), (13, 2)])
def test_field_build_refuses_a_functional_off_frobenius_orbits(p, m, monkeypatch):
    # the trace plus the coefficient of x is F_p-linear but no multiple of
    # the trace, so it is not constant on the Frobenius orbits; the check
    # reads it at the code-indexed table through exp, p runs of exponents
    from tracecodes import field as field_module

    real = field_module.basis_traces
    monkeypatch.setattr(field_module, "basis_traces",
                        lambda mod, p: (real(mod, p) + np.eye(len(mod) - 1, dtype=np.int64)[1]) % p)
    with pytest.raises(AssertionError, match="Frobenius orbits"):
        Field(p, m)


def test_field_build_refuses_a_xi_that_is_no_generator(monkeypatch):
    # x is a square modulo x^2 + 1 over F_3 (order 4 of 8): its powers
    # repeat, so they miss nonzero codes and the log table shows it
    from tracecodes import field as field_module

    monkeypatch.setattr(field_module, "has_full_order", lambda *a: True)
    with pytest.raises(AssertionError, match="not the nonzero codes"):
        Field(3, 2, modulus=(1, 0, 1))


def test_modulus_text_roundtrip(f9):
    rec = ",".join(map(str, f9.modulus))
    assert parse_modulus(rec) == f9.modulus
    assert Field(3, 2, modulus=parse_modulus(rec)) == f9


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_of_zero(f9):
    assert f9.trace_table[0] == 0


def test_trace_of_one_in_quadratic_field(f9):
    # 1 + 1^3 = 2
    assert f9.trace_table[1] == 2


def test_trace_matches_defining_sum(f9):
    for x in range(f9.q):
        total = 0
        for j in range(f9.m):
            total = f9.add(total, power(f9, x, 3**j))
        assert total == f9.trace_table[x]


def test_trace_is_frobenius_invariant(f9):
    rng = np.random.default_rng(0)
    for x in rng.integers(0, 9, size=200):
        assert f9.trace_table[power(f9, int(x), 3)] == f9.trace_table[int(x)]


def test_trace_additive_and_linear(f9):
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(0, 9, size=2))
        assert f9.trace_table[f9.add(x, y)] == (f9.trace_table[x] + f9.trace_table[y]) % 3
        lam = int(rng.integers(0, 3))
        assert f9.trace_table[f9.mul(lam, x)] == (lam * f9.trace_table[x]) % 3


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (3, 6)])
def test_trace_surjective(p, m):
    f = Field(p, m)
    hit = np.bincount(f.trace_table.astype(np.int64), minlength=p)
    assert (hit > 0).all()
    # balanced: each value hit p^(m-1) times
    assert (hit == p ** (m - 1)).all()


def test_trace_identity_for_prime_field(f3):
    assert [f3.trace_table[x] for x in range(3)] == [0, 1, 2]


def test_trace_does_not_wrap_above_p_127():
    f = Field(131, 1)
    assert f.trace_table[130] == 130
    assert f.trace_table.tolist() == list(range(131))
    tm = f.trmul_flat
    assert tm.min() == 0 and tm.max() == 130


@pytest.mark.parametrize("p,m,modulus", [
    (3, 2, None), (3, 2, (1, 0, 1)), (5, 2, None), (3, 4, None), (131, 1, None),
])
def test_trace_products_match_product_table(p, m, modulus):
    # exp/log arithmetic as in mul, including a non-primitive modulus
    f = Field(p, m, modulus=modulus)
    codes = np.arange(f.q)
    got = f.trace_products(codes[:, None], codes)
    assert got.dtype == np.int32
    assert np.array_equal(got.ravel(), f.trmul_flat)
    assert all(got[a, b] == f.trace_table[f.mul(a, b)] for a in (0, 1, f.q - 1) for b in codes)


@pytest.mark.parametrize("p,m,modulus", [
    (3, 2, None), (3, 2, (1, 0, 1)), (5, 2, None), (131, 1, None),
])
def test_products_match_scalar_mul_on_every_pair(p, m, modulus):
    f = Field(p, m, modulus=modulus)
    codes = np.arange(f.q)
    got = f.products(codes[:, None], codes)
    assert got.dtype == np.int64
    assert got.tolist() == [[f.mul(a, b) for b in range(f.q)] for a in range(f.q)]


def test_product_table_is_built_in_row_blocks():
    # at (3,7) the int32 table holds 19 MB; int64 temporaries over the whole
    # table would take the build's peak to several times that
    import tracemalloc

    f = Field(3, 7)
    tracemalloc.start()
    try:
        table = f.mul_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int32 and table.shape == (f.q, f.q)
    assert peak < 2 * table.nbytes
    pairs = np.random.default_rng(7).integers(0, f.q, size=(500, 2)).tolist()
    for a, b in pairs + [[0, 5], [5, 0], [1, f.q - 1], [f.q - 1, f.q - 1]]:
        assert table[a, b] == f.mul(a, b)


# ---------------------------------------------------------------------------
# discrete logs
# ---------------------------------------------------------------------------

def test_dlog_of_xi_and_one(f9):
    assert f9.dlog(f9.xi) == 1
    assert f9.dlog(1) == 0


def test_dlog_exponent_arithmetic(f9):
    x = f9.mul(f9.exp_code(3), f9.exp_code(7))
    assert f9.dlog(x) == 10 % 8


def test_dlog_of_zero_rejected(f9):
    with pytest.raises(ValueError):
        f9.dlog(0)


# ---------------------------------------------------------------------------
# cyclotomic classes
# ---------------------------------------------------------------------------

def test_full_group_class(f9):
    assert cyclotomic_class(f9, 0, 1) == frozenset(range(1, 9))


def test_quadratic_class_size(f9):
    assert len(cyclotomic_class(f9, 0, 2)) == 4


def test_classes_partition_units(f25):
    seen = set()
    for i in range(3):
        cls = cyclotomic_class(f25, i, 3)
        assert len(cls) == 8
        assert not (seen & cls)
        seen |= cls
    assert seen == set(range(1, 25))


def test_class_order_must_divide(f9):
    with pytest.raises(ParameterError):
        cyclotomic_class(f9, 0, 3)


# ---------------------------------------------------------------------------
# characters and Gaussian sums
# ---------------------------------------------------------------------------

def test_character_values_are_roots_of_unity(f9):
    chi = MultChar(f9, order=4, index=1)
    for k in range(8):
        expect = cmath.exp(2j * cmath.pi * k / 4)
        assert abs(chi(f9.exp_code(k)) - expect) < 1e-12


def test_roots_of_unity_are_one_read_only_table_per_p():
    # every theta and Gaussian sum of one p reads this one cached array
    for p in (3, 61):
        roots = roots_of_unity(p)
        assert roots is roots_of_unity(p) and not roots.flags.writeable
        assert max(abs(roots[s] - cmath.exp(2j * cmath.pi * s / p)) for s in range(p)) < 1e-15


def test_character_undefined_at_zero(f9):
    chi = MultChar(f9, order=2)
    with pytest.raises(ValueError):
        chi(0)


def test_character_order_must_divide(f9):
    with pytest.raises(ParameterError):
        MultChar(f9, order=5)


def test_trivial_character_gauss_sum_is_minus_one(f9, f25):
    for f in (f9, f25):
        assert abs(gauss_sums(f)[0] + 1) < 1e-9


def test_prime_field_quadratic_gauss_sum(f3):
    # two-term sum eta - eta^2 = i*sqrt(3); at q - 1 = 2 the character of
    # order q - 1 is the quadratic one
    g = gauss_sums(f3)[1]
    assert abs(g - 1j * math.sqrt(3)) < 1e-12


@pytest.mark.parametrize("p,m,order", [(3, 2, 2), (3, 2, 4), (5, 2, 3), (3, 3, 13)])
def test_nontrivial_gauss_sums_have_modulus_sqrt_q(p, m, order):
    # the sums of order `order`, every ((q-1)/order)-th sum of order q - 1
    f = Field(p, m)
    sums = gauss_sums(f)[::(f.q - 1) // order]
    assert np.abs(np.abs(sums[1:]) - math.sqrt(f.q)).max() < 1e-6


@pytest.mark.parametrize("p,m,order", [
    (3, 2, 2), (3, 2, 4), (5, 2, 3), (3, 3, 13), (3, 4, 80), (3, 7, 1093)])
def test_gauss_sums_match_the_per_index_oracle(p, m, order):
    # the sums of order `order`, a slice of the one FFT of order q - 1,
    # against each sum formed from its definition
    f = Field(p, m)
    gsums = gauss_sums(f)[::(f.q - 1) // order]
    assert gsums.shape == (order,)
    assert abs(gsums[0] + 1) < 1e-9
    assert max(abs(g - gauss_sum(f, j, order)) for j, g in enumerate(gsums)) < 1e-8


def test_character_orthogonality_through_powers(f9):
    # sum over nonzero x of psi(x^2) is q-1 for characters whose square is
    # trivial and 0 otherwise
    q1 = f9.q - 1
    for j in range(q1):
        total = sum(
            cmath.exp(2j * cmath.pi * j * 2 * k / q1) for k in range(q1)
        )
        expected = q1 if (2 * j) % q1 == 0 else 0
        assert abs(total - expected) < 1e-9


# ---------------------------------------------------------------------------
# zero-trace counting
# ---------------------------------------------------------------------------

def test_zero_trace_count_is_one_for_every_b(f9):
    from tracecodes import CodeParams, derive_params
    dp = derive_params(CodeParams(f9, 1))
    assert dp.class_counts.tolist() == [1]
    assert spread_class_counts(dp)[1:].tolist() == [1] * 8


def test_zero_trace_count_scaling_invariant(f9):
    from tracecodes import CodeParams, derive_params
    counts = spread_class_counts(derive_params(CodeParams(f9, 2)))
    for b in range(1, 9):
        for lam in (1, 2):
            assert counts[f9.mul(lam, b)] == counts[b]


def test_zero_trace_count_matches_scalar_loop():
    # the spread class counts and the window-sum oracle against the scalar
    # reference, every b, on the base sets and the units
    from tracecodes import CodeParams, Variant, derive_params
    f = Field(3, 4)
    for N, variant in ((1, Variant.LIFT), (4, Variant.LIFT), (5, Variant.LIFT),
                       (1, Variant.UNITS)):
        dp = derive_params(CodeParams(f, N, variant))
        expected = [sum(1 for d in dp.x0_codes().tolist() if f.trace_table[f.mul(b, d)] == 0)
                    for b in range(f.q)]
        assert spread_class_counts(dp).tolist() == expected
        step, count = (N, dp.n) if variant is Variant.LIFT else (1, f.q - 1)
        assert zero_trace_counts(f, step, count).tolist() == expected


def test_zero_trace_count_of_zero_is_the_point_count(f9):
    # every trace of 0 is 0, and the oracle table and the class counts
    # are read-only
    from tracecodes import CodeParams, Variant, derive_params
    for step, count in ((1, 8), (2, 4), (4, 1), (8, 1), (2, 0)):
        counts = zero_trace_counts(f9, step, count)
        assert counts[0] == count and counts.shape == (9,)
        assert not counts.flags.writeable
    for N, variant in ((1, Variant.LIFT), (2, Variant.LIFT), (4, Variant.UNITS)):
        dp = derive_params(CodeParams(f9, N, variant))
        assert dp.class_counts.shape == (dp.N2,)
        assert not dp.class_counts.flags.writeable


def test_count_matches_character_expansion(f9):
    # p*N(b) = n + (1/N2) * sum_j G_j * phi^j(b) at N = 2
    from tracecodes import CodeParams, derive_params
    dp = derive_params(CodeParams(f9, 2))
    gsums = gauss_sums(f9)[::4]  # the order-2 sums
    for b in range(1, 9):
        lhs = 3 * dp.class_counts[f9.dlog(b) % dp.N2]
        phi = MultChar(f9, order=2)
        rhs = dp.n + (gsums[0] + gsums[1] * phi(b)) / 2
        assert abs(lhs - rhs) < 1e-6


def test_scalar_addition_builds_no_table():
    # scalar add works digit by digit: after adding every code to every
    # code, the field holds no table of q^2 entries
    f = Field(3, 3)
    codes = np.arange(f.q)
    got = [[f.add(int(a), int(b)) for b in codes] for a in codes]
    assert got == add_codes(f, codes[:, None], codes).tolist()
    assert all(np.size(v) < f.q**2 for v in vars(f).values()
               if isinstance(v, (list, np.ndarray)))


def test_vectorized_addition_matches_scalar(f25):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 25, size=100)
    b = rng.integers(0, 25, size=100)
    got = add_codes(f25, a, b)
    assert [f25.add(int(x), int(y)) for x, y in zip(a, b)] == got.tolist()
