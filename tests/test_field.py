import cmath
import math

import numpy as np
import pytest

from tracecodes import (
    Field,
    MultChar,
    ParameterError,
    count_zero_traces,
    cyclotomic_class,
    gauss_sum,
    parse_modulus,
)
from tracecodes.field import _x_class_order_is_full, first_primitive_modulus, is_irreducible


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
        assert f9.pow_(f9.xi, divisor) != 1
    assert f9.pow_(f9.xi, 8) == 1
    assert f9.multiplicative_order(f9.xi) == 8


def test_even_characteristic_rejected():
    with pytest.raises(ParameterError, match="odd"):
        Field(2, 3)


def test_non_prime_rejected():
    with pytest.raises(ParameterError):
        Field(9, 1)


def test_degree_below_one_rejected():
    with pytest.raises(ParameterError):
        Field(3, 0)


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
    assert again._exp == f9._exp


def test_supplied_irreducible_non_primitive_modulus():
    # x^2 + 1 is irreducible over F_3 but its root has order 4, so xi falls
    # back to the smallest full-order element.
    f = Field(3, 2, modulus=(1, 0, 1))
    assert f.multiplicative_order(f.xi) == 8


def test_first_primitive_modulus_search_is_exactly_first():
    found = first_primitive_modulus(3, 2)
    assert found == (2, 1, 1)
    assert is_irreducible(list(found), 3)


def _unsieved_first_primitive(p, m):
    # Reference: every candidate in search order gets the full tests.
    for idx in range(p**m):
        poly = [(idx // p ** (m - 1 - i)) % p for i in range(m)] + [1]
        if is_irreducible(poly, p) and _x_class_order_is_full(poly, p, m):
            return tuple(poly)
    raise AssertionError("no primitive polynomial")


SEARCH_GRID = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 8) if p**m <= 2200]


@pytest.mark.parametrize("p,m", SEARCH_GRID)
def test_sieved_search_equals_unsieved_scan(p, m):
    assert first_primitive_modulus(p, m) == _unsieved_first_primitive(p, m)


@pytest.mark.parametrize("p,m,modulus", [
    (3, 9, (1, 0, 0, 0, 0, 0, 2, 1, 0, 1)),
    (5, 6, (2, 0, 0, 0, 0, 1, 1)),
    (5, 7, (2, 0, 0, 0, 0, 0, 1, 1)),
    (3, 10, (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1)),
])
def test_pinned_moduli(p, m, modulus):
    assert first_primitive_modulus(p, m) == modulus


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
    """exp, log, trace and lex tables by plain polynomial arithmetic."""
    p, m, q, mod = f.p, f.m, f.q, list(f.modulus)

    def code(poly):
        return sum(c * p**i for i, c in enumerate(poly))

    exp, val = [], [1] + [0] * (m - 1)
    for _ in range(q - 1):
        exp.append(code(val))
        val = _mulmod(val, list(f.coeffs(f.xi)), mod, p)
    log = [-1] * q
    for k, c in enumerate(exp):
        log[c] = k
    trace = []
    for x in range(q):
        conj = list(f.coeffs(x))
        total = conj
        for _ in range(m - 1):
            power = [1] + [0] * (m - 1)
            for _ in range(p):
                power = _mulmod(power, conj, mod, p)
            conj = power
            total = [(s + c) % p for s, c in zip(total, conj)]
        assert not any(total[1:])
        trace.append(total[0])
    lex = sorted(range(q), key=f.coeffs)
    return exp, log, trace, lex


@pytest.mark.parametrize("p,m,modulus", [
    (3, 1, None), (11, 1, None), (3, 2, None), (5, 2, None), (3, 3, None),
    (7, 2, None), (3, 4, None), (5, 3, None), (3, 2, (1, 0, 1)),
])
def test_tables_match_python_reference(p, m, modulus):
    f = Field(p, m, modulus=modulus)
    exp, log, trace, lex = _reference_tables(f)
    assert f._exp == exp
    assert f._log == log
    assert f.trace_table.tolist() == trace
    assert f.lex_codes.tolist() == lex
    assert f.lex_rank[f.lex_codes].tolist() == list(range(f.q))


def test_modulus_record_roundtrip(f9):
    rec = f9.modulus_record()
    assert parse_modulus(rec) == f9.modulus
    assert Field(3, 2, modulus=parse_modulus(rec)) == f9


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_of_zero(f9):
    assert f9.trace(0) == 0


def test_trace_of_one_in_quadratic_field(f9):
    # 1 + 1^3 = 2
    assert f9.trace(1) == 2


def test_trace_matches_defining_sum(f9):
    for x in f9.elements():
        total = 0
        for j in range(f9.m):
            total = f9.add(total, f9.pow_(x, 3**j))
        assert total == f9.trace(x)


def test_trace_is_frobenius_invariant(f9):
    rng = np.random.default_rng(0)
    for x in rng.integers(0, 9, size=200):
        assert f9.trace(f9.pow_(int(x), 3)) == f9.trace(int(x))


def test_trace_additive_and_linear(f9):
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(0, 9, size=2))
        assert f9.trace(f9.add(x, y)) == (f9.trace(x) + f9.trace(y)) % 3
        lam = int(rng.integers(0, 3))
        assert f9.trace(f9.mul(lam, x)) == (lam * f9.trace(x)) % 3


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2), (3, 6)])
def test_trace_surjective(p, m):
    f = Field(p, m)
    hit = np.bincount(f.trace_table.astype(np.int64), minlength=p)
    assert (hit > 0).all()
    # balanced: each value hit p^(m-1) times
    assert (hit == p ** (m - 1)).all()


def test_trace_identity_for_prime_field(f3):
    assert [f3.trace(x) for x in range(3)] == [0, 1, 2]


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


def test_bsgs_agrees_with_table():
    table = Field(3, 4)
    bsgs = Field(3, 4, dlog_table_limit=1)
    for k in (0, 1, 5, 17, 40, 79):
        x = table.exp_code(k)
        assert bsgs.dlog(x) == table.dlog(x) == k


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


def test_character_undefined_at_zero(f9):
    chi = MultChar(f9, order=2)
    with pytest.raises(ValueError):
        chi(0)


def test_character_order_must_divide(f9):
    with pytest.raises(ParameterError):
        MultChar(f9, order=5)


def test_trivial_character_gauss_sum_is_minus_one(f9, f25):
    for f in (f9, f25):
        assert abs(gauss_sum(f, 0, 2) + 1) < 1e-9


def test_prime_field_quadratic_gauss_sum(f3):
    # two-term sum eta - eta^2 = i*sqrt(3)
    g = gauss_sum(f3, 1, 2)
    assert abs(g - 1j * math.sqrt(3)) < 1e-12


@pytest.mark.parametrize("p,m,order", [(3, 2, 2), (3, 2, 4), (5, 2, 3), (3, 3, 13)])
def test_nontrivial_gauss_sums_have_modulus_sqrt_q(p, m, order):
    f = Field(p, m)
    for j in range(1, order):
        g = gauss_sum(f, j, order)
        assert abs(abs(g) - math.sqrt(f.q)) < 1e-6


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
    for b in range(1, 9):
        assert count_zero_traces(f9, b, dp.base_set) == 1


def test_zero_trace_count_scaling_invariant(f9):
    from tracecodes import CodeParams, derive_params
    dp = derive_params(CodeParams(f9, 2))
    for b in range(1, 9):
        base = count_zero_traces(f9, b, dp.base_set)
        for lam in (1, 2):
            assert count_zero_traces(f9, f9.mul(lam, b), dp.base_set) == base


def test_zero_trace_count_rejects_zero(f9):
    with pytest.raises(ValueError):
        count_zero_traces(f9, 0, (1,))


def test_count_matches_character_expansion(f9):
    # p*N(b) = n + (1/N2) * sum_j G_j * phi^j(b) at N = 2
    from tracecodes import CodeParams, derive_params
    dp = derive_params(CodeParams(f9, 2))
    gsums = [gauss_sum(f9, j, 2) for j in range(2)]
    for b in range(1, 9):
        lhs = 3 * count_zero_traces(f9, b, dp.base_set)
        phi = MultChar(f9, order=2)
        rhs = dp.n + (gsums[0] + gsums[1] * phi(b)) / 2
        assert abs(lhs - rhs) < 1e-6


def test_vectorized_addition_matches_scalar(f25):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 25, size=100)
    b = rng.integers(0, 25, size=100)
    got = f25.add_codes(a, b)
    assert [f25.add(int(x), int(y)) for x, y in zip(a, b)] == got.tolist()
