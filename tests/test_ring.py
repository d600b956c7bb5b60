import itertools
import re

import numpy as np
import pytest

from tracecodes import (
    CodeParams,
    Field,
    ParameterError,
    RingElem,
    Variant,
    coord_at,
    derive_params,
    gray,
    gray_inverse,
    is_unit,
    lee_weight,
    ring_inv,
)
from tracecodes import oracles, ring
from tracecodes.oracles import (
    RingClass,
    big_trace,
    classify,
    frobenius,
    gray_word,
    lee_weight_word,
    random_element,
)

from oracles import add_codes


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_basis_products(f9):
    u, v, uv = oracles.u(f9), oracles.v(f9), oracles.uv(f9)
    assert u * v == uv
    assert v * u == uv
    assert u * u == ring.zero(f9)
    assert v * v == ring.zero(f9)
    assert uv * uv == ring.zero(f9)
    assert u * uv == ring.zero(f9)


def test_one_plus_u_times_one_minus_u(f9):
    one, u = oracles.one(f9), oracles.u(f9)
    assert (one + u) * (one - u) == one


def test_product_expansion_matches_reference(f9):
    # rx = r0x0 + (r0x1 + r1x0)u + (r0x2 + r2x0)v
    #      + (r0x3 + r1x2 + r2x1 + r3x0)uv
    rng = np.random.default_rng(5)
    mul, add = f9.mul, f9.add
    for _ in range(100):
        r = random_element(f9, rng)
        x = random_element(f9, rng)
        prod = r * x
        assert prod.a == mul(r.a, x.a)
        assert prod.b == add(mul(r.a, x.b), mul(r.b, x.a))
        assert prod.c == add(mul(r.a, x.c), mul(r.c, x.a))
        expect_d = add(add(mul(r.a, x.d), mul(r.b, x.c)),
                       add(mul(r.c, x.b), mul(r.d, x.a)))
        assert prod.d == expect_d


def test_mismatched_fields_rejected(f9, f27):
    with pytest.raises(ParameterError):
        oracles.one(f9) * oracles.one(f27)


def test_commutative_and_associative(f9):
    # the middle factor is also a coordinate g, of the lift and the units in
    # turn: (r*g)*x = r*(g*x) makes the codeword of r pulled back along
    # x -> g*x, Tr(r*(g*x)), the codeword of r*g
    dps = [derive_params(CodeParams(f9, 2)), derive_params(CodeParams(f9, 1, Variant.UNITS))]
    rng = np.random.default_rng(6)
    for k in range(300):
        x, y, z = (random_element(f9, rng) for _ in range(3))
        g = coord_at(dps[k % 2], int(rng.integers(dps[k % 2].length)))
        for middle in (y, g):
            assert x * middle == middle * x
            assert (x * middle) * z == x * (middle * z)
            assert x * (middle + z) == x * middle + x * z


# ---------------------------------------------------------------------------
# Frobenius
# ---------------------------------------------------------------------------

def test_frobenius_order_m(f9):
    rng = np.random.default_rng(7)
    for _ in range(500):
        r = random_element(f9, rng)
        out = r
        for _ in range(f9.m):
            out = frobenius(out)
        assert out == r


def test_frobenius_fixes_prime_coordinates(f9):
    for coords in itertools.product(range(3), repeat=4):
        r = RingElem(f9, *coords)
        assert frobenius(r) == r


def test_frobenius_is_multiplicative(f9):
    rng = np.random.default_rng(8)
    for _ in range(100):
        r, s = random_element(f9, rng), random_element(f9, rng)
        assert frobenius(r * s) == frobenius(r) * frobenius(s)
        assert frobenius(r + s) == frobenius(r) + frobenius(s)


# ---------------------------------------------------------------------------
# trace down to the base ring
# ---------------------------------------------------------------------------

def test_big_trace_zero(f9):
    assert not big_trace(ring.zero(f9))


def test_big_trace_coordinatewise(f9):
    r = RingElem(f9, 1, f9.xi, 0, 0)
    out = big_trace(r)
    assert out.field is f9
    assert out.coords() == (2, f9.trace_table[f9.xi], 0, 0)
    assert out.coords() == (2, 2, 0, 0)


def test_big_trace_frobenius_invariant(f9):
    rng = np.random.default_rng(9)
    for _ in range(200):
        r = random_element(f9, rng)
        assert big_trace(frobenius(r)) == big_trace(r)


def test_big_trace_nondegenerate_exhaustive(f9):
    # for every nonzero x some r has Tr(rx) != 0; by linearity it is enough
    # to probe the module generators xi^i * {1, u, v, uv}
    probes = []
    for i in range(f9.m):
        xi_i = f9.exp_code(i)
        probes.extend([
            RingElem(f9, xi_i, 0, 0, 0),
            RingElem(f9, 0, xi_i, 0, 0),
            RingElem(f9, 0, 0, xi_i, 0),
            RingElem(f9, 0, 0, 0, xi_i),
        ])
    for coords in itertools.product(range(9), repeat=4):
        x = RingElem(f9, *coords)
        if not x:
            continue
        assert any(big_trace(r * x) for r in probes), f"degenerate at {x}"


def test_big_trace_base_ring_linear_exhaustive(f9):
    # Tr(lambda * z) = lambda * Tr(z) for every lambda with prime-field
    # coordinates and every z; vectorized over z
    q = f9.q
    flat = np.arange(q**4, dtype=np.int64)
    za, rest = np.divmod(flat, q**3)
    zb, rest = np.divmod(rest, q**2)
    zc, zd = np.divmod(rest, q)
    mul = f9.mul_table
    tr = f9.trace_table.astype(np.int64)
    for lam_coords in itertools.product(range(3), repeat=4):
        la, lb, lc, ld = lam_coords
        pa = mul[la, za]
        pb = add_codes(f9, mul[la, zb], mul[lb, za])
        pc = add_codes(f9, mul[la, zc], mul[lc, za])
        pd = add_codes(f9, add_codes(f9, mul[la, zd], mul[lb, zc]),
                       add_codes(f9, mul[lc, zb], mul[ld, za]))
        lhs = np.stack([tr[pa], tr[pb], tr[pc], tr[pd]])
        ta, tb, tc, td = tr[za], tr[zb], tr[zc], tr[zd]
        rhs = np.stack([
            (la * ta) % 3,
            (la * tb + lb * ta) % 3,
            (la * tc + lc * ta) % 3,
            (la * td + lb * tc + lc * tb + ld * ta) % 3,
        ])
        assert (lhs == rhs).all(), f"linearity failed for lambda={lam_coords}"


# ---------------------------------------------------------------------------
# classification and inverses
# ---------------------------------------------------------------------------

def test_classify_tags(f9):
    assert classify(oracles.uv(f9)) is RingClass.UV_LINE
    assert classify(oracles.u(f9)) is RingClass.OTHER_MAXIMAL
    assert classify(RingElem(f9, 1, 1, 1, 1)) is RingClass.UNIT
    assert classify(ring.zero(f9)) is RingClass.ZERO
    assert is_unit(RingElem(f9, 1, 1, 1, 1))
    assert not is_unit(oracles.u(f9))


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2), (3, 3)])
def test_classes_partition_and_unit_count(p, m):
    f = Field(p, m)
    q = f.q
    counts = {tag: 0 for tag in RingClass}
    for coords in itertools.product(range(q), repeat=4):
        counts[classify(RingElem(f, *coords))] += 1
    assert counts[RingClass.ZERO] == 1
    assert counts[RingClass.UV_LINE] == q - 1
    assert counts[RingClass.OTHER_MAXIMAL] == q**3 - q
    assert counts[RingClass.UNIT] == (q - 1) * q**3


def test_inverse_of_units(f9):
    rng = np.random.default_rng(10)
    one = oracles.one(f9)
    for _ in range(200):
        a = int(rng.integers(1, 9))
        r = ring.RingElem(f9, a, *(int(x) for x in rng.integers(0, 9, size=3)))
        assert r * ring_inv(r) == one


def test_inverse_rejects_non_units(f9):
    with pytest.raises(ValueError):
        ring_inv(oracles.uv(f9))


def test_product_and_inverse_exhaustively_over_f3(f3):
    # over F_3 the codes are the integers mod 3, so the hand expansion
    # needs no field arithmetic
    elements = [RingElem(f3, *coords) for coords in itertools.product(range(3), repeat=4)]
    for r in elements:
        a1, b1, c1, d1 = r.coords()
        for x in elements:
            a2, b2, c2, d2 = x.coords()
            expected = (a1 * a2, a1 * b2 + b1 * a2, a1 * c2 + c1 * a2,
                        a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)
            assert (r * x).coords() == tuple(e % 3 for e in expected)
    units = [r for r in elements if is_unit(r)]
    assert len(units) == 54
    assert all(r * ring_inv(r) == oracles.one(f3) for r in units)


# ---------------------------------------------------------------------------
# The subset rules
# ---------------------------------------------------------------------------

#: The slot table the weight kernel's proof was first written with: each
#: Gray slot's symbol in the traced coordinates t1..t4 of Tr(r*x), then the
#: coordinates of r = (a, b, c, d) whose traces each axis x0..x3 adds to it.
HAND_SLOT_TABLE = """
    t4            Tr(d x0)           Tr(c x1)       Tr(b x2)       Tr(a x3)
    t3+t4         Tr((c+d) x0)       Tr(c x1)       Tr((a+b) x2)   Tr(a x3)
    t2+t4         Tr((b+d) x0)       Tr((a+c) x1)   Tr(b x2)       Tr(a x3)
    t1+t2+t3+t4   Tr((a+b+c+d) x0)   Tr((a+c) x1)   Tr((a+b) x2)   Tr(a x3)
"""


def _hand_slot_table():
    """(gray, slot_terms) read off HAND_SLOT_TABLE, indexed as ring.GRAY and
    ring.SLOT_TERMS are: the coordinates of each slot, and per axis and slot
    the coordinates of r, each a tuple of indices into (a, b, c, d)."""
    gray_rows, slot_terms = [], [[None] * 4 for _ in range(4)]
    for k, line in enumerate(HAND_SLOT_TABLE.strip().splitlines()):
        gray_rows.append(tuple(int(i) - 1 for i in re.findall(r"t(\d)", line.split()[0])))
        for letters, axis in re.findall(r"Tr\(\(?([a-d+]+)\)? x(\d)\)", line):
            slot_terms[int(axis)][k] = tuple("abcd".index(c) for c in letters.split("+"))
    return tuple(gray_rows), tuple(tuple(axis) for axis in slot_terms)


def test_gray_is_the_kronecker_square_of_the_one_variable_map():
    # a + bu -> (b, a + b) on F_p + uF_p is [[0, 1], [1, 1]] on (a, b)
    g1 = np.array([[0, 1], [1, 1]])
    matrix = np.array([[int(i in slots) for i in range(4)] for slots in ring.GRAY])
    assert np.array_equal(matrix, np.kron(g1, g1))
    assert ring.GRAY == _hand_slot_table()[0]


def test_slot_terms_are_the_hand_table():
    assert ring.SLOT_TERMS == _hand_slot_table()[1]


def test_slot_terms_hold_the_kernel_proofs_premise():
    # every slot of x3 reads r_0 alone; with r_0 = 0 every slot of x1 reads
    # r_2 alone and every slot of x2 reads r_1 alone; r_3 reaches every
    # slot of x0 and no slot of an F_q axis
    x0, x1, x2, x3 = ring.SLOT_TERMS
    assert all(terms == (0,) for terms in x3)
    assert all(set(terms) - {0} == {2} for terms in x1)
    assert all(set(terms) - {0} == {1} for terms in x2)
    assert all(3 in terms for terms in x0)
    assert not any(3 in terms for axis in (x1, x2, x3) for terms in axis)


def test_slot_zero_reads_one_coefficient_per_axis():
    # slot 0 is the uv-coordinate Tr(d*x0 + c*x1 + b*x2 + a*x3): axis x_t
    # reads r_(3-t) alone, the premise of construction.uv_slot_counts
    assert [axis[0] for axis in ring.SLOT_TERMS] == [(3 - t,) for t in range(4)]


# ---------------------------------------------------------------------------
# Gray map and Lee weight
# ---------------------------------------------------------------------------

def test_gray_of_zero(f3):
    assert gray(ring.zero(f3)) == (0, 0, 0, 0)


def test_gray_of_all_ones(f3):
    assert gray(RingElem(f3, 1, 1, 1, 1)) == (1, 2, 2, 1)


def test_gray_of_uv_multiples(f3):
    for gamma in (1, 2):
        assert gray(RingElem(f3, 0, 0, 0, gamma)) == (gamma,) * 4


def test_gray_rejects_extension_elements(f9):
    # a coordinate at or above p lies outside F_p, so outside the base ring
    with pytest.raises(ValueError):
        gray(RingElem(f9, 3, 0, 0, 0))
    assert gray(oracles.one(f9)) == (0, 0, 0, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gray_is_a_bijection(p):
    f = Field(p, 1)
    images = set()
    for coords in itertools.product(range(p), repeat=4):
        r = RingElem(f, *coords)
        img = gray(r)
        images.add(img)
        assert gray_inverse(f, img) == r
    assert len(images) == p**4


def test_gray_is_linear(f3):
    for x_coords in itertools.product(range(3), repeat=4):
        x = RingElem(f3, *x_coords)
        gx = gray(x)
        for y_coords in itertools.product(range(3), repeat=4):
            y = RingElem(f3, *y_coords)
            gy = gray(y)
            expect = tuple((a + b) % 3 for a, b in zip(gx, gy))
            assert gray(x + y) == expect


def test_lee_weight_examples(f3):
    assert lee_weight(ring.zero(f3)) == 0
    assert lee_weight(oracles.uv(f3)) == 4
    assert lee_weight(RingElem(f3, 1, 2, 2, 1)) == 1  # 1 - u - v + uv


def test_lee_isometry_on_vectors(f3):
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        xs = [random_element(f3, rng) for _ in range(n)]
        ys = [random_element(f3, rng) for _ in range(n)]
        diff = [x - y for x, y in zip(xs, ys)]
        hamming = int(np.count_nonzero(gray_word(xs) != gray_word(ys)))
        assert lee_weight_word(diff) == hamming


def test_scale_matches_base_ring_product(f9):
    rng = np.random.default_rng(12)
    for _ in range(50):
        r = random_element(f9, rng)
        tau = int(rng.integers(0, 3))
        scalar = RingElem(f9, tau, 0, 0, 0)
        scaled = RingElem(f9, *(f9.mul(tau, c) for c in r.coords()))
        assert scaled == scalar * r


def test_str_renders_coefficient_tuples(f9):
    text = str(RingElem(f9, 1, f9.xi, 0, 2))
    assert "u" in text and "uv" in text
    assert str(f9.coeffs(f9.xi)) in text
