"""Property-based checks of the algebraic invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tracecodes import Field, RingElem, gray, gray_inverse, lee_weight
from tracecodes.oracles import big_trace, lee_weight_word

F9 = Field(3, 2)
F25 = Field(5, 2)
F3 = Field(3, 1)

elems9 = st.integers(min_value=0, max_value=8)
elems25 = st.integers(min_value=0, max_value=24)
elems3 = st.integers(min_value=0, max_value=2)


@given(elems9, elems9, elems9)
@settings(deadline=None)
def test_field_ops_associate_and_distribute(a, b, c):
    assert F9.mul(F9.mul(a, b), c) == F9.mul(a, F9.mul(b, c))
    assert F9.add(F9.add(a, b), c) == F9.add(a, F9.add(b, c))
    assert F9.mul(a, F9.add(b, c)) == F9.add(F9.mul(a, b), F9.mul(a, c))


@given(elems25, elems25)
@settings(deadline=None)
def test_trace_is_additive(a, b):
    assert F25.trace_table[F25.add(a, b)] == (F25.trace_table[a] + F25.trace_table[b]) % 5


@given(elems25)
@settings(deadline=None)
def test_inverse_cancels(a):
    if a:
        assert F25.mul(a, F25.inv(a)) == 1


@given(st.tuples(elems3, elems3, elems3, elems3),
       st.tuples(elems3, elems3, elems3, elems3))
@settings(deadline=None)
def test_gray_additive_and_invertible(x, y):
    rx, ry = RingElem(F3, *x), RingElem(F3, *y)
    gx, gy = gray(rx), gray(ry)
    assert gray(rx + ry) == tuple((a + b) % 3 for a, b in zip(gx, gy))
    assert gray_inverse(F3, gx) == rx


@given(st.lists(st.tuples(elems3, elems3, elems3, elems3), min_size=1, max_size=8),
       st.lists(st.tuples(elems3, elems3, elems3, elems3), min_size=1, max_size=8))
@settings(deadline=None)
def test_lee_distance_is_a_metric_via_gray(xs, ys):
    n = min(len(xs), len(ys))
    vx = [RingElem(F3, *c) for c in xs[:n]]
    vy = [RingElem(F3, *c) for c in ys[:n]]
    d = lee_weight_word([a - b for a, b in zip(vx, vy)])
    assert d == lee_weight_word([b - a for a, b in zip(vx, vy)])
    assert (d == 0) == (vx == vy)


@given(st.tuples(elems9, elems9, elems9, elems9),
       st.tuples(elems9, elems9, elems9, elems9))
@settings(deadline=None)
def test_big_trace_additive(x, y):
    rx, ry = RingElem(F9, *x), RingElem(F9, *y)
    assert big_trace(rx + ry) == big_trace(rx) + big_trace(ry)


@given(st.tuples(elems3, elems3, elems3, elems3))
@settings(deadline=None)
def test_lee_weight_bounds(x):
    w = lee_weight(RingElem(F3, *x))
    assert 0 <= w <= 4
    assert (w == 0) == (x == (0, 0, 0, 0))
