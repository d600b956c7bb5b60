import hashlib
import itertools
import json
import time

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
    gray_symbol_histogram,
    is_unit,
    subcode_distribution,
)
from tracecodes import oracles, ring
from tracecodes.construction import (
    coord_blocks,
    coset_representatives,
    lift_class_counts,
    slot_batch_rows,
    uv_slot_counts,
)
from tracecodes.limits import _is_prime
from tracecodes.oracles import (
    big_trace,
    enumerate_coords,
    eval_field_subcode,
    evaluate,
    export_gray_words,
    gray_symbols,
    gray_word,
    random_element,
)

from oracles import (
    contains,
    coord_index,
    cosets_distinct_by_sort,
    spread_class_counts,
    x0_position,
    zero_trace_counts,
)

# ---------------------------------------------------------------------------
# derived parameters
# ---------------------------------------------------------------------------

def test_derive_quadratic_full_lift(f9):
    dp = derive_params(CodeParams(f9, 1, Variant.LIFT))
    assert (dp.N1, dp.N2, dp.n) == (4, 1, 4)
    assert dp.length == 2916
    assert dp.gray_length == 11664


def test_class_counts_are_a_read_only_field_that_derive_params_fills():
    # every N | q - 1 of every field with q <= 81, both variants: the lift's
    # counts are lift_class_counts(field, N2), the units' q/p - 1 per class
    points = 0
    for f in (Field(p, m) for p, m in ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1))):
        for N in (d for d in range(1, f.q) if (f.q - 1) % d == 0):
            for variant in Variant:
                dp = derive_params(CodeParams(f, N, variant))
                expected = (lift_class_counts(f, dp.N2).tolist() if variant is Variant.LIFT
                            else [f.q // f.p - 1] * dp.N2)
                assert dp.class_counts.tolist() == expected
                assert dp.class_counts.dtype == np.int64 and not dp.class_counts.flags.writeable
                with pytest.raises(AttributeError):
                    dp.class_counts = np.zeros(dp.N2, dtype=np.int64)
                points += 1
    assert points == 2 * 35


def test_derive_quadratic_n2(f9):
    dp = derive_params(CodeParams(f9, 2, Variant.LIFT))
    assert (dp.N1, dp.N2, dp.n) == (4, 2, 2)
    assert dp.length == 1458


def test_derive_quartic(f81):
    dp = derive_params(CodeParams(f81, 4, Variant.LIFT))
    assert (dp.N1, dp.N2, dp.n) == (40, 4, 10)
    assert dp.length == 10 * 3**12


def test_derive_units_ignores_n(f9):
    dp = derive_params(CodeParams(f9, 2, Variant.UNITS))
    assert dp.length == 8 * 729
    assert "ignored" in dp.note


def test_lcm_gcd_identity(f9, f25, f81):
    for f, N in [(f9, 2), (f25, 3), (f81, 4)]:
        dp = derive_params(CodeParams(f, N))
        k = (f.q - 1) // (f.p - 1)
        assert dp.N1 * dp.N2 == N * k


def test_divisibility_guard(f9):
    with pytest.raises(ParameterError, match="does not divide"):
        derive_params(CodeParams(f9, 7))


def test_codeword_count_guard():
    # 3^40 codewords would overflow 64-bit counters
    f = Field(3, 10)
    with pytest.raises(ParameterError, match="guard"):
        derive_params(CodeParams(f, 1))


def test_base_set_is_xi_powers(f9):
    dp = derive_params(CodeParams(f9, 1))
    assert dp.base_set.tolist() == [f9.exp_code(j) for j in range(4)]


def test_base_set_single_element_edge(f9):
    dp = derive_params(CodeParams(f9, 8))
    assert dp.base_set.tolist() == [1]
    assert dp.n == 1


def test_base_set_representatives_distinct_mod_prime_units(f25):
    dp = derive_params(CodeParams(f25, 3))
    k = (f25.q - 1) // (f25.p - 1)
    residues = {f25.dlog(d) % k for d in dp.base_set.tolist()}
    assert len(residues) == dp.n


# ---------------------------------------------------------------------------
# coordinate streams
# ---------------------------------------------------------------------------

def test_stream_starts_at_one(f9):
    first = next(enumerate_coords(derive_params(CodeParams(f9, 1))))
    assert first == oracles.one(f9)


def test_stream_is_restartable(f9):
    dp = derive_params(CodeParams(f9, 1))
    a = list(itertools.islice(enumerate_coords(dp), 30))
    b = list(itertools.islice(enumerate_coords(dp), 30))
    assert a == b


def test_stream_size_and_units_lift(f9):
    dp = derive_params(CodeParams(f9, 1))
    coords = list(enumerate_coords(dp))
    assert len(coords) == 2916
    assert all(is_unit(x) for x in coords)


def test_units_stream_size(f9):
    dp = derive_params(CodeParams(f9, 1, Variant.UNITS))
    count = sum(1 for _ in enumerate_coords(dp))
    assert count == 5832 == dp.length


def test_blocks_match_stream(f9):
    dp = derive_params(CodeParams(f9, 2))
    streamed = [(x.a, x.b, x.c, x.d) for x in enumerate_coords(dp)]
    from_blocks = []
    for x0, x1, x2, x3 in coord_blocks(dp, block_size=500):
        from_blocks.extend(zip(x0.tolist(), x1.tolist(), x2.tolist(), x3.tolist()))
    assert streamed == from_blocks


def test_coord_at_index_roundtrip(f9):
    dp = derive_params(CodeParams(f9, 1))
    for idx in (0, 1, 17, 2915):
        assert coord_index(dp, coord_at(dp, idx)) == idx


@pytest.mark.parametrize("variant", [Variant.LIFT, Variant.UNITS])
def test_x0_map_built_once_per_params(f9, variant):
    # positions are read off the field's log table: 100 rounds of lookups
    # leave no q-length array cached on the DerivedParams
    dp = derive_params(CodeParams(f9, 2, variant))
    xs = [coord_at(dp, idx) for idx in (0, 100, dp.length - 1)]
    for _ in range(100):
        for idx, x in zip((0, 100, dp.length - 1), xs):
            assert coord_index(dp, x) == idx
            assert contains(dp, x)
    assert [name for name, value in dp._asdict().items()
            if isinstance(value, np.ndarray) and value.size >= dp.q] == []


@pytest.mark.parametrize("variant", [Variant.LIFT, Variant.UNITS])
def test_x0_codes_is_one_read_only_array(f9, variant):
    # the lift's x0 are the base set itself, the units' the exp table, no copy
    dp = derive_params(CodeParams(f9, 2, variant))
    x0s = dp.x0_codes()
    assert x0s.dtype == np.int64 and not x0s.flags.writeable
    if variant is Variant.LIFT:
        assert x0s is dp.base_set
    else:
        assert np.shares_memory(x0s, f9.unit_codes())
        assert x0s.tolist() == f9.unit_codes().tolist()
    assert [x0_position(dp, c) for c in x0s.tolist()] == list(range(len(x0s)))
    assert {x0_position(dp, c) for c in set(range(f9.q)) - set(x0s.tolist())} == {-1}


def test_positions_from_the_log_table_on_a_grid():
    # every code c of every field with odd p <= 13 and q <= 729, every
    # N | q - 1, both variants: the position read off the log table is c's
    # index in x0_codes(), and coord_index and contains agree with it
    points = 0
    for f in (Field(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 7) if p**m <= 729):
        for N in (d for d in range(1, f.q) if (f.q - 1) % d == 0):
            for variant in Variant:
                dp = derive_params(CodeParams(f, N, variant))
                index = {c: i for i, c in enumerate(dp.x0_codes().tolist())}
                for c in range(f.q):
                    x = RingElem(f, c, 0, 0, 0)
                    assert x0_position(dp, c) == index.get(c, -1)
                    assert contains(dp, x) == (c in index)
                    if c in index:
                        assert coord_index(dp, x) == index[c] * f.q**3
                    else:
                        with pytest.raises(ValueError, match="not in the coordinate set"):
                            coord_index(dp, x)
                points += 1
    assert points == 2 * 147


def test_derived_params_hold_no_position_table_or_int_tuple():
    # after the dual witness at (3,9): the base set is one int64 array, and
    # nothing of length q or a tuple of Python ints is kept
    from tracecodes.bounds import dual_lee_distance

    dp = derive_params(CodeParams(Field(3, 9), 1))
    dual_lee_distance(dp)
    assert isinstance(dp.base_set, np.ndarray) and len(dp.base_set) == dp.n == 9841
    kept = dp._asdict().values()
    assert not [v for v in kept if isinstance(v, np.ndarray) and v.size >= dp.q]
    assert not [v for v in kept if isinstance(v, tuple) and v and isinstance(v[0], int)]


def test_membership(f9):
    dp = derive_params(CodeParams(f9, 1))
    assert contains(dp, oracles.one(f9))
    assert not contains(dp, oracles.u(f9))  # not a unit
    # unit whose constant coordinate is not a representative
    bad = RingElem(f9, 2, 0, 0, 0)
    assert not contains(dp, bad)
    assert contains(derive_params(CodeParams(f9, 1, Variant.UNITS)), bad)


def test_scalar_multiples_leave_the_lift(f9):
    # lambda * x stays among the units for every unit scalar, but returns to
    # the lift only at lambda = 1
    dp = derive_params(CodeParams(f9, 1))
    dpu = derive_params(CodeParams(f9, 1, Variant.UNITS))
    rng = np.random.default_rng(13)
    for _ in range(50):
        idx = int(rng.integers(0, dp.length))
        x = coord_at(dp, idx)
        for lam in (1, 2):
            lx = RingElem(f9, lam, 0, 0, 0) * x
            assert contains(dpu, lx)
            assert contains(dp, lx) == (lam == 1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_zero_is_zero_word(f9):
    dp = derive_params(CodeParams(f9, 2))
    assert all(not s for s in evaluate(ring.zero(f9), dp))


def test_evaluate_is_linear(f9):
    dp = derive_params(CodeParams(f9, 2))
    rng = np.random.default_rng(14)
    for _ in range(3):
        r, s = random_element(f9, rng), random_element(f9, rng)
        summed = [a + b for a, b in zip(evaluate(r, dp), evaluate(s, dp))]
        assert summed == list(evaluate(r + s, dp))


def test_evaluation_is_injective_exhaustively(f9):
    # all 3^8 codewords pairwise distinct, by hashing the Gray streams
    dp = derive_params(CodeParams(f9, 1))
    digests = set()
    for coords in itertools.product(range(9), repeat=4):
        r = RingElem(f9, *coords)
        h = hashlib.blake2b(digest_size=16)
        for block in gray_symbols(r, dp):
            h.update(block.tobytes())
        digests.add(h.digest())
    assert len(digests) == 9**4


def test_gray_symbols_match_streamed_evaluation(f3):
    dp = derive_params(CodeParams(f3, 1))
    rng = np.random.default_rng(15)
    for _ in range(5):
        r = random_element(f3, rng)
        fast = np.concatenate([b.ravel() for b in gray_symbols(r, dp)])
        slow = gray_word(evaluate(r, dp))
        assert (fast == slow).all()


@pytest.fixture(scope="module")
def f257():
    return Field(257, 1)


def test_gray_symbols_hold_symbols_past_a_byte(f257):
    # at p = 257 a Gray symbol can be 256, which a byte would wrap to 0
    dp = derive_params(CodeParams(f257, 256))
    r = oracles.one(f257)
    fast = next(gray_symbols(r, dp))[:1000].ravel()
    slow = gray_word(big_trace(r * x)
                     for x in itertools.islice(enumerate_coords(dp), 1000))
    assert (slow == 256).any()
    assert (fast == slow).all()


def _reference_gray_symbols(r, dp):
    """Oracle: decode every flat stream position with coord_blocks and
    gather the four trace terms coordinate by coordinate."""
    p, q = dp.p, dp.q
    T0, T1, T2, T3 = (dp.field.trmul_flat.reshape(q, q)[c] for c in r.coords())
    for X0, X1, X2, X3 in coord_blocks(dp):
        t1 = T0[X0]
        t2 = T0[X1] + T1[X0]
        t3 = T0[X2] + T2[X0]
        t4 = T0[X3] + T1[X2] + T2[X1] + T3[X0]
        yield np.stack([t4, t3 + t4, t2 + t4, t1 + t2 + t3 + t4], axis=1) % p


def _leading_symbols(blocks, count):
    """The first `count` coordinates of a block stream, as one (count, 4) array."""
    taken, have = [], 0
    for block in blocks:
        taken.append(block)
        have += len(block)
        if have >= count:
            break
    return np.concatenate(taken)[:count]


def _codeword_rows(q, count, seed):
    """Every codeword row when count is None; otherwise `count` seeded rows,
    half of them in the maximal ideal and a quarter on the uv-line."""
    if count is None:
        return list(itertools.product(range(q), repeat=4))
    rows = np.random.default_rng(seed).integers(0, q, size=(count, 4))
    rows[:count // 2, 0] = 0
    rows[:count // 4, 1:3] = 0
    rows[0] = 0
    return rows.tolist()


@pytest.mark.parametrize("p,m,N,variant,count", [
    (3, 1, 1, "lift", None), (3, 1, 1, "units", None),
    (3, 2, 1, "lift", 40), (3, 2, 2, "lift", 40), (3, 2, 4, "lift", 40),
    (5, 2, 3, "lift", 16), (5, 2, 3, "units", 8), (7, 1, 3, "lift", 40),
    (3, 3, 1, "lift", 8), (3, 3, 13, "lift", 16),
])
def test_gray_symbols_match_flat_decoding_oracle(p, m, N, variant, count):
    field = Field(p, m)
    dp = derive_params(CodeParams(field, N, Variant(variant)))
    for coords in _codeword_rows(field.q, count, seed=p * 100 + m * 10 + N):
        r = RingElem(field, *coords)
        blocks = list(gray_symbols(r, dp))
        assert all(b.dtype == np.int16 and b.shape[1] == 4 for b in blocks)
        fast = np.concatenate(blocks)
        slow = np.concatenate(list(_reference_gray_symbols(r, dp)))
        assert fast.shape == (dp.length, 4)
        assert np.array_equal(fast, slow)


def test_gray_symbols_ragged_last_block_matches_oracle(f27):
    # q = 27: a block holds 2^14 // 27 = 606 (x1, x2) pairs, which do not
    # divide the 729 pairs of one x0, so each x0 ends in a shorter block
    dp = derive_params(CodeParams(f27, 1))
    r = RingElem(f27, 5, 11, 17, 23)
    sizes = [len(b) for b in gray_symbols(r, dp)]
    assert sizes[:2] == [606 * 27, 123 * 27]
    assert len(sizes) == 2 * dp.n
    fast = np.concatenate(list(gray_symbols(r, dp)))
    assert np.array_equal(fast, np.concatenate(list(_reference_gray_symbols(r, dp))))


@pytest.mark.parametrize("p,N", [(131, 1), (257, 256)])
def test_gray_symbols_past_a_byte_match_oracle(p, N):
    field = Field(p, 1)
    dp = derive_params(CodeParams(field, N))
    count = 3 * 2**14
    for coords in ((1, 0, 0, 0), (0, 0, 0, p - 1), (p - 2, 3, p - 5, 7)):
        r = RingElem(field, *coords)
        fast = _leading_symbols(gray_symbols(r, dp), count)
        slow = _leading_symbols(_reference_gray_symbols(r, dp), count)
        assert np.array_equal(fast, slow)
    assert fast.max() == p - 1


def _slot_bincount(blocks, p):
    """Per-slot value counts of a stream of (block, 4) Gray-symbol arrays."""
    counts = np.zeros((4, p), dtype=np.int64)
    for block in blocks:
        for k in range(4):
            counts[k] += np.bincount(block[:, k], minlength=p)
    return counts


@pytest.mark.parametrize("p,m,N,variant,rows", [
    (3, 1, 1, "lift", None), (3, 1, 1, "units", None),
    (3, 2, 1, "lift", 16), (3, 2, 2, "lift", 16), (3, 2, 4, "lift", 16),
    (5, 2, 3, "lift", 8), (5, 2, 3, "units", 8), (7, 1, 3, "units", 16),
    (3, 3, 1, "lift", 8), (3, 3, 13, "lift", 8), (3, 4, 4, "lift", 8),
    # q^2 > _BLOCK_POSITIONS: the one x0 splits into runs of pairs
    (131, 1, 1, "lift", [(1, 0, 0, 0), (0, 0, 0, 130), (0, 3, 126, 7), (129, 3, 126, 7)]),
    (257, 1, 256, "lift", [(0, 3, 0, 5), (255, 3, 252, 7)]),
])
def test_gray_slot_counts_match_symbol_bincount(p, m, N, variant, rows):
    # rows cover r0 = 0, the uv-line, the off-line ideal and the units; by
    # Theorem E each of the four slots of the stream counts as the uv-slot,
    # and the Gray symbol histogram is their sum
    field = Field(p, m)
    dp = derive_params(CodeParams(field, N, Variant(variant)))
    if not isinstance(rows, list):
        rows = _codeword_rows(field.q, rows, seed=p * 100 + m * 10 + N)
    batch = uv_slot_counts(rows, dp)
    assert batch.dtype == np.int64 and batch.shape == (len(rows), p)
    histogram = gray_symbol_histogram(rows, dp)
    for coords, counts, total in zip(rows, batch, histogram):
        r = RingElem(field, *coords)
        slots = _slot_bincount(gray_symbols(r, dp), p)
        assert all(np.array_equal(counts, slot) for slot in slots)
        assert np.array_equal(total, slots.sum(axis=0))
        if dp.length <= 2**16:
            # the flat decoder shares no residue arithmetic with either side
            flat = _slot_bincount(_reference_gray_symbols(r, dp), p)
            assert np.array_equal(slots, flat)


@pytest.mark.parametrize("p,m,count", [(3, 3, 460), (131, 1, 50)])
def test_gray_slot_counts_batch_equals_single_rows(p, m, count):
    # a batch counted in several chunks equals one call per row
    field = Field(p, m)
    dp = derive_params(CodeParams(field, 1))
    assert count > 2 * slot_batch_rows(dp)
    rows = _codeword_rows(field.q, count, seed=p + m)
    batch = uv_slot_counts(rows, dp)
    assert batch.shape == (count, p)
    assert np.array_equal(batch, np.concatenate([uv_slot_counts([r], dp) for r in rows]))


@pytest.mark.parametrize("p,m,N,variant,plus_output", [
    (3, 3, 1, "lift", True), (3, 6, 1, "lift", True),
    (3, 8, 1640, "lift", True), (3, 7, 1, "units", True),
    # at q = p the doubled (rows, 2p) counts lead
    (61, 1, 1, "lift", False), (131, 1, 1, "lift", False), (1021, 1, 1, "lift", False),
])
def test_gray_slot_counts_batch_peak_is_bounded(p, m, N, variant, plus_output):
    # one full batch of uv-slot counts peaks (tracemalloc) within 1.25 int64
    # blocks of _BLOCK_POSITIONS entries: a quarter block of one axis's
    # products at a time, and four (rows, p) histograms
    import tracemalloc

    from tracecodes.construction import _BLOCK_POSITIONS

    dp = derive_params(CodeParams(Field(p, m), N, Variant(variant)))
    rows = _codeword_rows(dp.q, slot_batch_rows(dp), seed=p + m + N)
    uv_slot_counts(rows, dp)
    tracemalloc.start()
    try:
        counts = uv_slot_counts(rows, dp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 1.25 * 8 * _BLOCK_POSITIONS + (counts.nbytes if plus_output else 0)
    assert peak <= bound, (peak, bound)


def test_dual_and_identity_suite_build_no_lex_table(monkeypatch):
    # dual's lex positions are the integers c*p^(m-1) of codes c < p and the
    # identity suite's histograms run x over np.arange(q): neither run calls
    # Field.lex_code, and the field keeps no array beyond its three tables
    from tracecodes import dual_lee_distance, verify_identities

    real, sizes = Field.lex_code, []

    def recorded(field, i):
        sizes.append(np.size(i))
        return real(field, i)
    monkeypatch.setattr(Field, "lex_code", recorded)
    for (p, m), run in (((3, 9), lambda dp: dual_lee_distance(dp).verified),
                        ((3, 6), lambda dp: verify_identities(dp, trials=5).ok)):
        dp = derive_params(CodeParams(Field(p, m), 1))
        assert run(dp)
        kept = [name for name, value in vars(dp.field).items() if isinstance(value, np.ndarray)]
        assert sorted(kept) == ["_exp_np", "_log_np", "_trace_np"]
    assert sizes == []
    Field(3, 1).lex_code(2)  # the recorder is live
    assert sizes == [1]


def test_gray_slot_counts_reads_a_flat_row_as_one_row():
    dp = derive_params(CodeParams(Field(3, 2), 1))
    counts = uv_slot_counts((1, 2, 0, 5), dp)
    assert counts.shape == (1, 3)
    assert np.array_equal(counts, uv_slot_counts([(1, 2, 0, 5)], dp))


def test_gray_slot_counts_at_the_largest_table_prime():
    # O(n0 + q + p^2) per codeword: a unit row at p = 4093 counts in under
    # 2 s; a != 0 puts a nonzero coefficient on the x3 axis of the
    # uv-slot, so it takes every value length/p times
    field = Field(4093, 1)
    dp = derive_params(CodeParams(field, 1))
    start = time.perf_counter()
    counts = uv_slot_counts([(1, 2, 3, 4)], dp)
    assert time.perf_counter() - start < 2
    assert counts.dtype == np.int64
    assert np.array_equal(counts, np.full((1, 4093), dp.length // 4093))


# ---------------------------------------------------------------------------
# field subcode
# ---------------------------------------------------------------------------

def test_subcode_zero_word(f9):
    assert eval_field_subcode(0, derive_params(CodeParams(f9, 1))) == (0, 0, 0, 0)


def test_subcode_constant_weight_three(f9):
    dp = derive_params(CodeParams(f9, 1))
    for b in range(1, 9):
        word = eval_field_subcode(b, dp)
        assert sum(1 for s in word if s) == 3


def test_subcode_weight_equals_n_minus_zero_traces(f25):
    dp = derive_params(CodeParams(f25, 3))
    for b in range(1, 25):
        word = eval_field_subcode(b, dp)
        weight = sum(1 for s in word if s)
        assert weight == dp.n - dp.class_counts[f25.dlog(b) % dp.N2]


def test_subcode_at_quartic_parameters(f81):
    dp = derive_params(CodeParams(f81, 4))
    words = {eval_field_subcode(b, dp) for b in range(f81.q)}
    assert len(words) == 81
    assert all(len(w) == 10 for w in words)
    assert subcode_distribution(dp) == {0: 1, 6: 60, 9: 20}


def test_subcode_counts_agree_on_the_grid():
    # the field subcode three ways at every lift point with odd p <= 13,
    # q <= 729 and N | q - 1, and at the units variant of each field (its
    # constant coordinates are all q - 1 units): subcode_distribution (the
    # class counts), the scalar eval_field_subcode words, and the
    # kernel's uv-line rows divided by 4q^3 together with the zero row
    from collections import Counter

    from tracecodes import analysis

    points = 0
    for p in (3, 5, 7, 11, 13):
        for m in itertools.takewhile(lambda m: p**m <= 729, itertools.count(1)):
            field = Field(p, m)
            q = field.q
            lifts = [(N, Variant.LIFT) for N in range(1, q) if (q - 1) % N == 0]
            for N, variant in lifts + [(1, Variant.UNITS)]:
                dp = derive_params(CodeParams(field, N, variant))
                words = [eval_field_subcode(b, dp) for b in range(q)]
                # per code: the spread class count is the word's number of zero symbols
                assert spread_class_counts(dp).tolist() == [w.count(0) for w in words], \
                    (p, m, N, variant)
                scalar = Counter(len(w) - w.count(0) for w in words)
                uv_rows = [(0, 0, 0, d) for d in range(q)]
                kernel = Counter((analysis._weights_serial(dp, uv_rows) // (4 * q**3)).tolist())
                assert subcode_distribution(dp) == scalar == kernel, (p, m, N, variant)
                points += 1
    assert points == 147 + 17


def _grid():
    """(field, N, variant) at every odd p <= 61 with q <= 4096: the lift at
    every N | q - 1 (651 points) and the units of each field (46), one
    Field per (p, m)."""
    for p in filter(_is_prime, range(3, 62, 2)):
        for m in itertools.takewhile(lambda m: p**m <= 4096, itertools.count(1)):
            field = Field(p, m)
            yield from ((field, N, Variant.LIFT) for N in range(1, field.q)
                        if (field.q - 1) % N == 0)
            yield field, 1, Variant.UNITS


def test_class_counts_spread_to_the_window_sum_oracle_on_the_grid():
    # the N2 class counts, spread over the codes by dlog(c) mod N2, equal
    # the per-code window sums at every grid point, both variants
    points, mismatched = 0, []
    for field, N, variant in _grid():
        dp = derive_params(CodeParams(field, N, variant))
        step, count = (N, dp.n) if variant is Variant.LIFT else (1, field.q - 1)
        if not np.array_equal(spread_class_counts(dp), zero_trace_counts(field, step, count)):
            mismatched.append((field.p, field.m, N, variant))
        points += 1
    assert (points, mismatched) == (697, [])


def test_base_set_check_refuses_collapsing_representatives():
    # k = (q-1)/(p-1) = 40 at (3,4): 2*20 and 4*10 are 0 mod 40, so the
    # last representative is an F_p* multiple of the first
    field = Field(3, 4)
    for N, n in ((2, 21), (4, 20)):
        assert not cosets_distinct_by_sort(field, N, n)
        with pytest.raises(AssertionError, match="collapse modulo F_p"):
            coset_representatives(field, N, n)


def test_base_set_check_agrees_with_the_sort_on_the_grid():
    # at every lift grid point the n representatives are distinct by both
    # checks, and one more (j = n, whose N*n = N1 is 0 mod (q-1)/(p-1))
    # collapses by both
    points = 0
    for field, N, variant in _grid():
        if variant is Variant.LIFT:
            n = derive_params(CodeParams(field, N)).n
            assert cosets_distinct_by_sort(field, N, n)
            assert coset_representatives(field, N, n).tolist() == \
                field.unit_codes()[:N * n:N].tolist()
            assert not cosets_distinct_by_sort(field, N, n + 1)
            with pytest.raises(AssertionError, match="collapse"):
                coset_representatives(field, N, n + 1)
            points += 1
    assert points == 651


def test_derive_params_traces_little_memory():
    # at (3,9), n = 9841: the base-set check marks residues in a bool array
    # of (q-1)/(p-1) entries, and the class count reads the trace table, each
    # a block at a time; N2 = 1, so Z_0 = (q/p - 1)/(p - 1) = 3280, read-only
    import tracemalloc

    field = Field(3, 9)
    derive_params(CodeParams(field, 1))
    tracemalloc.start()
    try:
        dp = derive_params(CodeParams(field, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100_000, peak
    assert dp.class_counts.tolist() == [(3**8 - 1) // 2] and not dp.class_counts.flags.writeable


def test_analyze_keeps_no_q_length_array_outside_the_field(monkeypatch, capsys):
    # after analyze at (3,9,1) the derived parameters hold only the N2 class
    # counts and views of the field's tables: no array of q - 1 or more
    # entries of their own
    from tracecodes import cli

    captured = []
    real = cli.derive_params

    def capture(params):
        captured.append(real(params))
        return captured[-1]
    monkeypatch.setattr(cli, "derive_params", capture)
    assert cli.main(["analyze", "-p", "3", "-m", "9", "--threads", "1"]) == 0
    capsys.readouterr()
    [dp] = captured
    field = dp.field
    tables = (field._exp_np, field._log_np, field._trace_np)
    held = [(name, value) for name, value in (dp._asdict() | vars(field)).items()
            if isinstance(value, np.ndarray) and value.size >= field.q - 1]
    assert held and all(any(np.shares_memory(value, t) for t in tables) for _, value in held)
    assert dp.class_counts.shape == (1,)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_gray_words(tmp_path, f3):
    dp = derive_params(CodeParams(f3, 1))
    rs = [ring.zero(f3), oracles.one(f3), oracles.uv(f3)]
    data_path, sidecar_path = export_gray_words(dp, rs, tmp_path / "words.bin")
    blob = (tmp_path / "words.bin").read_bytes()
    assert len(blob) == 3 * dp.gray_length
    # row of the zero codeword is all zero bytes
    assert set(blob[:dp.gray_length]) == {0}
    # rows agree with the streamed evaluation
    row_one = np.frombuffer(blob[dp.gray_length:2 * dp.gray_length], dtype=np.uint8)
    assert (row_one == gray_word(evaluate(oracles.one(f3), dp))).all()
    sidecar = json.loads((tmp_path / "words.bin.json").read_text())
    assert sidecar["p"] == 3 and sidecar["m"] == 1
    assert sidecar["variant"] == "lift"
    assert sidecar["ordering"] == "x0-major/lex-v1"
    assert sidecar["rows"] == 3
    assert sidecar["r_coords"][2] == [0, 0, 0, 1]
    # deterministic: exporting again gives identical bytes
    export_gray_words(dp, rs, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == blob


@pytest.mark.parametrize("p,m,N,variant,data_digest,sidecar_digest", [
    (3, 2, 1, "lift", "9e67f631b785a7dfd7a78be12ef8247ad835e32fcf7c9e46986137eb4acf0474",
     "cc51b0b42b192735107c4ea8a0540fa12c950ffa5bc960cbe07355c04c0ac709"),
    (5, 2, 3, "units", "b8706bf8045d1f1ac380ff6c83961d921836021e531b583f529506ae6679edd9",
     "441ed4a3029df0a8467bd7b3091098ecbb20805cec716561719074ae7589a497"),
    (7, 1, 3, "lift", "18c1dadcbf76be8d191add1e5a3ea23a4a7dcf1093dab0d834a826b447ae1dd3",
     "7c796f6895469a9ee3edbbeb59910df197f1d7e494abf91313769835eecb5136"),
], ids=["3-2-1-lift", "5-2-3-units", "7-1-3-lift"])
def test_export_digests_pinned(tmp_path, p, m, N, variant, data_digest, sidecar_digest):
    # digests of the exports written by the flat-position decoder
    field = Field(p, m)
    dp = derive_params(CodeParams(field, N, Variant(variant)))
    rng = np.random.default_rng(3)
    rs = [RingElem(field, *(int(x) for x in rng.integers(0, field.q, 4)))
          for _ in range(5)]
    data_path, sidecar_path = export_gray_words(dp, rs, tmp_path / "words.bin")
    with open(data_path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == data_digest
    with open(sidecar_path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == sidecar_digest


def test_export_refuses_symbols_past_a_byte(tmp_path, f257):
    dp = derive_params(CodeParams(f257, 256))
    with pytest.raises(ParameterError, match="one byte per symbol"):
        export_gray_words(dp, [oracles.one(f257)], tmp_path / "words.bin")
    assert not (tmp_path / "words.bin").exists()
