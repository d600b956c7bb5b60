"""Defining sets, coordinate streams and the uv-slot counts of codewords.

Parameters (p, m, N) fix the field F_q, q = p^m, and the subgroup data
N1 = lcm(N, (q-1)/(p-1)), N2 = gcd(N, (q-1)/(p-1)), n = N1/N.  The base
set D = {xi^(N*j) : j = 0..n-1} is a complete set of coset representatives
of C_0^{N2} modulo F_p*.  Two coordinate sets are supported:

* lift:  all ring elements whose constant coordinate lies in D and whose
  nilpotent coordinates are free, size n * q^3;
* units: the full unit group, size (q-1) * q^3.

Codewords are evaluations x -> Tr(r*x) over the coordinate set, one base
ring symbol per coordinate (oracles.evaluate is that scalar map), and
uv_slot_counts counts their uv-coordinates, Gray slot 0, by the rule
ring.SLOT_TERMS.
Coordinates are streamed in a fixed order (constant coordinate first
through D or through xi-powers, then each nilpotent coordinate ascending
in coefficient-vector lexicographic order) so exports
(oracles.export_gray_words) are reproducible; weight data never depends on
the order.  Streams are restartable: each block is decoded from its own stream
position, so nothing is materialized beyond one block.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from .field import Field
from .params import Variant, integer_params
from .ring import SLOT_TERMS, RingElem

#: Stream positions per block of coord_blocks and (rounded down to whole
#: x3 axes) of oracles.gray_symbols.
_BLOCK_POSITIONS = 1 << 14


class CodeParams(NamedTuple):
    """User-facing parameters: field, divisor N of q - 1, coordinate-set variant."""

    field: Field
    N: int = 1
    variant: Variant = Variant.LIFT


class DerivedParams(NamedTuple):
    """Everything derived from CodeParams that the rest of the package consumes.

    `dimension` is the F_p-dimension k of the code, the rank of r -> c(r).
    Off the uv-line no codeword weighs 0 (the theorem in
    analysis._weights_serial), so the kernel is {d*uv : Tr(d*x0) = 0 for
    every x0}.  For the lift, F_p^* times the base set is <xi^N2>, whose
    F_p-span is the subfield of degree e = ord of p modulo (q-1)/N2, so
    k = 3m + e and p^(m-e) codewords weigh 0; for the units, k = 4m.
    `base_set` is the lift's x0_codes(), a read-only view; no q-entry table
    is kept: zero traces are `class_counts`: Z_r, r < N2 (read-only int64),
    so every c != 0 has Z[dlog(c) mod N2] zeros among Tr(c*x0), x0 in
    x0_codes().  derive_params forms them: the lift's are
    lift_class_counts, one O(q) pass; the units' are q/p - 1, from no table
    (Lidl & Niederreiter, Sec. 2.3).  The integer fields (N1 to note) are
    params.integer_params, which reads no table.  Two DerivedParams are
    never compared: equality would compare the arrays.
    """

    params: CodeParams
    N1: int
    N2: int
    n: int
    base_set: np.ndarray
    length: int
    gray_length: int
    dimension: int
    class_counts: np.ndarray
    note: str = ""

    @property
    def field(self) -> Field:
        return self.params.field

    @property
    def variant(self) -> Variant:
        return self.params.variant

    @property
    def N(self) -> int:
        return self.params.N

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def codeword_count(self) -> int:
        return self.q**4

    def x0_codes(self) -> np.ndarray:
        """The constant coordinates in stream order: the base set, or every
        unit for the units variant (a read-only int64 array, no copy)."""
        return self.field.unit_codes() if self.variant is Variant.UNITS else self.base_set


def lift_class_counts(field: Field, n2: int) -> np.ndarray:
    """The lift's class counts Z_r, r < n2 (int64), which depend on N only
    through N2 = n2, as F_p* times the base set is <xi^N2>: Z_r is
    #{k = r mod n2 : Tr(xi^k) = 0}/(p - 1), one pass over the trace table,
    a block of whole rows of n2 exponents at a time."""
    step = max(1, _BLOCK_POSITIONS // n2) * n2
    zeros = sum((field.trace_table[field.unit_codes()[lo:lo + step]] == 0)
                .reshape(-1, n2).sum(axis=0) for lo in range(0, field.order, step))
    counts, rest = np.divmod(zeros, field.p - 1)
    if rest.any():
        raise AssertionError("a class's zero traces are not a multiple of p - 1")
    return counts


def coset_representatives(field: Field, N: int, n: int) -> np.ndarray:
    """The base set {xi^(N*j) : j < n}, a read-only int64 view of the exp
    table (N*n = N1 divides q - 1), checked inequivalent modulo F_p*: the
    residues N*j mod (q-1)/(p-1) mark n entries of a bool array, blockwise."""
    marked = np.zeros((field.q - 1) // (field.p - 1), dtype=bool)
    for lo in range(0, n, _BLOCK_POSITIONS):
        residues = np.arange(N * lo, N * min(lo + _BLOCK_POSITIONS, n), N)
        marked[np.remainder(residues, len(marked), out=residues)] = True
    if np.count_nonzero(marked) != n:
        raise AssertionError("coset representatives collapse modulo F_p*")
    return field.unit_codes()[:N * n:N]


def derive_params(params: CodeParams | DerivedParams) -> DerivedParams:
    """The one place a CodeParams becomes the DerivedParams that every other
    function of the package takes.  A DerivedParams comes back as it is."""
    if isinstance(params, DerivedParams):
        return params
    field = params.field
    ints = integer_params(field.p, field.m, params.N, params.variant)
    base = coset_representatives(field, params.N, ints.n)
    if params.variant is Variant.UNITS:
        counts = np.full(ints.N2, field.q // field.p - 1)
    else:
        counts = lift_class_counts(field, ints.N2)
    counts.flags.writeable = False
    return DerivedParams(params=params, N1=ints.N1, N2=ints.N2, n=ints.n, base_set=base,
                         length=ints.length, gray_length=ints.gray_length,
                         dimension=ints.dimension, class_counts=counts, note=ints.note)


# ---------------------------------------------------------------------------
# Coordinate streams
# ---------------------------------------------------------------------------

def _decode(dp: DerivedParams, flat):
    """Codes (x0, x1, x2, x3) at flat stream positions, an int or an int64
    array: x0 major through x0_codes(), then x1, x2 and x3 by
    Field.lex_code.  The one decoder of the order."""
    q, lex = dp.q, dp.field.lex_code
    i0, rest = divmod(flat, q**3)
    i1, rest = divmod(rest, q**2)
    i2, i3 = divmod(rest, q)
    return dp.x0_codes()[i0], lex(i1), lex(i2), lex(i3)


def coord_at(dp: DerivedParams, index: int) -> RingElem:
    """The coordinate at a flat stream position."""
    if not 0 <= index < dp.length:
        raise IndexError(f"coordinate index {index} outside [0, {dp.length})")
    return RingElem(dp.field, *(int(code) for code in _decode(dp, index)))


def coord_blocks(dp: DerivedParams, block_size: int = _BLOCK_POSITIONS):
    """Yield (X0, X1, X2, X3) int64 code arrays covering the stream in order.

    Blocks are decoded from flat positions, so nothing is materialized
    beyond one block.  This is the flat-position decoder the tests use as
    the oracle for oracles.gray_symbols, which decodes only (x1, x2) pairs.
    """
    for start in range(0, dp.length, block_size):
        yield _decode(dp, np.arange(start, min(start + block_size, dp.length),
                                    dtype=np.int64))


def slot_batch_rows(dp: DerivedParams) -> int:
    """Rows uv_slot_counts counts at once, sized to a quarter block: their
    products over one axis, or their doubled (rows, 2p) counts, hold at
    most _BLOCK_POSITIONS / 4 entries."""
    return max(1, _BLOCK_POSITIONS // (4 * max(len(dp.x0_codes()), dp.q, 2 * dp.p)))


def uv_slot_counts(rows, dp: DerivedParams) -> np.ndarray:
    """(K, p) int64 counts of each value of F_p in the uv-coordinate
    Tr(d*x0 + c*x1 + b*x2 + a*x3), Gray slot 0, of the codewords of the K
    rows (a, b, c, d); each row sums to the code length.  By Theorem E
    (analysis) every Gray slot has these counts.

    Axis x_t adds Tr(r_j*x_t), (j,) = ring.SLOT_TERMS[t][0], so the count is
    the cyclic convolution over Z/p of the four axes' histograms, x0 over
    x0_codes() and the F_q axes over np.arange(q) (the order is immaterial),
    each from one coordinate's int32 trace products.  Every count is
    explicit, never the kernel's theorem.  Exact int64, one shifted copy of
    the doubled counts per value an axis takes: O(n0 + q + p^2) work per
    row, numpy calls per batch of slot_batch_rows."""
    p, rows, step = dp.p, np.asarray(rows, dtype=np.int64).reshape(-1, 4), slot_batch_rows(dp)
    if len(rows) > step:
        return np.concatenate([uv_slot_counts(rows[i:i + step], dp)
                               for i in range(0, len(rows), step)])
    offsets = (p * np.arange(len(rows), dtype=np.int32))[:, None]
    fq = np.arange(dp.q, dtype=np.int32)
    counts = None  # x0 last: a small base set takes few values, so few shifts
    for points, ((j,), *_) in zip((fq, fq, fq, dp.x0_codes()), SLOT_TERMS[::-1]):
        hist = np.bincount((dp.field.trace_products(rows[:, j, None], points) + offsets).ravel(),
                           minlength=len(rows) * p).reshape(-1, p)
        if counts is None:  # the x3 axis
            counts = hist
            continue
        # doubled[:, p - s + i] = counts[:, (i - s) % p]
        doubled = np.concatenate([counts, counts], axis=1)
        counts = np.zeros_like(counts)
        for s in np.flatnonzero(hist.any(axis=0)):
            counts += hist[:, s, None] * doubled[:, p - s:2 * p - s]
    return counts


# ---------------------------------------------------------------------------
# The field subcode: length-n words (trace(b*d))_{d in base set}
# ---------------------------------------------------------------------------

def subcode_distribution(dp: DerivedParams) -> dict[int, int]:
    """Exact Hamming weight distribution of the field subcode over all q
    inputs, on the constant coordinates x0_codes() (length n for the lift,
    q - 1 for the units): b = 0 gives the zero word, and the (q-1)/N2 inputs
    of a class weigh the length minus its class count (np.bincount, Python ints)."""
    out = Counter({0: 1})
    for zeros, classes in enumerate(np.bincount(dp.class_counts).tolist()):
        out[len(dp.x0_codes()) - zeros] += classes * (dp.q - 1) // dp.N2
    return dict(sorted((+out).items()))  # unary + drops the weights no class takes
