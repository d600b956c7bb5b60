"""The paths that no CLI command runs: brute-force and scalar oracles, the
Gray-word export, and the helpers that tests and demos use.

A codeword is the evaluation x -> Tr(r*x) over the coordinate set; the
package weighs codewords by the kernel's theorem and counts one Gray slot
by convolution (Theorem E), so the definition itself lives here, as
`evaluate` and the symbol stream `gray_symbols` (its four slots from
ring.SUBSETS and ring.GRAY), for the tests to compare against.  Neither
``tracecodes/__init__.py`` nor the CLI imports this module: import it as
``tracecodes.oracles``.  Oracles that only the tests use stay in the tests.
"""

from __future__ import annotations

import cmath
import enum
import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .construction import _BLOCK_POSITIONS, DerivedParams, coord_at, coord_blocks
from .errors import ParameterError
from .field import Field
from .ring import GRAY, SUBSETS, RingElem, gray, lee_weight, zero as ring_zero


class RingClass(enum.Enum):
    ZERO = "zero"
    UV_LINE = "uv-line"
    OTHER_MAXIMAL = "other-maximal"
    UNIT = "unit"


def one(field: Field) -> RingElem:
    return RingElem(field, 1, 0, 0, 0)


def u(field: Field) -> RingElem:
    return RingElem(field, 0, 1, 0, 0)


def v(field: Field) -> RingElem:
    return RingElem(field, 0, 0, 1, 0)


def uv(field: Field) -> RingElem:
    return RingElem(field, 0, 0, 0, 1)


def frobenius(r: RingElem) -> RingElem:
    """Coordinatewise p-th power, a^p = xi^(p log a) and 0^p = 0; a ring
    automorphism of order m."""
    f = r.field
    return RingElem(f, *(f.exp_code(f.dlog(x) * f.p) if x else 0 for x in r.coords()))


def big_trace(r: RingElem) -> RingElem:
    """Coordinatewise field trace: a base ring element over the same field.

    Linear over the base ring: scalars with prime-field coordinates
    commute out.
    """
    f = r.field
    return RingElem(f, *(int(f.trace_table[x]) for x in r.coords()))


def classify(r: RingElem) -> RingClass:
    if r.a:
        return RingClass.UNIT
    if r.b == 0 and r.c == 0:
        return RingClass.UV_LINE if r.d else RingClass.ZERO
    return RingClass.OTHER_MAXIMAL


def gray_word(symbols) -> np.ndarray:
    """Gray image of a vector of base ring elements, flattened (4x length)."""
    out = []
    for s in symbols:
        out.extend(gray(s))
    return np.asarray(out, dtype=np.int64)


def lee_weight_word(symbols) -> int:
    return sum(lee_weight(s) for s in symbols)


def random_element(field: Field, rng: np.random.Generator) -> RingElem:
    q = field.q
    a, b, c, d = (int(x) for x in rng.integers(0, q, size=4))
    return RingElem(field, a, b, c, d)


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

    def __call__(self, x: int) -> complex:
        if x == 0:
            raise ValueError("multiplicative characters are undefined at zero")
        k = self.field.dlog(x)
        return cmath.exp(2j * cmath.pi * self.index * k / self.order)


def cyclotomic_class(field: Field, i: int, order: int) -> frozenset[int]:
    """The coset xi^i * <xi^order> inside the multiplicative group."""
    if order < 1 or (field.q - 1) % order != 0:
        raise ParameterError(f"class order {order} does not divide q - 1")
    if not 0 <= i < order:
        raise ParameterError(f"class index {i} outside [0, {order})")
    size = (field.q - 1) // order
    return frozenset(field.exp_code(i + order * k) for k in range(size))


ORDERING_TAG = "x0-major/lex-v1"


def enumerate_coords(dp: DerivedParams) -> Iterator[RingElem]:
    """Stream the coordinate set in the fixed deterministic order."""
    for block in coord_blocks(dp):
        for codes in zip(*(axis.tolist() for axis in block)):
            yield RingElem(dp.field, *codes)


def evaluate(r: RingElem, dp: DerivedParams) -> Iterator[RingElem]:
    """Stream the codeword of r: base ring symbols Tr(r*x), x over the
    coordinate set.  Linear in r; never materialized."""
    for x in enumerate_coords(dp):
        yield big_trace(r * x)


def _axis_terms(r: RingElem, dp: DerivedParams) -> list[np.ndarray]:
    """Per-axis terms of the four Gray slots of the codeword of r: int64
    arrays of shape (4, n0) over x0_codes() and (4, q) over the lex order
    (Field.lex_code) for the x1, x2 and x3 axes, in [0, p).  Slot k of
    (x0, x1, x2, x3) is the sum of the four axes' k-th terms, mod p.

    By the product rule, axis x_t puts Tr(r_(s^t) * x_t) on each monomial s
    with t in ring.SUBSETS[s]; the Gray map is linear, so each axis's part
    goes through ring.GRAY on its own.  ring.SLOT_TERMS is not read here.
    """
    p, field = dp.p, dp.field
    coords = np.array(r.coords(), dtype=np.int64)[:, None]
    x0 = field.trace_products(coords, dp.x0_codes()).astype(np.int64)
    fq = field.trace_products(coords, field.lex_code(np.arange(dp.q))).astype(np.int64)
    terms = []
    for t, products in enumerate((x0, fq, fq, fq)):
        zero = np.zeros_like(products[0])
        monomials = [products[s ^ t] if t in SUBSETS[s] else zero for s in range(4)]
        terms.append(np.stack([sum(monomials[i] for i in slots) for slots in GRAY]) % p)
    return terms


def gray_symbols(r: RingElem, dp: DerivedParams) -> Iterator[np.ndarray]:
    """Stream the Gray image of the codeword of r as (block, 4) int16
    arrays in [0, p): the export path and the oracle of Theorem E, whose
    four slots each count as construction.uv_slot_counts.

    x3 is the innermost stream axis, so a block is one x0 and a run of
    (x1, x2) pairs times the full x3 axis, each slot a row gather, by the
    pair's residue, from the (p, q) table of shifted x3 traces.
    """
    p, q = dp.p, dp.q
    X0, X1, X2, X3 = _axis_terms(r, dp)
    # shifted[c, i] = (c + trace(r0*x3)) mod p, x3 the i-th element in lex order
    shifted = ((np.arange(p)[:, None] + X3[0]) % p).astype(np.int16)
    pairs = max(1, _BLOCK_POSITIONS // q)
    for t0 in X0.T:
        for start in range(0, q * q, pairs):
            i1, i2 = np.divmod(np.arange(start, min(start + pairs, q * q)), q)
            res = (t0[:, None] + X1[:, i1] + X2[:, i2]) % p
            yield shifted[res.T].transpose(0, 2, 1).reshape(-1, 4)


def export_gray_words(dp: DerivedParams, rs, path) -> tuple[str, str]:
    """Write Gray-mapped codewords as flat binary (one byte per symbol, one
    row per codeword) plus a JSON sidecar pinning the parameters and the
    ordering version tag.  Returns (data_path, sidecar_path).

    A byte holds symbols up to 255, so p > 256 is refused.
    """
    if dp.p > 256:
        raise ParameterError(
            "Gray-word export writes one byte per symbol; p > 256 does not fit"
        )
    rs = list(rs)
    path = str(path)
    with open(path, "wb") as fh:
        for r in rs:
            for block in gray_symbols(r, dp):
                fh.write(block.astype(np.uint8).tobytes())
    sidecar = {
        "p": dp.p,
        "m": dp.m,
        "N": dp.params.N,
        "variant": dp.variant.value,
        "modulus": list(dp.field.modulus),
        "ordering": ORDERING_TAG,
        "rows": len(rs),
        "row_symbols": dp.gray_length,
        "r_coords": [list(r.coords()) for r in rs],
    }
    sidecar_path = path + ".json"
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
    return path, sidecar_path


def syndrome(dp: DerivedParams, support) -> RingElem:
    """Ring sum of y_x * x over a sparse vector given as (coordinate index,
    base ring value over dp.field) pairs: zero exactly when the vector is
    dual to the code (the syndrome characterization in tracecodes.bounds)."""
    total = ring_zero(dp.field)
    for index, value in support:
        total = total + value * coord_at(dp, index)
    return total


def eval_field_subcode(b: int, dp: DerivedParams) -> tuple[int, ...]:
    """The prime-field word (trace(b*d)) over the constant coordinates d
    in x0_codes() (the base set, or every unit for the units variant), one
    scalar Field.mul per point: the scalar oracle of
    construction.subcode_distribution.

    Its Hamming weight is its length minus the number of zero traces of b
    over those points.
    """
    field = dp.field
    return tuple(int(field.trace_table[field.mul(b, int(d))]) for d in dp.x0_codes())


BRUTE_FORCE_LIMIT = 10_000


def minimal_codewords_bruteforce(codewords, p: int) -> list[tuple[int, ...]]:
    """All minimal codewords of an explicit small code by pairwise
    support-inclusion scan.

    Scalar multiples share supports, so they are not allowed to disqualify
    each other: a nonzero codeword is minimal when no codeword outside its
    scalar class has support contained in it.  Access structures count one
    coalition per scalar class.
    """
    words = [tuple(int(s) % p for s in w) for w in codewords]
    if len(words) > BRUTE_FORCE_LIMIT:
        raise ParameterError(
            f"brute force restricted to codes of size <= {BRUTE_FORCE_LIMIT}"
        )
    nonzero = [w for w in words if any(w)]
    supports = [frozenset(i for i, s in enumerate(w) if s) for w in nonzero]

    def scalar_class(w: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        return frozenset(tuple((lam * s) % p for s in w) for lam in range(1, p))

    classes = [scalar_class(w) for w in nonzero]
    minimal = []
    for i, w in enumerate(nonzero):
        covered_other = any(
            j != i and nonzero[j] not in classes[i] and supports[j] <= supports[i]
            for j in range(len(nonzero))
        )
        if not covered_other:
            minimal.append(w)
    return minimal
