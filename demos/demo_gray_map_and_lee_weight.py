#!/usr/bin/env python3
"""The Gray map from the alphabet ring onto F_p^4 and the Lee weight.

Shows the images of the generators, verifies bijectivity and linearity
exhaustively at p = 3, and demonstrates the isometry: Lee distance between
ring vectors equals Hamming distance between their Gray images.
"""

import itertools

import numpy as np

from tracecodes import Field, RingElem, gray, gray_inverse, lee_weight
from tracecodes import oracles
from tracecodes.oracles import gray_word, lee_weight_word, random_element

field = Field(3, 1)

# ----------------------------------------------------------------------
# 1. images of the generators: a + b*u + c*v + d*uv -> (d, c+d, b+d, a+b+c+d)
# ----------------------------------------------------------------------
for name, elem in [("1", oracles.one(field)), ("u", oracles.u(field)),
                   ("v", oracles.v(field)), ("uv", oracles.uv(field)),
                   ("1+u+v+uv", RingElem(field, 1, 1, 1, 1)),
                   ("1-u-v+uv", RingElem(field, 1, 2, 2, 1))]:
    print(f"  gray({name:>9}) = {gray(elem)}   lee weight {lee_weight(elem)}")

# ----------------------------------------------------------------------
# 2. bijectivity: all 81 ring elements map to distinct 4-tuples
# ----------------------------------------------------------------------
images = {}
for coords in itertools.product(range(3), repeat=4):
    r = RingElem(field, *coords)
    img = gray(r)
    assert img not in images
    assert gray_inverse(field, img) == r
    images[img] = r
print(f"\nbijective: {len(images)} distinct images of {3**4} elements")

# ----------------------------------------------------------------------
# 3. the uv-line maps onto repeated symbols: gray(g*uv) = (g, g, g, g)
# ----------------------------------------------------------------------
for gamma in (1, 2):
    print(f"  gray({gamma}*uv) = {gray(RingElem(field, 0, 0, 0, gamma))}")

# ----------------------------------------------------------------------
# 4. isometry on vectors: Lee distance = Hamming distance of Gray images
# ----------------------------------------------------------------------
rng = np.random.default_rng(0)
xs = [random_element(field, rng) for _ in range(8)]
ys = [random_element(field, rng) for _ in range(8)]
lee = lee_weight_word([x - y for x, y in zip(xs, ys)])
hamming = int(np.count_nonzero(gray_word(xs) != gray_word(ys)))
print(f"\nrandom length-8 vectors: lee distance {lee}, "
      f"hamming distance of Gray images {hamming}")
assert lee == hamming
print("isometry holds")
