"""Exact 3x3 arithmetic over F7, written apart from sl3f7.

The benchmark builds its inputs and checks the program's answers with
this module, so a defect in the package's own arithmetic cannot make a
wrong answer look right.  Matrices are row-major 9-tuples of residues.
"""

from __future__ import annotations

import random

P = 7
GROUP_ORDER = 5_630_688  # |SL3(F7)|
EIGENFREE_TOTAL = 1_778_112
CLASS_SIZE = 98_784  # each eigenvector-free class, and |H|
CENTRALIZER_SIZE = 57
NORMALIZER_SIZE = 171
ORDER19_ELEMENTS = 592_704
PARABOLIC_INDEX = 57

IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)
# The fixed order-57 matrix of the paper; its non-scalar powers cover all 18 labels.
BASE57 = (0, 1, 3, 0, 0, 1, 1, 0, 0)


def mul(x, y):
    return tuple(sum(x[3 * i + k] * y[3 * k + j] for k in range(3)) % P
                 for i in range(3) for j in range(3))


def scale(s, m):
    return tuple(s * v % P for v in m)


def power(m, k):
    out = IDENTITY
    for _ in range(k):
        out = mul(out, m)
    return out


def det(m):
    a, b, c, d, e, f, g, h, i = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % P


def inv(m):
    a, b, c, d, e, f, g, h, i = m
    adj = (e * i - f * h, c * h - b * i, b * f - c * e,
           f * g - d * i, a * i - c * g, c * d - a * f,
           d * h - e * g, b * g - a * h, a * e - b * d)
    return scale(pow(det(m), -1, P), adj)


def conj(g, m):
    """g m g^-1."""
    return mul(mul(g, m), inv(g))


def order(m):
    k, cur = 1, m
    while cur != IDENTITY:
        cur = mul(cur, m)
        k += 1
    return k


def label(m):
    """(trace, sum of principal 2x2 minors): the class label of an eigenfree matrix."""
    a, b, c, d, e, f, g, h, i = m
    return ((a + e + i) % P, (a * e - b * d + e * i - f * h + a * i - c * g) % P)


def has_eigenvalue(m):
    return any(det(tuple((t * IDENTITY[k] - m[k]) % P for k in range(9))) == 0
               for t in range(P))


def in_parabolic(m):
    return m[3] == 0 and m[6] == 0


def encode(m):
    return sum(v * P**k for k, v in enumerate(m))


def decode(code):
    return tuple(code // P**k % P for k in range(9))


def fmt(m, signed=False):
    show = (lambda v: v - P if signed and v > 3 else v)
    return "; ".join(" ".join(str(show(m[3 * r + c])) for c in range(3)) for r in range(3))


def parse(text):
    return tuple(int(v) % P for row in text.split(";") for v in row.split())


EIGENFREE_LABELS = tuple(
    (i, j) for i in range(P) for j in range(P)
    if all((t**3 - i * t * t + j * t - 1) % P for t in range(P))
)


def representatives():
    """Least power of BASE57 carrying each eigenfree label."""
    reps = {}
    m = IDENTITY
    for k in range(1, 57):
        m = mul(m, BASE57)
        if k % 19:  # BASE57^19 and ^38 are scalar
            reps.setdefault(label(m), m)
    return reps


def random_sl3(rng: random.Random):
    while True:
        m = tuple(rng.randrange(P) for _ in range(9))
        if det(m) == 1:
            return m


def random_outside_parabolic(rng: random.Random):
    while True:
        m = random_sl3(rng)
        if not in_parabolic(m):
            return m


def centralizer_generator(m):
    """The order-57 generator of an eigenfree m's centralizer: m or 2m."""
    return m if order(m) == 57 else scale(2, m)
