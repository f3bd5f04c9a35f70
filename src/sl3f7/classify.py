"""The [i,j] class-label system for eigenvector-free matrices in SL3(F7).

A label [i,j] names the set of SL3(F7) matrices with characteristic
polynomial t^3 - i*t^2 + j*t - 1.  Exactly 18 labels have no root in F7;
those sets are whole conjugacy classes.  This module decides the labels,
their element orders (19 or 57), canonical representatives, and the
bijections between labels (scaling, inversion, powering, PSL collapse).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .field import CubicPoly, cubic_has_fp_root, cubic_roots_ext, ext_order
from .matrix3 import Mat3, char_poly, has_fp_eigenvalue, mat, mat_pow, mat_scale


class NotInSL3(ValueError):
    """Operation requires det = 1."""


class HasEigenvector(ValueError):
    """The label system only covers eigenvector-free matrices."""


class NotEigenfree(ValueError):
    """Label is not one of the 18 eigenvector-free labels."""


class PowerLeavesEigenfreeSet(ValueError):
    """The requested power is scalar or has an eigenvector."""


class ClassLabel(NamedTuple):
    i: int
    j: int

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


@functools.cache
def eigenfree_labels() -> tuple[ClassLabel, ...]:
    """All (i,j) whose cubic has no F7 root, by direct 7-point testing.

    There are exactly 18, sorted lexicographically.
    """
    return tuple(
        ClassLabel(i, j)
        for i in range(7)
        for j in range(7)
        if not cubic_has_fp_root(CubicPoly(i, j))
    )


def is_eigenfree_label(label: ClassLabel) -> bool:
    return tuple(label) in eigenfree_labels()


def _require_eigenfree(label: ClassLabel) -> ClassLabel:
    label = ClassLabel(label[0] % 7, label[1] % 7)
    if not is_eigenfree_label(label):
        raise NotEigenfree(f"{label} is not an eigenvector-free label")
    return label


def class_label(m: Mat3) -> ClassLabel:
    """The (trace, minor-sum) label of an eigenvector-free SL3 matrix."""
    poly, d = char_poly(m)
    if d != 1:
        raise NotInSL3(f"det = {d}, expected 1")
    if cubic_has_fp_root(poly):
        raise HasEigenvector("matrix has an eigenvector over F7")
    return ClassLabel(poly.i, poly.j)


def scale_label(label: ClassLabel) -> ClassLabel:
    """Label of 2*M for M in the given label: [i,j] -> [2i,4j].

    Substitutes t -> t/2 in the cubic; applying it three times is the
    identity, so the 18 labels fall into six orbits of size 3.
    """
    label = _require_eigenfree(label)
    return ClassLabel(2 * label.i % 7, 4 * label.j % 7)


def inverse_label(label: ClassLabel) -> ClassLabel:
    """Label of M^-1: the involution [i,j] -> [j,i] (t -> 1/t)."""
    label = _require_eigenfree(label)
    return ClassLabel(label.j, label.i)


def psl_label(label: ClassLabel) -> ClassLabel:
    """Canonical name of the PSL3(F7) class: lexicographic minimum of the
    scaling orbit {label, scale, scale^2}.  Exactly 6 distinct values."""
    label = _require_eigenfree(label)
    s = scale_label(label)
    return min(label, s, scale_label(s))


@functools.cache
def order_of_label(label: ClassLabel) -> int:
    """19 or 57: the common multiplicative order of the label's three roots
    in F343 (the matrices in the label share that order)."""
    label = _require_eigenfree(label)
    roots = cubic_roots_ext(CubicPoly(label.i, label.j))
    orders = {ext_order(r) for r in roots}
    if len(orders) != 1:
        raise AssertionError(f"roots of {label} disagree on order: {orders}")
    return orders.pop()


def representative(label: ClassLabel) -> Mat3:
    """The least-MatCode SL3 matrix with this label: (i-1, i-j, -1; 1 1 0; 1 0 0).

    A MatCode orders the rows as (r3, r2, r1), and r3 != 0, so the least
    det-1 matrix has r3 = e1, code 1.  r2 x e1 = (0, r2[2], -r2[1]) must be
    nonzero, so the least r2 would be e2; but then e2 is a left eigenvector
    with eigenvalue 1, so no such matrix is eigenvector-free.  The next r2
    is (1, 1, 0), and with it det = -r1[2], the trace is r1[0] + 1 and the
    minor sum is r1[0] - r1[1] + 1: r1 is unique for each label, so least.
    """
    i, j = _require_eigenfree(label)
    return ((i - 1) % 7, (i - j) % 7, 6, 1, 1, 0, 1, 0, 0)


def power_class_map(label: ClassLabel, k: int) -> ClassLabel:
    """Label of M^k for any M in the label; well defined by conjugation
    invariance.  Rejects exponents whose power is scalar (and therefore
    leaves the eigenvector-free set)."""
    label = _require_eigenfree(label)
    if not 1 <= k <= 56:
        raise ValueError(f"exponent must be in 1..56, got {k}")
    mk = mat_pow(representative(label), k)
    if has_fp_eigenvalue(mk):
        raise PowerLeavesEigenfreeSet(f"{label}^{k} is scalar or has an eigenvector")
    return class_label(mk)


# Fixed, zero-rich class representatives kept as named fixtures (the
# canonical least-code representatives are representative()'s formula).
KNOWN_REPRESENTATIVES: dict[ClassLabel, Mat3] = {
    ClassLabel(0, 4): mat("0 1 3; 0 0 1; 1 0 0"),
    ClassLabel(0, 2): mat_scale(2, mat("0 1 3; 0 0 1; 1 0 0")),
    ClassLabel(0, 1): mat_scale(4, mat("0 1 3; 0 0 1; 1 0 0")),
    ClassLabel(1, 0): mat("0 1 0; 0 1 -1; -1 0 0"),
    ClassLabel(1, 3): mat("0 1 4; 0 1 5; 1 0 0"),
    ClassLabel(1, 5): mat("0 3 2; 0 1 1; 1 0 0"),
    ClassLabel(6, 2): mat("0 3 2; 0 -1 -1; -1 0 0"),
}
