"""Arithmetic in F7 and in the cubic extension F343 = F7[x]/(x^3 + 2x - 1).

Scalars of F7 are plain ints in 0..6.  Extension elements are ExtScalar
triples (c0, c1, c2) standing for c0 + c1*x + c2*x^2 reduced modulo the
fixed irreducible cubic x^3 + 2x - 1.  The nonzero elements of F343 form
a cyclic group of order 342 = 2 * 3^2 * 19, which is where the eigenvalues
of eigenvector-free SL3(F7) matrices live.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

P = 7

DIVISORS_342 = (1, 2, 3, 6, 9, 18, 19, 38, 57, 114, 171, 342)


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of 0 requested in F7."""


class ZeroElement(ZeroDivisionError):
    """Order (or inverse) of the zero element requested in F343."""


_FP_INV = (0, 1, 4, 5, 2, 3, 6)  # index a -> a^-1; slot 0 unused


def fp_inv(a: int) -> int:
    """Multiplicative inverse in F7; raises ZeroInverse on 0."""
    a %= P
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse in F7")
    return _FP_INV[a]


class ExtScalar(NamedTuple):
    """Element c0 + c1*x + c2*x^2 of F343."""

    c0: int
    c1: int
    c2: int


EXT_ZERO = ExtScalar(0, 0, 0)
EXT_ONE = ExtScalar(1, 0, 0)


def ext(c0: int, c1: int = 0, c2: int = 0) -> ExtScalar:
    return ExtScalar(c0 % P, c1 % P, c2 % P)


def ext_add(a: ExtScalar, b: ExtScalar) -> ExtScalar:
    return ExtScalar((a.c0 + b.c0) % P, (a.c1 + b.c1) % P, (a.c2 + b.c2) % P)


def ext_mul(a: ExtScalar, b: ExtScalar) -> ExtScalar:
    """Product in F343, reducing with x^3 = 1 + 5x (i.e. x^3 + 2x - 1 = 0)."""
    t0 = a.c0 * b.c0
    t1 = a.c0 * b.c1 + a.c1 * b.c0
    t2 = a.c0 * b.c2 + a.c1 * b.c1 + a.c2 * b.c0
    t3 = a.c1 * b.c2 + a.c2 * b.c1
    t4 = a.c2 * b.c2
    # x^3 = 1 + 5x and x^4 = x + 5x^2
    return ExtScalar((t0 + t3) % P, (t1 + 5 * t3 + t4) % P, (t2 + 5 * t4) % P)


def ext_scale(s: int, a: ExtScalar) -> ExtScalar:
    return ExtScalar(s * a.c0 % P, s * a.c1 % P, s * a.c2 % P)


def ext_pow(a: ExtScalar, n: int) -> ExtScalar:
    if n < 0:
        raise ValueError("negative exponent")
    r = EXT_ONE
    while n:
        if n & 1:
            r = ext_mul(r, a)
        a = ext_mul(a, a)
        n >>= 1
    return r


def ext_order(a: ExtScalar) -> int:
    """Least n >= 1 with a^n = 1; always a divisor of 342."""
    if a == EXT_ZERO:
        raise ZeroElement("the zero element has no multiplicative order")
    for n in DIVISORS_342:
        if ext_pow(a, n) == EXT_ONE:
            return n
    raise AssertionError("unreachable: order must divide 342")


def ext_unpack(code: int) -> ExtScalar:
    """The element with packed code c0 + 7*c1 + 49*c2 in 0..342."""
    if not 0 <= code < 343:
        raise ValueError(f"packed extension code out of range: {code}")
    return ExtScalar(code % 7, (code // 7) % 7, code // 49)


def all_ext() -> Iterator[ExtScalar]:
    """All 343 extension elements in ascending packed order."""
    for code in range(343):
        yield ext_unpack(code)


class CubicPoly(NamedTuple):
    """The monic cubic t^3 - i*t^2 + j*t - 1 over F7 (constant term fixed)."""

    i: int
    j: int


def cubic_eval_fp(p: CubicPoly, lam: int) -> int:
    return (lam * lam * lam - p.i * lam * lam + p.j * lam - 1) % P


def cubic_has_fp_root(p: CubicPoly) -> bool:
    """Decided by the 7-point test."""
    return any(cubic_eval_fp(p, lam) == 0 for lam in range(P))


def cubic_eval_ext(p: CubicPoly, a: ExtScalar) -> ExtScalar:
    a2 = ext_mul(a, a)
    a3 = ext_mul(a2, a)
    v = ext_add(a3, ext_scale(-p.i % P, a2))
    v = ext_add(v, ext_scale(p.j, a))
    return ext_add(v, ext(-1))


def cubic_roots_ext(p: CubicPoly) -> list[ExtScalar]:
    """Roots of p in F343 by exhaustive evaluation, ascending packed order.

    A cubic with no root in F7 is irreducible there and splits into the
    Frobenius orbit {r, r^7, r^49} of three distinct roots over F343.
    """
    return [a for a in all_ext() if cubic_eval_ext(p, a) == EXT_ZERO]


def _check_modulus() -> None:
    # x^3 + 2x - 1 corresponds to CubicPoly(0, 2); no F7 root <=> irreducible.
    if cubic_has_fp_root(CubicPoly(0, 2)):
        raise AssertionError("extension modulus x^3 + 2x - 1 is not irreducible over F7")


_check_modulus()
