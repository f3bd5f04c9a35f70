"""3x3 matrix arithmetic over F7.

A matrix is a flat 9-tuple of canonical residues in row-major order
(a, b, c, d, e, f, g, h, i).  Matrices pack bijectively into base-7
integers (MatCode) with entry 0 least significant; the code space
covers all of M3(F7), not only SL3.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .field import P, CubicPoly, fp_inv

Mat3 = tuple[int, ...]

CODE_SPACE = 7**9  # 40_353_607
GROUP_ORDER = 5_630_688  # |SL3(F7)| = 2^5 * 3^3 * 7^3 * 19

IDENTITY: Mat3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)

_POW7 = tuple(7**k for k in range(9))


class SingularMatrix(ArithmeticError):
    """Inverse or order requested for a matrix with det = 0."""


class CodeOutOfRange(ValueError):
    """MatCode outside [0, 7^9)."""


class MatrixFormatError(ValueError):
    """Matrix text that does not parse as 3 rows of 3 entries."""


def mat(entries) -> Mat3:
    """Build a matrix from text or 9 flat entries, reduced mod 7."""
    if isinstance(entries, str):
        return parse_matrix(entries)
    flat = list(entries)
    if len(flat) != 9:
        raise MatrixFormatError(f"expected 9 entries, got {len(flat)}")
    return tuple(v % P for v in flat)


def scalar_mat(s: int) -> Mat3:
    s %= P
    return (s, 0, 0, 0, s, 0, 0, 0, s)


def is_scalar(m: Mat3) -> bool:
    return (
        m[0] == m[4] == m[8]
        and m[1] == m[2] == m[3] == m[5] == m[6] == m[7] == 0
    )


def mat_mul(x: Mat3, y: Mat3) -> Mat3:
    a, b, c, d, e, f, g, h, i = x  # unrolled: a generator expression takes 4x as long
    j, k, l, m, n, o, p, q, r = y
    return ((a * j + b * m + c * p) % P, (a * k + b * n + c * q) % P, (a * l + b * o + c * r) % P,
            (d * j + e * m + f * p) % P, (d * k + e * n + f * q) % P, (d * l + e * o + f * r) % P,
            (g * j + h * m + i * p) % P, (g * k + h * n + i * q) % P, (g * l + h * o + i * r) % P)


def mat_scale(s: int, m: Mat3) -> Mat3:
    a, b, c, d, e, f, g, h, i = m  # unrolled, as mat_mul: 0.5 against 1.3 us
    return (s * a % P, s * b % P, s * c % P, s * d % P, s * e % P, s * f % P, s * g % P, s * h % P, s * i % P)


def mat_pow(m: Mat3, n: int) -> Mat3:
    """m^n for n >= 0 by binary exponentiation."""
    if n < 0:
        raise ValueError("negative exponent")
    r = IDENTITY
    while n:
        if n & 1:
            r = mat_mul(r, m)
        m = mat_mul(m, m)
        n >>= 1
    return r


def mat_powers(m: Mat3, n: int) -> Iterator[Mat3]:
    """m, m^2, ..., m^n, lazily, one product per step."""
    return itertools.accumulate(itertools.repeat(m, n), mat_mul)


def det(m: Mat3) -> int:
    a, b, c, d, e, f, g, h, i = m
    return (a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)) % P


def trace(m: Mat3) -> int:
    return (m[0] + m[4] + m[8]) % P


def _lambda_coeff(m: Mat3) -> int:
    # sum of the three principal 2x2 minors
    a, b, c, d, e, f, g, h, i = m
    return (a * e - b * d + e * i - f * h + a * i - c * g) % P


def char_poly(m: Mat3) -> tuple[CubicPoly, int]:
    """Characteristic data (CubicPoly(trace, minor-sum), det).

    The CubicPoly's fixed constant term -1 matches the true characteristic
    polynomial t^3 - tr*t^2 + j*t - det exactly when det = 1.
    """
    return CubicPoly(trace(m), _lambda_coeff(m)), det(m)


def has_fp_eigenvalue(m: Mat3) -> bool:
    """True iff det(tI - m) has a root t in F7.

    For invertible m this is equivalent to m having an eigenvector with
    entries in F7; t = 0 is a root exactly when m is singular.
    """
    tr = trace(m)
    j = _lambda_coeff(m)
    dt = det(m)
    return any((t * t * t - tr * t * t + j * t - dt) % P == 0 for t in range(P))


# bytes.translate(_TIMES[s]) maps each byte v to s * v mod 7
_TIMES = tuple(bytes(s * v % P for v in range(256)) for s in range(P))


def nullspace(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {v : rows . v = 0} over F7, by Gauss-Jordan elimination.

    One vector per free column f of the reduced echelon form, ascending
    in f: it is 1 at f, 0 at the other free columns, and at each pivot
    column p left of f it is minus the entry of p's row at f.  Empty when
    only v = 0 solves the system.  rows is a nonempty list of equal-length
    rows of ints, reduced mod 7 here.

    Entry (i, c) is byte i*n + c of one bytearray.  A pivot clears its column
    from the other rows with one big-integer product: -(entry (i, col)) at
    byte i*n times pivot entry c at byte c adds its term at byte i*n + c
    alone, and no sum passes 6 + 36 < 256, so no byte carries into the next.
    """
    n = len(rows[0])
    m = bytearray([v % P for row in rows for v in row])
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        below = m[r * n + col::n]
        hit = r + len(below) - len(below.lstrip(b"\0"))  # first nonzero at or below row r
        if hit == len(rows):
            continue
        pivot = m[hit * n:hit * n + n].translate(_TIMES[fp_inv(below[hit - r])])
        m[hit * n:hit * n + n], m[r * n:r * n + n] = m[r * n:r * n + n], pivot
        g = bytearray(len(m))
        g[::n] = m[col::n].translate(_TIMES[P - 1])
        g[r * n] = 0
        m = bytearray((int.from_bytes(m, "little")
                       + int.from_bytes(g, "little") * int.from_bytes(pivot, "little"))
                      .to_bytes(len(m), "little").translate(_TIMES[1]))
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for p, x in zip(pivots, m[free::n]):
            v[p] = -x % P
        basis.append(v)
    return basis


def mat_inv(m: Mat3) -> Mat3:
    """Inverse by adjugate; raises SingularMatrix when det = 0."""
    d = det(m)
    if d == 0:
        raise SingularMatrix("matrix is not invertible")
    a, b, c, dd, e, f, g, h, i = m
    adj = (
        e * i - f * h, c * h - b * i, b * f - c * e,
        f * g - dd * i, a * i - c * g, c * dd - a * f,
        dd * h - e * g, b * g - a * h, a * e - b * dd,
    )
    s = fp_inv(d)
    return tuple(s * v % P for v in adj)


def mat_order(m: Mat3) -> int:
    """Least n >= 1 with m^n = I: 19 or 57 when m is eigenvector-free with
    det 1 (the irreducible-polynomial argument needs det 1), else the first n
    of the walk m, m^2, ..., m^342.  No order in GL3(F7) passes 7^3 - 1 = 342:
    semisimple eigenvalues lie in F343* (order | 342), F49* x F7* (| 48) or
    F7* (| 6), and a unipotent part of order 7 needs a repeated eigenvalue,
    which lies in F7 (| 42)."""
    d = det(m)
    if d == 0:
        raise SingularMatrix("singular matrices have no order")
    if d == 1 and not has_fp_eigenvalue(m):
        for n in (19, 57):
            if mat_pow(m, n) == IDENTITY:
                return n
    else:
        for n, p in enumerate(mat_powers(m, 342), 1):
            if p == IDENTITY:
                return n
    raise AssertionError("unreachable: every element of GL3(F7) has order at most 342")


def encode(m: Mat3) -> int:
    return sum(m[k] * _POW7[k] for k in range(9))


def decode(code: int) -> Mat3:
    if not 0 <= code < CODE_SPACE:
        raise CodeOutOfRange(f"MatCode out of range: {code}")
    return tuple((code // _POW7[k]) % 7 for k in range(9))


def parse_matrix(text: str) -> Mat3:
    """Parse "a b c; d e f; g h i" with entries in [-6, 6], reduced mod 7."""
    rows = [r.strip() for r in text.strip().split(";")]
    if len(rows) != 3:
        raise MatrixFormatError(f"expected 3 rows separated by ';', got {len(rows)}")
    flat: list[int] = []
    for r in rows:
        parts = r.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"expected 3 entries per row, got {len(parts)!r} in {r!r}")
        for p in parts:
            try:
                v = int(p)
            except ValueError as exc:
                raise MatrixFormatError(f"bad entry {p!r}") from exc
            if not -6 <= v <= 6:
                raise MatrixFormatError(f"entry {v} outside [-6, 6]")
            flat.append(v % P)
    return tuple(flat)


def format_matrix(m: Mat3, signed: bool = False) -> str:
    """Row-semicolon text; signed mode prints residues in [-3, 3]."""

    def show(v: int) -> str:
        return str(v - P if signed and v > 3 else v)

    return "; ".join(" ".join(show(m[3 * r + c]) for c in range(3)) for r in range(3))
