"""Exhaustive scans over SL3(F7) and the algebraic answers they check.

Centralizers, class sizes, conjugators and normalizers are answered by
linear algebra, not by scanning: the g with g*a = b*g form the nullspace
of a 9x9 system over F7, and intertwiners() keeps the det-1 members of
that space.  The group scans below are the exhaustive oracles for those
answers and for the counts of the paper.

Group scans walk the 5_630_688 det-1 elements in ascending MatCode order:
element rank k is generated on demand from two small lookup tables (row
pairs and the third rows completing them to det 1), so no 7^9 decode and
no det filter precedes a kernel, and the group is never materialized.
A scan walks _PSL_RANGES, one g of each coset of the centre {I, 2I, 4I}, and
rebuilds the whole group's answer, as lam*g has the pair (lam*i, lam^2*j),
(lam*g)^k = lam^k g^k and lam*g conjugates as g does; the closure of
subgroups walks the cosets of the diagonal torus, which holds the centre,
and only count_sl3 and verify._stream_is_det1 see every element.  A
scan splits its ranges into chunks of at most CHUNK ranks, a fixed constant,
evaluates a vectorized kernel on each chunk's digit planes in the calling
thread, and merges partial results by addition or concatenation, so results
are independent of the chunking; the tests vary CHUNK to show it.
The conjugation scans walk the row pairs instead (_map_pairs): the 49
elements of pair (r2, r3) are E g0, g0 its first and E = I + e1 (0, a, b), as
r1_0 + a*r2 + b*r3 are the 49 solutions of r1 . (r2 x r3) = 1.  So
(E g0) m (E g0)^-1 = E X E^-1, X = g0 m g0^-1: one conjugation per pair, and
the 49 E X E^-1 by row and column operations (_shear_conjugate_codes).
A scan takes no setting: on a 2-core host a second thread made every
stream scan but orbit_oracle slower (the GIL passes back and forth around
short numpy calls), and the closure BFS of subgroups took 0.39 s on two
threads against 0.41 s with no pool, so the package starts no thread.

Digit planes are uint8, twice the entries per SIMD instruction of int16.
Every kernel value stays in 0..255: a product of two digits is at most 36
and a sum of three at most 108.  A subtraction wraps mod 256, not mod 7,
so a kernel that subtracts first adds a multiple of 7 at least as large as
the subtrahend.  There are three offsets: _cross's + 42 in the minors of the
stream tables, dets, adjugates and the det runs of count_sl3, which also
give |H| (subgroups.parabolic_size), _char_planes' + 126 and the + 42 of
_shear_conjugate_codes' column operations.  A value that needs more room is
widened.
Kernels reduce mod 7 with _mod7, not %, which numpy does not vectorize.
The product and scalar kernels broadcast over all their entries at once,
as (3, 3, n) arrays: 8 ufunc calls per product, not 72, so the passes
built on products stay cheap at a small chunk.  Chunk filters select with
np.compress or np.take, not a boolean index, which numpy 2.4.6 runs 3-5x
slower on these masks (3.5 against 1.1 ms on nine 2^18 planes).

What depends on an element's characteristic pair (i, j) alone is done
once per bin 7 * i + j (_rootless_bins, _unity_bins, _scaled_bins).  Only
count_sl3, the oracle that the stream is exactly the det-1 set, counts all
7^9 codes, as 343 runs of 7^6 codes sharing a third row, summed from one
histogram of the minors of rows 1 and 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

import numpy as np

from .classify import ClassLabel, NotEigenfree, NotInSL3, is_eigenfree_label
from .matrix3 import (
    GROUP_ORDER,
    IDENTITY,
    Mat3,
    char_poly,
    decode,
    det,
    encode,
    has_fp_eigenvalue,
    is_scalar,
    mat_order,
    mat_pow,
    mat_powers,
    nullspace,
)
from .schema import document

# element ranks per chunk of a group scan: at 2^16 a chunk's 576 KB planes stay
# in glibc's heap, 0-2 minor faults per power pass; glibc gave 2^18's 2.4 MB
# back to the kernel after every chunk, 27 000-50 000 faults per pass
CHUNK = 1 << 16

_T = TypeVar("_T")


class NonIntegerCount(RuntimeError):
    """Order-19 element count not divisible by 18: implementation bug."""


class WrongOrder(ValueError):
    """normalizer_of_cyclic requires a generator of order 19."""


class UnsupportedOrder(ValueError):
    """order_absence_check supports n in {3, 9, 27} only."""


def _mod7(x: np.ndarray) -> np.ndarray:
    """np.remainder(x, 7) by floor division, which numpy 2.4.6 vectorizes and % not
    (0.038 against 0.64 ms on 2^18 uint8).  Exact on every uint8, and on signed
    dtypes where 7 * (x // 7) fits; kernel operands stay in 0..255 (see above)."""
    return x - 7 * (x // 7)


def _cross(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three planes of u x v mod 7 for (3, ...) digit-plane stacks; a digit
    product is at most 36, so each component x*y + 42 - z*w lies in 6..78."""
    (a, b, c), (x, y, z) = u, v
    return _mod7(b * z + 42 - c * y), _mod7(c * x + 42 - a * z), _mod7(a * y + 42 - b * x)


@functools.cache
def _digit_planes(d: int) -> np.ndarray:
    """Base-7 digits of 0 .. 7^d - 1, (d, 7^d) uint8, plane k the digit of 7^k:
    the 343 row codes' entries for d = 3, intertwiner coefficients for any d."""
    return _read_only(np.indices((7,) * d, dtype=np.uint8)[::-1].reshape(d, 7**d))


@functools.cache
def _stream_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of the det-1 element stream, built on first use.

    A MatCode holds row 1 in its least and row 3 in its most significant
    base-343 digit, so ascending codes order the rows (r3, r2, r1)
    lexicographically.  det = r1 . (r2 x r3): each of the 114_912 pairs
    (r3, r2) with r2 x r3 != 0 is completed to det 1 by exactly the 49 r1
    with r1 . c = 1, c = r2 x r3.  Returns, in code order,
      pair_planes (6, 114912): the entries of rows 2 and 3 of each pair;
      pair_cross (114912,): the row code of c = r2 x r3;
      solution_blocks (343, 3, 49): for row code c, the entries of its 49
        r1 as planes, ascending (zeros for c = 0).
    """
    x, y, z = rows = _digit_planes(3)
    dot = _mod7(x[:, None] * x + y[:, None] * y + z[:, None] * z)  # [c, r1] = r1 . c
    _, r1 = np.nonzero(dot[1:] == 1)  # 49 per nonzero c, ascending r1 within each
    solutions = np.concatenate([np.zeros(49, dtype=np.int64), r1]).reshape(343, 49)
    cx, cy, cz = _cross(rows[:, None, :], rows[:, :, None])  # r2 x r3 on the grid [r3, r2]
    cross = cx + 7 * cy + 49 * cz.astype(np.int16)  # row codes reach 342
    r3, r2 = np.nonzero(cross)  # r3 outer, r2 inner: ascending code order
    pair_planes = np.concatenate([rows[:, r2], rows[:, r3]])
    solution_blocks = np.ascontiguousarray(rows[:, solutions].transpose(1, 0, 2))
    return _read_only(pair_planes), _read_only(cross[r3, r2]), _read_only(solution_blocks)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False  # cached and shared: a stray write raises
    return table


def _element_planes(lo: int, hi: int) -> np.ndarray:
    """Digit planes of the det-1 elements of ranks [lo, hi) in MatCode order.

    Rank k is solution k mod 49 of pair k // 49; the pairs covering the
    ranks are expanded 49-fold and the window [lo, hi) is cut from them.
    """
    pair_planes, pair_cross, solution_blocks = _stream_tables()
    first, last = lo // 49, -(-hi // 49)
    window = slice(lo - 49 * first, hi - 49 * first)
    out = np.empty((9, hi - lo), dtype=np.uint8)
    out[3:] = np.repeat(pair_planes[:, first:last], 49, axis=1)[:, window]
    out[:3] = solution_blocks[pair_cross[first:last]].transpose(1, 0, 2).reshape(3, -1)[:, window]
    return out


# The row codes whose leading nonzero digit is 1 or 3, [lead * 7^k, (lead + 1) * 7^k):
# 114 rows.  2 and 4 permute {1, 2, 4} and {3, 6, 5}, so exactly one of r, 2r and
# 4r is among them for r != 0, and the g with one of them as third row hold one
# element of each coset {g, 2g, 4g}.  Third-row code c > 0 owns the ranks
# [(c - 1) * _R3_BLOCK, c * _R3_BLOCK), so the rows are _PSL_RANGES' six rank ranges.
_LEAD_ROWS = tuple(sorted((lead * p, (lead + 1) * p) for lead in (1, 3) for p in (1, 7, 49)))
_R3_BLOCK = GROUP_ORDER // 342  # 336 second rows times 49 first rows
_PSL_RANGES = tuple(((lo - 1) * _R3_BLOCK, (hi - 1) * _R3_BLOCK) for lo, hi in _LEAD_ROWS)


def _map_chunks(kernel: Callable[[np.ndarray], _T],
                ranges: tuple[tuple[int, int], ...] = ((0, GROUP_ORDER),)) -> Iterator[_T]:
    """Apply kernel to the element planes of each rank range [lo, hi) in
    ranges, in pieces at most CHUNK long, yielding results in rank order."""
    for start, stop in ranges:
        for lo in range(start, stop, CHUNK):
            yield kernel(_element_planes(lo, min(lo + CHUNK, stop)))


def _map_pairs(kernel: Callable[[np.ndarray, np.ndarray], _T], m: Mat3,
               ranges: tuple[tuple[int, int], ...]) -> Iterator[_T]:
    """Apply kernel to (g0, g0 m g0^-1) for the first elements g0 of the row
    pairs of the rank ranges (bounds multiples of 49), in pieces of at most
    CHUNK // 49 pairs, so CHUNK elements, yielding results in rank order."""
    pair_planes, pair_cross, solution_blocks = _stream_tables()
    right = np.array(m, dtype=np.uint8)
    step = CHUNK // 49
    for start, stop in ranges:
        for first in range(start // 49, stop // 49, step):
            last = min(first + step, stop // 49)
            g0 = np.empty((9, last - first), dtype=np.uint8)
            g0[:3] = solution_blocks[pair_cross[first:last], :, 0].T
            g0[3:] = pair_planes[:, first:last]
            yield kernel(g0, _mul_planes(_mul_planes(g0, right), _adjugate_planes(g0)))


def _shear_conjugate_codes(x: np.ndarray) -> np.ndarray:
    """Codes of E x E^-1 for the 49 shears E = I + e1 (0, a, b), (7, 7, P) int32
    indexed [a, b, p], from the planes x (9, P) of any matrices.  E x adds
    a*row 2 + b*row 3 to row 1 (at most 6 + 36 + 36 = 78); times E^-1 then takes
    a*column 1 from column 2 and b*column 1 from column 3, y + 42 - a*y1 in 6..48,
    or 6..120 on row 1's unreduced sums.  Rows 2 and 3 add as (7, 1, P) and
    (1, 7, P) terms first; P inner ran 3x faster than (P, 7, 7)."""
    a = np.arange(7, dtype=np.uint8)[:, None, None]
    b = a.reshape(1, 7, 1)
    y0 = _mod7(x[0] + a * x[3] + b * x[6])
    rows = [(y0, x[1] + a * x[4] + b * x[7], x[2] + a * x[5] + b * x[8]), x[3:6], x[6:9]]
    e = [y for u, v, w in rows for y in (u, _mod7(v + 42 - a * u), _mod7(w + 42 - b * u))]
    weighed = {k: np.multiply(e[k], 7**k, dtype=np.int32) for k in range(2, 9)}
    codes = (weighed[3] + weighed[4] + weighed[6] + weighed[7]) + (weighed[5] + weighed[8])
    codes += weighed[2]
    codes += e[0] + 7 * e[1]  # at most 48
    return codes


def _det_plane(d: np.ndarray) -> np.ndarray:
    """det mod 7 as r1 . (r2 x r3), the minors reduced, so no value passes 108."""
    m0, m1, m2 = _cross(d[3:6], d[6:9])
    return _mod7(d[0] * m0 + d[1] * m1 + d[2] * m2)


def _mul_planes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entrywise batched 3x3 product of digit planes, reduced mod 7.  Both
    are viewed as (3, 3, n), a constant 9-tuple as (3, 3, 1); the broadcast
    x[i, k] * y[k, j] for each k add into one uint8 array, at most 108."""
    x, y = x.reshape(3, 3, -1), y.reshape(3, 3, -1)
    acc = x[:, 0, None] * y[0]
    acc += x[:, 1, None] * y[1]
    acc += x[:, 2, None] * y[2]
    return _mod7(acc).reshape(9, -1)


def _adjugate_planes(d: np.ndarray) -> np.ndarray:
    """Adjugate, columns r2 x r3, r3 x r1 and r1 x r2: the inverse when det = 1.
    The three cross products run as one, on (3, 3, n) stacks of their operands."""
    rows = d.reshape(3, 3, -1).transpose(1, 0, 2)  # [component, row, n]
    return np.stack(_cross(rows[:, [1, 2, 0]], rows[:, [2, 0, 1]])).reshape(9, -1)


def _encode_planes(d: np.ndarray) -> np.ndarray:
    codes = d[8].astype(np.int32)  # Horner's rule; 7^9 < 2^31, so every code array is int32
    for k in range(7, -1, -1):
        codes = 7 * codes + d[k]
    return codes


def _eq_identity(d: np.ndarray) -> np.ndarray:
    return (d == np.array(IDENTITY, dtype=np.uint8)[:, None]).all(axis=0)


def _eq_scalar(d: np.ndarray) -> np.ndarray:
    return (d == np.array(IDENTITY, dtype=np.uint8)[:, None] * d[0]).all(axis=0)


def _require_sl3(m: Mat3) -> None:
    if det(m) != 1:
        raise NotInSL3(f"det = {det(m)}, expected 1")


# ---------------------------------------------------------------------------
# counting


def count_sl3() -> int:
    """Number of det-1 matrices, by det over every one of the 7^9 codes."""
    return sum(_det_one_runs())


def _det_one_runs(rows: range = range(343)) -> list[int]:
    """det-1 counts of the runs of 7^6 codes sharing a third row (g, h, i), one
    per row code in rows.  det = g*m0 + h*m1 + i*m2 over the reduced minors
    m = r1 x r2, so the 7^6 pairs (r1, r2) on the 343 x 343 row grid are binned
    once by the row code of m; a run counts the bins' pairs with (g, h, i) . m = 1."""
    x, y, z = r = _digit_planes(3)
    m0, m1, m2 = _cross(r[:, :, None], r[:, None, :])  # r1 x r2 on the grid [r1, r2]
    hist = np.bincount((m0 + 7 * m1 + 49 * m2.astype(np.int16)).ravel(), minlength=343)
    g, h, i = r[:, rows, None]
    return ((_mod7(g * x + h * y + i * z) == 1) @ hist).tolist()  # each term is at most 36


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class ScanSummary:
    """Census of eigenvector-free matrices in SL3(F7)."""

    eigenfree_total: int
    by_trace: dict[int, int]
    by_label: dict[ClassLabel, int]

    def to_json(self) -> dict:
        return document(
            "census",
            group_order=GROUP_ORDER,  # counted by count_sl3; the census covers every element
            eigenfree_total=self.eigenfree_total,
            by_trace={str(t): n for t, n in sorted(self.by_trace.items())},
            by_label=[
                {"i": l.i, "j": l.j, "count": n} for l, n in sorted(self.by_label.items())
            ],
        )


def _char_planes(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace and principal-minor sum: the label pair (i, j) of each det-1 plane."""
    a, b, c, dd, e, f, g, h, i = d
    # the three added minors reach 108 and so do the three subtracted
    return _mod7(a + e + i), _mod7(a * e + e * i + a * i + 126 - b * dd - f * h - c * g)


@functools.cache
def _scaled_bins() -> np.ndarray:
    """Rows lam = 1, 2, 4 map each bin 7 * i + j to the bin of lam * g for the
    g in it: lam * g has the characteristic pair (lam * i, lam^2 * j)."""
    i, j = divmod(np.arange(49), 7)
    rows = [7 * (lam * i % 7) + lam * lam * j % 7 for lam in (1, 2, 4)]
    return _read_only(np.array(rows, dtype=np.uint8))


@functools.cache
def _rootless_bins() -> np.ndarray:
    """Whether t^3 - i t^2 + j t - 1 has no root in F7, for the bins 7 * i + j."""
    return _read_only(np.array([all((t**3 - i * t * t + j * t - 1) % 7 for t in range(7))
                                for i in range(7) for j in range(7)]))


def _census_chunk(d: np.ndarray) -> np.ndarray:
    """Eigenfree counts of the planes d in 49 bins, bin 7 * trace + minor sum."""
    tr, jc = _char_planes(d)
    return np.bincount(tr * 7 + jc, minlength=49) * _rootless_bins()


def census(*, threads: int | None = None) -> ScanSummary:
    """Full-group census: eigenfree counts by trace and label.

    Runs in the calling thread, like every scan.  threads is accepted and
    ignored, since perfbench's sweep calls census(threads=1); an explicit
    value below 1 is a ValueError.  Bin b sums the bins lam * b of the
    _PSL_RANGES walk, lam = 1, 2, 4, as lam * g keeps g's root test.
    Deterministic for any chunk size (partial results merge by addition).
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    counts = sum(_map_chunks(_census_chunk, _PSL_RANGES))[_scaled_bins()].sum(axis=0)
    by_label = {
        ClassLabel(k // 7, k % 7): int(v) for k, v in enumerate(counts) if v
    }
    by_trace: dict[int, int] = {}
    for label, n in by_label.items():
        by_trace[label.i] = by_trace.get(label.i, 0) + n
    return ScanSummary(
        eigenfree_total=int(counts.sum()),
        by_trace=by_trace,
        by_label=by_label,
    )


def label_member_codes(label: ClassLabel) -> np.ndarray:
    """Sorted codes of every SL3 matrix carrying the given eigenfree label,
    found as lam * g for the g of _PSL_RANGES (_label_chunk) and sorted once."""
    if not is_eigenfree_label(label):
        raise NotEigenfree(f"{label} is not an eigenvector-free label")
    kernel = functools.partial(_label_chunk, label=label)
    return np.sort(np.concatenate(list(_map_chunks(kernel, _PSL_RANGES))))


def _label_chunk(d: np.ndarray, label: ClassLabel) -> np.ndarray:
    """Codes of the lam * g with characteristic pair label, lam = 1, 2, 4 and g
    among the planes d in the bin of label / lam: three disjoint bins."""
    tr, jc = _char_planes(d)
    hits = tr * 7 + jc == _scaled_bins()[(0, 2, 1), 7 * label.i + label.j, None]  # label / lam
    kept = np.flatnonzero(hits.any(axis=0))
    lam = np.array([1, 2, 4], dtype=np.uint8) @ np.take(hits, kept, axis=1)
    return _encode_planes(_mod7(lam * np.take(d, kept, axis=1)))


# ---------------------------------------------------------------------------
# centralizers, conjugacy classes, conjugator search


def intertwiner_codes(a: Mat3, b: Mat3) -> np.ndarray:
    """Codes of all g in SL3 with g*a*g^-1 = b (equivalently g*a = b*g),
    ascending, by group scan.  Exhaustive oracle for intertwiners.  E_st g0
    intertwines when X = g0 a g0^-1 is E_st^-1 b E_st = E_(-s)(-t) b E_(-s)(-t)^-1,
    one of 49 targets, all equal to b on column 1 below row 1; the hit's first
    row is r1_0 + s*r2 + t*r3 (at most 78).  Hits on _PSL_RANGES give lam * g too."""
    neg = -np.arange(7)
    targets = _shear_conjugate_codes(np.array(b, dtype=np.uint8)[:, None])[neg][:, neg].ravel()

    def kernel(g0: np.ndarray, x: np.ndarray) -> np.ndarray:
        p = np.flatnonzero((x[3] == b[3]) & (x[6] == b[6]))
        st, q = np.nonzero(targets[:, None] == _encode_planes(np.take(x, p, axis=1)))  # st = 7s + t
        s, t = np.divmod(st.astype(np.uint8), 7)
        g = np.take(g0, p[q], axis=1)
        g[:3] = _mod7(g[:3] + s * g[3:6] + t * g[6:9])
        return g

    g = np.concatenate(list(_map_pairs(kernel, a, _PSL_RANGES)), axis=1)
    return np.sort(np.concatenate([_encode_planes(_mod7(lam * g)) for lam in (1, 2, 4)]))


def _intertwiner_basis(a: Mat3, b: Mat3) -> np.ndarray:
    """Basis of the space {g in M3(F7) : g*a = b*g}, one row of 9 entries
    per dimension, in the reduced echelon form of nullspace."""
    # equation 3i + j: (g a - b g)_ij = sum_k g_ik a_kj - b_ik g_kj = 0
    rows = [[0] * 9 for _ in range(9)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                rows[3 * i + j][3 * i + k] += a[3 * k + j]
                rows[3 * i + j][3 * k + j] -= b[3 * i + k]
    return np.array(nullspace(rows), dtype=np.int16).reshape(-1, 9)


def intertwiners(a: Mat3, b: Mat3) -> np.ndarray:
    """Codes of all g in SL3 with g*a = b*g, ascending, without a group scan.

    The solutions in M3(F7) are the nullspace of a 9x9 system, of
    dimension d.  For conjugate a, b, d is 3 when a is cyclic (its
    commutant is F7[a] = span{I, a, a^2}), 5 when a is derogatory but not
    scalar, and 9 when a = b is scalar; otherwise d <= 6.  All 7^d members
    are expanded as digit planes and the det-1 ones kept.  For d = 9 every
    element intertwines, so equal scalars are a ValueError, not a pass over
    the group: centralizer, class_size and simconj.find_conjugator answer them.

    The codes come out ascending with no sort: the reduced-echelon basis
    vector of free entry f is 1 at f, 0 at the other free entries and
    nonzero only at pivot entries below f, so counting the coefficients
    with the highest free entry as the top digit counts the codes upward.
    """
    if a == b and is_scalar(a):  # d = 9
        raise ValueError("every element intertwines equal scalars; ask centralizer instead")
    basis = _intertwiner_basis(a, b)
    d = basis.shape[0]
    # the int16 basis promotes the uint8 digits, so sums up to 9 * 36 are exact
    planes = _mod7(basis.T @ _digit_planes(d))
    return _encode_planes(planes[:, _det_plane(planes) == 1])


@dataclass(frozen=True)
class CentralizerReport:
    """Centralizer of a det-1 matrix, the det-1 solutions of g*m = m*g."""

    subject: Mat3
    size: int
    is_cyclic: bool
    generator: Mat3 | None
    elements: tuple[int, ...] | None  # MatCodes, present only when size <= 1024


_ELEMENT_LIST_CAP = 1024


def centralizer(m: Mat3) -> CentralizerReport:
    """All g in SL3(F7) with g*m = m*g, from intertwiners(m, m); the
    generator, when the centralizer is cyclic, is its least-code element
    of full order.  For scalar m it is the whole group, known unscanned."""
    _require_sl3(m)
    if is_scalar(m):
        return CentralizerReport(m, GROUP_ORDER, False, None, None)
    codes = intertwiners(m, m)
    size = int(codes.size)
    if size > _ELEMENT_LIST_CAP:
        # every element of SL3(F7) has order at most 57, so any subgroup
        # larger than that cannot be cyclic
        return CentralizerReport(m, size, False, None, None)
    elements = tuple(codes.tolist())
    generator = next((g for g in map(decode, elements) if mat_order(g) == size), None)
    return CentralizerReport(m, size, generator is not None, generator, elements)


def class_size(m: Mat3) -> int:
    """Conjugacy-class size by orbit-stabilizer: |SL3| / |centralizer|."""
    _require_sl3(m)
    q, r = divmod(GROUP_ORDER, GROUP_ORDER if is_scalar(m) else intertwiners(m, m).size)
    if r:
        raise AssertionError("centralizer size does not divide the group order")
    return q


def orbit_oracle(m: Mat3) -> set[int]:
    """Brute-force conjugation orbit {encode(g m g^-1) : g in SL3}.

    Independent oracle for class_size and for the fact that the label sets
    are whole conjugacy classes.  g and a scalar times g conjugate alike, so
    it walks the pairs of _PSL_RANGES.  The pieces' int32 conjugates (int64
    took the peak from 18.7 to 28.6 MiB) are joined, and their list freed
    before the sort (kept, it took the peak to 25.9 MiB), sorted and cut to
    the first of each run, as subgroups.generator_closure cuts each level.
    """
    _require_sl3(m)
    codes = np.concatenate(list(_map_pairs(lambda g0, x: _shear_conjugate_codes(x).ravel(), m,
                                           _PSL_RANGES)))
    codes.sort()
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return set(np.compress(first, codes).tolist())


# ---------------------------------------------------------------------------
# Sylow-19 counting, normalizers, order absence

# the addition chain 1, 2, 3, 6, 9, 18, 19, 27 as steps g^k = g^a g^b
_POWER_CHAIN = ((2, 1, 1), (3, 2, 1), (6, 3, 3), (9, 6, 3), (18, 9, 9), (19, 18, 1), (27, 18, 9))


def _power_chunk(g: np.ndarray, exponents: tuple[int, ...]) -> np.ndarray:
    """For each k in exponents, 3 per plane g with g^k = I when 3 | k, else 1
    per scalar g^k: for det-1 g, the lam * g, lam = 1, 2, 4, with (lam * g)^k =
    lam^k g^k = I, as lam^k is 1 when 3 | k and else runs over 1, 2, 4.

    The powers come from _POWER_CHAIN, seven plane products for all of
    (1, 3, 9, 19, 27), with g^19 = g^18 g and g^27 = g^18 g^9.  Only the
    steps that build a wanted power or a factor of one run, so the walk
    stops after the last power exponents needs: 2 products for (1, 3),
    4 for (3, 9), 6 for (19,), (9, 27) or (1, 3, 9, 27).  Every power is
    kept until the end: the bin filter of _power_counts leaves at most
    40.6 % of a CHUNK, so seven powers of it take about 1.7 MB.
    """
    steps: list[tuple[int, int, int]] = []
    needed = set(exponents)
    for k, a, b in reversed(_POWER_CHAIN):
        if k in needed:
            steps.insert(0, (k, a, b))
            needed |= {a, b}
    powers = {1: g}
    for k, a, b in steps:
        powers[k] = _mul_planes(powers[a], powers[b])
    return np.array([3 * np.count_nonzero(_eq_identity(powers[k])) if k % 3 == 0
                     else np.count_nonzero(_eq_scalar(powers[k])) for k in exponents])


@functools.cache
def _unity_bins(n: int) -> np.ndarray:
    """For the 49 bins 7 * i + j, whether t^3 - i t^2 + j t - 1 divides
    (t^n - 1)^3, i.e. (C^n - I)^3 = 0 for its companion C.  A g with g^n = I
    has only n-th roots of unity as eigenvalues, so no g outside them does."""
    powers = [mat_pow((0, 0, 1, 1, 0, -j % 7, 0, 1, i), n) for i in range(7) for j in range(7)]
    gaps = [tuple((x - y) % 7 for x, y in zip(p, IDENTITY)) for p in powers]  # C^n - I
    return _read_only(np.array([mat_pow(d, 3) == (0,) * 9 for d in gaps]))


def _power_counts(exponents: tuple[int, ...]) -> dict[int, int]:
    """k -> number of g in SL3 with g^k = I, for each k in exponents, in one walk
    of _PSL_RANGES counting whole cosets (_power_chunk).  It runs on the planes
    in the few bins of _unity_bins(lcm(3, *exponents)), as g^k = lam I forces g^3k = I,
    matched by one broadcast equality (3-4x faster than a 49-entry lookup)."""
    kept = np.flatnonzero(_unity_bins(math.lcm(3, *exponents))).astype(np.uint8)[:, None]

    def kernel(d: np.ndarray) -> np.ndarray:
        tr, jc = _char_planes(d)
        return _power_chunk(np.compress((tr * 7 + jc == kept).any(axis=0), d, axis=1), exponents)

    return dict(zip(exponents, sum(_map_chunks(kernel, _PSL_RANGES)).tolist()))


def count_order19_elements() -> int:
    """Number of elements of order exactly 19 (g^19 = I and g != I)."""
    return _power_counts((19,))[19] - 1


def sylow19_count(elements: int) -> int:
    """Number of Sylow 19-subgroups from the count of order-19 elements,
    which come 18 per subgroup (count_order19_elements).  Validated to be
    an integer congruent to 1 mod 19 that divides 2^5 * 3^3 * 7^3.
    """
    n19, rem = divmod(elements, 18)
    if rem:
        raise NonIntegerCount(f"{elements} order-19 elements not divisible by 18")
    if n19 % 19 != 1 or (GROUP_ORDER // 19) % n19 != 0:
        raise NonIntegerCount(f"n19 = {n19} fails the Sylow constraints")
    return n19


def _require_order19(p: Mat3) -> None:
    _require_sl3(p)
    if mat_order(p) != 19:
        raise WrongOrder(f"generator has order {mat_order(p)}, expected 19")


def normalizer_of_cyclic(p_generator: Mat3) -> int:
    """Size of N(<P>) = {g : g P g^-1 in <P>} for an order-19 generator P.

    Conjugation keeps the order, so g P g^-1 is one of P^k, k = 1..18, and
    N(<P>) is the disjoint union of the 18 intertwiner sets of (P, P^k).
    Conjugate matrices share a characteristic polynomial, so the set of a
    P^k whose polynomial differs from P's is empty and is not solved for.
    P's eigenvalues are a Frobenius orbit lambda, lambda^7, lambda^49 in
    F_343, so only k = 1, 7 and 11 (49 mod 19) pass: 3 solves, not 18.
    """
    _require_order19(p_generator)
    target = char_poly(p_generator)
    powers = mat_powers(p_generator, 18)
    return sum(intertwiners(p_generator, pk).size for pk in powers if char_poly(pk) == target)


def normalizer_oracle(p_generator: Mat3) -> int:
    """|N(<P>)| by group scan, counting the g with g P g^-1 among the 19
    powers of P.  Exhaustive oracle for normalizer_of_cyclic.  It counts the
    (pair, E) with E X E^-1 in <P>, X = g0 P g0^-1, on the pair walk of
    _PSL_RANGES, and multiplies by 3, as g, 2g and 4g conjugate P alike."""
    _require_order19(p_generator)
    member_codes = np.array([encode(mat_pow(p_generator, k)) for k in range(19)], dtype=np.int32)

    def kernel(g0: np.ndarray, x: np.ndarray) -> int:
        return int(np.count_nonzero(np.isin(_shear_conjugate_codes(x), member_codes)))

    return 3 * sum(_map_pairs(kernel, p_generator, _PSL_RANGES))


def _order_absent(counts: dict[int, int], n: int) -> bool:
    """Read from _power_counts: no g has g^n = I with g^(n/3) != I."""
    return counts[n] == counts[n // 3]


def order_absence_check(n: int) -> bool:
    """True iff no element g has g^n = I with g^(n/3) != I, for n in {3, 9, 27}."""
    if n not in (3, 9, 27):
        raise UnsupportedOrder(f"order-absence scan supports 3, 9, 27; got {n}")
    return _order_absent(_power_counts((n // 3, n)), n)


# ---------------------------------------------------------------------------
# power tables


@dataclass(frozen=True)
class PowerTableRow:
    k: int
    matrix: Mat3
    pair: tuple[int, int]  # characteristic pair (i, j) of m^k; i is its trace
    note: str | None  # None exactly when m^k is eigenvector-free; pair is then its label


def _power_note(mk: Mat3) -> str | None:
    if is_scalar(mk):
        return "identity" if mk == IDENTITY else f"scalar {mk[0]}I"
    return "has eigenvector" if has_fp_eigenvalue(mk) else None


def power_table(m: Mat3, limit: int) -> list[PowerTableRow]:
    """Rows k = 1..limit with m^k, its characteristic pair, and a note on each
    power with an eigenvector: identity, scalar or has eigenvector."""
    _require_sl3(m)
    if not 1 <= limit <= 120:
        raise ValueError(f"limit must be in 1..120, got {limit}")
    return [PowerTableRow(k, mk, tuple(char_poly(mk)[0]), _power_note(mk))
            for k, mk in enumerate(mat_powers(m, limit), 1)]


# ---------------------------------------------------------------------------
# the structured centralizer of the zero-rich [0,4] representative


def commutant_family(a: int, b: int, d: int) -> Mat3:
    """The matrices commuting with [[0,1,3],[0,0,1],[1,0,0]] form the
    three-parameter family [[a, b, 3b+d], [d, a-3d, b], [b, d, a]]."""
    return (
        a % 7, b % 7, (3 * b + d) % 7,
        d % 7, (a - 3 * d) % 7, b % 7,
        b % 7, d % 7, a % 7,
    )


def commutant_det_cubic(a: int, b: int, d: int) -> int:
    """det of commutant_family(a, b, d) as the explicit cubic in a."""
    return (
        a**3 + b**3 + d**3 - 3 * a * a * d - 3 * a * b * b
        + 2 * d * b * b - d * d * b - 3 * b * a * d
    ) % 7


def centralizer_parameter_table() -> list[tuple[int, int, tuple[int, ...]]]:
    """For each (b, d) pair, the a values solving the det-1 cubic.

    49 rows; the solution total is the centralizer size 57.
    """
    return [
        (b, d, tuple(a for a in range(7) if commutant_det_cubic(a, b, d) == 1))
        for b in range(7)
        for d in range(7)
    ]
