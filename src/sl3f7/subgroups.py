"""The block-upper-triangular maximal subgroup H of SL3(F7).

H consists of the det-1 matrices with zero (2,1) and (3,1) entries; it
has order (7^2-1)(7^2-7)7^2 = 98784 and index 57.  Maximality is made
constructive: any A outside H can be turned into the generators Y and Z
by multiplying with H elements only, so H together with any outside
element generates the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import NotInSL3
from .field import fp_inv
from .matrix3 import (
    GROUP_ORDER,
    IDENTITY,
    Mat3,
    det,
    encode,
    format_matrix,
    mat,
    mat_mul,
)
from .scan import (CHUNK, _bitset, _decode_planes, _det_one_runs, _encode_planes, _mark,
                   _mul_planes, _unmarked)

# Generators of the full group; X lies in H, Y and Z do not.
X: Mat3 = mat("1 0 1; 0 -1 -1; 0 1 0")
Y: Mat3 = mat("0 1 0; 0 0 1; 1 0 0")
Z: Mat3 = mat("0 1 0; 1 0 0; -1 -1 -1")


class ClosureCapExceeded(RuntimeError):
    """BFS closure grew past its cap (impossible for det-1 generators)."""


class InParabolic(ValueError):
    """reduce_to_generator needs a matrix outside H."""


def in_parabolic(m: Mat3) -> bool:
    """Membership in H: zero below-diagonal first column and det 1."""
    return m[3] == 0 and m[6] == 0 and det(m) == 1


def parabolic_size() -> int:
    """Direct count of H, the det-1 matrices with d = g = 0.  Transposing and
    rotating the rows (an even permutation) maps H onto the det-1 matrices
    with third row (a, 0, 0), a != 0: count_sl3's det runs of row codes 1..6."""
    return sum(_det_one_runs(range(1, 7)))


def generator_closure(gens: tuple[Mat3, ...] | list[Mat3], *, cap: int = GROUP_ORDER) -> int:
    """Size of the subgroup generated, by breadth-first closure over MatCodes.

    The frontier multiplies on the right by each generator alone: in a
    finite group g^-1 = g^(ord g - 1), so the monoid the generators span is
    the subgroup.  Every element enters exactly one frontier and is expanded
    once per generator, so the levels produce |gens| * |<gens>| candidates in
    all.  Visited codes live in a 5 MB presence bitset (scan._bitset).
    Right multiplication by s maps each row r of g to r*s on its own, so a
    code splits into code mod 343^2 (rows 1 and 2) and code // 343^2 (row
    3), and each step s gets one table per part (_step_tables): a neighbour
    is two gathers, with no plane product per level.

    Each level runs in the calling thread, in two phases.  Every CHUNK-long
    slice of the frontier gathers its neighbours and keeps those whose bit
    is clear, so no temporary outgrows |gens| * CHUNK codes.  The survivors
    are then joined, sorted, cut to the first of each run of equal codes and
    marked, so every level is the ascending set of unique codes that
    np.unique would give, for any CHUNK; the old frontier is dropped before
    the join.  np.unique is not used because on numpy 2.4 it is
    50-80x slower than np.sort on code arrays (7.7 s against 0.14 s on 9 M
    random int64 codes, 2-core x86-64), and np.compress selects 3-5x faster
    than a boolean index on these masks.
    """
    if not gens:
        raise ValueError("generator set must be nonempty")
    for g in gens:
        if det(g) != 1:
            raise NotInSL3(f"generator {format_matrix(g)} has det {det(g)}, expected 1")
    tables = [_step_tables(g) for g in gens]
    visited = _bitset()
    frontier = np.array([encode(IDENTITY)], dtype=np.int32)
    _mark(visited, frontier)
    size = 1
    while frontier.size:
        pieces = []
        for lo in range(0, frontier.size, CHUNK):
            # int32 division (int64's is ~5x slower); the wide table gathers ~2x
            # faster by np.take on one intp index than by indexing with int32
            high, low = np.divmod(frontier[lo:lo + CHUNK], 343**2)
            low = low.astype(np.intp)
            pieces += [_unmarked(visited, np.take(pair, low) + np.take(row3, high))
                       for pair, row3 in tables]
        del frontier, high, low  # the old level goes before the join, the pieces after it
        codes = np.concatenate(pieces)
        del pieces
        codes.sort()
        keep = np.ones(codes.size, dtype=bool)
        keep[1:] = codes[1:] != codes[:-1]
        frontier = np.compress(keep, codes)
        del codes, keep  # freed now, not when the next level rebinds them
        _mark(visited, frontier)
        size += int(frontier.size)
        if size > cap:
            raise ClosureCapExceeded(f"closure exceeded cap {cap}")
    return size


def _step_tables(s: Mat3) -> tuple[np.ndarray, np.ndarray]:
    """Right multiplication by s as two int32 tables: code mod 343^2 -> the
    rows 1 and 2 part of the code of g*s (indexed [r2, r1], flattened), and
    code // 343^2 -> its row 3 part, so the code of g*s is their sum."""
    rows = _encode_planes(_mul_planes(_decode_planes(np.arange(343)), np.array(s, dtype=np.uint8)))
    rows = rows.astype(np.int32)
    return (rows[None, :] + 343 * rows[:, None]).ravel(), 343**2 * rows


# Transvections and torus elements generating H (certified by a closure run
# of size 98784 in the test suite).
PARABOLIC_GENERATORS: tuple[Mat3, ...] = (
    mat("1 1 0; 0 1 0; 0 0 1"),
    mat("1 0 1; 0 1 0; 0 0 1"),
    mat("1 0 0; 0 1 1; 0 0 1"),
    mat("1 0 0; 0 1 0; 0 1 1"),
    mat("3 0 0; 0 5 0; 0 0 1"),
    mat("1 0 0; 0 3 0; 0 0 5"),
)


# ---------------------------------------------------------------------------
# constructive reduction A -> Y or Z by H-multiplications


@dataclass(frozen=True)
class Step:
    side: str  # "left" | "right"
    factor: Mat3


@dataclass(frozen=True)
class ReductionTrace:
    start: Mat3
    target: Mat3
    steps: tuple[Step, ...] = field(default_factory=tuple)

    def recompose(self) -> Mat3:
        cur = self.start
        for step in self.steps:
            cur = mat_mul(step.factor, cur) if step.side == "left" else mat_mul(cur, step.factor)
        return cur

    def verify(self) -> bool:
        return self.recompose() == self.target and all(
            in_parabolic(s.factor) for s in self.steps
        )


class _Reducer:
    def __init__(self, start: Mat3):
        self.cur = start
        self.steps: list[Step] = []

    def left(self, factor: Mat3) -> None:
        if factor != IDENTITY:
            assert in_parabolic(factor), "reduction factor left the subgroup"
            self.cur = mat_mul(factor, self.cur)
            self.steps.append(Step("left", factor))

    def right(self, factor: Mat3) -> None:
        if factor != IDENTITY:
            assert in_parabolic(factor), "reduction factor left the subgroup"
            self.cur = mat_mul(self.cur, factor)
            self.steps.append(Step("right", factor))


def _reduce_to_y(r: _Reducer) -> None:
    # make the (3,1) entry nonzero, clear the rest of column 1, normalize
    if r.cur[6] == 0:
        r.left(mat("1 0 0; 0 1 0; 0 1 1"))  # row3 += row2 (d != 0 here)
    g = r.cur[6]
    ginv = fp_inv(g)
    ja, jd = -r.cur[0] * ginv % 7, -r.cur[3] * ginv % 7
    r.left(mat((1, 0, ja, 0, 1, jd, 0, 0, 1)))  # rows 1,2 += multiples of row 3
    r.left(mat((1, 0, 0, 0, g, 0, 0, 0, ginv)))  # det-1 rescale: row3 *= 1/g
    s, t = r.cur[7], r.cur[8]
    r.right(mat((1, -s % 7, -t % 7, 0, 1, 0, 0, 0, 1)))  # clear bottom row via col 1
    # state is [[0,b,c],[0,e,f],[1,0,0]] with b*f - c*e = 1
    if r.cur[5] == 0:
        r.right(mat("1 0 0; 0 1 1; 0 0 1"))  # col3 += col2 makes f = e != 0
    if r.cur[1] == 0:
        r.left(mat("1 1 0; 0 1 0; 0 0 1"))  # row1 += row2 makes b = e != 0
    b = r.cur[1]
    binv = fp_inv(b)
    r.right(mat((1, 0, 0, 0, 1, -r.cur[2] * binv % 7, 0, 0, 1)))  # clear c
    r.right(mat((1, 0, 0, 0, 1, 0, 0, -r.cur[4] * b % 7, 1)))  # clear e via col 3
    r.right(mat((1, 0, 0, 0, binv, 0, 0, 0, b)))  # det-1 rescale to Y


def _reduce_to_z(r: _Reducer) -> None:
    # clear the (1,1) entry using column-1 data from row 2 or 3
    if r.cur[0] != 0:
        if r.cur[3] != 0:
            r.left(mat((1, -r.cur[0] * fp_inv(r.cur[3]) % 7, 0, 0, 1, 0, 0, 0, 1)))
        else:
            r.left(mat((1, 0, -r.cur[0] * fp_inv(r.cur[6]) % 7, 0, 1, 0, 0, 0, 1)))
    if r.cur[3] == 0:
        r.left(mat("1 0 0; 0 1 1; 0 0 1"))  # row2 += row3 makes d = g != 0
    d = r.cur[3]
    dinv = fp_inv(d)
    je, jf = -r.cur[4] * dinv % 7, -r.cur[5] * dinv % 7
    r.right(mat((1, je, jf, 0, 1, 0, 0, 0, 1)))  # clear e, f via col 1
    if r.cur[1] == 0:
        r.right(mat("1 0 0; 0 1 0; 0 1 1"))  # col2 += col3 makes b = c != 0
    b = r.cur[1]
    r.right(mat((1, 0, 0, 0, 1, -r.cur[2] * fp_inv(b) % 7, 0, 0, 1)))  # clear c
    # state is [[0,b,0],[d,0,0],[g,h,i]] with -b*d*i = 1
    i = r.cur[8]
    r.left(mat((1, 0, 0, 0, 1, 0, 0, (i - r.cur[6]) * fp_inv(d) % 7, 1)))  # g -> i
    r.right(mat((1, 0, 0, 0, 1, 0, 0, (i - r.cur[7]) * fp_inv(i) % 7, 1)))  # h -> i
    r.left(mat((-i * d % 7, 0, 0, 0, fp_inv(d), 0, 0, 0, -fp_inv(i) % 7)))


def reduce_to_generator(a: Mat3, target: str) -> ReductionTrace:
    """H-factor elimination turning A (outside H, det 1) into the generator
    named by target, "Y" or "Z" (either case).

    Every factor lies in H and has det 1; the returned trace recomposes to
    the target exactly.
    """
    name = target.upper()
    if name not in ("Y", "Z"):
        raise ValueError(f"target must be Y or Z, got {target!r}")
    target_mat = Y if name == "Y" else Z
    if det(a) != 1:
        raise NotInSL3(f"matrix has det {det(a)}, expected 1")
    if in_parabolic(a):
        raise InParabolic("reduction undefined inside the subgroup")

    r = _Reducer(a)
    if target_mat == Y:
        _reduce_to_y(r)
    else:
        _reduce_to_z(r)
    assert r.cur == target_mat, "reduction failed to reach the target"
    return ReductionTrace(start=a, target=target_mat, steps=tuple(r.steps))


def maximality_witness(a: Mat3) -> bool:
    """True iff H and the outside element a generate the whole group, by the
    paper's reduction: each verified trace puts Y or Z in <H, a>, X lies in
    H, and <X, Y, Z> is the whole group (check 15 closes it).  Raises
    InParabolic or NotInSL3 as reduce_to_generator does."""
    return all(reduce_to_generator(a, t).verify() for t in ("Y", "Z"))
