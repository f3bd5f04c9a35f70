"""The block-upper-triangular maximal subgroup H of SL3(F7).

H consists of the det-1 matrices with zero (2,1) and (3,1) entries; it
has order (7^2-1)(7^2-7)7^2 = 98784 and index 57.  Maximality is made
constructive: any A outside H can be turned into the generators Y and Z
by multiplying with H elements only, so H together with any outside
element generates the whole group.
"""

from __future__ import annotations

import functools
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
from .scan import (CHUNK, _LEAD_ROWS, _decode_planes, _det_one_runs, _encode_planes, _mod7,
                   _mul_planes, _read_only)

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
    """Size of the subgroup generated, by breadth-first closure over the
    cosets {g, 2g, 4g} of the centre Z = {I, 2I, 4I}.

    The frontier multiplies on the right by each generator alone: in a
    finite group g^-1 = g^(ord g - 1), so the monoid the generators span is
    the subgroup.  A node is a coset, named by its member m whose third row
    leads with 1 or 3 (scan._LEAD_ROWS): node = 343^2 * (the index of m's
    third row among those 114 rows) + (the code of m mod 343^2).  A frontier
    entry is the int32 key node << 2 | tag for the element 2^tag * m that
    the BFS reached, and a node's state, 2 bits of a 3.35 MB array, is 0
    while it is unseen and 1 + tag after.  Each generator has two step
    tables (_step_tables), so a neighbour is one division, small lookups on
    the third row and one gather from a table of 3 * 343^2 entries.

    The reached elements are a transversal of <gens> cap Z in <gens>, and an
    edge that reaches a seen node, at an earlier level or at its own, with
    another tag is a nontrivial Schreier generator t_n s t_ns^-1, a scalar
    of <gens> (Schreier's lemma; Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, section 4.1).  Z has prime order 3, so
    the size is 3 times the node count once an edge mismatches, and the node
    count when none does; the edges are tested until one mismatches, and
    the size known after each level is held to cap.

    Each level runs in the calling thread, in two phases.  Every CHUNK-long
    slice of the frontier gathers its neighbours and keeps those whose node
    is unseen, so no temporary outgrows |gens| * CHUNK keys.  The survivors
    are then joined, sorted, cut to the first of each run of equal nodes and
    marked, so every level is the same ascending set of keys for any CHUNK;
    the old frontier is dropped before the join.  np.unique is not used
    because on numpy 2.4 it is 50-80x slower than np.sort on code arrays
    (7.7 s against 0.14 s on 9 M random int64 codes, 2-core x86-64), and
    np.compress selects 3-5x faster than a boolean index on these masks.
    """
    if not gens:
        raise ValueError("generator set must be nonempty")
    for g in gens:
        if det(g) != 1:
            raise NotInSL3(f"generator {format_matrix(g)} has det {det(g)}, expected 1")
    tables = [_step_tables(g) for g in gens]
    states = np.zeros(-(-114 * 343**2 // 4), dtype=np.uint8)
    row3, pair = divmod(encode(IDENTITY), 343**2)  # I's third row leads with 1: tag 0
    frontier = np.array([(int(_lead_index()[row3]) * 343**2 + pair) << 2], dtype=np.int32)
    _mark_nodes(states, frontier)
    nodes, scalar = 1, False
    while frontier.size:
        pieces = []
        for lo in range(0, frontier.size, CHUNK):
            # int32 division (int64's is ~5x slower); the wide table gathers ~2x
            # faster by np.take on one intp index than by indexing with int32
            high, low = np.divmod(frontier[lo:lo + CHUNK], 4 * 343**2)
            row, pair = high * 3 + (low & 3), (low >> 2).astype(np.intp)
            for (step, scale), wide in tables:
                keys = np.take(wide, np.take(scale, row) + pair) + np.take(step, row)
                state = _node_states(states, keys)
                pieces.append(np.compress(state == 0, keys))
                scalar = scalar or bool(np.any((state != 0) & (state != (keys & 3) + 1)))
        del frontier, high, low, row, pair  # the old level goes before the join, the pieces after it
        keys = np.concatenate(pieces)
        del pieces
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] >> 2 != keys[:-1] >> 2
        frontier = np.compress(first, keys)
        # a node reached in this level with two tags
        scalar = scalar or bool(np.any(~first[1:] & (keys[1:] != keys[:-1])))
        del keys, first  # freed now, not when the next level rebinds them
        _mark_nodes(states, frontier)
        nodes += int(frontier.size)
        if nodes * (3 if scalar else 1) > cap:
            raise ClosureCapExceeded(f"closure exceeded cap {cap}")
    return nodes * (3 if scalar else 1)


@functools.cache
def _lead_index() -> np.ndarray:
    """Row code -> its index among the 114 rows of scan._LEAD_ROWS, -1 off them."""
    rows = np.concatenate([np.arange(lo, hi) for lo, hi in _LEAD_ROWS])
    index = np.full(343, -1, dtype=np.int32)
    index[rows] = np.arange(rows.size)
    return _read_only(index)


def _step_tables(s: Mat3) -> tuple[np.ndarray, np.ndarray]:
    """Right multiplication by s on the keys of generator_closure.

    For the node member m with third row r, 2^e * m * s leads with 1 or 3
    for one e in {0, 1, 2}, so the element 2^t * m steps to 2^(t - e) times
    that member.  Returns two int32 tables:
      small (2, 342), indexed by 3 * (index of r) + t: the child's third-row
        part of the key, (index of 2^e * r * s) * 343^2 << 2 | (t - e) mod 3,
        and e * 343^2, the offset of 2^e * s in the wide table;
      wide (3, 343^2), indexed [e, code mod 343^2] of m: 4 times the rows 1
        and 2 part of the code of 2^e * m * s.
    So a child key is wide[offset + code mod 343^2] + small key.
    """
    index = _lead_index()
    digits = _decode_planes(np.arange(343))
    s = np.array(s, dtype=np.uint8)
    rows = np.stack([_encode_planes(_mul_planes(_mod7(lam * digits), s))
                     for lam in (1, 2, 4)]).astype(np.int32)  # [e, r]: the row 2^e * r * s
    child = index[rows[:, index >= 0]]  # (3, 114): one lead row in each column, -1 twice
    e = np.argmax(child >= 0, axis=0)
    key = (child.max(axis=0) * 343**2 << 2)[:, None] | (np.arange(3) - e[:, None]) % 3
    small = np.stack([key.ravel(), np.repeat(e * 343**2, 3)])
    rows <<= 2  # shifted before the broadcast, which is then the one pass over wide
    wide = rows[:, None, :] + 343 * rows[:, :, None]  # [e, r2, r1]
    return small.astype(np.int32), wide.reshape(3, -1)


def _node_states(states: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The 2-bit states of the keys' nodes, 0 unseen and 1 + tag seen: bits
    2 * (node % 4) of byte node // 4, with node = key >> 2."""
    return np.take(states, keys >> 4) >> ((keys >> 1) & 6).astype(np.uint8) & 3


def _mark_nodes(states: np.ndarray, keys: np.ndarray) -> None:
    """Store 1 + tag as the state of each key's unseen node; bitwise_or.at is
    exact where a byte repeats."""
    np.bitwise_or.at(states, keys >> 4, (((keys & 3) + 1) << ((keys >> 1) & 6)).astype(np.uint8))


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
