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
    format_matrix,
    mat,
    mat_mul,
)
from .scan import _det_one_runs, _digit_planes, _encode_planes, _mul_planes, _read_only

# Generators of the full group; X lies in H, Y and Z do not.
X: Mat3 = mat("1 0 1; 0 -1 -1; 0 1 0")
Y: Mat3 = mat("0 1 0; 0 0 1; 1 0 0")
Z: Mat3 = mat("0 1 0; 1 0 0; -1 -1 -1")

# |H| = (q^2 - 1)(q^2 - q)q^2: B in GL2(F7), a = det(B)^-1, the two * free
PARABOLIC_ORDER = (7**2 - 1) * (7**2 - 7) * 7**2


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
    cosets D*g of the diagonal torus D = {diag(a, b, (ab)^-1)} = C6 x C6.

    The frontier multiplies on the right by each generator alone: in a
    finite group g^-1 = g^(ord g - 1), so the monoid the generators span is
    the subgroup.  A node is named by its member m whose rows 1 and 2 lead
    with 1, points p1, p2 of P^2(F7) indexed 0..56 in code order, and whose
    row 3 carries the product of the two leads, so det m = 1: its key is
    (57 * p1 + p2) * 343 + code(row 3), below 1_114_407.  A frontier entry
    is the int32 key << 6 | tag for the element diag(3^e1, 3^e2, .) * m the
    BFS reached, tag 6 * e1 + e2, and a node's state, a uint8, is 0 while it
    is unseen and 1 + tag after.  Right multiplication acts on each row
    alone, so a neighbour is a few gathers from small tables (_step_tables).

    The reached elements are a transversal of <gens> cap D in <gens>, so the
    size is the node count times |<gens> cap D|.  Each edge gives a Schreier
    generator t_n s t_ns^-1 of <gens> cap D, its tag minus the one stored at
    the node it reaches (Schreier's lemma; Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, section 4.1), and <gens> cap D is the
    subgroup they generate (_span, once per level until it is all of D).
    After each level the node count times the span so far is a lower bound
    on the size, and it is held to cap.  A span of all 36 elements of D is
    final, so the levels after it are tag-free: no tag is summed, no
    Schreier generator marked, every entry carries tag 0 and a reached
    node's state is 1.  {X, Y, Z} spans D at level 15 of 29, before about
    90 % of its nodes, and H at level 1; a group meeting D in less, such as
    <M2>, keeps the tags at every level.

    Each level runs whole in the calling thread, in two phases.  The whole
    frontier gathers its neighbours and keeps those whose node is unseen
    (_children): a level holds at most |G| / |D| = 156 408 nodes, so no
    temporary outgrows |gens| times that many keys.  The old frontier is
    dropped and the survivors are joined, sorted, cut to the first of each
    node and marked (_merge), so every level is an ascending set of keys.  On
    numpy 2.4 np.unique is 50-80x slower than np.sort on codes (7.7 against
    0.14 s on 9 M int64 codes, 2-core x86-64), and np.compress 3-5x faster
    than a boolean index."""
    if not gens:
        raise ValueError("generator set must be nonempty")
    for g in gens:
        if det(g) != 1:
            raise NotInSL3(f"generator {format_matrix(g)} has det {det(g)}, expected 1")
    tables = [_step_tables(g) for g in gens]
    states = np.zeros(57 * 57 * 343, dtype=np.uint8)
    states[392] = 1  # I: the points (1, 0, 0) and (0, 1, 0), 0 and 1, row 3 code 49, tag 0
    schreier = np.zeros(36, dtype=bool)  # the tags of the Schreier generators seen
    frontier, nodes, span = np.array([392 << 6], dtype=np.int32), 1, 1
    while frontier.size:
        marks = schreier if span < 36 else None  # a span of all 36 elements of D cannot grow
        pieces = _children(frontier, tables, states, marks)
        del frontier
        frontier = _merge(pieces, states, marks)
        nodes += int(frontier.size)
        if marks is not None:
            span = _span(schreier)
        if nodes * span > cap:
            raise ClosureCapExceeded(f"closure exceeded cap {cap}")
    return nodes * span


@functools.cache
def _torus_tables() -> tuple[np.ndarray, ...]:
    """Read-only int32 tables of generator_closure.  On the 343 row codes r,
    with lead(r) = 3^log(r) their first nonzero entry (the zero row: 0, 0):
      point (343,), the index of r / lead(r) among the 57 rows leading with 1,
      and log (343,); rescale (6 * 512,), at 512 * k + r, the code of 3^k * r.
    On the tags t = 6 * e1 + e2 of Z6 x Z6:
      sums (36 * 64,), indexed 64 * t + u: t + u;
      diffs (36 * 37,), indexed 37 * t + 1 + u: t - u, and 0 at 37 * t."""
    rows = _digit_planes(3).astype(np.int32)
    pow3 = np.array([1, 3, 2, 6, 4, 5], dtype=np.int32)
    log = np.argmax(pow3[:, None] == np.choose(np.argmax(rows > 0, axis=0), rows), axis=0)
    scaled = np.array([1, 7, 49]) @ (pow3[:, None, None] * rows % 7)  # [k, r]
    normal = scaled[-log % 6, np.arange(343)]
    rescale, sums, diffs = np.zeros((6, 512)), np.zeros((36, 64)), np.zeros((36, 37))
    rescale[:, :343] = scaled
    e1, e2 = np.divmod(np.arange(36), 6)
    sums[:, :36] = (e1[:, None] + e1) % 6 * 6 + (e2[:, None] + e2) % 6
    diffs[:, 1:] = (e1[:, None] - e1) % 6 * 6 + (e2[:, None] - e2) % 6
    point = np.searchsorted(np.flatnonzero(log == 0)[1:], normal)  # the 57 points; 0 for r = 0
    return tuple(_read_only(t.astype(np.int32).ravel()) for t in (point, log, rescale, sums, diffs))


def _step_tables(s: Mat3) -> tuple[np.ndarray, np.ndarray]:
    """Right multiplication by s on the keys of generator_closure.

    Row i of m * s is p_i * s = 3^l_i * q_i for the points p1, p2 of the
    node member m, so m * s = diag(3^l1, 3^l2, .) * m', where m' has the
    points q1, q2 and row 3 (row 3 of m) * s * 3^(l1 + l2).  Returns two
    int32 tables: pairs (57 * 57,), indexed 57 * p1 + p2, holds the child's
    p1, p2 part of the key, the exponent of row 3's rescale and the tag step,
    (57 * q1 + q2) * 343 << 9 | (l1 + l2) % 6 << 6 | 6 * l1 + l2; rows
    (343,) holds the code of r * s for each row code r.
    """
    point, log = _torus_tables()[:2]
    digits = np.pad(_digit_planes(3), ((0, 6), (0, 0)))  # the 343 rows r as first rows
    rows = _encode_planes(_mul_planes(digits, np.array(s, dtype=np.uint8)))
    image = rows[np.flatnonzero(log == 0)[1:]]  # p * s for the 57 points p, ascending
    q, l = point[image], log[image]
    pairs = (q[:, None] * 57 + q) * 343 << 9 | (l[:, None] + l) % 6 << 6 | 6 * l[:, None] + l
    return pairs.ravel(), rows


def _children(entries: np.ndarray, tables: list[tuple[np.ndarray, np.ndarray]],
              states: np.ndarray, schreier: np.ndarray | None) -> list[np.ndarray]:
    """Per generator, the entries of the unseen nodes a whole level, at most
    156 408 entries, reaches; marks the tags of the Schreier generators of
    its edges to seen nodes.  With schreier None the entries' tags are not
    read and the children carry tag 0."""
    rescale, sums, diffs = _torus_tables()[2:]
    pair, row = np.divmod(entries >> 6, 343)  # int32 division (int64's is ~5x slower)
    out = []
    for pairs, rows in tables:
        step = np.take(pairs, pair)
        keys = (step >> 9) + np.take(rescale, (step & 448) << 3 | np.take(rows, row))
        state = np.take(states, keys)
        if schreier is None:
            out.append(np.compress(state == 0, keys << 6))
            continue
        tags = np.take(sums, (step & 63) << 6 | entries & 63)
        schreier[np.take(diffs, tags * 37 + state)] = True
        out.append(np.compress(state == 0, keys << 6 | tags))
    return out


def _merge(pieces: list[np.ndarray], states: np.ndarray, schreier: np.ndarray | None) -> np.ndarray:
    """The next level: the survivors joined, sorted, cut to the first entry of
    each node and marked; one node's consecutive tags differ by a Schreier
    generator, unless schreier is None, when every tag is 0 and a node's
    state is 1.  Empties pieces, so each survivor is freed after the join."""
    keys = np.concatenate(pieces)
    pieces.clear()
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] >> 6 != keys[:-1] >> 6
    if schreier is not None:
        again = ~first[1:]
        schreier[np.take(_torus_tables()[4], np.compress(again, keys[1:] & 63) * 37
                         + np.compress(again, keys[:-1] & 63) + 1)] = True
    frontier = np.compress(first, keys)
    del keys, first  # freed now, not when the next level rebinds them
    states[frontier >> 6] = (frontier & 63) + 1
    return frontier


def _span(tags: np.ndarray) -> int:
    """Order of the subgroup of Z6 x Z6 that the marked tags generate."""
    span = {(0, 0)}
    for a, b in (divmod(t, 6) for t in np.flatnonzero(tags).tolist()):
        if (a, b) not in span:
            span = {((x + k * a) % 6, (y + k * b) % 6) for x, y in span for k in range(6)}
    return len(span)


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
