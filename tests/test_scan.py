import functools
import math
import os
import platform
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import check_document, code_planes, element_at, least_sl3, random_sl3
from sl3f7 import cli, scan, subgroups, verify
from sl3f7.classify import (
    KNOWN_REPRESENTATIVES,
    ClassLabel,
    NotEigenfree,
    NotInSL3,
    eigenfree_labels,
    is_eigenfree_label,
    order_of_label,
    representative,
)
from sl3f7.matrix3 import (
    CODE_SPACE,
    GROUP_ORDER,
    IDENTITY,
    Mat3,
    char_poly,
    decode,
    det,
    encode,
    has_fp_eigenvalue,
    is_scalar,
    mat,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_scale,
    scalar_mat,
)
from sl3f7.simconj import find_conjugator

M0 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
M2 = KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]
T13 = KNOWN_REPRESENTATIVES[ClassLabel(1, 3)]

# columns verified by direct computation against the iterated product
M2_TRACES = [0, 3, 3, 1, 4, 1, 0, 2, 1, 3, 0, 2, 3, 3, 3, 4, 4, 2, 3, 0]
M2_CLASSES = [
    (0, 2), (3, 4), (3, 4), (1, 3), (4, 3), (1, 3), (0, 2), (2, 0), (1, 3),
    (3, 1), (0, 2), (2, 0), (3, 1), (3, 4), (3, 1), (4, 3), (4, 3), (2, 0),
    (3, 3), (0, 2),
]
T13_CLASSES = [
    (1, 3), (2, 0), (2, 0), (4, 3), (0, 2), (4, 3), (1, 3), (3, 1), (4, 3),
    (3, 4), (1, 3), (3, 1), (3, 4), (2, 0), (3, 4), (0, 2), (0, 2), (3, 1),
    (3, 3), (1, 3),
]


class TestExactArithmetic:
    def test_mod7_is_remainder_on_every_int16_but_the_minimum(self):
        # -32768 is outside the domain: 7 * (x // 7) overflows int16 there
        x = np.arange(-32_767, 32_768, dtype=np.int16)
        got = scan._mod7(x)
        assert got.dtype == np.int16
        assert np.array_equal(got, np.remainder(x, 7))

    @pytest.mark.parametrize("dtype,bound", [(np.int32, 2**30), (np.int64, 2**62)])
    def test_mod7_is_remainder_on_wide_samples(self, dtype, bound):
        rng = np.random.default_rng(0x3707)
        x = np.concatenate([rng.integers(-bound, bound, 20_000),
                            [0, 1, -1, 6, 7, -7, -8, bound, -bound]]).astype(dtype)
        assert np.array_equal(scan._mod7(x), np.remainder(x, 7))

    def test_decode_and_encode_round_trip_and_match_scalar_codes(self):
        # _encode_planes against matrix3's scalar decode and encode, and the
        # tests' division decoder against decode
        rng = random.Random(0xC0DE)
        codes = [0, CODE_SPACE - 1] + [rng.randrange(CODE_SPACE) for _ in range(3_000)]
        planes = _planes([decode(c) for c in codes])
        assert np.array_equal(code_planes(codes), planes)
        back = scan._encode_planes(planes)
        assert back.dtype == np.int32
        assert back.tolist() == [encode(decode(c)) for c in codes] == codes


def _planes(mats: list[Mat3]) -> np.ndarray:
    return np.array(mats, dtype=np.uint8).T.copy()


# The per-element conjugation kernels of the whole-group oracles below: two
# plane products and an adjugate per element, with no pair structure.
def _conjugate_codes(g: np.ndarray, m: Mat3) -> np.ndarray:
    """Codes of g m g^-1 for the det-1 planes g."""
    return scan._encode_planes(scan._mul_planes(scan._mul_planes(g, np.array(m, dtype=np.uint8)),
                                                scan._adjugate_planes(g)))


def _commute_chunk(d: np.ndarray, a: Mat3, b: Mat3) -> np.ndarray:
    """Planes of the g among the det-1 planes d with g*a = b*g, in column order.

    Entry (0, 0) of g*a - b*g is tested on the whole chunk first (ga and bg
    each reach 108), which keeps about 1/7 of it; the two full products
    then run on those survivors alone, and the g where they agree are kept."""
    ga = d[0] * a[0] + d[1] * a[3] + d[2] * a[6]
    bg = b[0] * d[0] + b[1] * d[3] + b[2] * d[6]
    d = np.compress(scan._mod7(ga + 112 - bg) == 0, d, axis=1)
    a, b = np.array(a, dtype=np.uint8), np.array(b, dtype=np.uint8)
    return np.compress((scan._mul_planes(d, a) == scan._mul_planes(b, d)).all(axis=0), d, axis=1)


def _columns(planes: np.ndarray) -> list[Mat3]:
    return [tuple(col) for col in planes.T.tolist()]


# every 0/6 matrix (all 0, all 6 and each mix), where the uint8 kernels meet
# their extreme operands, then random matrices of any det
_RNG = random.Random(0x0807)
EXTREME = [tuple(6 * ((k >> e) & 1) for e in range(9)) for k in range(512)]
MIXED = EXTREME + [decode(_RNG.randrange(CODE_SPACE)) for _ in range(3_000)]
SL3_MIXED = [m for m in EXTREME if det(m) == 1] + [random_sl3(_RNG) for _ in range(3_000)]


class TestUint8Kernels:
    # each kernel on uint8 planes against the scalar matrix3 arithmetic: a
    # subtraction that wraps mod 256 instead of mod 7 shows up as a mismatch
    def test_mod7_is_remainder_on_every_uint8(self):
        x = np.arange(256, dtype=np.uint8)
        got = scan._mod7(x)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.remainder(x, 7))

    def test_cross_on_every_digit_pair(self):
        # all 7^6 pairs (u, v), so every minor the + 42 must keep inside uint8
        d = code_planes(np.arange(7**6))
        got = scan._cross(d[:3], d[3:6])
        assert all(plane.dtype == np.uint8 for plane in got)
        wide = d.astype(np.int64).T
        assert np.array_equal(np.stack(got), np.remainder(np.cross(wide[:, :3], wide[:, 3:6]), 7).T)

    def test_det_plane(self):
        got = scan._det_plane(_planes(MIXED))
        assert got.dtype == np.uint8
        assert got.tolist() == [det(m) for m in MIXED]

    def test_adjugate_planes(self):
        adj = [tuple(col) for col in scan._adjugate_planes(_planes(MIXED)).T.tolist()]
        for m, a in zip(MIXED, adj):
            assert mat_mul(m, a) == mat_mul(a, m) == scalar_mat(det(m))
            if det(m):
                assert a == mat_scale(det(m), mat_inv(m))

    def test_mul_planes(self):
        other = MIXED[1:] + MIXED[:1]
        got = scan._mul_planes(_planes(MIXED), _planes(other))
        assert got.dtype == np.uint8
        assert [tuple(col) for col in got.T.tolist()] == [mat_mul(x, y) for x, y in zip(MIXED, other)]

    # the products this file's _commute_chunk (constant left), scan._map_pairs and
    # subgroups._step_tables (constant right) take, with the operand a constant
    # 9-tuple viewed as (3, 3, 1)
    @pytest.mark.parametrize("c", [M0, EXTREME[-1], EXTREME[0b100010001], EXTREME[0]])
    def test_mul_planes_constant_left(self, c):
        got = scan._mul_planes(np.array(c, dtype=np.uint8), _planes(MIXED))
        assert got.dtype == np.uint8
        assert _columns(got) == [mat_mul(c, m) for m in MIXED]

    @pytest.mark.parametrize("c", [M0, EXTREME[-1], EXTREME[0b100010001], EXTREME[0]])
    def test_mul_planes_constant_right(self, c):
        got = scan._mul_planes(_planes(MIXED), np.array(c, dtype=np.uint8))
        assert got.dtype == np.uint8
        assert _columns(got) == [mat_mul(m, c) for m in MIXED]

    def test_mul_planes_all_six_reaches_the_uint8_bound(self):
        # every entry of the accumulator is 3 * 36 = 108 before the reduction
        six = EXTREME[-1]
        expected = mat_mul(six, six)
        assert expected == (108 % 7,) * 9
        for got in (scan._mul_planes(_planes([six] * 5), _planes([six] * 5)),
                    scan._mul_planes(np.array(six, dtype=np.uint8), _planes([six] * 5)),
                    scan._mul_planes(_planes([six] * 5), np.array(six, dtype=np.uint8))):
            assert _columns(got) == [expected] * 5

    def test_mul_planes_on_no_columns(self):
        # a chunk whose first commute filter keeps nothing
        empty = np.empty((9, 0), dtype=np.uint8)
        c = np.array(M0, dtype=np.uint8)
        for x, y in ((empty, empty), (c, empty), (empty, c)):
            got = scan._mul_planes(x, y)
            assert got.dtype == np.uint8 and got.shape == (9, 0)

    def test_char_planes(self):
        tr, jc = scan._char_planes(_planes(MIXED))
        assert list(zip(tr.tolist(), jc.tolist())) == [tuple(char_poly(m)[0]) for m in MIXED]

    def test_census_chunk_root_test(self):
        # the walk's kernel bins every element; the census's rootless bins of
        # it are the eigenvector-free elements, by the per-element root test
        counts = scan._histogram_chunk(_planes(SL3_MIXED))
        expected, eigenfree = np.zeros(49, dtype=np.int64), np.zeros(49, dtype=np.int64)
        for m in SL3_MIXED:
            i, j = char_poly(m)[0]
            expected[7 * i + j] += 1
            eigenfree[7 * i + j] += not has_fp_eigenvalue(m)
        assert np.array_equal(counts, expected)
        assert np.array_equal(counts * scan._rootless_bins(), eigenfree)

    @pytest.mark.parametrize("a,b", [(EXTREME[-1], EXTREME[-1]), (EXTREME[-1], EXTREME[0]),
                                     (EXTREME[0], EXTREME[-1]), (M0, M0), (M2, mat_pow(M2, 4))])
    def test_commute_chunk(self, a, b):
        # powers of a commute with a, so a = b has solutions beyond the samples
        mats = MIXED + [mat_pow(a, k) for k in range(1, 60)]
        expected = sorted({encode(g) for g in mats if mat_mul(g, a) == mat_mul(b, g)})
        codes = np.array(sorted({encode(g) for g in mats}))
        got = _commute_chunk(code_planes(codes), a, b)
        assert scan._encode_planes(got).tolist() == expected

    def test_power_chunk(self):
        # 3 per g^k = I when 3 | k, else 1 per scalar g^k, on planes of any det
        got = scan._power_chunk(_planes(MIXED), (1, 3, 9, 19, 27))
        expected = [sum(3 * (mat_pow(g, k) == IDENTITY) if k % 3 == 0 else is_scalar(mat_pow(g, k))
                        for g in MIXED) for k in (1, 3, 9, 19, 27)]
        assert got.tolist() == expected

    def test_stream_table_cross_products(self):
        pair_planes, pair_cross, _ = scan._stream_tables()
        assert pair_planes.dtype == np.uint8
        # every pair with r2 x r3 != 0, each with its cross product; component
        # k of r2 x r3 is det(e_k; r2; r3)
        assert pair_planes.shape[1] == (343 - 1) * (343 - 7)
        units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for col, c in zip(pair_planes.T.tolist(), pair_cross.tolist()):
            cross = [det(e + tuple(col)) for e in units]
            assert c == cross[0] + 7 * cross[1] + 49 * cross[2] != 0


class TestCachedTables:
    # every later scan or solve shares these arrays, so a stray in-place
    # write must raise instead of corrupting them
    def test_stream_tables_are_read_only(self):
        tables = scan._stream_tables()
        assert len(tables) == 3
        for table in tables:
            with pytest.raises(ValueError):
                table.flat[0] = 0
            with pytest.raises(ValueError):
                table += 0

    # d = 0 is the empty nullspace of a non-conjugate pair, d = 3 the row
    # codes of the stream and closure tables, d = 6 the largest nullspace
    @pytest.mark.parametrize("d", [0, 1, 3, 5, 6])
    def test_digit_planes_are_cached_read_only_digits(self, d):
        planes = scan._digit_planes(d)
        assert planes.dtype == np.uint8 and planes.shape == (d, 7**d)
        assert planes.T.tolist() == [[c // 7**k % 7 for k in range(d)] for c in range(7**d)]
        with pytest.raises(ValueError):
            planes[...] = 1
        assert scan._digit_planes(d) is planes

    @pytest.mark.parametrize("table", [scan._rootless_bins, lambda: scan._unity_bins(19)],
                             ids=["rootless", "unity-19"])
    def test_bin_tables_are_read_only(self, table):
        bins = table()
        assert bins.dtype == bool and bins.shape == (49,)
        with pytest.raises(ValueError):
            bins[0] = not bins[0]
        assert table() is bins


    @pytest.mark.parametrize("table", [scan._group_histogram], ids=["histogram"])
    def test_histogram_tables_are_cached_read_only(self, table):
        keys = table()
        with pytest.raises(ValueError):
            keys.flat[0] = 0
        assert table() is keys


def _divides_cube_of_unity_poly(i: int, j: int, n: int) -> bool:
    """Whether t^3 - i t^2 + j t - 1 divides (t^n - 1)^3 over F7, by long
    division; coefficient lists run from the constant term up."""
    rem = [0] * (3 * n + 1)
    for k, c in zip((0, n, 2 * n, 3 * n), (-1, 3, -3, 1)):
        rem[k] = c % 7
    chi = (-1 % 7, j, -i % 7, 1)
    for top in range(3 * n, 2, -1):
        c = rem[top]
        for k in range(4):
            rem[top - 3 + k] = (rem[top - 3 + k] - c * chi[k]) % 7
    return not any(rem)


class TestBinTables:
    @pytest.mark.parametrize("n", [1, 3, 9, 19, 27, 513])
    def test_unity_bins_by_long_division(self, n):
        expected = [_divides_cube_of_unity_poly(*divmod(k, 7), n) for k in range(49)]
        assert scan._unity_bins(n).tolist() == expected
        assert expected[7 * 3 + 3]  # the identity's (t - 1)^3

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 19, 27, 57, 513])
    def test_cyclic_unity_bins_by_long_division(self, n):
        # t^n mod t^3 - i t^2 + j t - 1, reduced from the top; 1 exactly on the
        # bins whose cyclic elements have g^n = I
        expected = []
        for k in range(49):
            i, j = divmod(k, 7)
            rem = [0] * n + [1]  # t^n, constant term first
            for top in range(n, 2, -1):
                c, rem[top] = rem[top], 0
                for e, coeff in zip((top - 1, top - 2, top - 3), (i, -j, 1)):
                    rem[e] = (rem[e] + c * coeff) % 7
            expected.append(rem[:3] == [1, 0, 0] if n >= 3 else rem == [1] + [0] * n)
        assert scan._unity_bins(n, 1).tolist() == expected

    def test_rootless_bins_are_the_eigenfree_labels(self):
        assert scan._rootless_bins().tolist() == [
            is_eigenfree_label(ClassLabel(*divmod(k, 7))) for k in range(49)]


# the chunks the selection tests run on: seeded windows of the element
# stream, 102 whole row pairs from the pair of rank lo, the powers of M0 among
# random elements, and chunks of one repeated matrix, where a mask is all true
# or all false (the identity has every root test true and M0 none)
_SELECTION_CHUNKS = {
    **{f"stream-{lo}": scan._element_planes(lo // 49, lo // 49 + 102)
       for lo in random.Random(0x5E1).sample(range(GROUP_ORDER - 5_000), 3)},
    "powers": _planes([mat_pow(M0, k) for k in range(57)] + SL3_MIXED[:500]),
    "identity": _planes([IDENTITY] * 300),
    "m0": _planes([M0] * 300),
}


class TestSelection:
    # each kernel that compacts with np.compress against the boolean index it replaced
    def test_empty_selection_encodes_to_no_codes(self):
        d = _SELECTION_CHUNKS["m0"]
        picked = np.compress(np.zeros(d.shape[1], dtype=bool), d, axis=1)
        assert picked.shape == (9, 0)
        codes = scan._encode_planes(picked)
        assert codes.dtype == np.int32 and codes.size == 0

    @pytest.mark.parametrize("name", _SELECTION_CHUNKS)
    def test_eq_identity(self, name):
        d = _SELECTION_CHUNKS[name]
        got = scan._eq_identity(d)
        assert got.dtype == bool
        assert got.tolist() == [m == IDENTITY for m in _columns(d)]
        if name in ("identity", "m0", "powers"):
            assert np.count_nonzero(got) == {"identity": d.shape[1], "m0": 0, "powers": 1}[name]

    @pytest.mark.parametrize("name", _SELECTION_CHUNKS)
    def test_eq_scalar(self, name):
        d = _SELECTION_CHUNKS[name]
        got = scan._eq_scalar(d)
        assert got.dtype == bool
        assert got.tolist() == [is_scalar(m) for m in _columns(d)]
        if name in ("identity", "m0", "powers"):
            # M0 has order 57: M0^0, M0^19 and M0^38 are I, 2I and 4I in some order
            assert np.count_nonzero(got) == {"identity": d.shape[1], "m0": 0, "powers": 3}[name]

    @pytest.mark.parametrize("name", _SELECTION_CHUNKS)
    def test_census_chunk(self, name):
        d = _SELECTION_CHUNKS[name]
        has_root = np.zeros(d.shape[1], dtype=bool)
        for lam in range(1, 7):  # det(g - lam I) = 0
            shifted = d.copy()
            shifted[[0, 4, 8]] = (shifted[[0, 4, 8]] + 7 - lam) % 7
            has_root |= scan._det_plane(shifted) == 0
        tr, jc = scan._char_planes(d)
        ef = ~has_root
        expected = np.bincount((tr[ef] * 7 + jc[ef]).astype(np.int64), minlength=49)
        counts = scan._histogram_chunk(d)
        assert np.array_equal(counts, np.bincount(7 * tr.astype(np.int64) + jc, minlength=49))
        assert np.array_equal(counts * scan._rootless_bins(), expected)
        if name in ("identity", "m0"):
            assert expected.sum() == (0 if name == "identity" else d.shape[1])

    @pytest.mark.parametrize("name", _SELECTION_CHUNKS)
    @pytest.mark.parametrize("label", [ClassLabel(0, 4), ClassLabel(0, 2), ClassLabel(1, 3)])
    def test_label_chunk(self, name, label):
        # each column g gives the code of the one lam * g, lam = 1, 2, 4, that
        # carries label, if there is one, in column order
        d = _SELECTION_CHUNKS[name]
        scaled = [(lam * d) % 7 for lam in (1, 2, 4)]
        hits = np.array([(tr == label.i) & (jc == label.j) for tr, jc in map(scan._char_planes, scaled)])
        assert hits.sum(axis=0).max() <= 1
        expected = np.array([scan._encode_planes(m) for m in scaled]).T[hits.T]
        got = scan._label_chunk(d, label)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", _SELECTION_CHUNKS)
    @pytest.mark.parametrize("a,b", [(M0, M0), (M2, mat_pow(M2, 4)), (IDENTITY, scalar_mat(2))])
    def test_commute_chunk(self, name, a, b):
        # with a = I and b = 2I no entry of g*a = b*g holds on the identity
        # chunk, so the first mask is all false; on the m0 chunk with a = b =
        # M0 every mask is all true
        d = _SELECTION_CHUNKS[name]
        ga = scan._mul_planes(d, np.array(a, dtype=np.uint8))
        bg = scan._mul_planes(_planes([b] * d.shape[1]), d)
        expected = d[:, np.all(ga == bg, axis=0)]
        got = _commute_chunk(d, a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)
        if name == "identity" and b == scalar_mat(2):
            assert got.shape == (9, 0)
        if name == "m0" and a == b == M0:
            assert got.shape == d.shape


def _code_runs():
    """Digit planes of all 7^9 codes, det-1 or not, as the 343 runs of 7^6
    codes that share their third row, in ascending code order.

    Digits 0..5 are written once; each run refills planes 6..8 of the same
    (9, 7^6) uint8 buffer and yields it, so a consumer must not keep a run
    across iterations."""
    planes = np.empty((9, 7**6), dtype=np.uint8)
    planes[:6] = code_planes(np.arange(7**6))[:6]
    for row3 in code_planes(np.arange(343))[:3].T:
        planes[6:] = row3[:, None]
        yield planes


class TestCodeRuns:
    # the det histogram of the 7^9 codes reads them as the runs of _code_runs
    RUNS = (0, 1, 171, 342)

    @pytest.fixture(scope="class")
    def runs(self):
        # copies, since every run is the same buffer
        return [d.copy() if k in self.RUNS else None for k, d in enumerate(_code_runs())]

    def test_run_count(self, runs):
        assert len(runs) == 343

    @pytest.mark.parametrize("k", RUNS)
    def test_equals_division_decode(self, runs, k):
        assert runs[k].dtype == np.uint8
        assert np.array_equal(runs[k], code_planes(np.arange(k * 7**6, (k + 1) * 7**6)))

    @pytest.mark.parametrize("k", RUNS)
    def test_det_kernel(self, runs, k):
        # the det kernel against a pure-Python det, on the first and last
        # 3_000 codes of the run
        for s in (0, 7**6 - 3_000):
            assert scan._det_plane(runs[k][:, s:s + 3_000]).tolist() == [
                det(decode(c)) for c in range(k * 7**6 + s, k * 7**6 + s + 3_000)]


class TestCountSl3:
    @pytest.fixture(scope="class")
    def runs(self):
        return scan._det_one_runs()

    def test_total(self, runs):
        assert len(runs) == 343
        assert sum(runs) == scan.count_sl3() == GROUP_ORDER

    @pytest.mark.parametrize("row3", [0, 1, 8, 171, 300, 342])
    def test_run_matches_pure_python_det(self, runs, row3):
        # every one of the 7^6 codes whose third row has code row3
        third = decode(343**2 * row3)[6:]
        rows = [decode(c)[:3] for c in range(343)]
        assert runs[row3] == sum(det(r1 + r2 + third) == 1 for r2 in rows for r1 in rows)

    def test_runs_of_chosen_third_rows(self, runs):
        # parabolic_size counts H as the runs of third rows (a, 0, 0), a != 0
        assert scan._det_one_runs(range(1, 7)) == runs[1:7] == [16_464] * 6


class TestElementStream:
    def test_full_pass_is_ascending_det_one_and_group_sized(self):
        # with count_sl3() == GROUP_ORDER (acceptance check 1), this makes the
        # stream exactly the det-1 set
        parts = list(scan._map_chunks(lambda d: (scan._encode_planes(d), scan._det_plane(d))))
        codes = np.concatenate([c for c, _ in parts])
        assert codes.size == GROUP_ORDER
        assert np.all(np.diff(codes) > 0)
        assert all(np.all(dets == 1) for _, dets in parts)

    @pytest.fixture(scope="class")
    def reference(self):
        return (scan._histogram_walk(), scan.intertwiner_codes(M0, M0))

    # a scan runs in the calling thread, so CHUNK is its only partitioning
    @pytest.mark.parametrize("chunk_size", [1000, 200_003])
    def test_scans_independent_of_partitioning(self, reference, chunk_size, monkeypatch):
        histogram, centralizer_codes = reference
        monkeypatch.setattr(scan, "CHUNK", chunk_size)
        assert np.array_equal(scan._histogram_walk(), histogram)
        assert np.array_equal(scan.intertwiner_codes(M0, M0), centralizer_codes)
        assert scan._power_counts((1, 3, 9, 19, 27)) == {
            1: 1, 3: 156_411, 9: 156_411, 19: 592_705, 27: 156_411}
        if chunk_size == 200_003:
            # pieces of CHUNK // 49 = 4 081 pairs, not a power of two
            assert len(scan.orbit_oracle(M0)) == scan.class_size(M0) == 98_784


_FAULTS_OF_SECOND_PASS = """
import resource
from sl3f7 import scan
scan._power_counts((1, 3, 9, 19, 27))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
scan._power_counts((1, 3, 9, 19, 27))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestPieceMemory:
    # the fault count below sees CHUNK only through glibc's trim heuristics;
    # tracemalloc sees it on any allocator: a warm pass of the whole chain
    # peaked at 3.0, 6.0 and 12.0 MiB at CHUNK = 2^16, 2^17 and 2^18
    def test_warm_power_pass_peak_allocation(self):
        scan._power_counts((1, 3, 9, 19, 27))
        tracemalloc.start()
        try:
            scan._power_counts((1, 3, 9, 19, 27))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="minor-fault counts of glibc's allocator on Linux")
class TestPageFaults:
    # A piece's temporaries must fit glibc's heap, so that a warm power pass
    # reuses its pages instead of returning them to the kernel after every
    # piece and faulting them back in.  The pass of the whole chain builds the
    # most: 40.6 % of each piece (lcm 513) and seven powers of it.  Its second
    # pass took 0 minor faults at CHUNK = 2^16 and 2^17 and 11 900-15 000 at
    # 2^18; (19,) and (1, 3, 9, 27) took 0 and 97 at 2^18.
    def test_second_power_pass_reuses_its_pages(self):
        # a fresh interpreter, with no allocator setting from the environment
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
        src = str(Path(scan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _FAULTS_OF_SECOND_PASS],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert int(out) < 2_000


class TestThreadClamping:
    def test_nonpositive_threads_are_a_value_error(self, monkeypatch):
        def no_chunk(first, last):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(scan, "_element_planes", no_chunk)
        for threads in (0, -4):
            with pytest.raises(ValueError, match="threads must be at least 1"):
                scan.census(threads=threads)

    def test_stream_scans_start_no_thread(self, monkeypatch):
        # with threads asked for and CPUs to run them, no stream scan starts a thread
        def no_thread(self):
            raise AssertionError("a stream scan started a thread")

        monkeypatch.setenv("SL3F7_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert scan.census(threads=2).eigenfree_total == 1_778_112
        assert scan.intertwiner_codes(M0, M0).size == 57
        assert scan.label_member_codes(ClassLabel(0, 4)).size == 98_784
        assert len(scan.orbit_oracle(M0)) == 98_784
        assert scan.count_order19_elements() == 592_704
        assert scan.order_absence_check(27)
        assert scan.normalizer_oracle(M2) == 171
        assert verify._stream_is_det1()

    def test_no_path_starts_a_thread(self, monkeypatch, capsys):
        # the closure BFS, the quick suite and the closure subcommand run in
        # the calling thread, as the stream scans above do, and read no
        # SL3F7_THREADS, which would warn on stderr at a value that is not a number
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setenv("SL3F7_THREADS", "x")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert subgroups.generator_closure(subgroups.PARABOLIC_GENERATORS, cap=98_784) == 98_784
        assert verify.run_suite("quick")
        capsys.readouterr()
        assert cli.main(["closure"]) == 0
        assert capsys.readouterr().err == ""


class TestCensus:
    def test_totals(self):
        s = scan.census()
        assert s.to_json()["group_order"] == 5_630_688
        assert s.eigenfree_total == 1_778_112
        assert sum(s.by_label.values()) == s.eigenfree_total

    def test_by_trace(self):
        s = scan.census()
        assert s.by_trace[0] == 296_352
        assert s.by_trace[3] == 197_568
        assert {t: s.by_trace[t] for t in range(7)} == {
            0: 296_352, 1: 296_352, 2: 296_352, 3: 197_568,
            4: 296_352, 5: 197_568, 6: 197_568,
        }

    def test_every_label_count(self):
        s = scan.census()
        assert len(s.by_label) == 18
        assert set(s.by_label.values()) == {98_784}

    def test_answers_need_no_group_pass(self, no_group_pass):
        # the bin counts come from the bins' polynomials, not from the stream
        scan._group_histogram.cache_clear()
        assert scan.census().eigenfree_total == 1_778_112
        assert scan.count_order19_elements() == 592_704
        assert scan.order_absence_check(27)

    def test_deterministic_across_chunkings(self, monkeypatch):
        # census walks nothing; the oracle of its histogram, the element walk,
        # reads CHUNK
        base = scan._histogram_walk().tolist()
        monkeypatch.setattr(scan, "CHUNK", 1 << 19)
        assert scan._histogram_walk().tolist() == base == scan._group_histogram().tolist()

    def test_deterministic_across_threads(self):
        # census accepts a thread count and runs in the calling thread anyway
        assert scan.census(threads=3) == scan.census()

    def test_gl3_cross_check(self):
        # det histogram over all 7^9 codes: det 0 on the non-invertible ones,
        # and |GL3| / 6 = |SL3| on each nonzero det; its det-1 column, run by
        # run, is what count_sl3 sums from its histogram of minors
        gl3 = (7**3 - 1) * (7**3 - 7) * (7**3 - 7**2)
        runs = [np.bincount(scan._det_plane(d), minlength=7) for d in _code_runs()]
        assert sum(runs).tolist() == [CODE_SPACE - gl3] + [GROUP_ORDER] * 6
        assert [int(run[1]) for run in runs] == scan._det_one_runs()

    def test_serialization(self):
        doc = scan.census().to_json()
        check_document(doc)
        assert doc["by_trace"]["0"] == 296_352


class TestCentralizer:
    def test_m0_is_the_57_powers(self):
        report = scan.centralizer(M0)
        assert report.size == 57
        assert report.is_cyclic
        powers = set()
        p = IDENTITY
        for _ in range(57):
            p = mat_mul(p, M0)
            powers.add(encode(p))
        assert set(report.elements) == powers
        assert report.generator is not None

    def test_identity_centralizer_is_everything(self):
        report = scan.centralizer(IDENTITY)
        assert report.size == GROUP_ORDER
        assert not report.is_cyclic
        assert report.elements is None

    def test_doubled_subject_same_stabilizer(self):
        assert scan.centralizer(mat_scale(2, M0)).elements == scan.centralizer(M0).elements

    def test_rejects_non_sl3(self):
        with pytest.raises(NotInSL3):
            scan.centralizer(scalar_mat(3))


class TestClassSize:
    def test_m0(self):
        assert scan.class_size(M0) == 98_784

    def test_identity(self):
        assert scan.class_size(IDENTITY) == 1


# The rational canonical forms of SL3(F7): the companion of each cubic
# t^3 - i t^2 + j t - 1, then the derogatory aI, a(I + E13) and diag(a, a, a^-2).
RATIONAL_FORMS = (
    [(0, 0, 1, 1, 0, -j % 7, 0, 1, i) for i in range(7) for j in range(7)]
    + [scalar_mat(a) for a in (1, 2, 4)]
    + [(a, 0, a, 0, a, 0, 0, 0, a) for a in (1, 2, 4)]
    + [(a, 0, 0, 0, a, 0, 0, 0, pow(a, -2, 7)) for a in (3, 5, 6)]
)


class TestOrbitOracle:
    def test_rational_forms_are_every_class_of_gl3_in_sl3(self):
        # each GL3 class in SL3 is one SL3 class, but for the three of a times a
        # regular unipotent (companion of (t - a)^3, a^3 = 1): each is three SL3
        # classes of 38 304, so the 58 forms' classes miss two of each three
        assert len(set(RATIONAL_FORMS)) == 58
        assert all(det(m) == 1 for m in RATIONAL_FORMS)
        assert sum(scan.class_size(m) for m in RATIONAL_FORMS) == GROUP_ORDER - 3 * 2 * 38_304

    def test_orbit_of_every_rational_form_is_its_class(self):
        # shear orbits (scan.orbit_oracle) of 49 and smaller ones: the classes of
        # aI, a(I + E13) and a times a regular unipotent, of sizes 1, 2 736 and
        # 38 304, are not made of whole orbits of 49
        for m in RATIONAL_FORMS:
            orbit = scan.orbit_oracle(m)
            assert len(orbit) == scan.class_size(m), m
            assert encode(m) in orbit, m
            tr, jc = scan._char_planes(code_planes(np.fromiter(orbit, np.int64, len(orbit))))
            i, j = char_poly(m)[0]
            assert np.all(tr == i) and np.all(jc == j), m

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="58 whole-group conjugations (about 30 s); set SL3F7_SLOW=1 to run them",
    )
    def test_every_rational_form_equals_the_whole_group_kernel(self):
        for m in RATIONAL_FORMS:
            assert scan.orbit_oracle(m) == _whole_group_orbit(m), m

    @staticmethod
    def _keys_against_the_least_conjugates(m: Mat3, ranges: tuple[tuple[int, int], ...]) -> int:
        """Asserts that orbit_oracle's closed-form key of each pair is the least
        of its 49 shear conjugates; returns how many pairs had x3 = x6 = 0."""
        fixed = 0
        for g0, x in scan._map_pairs(lambda g0, x: (g0, x), m, ranges):
            keys = scan._orbit_keys(g0, x)
            assert keys.dtype == np.int32
            assert np.array_equal(keys, scan._shear_conjugate_codes(x).min(axis=(0, 1))), m
            fixed += int(np.count_nonzero((x[3] == 0) & (x[6] == 0)))
        return fixed

    @pytest.mark.parametrize("m, fixed", [(M0, {0}), (scalar_mat(2), {3_600}),
                                          (mat("3 0 0; 0 3 0; 0 0 4"), set(range(1, 3_600))),
                                          (mat("2 0 2; 0 2 0; 0 0 2"), set(range(1, 3_600)))],
                             ids=["eigenfree", "scalar", "diag-3-3-4", "2(I+E13)"])
    def test_closed_form_keys_are_the_least_conjugates(self, m, fixed):
        # a pair whose X has e1 as an eigenvector (x3 = x6 = 0) takes the least
        # of its 49 conjugates: every pair of a scalar, some of diag(a, a, b)
        # and of a(I + E13), none of an eigenfree m; 12 seeded runs of 300
        # pairs.  Only for a(I + E13) is the least of such a pair not X itself
        starts = sorted(random.Random(0x0C1F).sample(range(GROUP_ORDER // 49 - 300), 12))
        ranges = tuple((49 * s, 49 * (s + 300)) for s in starts)
        assert self._keys_against_the_least_conjugates(m, ranges) in fixed

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="76 walks of |G| / 3 keyed both ways (about 3 s); set SL3F7_SLOW=1 to run them",
    )
    def test_closed_form_keys_on_every_pair_of_every_form_and_representative(self):
        for m in list(RATIONAL_FORMS) + [representative(label) for label in eigenfree_labels()]:
            self._keys_against_the_least_conjugates(m, scan._PSL_RANGES)

    def test_identity_orbit(self):
        assert scan.orbit_oracle(IDENTITY) == {encode(IDENTITY)}

    def test_members_are_python_ints(self):
        orbit = scan.orbit_oracle(M0)
        assert len(orbit) == scan.class_size(M0)
        assert {type(c) for c in orbit} == {int}

    def test_peak_allocation_is_below_a_code_space_array(self):
        # a bool per code would alone take 38.5 MiB; sorting all 1.88 M int32
        # conjugates peaked at 18.7 MiB, the U-orbit keys peak at 10.0 MiB
        tracemalloc.start()
        try:
            assert len(scan.orbit_oracle(M0)) == 98_784
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20

    def test_every_label_is_one_class(self):
        # verify's check 7 compares the orbit and the label set for [0,4] and
        # [0,2] only; here every one of the 18 labels is a whole class
        for label in eigenfree_labels():
            orbit = scan.orbit_oracle(representative(label))
            assert len(orbit) == 98_784, label
            assert orbit == set(scan.label_member_codes(label).tolist()), label


class TestLabelMembers:
    def test_count_and_membership(self):
        codes = scan.label_member_codes(ClassLabel(0, 4))
        assert codes.size == 98_784
        from sl3f7.classify import class_label

        for c in codes[:: codes.size // 50]:
            assert class_label(decode(int(c))) == ClassLabel(0, 4)

    def test_rejects_non_eigenfree_label(self):
        with pytest.raises(NotEigenfree):
            scan.label_member_codes(ClassLabel(3, 3))


@pytest.fixture(scope="module")
def power_counts():
    """One power pass, read by the Sylow and order-absence tests."""
    return scan._power_counts((1, 3, 9, 19, 27))


# the exponent tuples the library asks the power pass for, and the whole chain
LIBRARY_EXPONENTS = [(19,), (1, 3), (3, 9), (9, 27), (1, 3, 9, 27), (1, 3, 9, 19, 27)]


class TestPowerKernel:
    def test_matches_pure_python_powers(self):
        # 3 000 random elements plus the identity, the only g with g^1 = I;
        # every exponent tuple the library asks for, each a cut of the chain
        rng = random.Random(0x2719)
        elements = [element_at(r) for r in rng.sample(range(GROUP_ORDER), 3_000)] + [IDENTITY]
        planes = _planes(elements)
        # every element of each coset {g, 2g, 4g} with a power equal to I
        expected = {k: sum(mat_pow(mat_scale(lam, g), k) == IDENTITY
                           for g in elements for lam in (1, 2, 4))
                    for k in (1, 3, 9, 19, 27)}
        for exponents in LIBRARY_EXPONENTS:
            assert scan._power_chunk(planes, exponents).tolist() == [expected[k] for k in exponents]

    @pytest.fixture(scope="class")
    def unfiltered(self):
        # every chunk's powers taken on all of its elements, no bin filter
        return {e: sum(scan._map_chunks(functools.partial(scan._power_chunk, exponents=e),
                                        scan._PSL_RANGES)).tolist()
                for e in LIBRARY_EXPONENTS}

    @pytest.mark.parametrize("chunk_size", [None, 10_007])
    def test_bin_filter_keeps_every_solution(self, unfiltered, chunk_size, monkeypatch):
        if chunk_size:
            monkeypatch.setattr(scan, "CHUNK", chunk_size)
        for exponents in LIBRARY_EXPONENTS:
            counts = scan._power_counts(exponents)
            assert list(counts) == list(exponents)
            assert list(counts.values()) == unfiltered[exponents]

    # the oracle pass of each absence check, of the order-19 count and of
    # check 12 runs once and, per chunk, only the products its answer reads;
    # a return to the full chain costs 7
    @pytest.mark.parametrize("entry,products", [
        (lambda: scan._power_counts((1, 3)), 2),
        (lambda: scan._power_counts((3, 9)), 4),
        (lambda: scan._power_counts((9, 27)), 6),
        (lambda: scan._power_counts((19,)), 6),
        (lambda: verify.check_order_absence(True), 6),
    ], ids=["absence-3", "absence-9", "absence-27", "order-19", "check-12"])
    def test_products_per_chunk(self, entry, products, monkeypatch):
        calls = {"passes": 0, "products": 0}
        mul_planes = scan._mul_planes

        def one_chunk(kernel, ranges=None):
            calls["passes"] += 1
            yield kernel(scan._element_planes(0, 20))

        def counted(x, y):
            calls["products"] += 1
            return mul_planes(x, y)

        monkeypatch.setattr(scan, "_map_chunks", one_chunk)
        monkeypatch.setattr(scan, "_mul_planes", counted)
        entry()
        assert calls == {"passes": 1, "products": products}


class TestSylow:
    def test_congruence_and_factorization(self, power_counts):
        n19 = scan.sylow19_count(power_counts[19] - 1)
        assert n19 % 19 == 1
        assert n19 == 2**5 * 3 * 7**3

    def test_element_count(self, power_counts):
        elements = scan.count_order19_elements()
        assert elements == power_counts[19] - 1
        assert elements == 592_704
        assert elements == 18 * scan.sylow19_count(elements)
        assert elements == 6 * 98_784

    def test_given_count_is_not_rescanned(self):
        assert scan.sylow19_count(592_704) == 32_928
        with pytest.raises(scan.NonIntegerCount):
            scan.sylow19_count(592_705)

    def test_count_failing_the_sylow_constraints_raises(self):
        # 36 = 18 * 2 divides, but n19 = 2 is not 1 mod 19
        with pytest.raises(scan.NonIntegerCount, match="n19 = 2 fails the Sylow constraints"):
            scan.sylow19_count(36)


class TestNormalizer:
    def test_m2_normalizer(self):
        n = scan.normalizer_of_cyclic(M2)
        assert n == 171
        assert n % 57 == 0
        assert n // 19 == 9

    def test_wrong_order_rejected(self):
        with pytest.raises(scan.WrongOrder):
            scan.normalizer_of_cyclic(M0)  # order 57

    ORDER19_LABELS = [label for label in eigenfree_labels() if order_of_label(label) == 19]

    def test_pruning_skips_only_empty_sets(self, rng):
        # the char poly test is sound: an intertwiner set is nonempty exactly
        # when P^k shares P's char poly, which is for k = 1, 7, 11
        assert len(self.ORDER19_LABELS) == 6
        for label in self.ORDER19_LABELS:
            for p in (representative(label), *(conj(random_sl3(rng), representative(label))
                                               for _ in range(2))):
                agree = set()
                for k in range(1, 19):
                    pk = mat_pow(p, k)
                    same = char_poly(pk) == char_poly(p)
                    assert scan.intertwiners(p, pk).size == (57 if same else 0)
                    if same:
                        agree.add(k)
                assert agree == {1, 7, 11}
                assert scan.normalizer_of_cyclic(p) == 171

    def test_solves_three_intertwiner_systems(self, monkeypatch):
        calls = []
        intertwiners = scan.intertwiners

        def counted(a, b):
            calls.append(b)
            return intertwiners(a, b)

        monkeypatch.setattr(scan, "intertwiners", counted)
        assert scan.normalizer_of_cyclic(M2) == 171
        assert calls == [mat_pow(M2, k) for k in (1, 7, 11)]

    def test_agrees_with_oracle_off_m02(self):
        p = representative(ClassLabel(3, 1))
        assert scan.normalizer_of_cyclic(p) == scan.normalizer_oracle(p) == 171

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="6 whole-group conjugations (about 3 s); set SL3F7_SLOW=1 to run them",
    )
    def test_oracle_equals_the_whole_group_kernel_for_every_order19_label(self):
        # the oracle reads |C(P)| off orbit_oracle's orbit; the kernel counts
        # every g of the group with g P g^-1 among the 19 powers of P
        for label in self.ORDER19_LABELS:
            p = representative(label)
            assert scan.normalizer_oracle(p) == _whole_group_normalizer(p) == 171, label


class TestOrderAbsence:
    def test_order_nine_absent(self, power_counts):
        assert scan._order_absent(power_counts, 9) is True

    def test_order_27_absent(self, power_counts):
        assert scan._order_absent(power_counts, 27) is True
        assert scan.order_absence_check(27) is True

    def test_order_three_present(self, power_counts):
        assert scan._order_absent(power_counts, 3) is False

    def test_unsupported_order(self):
        with pytest.raises(scan.UnsupportedOrder):
            scan.order_absence_check(5)


@functools.cache
def _noncyclic_planes() -> np.ndarray:
    """Digit planes of the det-1 aI + N with rank N <= 1, built from (a, u, v):
    N = u v^T with u's leading nonzero entry 1, v != 0 and v . u = a^-2 - a, so
    det = a^2 (a + v . u) = 1, each N once; and the scalars aI with a^3 = 1."""
    vectors = np.array([v for v in np.ndindex(7, 7, 7) if any(v)])
    leading = vectors[[next(x for x in v if x) == 1 for v in vectors]]  # 57 lines of F7^3
    rank_one = (leading[:, None, :, None] * vectors[None, :, None, :]).reshape(-1, 9)
    trace = (leading @ vectors.T).ravel() % 7
    blocks = []
    for a in range(1, 7):
        t = (pow(a, -2, 7) - a) % 7
        if t == 0:
            blocks.append(np.array([scalar_mat(a)]))
        blocks.append((rank_one[trace == t] + a * np.array(IDENTITY)) % 7)
    return np.concatenate(blocks).T.astype(np.uint8)


def _noncyclic_mask(d: np.ndarray) -> np.ndarray:
    """Whether g^2 is in span(I, g), i.e. g is not cyclic, for the planes d."""
    square = scan._mul_planes(d, d)
    identity = np.array(IDENTITY, dtype=np.uint8)[:, None]
    return np.any([(square == scan._mod7(alpha * identity + beta * d)).all(axis=0)
                   for alpha in range(7) for beta in range(7)], axis=0)


def _plane_power(d: np.ndarray, n: int) -> np.ndarray:
    result = np.broadcast_to(np.array(IDENTITY, dtype=np.uint8)[:, None], d.shape)
    for bit in bin(n)[2:]:
        result = scan._mul_planes(result, result)
        if bit == "1":
            result = scan._mul_planes(result, d)
    return result


class TestNoncyclic:
    """The det-1 elements that are not cyclic are aI + N with rank N <= 1
    (rational canonical form); scan._noncyclic states their bins and powers
    in closed form, checked here against the set built as matrices."""

    def test_set_is_16590_distinct_noncyclic_det_one_elements(self):
        d = _noncyclic_planes()
        assert d.shape == (9, 16_590)
        assert np.unique(scan._encode_planes(d)).size == 16_590
        assert np.all(scan._det_plane(d) == 1)
        assert np.all(_noncyclic_mask(d))

    def test_one_seeded_chunk_holds_exactly_its_members_of_the_set(self):
        first = random.Random(0x0C1C).randrange((GROUP_ORDER - scan.CHUNK) // 49)
        d = scan._element_planes(first, first + scan.CHUNK // 49)
        codes = scan._encode_planes(d)
        found = np.compress(_noncyclic_mask(d), codes)
        members = np.sort(scan._encode_planes(_noncyclic_planes()))
        assert found.size > 100
        assert np.array_equal(found, members[(members >= codes[0]) & (members <= codes[-1])])

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="walks all of G (about 2 s); set SL3F7_SLOW=1 to test every element",
    )
    def test_every_element_of_the_group(self):
        found = np.concatenate(list(scan._map_chunks(
            lambda d: np.compress(_noncyclic_mask(d), scan._encode_planes(d)))))
        assert np.array_equal(found, np.sort(scan._encode_planes(_noncyclic_planes())))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 9, 14, 19, 27, 42, 49, 57, 336])
    def test_closed_form_bins_and_powers(self, n):
        d = _noncyclic_planes()
        tr, jc = scan._char_planes(d)
        bins, unity = scan._noncyclic(n)
        assert bins.tolist() == np.bincount(7 * tr + jc, minlength=49).tolist()
        assert unity == np.count_nonzero(scan._eq_identity(_plane_power(d, n)))

    def test_unity_counts_of_known_classes(self):
        # g^2 = I: I and the |G| / |GL2(F7)| conjugates of diag(-1, -1, 1);
        # g^7 = I: the q^6 unipotent elements (Steinberg)
        assert scan._unity_counts((2, 7)) == {2: 1 + GROUP_ORDER // 2016, 7: 7**6}


class TestPowerTable:
    def test_m2_trace_column(self):
        rows = scan.power_table(M2, 20)
        assert [r.pair[0] for r in rows] == M2_TRACES

    def test_m2_class_column(self):
        rows = scan.power_table(M2, 20)
        assert [r.pair for r in rows] == M2_CLASSES
        assert rows[18].note == "identity"

    def test_trace_one_subject_class_column(self):
        rows = scan.power_table(T13, 20)
        assert [r.pair for r in rows] == T13_CLASSES
        for k in (1, 7, 11, 20):
            assert rows[k - 1].pair == (1, 3)
        for k in (5, 16, 17):
            assert rows[k - 1].pair == (0, 2)
        for k in (8, 12, 18):
            assert rows[k - 1].pair == (3, 1)

    def test_scalar_rows_flagged(self):
        rows = scan.power_table(M0, 40)
        assert rows[18].note == "scalar 4I"
        assert rows[37].note == "scalar 2I"

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            scan.power_table(M2, 0)
        with pytest.raises(ValueError):
            scan.power_table(M2, 121)


class TestParameterTable:
    def test_total_is_57(self):
        assert sum(len(sols) for _, _, sols in scan.centralizer_parameter_table()) == 57

    def test_49_rows(self):
        table = scan.centralizer_parameter_table()
        assert len(table) == 49
        assert [(b, d) for b, d, _ in table] == [(b, d) for b in range(7) for d in range(7)]

    def test_cubic_matches_family_determinant(self):
        for a in range(7):
            for b in range(7):
                for d in range(7):
                    assert scan.commutant_det_cubic(a, b, d) == det(scan.commutant_family(a, b, d))

    def test_family_members_commute_with_m0(self):
        for b, d, sols in scan.centralizer_parameter_table():
            for a in sols:
                s = scan.commutant_family(a, b, d)
                assert det(s) == 1
                assert mat_mul(s, M0) == mat_mul(M0, s)

    def test_solutions_are_exactly_the_centralizer(self):
        family = {
            encode(scan.commutant_family(a, b, d))
            for b, d, sols in scan.centralizer_parameter_table()
            for a in sols
        }
        assert family == set(scan.centralizer(M0).elements)


def conj(g: Mat3, m: Mat3) -> Mat3:
    return mat_mul(mat_mul(g, m), mat_inv(g))


def intertwiner_pair(kind: str, rng: random.Random) -> tuple[Mat3, Mat3]:
    """A random pair (a, b) of the given kind, each conjugated at random."""
    labels = list(KNOWN_REPRESENTATIVES)
    if kind == "conjugate":
        a = conj(random_sl3(rng), KNOWN_REPRESENTATIVES[rng.choice(labels)])
        return a, conj(random_sl3(rng), a)
    if kind == "non-conjugate":
        la, lb = rng.sample(labels, 2)
        return (conj(random_sl3(rng), KNOWN_REPRESENTATIVES[la]),
                conj(random_sl3(rng), KNOWN_REPRESENTATIVES[lb]))
    if kind == "derogatory":  # solution space of dimension 5
        d = mat((1, 0, 0, 0, 1, 0, 0, 0, 2))
        return conj(random_sl3(rng), d), conj(random_sl3(rng), d)
    # a scalar against a non-scalar sharing its eigenvalue: dimension 6
    lam, mu = rng.sample(range(1, 7), 2)
    return scalar_mat(lam), conj(random_sl3(rng), mat((lam, 0, 0, 0, lam, 0, 0, 0, mu)))


class TestIntertwiner:
    # each example costs one oracle scan of the whole group
    @seed(0x1A7E)
    @settings(max_examples=8, deadline=None)
    @given(kind=st.sampled_from(["conjugate", "non-conjugate", "derogatory", "scalar"]),
           pair_seed=st.integers(0, 2**32 - 1))
    @example(kind="conjugate", pair_seed=0)
    @example(kind="non-conjugate", pair_seed=0)
    @example(kind="derogatory", pair_seed=0)
    @example(kind="scalar", pair_seed=0)
    # the oracle tests the 9 entries of g*a - b*g one by one; for a conjugate
    # pair the 9 equations are dependent and 8 of them can have the same
    # solutions, but leaving out any one entry adds det-1 solutions here
    @example(kind="non-conjugate", pair_seed=23)
    def test_matches_oracle_scan(self, kind, pair_seed):
        a, b = intertwiner_pair(kind, random.Random(pair_seed))
        codes = scan.intertwiner_codes(a, b)
        assert np.array_equal(scan.intertwiners(a, b), codes)
        # find_conjugator reads the least code; it takes det-1 matrices only
        if det(a) == det(b) == 1:
            assert find_conjugator(a, b) == (decode(int(codes[0])) if codes.size else None)
        else:
            with pytest.raises(NotInSL3):
                find_conjugator(a, b)

    def test_equal_scalars_raise_without_a_group_pass(self, no_group_pass):
        two = scalar_mat(2)
        with pytest.raises(ValueError, match="every element intertwines"):
            scan.intertwiners(two, two)

    @pytest.mark.parametrize("lam", [1, 2, 4])
    def test_scalar_answers_need_no_group_pass(self, no_group_pass, lam):
        s = scalar_mat(lam)
        assert find_conjugator(s, s) == least_sl3()
        assert scan.centralizer(s) == scan.CentralizerReport(s, GROUP_ORDER, False, None, None)
        assert scan.class_size(s) == 1
        # nor do the eigenvector-free subjects M0 = M04 (order 57) and M2 = M02 (order 19)
        for m in (M0, M2):
            report = scan.centralizer(m)
            assert report.size == 57 and report.is_cyclic
            assert scan.class_size(m) == GROUP_ORDER // 57
            assert encode(find_conjugator(m, m)) == report.elements[0]
            p = m if mat_pow(m, 19) == IDENTITY else mat_pow(m, 3)  # order 19
            assert scan.normalizer_of_cyclic(p) == 171
            assert [row.k for row in scan.power_table(m, 57)] == list(range(1, 58))

    def test_different_scalars_give_nothing(self):
        assert scan.intertwiners(scalar_mat(2), scalar_mat(4)).size == 0
        assert scan.intertwiner_codes(scalar_mat(2), scalar_mat(4)).size == 0

    def test_first_intertwiner_is_the_oracles_least_code(self):
        least = int(scan.intertwiners(M0, M0)[0])
        g: Mat3 = decode(least)
        assert mat_mul(g, M0) == mat_mul(M0, g)
        assert least == int(scan.intertwiner_codes(M0, M0).min())

    def test_different_labels_never_conjugate(self):
        assert scan.intertwiners(M0, mat_scale(2, M0)).size == 0
        assert scan.intertwiner_codes(M0, mat_scale(2, M0)).size == 0

    def test_code_arrays_are_int32(self):
        # _encode_planes returns int32 codes (7^9 < 2^31) and no caller widens
        # them, whether the array is empty or not
        for a, b in ((M0, M0), (M0, mat_scale(2, M0))):
            assert scan.intertwiners(a, b).dtype == np.int32
            assert scan.intertwiner_codes(a, b).dtype == np.int32
        assert scan.label_member_codes(ClassLabel(0, 4)).dtype == np.int32


# third-row block of the stream: 336 second rows times 49 first rows
R3_BLOCK = 16_464


def _whole_group_orbit(m: Mat3) -> set[int]:
    orbit: set[int] = set()
    for codes in scan._map_chunks(lambda g: _conjugate_codes(g, m)):
        orbit.update(codes.tolist())
    return orbit


def _whole_group_intertwiners(a: Mat3, b: Mat3) -> np.ndarray:
    return np.concatenate(list(scan._map_chunks(
        lambda d: scan._encode_planes(_commute_chunk(d, a, b)))))


def _whole_group_normalizer(p: Mat3) -> int:
    members = [encode(mat_pow(p, k)) for k in range(19)]
    return sum(int(np.count_nonzero(np.isin(_conjugate_codes(g, p), members)))
               for g in scan._map_chunks(lambda g: g))


def _whole_group_power_counts(exponents: tuple[int, ...]) -> dict[int, int]:
    # g^k by k - 1 products, with no addition chain and no coset count
    bins = np.flatnonzero(scan._unity_bins(math.lcm(*exponents)))

    def kernel(d: np.ndarray) -> np.ndarray:
        tr, jc = scan._char_planes(d)
        g = power = np.compress(np.isin(tr * 7 + jc, bins), d, axis=1)
        counts = {}
        for k in range(1, max(exponents) + 1):
            counts[k] = np.count_nonzero(scan._eq_identity(power))
            power = scan._mul_planes(power, g)
        return np.array([counts[k] for k in exponents])

    return dict(zip(exponents, sum(scan._map_chunks(kernel)).tolist()))


def _whole_group_histogram() -> np.ndarray:
    def kernel(d: np.ndarray) -> np.ndarray:
        tr, jc = scan._char_planes(d)
        return np.bincount(7 * tr + jc, minlength=49)

    return sum(scan._map_chunks(kernel))


def _whole_group_label_codes(label: ClassLabel) -> np.ndarray:
    def kernel(d: np.ndarray) -> np.ndarray:
        tr, jc = scan._char_planes(d)
        return scan._encode_planes(np.compress((tr == label.i) & (jc == label.j), d, axis=1))

    return np.concatenate(list(scan._map_chunks(kernel)))


class TestPairWalk:
    """The 49 elements of a stream pair (r2, r3) are E g0 for the shears
    E = I + e1 (0, a, b), g0 its first element, so the conjugation scans
    conjugate once per pair and shear the result 49 ways."""

    def test_shears_of_each_pair_base_are_its_49_stream_elements(self):
        # every pair of the whole stream; the pair walk and the element walk
        # cut the same pieces (scan._pieces)
        a = np.arange(7, dtype=np.uint8)[:, None, None]
        b = np.arange(7, dtype=np.uint8)[:, None]

        def shears(g0: np.ndarray, x: np.ndarray) -> np.ndarray:
            r1 = scan._mod7(g0[:3, None, None] + a * g0[3:6, None, None] + b * g0[6:9, None, None])
            rows23 = np.broadcast_to(g0[3:, None], (6, 49, g0.shape[1]))
            codes = scan._encode_planes(np.concatenate([r1.reshape(3, 49, -1), rows23]))
            return np.sort(codes, axis=0).T.ravel()  # each pair's 49 codes, ascending

        whole = ((0, GROUP_ORDER),)
        pieces = zip(scan._map_pairs(shears, IDENTITY, whole), scan._map_chunks(scan._encode_planes, whole),
                     strict=True)
        ranks = 0
        for got, expected in pieces:
            assert np.array_equal(got, expected)
            ranks += got.size
        assert ranks == GROUP_ORDER

    def test_characteristic_pairs_of_each_pair_are_affine_in_a_b(self, monkeypatch):
        # every pair of the whole stream: E_ab g0 has the pair
        # (i0 + a r2[0] + b r3[0], j0 - a c[1] - b c[2]), c = r2 x r3, so the
        # 49 elements of a pair spread over the bins by an affine map of (a, b)
        monkeypatch.setattr(scan, "CHUNK", 49 * 4_000)
        a = np.arange(7)[:, None, None]
        b = np.arange(7)[:, None]

        def affine(g0: np.ndarray, x: np.ndarray) -> int:
            r1 = scan._mod7(g0[:3, None, None] + a.astype(np.uint8) * g0[3:6, None, None]
                            + b.astype(np.uint8) * g0[6:9, None, None])
            rows23 = np.broadcast_to(g0[3:, None, None], (6, 7, 7, g0.shape[1]))
            i, j = scan._char_planes(np.concatenate([r1, rows23]))
            i0, j0 = scan._char_planes(g0)
            _, c1, c2 = scan._cross(g0[3:6], g0[6:9])
            assert np.array_equal(i, (i0 + a * g0[3] + b * g0[6]) % 7)
            assert np.array_equal(j, (j0 - a * c1 - b * c2) % 7)
            return g0.shape[1]

        assert sum(scan._map_pairs(affine, IDENTITY, ((0, GROUP_ORDER),))) == GROUP_ORDER // 49

    def test_walks_are_counted_in_ranks(self):
        before = scan.WALKS.copy()
        list(scan._map_pairs(lambda g0, x: None, IDENTITY, scan._PSL_RANGES))
        list(scan._map_chunks(lambda d: None, ((0, 49 * 20),)))
        assert (scan.WALKS - before).tolist() == [2, GROUP_ORDER // 3 + 980]

    @pytest.mark.parametrize("chunk_size", [49, 4999, 1 << 16, 200_003])
    @pytest.mark.parametrize("ranges", [scan._PSL_RANGES, ((0, GROUP_ORDER),)], ids=["psl", "whole"])
    def test_pieces_are_whole_pairs_covering_the_ranges(self, ranges, chunk_size, monkeypatch):
        monkeypatch.setattr(scan, "CHUNK", chunk_size)
        before = scan.WALKS.copy()
        pieces = list(scan._pieces(ranges))
        assert (scan.WALKS - before).tolist() == [1, sum(hi - lo for lo, hi in ranges)]
        assert all(0 < last - first <= chunk_size // 49 for first, last in pieces)
        # joined end to end, the pieces are the ranges, in rank order (no two
        # ranges are adjacent, so a piece that crossed a range bound would show)
        joined: list[list[int]] = []
        for first, last in pieces:
            if joined and joined[-1][1] == 49 * first:
                joined[-1][1] = 49 * last
            else:
                joined.append([49 * first, 49 * last])
        assert joined == [list(r) for r in ranges]

    @pytest.mark.parametrize("chunk_size", [1000, 1 << 16])
    def test_pieces_are_the_first_elements_of_the_pairs_in_order(self, chunk_size, monkeypatch):
        monkeypatch.setattr(scan, "CHUNK", chunk_size)
        bases = list(scan._map_pairs(lambda g0, x: g0, IDENTITY, scan._PSL_RANGES))
        assert max(g0.shape[1] for g0 in bases) == chunk_size // 49
        expected = [scan._encode_planes(scan._element_planes(lo // 49, hi // 49))[::49]
                    for lo, hi in scan._PSL_RANGES]
        assert np.array_equal(np.concatenate([scan._encode_planes(g0) for g0 in bases]),
                              np.concatenate(expected))

    def test_base_conjugates_are_matrix_products(self):
        m = M2
        pieces = list(scan._map_pairs(lambda g0, x: (g0, x), m, ((0, 49 * 3_000),)))
        assert sum(g0.shape[1] for g0, _ in pieces) == 3_000
        for g0, x in pieces:
            assert _columns(x) == [mat_mul(mat_mul(g, m), mat_inv(g)) for g in _columns(g0)]

    def test_shear_conjugate_codes_are_matrix_products(self):
        # matrices of any det, the all-0/6 ones first, where the row sums and
        # column operations meet their uint8 bounds
        xs = EXTREME + MIXED[len(EXTREME):len(EXTREME) + 400]
        got = scan._shear_conjugate_codes(_planes(xs))
        assert got.dtype == np.int32 and got.shape == (7, 7, len(xs))
        for a in range(7):
            for b in range(7):
                e = (1, a, b, 0, 1, 0, 0, 0, 1)
                e_inv = mat_inv(e)
                assert got[a, b].tolist() == [encode(mat_mul(mat_mul(e, x), e_inv)) for x in xs], (a, b)


_ORBIT_SUBJECTS = {"eigenfree": M0, "diag-1-2-4": mat("1 0 0; 0 2 0; 0 0 4"),
                   "transvection": mat("1 1 0; 0 1 0; 0 0 1")}
_INTERTWINER_KINDS = ["conjugate", "non-conjugate", "derogatory"]
_CENTRAL_EXPONENTS = [(3,), (3, 9), (9, 27)]
# an exponent prime to 3 counts the cosets whose power is any scalar
_MIXED_EXPONENTS = [(1, 3), (19,), (1, 3, 9, 27), (1, 3, 9, 19, 27)]
# i = 0 and order 57, i != 0 and order 57, order 19
_WALKED_LABELS = [ClassLabel(0, 4), ClassLabel(2, 5), ClassLabel(1, 3)]


class TestCosetWalk:
    """Every class-function and conjugation scan walks one element of each
    coset of the centre {I, 2I, 4I} and rebuilds the whole-group answer; each
    must equal its kernel run over the whole group here, for any CHUNK."""

    def test_ranges_hold_a_third_of_the_group_in_whole_row3_blocks(self):
        ranges = scan._PSL_RANGES
        assert sum(hi - lo for lo, hi in ranges) * 3 == GROUP_ORDER
        assert all(bound % R3_BLOCK == 0 for r in ranges for bound in r)
        bounds = [bound for r in ranges for bound in r]
        assert bounds == sorted(bounds) and all(lo < hi for lo, hi in ranges)

    def test_exactly_one_of_g_2g_4g_has_its_row3_block_in_the_ranges(self):
        rng = np.random.default_rng(0xC05E7)
        planes = code_planes(rng.integers(0, CODE_SPACE, 100_000))
        g = np.compress(scan._det_plane(planes) == 1, planes, axis=1)[:, :10_000]
        assert g.shape[1] == 10_000
        hits = np.zeros(g.shape[1], dtype=int)
        for lam in (1, 2, 4):
            row3 = scan._encode_planes(scan._mod7(lam * g)) // 343**2
            lo, hi = (row3 - 1) * R3_BLOCK, row3 * R3_BLOCK
            hits += np.any([(start <= lo) & (hi <= stop) for start, stop in scan._PSL_RANGES], axis=0)
        assert np.all(hits == 1)

    @pytest.fixture(scope="class")
    def whole_group(self):
        pairs = {kind: intertwiner_pair(kind, random.Random(0xC05)) for kind in _INTERTWINER_KINDS}
        histogram = _whole_group_histogram()  # all 49 bins
        return {
            "orbits": {name: _whole_group_orbit(m) for name, m in _ORBIT_SUBJECTS.items()},
            "pairs": pairs,
            "intertwiners": {kind: _whole_group_intertwiners(*pair) for kind, pair in pairs.items()},
            "normalizer": _whole_group_normalizer(M2),
            "powers": _whole_group_power_counts((1, 3, 9, 19, 27)),
            "histogram": histogram,
            "census": {ClassLabel(*divmod(k, 7)): int(n) for k, n in enumerate(histogram)
                       if n and scan._rootless_bins()[k]},
            "labels": {label: _whole_group_label_codes(label) for label in _WALKED_LABELS},
        }

    # CHUNK = 4 999 ranks makes pieces of 102 whole pairs, which do not divide
    # 336, the pairs of a row-3 block and of the smallest _PSL_RANGES range
    @pytest.mark.parametrize("chunk_size", [1 << 16, 4999, 200_003])
    def test_each_scan_equals_its_whole_group_kernel(self, whole_group, chunk_size, monkeypatch):
        monkeypatch.setattr(scan, "CHUNK", chunk_size)
        for name, m in _ORBIT_SUBJECTS.items():
            assert scan.orbit_oracle(m) == whole_group["orbits"][name], name
        for kind, pair in whole_group["pairs"].items():
            codes = scan.intertwiner_codes(*pair)
            expected = whole_group["intertwiners"][kind]
            assert codes.dtype == expected.dtype and np.array_equal(codes, expected), kind
            assert (codes.size == 0) == (kind == "non-conjugate"), kind
        assert scan.normalizer_oracle(M2) == whole_group["normalizer"] == 171
        for exponents in _CENTRAL_EXPONENTS + _MIXED_EXPONENTS:
            expected = {k: whole_group["powers"][k] for k in exponents}
            assert scan._power_counts(exponents) == expected == scan._unity_counts(exponents)
        for histogram in (scan._group_histogram(), scan._histogram_walk()):
            assert histogram.tolist() == whole_group["histogram"].tolist()
        census = scan.census()
        assert census.by_label == whole_group["census"]
        assert census.eigenfree_total == sum(whole_group["census"].values())
        for label in _WALKED_LABELS:
            codes = scan.label_member_codes(label)
            expected = whole_group["labels"][label]
            assert codes.dtype == expected.dtype and np.array_equal(codes, expected), label

    # only a det or stream oracle walks the whole group: every class-function,
    # power-count and conjugation oracle walks one element per coset of the
    # centre, the conjugation scans through the pair walk and no other walk;
    # the census, the order-19 count and the absence checks walk nothing
    @pytest.mark.parametrize("entry,walk", [
        (lambda: scan.order_absence_check(3), None),
        (lambda: scan.order_absence_check(9), None),
        (lambda: scan.order_absence_check(27), None),
        (lambda: scan._power_counts((3,)), "coset"),
        (lambda: scan._power_counts((19,)), "coset"),
        (lambda: scan._power_counts((1, 3, 9, 27)), "coset"),
        (lambda: scan.count_order19_elements(), None),
        (lambda: verify.check_census(True), "coset"),
        (lambda: verify.check_label_catalog(True), None),
        (lambda: verify.check_sylow(True), "coset"),
        (lambda: verify.check_order_absence(True), "coset"),
        (lambda: scan.orbit_oracle(M0), "pairs"),
        (lambda: scan.intertwiner_codes(M0, M0), "pairs"),
        (lambda: scan.normalizer_oracle(M2), "pairs"),
        (lambda: scan.census(), None),
        (lambda: scan._histogram_walk(), "coset"),
        (lambda: scan.label_member_codes(ClassLabel(0, 4)), "coset"),
        (lambda: verify._stream_is_det1(), "whole"),
    ], ids=["absence-3", "absence-9", "absence-27", "power-3", "power-19", "power-1-3-9-27",
            "order-19", "check-2", "check-3", "check-10", "check-12", "orbit", "intertwiner",
            "normalizer", "census", "census-walk", "label-members", "stream-check"])
    def test_walk_chosen(self, entry, walk, monkeypatch):
        walked = {"chunks": [], "pairs": []}
        map_chunks, map_pairs = scan._map_chunks, scan._map_pairs

        def first_chunk(kernel, ranges=((0, GROUP_ORDER),)):
            walked["chunks"].append(ranges)
            return map_chunks(kernel, ((ranges[0][0], ranges[0][0] + 49 * 20),))

        def first_pairs(kernel, m, ranges):
            walked["pairs"].append(ranges)
            return map_pairs(kernel, m, ((ranges[0][0], ranges[0][0] + 49 * 20),))

        monkeypatch.setattr(scan, "_map_chunks", first_chunk)
        monkeypatch.setattr(scan, "_map_pairs", first_pairs)
        entry()
        expected = {"chunks": [], "pairs": []}
        if walk == "pairs":
            expected["pairs"] = [scan._PSL_RANGES]
        elif walk:
            expected["chunks"] = [scan._PSL_RANGES if walk == "coset" else ((0, GROUP_ORDER),)]
        assert walked == expected
