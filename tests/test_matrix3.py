import itertools
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_gl3, random_sl3
from sl3f7.field import CubicPoly, fp_inv
from sl3f7.matrix3 import (
    CODE_SPACE,
    GROUP_ORDER,
    IDENTITY,
    CodeOutOfRange,
    MatrixFormatError,
    SingularMatrix,
    char_poly,
    decode,
    det,
    encode,
    format_matrix,
    has_fp_eigenvalue,
    mat,
    mat_inv,
    mat_mul,
    mat_order,
    mat_pow,
    mat_scale,
    nullspace,
    parse_matrix,
    scalar_mat,
    trace,
)

M0 = mat("0 1 3; 0 0 1; 1 0 0")
M2 = mat("0 2 -1; 0 0 2; 2 0 0")
ZERO = (0,) * 9


def null_space_has_nonzero(m, lam: int) -> bool:
    """Gaussian-elimination oracle: does (m - lam*I)v = 0 have v != 0?"""
    return bool(nullspace([[m[3 * r + c] - lam * (r == c) for c in range(3)] for r in range(3)]))


class TestDet:
    def test_identity(self):
        assert det(IDENTITY) == 1

    def test_m0(self):
        assert det(M0) == 1

    def test_zero_matrix(self):
        assert det(ZERO) == 0

    def test_multiplicative_on_random_pairs(self):
        rng = random.Random(7001)
        for _ in range(10_000):
            a = decode(rng.randrange(CODE_SPACE))
            b = decode(rng.randrange(CODE_SPACE))
            assert det(mat_mul(a, b)) == det(a) * det(b) % 7


class TestCharPoly:
    def test_identity_is_cube_of_t_minus_one(self):
        poly, d = char_poly(IDENTITY)
        assert (poly, d) == (CubicPoly(3, 3), 1)

    def test_m0(self):
        poly, d = char_poly(M0)
        assert (poly.i, poly.j, d) == (0, 4, 1)

    def test_m2(self):
        poly, d = char_poly(M2)
        assert (poly.i, poly.j, d) == (0, 2, 1)

    def test_conjugation_invariant(self, rng):
        for _ in range(2_000):
            m = decode(rng.randrange(CODE_SPACE))
            g = random_sl3(rng)
            conj = mat_mul(mat_mul(g, m), mat_inv(g))
            assert char_poly(conj) == char_poly(m)

    def test_cayley_hamilton(self, rng):
        for _ in range(5_000):
            m = decode(rng.randrange(CODE_SPACE))
            poly, d = char_poly(m)
            m2 = mat_mul(m, m)
            m3 = mat_mul(m2, m)
            acc = tuple(
                (m3[k] - poly.i * m2[k] + poly.j * m[k] - d * IDENTITY[k]) % 7
                for k in range(9)
            )
            assert acc == ZERO


class TestEigenvalues:
    def test_identity_has_eigenvalue(self):
        assert has_fp_eigenvalue(IDENTITY)

    def test_m0_eigenfree(self):
        assert not has_fp_eigenvalue(M0)

    def test_block_triangular_always_has_eigenvalue(self, rng):
        for _ in range(500):
            m = list(decode(rng.randrange(CODE_SPACE)))
            m[3] = m[6] = 0
            assert has_fp_eigenvalue(tuple(m))

    def test_nullspace_identity(self):
        assert null_space_has_nonzero(IDENTITY, 1)

    def test_nullspace_m0_all_lambdas(self):
        assert all(not null_space_has_nonzero(M0, lam) for lam in range(7))

    def test_nullspace_doubled_identity(self):
        assert null_space_has_nonzero(scalar_mat(2), 2)

    def test_root_test_agrees_with_elimination_oracle(self, rng):
        for _ in range(100_000):
            m = decode(rng.randrange(CODE_SPACE))
            by_roots = has_fp_eigenvalue(m)
            by_kernel = any(null_space_has_nonzero(m, lam) for lam in range(7))
            assert by_roots == by_kernel


_systems = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-13, 13), min_size=cols, max_size=cols), min_size=1, max_size=5))


class TestNullspace:
    @seed(0x9E11)
    @settings(max_examples=300, deadline=None)
    @given(rows=_systems)
    def test_basis_spans_the_kernel_in_reduced_echelon_form(self, rows):
        n = len(rows[0])
        kernel = [v for v in itertools.product(range(7), repeat=n)
                  if all(sum(a * x for a, x in zip(row, v)) % 7 == 0 for row in rows)]
        basis = nullspace(rows)
        assert len(kernel) == 7 ** len(basis)
        assert all(tuple(v) in kernel for v in basis)
        # the free columns are the last nonzero entries of the nonzero kernel vectors
        free = sorted({max(k for k in range(n) if v[k]) for v in kernel if any(v)})
        assert len(free) == len(basis)
        for v, f in zip(basis, free):
            assert [v[g] for g in free] == [int(g == f) for g in free]
            assert not any(v[f + 1:])

    def test_examples(self):
        assert nullspace([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert nullspace([[1, 2], [3, 4]]) == []
        assert nullspace([[2, 1, 0]]) == [[3, 1, 0], [0, 0, 1]]


def reference_nullspace(rows):
    """Gauss-Jordan on a list of rows, one Python loop per row operation: the
    differential oracle of nullspace's packed elimination.  The reduced
    echelon form is unique, so both return the same vectors in one order."""
    rows = [[v % 7 for v in row] for row in rows]
    n = len(rows[0])
    pivots = []
    for col in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = fp_inv(rows[r][col])
        rows[r] = [v * inv % 7 for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % 7 for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for row, p in zip(rows, pivots):
            v[p] = -row[free] % 7
        basis.append(v)
    return basis


def _seeded_system(rng, height, width):
    """A height x width system of random rank: each row a random combination
    of rank random rows, with entries offset by multiples of 7 (the solver
    reduces them).  Some columns are zero in every row, so pivots also fall
    past free columns, and one row in four is zero."""
    rank = rng.randint(0, min(height, width))
    zero_cols = set(rng.sample(range(width), rng.randint(0, width // 3)))
    gens = [[0 if k in zero_cols else rng.randrange(7) for k in range(width)] for _ in range(rank)]
    rows = []
    for _ in range(height):
        coeffs = [rng.randrange(7) for _ in gens]
        row = [sum(c * g[k] for c, g in zip(coeffs, gens)) % 7 for k in range(width)]
        if rng.random() < 0.25:
            row = [0] * width
        rows.append([v + 7 * rng.randint(-2, 2) for v in row])
    return rows


class TestNullspaceDifferential:
    # the 9 x 9 shape is the intertwiner system; 18 x 9 and 27 x 9 stack two
    # and three of them, as a simultaneous intertwiner solve would
    @pytest.mark.parametrize("height,width", [(3, 3), (9, 9), (18, 9), (27, 9)])
    def test_same_basis_as_the_reference_solver(self, height, width):
        rng = random.Random(f"nullspace/{height}x{width}")
        for _ in range(500):
            rows = _seeded_system(rng, height, width)
            assert nullspace(rows) == reference_nullspace(rows)

    def test_same_basis_on_every_intertwiner_system_of_m0_and_its_powers(self):
        for k in range(57):
            b = mat_pow(M0, k)
            rows = [[0] * 9 for _ in range(9)]
            for i, j, m in itertools.product(range(3), repeat=3):
                rows[3 * i + j][3 * i + m] += M0[3 * m + j]
                rows[3 * i + j][3 * m + j] -= b[3 * i + m]
            assert nullspace(rows) == reference_nullspace(rows)

    def test_does_not_modify_its_input(self):
        rows = [[-1, 8, 3], [2, 2, -12]]
        copy = [list(r) for r in rows]
        nullspace(rows)
        assert rows == copy


def definitional_product(x, y):
    """(xy)_ij = sum over k of x_ik y_kj, reduced mod 7."""
    return tuple(sum(x[3 * i + k] * y[3 * k + j] for k in range(3)) % 7
                 for i in range(3) for j in range(3))


EDGE_MATRICES = [ZERO, (6,) * 9, IDENTITY, scalar_mat(2), scalar_mat(4)]


class TestProduct:
    def test_edge_pairs_match_the_triple_sum(self):
        for x, y in itertools.product(EDGE_MATRICES + [M0, M2], repeat=2):
            assert mat_mul(x, y) == definitional_product(x, y)

    def test_seeded_pairs_match_the_triple_sum(self):
        rng = random.Random(0x3A73)
        for _ in range(5_000):
            x, y = decode(rng.randrange(CODE_SPACE)), decode(rng.randrange(CODE_SPACE))
            got = mat_mul(x, y)
            assert got == definitional_product(x, y)
            assert type(got) is tuple and all(type(v) is int for v in got)

    @pytest.mark.parametrize("m", EDGE_MATRICES + [M0, M2, mat("1 1 0; 0 1 0; 0 0 1"),
                                                    mat("3 5 0; 1 6 2; 4 0 1")])
    def test_pow_matches_repeated_products(self, m):
        p = IDENTITY
        for n in range(121):
            assert mat_pow(m, n) == p
            p = definitional_product(p, m)


class TestOrder:
    def test_m0_is_57_with_scalar_19th_power(self):
        assert mat_order(M0) == 57
        assert mat_pow(M0, 19) == scalar_mat(4)

    def test_pow_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            mat_pow(M0, -1)

    def test_m2_is_19(self):
        assert mat_order(M2) == 19

    def test_double_identity_is_3(self):
        assert mat_order(scalar_mat(2)) == 3

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_order(ZERO)

    def test_doubling_order19_gives_57(self):
        # checked on all six order-19 class representatives drawn as powers of M2
        reps = {}
        p = IDENTITY
        for k in range(1, 19):
            p = mat_mul(p, M2)
            poly, _ = char_poly(p)
            reps.setdefault((poly.i, poly.j), p)
        assert len(reps) == 6
        for m in reps.values():
            assert mat_order(m) == 19
            assert mat_order(mat_scale(2, m)) == 57
            assert mat_order(mat_scale(4, m)) == 57

    def test_order_divides_group_order_on_random_gl(self, rng):
        for _ in range(200):
            assert GROUP_ORDER % mat_order(random_gl3(rng)) == 0


class TestCodes:
    def test_zero(self):
        assert encode(ZERO) == 0
        assert decode(0) == ZERO

    def test_identity_positional_arithmetic(self):
        expected = 1 * 7**0 + 1 * 7**4 + 1 * 7**8
        assert expected == 5_767_203
        assert encode(IDENTITY) == expected

    def test_roundtrip_on_a_million_random_codes(self):
        rng = random.Random(9917)
        for _ in range(1_000_000):
            code = rng.randrange(CODE_SPACE)
            assert encode(decode(code)) == code

    def test_decode_out_of_range(self):
        with pytest.raises(CodeOutOfRange):
            decode(CODE_SPACE)
        with pytest.raises(CodeOutOfRange):
            decode(-1)


class TestInverse:
    def test_inverse_times_self(self, rng):
        for _ in range(2_000):
            m = random_gl3(rng)
            assert mat_mul(m, mat_inv(m)) == IDENTITY
            assert mat_mul(mat_inv(m), m) == IDENTITY

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            mat_inv(ZERO)


class TestTextFormat:
    def test_parse_plain(self):
        assert parse_matrix("0 1 3; 0 0 1; 1 0 0") == M0

    def test_signed_entries_normalize(self):
        assert parse_matrix("0 2 -1; 0 0 2; 2 0 0") == (0, 2, 6, 0, 0, 2, 2, 0, 0)

    @seed(0x7E57)
    @settings(max_examples=300, deadline=None)
    @given(m=st.tuples(*[st.integers(0, 6)] * 9), signed=st.booleans())
    def test_roundtrip_property(self, m, signed):
        assert parse_matrix(format_matrix(m, signed=signed)) == m

    @seed(0x7E58)
    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.integers(-6, 6), min_size=9, max_size=9))
    def test_entries_in_minus_six_to_six_parse_to_residues(self, entries):
        text = "; ".join(" ".join(map(str, entries[r:r + 3])) for r in (0, 3, 6))
        assert parse_matrix(text) == tuple(v % 7 for v in entries)

    def test_signed_display(self):
        assert format_matrix((0, 2, 6, 0, 0, 2, 2, 0, 0), signed=True) == "0 2 -1; 0 0 2; 2 0 0"

    @pytest.mark.parametrize("text", [
        "1 2 3; 4 5 6",
        "1 2; 3 4; 5 6",
        "1 2 x; 4 5 6; 7 8 9",
        "9 0 0; 0 1 0; 0 0 1",
        "",
    ])
    def test_bad_text_raises(self, text):
        with pytest.raises(MatrixFormatError):
            parse_matrix(text)

    def test_mat_accepts_flat_entries_not_rows(self):
        assert mat([0, 1, 3, 0, 0, 1, 1, 0, 0]) == M0
        with pytest.raises(MatrixFormatError, match="expected 9 entries, got 3"):
            mat([[0, 1, 3], [0, 0, 1], [1, 0, 0]])

    def test_trace(self):
        assert trace(M0) == 0
        assert trace(IDENTITY) == 3
