import itertools

import pytest

from sl3f7.field import (
    DIVISORS_342,
    EXT_ONE,
    EXT_ZERO,
    CubicPoly,
    ExtScalar,
    ZeroElement,
    ZeroInverse,
    all_ext,
    cubic_eval_fp,
    cubic_has_fp_root,
    cubic_roots_ext,
    ext,
    ext_add,
    ext_mul,
    ext_order,
    ext_pow,
    ext_unpack,
    fp_inv,
)

EXT_X = ExtScalar(0, 1, 0)


def ext_pack(a: ExtScalar) -> int:
    """The inverse of ext_unpack: c0 + 7*c1 + 49*c2."""
    return a.c0 + 7 * a.c1 + 49 * a.c2


def naive_poly_mulmod(a: tuple, b: tuple) -> tuple:
    """Independent oracle: schoolbook product then long division by x^3 + 2x - 1."""
    raw = [0] * 5
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            raw[i + j] += ai * bj
    # divide by x^3 + 0x^2 + 2x - 1, i.e. subtract q*(x^3 + 2x - 1)
    for deg in (4, 3):
        q = raw[deg] % 7
        raw[deg] -= q
        raw[deg - 2] -= 2 * q
        raw[deg - 3] += q
    return tuple(v % 7 for v in raw[:3])


class TestFp:
    def test_inv_identity(self):
        assert fp_inv(1) == 1

    def test_inv_two(self):
        assert fp_inv(2) == 4  # 2*4 = 8 = 1

    def test_inv_three_against_residue_scan(self):
        expected = next(x for x in range(1, 7) if 3 * x % 7 == 1)
        assert fp_inv(3) == expected

    def test_inv_all_nonzero(self):
        for a in range(1, 7):
            assert a * fp_inv(a) % 7 == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroInverse):
            fp_inv(0)


class TestExtArithmetic:
    def test_mul_identity(self):
        for a in all_ext():
            assert ext_mul(EXT_ONE, a) == a

    def test_x_times_x_squared_reduces(self):
        # x * x^2 = x^3 = 1 - 2x = 1 + 5x
        got = ext_mul(ExtScalar(0, 1, 0), ExtScalar(0, 0, 1))
        assert got == ExtScalar(1, 5, 0)
        assert got == naive_poly_mulmod((0, 1, 0), (0, 0, 1))

    def test_x_times_x(self):
        assert ext_mul(EXT_X, EXT_X) == ExtScalar(0, 0, 1)

    def test_mul_matches_naive_oracle_everywhere(self):
        sample = list(all_ext())[::7]  # 49 elements
        for a, b in itertools.product(sample, repeat=2):
            assert ext_mul(a, b) == naive_poly_mulmod(tuple(a), tuple(b))

    def test_commutative_associative(self):
        sample = [ext_unpack(c) for c in (5, 29, 131, 240, 342)]
        for a, b in itertools.product(sample, repeat=2):
            assert ext_mul(a, b) == ext_mul(b, a)
        for a, b, c in itertools.product(sample, repeat=3):
            assert ext_mul(ext_mul(a, b), c) == ext_mul(a, ext_mul(b, c))

    def test_pack_roundtrip(self):
        for code in range(343):
            assert ext_pack(ext_unpack(code)) == code


class TestExtOrder:
    def test_identity(self):
        assert ext_order(EXT_ONE) == 1

    def test_constant_two(self):
        assert ext_order(ext(2)) == 3  # 2^3 = 8 = 1 in F7

    def test_x_has_order_19(self):
        # x is a root of the modulus t^3 + 2t - 1, whose roots have order 19
        assert ext_order(EXT_X) == 19

    def test_zero_raises(self):
        with pytest.raises(ZeroElement):
            ext_order(EXT_ZERO)

    def test_lagrange_all_nonzero(self):
        for a in all_ext():
            if a != EXT_ZERO:
                assert ext_pow(a, 342) == EXT_ONE
                assert 342 % ext_order(a) == 0

    def test_divisor_list_is_exactly_the_divisors(self):
        assert list(DIVISORS_342) == [d for d in range(1, 343) if 342 % d == 0]


class TestFrobenius:
    def test_additive_and_multiplicative(self):
        sample = [ext_unpack(c) for c in range(0, 343, 11)]
        for a, b in itertools.product(sample, repeat=2):
            # the Frobenius map a -> a^7 is a field automorphism
            assert ext_pow(ext_add(a, b), 7) == ext_add(ext_pow(a, 7), ext_pow(b, 7))
            assert ext_pow(ext_mul(a, b), 7) == ext_mul(ext_pow(a, 7), ext_pow(b, 7))

    def test_fixes_exactly_the_constants(self):
        fixed = [a for a in all_ext() if ext_pow(a, 7) == a]
        assert fixed == [ext(c) for c in range(7)]


class TestCubicRoots:
    def test_modulus_cubic_has_three_roots_of_order_19(self):
        roots = cubic_roots_ext(CubicPoly(0, 2))
        assert len(roots) == 3
        assert all(ext_order(r) == 19 for r in roots)

    def test_identity_cubic_has_root_one(self):
        # (t-1)^3 = t^3 - 3t^2 + 3t - 1
        assert cubic_roots_ext(CubicPoly(3, 3)) == [EXT_ONE]

    def test_zero_four_cubic(self):
        roots = cubic_roots_ext(CubicPoly(4, 3))
        assert len(roots) == 3
        assert all(ext_order(r) == 19 for r in roots)

    def test_roots_ascend_in_packed_order(self):
        roots = cubic_roots_ext(CubicPoly(0, 1))
        packed = [ext_pack(r) for r in roots]
        assert packed == sorted(packed)

    def test_rootless_cubics_have_frobenius_orbit_with_product_one(self):
        for i in range(7):
            for j in range(7):
                p = CubicPoly(i, j)
                if cubic_has_fp_root(p):
                    continue
                roots = cubic_roots_ext(p)
                assert len(roots) == 3
                assert len(set(roots)) == 3
                assert {ext_pow(r, 7) for r in roots} == set(roots)
                prod = ext_mul(ext_mul(roots[0], roots[1]), roots[2])
                assert prod == EXT_ONE

    def test_eval_fp_consistent_with_root_listing(self):
        for i in range(7):
            for j in range(7):
                p = CubicPoly(i, j)
                roots = [lam for lam in range(7) if cubic_eval_fp(p, lam) == 0]
                assert bool(roots) == cubic_has_fp_root(p)

    def test_order19_and_order57_label_root_orders(self):
        order19 = {(0, 2), (1, 3), (2, 0), (3, 1), (3, 4), (4, 3)}
        for i in range(7):
            for j in range(7):
                p = CubicPoly(i, j)
                if cubic_has_fp_root(p):
                    continue
                expected = 19 if (i, j) in order19 else 57
                for r in cubic_roots_ext(p):
                    assert ext_order(r) == expected
                    if expected == 19:
                        assert ext_pow(r, 19) == EXT_ONE and r != EXT_ONE
