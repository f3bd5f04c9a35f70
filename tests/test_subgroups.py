import os
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_sl3
from sl3f7 import scan
from sl3f7.classify import KNOWN_REPRESENTATIVES, ClassLabel, NotInSL3
from sl3f7.matrix3 import (
    CODE_SPACE,
    GROUP_ORDER,
    IDENTITY,
    decode,
    det,
    encode,
    mat,
    mat_inv,
    mat_mul,
    mat_order,
)
from sl3f7.schema import validate_document
from sl3f7.subgroups import (
    PARABOLIC_GENERATORS,
    PARABOLIC_ORDER,
    ClosureCapExceeded,
    InParabolic,
    X,
    Y,
    Z,
    _right_steps,
    _row_table,
    generator_closure,
    in_parabolic,
    maximality_witness,
    parabolic_size,
    reduce_to_generator,
)

M0 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
M2 = KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]


def random_outside_h(rng: random.Random):
    while True:
        a = random_sl3(rng)
        if not in_parabolic(a):
            return a


class TestMembership:
    def test_identity_in_h(self):
        assert in_parabolic(IDENTITY)

    def test_m0_not_in_h(self):
        assert not in_parabolic(M0)

    def test_x_in_h_y_z_not(self):
        assert in_parabolic(X)
        assert not in_parabolic(Y)
        assert not in_parabolic(Z)

    def test_generators_have_det_one(self):
        assert det(X) == det(Y) == det(Z) == 1

    def test_det_condition_enforced(self):
        assert not in_parabolic(mat("2 0 0; 0 1 0; 0 0 1"))  # d = g = 0 but det 2


class TestParabolicSize:
    def test_direct_count(self):
        assert parabolic_size() == 98_784 == PARABOLIC_ORDER

    def test_equals_formula(self):
        assert parabolic_size() == (7**2 - 1) * (7**2 - 7) * 7**2

    def test_index_is_57(self):
        assert GROUP_ORDER // parabolic_size() == 57
        assert parabolic_size() * 57 == GROUP_ORDER

    def test_uint8_kernel_matches_scalar_det(self):
        # det of [[a, b, c], [0, e, f], [0, h, i]] ignores b and c, so the
        # scalar count runs over (a, e, f, h, i) and weighs each by 7^2; it
        # includes the 0/6 extremes where e*i - f*h would wrap in uint8
        n = sum(det((a, 0, 0, 0, e, f, 0, h, i)) == 1
                for a in range(7) for e in range(7) for f in range(7)
                for h in range(7) for i in range(7))
        assert parabolic_size() == 49 * n


class TestClosure:
    def test_single_order19_generator(self):
        assert generator_closure((M2,)) == 19

    def test_single_order57_generator(self):
        assert generator_closure((M0,)) == 57

    def test_parabolic_generators_generate_h(self):
        assert generator_closure(PARABOLIC_GENERATORS) == PARABOLIC_ORDER

    def test_identity_alone_ends_on_an_empty_level(self):
        # the first level's candidates are all visited, so the dedupe sees []
        assert generator_closure((IDENTITY,), cap=1) == 1

    # the cap is the exact answer, so a closure that revisits or double
    # counts an element raises ClosureCapExceeded instead of looping on
    @seed(0xC105)
    @settings(max_examples=60, deadline=None)
    @given(rank=st.integers(0, GROUP_ORDER - 1))
    def test_cyclic_closure_is_the_element_order(self, rank):
        g = decode(int(scan._encode_planes(scan._element_planes(rank, rank + 1))[0]))
        assert generator_closure((g,), cap=mat_order(g)) == mat_order(g)

    def test_cap_exceeded(self):
        with pytest.raises(ClosureCapExceeded):
            generator_closure((M2,), cap=5)

    # closure sizes cannot catch a transposed table: X^T, Y^T, Z^T also
    # generate G, and the transposed H generators give a group of order 98784
    @pytest.mark.parametrize("gens", [(X, Y, Z), PARABOLIC_GENERATORS], ids=["XYZ", "H"])
    def test_row_table_steps_are_right_products(self, gens):
        rng = random.Random(0x7AB1)
        codes = [0, CODE_SPACE - 1] + [rng.randrange(CODE_SPACE) for _ in range(2_000)]
        steps = [s for g in gens for s in (g, mat_inv(g))]
        got = _right_steps(np.array(codes, dtype=np.int32), [_row_table(s) for s in steps])
        assert got.tolist() == [encode(mat_mul(decode(c), s)) for s in steps for c in codes]

    def test_bad_generator_sets_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            generator_closure(())
        with pytest.raises(NotInSL3):
            generator_closure((mat("2 0 0; 0 1 0; 0 0 1"),))


class TestReduction:
    def test_y_to_y_is_empty_trace(self):
        trace = reduce_to_generator(Y, "Y")
        assert trace.steps == ()
        assert trace.verify()

    def test_m0_reduces_to_both_targets(self):
        for target, expected in (("Y", Y), ("Z", Z)):
            trace = reduce_to_generator(M0, target)
            assert trace.target == expected
            assert trace.recompose() == expected
            assert trace.verify()

    def test_every_factor_stays_in_h(self, rng):
        for _ in range(100):
            a = random_outside_h(rng)
            for target in ("Y", "Z"):
                trace = reduce_to_generator(a, target)
                assert all(in_parabolic(s.factor) for s in trace.steps)
                assert trace.verify()

    def test_deterministic(self):
        assert reduce_to_generator(M0, "Y") == reduce_to_generator(M0, "Y")

    def test_rejects_members_of_h(self):
        with pytest.raises(InParabolic):
            reduce_to_generator(X, "Y")

    def test_rejects_non_sl3(self):
        with pytest.raises(ValueError):
            reduce_to_generator(mat("2 0 0; 1 1 0; 0 0 1"), "Y")

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            reduce_to_generator(M0, "W")

    def test_trace_serialization(self):
        doc = reduce_to_generator(M0, "Z").to_json()
        validate_document(doc)
        assert doc["verified"] is True

    def test_product_formula_shape(self, rng):
        # left factors compose on the left, right factors on the right
        a = random_outside_h(rng)
        trace = reduce_to_generator(a, "Y")
        left = IDENTITY
        right = IDENTITY
        for s in trace.steps:
            if s.side == "left":
                left = mat_mul(s.factor, left)
            else:
                right = mat_mul(right, s.factor)
        assert mat_mul(mat_mul(left, a), right) == Y


class TestMaximality:
    def test_witness_for_samples(self, rng):
        for _ in range(2):
            assert maximality_witness(random_outside_h(rng))

    def test_witness_rejects_h_members(self):
        with pytest.raises(InParabolic):
            maximality_witness(X)

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="one full-group closure per sample; set SL3F7_SLOW=1 to run 100 samples",
    )
    def test_witness_for_100_samples(self, rng):
        for _ in range(100):
            assert maximality_witness(random_outside_h(rng))
