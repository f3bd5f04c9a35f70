import pytest

from conftest import random_sl3
from sl3f7 import scan
from sl3f7.classify import (
    KNOWN_REPRESENTATIVES,
    ClassLabel,
    HasEigenvector,
    NotEigenfree,
    NotInSL3,
    PowerLeavesEigenfreeSet,
    class_label,
    eigenfree_labels,
    inverse_label,
    order_of_label,
    power_class_map,
    psl_label,
    representative,
    scale_label,
)
from sl3f7.field import CubicPoly, cubic_roots_ext, ext_scale
from sl3f7.matrix3 import (
    CODE_SPACE,
    char_poly,
    decode,
    det,
    encode,
    has_fp_eigenvalue,
    mat_inv,
    mat_mul,
    mat_order,
    mat_pow,
    mat_scale,
    scalar_mat,
)

M0 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
M2 = KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]

ALL_18 = [
    (0, 1), (0, 2), (0, 4), (1, 0), (1, 3), (1, 5), (2, 0), (2, 5), (2, 6),
    (3, 1), (3, 4), (4, 0), (4, 3), (4, 6), (5, 1), (5, 2), (6, 2), (6, 4),
]


def rootless_by_seven_point_test(i: int, j: int) -> bool:
    return all((t**3 - i * t * t + j * t - 1) % 7 != 0 for t in range(7))


def least_codes_by_walk() -> dict[ClassLabel, tuple]:
    """First det-1 matrix of each eigenvector-free label in ascending MatCode
    order, by a pure-Python walk.  Codes below 7^6 have an all-zero third
    row (det 0), so the walk starts at 7^6."""
    wanted = set(eigenfree_labels())
    found = {}
    for code in range(7**6, CODE_SPACE):
        m = decode(code)
        if det(m) == 1:
            poly, _ = char_poly(m)
            label = ClassLabel(poly.i, poly.j)
            if label in wanted:
                found[label] = m
                wanted.discard(label)
                if not wanted:
                    return found
    raise AssertionError(f"no code of {sorted(wanted)}")


def first_codes_of_the_stream() -> dict[ClassLabel, int]:
    """First code of each characteristic pair on the element stream's first
    row-3 block, every det-1 matrix with third row e1."""
    def kernel(d):
        tr, jc = scan._char_planes(d)
        return tr, jc, scan._encode_planes(d)

    (tr, jc, codes), = scan._map_chunks(kernel, ((0, scan._R3_BLOCK),))
    first = {}
    for i, j, code in zip(tr.tolist(), jc.tolist(), codes.tolist()):
        first.setdefault(ClassLabel(i, j), code)
    return first


class TestEigenfreeLabels:
    def test_exactly_eighteen_sorted(self):
        labels = [tuple(l) for l in eigenfree_labels()]
        assert labels == ALL_18
        assert labels == sorted(labels)

    def test_contains_trace_zero_trio(self):
        labels = set(eigenfree_labels())
        assert {ClassLabel(0, 1), ClassLabel(0, 2), ClassLabel(0, 4)} <= labels

    def test_one_five_in_one_six_out(self):
        # t^3 - t^2 + 6t - 1 has the root t = 3 (27 - 9 + 18 - 1 = 35 = 0 mod 7)
        assert not rootless_by_seven_point_test(1, 6)
        assert rootless_by_seven_point_test(1, 5)
        labels = {tuple(l) for l in eigenfree_labels()}
        assert (1, 5) in labels and (1, 6) not in labels

    def test_agrees_with_independent_root_scan(self):
        expected = [
            (i, j) for i in range(7) for j in range(7)
            if rootless_by_seven_point_test(i, j)
        ]
        assert [tuple(l) for l in eigenfree_labels()] == expected

    def test_trace_multiset(self):
        traces = [l.i for l in eigenfree_labels()]
        assert {t: traces.count(t) for t in range(7)} == {
            0: 3, 1: 3, 2: 3, 3: 2, 4: 3, 5: 2, 6: 2,
        }


class TestClassLabel:
    def test_m0(self):
        assert class_label(M0) == ClassLabel(0, 4)

    def test_doubled_m0(self):
        assert class_label(mat_scale(2, M0)) == ClassLabel(0, 2)

    def test_m2_squared(self):
        assert class_label(mat_pow(M2, 2)) == ClassLabel(3, 4)

    def test_rejects_non_sl3(self):
        with pytest.raises(NotInSL3):
            class_label(scalar_mat(3))  # det 27 = 6

    def test_rejects_eigenvector_matrices(self):
        with pytest.raises(HasEigenvector):
            class_label(scalar_mat(1))


class TestScaleLabel:
    def test_scaling_chain(self):
        assert scale_label(ClassLabel(0, 4)) == ClassLabel(0, 2)
        assert scale_label(ClassLabel(0, 2)) == ClassLabel(0, 1)

    def test_more_scaling_images(self):
        assert scale_label(ClassLabel(1, 3)) == ClassLabel(2, 5)
        assert scale_label(ClassLabel(3, 1)) == ClassLabel(6, 4)

    def test_triple_application_is_identity(self):
        for label in eigenfree_labels():
            assert scale_label(scale_label(scale_label(label))) == label

    def test_is_bijection_with_orbits_of_size_three(self):
        image = {scale_label(l) for l in eigenfree_labels()}
        assert image == set(eigenfree_labels())
        for label in eigenfree_labels():
            orbit = {label, scale_label(label), scale_label(scale_label(label))}
            assert len(orbit) == 3

    def test_root_substitution_consistency(self):
        # r is a root for label l iff 2r is a root for scale_label(l)
        for label in eigenfree_labels():
            roots = set(cubic_roots_ext(CubicPoly(*label)))
            scaled_roots = set(cubic_roots_ext(CubicPoly(*scale_label(label))))
            assert {ext_scale(2, r) for r in roots} == scaled_roots

    def test_rejects_non_eigenfree(self):
        with pytest.raises(NotEigenfree):
            scale_label(ClassLabel(3, 3))


class TestInverseAndPsl:
    def test_inverse_examples(self):
        assert inverse_label(ClassLabel(0, 2)) == ClassLabel(2, 0)
        assert inverse_label(ClassLabel(3, 4)) == ClassLabel(4, 3)

    def test_inverse_is_involutive(self):
        for label in eigenfree_labels():
            assert inverse_label(inverse_label(label)) == label

    def test_inverse_rejects_identity_label(self):
        with pytest.raises(NotEigenfree):
            inverse_label(ClassLabel(3, 3))

    def test_inverse_matches_matrix_inversion(self):
        for label in eigenfree_labels():
            assert class_label(mat_inv(representative(label))) == inverse_label(label)

    def test_psl_example(self):
        assert psl_label(ClassLabel(0, 4)) == ClassLabel(0, 1)

    def test_psl_six_orbits_of_three(self):
        groups = {}
        for label in eigenfree_labels():
            groups.setdefault(psl_label(label), set()).add(label)
        assert len(groups) == 6
        assert all(len(v) == 3 for v in groups.values())

    def test_psl_idempotent(self):
        for label in eigenfree_labels():
            assert psl_label(psl_label(label)) == psl_label(label)


class TestOrderOfLabel:
    def test_examples(self):
        assert order_of_label(ClassLabel(0, 2)) == 19
        assert order_of_label(ClassLabel(0, 4)) == 57
        assert order_of_label(ClassLabel(4, 3)) == 19

    def test_exactly_six_order_19(self):
        order19 = {l for l in eigenfree_labels() if order_of_label(l) == 19}
        assert order19 == {ClassLabel(0, 2), ClassLabel(1, 3), ClassLabel(2, 0),
                           ClassLabel(3, 1), ClassLabel(3, 4), ClassLabel(4, 3)}

    def test_matches_matrix_orders_of_representatives(self):
        for label in eigenfree_labels():
            assert mat_order(representative(label)) == order_of_label(label)


class TestRepresentative:
    def test_defining_property_04(self):
        rep = representative(ClassLabel(0, 4))
        poly, d = char_poly(rep)
        assert (poly.i, poly.j, d) == (0, 4, 1)
        assert not has_fp_eigenvalue(rep)

    def test_roundtrip_all_labels(self):
        for label in eigenfree_labels():
            assert class_label(representative(label)) == label

    def test_formula_is_the_least_code_of_each_label(self):
        walked = least_codes_by_walk()
        assert len(walked) == 18
        for label in eigenfree_labels():
            assert representative(label) == walked[label]

    def test_formula_is_the_first_code_of_each_bin_of_the_stream(self):
        first = first_codes_of_the_stream()
        for label in eigenfree_labels():
            assert first[label] == encode(representative(label))

    def test_second_row_e2_always_has_an_eigenvalue(self):
        # the proof's first step: with rows 2 and 3 equal to e2 and e1, every
        # det-1 matrix has e2 as a left eigenvector with eigenvalue 1
        rows = [(a, b, c, 0, 1, 0, 1, 0, 0) for a in range(7) for b in range(7) for c in range(7)]
        det_one = [m for m in rows if det(m) == 1]
        assert len(det_one) == 49
        assert all(has_fp_eigenvalue(m) for m in det_one)

    def test_no_eigenvector_free_label_has_equal_entries(self):
        # equivalently, i = j makes t = 1 a root of t^3 - i t^2 + i t - 1
        assert all(label.i != label.j for label in eigenfree_labels())

    def test_minimality_is_deterministic_and_not_m0(self):
        # the canonical rep may differ from the named fixture
        assert representative(ClassLabel(0, 4)) != M0
        assert representative(ClassLabel(0, 4)) == representative(ClassLabel(0, 4))

    def test_conjugation_invariance_randomized(self, rng):
        for label in eigenfree_labels():
            rep = representative(label)
            for _ in range(1_000):
                g = random_sl3(rng)
                assert class_label(mat_mul(mat_mul(g, rep), mat_inv(g))) == label


class TestPowerClassMap:
    def test_power_examples(self):
        assert power_class_map(ClassLabel(0, 2), 2) == ClassLabel(3, 4)
        assert power_class_map(ClassLabel(0, 2), 7) == ClassLabel(0, 2)
        assert power_class_map(ClassLabel(3, 4), 2) == ClassLabel(1, 3)

    def test_rejects_scalar_powers(self):
        with pytest.raises(PowerLeavesEigenfreeSet):
            power_class_map(ClassLabel(0, 2), 19)
        with pytest.raises(PowerLeavesEigenfreeSet):
            power_class_map(ClassLabel(0, 4), 38)

    def test_order57_label_accepts_multiples_of_three(self):
        # M^3 of an order-57 matrix has order 19 and stays eigenvector-free
        got = power_class_map(ClassLabel(0, 4), 3)
        assert order_of_label(got) == 19

    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            power_class_map(ClassLabel(0, 2), 0)
        with pytest.raises(ValueError):
            power_class_map(ClassLabel(0, 2), 57)

    def test_well_defined_across_class_members(self, rng):
        # independence from the member chosen: conjugates give the same map
        for label in [ClassLabel(0, 2), ClassLabel(0, 4)]:
            rep = representative(label)
            for k in (2, 3, 5, 7):
                expected = power_class_map(label, k)
                for _ in range(25):
                    g = random_sl3(rng)
                    conj = mat_mul(mat_mul(g, rep), mat_inv(g))
                    assert class_label(mat_pow(conj, k)) == expected


class TestKnownRepresentatives:
    def test_all_fixtures_verify(self):
        for label, m in KNOWN_REPRESENTATIVES.items():
            assert det(m) == 1
            assert class_label(m) == label

    def test_trace_one_fixture_orders(self):
        assert mat_order(KNOWN_REPRESENTATIVES[ClassLabel(1, 0)]) == 57
        assert mat_pow(KNOWN_REPRESENTATIVES[ClassLabel(1, 0)], 19) == scalar_mat(4)
        assert mat_order(KNOWN_REPRESENTATIVES[ClassLabel(1, 3)]) == 19

    def test_one_five_fixture(self):
        m = KNOWN_REPRESENTATIVES[ClassLabel(1, 5)]
        assert mat_order(m) == 57
        assert mat_pow(m, 19) == scalar_mat(2)

    def test_six_two_fixture_order_is_57(self):
        m = KNOWN_REPRESENTATIVES[ClassLabel(6, 2)]
        assert mat_pow(m, 19) == scalar_mat(2)
        assert mat_order(m) == 57


class TestCatalog:
    def test_catalog_shape(self):
        labels = eigenfree_labels()
        orders = [order_of_label(l) for l in labels]
        assert len(labels) == 18
        assert orders.count(19) == 6
        assert orders.count(57) == 12
        assert all(class_label(representative(l)) == l for l in labels)
