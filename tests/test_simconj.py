import pytest

from conftest import least_sl3, random_sl3
from sl3f7 import matrix3, scan, simconj
from sl3f7.classify import (
    KNOWN_REPRESENTATIVES,
    ClassLabel,
    NotInSL3,
    class_label,
    eigenfree_labels,
    representative,
)
from sl3f7.matrix3 import (
    IDENTITY,
    Mat3,
    decode,
    encode,
    has_fp_eigenvalue,
    mat,
    mat_inv,
    mat_mul,
    mat_order,
    mat_pow,
    mat_scale,
    scalar_mat,
)
from sl3f7.simconj import (
    AllEigen,
    CommutingTuple,
    EmptyAfterScalarStrip,
    LengthMismatch,
    NotCommuting,
    analyze_tuple,
    decide_simconj,
    eighteen_commuting_reps,
    find_conjugator,
    parse_tuple_file,
)

M0 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
M2 = KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]


def conj(g: Mat3, m: Mat3) -> Mat3:
    return mat_mul(mat_mul(g, m), mat_inv(g))


def oracle_simultaneous_witness(t1, t2) -> Mat3 | None:
    """Brute force: every g with g*A1 = B1*g, tested on all coordinates."""
    for code in scan.intertwiner_codes(t1[0], t2[0]):
        g = decode(int(code))
        if all(conj(g, a) == b for a, b in zip(t1[1:], t2[1:])):
            return g
    return None


class TestAnalyzeTuple:
    def test_powers_of_m0(self):
        t = analyze_tuple((M0, mat_pow(M0, 20), mat_pow(M0, 5)))
        assert isinstance(t, CommutingTuple)
        assert t.base == M0
        assert t.exponents == (1, 20, 5)

    def test_order19_member_gets_doubled_base(self):
        t = analyze_tuple((M2, mat_mul(scalar_mat(2), M2)))
        assert isinstance(t, CommutingTuple)
        assert t.base == mat_scale(2, M2)
        for m, e in zip(t.members, t.exponents):
            assert mat_pow(t.base, e) == m

    def test_scalars_stripped_and_recorded(self):
        t = analyze_tuple((scalar_mat(2), M0, scalar_mat(1)))
        assert isinstance(t, CommutingTuple)
        assert t.members == (M0,)
        assert t.stripped == ((0, scalar_mat(2)), (2, scalar_mat(1)))

    def test_all_eigen_tuple(self):
        u1 = mat("1 1 0; 0 1 0; 0 0 1")
        u2 = mat("1 2 0; 0 1 0; 0 0 1")
        result = analyze_tuple((u1, u2))
        assert isinstance(result, AllEigen)

    def test_only_scalars_raises(self):
        with pytest.raises(EmptyAfterScalarStrip):
            analyze_tuple((scalar_mat(1), scalar_mat(2), scalar_mat(4)))

    def test_non_commuting_rejected(self):
        other = KNOWN_REPRESENTATIVES[ClassLabel(1, 3)]
        assert mat_mul(M0, other) != mat_mul(other, M0)
        with pytest.raises(NotCommuting):
            analyze_tuple((M0, other))

    def test_members_are_base_powers_exactly(self, rng):
        for _ in range(20):
            exps = [rng.choice([e for e in range(1, 57) if e % 19]) for _ in range(3)]
            ms = tuple(mat_pow(M0, e) for e in exps)
            t = analyze_tuple(ms)
            assert isinstance(t, CommutingTuple)
            for m, e in zip(t.members, t.exponents):
                assert mat_pow(t.base, e) == m


    @staticmethod
    def reference(members):
        """(base, exponents) with the anchor's order from mat_order and each
        exponent found by mat_pow."""
        anchor = next(m for m in members if not has_fp_eigenvalue(m))
        base = anchor if mat_order(anchor) == 57 else mat_scale(2, anchor)
        return base, tuple(next(k for k in range(1, 57) if mat_pow(base, k) == m) for m in members)

    def test_seeded_tuples_match_the_reference(self, rng):
        # conjugates of every eigenfree representative; the anchor (the first
        # member) has order 19 when its exponent is a multiple of 3
        valid = [e for e in range(1, 57) if e % 19]
        anchor_orders = set()
        for label in eigenfree_labels():
            rep = representative(label)
            gen = conj(random_sl3(rng), rep if mat_pow(rep, 19) != IDENTITY else mat_scale(2, rep))
            members = tuple(mat_pow(gen, rng.choice(valid)) for _ in range(rng.randint(1, 3)))
            anchor_orders.add(mat_order(members[0]))
            t = analyze_tuple(members)
            assert (t.base, t.exponents) == self.reference(members)
        assert anchor_orders == {19, 57}

    @pytest.mark.parametrize("first", [1, 3], ids=["order-57-anchor", "order-19-anchor"])
    def test_products_for_three_members(self, first, monkeypatch):
        # one walk of the anchor's powers, 55 products (18 when the walk
        # stops at an order-19 anchor's 19th power), and 6 for the commuting
        # check; the anchor's order is read from the walk
        real, calls = matrix3.mat_mul, []

        def counting(x, y):
            calls.append(1)
            return real(x, y)

        members = tuple(mat_pow(M0, e) for e in (first, 20, 5))
        monkeypatch.setattr(matrix3, "mat_mul", counting)
        monkeypatch.setattr(simconj, "mat_mul", counting)
        t = analyze_tuple(members)
        monkeypatch.undo()
        assert (t.base, t.exponents) == self.reference(members)
        assert len(calls) <= 62


class TestFindConjugator:
    def test_self_conjugation_gives_centralizer_element(self):
        g = find_conjugator(M0, M0)
        assert g is not None
        assert conj(g, M0) == M0

    def test_different_labels_not_conjugate(self):
        assert find_conjugator(M0, mat_scale(2, M0)) is None

    def test_same_class_members_conjugate(self):
        rep = representative(ClassLabel(0, 2))
        g = find_conjugator(rep, M2)
        assert g is not None
        assert conj(g, rep) == M2

    def test_scalar_self_conjugation_needs_no_group_pass(self, no_group_pass):
        least = least_sl3()
        for lam in (1, 2, 4):
            assert find_conjugator(scalar_mat(lam), scalar_mat(lam)) == least
        for m in (M0, M2):
            assert conj(find_conjugator(m, m), m) == m

    def test_det_2_argument_raises(self):
        det2 = mat((2, 0, 0, 0, 1, 0, 0, 0, 1))
        with pytest.raises(NotInSL3):
            find_conjugator(det2, M0)
        with pytest.raises(NotInSL3):
            find_conjugator(M0, det2)

    def test_least_code_matches_oracle_minimum(self, rng):
        a = conj(random_sl3(rng), M0)
        b = conj(random_sl3(rng), a)
        assert encode(find_conjugator(a, b)) == int(scan.intertwiner_codes(a, b).min())


class TestDecide:
    def test_conjugated_tuple_is_equivalent(self, rng):
        t1_members = (M0, mat_pow(M0, 5))
        h = random_sl3(rng)
        t2_members = tuple(conj(h, m) for m in t1_members)
        verdict = decide_simconj(analyze_tuple(t1_members), analyze_tuple(t2_members))
        assert verdict.equivalent
        w = verdict.witness
        assert w is not None
        assert all(conj(w, a) == b for a, b in zip(t1_members, t2_members))

    def test_exponent_mismatch_not_equivalent(self):
        verdict = decide_simconj(
            analyze_tuple((M0, mat_pow(M0, 5))),
            analyze_tuple((M0, mat_pow(M0, 10))),
        )
        assert not verdict.equivalent
        assert verdict.certificate is not None

    def test_no_exponent_matching_pair_certificate(self):
        # M0^2 and M0^14 = (M0^2)^7 share a label, so every member pair matches
        # in class; but M0 -> M0 allows only u = 1, and 14 != 2 mod 57
        t1, t2 = analyze_tuple((M0, mat_pow(M0, 2))), analyze_tuple((M0, mat_pow(M0, 14)))
        assert [class_label(m) for m in t1.members] == [class_label(m) for m in t2.members]
        verdict = decide_simconj(t1, t2)
        assert not verdict.equivalent
        assert verdict.certificate == "no exponent-matching generator pair"

    def test_single_members_same_class_equivalent(self, rng):
        rep = representative(ClassLabel(0, 2))
        verdict = decide_simconj(analyze_tuple((rep,)), analyze_tuple((M2,)))
        assert verdict.equivalent
        assert conj(verdict.witness, rep) == M2

    def test_class_mismatch_certificate(self):
        verdict = decide_simconj(
            analyze_tuple((M0,)), analyze_tuple((mat_scale(2, M0),))
        )
        assert not verdict.equivalent
        assert "class mismatch at index 0" in verdict.certificate

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatch):
            decide_simconj(analyze_tuple((M0,)), analyze_tuple((M0, mat_pow(M0, 2))))

    def test_scalar_record_must_match(self):
        t1 = analyze_tuple((scalar_mat(2), M0))
        t2 = analyze_tuple((M0,))
        verdict = decide_simconj(t1, t2)
        assert not verdict.equivalent
        assert "scalar" in verdict.certificate

    def test_equal_lengths_with_different_scalars_are_not_equivalent(self):
        # one member is scalar on one side only: the stripped record differs,
        # not the length
        t1 = analyze_tuple((M0, IDENTITY))
        t2 = analyze_tuple((M0, mat_scale(2, M0)))
        verdict = decide_simconj(t1, t2)
        assert not verdict.equivalent
        assert verdict.certificate == "stripped scalar members differ (conjugation fixes scalars)"

    def test_generator_choice_invariance(self, rng):
        # re-expressing the same tuple through another generator of the same
        # centralizer never changes the verdict
        members = (mat_pow(M0, 4), mat_pow(M0, 10))
        t_a = analyze_tuple(members)
        base_b = mat_pow(t_a.base, 2)  # another generator: gcd(2, 57) = 1
        t_b = CommutingTuple(
            members=members,
            base=base_b,
            exponents=tuple(e * pow(2, -1, 57) % 57 for e in t_a.exponents),
            stripped=(),
        )
        for m, e in zip(t_b.members, t_b.exponents):
            assert mat_pow(t_b.base, e) == m
        other = analyze_tuple((M0, mat_pow(M0, 5)))
        assert decide_simconj(other, t_a).equivalent == decide_simconj(other, t_b).equivalent
        h = random_sl3(rng)
        equal_tuple = analyze_tuple(tuple(conj(h, m) for m in members))
        assert decide_simconj(equal_tuple, t_a).equivalent
        assert decide_simconj(equal_tuple, t_b).equivalent

    def test_reflexive_symmetric(self, rng):
        h = random_sl3(rng)
        t1m = (mat_pow(M0, 3), mat_pow(M0, 7), mat_pow(M0, 44))
        t2m = tuple(conj(h, m) for m in t1m)
        t1, t2 = analyze_tuple(t1m), analyze_tuple(t2m)
        assert decide_simconj(t1, t1).equivalent
        assert decide_simconj(t1, t2).equivalent == decide_simconj(t2, t1).equivalent

    def test_transitive_on_constructed_triple(self, rng):
        base_members = (mat_pow(M0, 2), mat_pow(M0, 11))
        g1, g2 = random_sl3(rng), random_sl3(rng)
        ta = analyze_tuple(base_members)
        tb = analyze_tuple(tuple(conj(g1, m) for m in base_members))
        tc = analyze_tuple(tuple(conj(g2, m) for m in base_members))
        assert decide_simconj(ta, tb).equivalent
        assert decide_simconj(tb, tc).equivalent
        assert decide_simconj(ta, tc).equivalent

    @staticmethod
    def intertwiners_calls(monkeypatch) -> list[tuple[Mat3, Mat3]]:
        real, calls = scan.intertwiners, []

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(simconj, "intertwiners", counting)
        return calls

    def test_class_mismatch_runs_no_intertwiner(self, monkeypatch):
        # M0^2 has order 57 and M0^3 order 19: the labels differ at index 1
        calls = self.intertwiners_calls(monkeypatch)
        verdict = decide_simconj(
            analyze_tuple((M0, mat_pow(M0, 2))), analyze_tuple((M0, mat_pow(M0, 3)))
        )
        assert verdict.certificate == "class mismatch at index 1"
        assert calls == []

    def test_one_intertwiner_of_the_first_members_per_decision(self, rng, monkeypatch):
        # past the labels, one conjugator of the first members decides, both
        # when it carries every member and when it does not
        calls = self.intertwiners_calls(monkeypatch)
        h = random_sl3(rng)
        t1 = analyze_tuple((M0, mat_pow(M0, 2)))
        positive = decide_simconj(t1, analyze_tuple((conj(h, M0), conj(h, mat_pow(M0, 2)))))
        assert positive.equivalent and calls == [(M0, conj(h, M0))]
        negative = decide_simconj(t1, analyze_tuple((M0, mat_pow(M0, 14))))
        assert negative.certificate == "no exponent-matching generator pair"
        assert calls == [(M0, conj(h, M0)), (M0, M0)]

    def test_agrees_with_oracle_on_randomized_pairs(self, rng):
        valid = [e for e in range(1, 57) if e % 19]
        for trial in range(6):
            label = ClassLabel(*rng.choice(list({(0, 4), (0, 2), (1, 3), (5, 1)})))
            rep = representative(label)
            gen = rep if mat_pow(rep, 19) != IDENTITY else mat_scale(2, rep)
            base = conj(random_sl3(rng), gen)
            exps = [rng.choice(valid) for _ in range(rng.randint(1, 3))]
            t1 = tuple(mat_pow(base, e) for e in exps)
            h = random_sl3(rng)
            if trial % 2 == 0:
                t2 = tuple(conj(h, m) for m in t1)
            else:
                perturbed = list(exps)
                perturbed[rng.randrange(len(exps))] = rng.choice(valid)
                t2 = tuple(conj(h, mat_pow(base, e)) for e in perturbed)
            verdict = decide_simconj(analyze_tuple(t1), analyze_tuple(t2))
            witness = oracle_simultaneous_witness(t1, t2)
            assert verdict.equivalent == (witness is not None)


class TestEighteenReps:
    def test_covers_all_labels(self):
        reps = eighteen_commuting_reps()
        assert len(reps) == 18
        assert {tuple(l) for l in reps} == {tuple(l) for l in map(tuple, reps)}
        for label, m in reps.items():
            assert class_label(m) == label

    def test_label_04_is_the_base_itself(self):
        assert eighteen_commuting_reps()[ClassLabel(0, 4)] == M0

    def test_powers_split_18_by_3(self):
        histogram = {}
        p = IDENTITY
        for k in range(1, 57):
            p = mat_mul(p, M0)
            if k % 19 == 0:
                continue
            histogram[class_label(p)] = histogram.get(class_label(p), 0) + 1
        assert len(histogram) == 18
        assert set(histogram.values()) == {3}

    def test_all_pairs_commute(self):
        reps = list(eighteen_commuting_reps().values())
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert mat_mul(reps[i], reps[j]) == mat_mul(reps[j], reps[i])


class TestTupleFile:
    def test_parse(self):
        text = "0 1 3; 0 0 1; 1 0 0\n\n0 2 -1; 0 0 2; 2 0 0\n"
        assert parse_tuple_file(text) == (M0, M2)
