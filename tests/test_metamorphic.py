"""Metamorphic relations: the answers that conjugation A -> g A g^-1 must keep.

A conjugate shares every class invariant of A, so each per-matrix answer
that depends only on A's class is the same for A and g A g^-1, and the
conjugator and simultaneous-conjugacy answers must map one onto the other.
The subjects are conjugates of powers of M04 (order 57; a power M04^k with
19 not dividing k is eigenvector-free, and M04^(3k) has order 19), random
det-1 matrices and a few derogatory ones.  Each relation names a mutant of
src/ that it kills; every draw is seeded.
"""

import random

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_sl3
from sl3f7 import scan
from sl3f7.classify import KNOWN_REPRESENTATIVES, ClassLabel, class_label
from sl3f7.matrix3 import Mat3, mat, mat_inv, mat_mul, mat_pow, scalar_mat
from sl3f7.simconj import analyze_tuple, decide_simconj, find_conjugator

M04 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]

# det-1 matrices with an eigenvector: a scalar, a transvection, and diagonals
# with a repeated and with three distinct eigenvalues
DEROGATORY = (scalar_mat(2), mat("1 1 0; 0 1 0; 0 0 1"), mat("6 0 0; 0 6 0; 0 0 1"),
              mat("2 0 0; 0 4 0; 0 0 1"))

elements = st.integers(0, 2**32 - 1).map(lambda s: random_sl3(random.Random(s)))
eigenfree_exponents = st.integers(1, 56).filter(lambda k: k % 19)
subjects = st.one_of(st.sampled_from(DEROGATORY), elements,
                     eigenfree_exponents.map(lambda k: mat_pow(M04, k)))


def conj(g: Mat3, m: Mat3) -> Mat3:
    return mat_mul(mat_mul(g, m), mat_inv(g))


@seed(0x3E7A)
@settings(max_examples=40, deadline=None)
@given(k=eigenfree_exponents, h=elements, g=elements)
def test_class_label_is_kept(k, h, g):
    # kills class_label reading char_poly with trace (m[0] + m[4]) % P
    a = conj(h, mat_pow(M04, k))
    assert class_label(conj(g, a)) == class_label(a)


@seed(0x3E7B)
@settings(max_examples=30, deadline=None)
@given(a=subjects, g=elements)
def test_class_size_is_kept(a, g):
    # kills is_scalar testing the diagonal alone, which makes the transvection scalar
    assert scan.class_size(conj(g, a)) == scan.class_size(a)


@seed(0x3E7C)
@settings(max_examples=30, deadline=None)
@given(a=subjects, g=elements)
def test_centralizer_size_is_kept(a, g):
    # kills _intertwiner_basis putting the g*a term of equation (i, j) at
    # entry (k, i) of g in place of (i, k)
    assert scan.centralizer(conj(g, a)).size == scan.centralizer(a).size


@seed(0x3E7D)
@settings(max_examples=10, deadline=None)
@given(k=eigenfree_exponents, h=elements, g=elements)
def test_normalizer_of_cyclic_is_kept(k, h, g):
    # kills _det_plane taking row 1 times the minors (m0, m1, m0), not (m0, m1, m2)
    p = conj(h, mat_pow(M04, 3 * k))  # order 19
    assert scan.normalizer_of_cyclic(conj(g, p)) == scan.normalizer_of_cyclic(p)


@seed(0x3E7E)
@settings(max_examples=30, deadline=None)
@given(a=subjects, g=elements)
def test_find_conjugator_returns_a_witness(a, g):
    # kills _intertwiner_basis building its system with a and b swapped
    b = conj(g, a)
    w = find_conjugator(a, b)
    assert w is not None and conj(w, a) == b


def tuples(size: int):
    """A commuting tuple of `size` eigenvector-free powers of a conjugate of M04."""
    return st.tuples(elements, st.lists(eigenfree_exponents, min_size=size, max_size=size))


@seed(0x3E7F)
@settings(max_examples=20, deadline=None)
@given(t=st.integers(1, 3).flatmap(tuples), g=elements)
def test_decide_simconj_on_a_conjugated_tuple(t, g):
    # kills decide_simconj checking g * a_k against a_k * g, the first tuple's
    # members on both sides
    h, exponents = t
    members = tuple(conj(h, mat_pow(M04, e)) for e in exponents)
    conjugates = tuple(conj(g, m) for m in members)
    verdict = decide_simconj(analyze_tuple(members), analyze_tuple(conjugates))
    assert verdict.equivalent
    assert all(conj(verdict.witness, m) == c for m, c in zip(members, conjugates))


@seed(0x3E80)
@settings(max_examples=20, deadline=None)
@given(t=tuples(3), twists=st.lists(st.sampled_from([1, 7, 49]), min_size=3, max_size=3),
       g=elements, order=st.permutations(range(3)))
def test_decide_simconj_verdict_survives_a_common_permutation(t, twists, g, order):
    # kills decide_simconj checking every member pair but the last.  Raising a
    # member to 7 or 49 keeps its label (the eigenvalues move by Frobenius), so
    # unequal twists give label-matched tuples that are not simultaneously
    # conjugate, and the member left unchecked then decides the verdict
    h, exponents = t
    members = [conj(h, mat_pow(M04, e)) for e in exponents]
    others = [conj(g, mat_pow(m, u)) for m, u in zip(members, twists)]
    verdict = decide_simconj(analyze_tuple(members), analyze_tuple(others))
    permuted = decide_simconj(analyze_tuple([members[i] for i in order]),
                              analyze_tuple([others[i] for i in order]))
    assert permuted.equivalent == verdict.equivalent
