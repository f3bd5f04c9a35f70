"""The main result on every commuting pair in one torus, against an orbit oracle.

T = <M04> = C(M04) is cyclic of order 57.  If g conjugates a tuple of
non-scalar elements of T onto another, it carries C(a) = T onto C(b) = T,
so g lies in N(T): two such tuples are simultaneously conjugate exactly when
they lie in one N(T)-orbit.  N(T) is the 171 elements of intertwiners(M04,
M04^u) for u = 1, 7, 49, and the orbits come from exact conjugation by each
of them, with no call to decide_simconj.  Conjugation keeps labels, so every
tuple with the same labels as p and outside p's orbit is a known negative.
"""

import functools
import itertools
import os
import random

import pytest

from sl3f7 import scan
from sl3f7.classify import KNOWN_REPRESENTATIVES, ClassLabel, class_label
from sl3f7.matrix3 import decode, mat_inv, mat_mul, mat_pow
from sl3f7.simconj import analyze_tuple, decide_simconj

M04 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
EXPONENTS = [k for k in range(1, 57) if k % 19]  # the 54 non-scalar powers
T = [mat_pow(M04, k) for k in EXPONENTS]
LABELS = [class_label(t) for t in T]
BY_LABEL = {label: [i for i, x in enumerate(LABELS) if x == label] for label in set(LABELS)}
PAIRS = list(itertools.product(range(len(T)), repeat=2))
# one first member per Frobenius class {k, 7k, 49k}: the least exponent
FROBENIUS_FIRSTS = {i for i, k in enumerate(EXPONENTS) if k == min(k * u % 57 for u in (1, 7, 49))}


@functools.cache
def normalizer() -> tuple[tuple[int, int], ...]:
    """The 171 elements of N(T), as codes, each with the Frobenius power u it
    takes M04 to."""
    return tuple((int(code), u) for u in (1, 7, 49)
                 for code in scan.intertwiners(M04, mat_pow(M04, u)))


@functools.cache
def permutations() -> frozenset[tuple[int, ...]]:
    """For each n in N(T), the index in T of n t n^-1 for every t in T."""
    index = {t: i for i, t in enumerate(T)}
    perms = set()
    for code, _ in normalizer():
        n = decode(code)
        n_inv = mat_inv(n)
        perms.add(tuple(index[mat_mul(mat_mul(n, t), n_inv)] for t in T))
    return frozenset(perms)


def orbit(p: tuple[int, ...]) -> tuple[int, ...]:
    """The least image of the index tuple p under N(T): one name per orbit."""
    return min(tuple(perm[i] for i in p) for perm in permutations())


@functools.cache
def analyzed(p: tuple[int, ...]):
    return analyze_tuple(tuple(T[i] for i in p))


def check(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """decide_simconj on p and q equals "same orbit"; a witness must carry
    every member of p to its partner in q."""
    verdict = decide_simconj(analyzed(p), analyzed(q))
    assert verdict.equivalent == (orbit(p) == orbit(q)), (p, q, verdict)
    if verdict.equivalent:
        w = verdict.witness
        assert all(mat_mul(w, T[i]) == mat_mul(T[j], w) for i, j in zip(p, q)), (p, q)
    else:
        assert verdict.witness is None
    return verdict.equivalent


def label_matched(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every tuple of elements of T with the labels of p, member by member."""
    return list(itertools.product(*(BY_LABEL[LABELS[i]] for i in p)))


def decide_pairs(firsts: set[int]) -> tuple[int, int]:
    decisions = positives = 0
    for p in PAIRS:
        if p[0] in firsts:
            for q in label_matched(p):
                decisions += 1
                positives += check(p, q)
    return decisions, positives


class TestTorusOracle:
    def test_normalizer_has_171_elements_and_972_pair_orbits(self):
        codes = [code for code, _ in normalizer()]
        assert len(codes) == len(set(codes)) == 171
        for code, u in normalizer():
            n = decode(code)
            assert mat_mul(n, M04) == mat_mul(mat_pow(M04, u), n)
        # T acts trivially, so N(T) acts through N(T)/T: the Frobenius powers
        assert len(permutations()) == 3
        assert len({orbit(p) for p in PAIRS}) == 972
        assert len(PAIRS) == 2916 and len(FROBENIUS_FIRSTS) == 18

    def test_pairs_with_one_first_member_per_frobenius_class(self):
        assert decide_pairs(FROBENIUS_FIRSTS) == (8748, 2916)

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="26 244 decisions; set SL3F7_SLOW=1 to decide every label-matched pair",
    )
    def test_every_label_matched_pair(self):
        assert decide_pairs(set(range(len(T)))) == (26_244, 8748)

    def test_seeded_triples(self):
        rng = random.Random(0x7031)
        positives = 0
        for _ in range(2000):
            p = tuple(rng.randrange(len(T)) for _ in range(3))
            positives += check(p, rng.choice(label_matched(p)))
        # p's orbit is 3 of its 27 label-matched triples
        assert 100 < positives < 400
