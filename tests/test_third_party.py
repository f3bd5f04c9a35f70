"""Group orders from sympy's Schreier-Sims, an oracle that shares no code with
scan or subgroups: each matrix becomes the permutation v -> v g of the 342
nonzero row vectors of F7^3, or of the 57 points of the projective plane.
And the label layer's bin tests and the histogram's cyclic bin counts from
sympy's polynomials over GF(7)."""

import itertools
import math

import pytest

pytest.importorskip("sympy")
from sympy import Poly, symbols  # noqa: E402
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from sl3f7 import scan  # noqa: E402
from sl3f7.classify import KNOWN_REPRESENTATIVES, ClassLabel, eigenfree_labels  # noqa: E402
from sl3f7.matrix3 import GROUP_ORDER, Mat3  # noqa: E402
from sl3f7.subgroups import PARABOLIC_GENERATORS, X, Y, Z  # noqa: E402

M04 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
M02 = KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]
VECTORS = [v for v in itertools.product(range(7), repeat=3) if any(v)]
# each point of the plane named by its vector whose leading nonzero entry is 1
POINTS = [v for v in VECTORS if next(x for x in v if x) == 1]


def _times(v: tuple[int, ...], g: Mat3) -> tuple[int, ...]:
    return tuple(sum(v[i] * g[3 * i + j] for i in range(3)) % 7 for j in range(3))


def _normalized(v: tuple[int, ...]) -> tuple[int, ...]:
    inverse = pow(next(x for x in v if x), -1, 7)
    return tuple(inverse * x % 7 for x in v)


def on_vectors(*gens: Mat3) -> PermutationGroup:
    index = {v: k for k, v in enumerate(VECTORS)}
    return PermutationGroup([Permutation([index[_times(v, g)] for v in VECTORS]) for g in gens])


def on_points(*gens: Mat3) -> PermutationGroup:
    index = {v: k for k, v in enumerate(POINTS)}
    return PermutationGroup([Permutation([index[_normalized(_times(v, g))] for v in POINTS])
                             for g in gens])


@pytest.fixture(scope="module")
def sl3() -> PermutationGroup:
    return on_vectors(X, Y, Z)


class TestOnVectors:
    def test_x_y_z_generate_sl3(self, sl3):
        assert sl3.order() == GROUP_ORDER == 5_630_688

    def test_sl3_is_perfect(self, sl3):
        assert sl3.is_perfect

    def test_parabolic_generators_give_h(self):
        assert on_vectors(*PARABOLIC_GENERATORS).order() == 98_784

    @pytest.mark.parametrize("m, order", [(M04, 57), (M02, 19)], ids=["M04", "M02"])
    def test_representative_orders(self, m, order):
        assert on_vectors(m).order() == order


class TestOnPoints:
    def test_psl3_order(self):
        assert on_points(X, Y, Z).order() == GROUP_ORDER // 3 == 1_876_896

    def test_a_point_stabiliser_has_orbits_1_and_56(self):
        stabiliser = on_points(X, Y, Z).stabilizer(0)
        assert sorted(map(len, stabiliser.orbits())) == [1, 56]


T = symbols("t")
# the characteristic polynomial t^3 - i t^2 + j t - 1 of bin 7 * i + j
CUBICS = [Poly(T**3 - i * T**2 + j * T - 1, T, modulus=7) for i in range(7) for j in range(7)]


class TestBinPolynomials:
    @pytest.mark.parametrize("n", [1, 3, 9, 19, 27])
    def test_unity_bins_are_where_t_to_the_n_is_one(self, n):
        # scan counts g^n = I over the cyclic elements of exactly these bins
        one = Poly(1, T, modulus=7)
        expected = [Poly(T**n, T, modulus=7).rem(f) == one for f in CUBICS]
        assert scan._unity_bins(n, 1).tolist() == expected

    def test_labels_are_the_irreducible_cubics(self):
        irreducible = [k for k, f in enumerate(CUBICS) if f.is_irreducible]
        assert [divmod(k, 7) for k in irreducible] == [tuple(l) for l in eigenfree_labels()]
        assert irreducible == scan._rootless_bins().nonzero()[0].tolist()
        assert len(irreducible) == 18

    def test_cyclic_bin_counts_are_gl3_over_the_units_mod_the_polynomial(self):
        # the cyclic g of a bin are one GL3 class, |GL3| = 6|G|, with the
        # centralizer (F7[t]/(f))*: (7^d - 1) 7^(d (e - 1)) units per factor p^e
        # of f, deg p = d
        cyclic = scan._group_histogram() - scan._noncyclic(1)[0]
        for k, f in enumerate(CUBICS):
            units = math.prod((7**p.degree() - 1) * 7 ** (p.degree() * (e - 1))
                              for p, e in f.factor_list()[1])
            assert divmod(6 * GROUP_ORDER, units) == (cyclic[k], 0), divmod(k, 7)
