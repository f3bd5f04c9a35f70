import ast
import inspect
import os
import random
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import code_planes, element_at, random_sl3
from sl3f7 import scan, subgroups
from sl3f7.classify import KNOWN_REPRESENTATIVES, ClassLabel, NotInSL3
from sl3f7.matrix3 import (
    GROUP_ORDER,
    IDENTITY,
    decode,
    det,
    encode,
    mat,
    mat_inv,
    mat_mul,
    mat_order,
    mat_pow,
)
from sl3f7.subgroups import (
    PARABOLIC_GENERATORS,
    ClosureCapExceeded,
    InParabolic,
    X,
    Y,
    Z,
    _step_tables,
    generator_closure,
    in_parabolic,
    maximality_witness,
    parabolic_size,
    reduce_to_generator,
)

M0 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]
M2 = KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]
# SL2(F7) in the top-left block: every code lies in [7^8, 2 * 7^8)
SL2_GENERATORS = (mat("1 1 0; 0 1 0; 0 0 1"), mat("1 0 0; 1 1 0; 0 0 1"))
# the det-1 monomial matrices: D, of order 36, by the permutations, 216 in all
MONOMIAL = (mat("3 0 0; 0 5 0; 0 0 1"), mat("1 0 0; 0 3 0; 0 0 5"), Y, mat("0 1 0; 1 0 0; 0 0 6"))


def random_outside_h(rng: random.Random):
    while True:
        a = random_sl3(rng)
        if not in_parabolic(a):
            return a


def element_closure(gens) -> int:
    """Reference closure: a BFS over the element codes, with the visited codes
    in a Python set and right multiplication by s split into a table of the
    343^2 codes of rows 1 and 2 and one of the 343 third rows."""
    tables = []
    for s in gens:
        rows = scan._encode_planes(scan._mul_planes(code_planes(np.arange(343)),
                                                    np.array(s, dtype=np.uint8)))
        tables.append(((rows[None, :] + 343 * rows[:, None]).ravel(), 343**2 * rows))
    visited = {encode(IDENTITY)}
    frontier = np.array([encode(IDENTITY)])
    while frontier.size:
        high, low = np.divmod(frontier, 343**2)
        reached = set().union(*((pair[low] + row3[high]).tolist() for pair, row3 in tables))
        frontier = np.fromiter(reached - visited, dtype=np.int64)
        visited |= reached
    return len(visited)


def row_code(row) -> int:
    return row[0] + 7 * row[1] + 49 * row[2]


# the 57 points of P^2(F7) as the row codes whose first nonzero entry is 1, ascending
POINTS = [c for c in range(1, 343) if next(x for x in (c % 7, c // 7 % 7, c // 49) if x) == 1]
LOG3 = {pow(3, e, 7): e for e in range(6)}


def coset_key(g) -> int:
    """generator_closure's entry key << 6 | tag for g: rows 1 and 2 over their
    first nonzero entries a = 3^e1 and b = 3^e2 are the points p1 and p2,
    row 3 is scaled by a * b, and the tag is 6 * e1 + e2."""
    rows = [g[0:3], g[3:6], g[6:9]]
    a, b = (next(x for x in row if x) for row in rows[:2])
    p1, p2 = (POINTS.index(row_code([x * pow(lead, 5, 7) % 7 for x in row]))
              for row, lead in zip(rows, (a, b)))
    row3 = row_code([x * a * b % 7 for x in rows[2]])
    return ((p1 * 57 + p2) * 343 + row3) << 6 | 6 * LOG3[a] + LOG3[b]


def coset_member(entry: int):
    """The element an entry of generator_closure stands for:
    diag(3^e1, 3^e2, 3^-(e1 + e2)) times the rows p1, p2 and row 3 of its key."""
    key, tag = divmod(entry, 64)
    pair, row3 = divmod(key, 343)
    e = divmod(tag, 6)
    rows = [decode(POINTS[p])[:3] for p in divmod(pair, 57)] + [decode(row3)[:3]]
    scales = [3**e[0], 3**e[1], pow(3, -(e[0] + e[1]) % 6, 7)]
    return tuple(lam * x % 7 for lam, row in zip(scales, rows) for x in row)


def set_closure(gens) -> int:
    """Reference closure: a set BFS that steps by each generator and its inverse."""
    steps = [s for g in gens for s in (g, mat_inv(g))]
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        frontier = [m for m in {mat_mul(f, s) for f in frontier for s in steps} if m not in seen]
        seen.update(frontier)
    return len(seen)


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
        assert parabolic_size() == 98_784

    def test_equals_formula(self):
        assert parabolic_size() == (7**2 - 1) * (7**2 - 7) * 7**2

    def test_index_is_57(self):
        assert GROUP_ORDER // parabolic_size() == 57
        assert parabolic_size() * 57 == GROUP_ORDER

    def test_peak_allocation_is_below_a_7_7_decode(self):
        # decoding all 7^7 tuples into planes took a 25.9 MiB peak; the 7^6
        # minors that each a scales take 3.7 MiB
        tracemalloc.start()
        try:
            assert parabolic_size() == 98_784
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_uint8_kernel_matches_scalar_det(self):
        # det of [[a, b, c], [0, e, f], [0, h, i]] ignores b and c, so the
        # scalar count runs over (a, e, f, h, i) and weighs each by 7^2; it
        # includes the 0/6 extremes where e*i - f*h would wrap in uint8
        n = sum(det((a, 0, 0, 0, e, f, 0, h, i)) == 1
                for a in range(7) for e in range(7) for f in range(7)
                for h in range(7) for i in range(7))
        assert parabolic_size() == 49 * n


class TestClosure:
    # a closure test passes its exact size as the cap, so a closure that
    # loses visited marks raises ClosureCapExceeded on the size known after
    # some level (the node count times the order of the subgroup of D that
    # the edges have shown)
    # instead of running level after level up to the default cap of |G|
    def test_single_order19_generator(self):
        assert generator_closure((M2,), cap=19) == 19

    def test_single_order57_generator(self):
        assert generator_closure((M0,), cap=57) == 57

    def test_parabolic_generators_generate_h(self):
        assert generator_closure(PARABOLIC_GENERATORS, cap=98_784) == 98_784

    def test_identity_alone_ends_on_an_empty_level(self):
        # the first level's candidates are all visited, so the dedupe sees []
        assert generator_closure((IDENTITY,), cap=1) == 1

    # the cap is the exact answer, so a closure that revisits or double
    # counts an element raises ClosureCapExceeded instead of looping on
    @seed(0xC105)
    @settings(max_examples=60, deadline=None)
    @given(rank=st.integers(0, GROUP_ORDER - 1))
    def test_cyclic_closure_is_the_element_order(self, rank):
        g = element_at(rank)
        assert generator_closure((g,), cap=mat_order(g)) == mat_order(g)

    def test_one_step_table_per_generator(self, monkeypatch):
        built = []

        def counted(s):
            built.append(s)
            return _step_tables(s)

        monkeypatch.setattr(subgroups, "_step_tables", counted)
        # the 1.1 MB node states, the largest level and its merge: 3.2 MiB over
        # the cosets of D; 12.2 over the cosets of the centre, with 2-bit node
        # states and 1.4 MB step tables, 18.3 as an element BFS with a visited
        # bitset, 20.8 while the old frontier lived through the merge, 30.0
        # with per-thread code ranges
        tracemalloc.start()
        try:
            assert generator_closure((X, Y, Z)) == 5_630_688
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        assert built == [X, Y, Z]
        built.clear()
        assert generator_closure(PARABOLIC_GENERATORS, cap=98_784) == 98_784
        assert built == list(PARABOLIC_GENERATORS)

    # a cyclic closure cannot tell whether inverse steps are needed, since
    # every element is a positive power of the generator; <P, n> with n
    # normalizing <P> (n P n^-1 = P^k) is non-abelian, of order 57, and
    # adding a generator c of C(P) gives N(<P>), of order 171
    @seed(0x1957)
    @settings(max_examples=20, deadline=None)
    @given(rank=st.integers(0, GROUP_ORDER - 1), k=st.sampled_from([7, 11]),
           pick=st.integers(0, 2**20), with_c=st.booleans())
    def test_matches_a_set_bfs_on_normalizers_of_order19_subgroups(self, rank, k, pick, with_c):
        h = element_at(rank)
        p = mat_mul(mat_mul(h, M2), mat_inv(h))
        ns = scan.intertwiners(p, mat_pow(p, k))
        gens = (p, decode(int(ns[pick % ns.size])))
        if with_c:
            cs = [c for c in map(decode, scan.intertwiners(p, p).tolist()) if mat_order(c) == 57]
            gens += (cs[pick % len(cs)],)
        size = 171 if with_c else 57
        assert generator_closure(gens, cap=size) == set_closure(gens) == size

    def test_cap_exceeded(self):
        with pytest.raises(ClosureCapExceeded):
            generator_closure((M2,), cap=5)

    def test_peak_allocation_is_below_a_code_space_array(self):
        # a bool per code would alone take 38.5 MiB; the node states take 1.1 MB
        tracemalloc.start()
        try:
            assert generator_closure((M2,), cap=19) == 19
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    # closure sizes cannot catch a transposed table: X^T, Y^T, Z^T also
    # generate G, and the transposed H generators give a group of order 98784
    @pytest.mark.parametrize("gens", [(X, Y, Z), PARABOLIC_GENERATORS], ids=["XYZ", "H"])
    def test_row_table_steps_are_right_products(self, gens):
        # the largest and the least entry, every entry of the 57 x 57 table,
        # every row 3, then random entries; a member need not have det 1
        rng = random.Random(0x7AB1)
        pairs = [57**2 - 1, 0] + list(range(57**2)) + [rng.randrange(57**2) for _ in range(343)]
        rows = [342, 0] + [rng.randrange(343) for _ in range(57**2)] + list(range(343))
        tags = [35, 0] + [rng.randrange(36) for _ in range(57**2 + 343)]
        entries = [(pair * 343 + row) << 6 | tag for pair, row, tag in zip(pairs, rows, tags)]
        entries += [rng.randrange(57**2 * 343) << 6 | rng.randrange(36) for _ in range(2_000)]
        steps = [s for g in gens for s in (g, mat_inv(g))]
        states = np.zeros(57**2 * 343, dtype=np.uint8)  # every node unseen: all entries kept
        entries, tables = np.array(entries, dtype=np.int32), list(map(_step_tables, steps))
        got = subgroups._children(entries, tables, states, np.zeros(36, dtype=bool))
        assert [piece.dtype for piece in got] == [np.int32] * len(steps)
        members = list(map(coset_member, entries.tolist()))
        assert [piece.tolist() for piece in got] == [
            [coset_key(mat_mul(m, s)) for m in members] for s in steps]
        # with no Schreier marks to take, the same nodes, each with tag 0
        untagged = subgroups._children(entries, tables, states, None)
        assert [piece.tolist() for piece in untagged] == [(piece >> 6 << 6).tolist() for piece in got]

    @pytest.mark.parametrize("gens, size", [(PARABOLIC_GENERATORS, 98_784), ((M2,), 19),
                                            ((M0,), 57), (SL2_GENERATORS, 336)],
                             ids=["H", "M2", "M0", "SL2"])
    def test_size_at_its_exact_cap(self, gens, size):
        assert generator_closure(gens, cap=size) == size

    def test_levels_are_the_same_ascending_frontier_for_any_chunk(self, monkeypatch):
        levels: dict[int, list[list[int]]] = {}
        slices: list[int] = []

        def merge(pieces, states, schreier):
            frontier = merged(pieces, states, schreier)
            levels[chunk].append(frontier.tolist())
            return frontier

        def children(entries, tables, states, schreier):
            slices.append(entries.size)
            return expand(entries, tables, states, schreier)

        merged, expand = subgroups._merge, subgroups._children
        monkeypatch.setattr(subgroups, "_merge", merge)
        monkeypatch.setattr(subgroups, "_children", children)
        # the closure reads no walk constant: it expands each level whole, at
        # any scan.CHUNK, though H's largest level, 1 081 nodes, exceeds 1 000
        for chunk in (scan.CHUNK, 1_000):
            monkeypatch.setattr(scan, "CHUNK", chunk)
            run = levels[chunk] = []
            slices.clear()
            assert generator_closure(PARABOLIC_GENERATORS, cap=98_784) == 98_784
            # one expansion per level, of its whole frontier, the first level I alone
            assert slices == [1] + [len(level) for level in run[:-1]]
        assert levels[scan.CHUNK] == levels[1_000]
        assert max(map(len, levels[1_000])) == 1_081
        # ascending keys, one per node; H holds D, so with I's node they are |H| / 36
        nodes = [[k >> 6 for k in level] for level in levels[1_000]]
        assert all(level == sorted(set(level)) for level in nodes)
        assert 1 + sum(map(len, nodes)) == 98_784 // 36 == 2_744

    def test_bad_generator_sets_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            generator_closure(())
        with pytest.raises(NotInSL3):
            generator_closure((mat("2 0 0; 0 1 0; 0 0 1"),))


class TestCosetClosure:
    """The coset BFS against the element BFS, at any scan.CHUNK, which the
    closure does not read: a group meeting D in the identity alone has
    |<gens>| nodes, one holding Z a third, and one meeting D in a subgroup of
    order 2, 6, 9 or 36 that fraction."""

    @pytest.fixture(scope="class")
    def normalizer(self):
        # <P, n> with n P n^-1 = P^7 is non-abelian of order 57 and holds no
        # scalar; adding an order-57 c of C(P) gives N(<P>), of order 171
        h = element_at(4_321_987)
        p = mat_mul(mat_mul(h, M2), mat_inv(h))
        n = decode(int(scan.intertwiners(p, mat_pow(p, 7))[0]))
        c = next(c for c in map(decode, scan.intertwiners(p, p).tolist()) if mat_order(c) == 57)
        return {"Pn": (p, n), "NP": (p, n, c)}

    @pytest.mark.parametrize("chunk", [scan.CHUNK, 1_000])
    @pytest.mark.parametrize("name, size", [
        ("M2", 19), ("M0", 57), ("H", 98_784), ("SL2", 336), ("2I", 3), ("I", 1),
        ("Pn", 57), ("NP", 171), ("D6", 6), ("D9", 9), ("D2", 2), ("monomial", 216)])
    def test_matches_the_element_bfs(self, monkeypatch, normalizer, name, size, chunk):
        # D6 is cyclic, so one Schreier generator spans it; D9 is C3 x C3, so no
        # one Schreier generator does, nor does any for the monomial group's D
        gens = {"M2": (M2,), "M0": (M0,), "H": PARABOLIC_GENERATORS, "SL2": SL2_GENERATORS,
                "2I": (mat("2 0 0; 0 2 0; 0 0 2"),), "I": (IDENTITY,),
                "D6": (mat("3 0 0; 0 5 0; 0 0 1"),),
                "D9": (mat("2 0 0; 0 4 0; 0 0 1"), mat("1 0 0; 0 2 0; 0 0 4")),
                "D2": (mat("6 0 0; 0 6 0; 0 0 1"),), "monomial": MONOMIAL, **normalizer}[name]
        monkeypatch.setattr(scan, "CHUNK", chunk)
        assert generator_closure(gens, cap=size) == element_closure(gens) == size

    def test_the_cap_counts_z_from_the_level_that_shows_it(self, monkeypatch):
        # <M2, 2 M2> is <M2> x Z: level 1 reaches one node as M2 and as 2 M2,
        # so with I's node its 2 nodes already stand for 6 elements and a cap
        # of 5 stops there, not 4 levels later when 6 nodes pass it.  In the
        # monomial group, level 1 reaches I's node by diag(3, 5, 1) and by
        # diag(1, 3, 5), which span D: its 3 nodes stand for 108 elements
        levels = []

        def merge(pieces, states, schreier):
            frontier = merged(pieces, states, schreier)
            levels.append(frontier.size)
            return frontier

        merged = subgroups._merge
        monkeypatch.setattr(subgroups, "_merge", merge)
        for gens, size, cap in [((M2, tuple(2 * x % 7 for x in M2)), 57, 5),
                                (MONOMIAL, 216, 107)]:
            assert generator_closure(gens, cap=size) == element_closure(gens) == size
            levels.clear()
            with pytest.raises(ClosureCapExceeded):
                generator_closure(gens, cap=cap)
            assert levels == [1 if size == 57 else 2]

    @pytest.mark.parametrize("name, size, spans", [
        ("XYZ", GROUP_ORDER, 15), ("H", 98_784, 1), ("M2", 19, None), ("D9", 9, None)])
    def test_the_span_is_taken_once_a_level_until_it_is_all_of_d(
            self, monkeypatch, name, size, spans):
        # {X, Y, Z}'s tags span D at level 15 of 29 and H's at level 1, and
        # the levels after it run with no tags; a group meeting D in less
        # takes the span after each of its levels, all of them tagged
        gens = {"XYZ": (X, Y, Z), "H": PARABOLIC_GENERATORS, "M2": (M2,),
                "D9": (mat("2 0 0; 0 4 0; 0 0 1"), mat("1 0 0; 0 2 0; 0 0 4"))}[name]
        tagged: dict[str, list[bool]] = {"_children": [], "_merge": []}  # one entry per call
        taken = []  # the spans _span returned

        def span(tags):
            taken.append(spanned(tags))
            return taken[-1]

        def recorded(name):
            step = getattr(subgroups, name)
            return lambda *args: tagged[name].append(args[-1] is not None) or step(*args)

        spanned = subgroups._span
        monkeypatch.setattr(subgroups, "_span", span)
        for step in tagged:
            monkeypatch.setattr(subgroups, step, recorded(step))
        assert generator_closure(gens) == size
        levels = tagged["_merge"]
        assert tagged["_children"] == levels
        assert all(s < 36 for s in taken[:-1])
        if spans is None:
            assert len(taken) == len(levels) and taken[-1] < 36 and all(levels)
        else:
            assert len(taken) == spans and taken[-1] == 36
            assert levels == [True] * spans + [False] * (len(levels) - spans) and len(levels) > spans


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
            a = random_outside_h(rng)
            witness = maximality_witness(a)
            assert witness == (generator_closure(PARABOLIC_GENERATORS + (a,)) == GROUP_ORDER)
            assert witness

    def test_witness_runs_no_group_search(self, monkeypatch):
        def no_closure(*args, **kwargs):
            raise AssertionError("maximality_witness ran a closure")

        monkeypatch.setattr(subgroups, "generator_closure", no_closure)
        rng = random.Random(0x3A71)
        assert all(maximality_witness(random_outside_h(rng)) for _ in range(2_000))

    @pytest.mark.parametrize("failing", [Y, Z], ids=["Y", "Z"])
    def test_witness_needs_both_traces(self, monkeypatch, failing):
        monkeypatch.setattr(subgroups.ReductionTrace, "verify", lambda t: t.target != failing)
        assert not maximality_witness(M0)

    # the witness is only as good as the two reducers, so every `if` in them
    # must run on both sides: its body, and its else branch or fall-through
    @pytest.mark.parametrize("reducer, n_ifs",
                             [(subgroups._reduce_to_y, 3), (subgroups._reduce_to_z, 4)],
                             ids=["Y", "Z"])
    def test_every_reducer_branch_runs_both_ways(self, reducer, n_ifs):
        lines, first = inspect.getsourcelines(reducer)
        tree = ast.parse(textwrap.dedent("".join(lines)))
        ifs = [(first - 1 + n.lineno, first - 1 + n.body[0].lineno)
               for n in ast.walk(tree) if isinstance(n, ast.If)]
        assert len(ifs) == n_ifs
        runs: list[set[int]] = []

        def tracer(frame, event, arg):
            if event == "call" and frame.f_code is reducer.__code__:
                runs.append(set())
                return record
            return None

        def record(frame, event, arg):
            if event == "line":
                runs[-1].add(frame.f_lineno)
            return record

        rng = random.Random(0xB4A2)
        samples = [random_outside_h(rng) for _ in range(300)]
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            for a in samples:
                assert maximality_witness(a)
        finally:
            sys.settrace(previous)
        assert len(runs) == len(samples)
        # none of the ifs sits in a loop, so each runs at most once a call
        sides = {(test, body in ran) for ran in runs for test, body in ifs if test in ran}
        assert sides == {(test, side) for test, _ in ifs for side in (True, False)}

    def test_witness_rejects_h_members(self):
        with pytest.raises(InParabolic):
            maximality_witness(X)

    def test_witness_rejects_non_sl3(self):
        with pytest.raises(NotInSL3):
            maximality_witness(mat("2 0 0; 1 1 0; 0 0 1"))

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="one full-group closure per sample; set SL3F7_SLOW=1 to run 100 samples",
    )
    def test_witness_for_100_samples(self, rng):
        for _ in range(100):
            a = random_outside_h(rng)
            assert maximality_witness(a)
            assert generator_closure(PARABOLIC_GENERATORS + (a,)) == GROUP_ORDER

    @pytest.mark.skipif(
        not os.environ.get("SL3F7_SLOW"),
        reason="about 20 s of reductions; set SL3F7_SLOW=1 to run 100 000 samples",
    )
    def test_witness_for_100000_samples(self):
        rng = random.Random(0x100000)
        assert all(maximality_witness(random_outside_h(rng)) for _ in range(100_000))
