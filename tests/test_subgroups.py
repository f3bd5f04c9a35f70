import ast
import inspect
import os
import random
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_sl3
from sl3f7 import scan, subgroups
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


def random_outside_h(rng: random.Random):
    while True:
        a = random_sl3(rng)
        if not in_parabolic(a):
            return a


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
    # loses visited marks raises ClosureCapExceeded at once instead of
    # running level after level up to the default cap of |G|
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
        g = decode(int(scan._encode_planes(scan._element_planes(rank, rank + 1))[0]))
        assert generator_closure((g,), cap=mat_order(g)) == mat_order(g)

    def test_one_step_table_per_generator(self, monkeypatch):
        built = []

        def counted(s):
            built.append(s)
            return _step_tables(s)

        monkeypatch.setattr(subgroups, "_step_tables", counted)
        # the visited bitset, the largest level and its merge: 18.3 MiB; 20.8
        # while the old frontier lived through the merge, 30.0 with per-thread
        # code ranges
        tracemalloc.start()
        try:
            assert generator_closure((X, Y, Z)) == 5_630_688
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19 * 2**20
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
        h = decode(int(scan._encode_planes(scan._element_planes(rank, rank + 1))[0]))
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
        # a bool per code would alone take 38.5 MiB; the visited bitset takes 4.8 MiB
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
        rng = random.Random(0x7AB1)
        codes = [0, CODE_SPACE - 1] + [rng.randrange(CODE_SPACE) for _ in range(2_000)]
        steps = [s for g in gens for s in (g, mat_inv(g))]
        high, low = np.divmod(np.array(codes, dtype=np.int32), 343**2)
        got = np.concatenate([pair[low] + row3[high] for pair, row3 in map(_step_tables, steps)])
        assert got.dtype == np.int32
        assert got.tolist() == [encode(mat_mul(decode(c), s)) for s in steps for c in codes]

    # the closure runs in the calling thread: a thread count asked for
    # through SL3F7_THREADS, on a host with that many CPUs, changes nothing
    @pytest.mark.parametrize("gens, size", [(PARABOLIC_GENERATORS, 98_784), ((M2,), 19),
                                            ((M0,), 57), (SL2_GENERATORS, 336)],
                             ids=["H", "M2", "M0", "SL2"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_size_is_independent_of_threads(self, gens, size, threads, monkeypatch):
        monkeypatch.setenv("SL3F7_THREADS", str(threads))
        monkeypatch.setattr(os, "cpu_count", lambda: threads)
        assert generator_closure(gens, cap=size) == size

    def test_levels_are_the_same_ascending_frontier_for_any_thread_count(self, monkeypatch):
        levels: dict[tuple[int, int], list[list[int]]] = {}
        gathers: list[int] = []

        def mark(bits, codes):
            levels[chunk, threads].append(codes.tolist())
            marked(bits, codes)

        def unmarked(bits, codes):
            gathers.append(codes.size)
            return kept(bits, codes)

        marked, kept = subgroups._mark, subgroups._unmarked
        monkeypatch.setattr(subgroups, "_mark", mark)
        monkeypatch.setattr(subgroups, "_unmarked", unmarked)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # H's levels have at most 28 701 codes, so only 1 000-code slices split one
        for chunk in (scan.CHUNK, 1_000):
            monkeypatch.setattr(subgroups, "CHUNK", chunk)
            for threads in (1, 2, 3):
                monkeypatch.setenv("SL3F7_THREADS", str(threads))
                run = levels[chunk, threads] = []
                gathers.clear()
                assert generator_closure(PARABOLIC_GENERATORS, cap=98_784) == 98_784
                # one gather per generator and slice of at most chunk codes
                assert max(gathers) <= chunk
                assert len(gathers) == len(PARABOLIC_GENERATORS) * sum(
                    -(-len(level) // chunk) for level in run[:-1])
        first, *rest = levels.values()
        assert all(level == first for level in rest)
        assert all(level == sorted(set(level)) for level in first)

    def test_only_the_calling_thread_marks(self, monkeypatch):
        threads = []

        def mark(bits, codes):
            threads.append(threading.current_thread())
            marked(bits, codes)

        marked = subgroups._mark
        monkeypatch.setattr(subgroups, "_mark", mark)
        monkeypatch.setattr(subgroups, "CHUNK", 1_000)  # several slices per level
        monkeypatch.setenv("SL3F7_THREADS", "3")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert generator_closure(PARABOLIC_GENERATORS, cap=98_784) == 98_784
        assert threads and set(threads) == {threading.main_thread()}

    def test_cap_holds_at_two_threads(self, monkeypatch):
        monkeypatch.setenv("SL3F7_THREADS", "2")
        assert generator_closure((IDENTITY,), cap=1) == 1
        with pytest.raises(ClosureCapExceeded):
            generator_closure((M2,), cap=5)

    def test_threads_are_capped_at_the_cpu_count(self, monkeypatch):
        # a million threads asked for on a 4-CPU host start none at all,
        # and the frontier is still expanded in slices of at most CHUNK codes
        def no_thread(self):
            raise AssertionError("the closure started a thread")

        gathers: list[int] = []

        def unmarked(bits, codes):
            gathers.append(codes.size)
            return kept(bits, codes)

        kept = subgroups._unmarked
        monkeypatch.setattr(subgroups, "_unmarked", unmarked)
        monkeypatch.setattr(subgroups, "CHUNK", 1_000)
        monkeypatch.setenv("SL3F7_THREADS", str(10**6))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert generator_closure(PARABOLIC_GENERATORS, cap=98_784) == 98_784
        assert max(gathers) <= 1_000 and gathers.count(1_000) > 0

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
