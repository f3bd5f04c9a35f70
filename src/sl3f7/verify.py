"""Verification harness: every acceptance check behind `sl3f7 verify`.

Each check reproduces one exact claim about SL3(F7) (integer equalities,
zero tolerance).  The algebraic answers (centralizers, class sizes, the
normalizer) are compared with the brute-force scans kept as their
oracles.  The quick suite trims sampling volume and skips the
generator-closure run; the full suite runs everything at full scale.
The pytest acceptance module drives the same registry.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classify, scan, simconj, subgroups
from .classify import ClassLabel
from .field import CubicPoly, EXT_ONE, cubic_roots_ext, ext_pow
from .matrix3 import (
    CODE_SPACE,
    GROUP_ORDER,
    Mat3,
    decode,
    det,
    encode,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_powers,
    mat_scale,
    mat_order,
    scalar_mat,
)

M04 = classify.KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]  # [[0,1,3],[0,0,1],[1,0,0]]
M02 = classify.KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]  # 2 * M04
M10 = classify.KNOWN_REPRESENTATIVES[ClassLabel(1, 0)]
T13 = classify.KNOWN_REPRESENTATIVES[ClassLabel(1, 3)]  # trace-1 power-table subject

EXPECTED_LABELS = [
    (0, 1), (0, 2), (0, 4), (1, 0), (1, 3), (1, 5), (2, 0), (2, 5), (2, 6),
    (3, 1), (3, 4), (4, 0), (4, 3), (4, 6), (5, 1), (5, 2), (6, 2), (6, 4),
]

ORDER19 = {(0, 2), (1, 3), (2, 0), (3, 1), (3, 4), (4, 3)}

M02_CLASS_COLUMN = [
    (0, 2), (3, 4), (3, 4), (1, 3), (4, 3), (1, 3), (0, 2), (2, 0), (1, 3),
    (3, 1), (0, 2), (2, 0), (3, 1), (3, 4), (3, 1), (4, 3), (4, 3), (2, 0),
    (3, 3), (0, 2),
]
T13_CLASS_COLUMN = [
    (1, 3), (2, 0), (2, 0), (4, 3), (0, 2), (4, 3), (1, 3), (3, 1), (4, 3),
    (3, 4), (1, 3), (3, 1), (3, 4), (2, 0), (3, 4), (0, 2), (0, 2), (3, 1),
    (3, 3), (1, 3),
]

SQUARE_CYCLE = [(3, 4), (1, 3), (2, 0), (4, 3), (3, 1), (0, 2)]
FOURTH_POWER_CYCLES = [
    [(3, 4), (2, 0), (3, 1)],
    [(1, 3), (4, 3), (0, 2)],
]


def _random_sl3(rng: random.Random) -> Mat3:
    while True:
        m = decode(rng.randrange(CODE_SPACE))
        if det(m) == 1:
            return m


def _conj(g: Mat3, m: Mat3) -> Mat3:
    return mat_mul(mat_mul(g, m), mat_inv(g))


# ---------------------------------------------------------------------------
# checks; each returns (ok, detail)


def _stream_is_det1() -> bool:
    """The element stream behind every group scan is strictly ascending,
    all det 1 and GROUP_ORDER long: with count_sl3 = GROUP_ORDER, it is
    exactly the det-1 set.  Each nonzero third row owns one block of
    _R3_BLOCK consecutive ranks, the layout scan._PSL_RANGES reads; a
    piece's blocks are counted by binary search on its ascending codes."""
    last, total, ok, per_row3 = -1, 0, True, 0
    for codes, dets in scan._map_chunks(lambda d: (scan._encode_planes(d), scan._det_plane(d))):
        ok = ok and codes[0] > last and bool(np.all(np.diff(codes) > 0) & np.all(dets == 1))
        last, total = int(codes[-1]), total + codes.size
        per_row3 = per_row3 + np.diff(np.searchsorted(codes, 343**2 * np.arange(344)))
    return ok and total == GROUP_ORDER and np.array_equal(per_row3, [0] + [scan._R3_BLOCK] * 342)


def check_group_order(full: bool) -> tuple[bool, str]:
    t0 = time.perf_counter()
    n = scan.count_sl3()
    dt = time.perf_counter() - t0
    # the 49 bins of _group_histogram, which the census and the order counts
    # read, are counted with no walk, so they must add up to the counted n
    ok = n == GROUP_ORDER == int(scan._group_histogram().sum()) and dt <= 60.0
    ok = ok and _stream_is_det1()
    budget = "within 60s budget" if dt <= 60.0 else f"OVER BUDGET: {dt:.1f}s > 60s"
    return ok, f"count={n} (expected {GROUP_ORDER}), {budget}"


def check_census(full: bool) -> tuple[bool, str]:
    s = scan.census()
    expected_traces = {0: 296_352, 1: 296_352, 2: 296_352, 3: 197_568,
                       4: 296_352, 5: 197_568, 6: 197_568}
    ok = s.eigenfree_total == 1_778_112 and s.by_trace == expected_traces
    ok = ok and s == scan._census_walk()
    return ok, (f"eigenfree_total={s.eigenfree_total}, "
                f"by_trace={[s.by_trace[t] for t in range(7)]}")


def check_label_catalog(full: bool) -> tuple[bool, str]:
    labels = [tuple(l) for l in classify.eigenfree_labels()]
    s = scan.census()
    counts = {tuple(l): n for l, n in s.by_label.items()}
    ok = (
        labels == EXPECTED_LABELS
        and (1, 5) in counts
        and (1, 6) not in counts
        and all(counts[l] == 98_784 for l in labels)
    )
    return ok, f"{len(labels)} labels, counts={sorted(set(counts.values()))}"


def check_orders(full: bool) -> tuple[bool, str]:
    order = classify.order_of_label
    ok = all(order(ClassLabel(*l)) == (19 if l in ORDER19 else 57) for l in EXPECTED_LABELS)
    for label in classify.eigenfree_labels():
        ok = ok and mat_order(classify.representative(label)) == order(label)
    ok = ok and mat_pow(M04, 19) == scalar_mat(4)
    ok = ok and mat_pow(M10, 19) == scalar_mat(4)
    return ok, f"6 labels of order 19, 12 of order 57; M04^19 = {mat_pow(M04, 19)[0]}I"


def check_eigenvalue_orders(full: bool) -> tuple[bool, str]:
    ok = True
    for i, j in [(0, 2), (4, 3), (3, 1), (1, 3)]:
        roots = cubic_roots_ext(CubicPoly(i, j))
        ok = ok and len(roots) == 3
        for r in roots:
            ok = ok and ext_pow(r, 19) == EXT_ONE and r != EXT_ONE
    return ok, "all roots of the four order-19 cubics satisfy r^19 = 1, r != 1"


def check_centralizer(full: bool) -> tuple[bool, str]:
    rep = scan.centralizer(M04)
    algebraic_ok = np.array_equal(scan.intertwiners(M04, M04),
                                  scan.intertwiner_codes(M04, M04))
    powers = {encode(p) for p in mat_powers(M04, 57)}
    family = sorted(encode(scan.commutant_family(a, b, d))
                    for b, d, sols in scan.centralizer_parameter_table() for a in sols)
    ok = (
        rep.size == 57
        and rep.is_cyclic
        and rep.elements is not None
        and set(rep.elements) == powers
        and len(family) == 57
        and tuple(family) == rep.elements
        and algebraic_ok
    )
    return ok, (f"size={rep.size}, cyclic={rep.is_cyclic}, "
                f"elements = the 57 powers, (b,d)-table total={len(family)}")


def check_conjugacy(full: bool) -> tuple[bool, str]:
    labels = classify.eigenfree_labels() if full else classify.eigenfree_labels()[:3]
    sizes_ok = True
    for label in labels:
        m = classify.representative(label)
        report = scan.centralizer(m)
        oracle = scan.intertwiner_codes(m, m)
        sizes_ok = sizes_ok and report.size == 57 and report.is_cyclic
        sizes_ok = sizes_ok and report.elements == tuple(oracle.tolist())
        sizes_ok = sizes_ok and scan.class_size(m) == 98_784
    orbit_labels = [ClassLabel(0, 4), ClassLabel(0, 2)] if full else [ClassLabel(0, 4)]
    orbits_ok = True
    budget_ok = True
    for label in orbit_labels:
        t0 = time.perf_counter()
        orbit = scan.orbit_oracle(classify.representative(label))
        budget_ok = budget_ok and (time.perf_counter() - t0) <= 300.0
        members = scan.label_member_codes(label)
        orbits_ok = orbits_ok and orbit == {int(c) for c in members}
    ok = sizes_ok and orbits_ok and budget_ok
    budget = "within budget" if budget_ok else "ORBIT SCAN OVER 300s BUDGET"
    return ok, (f"cyclic 57-element centralizer and class_size=98784 for {len(labels)} "
                f"label(s); orbit equals label set for {[str(l) for l in orbit_labels]}, {budget}")


def check_power_table(full: bool) -> tuple[bool, str]:
    rows = scan.power_table(M02, 20)
    ok = [r.pair for r in rows] == M02_CLASS_COLUMN
    ok = ok and rows[18].note == "identity"
    rows13 = scan.power_table(T13, 20)
    ok = ok and [r.pair for r in rows13] == T13_CLASS_COLUMN
    return ok, "trace/class columns match for the [0,2] and [1,3] subjects"


def check_power_bijections(full: bool) -> tuple[bool, str]:
    ok = True
    for idx, label in enumerate(SQUARE_CYCLE):
        expected = SQUARE_CYCLE[(idx + 1) % 6]
        ok = ok and classify.power_class_map(ClassLabel(*label), 2) == expected
    # the Frobenius power map M -> M^7 and its inverse M -> M^49 fix every
    # label; the exponent 11 (= 49 mod 19) is its inverse on the order-19
    # labels, and on all six classes of the scalar-collapsed quotient
    for label in classify.eigenfree_labels():
        ok = ok and classify.power_class_map(label, 7) == label
        ok = ok and classify.power_class_map(label, 49) == label
        ok = ok and classify.psl_label(classify.power_class_map(label, 11)) == classify.psl_label(label)
    for label in ORDER19:
        ok = ok and classify.power_class_map(ClassLabel(*label), 11) == ClassLabel(*label)
        got = classify.power_class_map(ClassLabel(*label), 18)
        ok = ok and got == classify.inverse_label(ClassLabel(*label))
    for cycle in FOURTH_POWER_CYCLES:
        for idx, label in enumerate(cycle):
            expected = cycle[(idx + 1) % 3]
            ok = ok and classify.power_class_map(ClassLabel(*label), 4) == expected
    return ok, ("exp 2 six-cycle; exps 7/49 identity everywhere, exp 11 identity "
                "on order-19 labels and on PSL classes; exp 18 inversion; exp 4 three-cycles")


def check_sylow(full: bool) -> tuple[bool, str]:
    elements = scan.count_order19_elements()
    n19 = scan.sylow19_count(elements)
    ok = (
        n19 == 32_928
        and n19 * scan.normalizer_of_cyclic(M02) == GROUP_ORDER
        and n19 % 19 == 1
        and elements == 592_704
        and elements == 18 * n19
        and elements == 6 * 98_784
        and elements == scan._power_counts((19,))[19] - 1
    )
    return ok, f"n19={n19}, order-19 elements={elements}"


def check_normalizer(full: bool) -> tuple[bool, str]:
    n = scan.normalizer_of_cyclic(M02)
    ok = (n == scan.normalizer_oracle(M02) == 171
          and n % 57 == 0 and n // 19 == 9)
    return ok, f"|N(<P>)|={n} = 3^2 * 19"


def check_order_absence(full: bool) -> tuple[bool, str]:
    counts = scan._power_counts((1, 3, 9, 27))
    absent9 = scan._order_absent(counts, 9)
    absent27 = scan._order_absent(counts, 27)
    present3 = not scan._order_absent(counts, 3)
    answers = [scan.order_absence_check(n) for n in (9, 27, 3)]  # from the pair histogram
    ok = absent9 and absent27 and present3 and answers == [absent9, absent27, not present3]
    return ok, f"order 9 absent={absent9}, order 27 absent={absent27}, order 3 present={present3}"


def check_commuting_reps(full: bool) -> tuple[bool, str]:
    reps = simconj.eighteen_commuting_reps()
    histogram: dict[tuple[int, int], int] = {}
    for k, p in enumerate(mat_powers(M04, 56), 1):
        if k % 19 != 0:
            label = classify.class_label(p)
            histogram[tuple(label)] = histogram.get(tuple(label), 0) + 1
    commute_ok = all(
        mat_mul(a, b) == mat_mul(b, a)
        for a in reps.values()
        for b in reps.values()
    )
    ok = (
        len(reps) == 18
        and sorted(histogram) == EXPECTED_LABELS
        and set(histogram.values()) == {3}
        and commute_ok
        and all(classify.class_label(m) == l for l, m in reps.items())
    )
    return ok, f"18 labels covered; 54 powers split {len(histogram)} x 3; all pairs commute"


def _oracle_simconj(t1: tuple[Mat3, ...], t2: tuple[Mat3, ...]) -> Mat3 | None:
    """Brute-force oracle: every g with g*A1 = B1*g, found by a full group
    scan, with the remaining coordinates tested exactly."""
    for code in scan.intertwiner_codes(t1[0], t2[0]):
        g = decode(int(code))
        if all(_conj(g, a) == b for a, b in zip(t1[1:], t2[1:])):
            return g
    return None


def check_simconj(full: bool) -> tuple[bool, str]:
    rng = random.Random(0xC0457)
    n_pairs = 50 if full else 8
    valid_exps = [e for e in range(1, 57) if e % 19 != 0]
    agreements = 0
    witnesses_ok = True
    for trial in range(n_pairs):
        label = ClassLabel(*rng.choice(EXPECTED_LABELS))
        rep = classify.representative(label)
        gen = rep if classify.order_of_label(label) == 57 else mat_scale(2, rep)
        base = _conj(_random_sl3(rng), gen)
        length = rng.randint(1, 4)
        exps = [rng.choice(valid_exps) for _ in range(length)]
        t1 = tuple(mat_pow(base, e) for e in exps)
        h = _random_sl3(rng)
        if trial % 2 == 0:
            t2 = tuple(_conj(h, m) for m in t1)
        else:
            perturbed = list(exps)
            perturbed[rng.randrange(length)] = rng.choice(valid_exps)
            t2 = tuple(_conj(h, mat_pow(base, e)) for e in perturbed)

        verdict = simconj.decide_simconj(
            simconj.analyze_tuple(t1), simconj.analyze_tuple(t2)
        )
        oracle_witness = _oracle_simconj(t1, t2)
        if verdict.equivalent == (oracle_witness is not None):
            agreements += 1
        if verdict.equivalent:
            w = verdict.witness
            witnesses_ok = witnesses_ok and w is not None and all(
                _conj(w, a) == b for a, b in zip(t1, t2)
            )
    ok = agreements == n_pairs and witnesses_ok
    return ok, f"{agreements}/{n_pairs} oracle agreements; all witnesses verified exactly"


def check_subgroups(full: bool) -> tuple[bool, str]:
    direct = subgroups.parabolic_size()
    formula = subgroups.PARABOLIC_ORDER
    ok = direct == 98_784 == formula and GROUP_ORDER == direct * 57

    closure_note = "closure skipped (quick)"
    if full:
        t0 = time.perf_counter()
        closure = subgroups.generator_closure((subgroups.X, subgroups.Y, subgroups.Z))
        dt = time.perf_counter() - t0
        ok = ok and closure == GROUP_ORDER and dt <= 300.0
        budget = "within 300s budget" if dt <= 300.0 else f"OVER BUDGET: {dt:.1f}s"
        closure_note = f"closure({{X,Y,Z}})={closure}, {budget}"

    rng = random.Random(0x5717)
    samples = 1000 if full else 200
    reductions_ok = True
    for _ in range(samples):
        a = _random_sl3(rng)
        while subgroups.in_parabolic(a):
            a = _random_sl3(rng)
        reductions_ok = reductions_ok and subgroups.maximality_witness(a)
    ok = ok and reductions_ok
    return ok, f"parabolic={direct}; {closure_note}; {samples} reductions verified per target"


def check_psl_collapse(full: bool) -> tuple[bool, str]:
    orbits: dict[tuple[int, int], set] = {}
    for label in classify.eigenfree_labels():
        orbits.setdefault(tuple(classify.psl_label(label)), set()).add(tuple(label))
    ok = len(orbits) == 6 and all(len(v) == 3 for v in orbits.values())
    return ok, f"{len(orbits)} PSL classes, orbit sizes {sorted(len(v) for v in orbits.values())}"


@dataclass(frozen=True)
class Check:
    number: int
    name: str
    fn: Callable[[bool], tuple[bool, str]]


CHECKS: tuple[Check, ...] = (
    Check(1, "group-order", check_group_order),
    Check(2, "eigenfree-census", check_census),
    Check(3, "label-catalog", check_label_catalog),
    Check(4, "orders", check_orders),
    Check(5, "eigenvalue-orders", check_eigenvalue_orders),
    Check(6, "centralizer", check_centralizer),
    Check(7, "conjugacy-classes", check_conjugacy),
    Check(8, "power-table", check_power_table),
    Check(9, "power-bijections", check_power_bijections),
    Check(10, "sylow-19", check_sylow),
    Check(11, "normalizer", check_normalizer),
    Check(12, "order-absence", check_order_absence),
    Check(13, "commuting-representatives", check_commuting_reps),
    Check(14, "simultaneous-conjugacy", check_simconj),
    Check(15, "subgroups", check_subgroups),
    Check(16, "psl-collapse", check_psl_collapse),
)


def run_suite(suite: str = "quick", *, only: str | None = None) -> bool:
    """Run the selected suite, printing one pass/fail line per check.

    The stdout report is deterministic (byte-identical on every run); each
    check's wall-clock time and group walks (scan.WALKS) go to stderr.  A
    check that raises is a FAIL line naming the exception, and the checks
    after it still run.  A filter that no check name contains is a
    ValueError, not an empty pass.
    """
    if suite not in ("quick", "full"):
        raise ValueError(f"suite must be quick or full, got {suite!r}")
    checks = [c for c in CHECKS if not only or only in c.name]
    if not checks:
        raise ValueError(f"no check name contains {only!r}")
    full = suite == "full"
    failures = []
    for check in checks:
        walked = scan.WALKS.copy()
        t0 = time.perf_counter()
        try:
            ok, detail = check.fn(full)
        except Exception as exc:  # a wrong count can break a check's own arithmetic
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"[{check.number:2d}/16] {check.name:<26s} {status}  {detail}")
        walks, ranks = scan.WALKS - walked
        print(f"        {check.name}: {dt:.1f}s, walks {walks} over {ranks / GROUP_ORDER:.2f} |G|",
              file=sys.stderr)
        if not ok:
            failures.append(check.name)
    if failures:
        print(f"FAILED: {', '.join(failures)}")
    return not failures
