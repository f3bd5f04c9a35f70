"""Fast tests of the benchmark's own arithmetic; no group scan runs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import f7  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_nearest_rank_and_samples_beyond():
    assert stats.rank(100, 0.9) == 90
    assert stats.beyond(100, 0.9) == 10
    assert stats.beyond(21, 0.5) == 10
    assert stats.beyond(20, 0.5) == 10
    assert stats.beyond(19, 0.5) == 9


def test_query_stream_leaves_ten_samples_beyond_the_median():
    query_samples = workloads.QUERY_SUBJECTS * 8
    assert stats.beyond(query_samples, 0.5) >= stats.MIN_BEYOND


def test_rank_rejects_empty_input():
    with pytest.raises(ValueError):
        stats.rank(0, 0.5)


# -- spans -------------------------------------------------------------------

# (id, name, start, end, parent): class_size wraps a centralizer that scans,
# a second centralizer is answered without a scan, and decide_simconj calls
# class_label twice with overlapping child intervals clipped to the parent.
SPANS = [
    (0, "scan.class_size", 0.0, 10.0, None),
    (1, "scan.centralizer", 1.0, 9.0, 0),
    (2, "scan.intertwiner_codes", 2.0, 8.0, 1),
    (3, "scan.centralizer", 11.0, 11.5, None),
    (4, "simconj.decide_simconj", 20.0, 24.0, None),
    (5, "classify.class_label", 20.5, 21.5, 4),
    (6, "classify.class_label", 21.0, 22.0, 4),
]


def test_self_time_subtracts_covered_child_time():
    self_s = tracing.self_seconds(SPANS)
    # class_size 10-8, centralizer 8-6 and 0.5, intertwiner 6
    assert self_s["scan"] == pytest.approx(2 + 2 + 0.5 + 6)
    # children cover [20.5, 22.0]: 1.5 of the 4 seconds
    assert self_s["simconj"] == pytest.approx(2.5)
    assert self_s["classify"] == pytest.approx(2.0)


def test_self_times_add_up_to_top_level_time():
    top = sum(s[3] - s[2] for s in SPANS if s[4] is None)
    overlap = 0.5  # the two class_label spans overlap by half a second
    assert sum(tracing.self_seconds(SPANS).values()) == pytest.approx(top + overlap)


def test_totals_count_outermost_calls_only():
    nested = SPANS + [(7, "scan.class_size", 3.0, 4.0, 2)]
    assert tracing.total_seconds(nested, "scan.class_size") == pytest.approx(10.0)
    assert tracing.calls(nested, "scan.class_size") == 2
    assert tracing.total_seconds(SPANS, "scan.census") == 0.0


def test_no_scan_ratio():
    assert tracing.no_scan_ratio(SPANS) == pytest.approx(0.5)
    assert tracing.no_scan_ratio(SPANS[3:]) == 1.0
    assert tracing.no_scan_ratio([]) == 0.0


def test_tracer_records_parents_and_every_binding():
    import types

    mod = types.ModuleType("pkg.scan")
    alias = types.ModuleType("pkg.simconj")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    for fn in (inner, outer):
        fn.__module__ = "pkg.scan"
        setattr(mod, fn.__name__, fn)
    alias.inner = inner
    sys.modules.update({"pkg": types.ModuleType("pkg"), "pkg.scan": mod, "pkg.simconj": alias})
    try:
        tracer = tracing.Tracer()
        assert tracing.install(tracer, package="pkg") == 3
        assert mod.outer(1) == 4 and alias.inner(1) == 2
    finally:
        for name in ("pkg", "pkg.scan", "pkg.simconj"):
            del sys.modules[name]
    names = [(s[1], s[4]) for s in tracer.spans]
    outer_id = next(s[0] for s in tracer.spans if s[1] == "scan.outer")
    assert names == [("scan.inner", outer_id), ("scan.outer", None), ("scan.inner", None)]
    assert len(tracer.costs) == 4 and all(c >= 0 for c in tracer.costs)


# -- failure accounting --------------------------------------------------------

def test_fail_share():
    assert stats.fail_share(0, 21) == 0.0
    assert stats.fail_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.fail_share(1, 0)
    with pytest.raises(ValueError):
        stats.fail_share(5, 4)


def test_gate_counts_wrong_raised_and_bad_exit_once_each():
    inputs = workloads.make_inputs("queries", 7)
    invocations = inputs["invocations"][:12]
    assert [inv["kind"] for inv in invocations] == list(run.CLI_KINDS)
    ops = []
    for inv in invocations:
        ops.append({"name": inv["kind"], "code": inv["code"], "stdout": "", "stderr": ""})
    ops[7] = {"name": "parabolic", "code": 0,
              "stdout": json.dumps({"size": f7.CLASS_SIZE, "index": 57}), "stderr": ""}
    ops[9]["stderr"] = "error: bad entry"
    ops[10]["stderr"] = "Traceback (most recent call last):"
    ops[11]["code"] = 1
    failures = run.gate("queries", {"invocations": invocations}, {"ops": [], "cli_ops": ops})
    # eight successful exits with empty stdout, one traceback, one wrong
    # exit code; parabolic and the well-reported malformed input pass
    assert len(failures) == 10
    assert sum("traceback" in f for f in failures) == 1
    assert sum("exit 1" in f for f in failures) == 1
    raised = run.gate("queries", workloads.make_inputs("queries", 7),
                      {"ops": [{"name": "0:class_size", "seconds": 1.0, "error": "Boom"}]})
    assert raised == ["0:class_size: raised Boom"]
    assert run.attempted_ops({"ops": [{}] * 32, "cli_ops": ops}) == 44


# -- inputs and the answer gate ----------------------------------------------

def test_inputs_depend_only_on_the_seed():
    for workload in workloads.THREADS:
        assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
        assert workloads.make_inputs(workload, 3) != workloads.make_inputs(workload, 4)


def test_labels_and_representatives_match_the_paper():
    assert len(f7.EIGENFREE_LABELS) == 18
    assert (1, 6) not in f7.EIGENFREE_LABELS
    reps = f7.representatives()
    assert set(reps) == set(f7.EIGENFREE_LABELS)
    orders = {lab: f7.order(m) for lab, m in reps.items()}
    assert {lab for lab, o in orders.items() if o == 19} == {
        (0, 2), (1, 3), (2, 0), (3, 1), (3, 4), (4, 3)}
    assert set(orders.values()) == {19, 57}


def test_query_tuples_are_built_as_claimed():
    for subj in workloads.make_inputs("queries", 11)["subjects"]:
        a, k = tuple(subj["a"]), tuple(subj["k"])
        assert not f7.has_eigenvalue(a) and f7.conj(k, a) == tuple(subj["b"])
        assert f7.order(tuple(subj["p"])) == 19
        t1 = [tuple(m) for m in subj["t1"]]
        t2 = [tuple(m) for m in subj["t2"]]
        moved = [f7.conj(k, m) == n for m, n in zip(t1, t2)]
        # negatives differ from the conjugated tuple exactly at member 1
        assert moved == ([True] * 3 if subj["positive"] else [True, False, True])


def test_sweep_gate_accepts_the_paper_and_rejects_a_wrong_count():
    inputs = workloads.make_inputs("sweep", 5)
    assert workloads.check_sweep(inputs, "count_sl3", f7.GROUP_ORDER, {}) is None
    assert workloads.check_sweep(inputs, "count_sl3", f7.GROUP_ORDER - 1, {})
    assert workloads.check_sweep(inputs, "order_absence_check.3", False, {}) is None
    assert workloads.check_sweep(inputs, "order_absence_check.9", False, {})
    assert workloads.check_sweep(inputs, "generator_closure.parabolic", f7.CLASS_SIZE, {}) is None
    member = f7.encode(tuple(inputs["subject"]))
    orbit = {"size": f7.CLASS_SIZE, "sample": [member]}
    assert workloads.check_sweep(inputs, "orbit_oracle", orbit, {}) is None
    orbit["sample"] = [f7.encode(f7.IDENTITY)]
    assert workloads.check_sweep(inputs, "orbit_oracle", orbit, {})


def test_query_gate_verifies_witnesses_exactly():
    subj = workloads.make_inputs("queries", 5)["subjects"][0]
    assert workloads.check_query(subj, "find_conjugator", subj["k"]) is None
    assert workloads.check_query(subj, "find_conjugator", list(f7.IDENTITY))
    assert workloads.check_query(subj, "find_conjugator", None)
    back = list(f7.inv(tuple(subj["k"])))
    assert workloads.check_query(subj, "find_conjugator.back", back) is None
    assert workloads.check_query(subj, "find_conjugator.back", subj["k"])
    witness = {"equivalent": True, "witness": subj["k"]}
    assert workloads.check_query(subj, "decide_simconj", witness) is None
    witness["witness"] = list(f7.IDENTITY)
    assert workloads.check_query(subj, "decide_simconj", witness)
    assert workloads.check_query(subj, "normalizer_of_cyclic", f7.NORMALIZER_SIZE) is None
    assert workloads.check_query(subj, "class_size", f7.CLASS_SIZE + 1)


# -- the benchmark definition --------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.THREADS)
