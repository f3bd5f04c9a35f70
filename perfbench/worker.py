"""Runs one workload pass in a fresh process.

Reads a job (workload, inputs, root, trace) as JSON on stdin and writes
one JSON document on stdout: per-operation seconds and answers, the pass's
wall time and peak RSS, and, when traced, the spans.  Answers are reduced
to plain JSON outside the timed region; the parent checks them.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

CLI_TIMEOUT = 120


def _run_ops(ops):
    """ops: (name, call, summarize).  Returns per-op records and their total
    seconds; reducing an answer to JSON is not timed."""
    records = []
    for name, call, summarize in ops:
        t0 = time.perf_counter()
        try:
            raw = call()
            seconds = time.perf_counter() - t0
            records.append({"name": name, "seconds": seconds, "answer": summarize(raw)})
        except Exception as exc:  # a raising operation is a failed answer, not a crash
            records.append({"name": name, "seconds": time.perf_counter() - t0,
                            "error": f"{type(exc).__name__}: {exc}"})
    return records, sum(r["seconds"] for r in records)


def _with_alloc_peak(call, peaks: dict, key: str, tracer):
    """Run call; when traced, record its tracemalloc peak in MB under key.

    The time spent starting and stopping tracemalloc counts as tracer cost;
    the slower allocations while it runs are not separated out.
    """
    if tracer is None:
        return call

    def run():
        t0 = time.perf_counter()
        tracemalloc.start()
        t1 = time.perf_counter()
        try:
            return call()
        finally:
            t2 = time.perf_counter()
            peaks[key] = max(peaks.get(key, 0.0), tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
            tracer.costs.append(t1 - t0 + time.perf_counter() - t2)

    return run


def _census_json(s):
    return {k: v for k, v in s.to_json().items() if k not in ("schema", "kind")}


def sweep(job, tracer):
    import sl3f7
    from sl3f7 import scan, subgroups

    inputs = job["inputs"]
    a, label = tuple(inputs["subject"]), sl3f7.ClassLabel(*inputs["label"])
    peaks: dict[str, float] = {}
    held = {}

    def orbit():
        held["orbit"] = scan.orbit_oracle(a)
        return held["orbit"]

    def orbit_summary(codes):
        ordered = sorted(codes)
        return {"size": len(ordered), "sample": ordered[::max(1, len(ordered) // 64)]}

    def label_summary(codes):
        return {"size": int(codes.size),
                "equal_to_orbit": set(codes.tolist()) == held.get("orbit")}

    ops = [
        ("count_sl3", lambda: scan.count_sl3(), int),
        ("census", lambda: scan.census(), _census_json),
        ("count_order19_elements", lambda: scan.count_order19_elements(), int),
        *[(f"order_absence_check.{n}", lambda n=n: scan.order_absence_check(n), bool)
          for n in (3, 9, 27)],
        ("orbit_oracle", _with_alloc_peak(orbit, peaks, "orbit_oracle", tracer), orbit_summary),
        ("label_member_codes", lambda: scan.label_member_codes(label), label_summary),
        ("generator_closure.xyz", _with_alloc_peak(
            lambda: subgroups.generator_closure((subgroups.X, subgroups.Y, subgroups.Z)),
            peaks, "generator_closure", tracer), int),
        ("generator_closure.parabolic", _with_alloc_peak(
            lambda: subgroups.generator_closure(subgroups.PARABOLIC_GENERATORS),
            peaks, "generator_closure", tracer), int),
    ]
    records, wall = _run_ops(ops)
    out = {"ops": records, "wall_s": wall, "alloc_peak_mb": peaks}
    if tracer is not None:
        # census at 1 thread, outside the spans and the wall time: the
        # thread-scaling reference, whose answer must equal the 2-thread one
        tracer.enabled = False
        extra, _ = _run_ops([("census.1t", lambda: scan.census(threads=1), _census_json)])
        tracer.enabled = True
        out["extra_ops"] = extra
    return out


def _commuting_json(t):
    return {"kind": type(t).__name__, "base": getattr(t, "base", None),
            "exponents": getattr(t, "exponents", None)}


def queries(job, tracer):
    from sl3f7 import scan, simconj

    ops = []
    for s, subj in enumerate(job["inputs"]["subjects"]):
        a, b, p = tuple(subj["a"]), tuple(subj["b"]), tuple(subj["p"])
        t1, t2 = tuple(map(tuple, subj["t1"])), tuple(map(tuple, subj["t2"]))
        held = {}

        def analyze(key, t, held=held):
            held[key] = simconj.analyze_tuple(t)
            return held[key]

        ops += [
            (f"{s}:centralizer", lambda a=a: scan.centralizer(a),
             lambda r: {"size": r.size, "is_cyclic": r.is_cyclic, "generator": r.generator}),
            (f"{s}:class_size", lambda a=a: scan.class_size(a), int),
            (f"{s}:find_conjugator", lambda a=a, b=b: simconj.find_conjugator(a, b), lambda g: g),
            (f"{s}:find_conjugator.back", lambda a=a, b=b: simconj.find_conjugator(b, a),
             lambda g: g),
            (f"{s}:analyze_tuple.1", lambda t1=t1, held=held: analyze(1, t1, held), _commuting_json),
            (f"{s}:analyze_tuple.2", lambda t2=t2, held=held: analyze(2, t2, held), _commuting_json),
            (f"{s}:decide_simconj", lambda held=held: simconj.decide_simconj(held[1], held[2]),
             lambda v: {"equivalent": v.equivalent, "witness": v.witness}),
            (f"{s}:normalizer_of_cyclic", lambda p=p: scan.normalizer_of_cyclic(p), int),
        ]
    records, wall = _run_ops(ops)
    out = {"ops": records, "wall_s": wall}
    if tracer is not None:
        out.update(cli_invocations(job))
        out["spans"] = _merge_spans(tracer.spans, out.pop("cli_spans"))
        out["trace_cost_s"] = sum(tracer.costs) + out.pop("cli_trace_cost_s")
    return out


def cli_invocations(job):
    """Fresh traced `sl3f7` processes, one after another; latency seen from here."""
    root, tmp = Path(job["root"]), Path(job["tmp"])
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    records, spans, cost = [], [], 0.0
    for n, inv in enumerate(job["inputs"]["invocations"]):
        for name, text in inv.get("files", {}).items():
            (tmp / name).write_text(text)
        path = tmp / f"spans-{n}.json"
        env["PERFBENCH_SPANS"] = str(path)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(root / "perfbench" / "clitrace.py"),
                               *inv["args"]], cwd=tmp, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT)
        records.append({"name": inv["kind"], "seconds": time.perf_counter() - t0,
                        "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})
        if path.exists():  # not when sl3f7.cli failed to import; the gate sees the traceback
            doc = json.loads(path.read_text())
            path.unlink()
            cost += doc["cost_s"]
            spans = _merge_spans(spans, doc["spans"])
    return {"cli_ops": records, "cli_spans": spans, "cli_trace_cost_s": cost}


def _merge_spans(spans, more):
    """Appends the spans of another process; ids restart in every process,
    so the new ones are shifted to stay unique."""
    offset = 1 + max((s[0] for s in spans), default=-1)
    return list(spans) + [(i + offset, name, t0, t1, None if p is None else p + offset)
                          for i, name, t0, t1, p in more]


RUNNERS = {"sweep": sweep, "queries": queries}


def main() -> None:
    job = json.load(sys.stdin)
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer is not None:
        import sl3f7  # noqa: F401  (load the layers before wrapping them)
        tracing.install(tracer)
    out = RUNNERS[job["workload"]](job, tracer)
    if "peak_rss_mb" not in out:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and "spans" not in out:
        out["spans"], out["trace_cost_s"] = tracer.spans, sum(tracer.costs)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
