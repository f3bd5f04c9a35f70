"""The sl3f7 benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload {sweep,queries} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The inputs come from the seed and are made
before any timing.  Each pass of the workload runs in a fresh process
(perfbench/worker.py) against the sources under src/; passes repeat until
--seconds of measuring have elapsed (every workload's single pass already
takes longer than the default).  Every answer goes through the gate in
workloads.py.  With --trace 0 the last line of stdout carries the
end-to-end metrics; with --trace 1 one traced pass runs and the last line
carries the per-layer metrics (the traced `queries` pass also runs fresh
`sl3f7` processes for the cli layer).  The line before it is a full
report: seed, machine facts, fail_share and every metric computed.  Spans
and reports are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracing
import workloads
from f7 import GROUP_ORDER

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
PASS_TIMEOUT = 170
PROBE = ("import json, time; t = time.perf_counter(); import sl3f7, numpy; "
         "print(json.dumps({'import_s': time.perf_counter() - t, "
         "'file': sl3f7.__file__, 'numpy': numpy.__version__}), flush=True)")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms"}
CLI_KINDS = ("classify", "classify-json", "labels", "power-table", "reduce-Y", "reduce-Z",
             "commuting-reps", "parabolic", "simconj", "error-malformed", "error-det",
             "error-noncommuting")
RATE_LAYERS = ("scan.count_sl3", "scan.census", "scan.count_order19_elements",
               "scan.order_absence_check", "scan.label_member_codes", "scan.orbit_oracle",
               "subgroups.generator_closure")
SECONDS_LAYERS = ("subgroups.generator_closure", "scan.centralizer", "scan.normalizer_of_cyclic",
                  "scan.class_size", "simconj.find_conjugator", "simconj.decide_simconj",
                  "simconj.analyze_tuple", "classify.class_label")
PER_LAYER = {
    **{f"{name}.elems_per_s": "1/s" for name in RATE_LAYERS},
    "scan.orbit_oracle.peak_alloc_mb": "MB",
    "subgroups.generator_closure.peak_alloc_mb": "MB",
    "scan.census.speedup_2t": "ratio",
    **{f"{name}.s": "s" for name in SECONDS_LAYERS},
    "scan.intertwiner_codes.calls": "count",
    "classify.class_label.calls": "count",
    "scan.centralizer.no_scan_ratio": "ratio",
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    **{f"cli.{kind}.p50_ms": "ms" for kind in CLI_KINDS},
    **{f"{layer}.self_s": "s" for layer in ("scan", "subgroups", "simconj", "classify")},
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env(threads: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), SL3F7_THREADS=str(threads),
                PYTHONDONTWRITEBYTECODE="1")


def setup_probes(env: dict) -> list[dict]:
    """Fresh interpreters up to a ready `import sl3f7`, timed from the spawn."""
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0 or not line:
            raise BenchError(f"cannot import sl3f7 from {ROOT / 'src'}:\n{err}")
        doc = json.loads(line)
        if not Path(doc["file"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"sl3f7 was imported from {doc['file']}, not from {ROOT / 'src'}")
        probes.append({"setup_s": ready, **doc})
    return probes


def run_pass(workload: str, inputs: dict, trace: bool, env: dict, tmp: Path) -> dict:
    job = {"workload": workload, "inputs": inputs, "trace": trace,
           "root": str(ROOT), "tmp": str(tmp)}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def gate(workload: str, inputs: dict, result: dict) -> list[str]:
    """Checks every operation of one pass; returns one reason per failed operation."""
    failures = []
    ops = result["ops"] + result.get("extra_ops", [])
    answers = {op["name"]: op.get("answer") for op in ops}
    for op in ops:
        if "error" in op:
            failures.append(f"{op['name']}: raised {op['error']}")
            continue
        if workload == "sweep":
            reason = workloads.check_sweep(inputs, op["name"], op["answer"], answers)
        else:
            s, name = op["name"].split(":", 1)
            reason = workloads.check_query(inputs["subjects"][int(s)], name, op["answer"])
        if reason:
            failures.append(reason)
    for inv, op in zip(inputs.get("invocations", []), result.get("cli_ops", [])):
        reason = workloads.check_cli(inv, op["code"], op["stdout"], op["stderr"])
        if reason:
            failures.append(reason)
    return failures


def attempted_ops(result: dict) -> int:
    return sum(len(result.get(key, [])) for key in ("ops", "extra_ops", "cli_ops"))


def end_to_end(passes: list[dict], probes: list[dict]) -> dict:
    latencies = [op["seconds"] * 1e3 for p in passes for op in p["ops"]]
    return {
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "setup_s": statistics.median([p["setup_s"] for p in probes]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": statistics.median(latencies),
    }


def per_layer(traced: dict, probes: list[dict]) -> dict:
    spans = [tuple(s) for s in traced["spans"]]
    out = {}
    for name in RATE_LAYERS:
        seconds = tracing.total_seconds(spans, name)
        out[f"{name}.elems_per_s"] = (
            GROUP_ORDER * tracing.calls(spans, name) / seconds if seconds else 0.0)
    peaks = traced.get("alloc_peak_mb", {})
    out["scan.orbit_oracle.peak_alloc_mb"] = peaks.get("orbit_oracle", 0.0)
    out["subgroups.generator_closure.peak_alloc_mb"] = peaks.get("generator_closure", 0.0)
    op_seconds = {op["name"]: op["seconds"] for op in traced["ops"] + traced.get("extra_ops", [])}
    out["scan.census.speedup_2t"] = (
        op_seconds["census.1t"] / op_seconds["census"] if "census.1t" in op_seconds else 0.0)
    for name in SECONDS_LAYERS:
        out[f"{name}.s"] = tracing.total_seconds(spans, name)
    out["scan.intertwiner_codes.calls"] = tracing.calls(spans, "scan.intertwiner_codes")
    out["classify.class_label.calls"] = tracing.calls(spans, "classify.class_label")
    out["scan.centralizer.no_scan_ratio"] = tracing.no_scan_ratio(spans)
    imports = [p["import_s"] for p in probes]
    out["cli.import_s"] = statistics.median(imports)
    out["cli.interp_start_s"] = statistics.median([p["setup_s"] - p["import_s"] for p in probes])
    for kind in CLI_KINDS:
        samples = [op["seconds"] * 1e3 for op in traced.get("cli_ops", []) if op["name"] == kind]
        out[f"cli.{kind}.p50_ms"] = statistics.median(samples) if samples else 0.0
    self_s = tracing.self_seconds(spans)
    for layer in ("scan", "subgroups", "simconj", "classify"):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["trace.overhead_s"] = traced["trace_cost_s"]
    return out


def machine_facts(threads: int, load: float, probes: list[dict]) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": probes[0]["numpy"], "threads": threads,
            "loadavg_1m_at_start": load, "platform": platform.platform()}


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "sl3f7" / "__init__.py").is_file():
        raise BenchError(f"no sl3f7 sources under {ROOT / 'src'}")
    load = os.getloadavg()[0]
    threads = workloads.THREADS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)
    env = _env(threads)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        probes = setup_probes(env)
        passes, failures = [], []
        begin = time.perf_counter()
        while not passes or (not args.trace and time.perf_counter() - begin < args.seconds):
            passes.append(run_pass(args.workload, inputs, bool(args.trace), env, tmp))
            failures += gate(args.workload, inputs, passes[-1])
        metrics = end_to_end(passes, probes)
        attempted = sum(attempted_ops(p) for p in passes)
        if args.trace:
            metrics.update(per_layer(passes[0], probes))
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(passes[0]["spans"]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(passes),
              "machine": machine_facts(threads, load, probes),
              "samples": attempted, "failed": len(failures),
              "fail_share": stats.fail_share(len(failures), attempted),
              "failures": failures[:20], "metrics": metrics,
              "latencies_ms": [[op["name"], op["seconds"] * 1e3] for op in passes[0]["ops"]]}
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()}}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
