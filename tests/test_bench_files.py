"""The perf curve: every BENCH_<n>.json at the repository root records, for
each workload of BENCHMARK.json, the runs of the parent and of the change,
and for each metric its unit, median and quartiles."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_curve_has_a_point():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_metrics_are_the_benchmarks_and_medians_lie_within_their_quartiles(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["parent"] and doc["change"] and doc["host"]
    assert doc["workloads"] and set(doc["workloads"]) <= WORKLOADS
    for workload, sides in doc["workloads"].items():
        runs = len(sides["seeds"])
        assert runs > 0, workload
        for side in ("parent", "change"):
            assert sides[side], (workload, side)
            for name, stats in sides[side].items():
                where = (workload, side, name)
                assert UNITS.get(name) == stats["unit"], where
                assert stats["q1"] <= stats["median"] <= stats["q3"], where
                if "runs" in stats:
                    assert len(stats["runs"]) == runs, where
                    assert stats["median"] == pytest.approx(statistics.median(stats["runs"])), where
