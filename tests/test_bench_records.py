"""The committed performance trajectory: one ``BENCH_<workload>.json``
per workload of ``BENCHMARK.json``, at the repository root.

Each file holds the full ``perfbench/run.py`` record of one untraced
run (``trace0``: the end-to-end metrics) and one traced run
(``trace1``: the per-layer metrics) of its workload, so ``git log -p
BENCH_*.json`` reads as the benchmark's history.  This test pins the
schema those records must keep.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {
    "trace0": sorted(metric["name"] for metric in SPEC["end_to_end"]),
    "trace1": sorted(metric["name"] for metric in SPEC["per_layer"]),
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_bench_record_schema(workload):
    runs = json.loads((ROOT / ("BENCH_%s.json" % workload)).read_text())
    assert sorted(runs) == ["trace0", "trace1"]
    for trace, names in METRICS.items():
        record = runs[trace]
        meta = record["meta"]
        assert meta["workload"] == workload
        assert meta["trace"] == int(trace[-1])
        assert isinstance(meta["nproc"], int) and meta["nproc"] > 0
        assert re.fullmatch(r"\d+\.\d+\.\d+\S*", meta["python"])
        assert re.fullmatch(r"\d+\.\d+\S*", meta["numpy"])
        assert re.fullmatch(r"[0-9a-f]{40}", meta["git_sha"])
        result = record["result"]
        assert result["correct"] is True
        assert result["attempted"] > 0
        assert sorted(result["metrics"]) == names
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float)) and metric["unit"]
        assert record["values"], "the record keeps every computed value"
