"""Smoke test of the benchmark on the smallest instance of each workload.

Both modes must emit exactly the metrics ``BENCHMARK.json`` names, with their
units, and fail no query; the counts that later changes may quote as exact
must repeat between two traced runs with the same seed.
"""

import json
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smallest_instance(workload):
    run._import_library()
    traced_counts = []
    for trace, listed in ((False, "end_to_end"), (True, "per_layer"), (True, "per_layer")):
        metrics, detail, correct = run.measure(workload, 0, 0, trace, smallest=True)
        assert correct, detail["problems"]
        assert detail["failed_frac"] == 0
        assert {k: v["unit"] for k, v in metrics.items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[listed]
        }
        if trace:
            assert detail["counts_repeat"]
            traced_counts.append({k: metrics[k]["value"] for k in run.DETERMINISTIC_COUNTS})
    assert traced_counts[0] == traced_counts[1]
