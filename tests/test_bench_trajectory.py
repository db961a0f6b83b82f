"""The perf trajectory: root ``BENCH_<workload>.json`` files.

Each perf change appends one entry to the file of every workload it
measured (``repro.write_bench_point`` writes the file): its parent and
change commits, the seed, the number of alternating pairs, and the
parent and change medians of each end-to-end metric, plus traced
per-layer numbers where recorded. These tests keep the files readable
and in the benchmark's vocabulary: every file names a workload of
``BENCHMARK.json`` and every metric is one ``BENCHMARK.json`` declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_every_workload_has_a_trajectory():
    assert {path.name for path in BENCH_FILES} == {
        f"BENCH_{name}.json" for name in WORKLOADS
    }


def _check_metrics(metrics: dict, declared: "set[str]") -> None:
    assert metrics, "an entry records at least one metric"
    for name, value in metrics.items():
        assert name in declared, f"{name!r} is not declared in BENCHMARK.json"
        assert set(value) <= {"parent", "change", "parent_quartiles"}
        for side in ("parent", "change"):
            assert value[side] is None or isinstance(value[side], (int, float))
        quartiles = value.get("parent_quartiles")
        if quartiles is not None:
            low, high = quartiles
            assert low <= value["parent"] <= high


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_trajectory_file(path):
    payload = json.loads(path.read_text())
    assert payload["name"] in WORKLOADS
    assert path.name == f"BENCH_{payload['name']}.json"
    entries = payload["entries"]
    assert entries
    prs = [entry["pr"] for entry in entries]
    assert prs == sorted(set(prs)), "one entry per change, oldest first"
    for entry in entries:
        assert entry["parent"] and entry["change"]
        assert isinstance(entry["seed"], int)
        assert entry["pairs"] >= 1
        assert set(entry["end_to_end"]) == END_TO_END
        _check_metrics(entry["end_to_end"], END_TO_END)
        if "per_layer" in entry:
            _check_metrics(entry["per_layer"], PER_LAYER)
        for other in entry.get("other_seeds", ()):
            assert other["seed"] != entry["seed"] and other["pairs"] >= 1
            _check_metrics(other["end_to_end"], END_TO_END)
