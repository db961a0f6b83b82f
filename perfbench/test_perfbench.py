"""Self-tests of the benchmark (not of the simulator).

Run from the root of a checkout: ``python3 -m pytest perfbench -q``
(about two minutes; each workload runs once end to end).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import LayerTracer, unpatched, wrap_targets  # noqa: E402
from suite import DEFAULT_SEED, WORKLOADS, calibrate, simulate_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Short traces keep the in-process passes quick; counts still repeat.
SHORT = 3_000


def short_pass(traced: bool) -> dict:
    calib = calibrate()
    return simulate_pass(
        WORKLOADS["shared"], DEFAULT_SEED, traced, time.perf_counter(), calib, accesses=SHORT
    )


def digests(record: dict) -> dict:
    return {point["label"]: point["digest"] for point in record["points"]}


def test_traced_calls_and_work_counts_repeat():
    first, second = short_pass(traced=True), short_pass(traced=True)
    assert {n: v["calls"] for n, v in first["layers"].items()} == {
        n: v["calls"] for n, v in second["layers"].items()
    }
    assert [p["counts"] for p in first["points"]] == [p["counts"] for p in second["points"]]
    assert first["layers"]["coherence"]["calls"] > 0


def test_no_wrapper_survives_a_traced_pass():
    before = {(owner, name): vars(owner)[name] for _, owner, name in wrap_targets()}
    traced = short_pass(traced=True)
    after = {(owner, name): vars(owner)[name] for _, owner, name in wrap_targets()}
    assert all(after[key] is original for key, original in before.items())
    assert traced["unpatched"] and unpatched()
    assert digests(short_pass(traced=False)) == digests(traced)


def test_wrappers_are_removed_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert not unpatched()
            raise RuntimeError("boom")
    assert unpatched()


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def run_benchmark(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_emits_every_declared_end_to_end_metric(workload):
    result = run_benchmark(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_declared_per_layer_metric():
    result = run_benchmark("private-hit", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
