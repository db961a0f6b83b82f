"""Tests for reproducer JSON round-trips."""

import json

import pytest

from repro.errors import TraceError
from repro.sim.config import SparseSpec, TinySpec
from repro.verify import (
    FaultStep,
    R,
    W,
    fault_plan_for,
    fuzz_run,
    load_reproducer,
    replay,
    reproducer_dict,
    save_reproducer,
)
from repro.verify.reproducer import spec_from_dict, spec_to_dict


class TestReproducerIO:
    """Round-trips of minimized-reproducer JSON (repro.verify)."""

    def _payload(self, **overrides):
        steps = [W(0, 5), FaultStep("drop_private_copy", 5, 0), R(1, 5)]
        kwargs = dict(seed=3)
        kwargs.update(overrides)
        return reproducer_dict(
            "sparse", SparseSpec(ratio=0.125), steps, "violation text", **kwargs
        )

    def test_minimized_fuzz_reproducer_roundtrips(self, tmp_path):
        """The file the fuzzer writes for a real shrunk failure loads
        back and still reproduces the violation."""
        plan = fault_plan_for("sparse", 7, 0)
        result = fuzz_run("sparse", SparseSpec(ratio=0.125), steps=1200, seed=8, plan=plan)
        assert result.detected
        payload = reproducer_dict(
            "sparse",
            SparseSpec(ratio=0.125),
            result.reproducer,
            result.violation,
            seed=8,
            num_cores=16,
            l1_kb=8,
            l2_kb=32,
        )
        path = save_reproducer(tmp_path / "shrunk.json", payload)
        loaded = load_reproducer(path)
        assert replay(loaded).failed

    def test_file_is_stable_plain_json(self, tmp_path):
        """Reproducers are sorted-key, indented JSON — diffable and
        byte-stable across save/load/save."""
        path = save_reproducer(tmp_path / "r.json", self._payload())
        text = path.read_text()
        loaded = load_reproducer(path)
        again = save_reproducer(tmp_path / "r2.json", loaded)
        assert again.read_text() == text

    def test_spec_roundtrip_preserves_tuning(self):
        spec = TinySpec(ratio=1 / 32, policy="gnru", spill=True, spill_window=32)
        restored = spec_from_dict("tiny", spec_to_dict(spec))
        assert restored == spec

    def test_spec_unknown_scheme_rejected(self):
        with pytest.raises(TraceError):
            spec_from_dict("bogus", {})

    def test_missing_key_rejected(self, tmp_path):
        for key in ("scheme", "spec", "geometry", "steps"):
            payload = self._payload()
            del payload[key]
            path = tmp_path / f"missing-{key}.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(TraceError):
                load_reproducer(path)

    def test_fault_step_survives_roundtrip(self, tmp_path):
        path = save_reproducer(tmp_path / "r.json", self._payload())
        steps = load_reproducer(path)["steps"]
        fault = steps[1]
        assert fault["type"] == "fault"
        assert fault["kind"] == "drop_private_copy"
        assert fault["addr"] == 5

    def test_geometry_defaults_applied_on_replay(self, tmp_path):
        """Geometry keys omitted from older files fall back to the
        4-core litmus machine instead of crashing the replay."""
        payload = self._payload()
        payload["geometry"] = {}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        result = replay(load_reproducer(path))
        assert result.failed

    def test_clean_schedule_replays_clean(self, tmp_path):
        steps = [W(0, 5), R(1, 5), R(2, 5)]
        payload = reproducer_dict("sparse", SparseSpec(), steps, "", seed=1)
        path = save_reproducer(tmp_path / "clean.json", payload)
        result = replay(load_reproducer(path))
        assert result.violation is None
        assert result.executed == len(steps)
