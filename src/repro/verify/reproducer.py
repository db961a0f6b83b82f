"""Replayable reproducer files for minimized failing schedules.

A reproducer is a small JSON document carrying everything a later
process needs to re-trigger a violation exactly: the scheme spec, the
machine geometry, the harness seed and audit cadence, the minimized
step list (accesses and pinned fault pseudo-steps), and the violation
the original run observed. ``python -m repro verify --replay FILE``
re-runs it and reports whether the violation still fires.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.errors import TraceError
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec, TinySpec
from repro.verify.harness import DEFAULT_VERIFY_AUDIT_INTERVAL, run_schedule
from repro.verify.steps import step_from_dict, step_to_dict

REPRODUCER_VERSION = 1

#: Scheme name -> spec class, for round-tripping specs through JSON.
SCHEME_SPECS = {
    "sparse": SparseSpec,
    "in_llc": InLLCSpec,
    "tiny": TinySpec,
    "mgd": MgdSpec,
    "stash": StashSpec,
}


def default_verify_spec(scheme: str):
    """The spec verification runs a scheme under by default.

    Mostly the paper defaults, nudged where the default would leave
    tracking machinery idle at verification scale: the tiny directory
    runs with spilling on (spill/recall is half its state machine), and
    the sparse directory is shrunk from the conservative 2x-LLC sizing
    so directory evictions and back-invalidations are actually
    reachable.
    """
    if scheme == "tiny":
        return TinySpec(spill=True)
    if scheme == "sparse":
        return SparseSpec(ratio=0.125)
    cls = SCHEME_SPECS.get(scheme)
    if cls is None:
        raise TraceError(f"unknown scheme {scheme!r}")
    return cls()


def spec_to_dict(spec) -> dict:
    payload = dataclasses.asdict(spec)
    payload.pop("name", None)  # frozen init=False field
    return payload


def spec_from_dict(scheme: str, payload: dict):
    cls = SCHEME_SPECS.get(scheme)
    if cls is None:
        raise TraceError(f"unknown scheme {scheme!r} in reproducer")
    return cls(**payload)


def reproducer_dict(
    scheme: str,
    spec,
    steps,
    violation: str,
    *,
    seed: int = 0,
    num_cores: int = 4,
    l1_kb: int = 1,
    l2_kb: int = 4,
    audit_interval: int = DEFAULT_VERIFY_AUDIT_INTERVAL,
) -> dict:
    return {
        "format_version": REPRODUCER_VERSION,
        "scheme": scheme,
        "spec": spec_to_dict(spec),
        "geometry": {"num_cores": num_cores, "l1_kb": l1_kb, "l2_kb": l2_kb},
        "seed": seed,
        "audit_interval": audit_interval,
        "steps": [step_to_dict(step) for step in steps],
        "violation": violation,
    }


def save_reproducer(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_reproducer(path) -> dict:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise TraceError(f"cannot read reproducer {path}: {err}") from None
    version = payload.get("format_version")
    if version != REPRODUCER_VERSION:
        raise TraceError(
            f"reproducer {path} has format_version {version!r}; "
            f"this build reads version {REPRODUCER_VERSION}"
        )
    for key in ("scheme", "spec", "geometry", "steps"):
        if key not in payload:
            raise TraceError(f"reproducer {path} is missing {key!r}")
    return payload


def replay(payload: dict, trace_out: "str | None" = None):
    """Re-run a loaded reproducer; returns the :class:`ScheduleResult`.

    With ``trace_out``, the run appends its JSONL event trace there.
    """
    spec = spec_from_dict(payload["scheme"], dict(payload["spec"]))
    geometry = payload["geometry"]
    steps = [step_from_dict(entry) for entry in payload["steps"]]
    return run_schedule(
        steps,
        spec=spec,
        num_cores=int(geometry.get("num_cores", 4)),
        l1_kb=int(geometry.get("l1_kb", 1)),
        l2_kb=int(geometry.get("l2_kb", 4)),
        seed=int(payload.get("seed", 0)),
        audit_interval=int(
            payload.get("audit_interval", DEFAULT_VERIFY_AUDIT_INTERVAL)
        ),
        oracle=True,
        trace_out=trace_out,
    )
