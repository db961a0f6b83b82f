"""Cross-scheme golden statistics snapshots.

Every (app, scheme) cell runs at quick scale and its full statistics
dump is hashed against ``tests/snapshots/stats_quick.json``. Any
behavioural change to the protocol engines, the workload generator, or
the statistics pipeline shows up as a hash mismatch here — if the
change is intended, refresh the file with::

    python -m pytest tests/test_snapshots.py --update-snapshots

and commit the diff. Hashes (not raw dumps) keep the checked-in file
small while still pinning every counter bit-exactly.
"""

import enum
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.runner import RunScale, run_app
from repro.core.spill import SpillConfig
from repro.sim.config import (
    InLLCSpec,
    MgdSpec,
    SparseSpec,
    StashSpec,
    SystemConfig,
    TinySpec,
)
from repro.sim.stats import SimStats
from repro.sim.system import System

SNAPSHOT_PATH = Path(__file__).parent / "snapshots" / "stats_quick.json"

APPS = ("compress", "barnes")

SCHEMES = {
    "sparse": SparseSpec(),
    "in_llc": InLLCSpec(),
    "tiny": TinySpec(ratio=1 / 32, policy="gnru", spill=True),
    "mgd": MgdSpec(),
    "stash": StashSpec(),
    # Two sparse-family variants that share SparseHome's transaction path.
    "shared_only": SparseSpec(ratio=1 / 16, shared_only=True),
    "zcache": SparseSpec(ratio=1 / 16, zcache=True),
    # The variants the in-LLC home serves besides the two above: tag
    # extension, and fig13's two 1/256x tiny columns without spilling.
    "in_llc_tag": InLLCSpec(tag_extended=True),
    "tiny_dstra": RunScale.quick().tiny_spec(1 / 256, "dstra"),
    "tiny_gnru": RunScale.quick().tiny_spec(1 / 256, "gnru"),
}


def _fingerprint(result) -> str:
    payload = {"cycles": result.cycles, "stats": result.stats.dump()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _compute_grid() -> "dict[str, str]":
    scale = RunScale.quick()
    grid = {}
    for app in APPS:
        for name, spec in SCHEMES.items():
            grid[f"{app}/{name}"] = _fingerprint(run_app(app, spec, scale=scale))
    return grid


def test_quick_grid_matches_snapshot(update_snapshots):
    grid = _compute_grid()
    if update_snapshots:
        SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(json.dumps(grid, indent=2, sort_keys=True) + "\n")
        pytest.skip("snapshots updated")
    assert SNAPSHOT_PATH.exists(), (
        "missing golden snapshot; generate it with "
        "`python -m pytest tests/test_snapshots.py --update-snapshots`"
    )
    golden = json.loads(SNAPSHOT_PATH.read_text())
    assert set(grid) == set(golden), "snapshot grid shape changed"
    mismatched = [key for key in grid if grid[key] != golden[key]]
    assert mismatched == [], (
        f"statistics changed for {mismatched}; if intended, refresh with "
        "--update-snapshots"
    )


def test_snapshot_runs_are_deterministic():
    """The same cell computed twice yields the same fingerprint."""
    scale = RunScale.quick()
    first = _fingerprint(run_app("compress", SparseSpec(), scale=scale))
    second = _fingerprint(run_app("compress", SparseSpec(), scale=scale))
    assert first == second


# ----------------------------------------------------------------------
# No instance __dict__ in the per-access object graph
# ----------------------------------------------------------------------

#: Simulator objects that keep an instance ``__dict__``: ``SimStats``,
#: whose ``reset()`` re-runs ``__init__``, and the configuration
#: dataclasses, read when the system is built.
DICT_EXEMPT = (
    SimStats, SystemConfig, SpillConfig, SparseSpec, InLLCSpec, TinySpec, MgdSpec,
    StashSpec,
)


def _simulator_objects(system):
    """Every simulator object reachable from ``system``'s home: the
    banks, cores, DRAM, mesh, directories, tiny slices, estimators,
    spill policies and traffic meter, found through slots (and the
    attributes of the exempt objects), lists and dicts."""
    seen = set()
    todo = [system.home]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("repro.") and not isinstance(
            obj, enum.Enum
        ):
            yield obj
            for cls in type(obj).__mro__:
                for name in cls.__dict__.get("__slots__", ()):
                    if hasattr(obj, name):
                        todo.append(getattr(obj, name))
            if isinstance(obj, DICT_EXEMPT):
                todo.extend(vars(obj).values())


#: Classes each scheme's walk must reach, beyond every home's parts.
REACHED = {
    "sparse": {"SparseDirectory", "SetAssocArray"},
    "tiny": {"TinyDirectory", "_TinySlice", "GenerationEstimator", "DynamicSpillPolicy"},
    "mgd": {"MultiGrainDirectory"},
    "stash": {"SparseDirectory", "StashState"},
    "zcache": {"ZCacheDirectory"},
}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_per_access_objects_have_no_instance_dict(name):
    system = System(RunScale.quick().make_config(SCHEMES[name]))
    objects = list(_simulator_objects(system))
    reached = {type(obj).__name__ for obj in objects}
    expected = {"LLCBank", "PrivateCore", "DramModel", "Mesh2D", "TrafficMeter"}
    assert expected | REACHED.get(name, set()) <= reached
    with_dict = sorted(
        {
            type(obj).__name__
            for obj in objects
            if not isinstance(obj, DICT_EXEMPT) and hasattr(obj, "__dict__")
        }
    )
    assert with_dict == [], f"{name}: instance __dict__ on {with_dict}"
