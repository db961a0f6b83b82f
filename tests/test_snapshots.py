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

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.runner import RunScale, run_app
from repro.sim.config import InLLCSpec, MgdSpec, SparseSpec, StashSpec, TinySpec

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
