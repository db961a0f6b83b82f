"""Golden replay over the committed scenario corpus.

Three layers of pinning on ``tests/corpus/*.rtrace``:

* **freshness** — every committed capture decodes to exactly the streams
  its scenario definition generates today (the fast in-process version
  of ``tools/rebuild_corpus.py --check``);
* **golden stats** — each scenario × scheme cell pins cycles, LLC
  misses, and invalidations in ``tests/snapshots/corpus_stats.json``;
  refresh intended changes with::

      python -m pytest tests/test_corpus_golden.py --update-snapshots

* **bit-identical replay** — streams read back with ``load_capture``
  publish byte-identical statistics to the live seeded run that
  recorded the trace, for every scheme, on the engine and on the
  per-access reference loop (``reference_engine.py``).
"""

import json
from pathlib import Path

import pytest

from reference_engine import reference_trace
from repro.sim.config import SystemConfig
from repro.sim.engine import run_trace
from repro.sim.system import System
from repro.verify.differential import ALL_SCHEMES
from repro.verify.reproducer import default_verify_spec
from repro.workloads.capture import load_capture
from repro.workloads.scenarios import SCENARIOS, scenario_streams

CORPUS_DIR = Path(__file__).parent / "corpus"
SNAPSHOT_PATH = Path(__file__).parent / "snapshots" / "corpus_stats.json"

#: The counters each corpus cell pins. Raw values, not hashes: a golden
#: mismatch should show the reviewer the magnitude of the change.
PINNED = ("cycles", "llc_misses", "invalidations")


def corpus_path(name: str) -> Path:
    path = CORPUS_DIR / f"{name}.rtrace"
    assert path.exists(), (
        f"missing corpus capture {path}; regenerate with "
        "`python tools/rebuild_corpus.py`"
    )
    return path


def replay_config(header: dict, scheme: str) -> SystemConfig:
    geometry = header["geometry"]
    return SystemConfig(
        num_cores=geometry["num_cores"],
        l1_kb=geometry["l1_kb"],
        l2_kb=geometry["l2_kb"],
        scheme=default_verify_spec(scheme),
    )


def stats_blob(config: SystemConfig, streams, run=run_trace) -> str:
    stats = run(System(config), streams, warmup_fraction=0.0)
    return json.dumps(stats.dump(), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Freshness
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_corpus_capture_is_fresh(name):
    streams, header = load_capture(corpus_path(name))
    scenario = SCENARIOS[name]
    assert streams == scenario_streams(scenario), (
        f"{name}.rtrace is stale; rerun tools/rebuild_corpus.py"
    )
    assert header["seed"] == scenario.seed
    assert header["geometry"] == scenario.geometry()
    assert header["meta"]["scenario"] == name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_corpus_capture_stays_in_budget(name):
    assert corpus_path(name).stat().st_size <= 50 * 1024


# ----------------------------------------------------------------------
# Golden stats grid
# ----------------------------------------------------------------------

def _compute_grid() -> "dict[str, dict[str, int]]":
    grid = {}
    for name in sorted(SCENARIOS):
        streams, header = load_capture(corpus_path(name))
        for scheme in ALL_SCHEMES:
            config = replay_config(header, scheme)
            stats = run_trace(System(config), streams, warmup_fraction=0.0)
            scalars = stats.dump()["scalars"]
            grid[f"{name}/{scheme}"] = {key: scalars[key] for key in PINNED}
    return grid


def test_corpus_grid_matches_snapshot(update_snapshots):
    grid = _compute_grid()
    if update_snapshots:
        SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT_PATH.write_text(json.dumps(grid, indent=2, sort_keys=True) + "\n")
        pytest.skip("snapshots updated")
    assert SNAPSHOT_PATH.exists(), (
        "missing golden snapshot; generate it with "
        "`python -m pytest tests/test_corpus_golden.py --update-snapshots`"
    )
    golden = json.loads(SNAPSHOT_PATH.read_text())
    assert set(grid) == set(golden), "snapshot grid shape changed"
    mismatched = {
        key: (golden[key], grid[key])
        for key in grid
        if grid[key] != golden[key]
    }
    assert not mismatched, (
        f"corpus statistics changed: {mismatched}; if intended, refresh "
        "with --update-snapshots"
    )


# ----------------------------------------------------------------------
# Bit-identical replay
# ----------------------------------------------------------------------

def test_replay_is_bit_identical_across_lanes():
    """Capture replay == live generation, byte for byte.

    The acceptance criterion of the record/replay pipeline: for a corpus
    trace, every scheme's published statistics dump is byte-identical
    between the live seeded run and the replayed run, and the engine's
    equals the reference loop's.
    """
    name = "private-heavy"
    scenario = SCENARIOS[name]
    live_streams = scenario_streams(scenario)

    replayed, _header = load_capture(corpus_path(name))
    assert replayed == live_streams

    for scheme in ALL_SCHEMES:
        config = scenario.config()
        config = SystemConfig(
            num_cores=config.num_cores,
            l1_kb=config.l1_kb,
            l2_kb=config.l2_kb,
            scheme=default_verify_spec(scheme),
        )
        live = stats_blob(config, live_streams)
        again = stats_blob(config, replayed)
        assert live == again, f"replayed stats differ for {scheme}"
        reference = stats_blob(config, replayed, reference_trace)
        assert again == reference, (
            f"engine and reference loop differ for {scheme}"
        )
