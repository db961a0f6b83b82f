"""The differential scenario corpus: five adversarial workload points.

Each :class:`Scenario` is a complete, deterministic recipe — profile,
geometry, trace length, seed — for one committed ``tests/corpus/*.rtrace``
capture. The five scenarios are chosen to pressure *different* parts of
the coherence-tracking design space, so a regression in any scheme's
machinery trips at least one of them:

* ``private-heavy`` — almost everything hits in the private hierarchy:
  the engine's private-hit path, DSTRA's do-not-track decision, and the
  minimum-tracking baseline every scheme should handle cheaply.
* ``stra-pumping`` — a hot read-mostly set read by every core pumps
  short-term reuse (STRA) sky-high: the tiny directory's bread and
  butter, and the worst case for in-LLC lengthened critical paths.
* ``spill-pressure`` — a wide shared pool with more simultaneously
  tracked blocks than a tiny directory holds, forcing allocation
  pressure and (with ``TinySpec(spill=True)``) the LLC spill/recall
  machinery.
* ``migratory`` — narrowly shared blocks written by alternating cores:
  ownership migrates constantly, stressing invalidation, upgrade, and
  writeback paths plus directory entry turnover.
* ``multisocket`` — twice the cores with the widest sharer windows:
  cross-bank traffic, wide sharer lists, and broadcast/back-invalidation
  behaviour at the largest scale the corpus can afford.

Scale is deliberately tiny (a few thousand accesses, ≤50 KB per file)
so ``python -m repro diff --trace tests/corpus`` stays a seconds-scale
CI job. Regenerate and staleness-check with ``tools/rebuild_corpus.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import SystemConfig
from repro.workloads.profiles import WorkloadProfile

#: Corpus geometry: verification scale (matches the diff defaults).
CORPUS_L1_KB = 1
CORPUS_L2_KB = 4


@dataclass(frozen=True)
class Scenario:
    """One deterministic corpus point."""

    name: str
    description: str
    profile: WorkloadProfile
    num_cores: int = 8
    accesses: int = 2600
    seed: int = 0
    l1_kb: int = CORPUS_L1_KB
    l2_kb: int = CORPUS_L2_KB

    def config(self) -> SystemConfig:
        """The machine this scenario is generated (and replayed) on."""
        return SystemConfig(
            num_cores=self.num_cores, l1_kb=self.l1_kb, l2_kb=self.l2_kb
        )

    def geometry(self) -> dict:
        """Header geometry payload for the recorded capture."""
        return {
            "num_cores": self.num_cores,
            "l1_kb": self.l1_kb,
            "l2_kb": self.l2_kb,
        }


def _profile(name, desc, private, shared, hot, code, stream, **kw):
    return WorkloadProfile(
        name,
        desc,
        private_fraction=private,
        shared_fraction=shared,
        hot_fraction=hot,
        code_fraction=code,
        stream_fraction=stream,
        **kw,
    )


SCENARIOS: "dict[str, Scenario]" = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            "private-heavy",
            "nearly all accesses private: fast-lane and no-track baseline",
            _profile(
                "corpus-private-heavy",
                "synthetic: private-dominated mix",
                0.86, 0.04, 0.03, 0.04, 0.03,
                sharer_bin_weights=(0.8, 0.15, 0.04, 0.01),
                private_region_factor=0.9,
                hot_blocks_per_core=6.0,
                code_blocks_per_core=8.0,
            ),
            seed=11,
        ),
        Scenario(
            "stra-pumping",
            "hot read-mostly set read by every core: maximal STRA",
            _profile(
                "corpus-stra-pumping",
                "synthetic: hot shared read-mostly dominated mix",
                0.20, 0.10, 0.52, 0.12, 0.06,
                sharer_bin_weights=(0.2, 0.25, 0.25, 0.3),
                private_region_factor=0.35,
                hot_blocks_per_core=48.0,
                code_blocks_per_core=16.0,
                hot_write_fraction=0.0,
                write_fraction_shared=0.05,
                hot_zipf_exponent=0.6,
            ),
            seed=23,
        ),
        Scenario(
            "spill-pressure",
            "wide tracked footprint overflowing a tiny directory",
            _profile(
                "corpus-spill-pressure",
                "synthetic: broad shared pool, tracking-entry churn",
                0.22, 0.48, 0.14, 0.08, 0.08,
                sharer_bin_weights=(0.45, 0.3, 0.15, 0.1),
                private_region_factor=0.4,
                pool_factor=0.06,
                hot_blocks_per_core=24.0,
                code_blocks_per_core=12.0,
                write_fraction_shared=0.12,
                zipf_exponent=0.4,
            ),
            accesses=3000,
            seed=37,
        ),
        Scenario(
            "migratory",
            "narrowly shared blocks with alternating writers",
            _profile(
                "corpus-migratory",
                "synthetic: migratory ownership, heavy upgrades",
                0.30, 0.44, 0.08, 0.08, 0.10,
                sharer_bin_weights=(0.9, 0.08, 0.015, 0.005),
                private_region_factor=0.5,
                pool_factor=0.03,
                hot_blocks_per_core=8.0,
                code_blocks_per_core=8.0,
                write_fraction_shared=0.55,
                zipf_exponent=0.8,
            ),
            seed=41,
        ),
        Scenario(
            "multisocket",
            "double-width machine with the widest sharer windows",
            _profile(
                "corpus-multisocket",
                "synthetic: wide sharing across many banks",
                0.34, 0.22, 0.22, 0.14, 0.08,
                sharer_bin_weights=(0.1, 0.2, 0.3, 0.4),
                private_region_factor=0.5,
                pool_factor=0.025,
                hot_blocks_per_core=20.0,
                code_blocks_per_core=16.0,
                write_fraction_shared=0.10,
            ),
            num_cores=16,
            accesses=2400,
            seed=53,
        ),
    ]
}


def scenario_streams(scenario: Scenario):
    """Generate the scenario's per-core streams (deterministic)."""
    from repro.workloads.generator import SyntheticTraceGenerator

    generator = SyntheticTraceGenerator(
        scenario.profile, scenario.config(), scenario.seed
    )
    return generator.generate(scenario.accesses)


def record_scenario(scenario: Scenario, path):
    """Generate and save one scenario capture; returns the path."""
    from repro.workloads.capture import save_capture

    return save_capture(
        path,
        scenario_streams(scenario),
        profile=scenario.profile,
        seed=scenario.seed,
        total_accesses=scenario.accesses,
        geometry=scenario.geometry(),
        meta={"scenario": scenario.name, "description": scenario.description},
    )
