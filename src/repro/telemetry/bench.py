"""Machine-readable performance baselines (``BENCH_*.json``).

The benchmark suite (``benchmarks/``) measures wall-clock cost of
figure points, but until now the numbers died with the pytest-benchmark
terminal table. :func:`write_bench_point` persists one small JSON file
per measured point — its name and timing stats — so CI can upload them
as artifacts and a perf trajectory can be accumulated across commits.

Emission is opt-in via ``REPRO_BENCH_DIR``: when the variable is unset
(every local ``pytest benchmarks`` run by default), nothing is written.
"""

from __future__ import annotations

import json
import os
import re


def bench_dir_from_env() -> "str | None":
    """The ``BENCH_*.json`` output directory (``REPRO_BENCH_DIR``), or None."""
    raw = os.environ.get("REPRO_BENCH_DIR", "").strip()
    return raw or None


def write_bench_point(out_dir: "str | os.PathLike", name: str, **fields) -> str:
    """Write one perf point to ``<out_dir>/BENCH_<name>.json``.

    ``name`` is slugged (anything outside ``[A-Za-z0-9._-]`` becomes
    ``_``) so benchmark ids with brackets make valid filenames.
    ``fields`` land in the JSON payload alongside ``name``. Returns the
    written path. The write is atomic (temp file + rename) so a killed
    CI job never leaves a torn artifact.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_")
    path = os.path.join(out_dir, f"BENCH_{slug}.json")
    payload = {"name": name}
    payload.update(fields)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path
