"""Synthetic trace generation from a :class:`WorkloadProfile`.

The generator lays out five disjoint address regions (block addresses):

* a private region per core (``heap/stack``),
* a global read-write shared pool, each block annotated with a *sharer
  window* — the set of cores that ever touch it — drawn from the
  profile's Fig.-2-style bin weights,
* a small hot shared read-mostly set touched by every core (the
  high-STRA blocks),
* a shared code region accessed by instruction fetches from every core,
* a per-core streaming region that never reuses a block (the LLC
  miss-rate knob).

Accesses are drawn i.i.d. from the profile's region mix; shared-pool
accesses are *re-assigned* to a random core inside the block's sharer
window so each block's observed sharer count matches its annotation.
Generation is deterministic for a given (profile, config, seed).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from itertools import islice, repeat

import numpy as np

from repro.errors import ConfigError
from repro.sim.config import SystemConfig
from repro.sim.deadline import CHECK_STRIDE as _DEADLINE_STRIDE
from repro.sim.deadline import check_deadline, collector_paused
from repro.types import IFETCH, READ, WRITE
from repro.workloads.profiles import WorkloadProfile

# Region base block addresses; spans are generous enough never to overlap
# for any realistic configuration. Per-core strides are deliberately NOT
# powers of two: a real OS hands out pages at effectively randomized
# physical frames, so different cores' heaps do not alias onto the same
# cache/directory sets. A power-of-two stride here would make every
# core's private region collide in the same few sets — a pathology real
# traces do not exhibit.
_PRIVATE_BASE = 1 << 34
_PRIVATE_SPAN = (1 << 24) + 32 * 17
_POOL_BASE = 1 << 35
_HOT_BASE = 1 << 36
_CODE_BASE = (1 << 36) + (1 << 30) + 32 * 11
_STREAM_BASE = 1 << 37
_STREAM_SPAN = (1 << 26) + 32 * 29

#: Stride between consecutive logical blocks of the shared regions.
#: Shared structures (hash buckets, B-tree nodes, hot functions) are
#: scattered through a real address space, not contiguous; a coprime
#: stride spreads the popular head of each region over all LLC sets so
#: no single set (in particular no sampled no-spill set) concentrates
#: the hot traffic.
_SHARED_STRIDE = 97


def _pool_addr(index) -> "int":
    """Block address of pool block ``index`` (scalar or numpy array)."""
    return _POOL_BASE + index * _SHARED_STRIDE


def _hot_addr(index) -> "int":
    """Block address of hot-set block ``index``."""
    return _HOT_BASE + index * _SHARED_STRIDE


def _code_addr(index) -> "int":
    """Block address of code block ``index``."""
    return _CODE_BASE + index * _SHARED_STRIDE

_REGION_PRIVATE = 0
_REGION_SHARED = 1
_REGION_HOT = 2
_REGION_CODE = 3
_REGION_STREAM = 4

#: Access kind by code: 0 read, 1 write, 2 instruction fetch.
_KINDS = np.array([READ, WRITE, IFETCH], dtype=object)


def _zipf_pmf(count: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


class SyntheticTraceGenerator:
    """Produces per-core access streams for one application profile."""

    def __init__(
        self,
        profile: WorkloadProfile,
        config: SystemConfig,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.config = config
        stable = zlib.crc32(profile.name.encode())
        self._rng = np.random.default_rng((seed << 32) ^ stable)
        cores = config.num_cores
        self.private_blocks = max(64, int(profile.private_region_factor * config.l2_blocks))
        if self.private_blocks > _PRIVATE_SPAN:
            raise ConfigError("private region exceeds its address span")
        self.pool_blocks = max(cores * 8, int(profile.pool_factor * config.llc_blocks))
        self.hot_blocks = max(8, int(profile.hot_blocks_per_core * cores))
        self.code_blocks = max(8, int(profile.code_blocks_per_core * cores))
        # Per-pool-block sharer windows (start core + width).
        self._pool_start, self._pool_width = self._draw_sharer_windows()
        self._pool_pmf = _zipf_pmf(self.pool_blocks, profile.zipf_exponent)
        self._code_pmf = _zipf_pmf(self.code_blocks, profile.zipf_exponent)
        self._private_pmf = (
            _zipf_pmf(self.private_blocks, profile.private_zipf_exponent)
            if profile.private_zipf_exponent > 0
            else None
        )
        self._hot_pmf = (
            _zipf_pmf(self.hot_blocks, profile.hot_zipf_exponent)
            if profile.hot_zipf_exponent > 0
            else None
        )

    def _draw_sharer_windows(self) -> "tuple[np.ndarray, np.ndarray]":
        cores = self.config.num_cores
        weights = np.asarray(self.profile.sharer_bin_weights, dtype=np.float64)
        weights = weights / weights.sum()
        bins = self._rng.choice(4, size=self.pool_blocks, p=weights)
        low = np.array([2, 5, 9, 17])[bins]
        high = np.array([4, 8, 16, max(17, cores)])[bins]
        low = np.minimum(low, cores)
        high = np.minimum(high, cores)
        width = self._rng.integers(low, high + 1)
        start = self._rng.integers(0, cores, size=self.pool_blocks)
        return start, width

    # ------------------------------------------------------------------

    def _init_pass(self) -> "list[list[tuple]]":
        """The initialization phase: touch every block of every region
        once, the way a real program's setup loop faults in its data.

        This keeps cold (first-touch) misses inside the engine's warmup
        window, so measured miss rates reflect steady-state behaviour
        instead of trace length.

        Each core reads its private region in order, then the pool
        blocks whose sharer window starts at it, then every
        ``num_cores``-th hot block, then fetches every
        ``num_cores``-th code block, each region in index order.
        """
        cores = self.config.num_cores
        gap = self.profile.cpi_gap
        pool_ends = np.cumsum(np.bincount(self._pool_start, minlength=cores))
        pool_addrs = _pool_addr(np.argsort(self._pool_start, kind="stable")).tolist()
        hot_end = _hot_addr(self.hot_blocks)
        code_end = _code_addr(self.code_blocks)
        step = _SHARED_STRIDE * cores
        streams: "list[list[tuple]]" = []
        low = 0
        for c, high in enumerate(pool_ends.tolist()):
            private = _PRIVATE_BASE + c * _PRIVATE_SPAN
            stream = list(zip(
                range(private, private + self.private_blocks), repeat(READ),
                repeat(gap),
            ))
            stream.extend(zip(pool_addrs[low:high], repeat(READ), repeat(gap)))
            low = high
            stream.extend(zip(
                range(_hot_addr(c), hot_end, step), repeat(READ), repeat(gap),
            ))
            stream.extend(zip(
                range(_code_addr(c), code_end, step), repeat(IFETCH), repeat(gap),
            ))
            streams.append(stream)
        return streams

    def _draw(self, n: int) -> "tuple[np.ndarray, ...]":
        """Draw ``n`` steady-state accesses from the profile's mix.

        Returns the arrays ``(region, core, addr, is_write, is_ifetch,
        gaps)``, one entry per access in draw order. A streaming
        access's ``addr`` is 0: its block depends on how many streaming
        accesses its core made before it, which :meth:`generate` counts.
        """
        profile = self.profile
        rng = self._rng
        cores = self.config.num_cores

        mix = np.array(
            [
                profile.private_fraction,
                profile.shared_fraction,
                profile.hot_fraction,
                profile.code_fraction,
                profile.stream_fraction,
            ]
        )
        region = rng.choice(5, size=n, p=mix)
        core = rng.integers(0, cores, size=n)
        uniform = rng.random(size=n)
        gaps = rng.poisson(profile.cpi_gap, size=n)

        addr = np.zeros(n, dtype=np.int64)
        is_write = np.zeros(n, dtype=bool)
        is_ifetch = np.zeros(n, dtype=bool)

        # -- private ------------------------------------------------------
        mask = region == _REGION_PRIVATE
        count = int(mask.sum())
        if count:
            if self._private_pmf is not None:
                offsets = rng.choice(
                    self.private_blocks, size=count, p=self._private_pmf
                )
                # Decorrelate the per-core popularity order so hot blocks
                # of different cores do not collide in the same LLC sets.
                offsets = (offsets * 769 + core[mask] * 31) % self.private_blocks
            else:
                offsets = rng.integers(0, self.private_blocks, size=count)
            addr[mask] = _PRIVATE_BASE + core[mask] * _PRIVATE_SPAN + offsets
            is_write[mask] = uniform[mask] < profile.write_fraction_private

        # -- shared pool ----------------------------------------------------
        mask = region == _REGION_SHARED
        count = int(mask.sum())
        if count:
            idx = rng.choice(self.pool_blocks, size=count, p=self._pool_pmf)
            addr[mask] = _pool_addr(idx)
            # Reassign the issuing core into the block's sharer window.
            offset = rng.integers(0, 1 << 30, size=count) % self._pool_width[idx]
            core[mask] = (self._pool_start[idx] + offset) % cores
            is_write[mask] = uniform[mask] < profile.write_fraction_shared

        # -- hot shared read-mostly ------------------------------------------
        mask = region == _REGION_HOT
        count = int(mask.sum())
        if count:
            if self._hot_pmf is not None:
                idx = rng.choice(self.hot_blocks, size=count, p=self._hot_pmf)
            else:
                idx = rng.integers(0, self.hot_blocks, size=count)
            addr[mask] = _hot_addr(idx)
            is_write[mask] = uniform[mask] < profile.hot_write_fraction

        # -- shared code -------------------------------------------------------
        mask = region == _REGION_CODE
        count = int(mask.sum())
        if count:
            idx = rng.choice(self.code_blocks, size=count, p=self._code_pmf)
            addr[mask] = _code_addr(idx)
            is_ifetch[mask] = True

        # -- streaming (addresses counted per core in generate) ----------------
        stream_mask = region == _REGION_STREAM
        is_write[stream_mask] = uniform[stream_mask] < profile.write_fraction_private
        return region, core, addr, is_write, is_ifetch, gaps

    def generate(self, total_accesses: int) -> "list[list[tuple]]":
        """Generate ``total_accesses`` accesses split into per-core streams.

        ``streams[c]`` is core ``c``'s list of ``(addr, kind, gap)``
        tuples. It starts with an initialization pass over every region
        (see :meth:`_init_pass`), followed by core ``c``'s share of the
        ``total_accesses`` steady-state accesses drawn from the
        profile's mix, in draw order.

        The streams are assembled per core from the drawn arrays by
        ``zip``, with no Python call per access, and with the cyclic
        collector paused: the tuples make no reference cycles.
        tests/reference_generator.py keeps the per-access loop they are
        held to.
        """
        if total_accesses <= 0:
            raise ConfigError("total_accesses must be positive")
        cores = self.config.num_cores
        region, core, addr, is_write, is_ifetch, gaps = self._draw(total_accesses)
        # Each core's accesses, in draw order, in one run of positions.
        order = np.argsort(core, kind="stable")
        core = core[order]
        addr = addr[order]
        counts = np.bincount(core, minlength=cores)
        ends = np.cumsum(counts)
        # A streaming access reads its core's next unused stream block:
        # its cursor is the streaming accesses before it in its core's
        # run, a running total less the total where the run starts.
        streaming = region[order] == _REGION_STREAM
        before = np.concatenate(([0], np.cumsum(streaming)))
        cursor = before[:-1] - before[ends - counts][core]
        addr[streaming] = (
            _STREAM_BASE + core[streaming] * _STREAM_SPAN + cursor[streaming]
        )
        codes = is_write.astype(np.intp)
        codes[is_ifetch] = 2
        accesses = zip(
            addr.tolist(), _KINDS[codes[order]].tolist(), gaps[order].tolist()
        )

        with collector_paused():
            streams = self._init_pass()
            for stream, count in zip(streams, counts.tolist()):
                for low in range(0, count, _DEADLINE_STRIDE):
                    check_deadline()
                    stream.extend(
                        islice(accesses, min(_DEADLINE_STRIDE, count - low))
                    )
        return streams


# ----------------------------------------------------------------------
# Per-process trace cache
# ----------------------------------------------------------------------

#: Stream sets the per-process trace cache keeps (least recently used
#: first out).
TRACE_CACHE_CAPACITY = 8

_trace_cache: "OrderedDict[tuple, list]" = OrderedDict()
_trace_cache_hits = 0
_trace_cache_misses = 0


def clear_trace_cache() -> None:
    """Drop every memoized stream set and zero the hit/miss counters."""
    global _trace_cache_hits, _trace_cache_misses
    _trace_cache.clear()
    _trace_cache_hits = 0
    _trace_cache_misses = 0


def trace_cache_stats() -> "dict[str, int]":
    """Hit/miss/size counters of the per-process trace cache."""
    return {
        "hits": _trace_cache_hits,
        "misses": _trace_cache_misses,
        "entries": len(_trace_cache),
    }


def generate_streams(
    app: "WorkloadProfile | str",
    config: SystemConfig,
    total_accesses: int,
    seed: int = 0,
) -> "list[list[tuple]]":
    """One-call helper: build a generator and produce streams.

    Results are memoized per process (keyed on the profile, the config
    fields generation depends on, the trace length, and the seed), so a
    sweep revisiting the same (app, scale, seed) point reuses the exact
    stream objects instead of regenerating them. Streams are treated as
    immutable by every consumer — the engine only reads them — which is
    what makes sharing the objects safe. The cache keeps the
    :data:`TRACE_CACHE_CAPACITY` most recently used stream sets.

    To run recorded streams instead, load an ``.rtrace`` capture with
    :func:`repro.workloads.capture.load_capture` and hand its streams to
    the engine (see ``docs/verification.md``).
    """
    global _trace_cache_hits, _trace_cache_misses
    from repro.workloads.profiles import profile as lookup

    if isinstance(app, str):
        app = lookup(app)
    # Generation depends only on the profile (frozen, hashable) and these
    # derived config fields — see SyntheticTraceGenerator.__init__.
    key = (
        app,
        config.num_cores,
        config.l2_blocks,
        config.llc_blocks,
        total_accesses,
        seed,
    )
    cached = _trace_cache.get(key)
    if cached is not None:
        _trace_cache_hits += 1
        _trace_cache.move_to_end(key)
        return cached
    _trace_cache_misses += 1
    streams = SyntheticTraceGenerator(app, config, seed).generate(total_accesses)
    _trace_cache[key] = streams
    while len(_trace_cache) > TRACE_CACHE_CAPACITY:
        _trace_cache.popitem(last=False)
    return streams
