"""A per-access reference loop for stream assembly.

:func:`generate_reference` draws a trace exactly as
:meth:`repro.workloads.generator.SyntheticTraceGenerator.generate` does
(through the generator's own ``_draw``), but assembles the per-core
streams one access at a time: the initialization pass block by block,
then each drawn access with its core's streaming cursor counted as it
goes. It is the oracle the generator's per-core assembly is held to:
tests/test_workloads.py requires the two to produce the same accesses,
field by field and type by type.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.sim.deadline import CHECK_STRIDE as _DEADLINE_STRIDE
from repro.sim.deadline import check_deadline
from repro.types import Access, AccessKind
from repro.workloads.generator import (
    _PRIVATE_BASE,
    _PRIVATE_SPAN,
    _REGION_STREAM,
    _STREAM_BASE,
    _STREAM_SPAN,
    SyntheticTraceGenerator,
    _code_addr,
    _hot_addr,
    _pool_addr,
)


def _init_pass(generator: SyntheticTraceGenerator) -> "list[list[Access]]":
    """Every block of every region once, appended access by access."""
    cores = generator.config.num_cores
    gap = generator.profile.cpi_gap
    streams: "list[list[Access]]" = [[] for _ in range(cores)]
    for c in range(cores):
        base = _PRIVATE_BASE + c * _PRIVATE_SPAN
        for offset in range(generator.private_blocks):
            streams[c].append(Access(c, base + offset, AccessKind.READ, gap))
    for i in range(generator.pool_blocks):
        c = int(generator._pool_start[i])
        streams[c].append(Access(c, _pool_addr(i), AccessKind.READ, gap))
    for i in range(generator.hot_blocks):
        c = i % cores
        streams[c].append(Access(c, _hot_addr(i), AccessKind.READ, gap))
    for i in range(generator.code_blocks):
        c = i % cores
        streams[c].append(Access(c, _code_addr(i), AccessKind.IFETCH, gap))
    return streams


def generate_reference(
    generator: SyntheticTraceGenerator, total_accesses: int
) -> "list[list[Access]]":
    """``generator``'s streams for ``total_accesses``, assembled one
    access at a time. ``generator`` must be fresh: drawing advances its
    random state, as :meth:`SyntheticTraceGenerator.generate` does."""
    if total_accesses <= 0:
        raise ConfigError("total_accesses must be positive")
    cores = generator.config.num_cores
    n = total_accesses
    region, core, addr, is_write, is_ifetch, gaps = generator._draw(n)

    streams = _init_pass(generator)
    stream_cursor = [0] * cores
    core_list = core.tolist()
    addr_list = addr.tolist()
    region_list = region.tolist()
    write_list = is_write.tolist()
    ifetch_list = is_ifetch.tolist()
    gap_list = gaps.tolist()
    for i in range(n):
        if i % _DEADLINE_STRIDE == 0:
            check_deadline()
        c = core_list[i]
        if region_list[i] == _REGION_STREAM:
            a = _STREAM_BASE + c * _STREAM_SPAN + stream_cursor[c]
            stream_cursor[c] += 1
        else:
            a = addr_list[i]
        if ifetch_list[i]:
            kind = AccessKind.IFETCH
        elif write_list[i]:
            kind = AccessKind.WRITE
        else:
            kind = AccessKind.READ
        streams[c].append(Access(c, a, kind, gap_list[i]))
    return streams
