"""Per-layer host-time attribution from outside the simulator.

:class:`LayerTracer` replaces the public functions of each simulator
layer listed in :data:`LAYERS` with timing wrappers, set on the classes
(or, for module functions, on the module) and restored by
:meth:`LayerTracer.uninstall`. Nothing in ``src/`` knows about it.

A span opens only when a call crosses into a different layer; calls
that stay inside the layer that is already running are counted but not
timed, so a layer's nested helpers cost one counter increment. Each
layer's self time is its span time minus the span time of the layers it
called. ``sim.engine`` wraps ``TraceEngine.run``, so its self time is
the traced ``run_trace`` time minus every child span: the engine loop,
including the fast lane's inlined private-hit lookup.

Spans are aggregated in memory per layer (count, span seconds, child
seconds) and read out with :meth:`LayerTracer.snapshot` when the pass
ends; nothing is written while the simulation runs.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

#: The public methods of a class, as opposed to an explicit name list.
PUBLIC = None

#: Layer name -> (module, class or None for module functions, names).
#: Names of ``PUBLIC`` wrap every public plain function the class itself
#: defines (inherited methods are wrapped on the class that defines them).
LAYERS: "tuple[tuple[str, tuple], ...]" = (
    ("workloads", (("repro.workloads.generator", None, ("generate_streams",)),)),
    ("sim.engine", (("repro.sim.engine", "TraceEngine", ("run",)),)),
    (
        "cache.private_cache",
        (
            (
                "repro.cache.private_cache",
                "PrivateCore",
                ("fill", "complete_upgrade", "invalidate", "downgrade", "probe"),
            ),
        ),
    ),
    (
        "cache.llc",
        (("repro.cache.llc", "LLCBank", ("lookup", "insert_block", "insert_spill", "remove")),),
    ),
    (
        "coherence",
        tuple(
            (module, cls, ("handle_access", "handle_private_eviction"))
            for module, cls in (
                ("repro.coherence.sparse_home", "SparseHome"),
                ("repro.coherence.sparse_home", "SharedOnlyHome"),
                ("repro.coherence.sparse_home", "StashHome"),
                ("repro.coherence.sparse_home", "MgdHome"),
                ("repro.coherence.inllc_home", "InLLCHome"),
                ("repro.coherence.inllc_home", "TinyHome"),
            )
        ),
    ),
    (
        "core",
        (
            ("repro.core.tiny_directory", "TinyDirectory", PUBLIC),
            ("repro.core.stra", "StraCounters", PUBLIC),
            ("repro.core.spill", "DynamicSpillPolicy", PUBLIC),
        ),
    ),
    (
        "directory",
        (
            ("repro.directory.sparse", "SparseDirectory", PUBLIC),
            ("repro.directory.zcache", "ZCacheDirectory", PUBLIC),
            ("repro.directory.mgd", "MultiGrainDirectory", PUBLIC),
            ("repro.directory.stash", "StashState", PUBLIC),
        ),
    ),
    (
        "interconnect.traffic",
        (("repro.interconnect.traffic", "TrafficMeter", ("record", "control", "data", "partial")),),
    ),
    (
        "interconnect.mesh",
        (("repro.interconnect.mesh", "Mesh2D", ("latency", "distance", "memory_latency")),),
    ),
    ("memory", (("repro.memory.dram", "DramModel", ("access",)),)),
    (
        "sim.stats",
        (
            ("repro.sim.stats", "SimStats", ("on_outcome", "flush_residency")),
            ("repro.sim.system", "System", ("finalize",)),
        ),
    ),
)

#: Layer names in table order.
LAYER_NAMES: "tuple[str, ...]" = tuple(name for name, _ in LAYERS)


def wrap_targets() -> "list[tuple[str, object, str]]":
    """Every (layer, owner, attribute) the tracer replaces.

    The owner is the class (or module) whose own namespace defines the
    attribute, so restoring it restores exactly what was there.
    """
    targets = []
    for layer, entries in LAYERS:
        for module_name, class_name, names in entries:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            if names is PUBLIC:
                names = sorted(
                    name
                    for name, value in vars(owner).items()
                    if not name.startswith("_")
                    and isinstance(value, types.FunctionType)
                )
            for name in names:
                if not hasattr(owner, name):
                    raise LookupError(f"{owner.__name__} has no {name!r}")
                if name in vars(owner):
                    targets.append((layer, owner, name))
    return targets


class LayerTracer:
    """Installs span-timing wrappers on every layer's public functions.

    Use as a context manager around the code to attribute; wrappers are
    removed on exit even when the body raises. Counters accumulate over
    every installation of the same tracer.
    """

    def __init__(self) -> None:
        count = len(LAYER_NAMES)
        #: Wrapped calls per layer, nested same-layer calls included.
        self.calls = [0] * count
        #: Spans opened per layer (calls that crossed a layer boundary).
        self.spans = [0] * count
        #: Seconds inside each layer's spans, children included; the
        #: extra last slot is "outside every layer".
        self.span_s = [0.0] * (count + 1)
        #: Seconds of child spans opened from each layer's spans.
        self.child_s = [0.0] * (count + 1)
        self._stack = [count]
        self._originals: "list[tuple[object, str, object]]" = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every target with a wrapper."""
        if self._originals:
            raise RuntimeError("LayerTracer is already installed")
        index = {name: i for i, name in enumerate(LAYER_NAMES)}
        for layer, owner, name in wrap_targets():
            original = vars(owner)[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(index[layer], original))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, index: int, fn):
        calls = self.calls
        spans = self.spans
        span_s = self.span_s
        child_s = self.child_s
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[index] += 1
            parent = stack[-1]
            if parent == index:
                return fn(*args, **kwargs)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                spans[index] += 1
                span_s[index] += elapsed
                child_s[parent] += elapsed

        return wrapper

    # -- read-out --------------------------------------------------------

    def snapshot(self) -> "dict[str, dict[str, float]]":
        """Per-layer calls, spans, span seconds and self seconds."""
        return {
            name: {
                "calls": self.calls[i],
                "spans": self.spans[i],
                "span_s": self.span_s[i],
                "self_s": self.span_s[i] - self.child_s[i],
            }
            for i, name in enumerate(LAYER_NAMES)
        }


def unpatched() -> bool:
    """True when every wrap target holds a plain, unwrapped function."""
    return not any(
        hasattr(vars(owner)[name], "__wrapped__")
        for _, owner, name in wrap_targets()
    )
