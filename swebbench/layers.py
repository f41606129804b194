"""Per-layer attribution for the traced run, measured from outside.

Nothing here edits the program.  A traced run installs three observers
around the run phase (from the first ``Simulator.run`` call until the
workload returns):

* ``cProfile`` — host self time of every function, summed per layer by
  the function's module path (:func:`layer_of`), plus call counts;
* wrappers around one public entry point per layer
  (:data:`ENTRY_POINTS`) — a span per call (name, layer, start, end,
  parent span), kept in memory and written out when the run ends;
* a ``gc.callbacks`` hook — CPU time spent in the cyclic collector.

The layers are named after the modules: ``sim.bandwidth`` is
``repro/sim/bandwidth.py`` (``FairShareServer``), ``sim.engine`` the
rest of ``repro/sim``, then ``cluster``, ``web``, ``core``, ``cache``,
``obs`` and ``workload.fluid``.  ``other`` is everything else: heapq,
builtins, numpy, the rest of the standard library, the remaining
``repro`` modules and these wrappers.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import gzip
import json
import pstats
import time
from pathlib import Path
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "ENTRY_POINTS", "LayerProbe", "layer_of"]

#: attribution order: the first matching module-path fragment wins
_PATH_LAYERS = (
    ("/repro/sim/bandwidth.py", "sim.bandwidth"),
    ("/repro/sim/", "sim.engine"),
    ("/repro/cluster/", "cluster"),
    ("/repro/web/", "web"),
    ("/repro/core/", "core"),
    ("/repro/cache/", "cache"),
    ("/repro/obs/", "obs"),
    ("/repro/workload/fluid.py", "workload.fluid"),
)

LAYERS = tuple(layer for _, layer in _PATH_LAYERS) + ("other",)

#: (module, class, method, layer): the wrapped public entry points.  Each
#: is a plain function (not a generator), so a wrapper sees the whole call;
#: ``Simulator.run`` is the root span of the run phase.
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", "run", "sim.engine"),
    ("repro.sim.bandwidth", "FairShareServer", "submit", "sim.bandwidth"),
    ("repro.cluster.filesystem", "DistributedFileSystem", "read", "cluster"),
    ("repro.web.client", "Client", "fetch", "web"),
    ("repro.web.server", "HTTPServer", "try_accept", "web"),
    ("repro.core.broker", "Broker", "choose_server", "core"),
    ("repro.cache.replication", "ReplicationDaemon", "run_cycle", "cache"),
    ("repro.cache.directory", "CacheDirectory", "update", "cache"),
    ("repro.obs.spans", "Tracer", "begin", "obs"),
)


def layer_of(filename: str) -> str:
    """The layer a function belongs to, from its module's file path."""
    path = filename.replace("\\", "/")
    for fragment, layer in _PATH_LAYERS:
        if fragment in path:
            return layer
    return "other"


class LayerProbe:
    """Profiler, entry-point spans and GC timer for one traced run."""

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        #: (span id, parent span id or -1, entry point, layer, start ns, end ns)
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self.calls: dict[str, int] = {}
        self.call_ns: dict[str, int] = {}
        self.gc_cpu_s = 0.0
        self._stack: list[int] = []
        self._gc_started: Optional[float] = None
        self._restore: list[tuple[type, str, Callable]] = []
        self._active = False

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; spans are recorded once :meth:`start` ran."""
        import importlib

        for module, cls_name, method, layer in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(original,
                                            f"{cls_name}.{method}", layer))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._restore):
            setattr(cls, method, original)
        self._restore.clear()

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans = self.spans
        stack = self._stack
        calls = self.calls
        call_ns = self.call_ns
        calls[name] = 0
        call_ns[name] = 0
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self._active:
                return fn(*args, **kwargs)
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # type: ignore[arg-type]  # reserve the id
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, layer, start, end)
                calls[name] += 1
                call_ns[name] += end - start

        return wrapper

    # -- the run phase ----------------------------------------------------
    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._active = True
        self.profiler.enable()

    def stop(self) -> None:
        self.profiler.disable()
        self._active = False
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.process_time()
        elif self._gc_started is not None:
            self.gc_cpu_s += time.process_time() - self._gc_started
            self._gc_started = None

    # -- results ----------------------------------------------------------
    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Host self time (seconds) and function calls per layer."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for (filename, _line, _func), row in pstats.Stats(
                self.profiler).stats.items():  # type: ignore[attr-defined]
            layer = layer_of(filename)
            calls[layer] += row[1]    # ncalls, recursion included
            self_s[layer] += row[2]   # tottime
        return self_s, calls

    def write_spans(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "name", "layer", "start_ns", "end_ns")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(fields, span))) + "\n")
