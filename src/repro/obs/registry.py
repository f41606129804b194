"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` per run replaces the ad-hoc counter dicts
that used to be scattered across ``web/metrics.py``, ``core/loadd.py``
and ``repro.cache``: every subsystem publishes into the same namespace
(``http.*``, ``loadd.*``, ``cache.*``) and reports read one snapshot.

Histograms use *fixed* bucket bounds so p50/p95/p99 come from bucket
interpolation without storing raw samples — O(buckets) memory per metric
regardless of run length, the standard Prometheus-style trade-off.  The
exact-percentile path (``repro.obs.percentiles``) remains the source of
truth where raw samples are already retained (``sim.stats``).

Registries are per-process but their snapshots are *mergeable*:
:func:`merge_snapshots` folds any number of ``snapshot()`` dicts into
one — counters and bucket counts add, gauges add (every gauge in the
repo is a cumulative quantity), histograms are reconstructed from their
recorded bounds so merged percentiles interpolate over the combined
counts.  The sharded experiment runner
(``repro.experiments.shard``, see ``docs/SCALING.md``) relies on this to
combine per-worker results into one report identical to a serial run.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Optional, Sequence

__all__ = ["CounterGroup", "Gauge", "Histogram", "MetricsRegistry",
           "exponential_buckets", "merge_snapshots", "LATENCY_BUCKETS"]


def exponential_buckets(start: float, factor: float,
                        count: int) -> tuple[float, ...]:
    """``count`` bucket upper bounds growing geometrically from ``start``."""
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor ** i for i in range(count))


#: Default bounds for latency-shaped histograms: 1 ms .. ~131 s, 18
#: geometric buckets (plus the implicit overflow bucket).
LATENCY_BUCKETS: tuple[float, ...] = exponential_buckets(1e-3, 2.0, 18)


class CounterGroup:
    """Named integer counters (``incr`` / ``[]`` / ``as_dict``).

    Lives inside a registry under a namespace so subsystem counters
    (requests, drops, redirects...) appear in the shared snapshot; a
    missing key reads as 0, and the determinism golden compares
    ``as_dict()`` verbatim.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._counts: dict[str, int] = {}

    def incr(self, key: str, by: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + by

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"<CounterGroup {self.namespace!r} {self._counts!r}>"


class Gauge:
    """A last-write-wins scalar with cumulative ``add`` support."""

    def __init__(self, name: str, initial: float = 0.0) -> None:
        self.name = name
        self.value = float(initial)

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def __repr__(self) -> str:
        return f"<Gauge {self.name!r} {self.value!r}>"


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything past the last bound.  Percentiles are
    linearly interpolated inside the containing bucket and clamped to
    the observed ``[min, max]``, so small samples stay sane without any
    raw-sample storage.
    """

    def __init__(self, name: str,
                 bounds: Optional[Iterable[float]] = None) -> None:
        self.name = name
        self.bounds: tuple[float, ...] = (tuple(bounds) if bounds is not None
                                          else LATENCY_BUCKETS)
        if not self.bounds:
            raise ValueError(f"histogram {name!r} needs at least one bound")
        if any(nxt <= prev for prev, nxt in zip(self.bounds, self.bounds[1:])):
            raise ValueError(f"histogram {name!r} bounds must increase")
        self.counts: list[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def record(self, value: float) -> None:
        """Add one observation."""
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if v < self.minimum:
            self.minimum = v
        if v > self.maximum:
            self.maximum = v

    def absorb(self, counts: Sequence[int], count: int, total: float,
               minimum: float, maximum: float) -> None:
        """Add a batch of pre-bucketed observations in one step.

        ``counts`` must align with this histogram's buckets (``len(bounds)
        + 1`` entries, overflow last).  This is the bulk path used by the
        fluid workload model (which buckets a whole arrival batch with
        vectorised numpy before publishing) and by snapshot merging; it
        is exactly equivalent to ``record()``-ing each observation, up to
        float-summation order in ``total``.
        """
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram {self.name!r} has {len(self.counts)} buckets, "
                f"absorb() got {len(counts)}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        for i, n in enumerate(counts):
            self.counts[i] += n
        self.count += count
        self.total += float(total)
        if minimum < self.minimum:
            self.minimum = float(minimum)
        if maximum > self.maximum:
            self.maximum = float(maximum)

    @classmethod
    def from_snapshot(cls, name: str, entry: dict) -> "Histogram":
        """Rebuild a histogram from one ``snapshot()`` entry.

        Requires the ``bounds``/``min``/``max`` fields that
        :meth:`MetricsRegistry.snapshot` records (snapshots predating
        them cannot be merged — fail loudly rather than guess bounds
        from the ``%g``-formatted bucket labels).
        """
        if "bounds" not in entry:
            raise ValueError(f"histogram {name!r} snapshot lacks 'bounds'; "
                             f"only snapshots from this version merge")
        hist = cls(name, bounds=entry["bounds"])
        counts = list(entry["buckets"].values())
        minimum = entry.get("min")
        maximum = entry.get("max")
        hist.absorb(counts, entry["count"], entry["total"],
                    minimum if minimum is not None else float("inf"),
                    maximum if maximum is not None else float("-inf"))
        return hist

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Interpolated percentile at ``q`` in 0..100 (``nan`` if empty)."""
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in 0..100, got {q}")
        if self.count == 0:
            return float("nan")
        target = self.count * q / 100.0
        cumulative = 0.0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.maximum
                frac = (target - cumulative) / n
                value = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return min(max(value, self.minimum), self.maximum)
            cumulative += n
        return self.maximum  # pragma: no cover - loop always returns

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def bucket_counts(self) -> dict[str, int]:
        """``upper-bound -> count`` (``"+inf"`` for the overflow bucket)."""
        labels = [f"{b:g}" for b in self.bounds] + ["+inf"]
        return {label: n for label, n in zip(labels, self.counts)}

    def snapshot_entry(self) -> dict[str, Any]:
        """This histogram's JSON-ready state, as stored in snapshots.

        Carries everything :meth:`from_snapshot` needs to reconstruct
        and merge the instrument: exact ``bounds`` plus the observed
        ``min``/``max`` (None while empty) alongside the derived
        summary numbers.
        """
        has = self.count > 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean if has else None,
            "p50": self.p50 if has else None,
            "p95": self.p95 if has else None,
            "p99": self.p99 if has else None,
            "min": self.minimum if has else None,
            "max": self.maximum if has else None,
            "bounds": list(self.bounds),
            "buckets": self.bucket_counts(),
        }

    def __repr__(self) -> str:
        return (f"<Histogram {self.name!r} n={self.count} "
                f"mean={self.mean:.4g}>")


class MetricsRegistry:
    """Namespace of counters, gauges and histograms for one run.

    ``counters(ns)`` / ``gauge(name)`` / ``histogram(name)`` create on
    first use and return the existing instrument afterwards, so
    publishers in different subsystems can share by name without
    coordination.
    """

    def __init__(self) -> None:
        self._counters: dict[str, CounterGroup] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counters(self, namespace: str) -> CounterGroup:
        """The (shared) counter group for ``namespace``."""
        group = self._counters.get(namespace)
        if group is None:
            group = self._counters[namespace] = CounterGroup(namespace)
        return group

    def gauge(self, name: str) -> Gauge:
        """The (shared) gauge called ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  bounds: Optional[Iterable[float]] = None) -> Histogram:
        """The (shared) histogram called ``name``.

        ``bounds`` only applies on first creation; later callers get the
        existing instrument regardless.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds)
        return hist

    def snapshot(self) -> dict[str, Any]:
        """One JSON-ready dict of every instrument's current state."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for ns in sorted(self._counters):
            for key, val in sorted(self._counters[ns].as_dict().items()):
                out["counters"][f"{ns}.{key}" if ns else key] = val
        for name in sorted(self._gauges):
            out["gauges"][name] = self._gauges[name].value
        for name in sorted(self._histograms):
            out["histograms"][name] = self._histograms[name].snapshot_entry()
        return out

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")


def merge_snapshots(snapshots: Sequence[dict]) -> dict[str, Any]:
    """Fold registry ``snapshot()`` dicts into one combined snapshot.

    Merge semantics (see ``docs/SCALING.md``):

    * **counters** — integer sums: exact and order-independent;
    * **gauges** — float sums.  Every gauge the repo publishes is a
      cumulative quantity (``loadd.bytes_sent``, ``cache.bytes_replicated``),
      so addition is the meaningful fold; a last-write-wins gauge would
      need per-shard reporting instead;
    * **histograms** — bucket counts, totals and min/max combine, and
      p50/p95/p99 are re-interpolated over the *combined* buckets (never
      averaged across shards).  Bounds must match across snapshots.

    The fold runs left-to-right over ``snapshots``: all integer fields
    are order-independent, and float sums are reproducible for any fixed
    order — callers wanting bit-identical output across worker counts
    (the shard runner does) sort their snapshots canonically first.
    """
    merged: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    counters: dict[str, int] = merged["counters"]
    gauges: dict[str, float] = merged["gauges"]
    hists: dict[str, Histogram] = {}
    for snap in snapshots:
        for key, val in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + val
        for key, val in snap.get("gauges", {}).items():
            gauges[key] = gauges.get(key, 0.0) + val
        for name, entry in snap.get("histograms", {}).items():
            hist = hists.get(name)
            if hist is None:
                hists[name] = Histogram.from_snapshot(name, entry)
                continue
            if list(hist.bounds) != list(entry.get("bounds", [])):
                raise ValueError(f"histogram {name!r} bounds differ "
                                 f"across snapshots; cannot merge")
            minimum = entry.get("min")
            maximum = entry.get("max")
            hist.absorb(list(entry["buckets"].values()), entry["count"],
                        entry["total"],
                        minimum if minimum is not None else float("inf"),
                        maximum if maximum is not None else float("-inf"))
    merged["counters"] = {key: counters[key] for key in sorted(counters)}
    merged["gauges"] = {key: gauges[key] for key in sorted(gauges)}
    merged["histograms"] = {name: hists[name].snapshot_entry()
                            for name in sorted(hists)}
    return merged
