"""Per-request records and aggregate metrics.

The paper reports: response time ("from when a request is initiated until
all the requested information arrives at the client"), drop rate, maximum
sustained rps, the Table 5 per-phase cost breakdown, and the §4.3
server-side CPU shares.  Everything here exists to produce those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..obs import LATENCY_BUCKETS, MetricsRegistry, percentile
from ..sim import PhaseAccumulator, Summary, Tally

__all__ = ["RequestRecord", "Metrics", "PHASE_NAMES"]

#: Canonical phase keys, matching Table 5's row labels.
PHASE_NAMES = (
    "preprocessing",    # fork + parsing HTTP commands + pathname/permissions
    "analysis",         # SWEB: broker cost estimation
    "redirection",      # SWEB: generating the 302 + the extra client trip
    "data_transfer",    # disk/cache/NFS read + pushing bytes to the client
    "network",          # DNS, connect, WAN latencies
)


@dataclass
class RequestRecord:
    """The life of one HTTP request, as the client experiences it."""

    req_id: int
    path: str
    start: float
    client: str = "local"
    size: float = 0.0
    end: Optional[float] = None
    status: Optional[int] = None
    ok: bool = False
    dropped: bool = False
    drop_reason: Optional[str] = None   # "refused" | "timeout" | "dns" | "reset"
    dns_node: Optional[int] = None      # where the DNS rotation sent it
    served_by: Optional[int] = None     # node that fulfilled it
    redirected: bool = False
    #: connection retries performed (graceful degradation only)
    retries: int = 0
    #: how the serving node produced the bytes: "cache" | "disk" | None
    #: (errors, drops and CGI output)
    source: Optional[str] = None
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def response_time(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def add_phase(self, phase: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative phase duration {phase!r}: {duration}")
        self.phases[phase] = self.phases.get(phase, 0.0) + duration


class Metrics:
    """Aggregates request records into the paper's reported quantities."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.records: list[RequestRecord] = []
        #: the run-wide metrics registry this aggregator publishes into;
        #: a private one is created for standalone Metrics() use
        #: (SWEBCluster always passes the cluster's shared registry)
        self.registry = registry if registry is not None else MetricsRegistry()
        #: request-lifecycle counters, registered as the ``http.*``
        #: namespace of :attr:`registry` (``incr`` / ``[]`` / ``as_dict``)
        self.counters = self.registry.counters("http")
        #: completed-request latency histogram (fixed buckets, so p50 /
        #: p95 / p99 are available without rescanning the records)
        self.response_histogram = self.registry.histogram(
            "http.response_time_s", bounds=LATENCY_BUCKETS)
        self._next_id = 0
        #: node id -> page-cache counters, installed post-run by
        #: :func:`repro.experiments.runner.run_scenario` via
        #: :meth:`record_page_cache` (the caches live in the cluster
        #: layer; metrics only aggregates what it is handed)
        self.page_cache: dict[int, dict[str, float]] = {}

    # -- record lifecycle -------------------------------------------------
    def new_record(self, path: str, start: float, client: str = "local",
                   size: float = 0.0) -> RequestRecord:
        rec = RequestRecord(req_id=self._next_id, path=path, start=start,
                            client=client, size=size)
        self._next_id += 1
        self.records.append(rec)
        self.counters.incr("requests")
        return rec

    def finish(self, rec: RequestRecord, end: float, status: int) -> None:
        rec.end = end
        rec.status = status
        rec.ok = status == 200
        self.counters.incr(f"status_{status}")
        if rec.ok:
            self.counters.incr("completed")
            response_time = rec.response_time
            if response_time is not None:
                self.response_histogram.record(response_time)
        if rec.redirected:
            self.counters.incr("redirected")

    def drop(self, rec: RequestRecord, end: float, reason: str) -> None:
        rec.end = end
        rec.dropped = True
        rec.drop_reason = reason
        self.counters.incr("dropped")
        self.counters.incr(f"dropped_{reason}")

    # -- aggregates -------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return self.counters["completed"]

    @property
    def dropped(self) -> int:
        return self.counters["dropped"]

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.total if self.total else 0.0

    def response_times(self, only_ok: bool = True) -> Tally:
        tally = Tally("response_time")
        for rec in self.records:
            if rec.dropped or rec.end is None:
                continue
            if only_ok and not rec.ok:
                continue
            tally.record(rec.response_time)
        return tally

    def response_summary(self) -> Summary:
        return self.response_times().summary()

    def mean_response_time(self) -> float:
        return self.response_times().mean

    def response_percentile(self, q: float, only_ok: bool = True) -> float:
        """Exact response-time percentile over completed requests.

        Routes through the shared :mod:`repro.obs.percentiles` helper —
        the same math as :class:`Summary` — so reports quoting "p95"
        can never disagree with the summary table (``nan`` when no
        requests completed)."""
        return percentile(self.response_times(only_ok=only_ok).values, q)

    def throughput(self, duration: float) -> float:
        """Completed requests per second over ``duration``."""
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        return self.completed / duration

    def phase_breakdown(self, only_ok: bool = True) -> PhaseAccumulator:
        """Average per-phase costs across requests (Table 5)."""
        acc = PhaseAccumulator()
        for rec in self.records:
            if rec.dropped or (only_ok and not rec.ok):
                continue
            for phase, duration in rec.phases.items():
                acc.record(phase, duration)
        return acc

    # -- page cache (docs/CACHING.md) -------------------------------------
    def record_page_cache(self, node: int, hits: float, misses: float,
                          evictions: float, used_bytes: float = 0.0,
                          capacity_bytes: float = 0.0) -> None:
        """Install one node's page-cache counters for reporting."""
        self.page_cache[node] = {
            "hits": float(hits), "misses": float(misses),
            "evictions": float(evictions), "used_bytes": float(used_bytes),
            "capacity_bytes": float(capacity_bytes)}

    def page_cache_totals(self) -> dict[str, float]:
        """Cluster-wide hits/misses/evictions summed over nodes."""
        totals = {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
        for stats in self.page_cache.values():
            for key in totals:
                totals[key] += stats.get(key, 0.0)
        return totals

    def page_cache_hit_rate(self) -> float:
        """Aggregate page-cache hit rate (0.0 when nothing recorded)."""
        totals = self.page_cache_totals()
        lookups = totals["hits"] + totals["misses"]
        return totals["hits"] / lookups if lookups else 0.0

    def served_from_cache(self) -> int:
        """Completed requests whose bytes came from RAM (record.source)."""
        return sum(1 for rec in self.records
                   if rec.ok and rec.source == "cache")

    def served_by_histogram(self) -> dict[int, int]:
        """How many completed requests each node fulfilled."""
        hist: dict[int, int] = {}
        for rec in self.records:
            if rec.ok and rec.served_by is not None:
                hist[rec.served_by] = hist.get(rec.served_by, 0) + 1
        return hist

    def __repr__(self) -> str:
        return (f"<Metrics total={self.total} completed={self.completed} "
                f"dropped={self.dropped}>")
