"""Tests for the metrics registry (docs/METRICS.md).

Covers the three instrument kinds, the create-on-first-use sharing
semantics, the one-implementation percentile contract (every percentile
producer in the repo must agree on shared inputs), the snapshot
merge path the sharded runner folds with (docs/SCALING.md), and the
publishing paths wired into ``loadd`` and the replication daemon.
"""

import math

import numpy as np
import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    merge_snapshots,
    percentile,
    percentiles,
)
from repro.sim import Summary, Tally


# -- counters --------------------------------------------------------------

def test_counter_group_incr_missing_key_and_as_dict():
    group = CounterGroup("http")
    ops = [("requests", 1), ("requests", 1), ("dropped", 3),
           ("completed", 1), ("requests", 2)]
    for key, by in ops:
        group.incr(key, by=by)
    group.incr("completed")
    assert group["requests"] == 4
    assert group["completed"] == 2
    assert group["absent"] == 0
    # reading a missing key neither creates nor reports it
    assert group.as_dict() == {"requests": 4, "dropped": 3, "completed": 2}


# -- gauges ----------------------------------------------------------------

def test_gauge_set_and_add():
    gauge = Gauge("loadd.bytes_sent")
    assert gauge.value == 0.0
    gauge.set(10.0)
    gauge.add(2.5)
    gauge.add(-0.5)
    assert gauge.value == 12.0
    gauge.set(1.0)
    assert gauge.value == 1.0


# -- histograms ------------------------------------------------------------

def test_histogram_bucket_placement():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 3.0, 100.0):
        hist.record(v)
    # bounds are inclusive upper edges; the last bucket is overflow
    assert hist.counts == [2, 1, 1, 1]
    assert hist.bucket_counts() == {"1": 2, "2": 1, "4": 1, "+inf": 1}
    assert hist.count == 5
    assert hist.total == pytest.approx(106.0)
    assert hist.minimum == 0.5 and hist.maximum == 100.0
    assert hist.mean == pytest.approx(106.0 / 5)


def test_histogram_percentiles_interpolate_and_clamp():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for _ in range(10):
        hist.record(1.5)     # all in the (1, 2] bucket
    # interpolation stays inside the containing bucket...
    assert 1.0 <= hist.p50 <= 2.0
    # ...and is clamped to the observed range
    assert hist.p99 == pytest.approx(1.5)
    assert hist.percentile(0) == pytest.approx(1.5)
    assert hist.percentile(100) == pytest.approx(1.5)


def test_histogram_percentile_tracks_exact_for_spread_data():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.002, 30.0, size=2000)
    hist = Histogram("latency")          # default LATENCY_BUCKETS
    for v in values:
        hist.record(v)
    for q in (50, 95, 99):
        exact = float(np.percentile(values, q))
        # geometric buckets: the estimate lands within one bucket width
        assert hist.percentile(q) == pytest.approx(exact, rel=0.35)


def test_histogram_edge_cases():
    hist = Histogram("h", bounds=(1.0,))
    assert math.isnan(hist.p50)
    assert math.isnan(hist.mean)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)
    hist.record(3.0)
    assert hist.p50 == pytest.approx(3.0)  # single value: clamped to it
    with pytest.raises(ValueError):
        Histogram("bad", bounds=())
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(1.0, 1.0))


def test_exponential_buckets():
    assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
    assert len(LATENCY_BUCKETS) == 18
    assert LATENCY_BUCKETS[0] == pytest.approx(1e-3)
    assert all(b < c for b, c in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:]))
    with pytest.raises(ValueError):
        exponential_buckets(0.0, 2.0, 3)
    with pytest.raises(ValueError):
        exponential_buckets(1.0, 1.0, 3)
    with pytest.raises(ValueError):
        exponential_buckets(1.0, 2.0, 0)


# -- the registry ----------------------------------------------------------

def test_registry_create_on_first_use_shares_instruments():
    registry = MetricsRegistry()
    a = registry.counters("http")
    b = registry.counters("http")
    assert a is b
    assert registry.gauge("g") is registry.gauge("g")
    h1 = registry.histogram("h", bounds=(1.0, 2.0))
    h2 = registry.histogram("h", bounds=(5.0, 6.0))  # later bounds ignored
    assert h1 is h2 and h1.bounds == (1.0, 2.0)


def test_registry_snapshot_structure():
    registry = MetricsRegistry()
    registry.counters("http").incr("requests", by=3)
    registry.counters("cache").incr("replications")
    registry.gauge("loadd.bytes_sent").set(640.0)
    hist = registry.histogram("http.response_time_s", bounds=(1.0, 2.0))
    snap = registry.snapshot()
    assert snap["counters"] == {"cache.replications": 1, "http.requests": 3}
    assert snap["gauges"] == {"loadd.bytes_sent": 640.0}
    empty = snap["histograms"]["http.response_time_s"]
    assert empty["count"] == 0 and empty["p95"] is None
    hist.record(1.5)
    snap = registry.snapshot()
    filled = snap["histograms"]["http.response_time_s"]
    assert filled["count"] == 1
    assert filled["mean"] == pytest.approx(1.5)
    assert filled["buckets"] == {"1": 0, "2": 1, "+inf": 0}


# -- snapshot merge (the sharded runner's fold) ----------------------------

def test_histogram_absorb_and_from_snapshot_round_trip():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0, 9.0):
        hist.record(v)
    rebuilt = Histogram.from_snapshot("h", hist.snapshot_entry())
    assert rebuilt.snapshot_entry() == hist.snapshot_entry()
    assert rebuilt.minimum == 0.5 and rebuilt.maximum == 9.0

    # absorbing an empty batch is a no-op; mismatched shapes refuse
    before = rebuilt.snapshot_entry()
    rebuilt.absorb([0, 0, 0, 0], 0, 0.0, float("inf"), float("-inf"))
    assert rebuilt.snapshot_entry() == before
    with pytest.raises(ValueError, match="bucket"):
        rebuilt.absorb([1, 2], 3, 1.0, 0.1, 0.9)
    with pytest.raises(ValueError, match="count"):
        rebuilt.absorb([0, 0, 0, 0], -1, 0.0, 0.0, 0.0)
    # pre-``bounds`` snapshots cannot be merged
    legacy = {k: v for k, v in hist.snapshot_entry().items()
              if k != "bounds"}
    with pytest.raises(ValueError, match="bounds"):
        Histogram.from_snapshot("h", legacy)


def _populated_registry(seed: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counters("http").incr("requests", by=10 + seed)
    registry.counters("cache").incr("hits", by=seed)
    registry.gauge("loadd.bytes_sent").add(100.0 * seed)
    hist = registry.histogram("rt", bounds=(1.0, 2.0, 4.0))
    for v in (0.5 * seed, 1.5, 3.0 + seed):
        hist.record(v)
    return registry


def test_merge_snapshots_equals_one_combined_registry():
    """Merging per-shard snapshots == recording everything in one
    registry — the bit-equality contract run_grid relies on."""
    combined = MetricsRegistry()
    snaps = []
    for seed in (1, 2, 3):
        shard = _populated_registry(seed)
        snaps.append(shard.snapshot())
        combined.counters("http").incr("requests", by=10 + seed)
        combined.counters("cache").incr("hits", by=seed)
        combined.gauge("loadd.bytes_sent").add(100.0 * seed)
        hist = combined.histogram("rt", bounds=(1.0, 2.0, 4.0))
        for v in (0.5 * seed, 1.5, 3.0 + seed):
            hist.record(v)
    merged = merge_snapshots(snaps)
    serial = combined.snapshot()
    assert merged["counters"] == serial["counters"]
    assert merged["gauges"] == serial["gauges"]
    mh, sh = merged["histograms"]["rt"], serial["histograms"]["rt"]
    assert mh["buckets"] == sh["buckets"]
    assert mh["count"] == sh["count"]
    assert mh["min"] == sh["min"] and mh["max"] == sh["max"]
    assert mh["total"] == pytest.approx(sh["total"])
    assert mh["p95"] == pytest.approx(sh["p95"])


def test_merge_snapshots_edge_cases():
    assert merge_snapshots([]) == {"counters": {}, "gauges": {},
                                   "histograms": {}}
    one = _populated_registry(2).snapshot()
    merged = merge_snapshots([one])
    assert merged["counters"] == one["counters"]
    assert merged["histograms"]["rt"] == one["histograms"]["rt"]
    # disjoint instrument sets union cleanly
    other = MetricsRegistry()
    other.counters("dns").incr("lookups", by=7)
    both = merge_snapshots([one, other.snapshot()])
    assert both["counters"]["dns.lookups"] == 7
    assert both["counters"]["http.requests"] == one["counters"]["http.requests"]
    # histograms with different bounds refuse to merge
    a = MetricsRegistry()
    a.histogram("rt", bounds=(1.0,)).record(0.5)
    with pytest.raises(ValueError, match="bounds"):
        merge_snapshots([one, a.snapshot()])


def test_reprs_are_informative():
    registry = MetricsRegistry()
    group = registry.counters("http")
    group.incr("requests")
    hist = registry.histogram("h", bounds=(1.0,))
    hist.record(0.5)
    assert "http" in repr(group)
    assert "bytes" in repr(Gauge("bytes"))
    assert "n=1" in repr(hist)
    assert "counters=1" in repr(registry)


# -- one percentile implementation, everywhere -----------------------------

def test_percentile_helpers_agree_with_numpy():
    values = [4.0, 1.0, 9.0, 2.5, 7.75, 0.5, 3.0]
    for q in (0, 25, 50, 90, 95, 99, 100):
        expected = float(np.percentile(values, q))
        assert percentile(values, q) == pytest.approx(expected)
    p50, p90 = percentiles(values, (50, 90))
    assert p50 == pytest.approx(float(np.percentile(values, 50)))
    assert p90 == pytest.approx(float(np.percentile(values, 90)))
    assert all(math.isnan(v) for v in percentiles([], (50, 95)))


def test_every_percentile_producer_agrees():
    """Summary, Tally, Metrics and the obs helper share one definition."""
    from repro.web import Metrics

    values = [0.12, 0.5, 0.33, 1.8, 0.07, 0.95, 2.4, 0.61]
    summary = Summary.of(values)
    tally = Tally()
    metrics = Metrics()
    for i, v in enumerate(values):
        tally.record(v)
        rec = metrics.new_record(f"/doc{i}", start=10.0 * i)
        metrics.finish(rec, end=10.0 * i + v, status=200)
    for q in (50, 90, 99):
        expected = float(np.percentile(values, q))
        assert percentile(values, q) == pytest.approx(expected)
        assert tally.percentile(q) == pytest.approx(expected)
        assert metrics.response_percentile(q) == pytest.approx(expected)
    assert summary.p50 == pytest.approx(float(np.percentile(values, 50)))
    assert summary.p90 == pytest.approx(float(np.percentile(values, 90)))
    assert summary.p99 == pytest.approx(float(np.percentile(values, 99)))


def test_metrics_publishes_into_registry():
    from repro.web import Metrics

    registry = MetricsRegistry()
    metrics = Metrics(registry=registry)
    rec = metrics.new_record("/a", start=0.0)
    metrics.finish(rec, end=0.25, status=200)
    rec = metrics.new_record("/b", start=1.0)
    metrics.drop(rec, end=3.0, reason="timeout")
    snap = registry.snapshot()
    assert snap["counters"]["http.requests"] == 2
    assert snap["counters"]["http.completed"] == 1
    assert snap["counters"]["http.dropped_timeout"] == 1
    hist = snap["histograms"]["http.response_time_s"]
    assert hist["count"] == 1 and hist["total"] == pytest.approx(0.25)
    # Metrics.counters IS the registry's http group, not a copy.
    assert metrics.counters is registry.counters("http")


# -- subsystem publishing through a real run -------------------------------

def test_loadd_and_cache_publish_into_cluster_registry():
    from repro.experiments.cache_coop import (
        CONFIGS, N_HOT, TAIL_WEIGHT, hot_cold_corpus)
    from repro.experiments.runner import run_scenario
    from repro.sim import RandomStreams
    from repro.workload import Scenario, burst_workload, zipf_sampler
    from repro.cluster import meiko_cs2

    corpus = hot_cold_corpus(6)
    sampler = zipf_sampler(corpus, RandomStreams(seed=7), alpha=1.0,
                           hot_set=N_HOT, tail_weight=TAIL_WEIGHT)
    scenario = Scenario(name="obs-registry", spec=meiko_cs2(6),
                        corpus=corpus, workload=burst_workload(6, 20.0, sampler),
                        policy="sweb", seed=7, client_timeout=600.0,
                        backlog=1024, params=CONFIGS["dir+repl"]())
    result = run_scenario(scenario)
    cluster = result.cluster
    snap = cluster.registry.snapshot()

    loadd = snap["counters"]
    assert loadd["loadd.broadcasts"] == sum(
        d.broadcasts for d in cluster.loadds.values())
    assert loadd["loadd.messages"] == sum(
        d.messages_sent for d in cluster.loadds.values())
    assert loadd["loadd.broadcasts"] > 0
    assert snap["gauges"]["loadd.bytes_sent"] == pytest.approx(
        sum(d.bytes_sent for d in cluster.loadds.values()))

    assert cluster.total_replications() > 0
    assert loadd["cache.replications"] == cluster.total_replications()
    assert loadd["cache.bytes_replicated"] == pytest.approx(
        cluster.replicator.bytes_replicated)

    # the client-facing metrics share the same registry
    assert loadd["http.requests"] == result.metrics.total
    hist = snap["histograms"]["http.response_time_s"]
    assert hist["count"] == result.metrics.completed


test_loadd_and_cache_publish_into_cluster_registry.__coverage_gate_skip__ = (
    True)
