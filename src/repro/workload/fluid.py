"""Aggregate (fluid) client-population model for million-request runs.

The per-client simulation path (``repro.web.Client`` + the full httpd
stack) spawns several kernel processes and dozens of events per request
— faithful, but topping out around a few thousand requests per second
of wall time.  The paper's claim is *scalability*, and the cluster-
scheduling literature evaluates policies at 10^5–10^6 task scale, so
this module trades protocol fidelity for throughput: **one** simulator
process drives a Poisson arrival *stream* whose per-request state lives
in array-backed records, and the cluster is modelled as fluid queues —
per-node virtual busy-clocks advanced analytically, no per-request
kernel events.

What is kept from the full model (see ``docs/SCALING.md`` for the full
assumption table):

* two-stage assignment — round-robin DNS picks a home node, then a
  broker argmin over estimated completion times re-routes with a
  redirection penalty when another node would finish sooner;
* Zipf(alpha) path popularity with a RAM-hot head: the ``hot_set``
  most popular paths are served at memory bandwidth, the tail at disk
  bandwidth (the cooperative-cache steady state);
* deterministic named RNG substreams, so a (scenario, seed) pair is
  exactly replayable and fingerprintable.

What is deliberately dropped: connection handshakes, HTTP parsing,
retries/faults, loadd staleness (the fluid broker sees true queue
state), and per-transfer bandwidth sharing (FIFO service instead of
processor sharing).  Arrival batches are drawn vectorised with numpy;
the only per-request work is the queue update, which is why a million
requests complete in seconds (``sweb-repro bench --scale L``).
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from ..obs import LATENCY_BUCKETS, MetricsRegistry
from ..sched import SpeedFactors, fluid_policy_names, rank_preferences
from ..sim import RandomStreams, Simulator

__all__ = ["FluidRecords", "FluidRequest", "FluidResult", "FluidScenario",
           "run_fluid"]


@dataclass(frozen=True)
class FluidScenario:
    """One fluid-model experimental cell: population, corpus and cluster.

    Defaults describe a modern-hardware regime near (but below) cluster
    saturation rather than the paper's 1996 testbeds — the fluid model
    exists to explore request volumes the testbeds could never see; the
    faithful constants stay with the per-client path.
    """

    name: str = "fluid"
    #: number of server nodes (fluid queues)
    nodes: int = 6
    #: offered Poisson arrival rate, requests per simulated second
    rate: float = 2000.0
    #: total requests in the run
    n_requests: int = 100_000
    #: corpus size; path popularity is Zipf(alpha) over ranks 0..n_paths-1
    n_paths: int = 512
    #: Zipf exponent; None = uniform popularity
    alpha: Optional[float] = 1.0
    seed: int = 1
    #: mean document size (sizes are exponential around it, per path)
    mean_file_bytes: float = 2e4
    #: the hot head: this many top-ranked paths are served from RAM
    hot_set: int = 32
    #: fixed per-request CPU cost, seconds (accept + parse + dispatch)
    t_cpu: float = 7e-4
    #: client-visible penalty when the broker moves a request off its
    #: DNS home node (the 302 round trip, fluid-sized)
    t_redirect: float = 4e-4
    #: disk and RAM service bandwidths, bytes/second
    disk_bps: float = 5e7
    mem_bps: float = 4e8
    #: arrivals generated (and bucketed) this many at a time.  Part of
    #: the cell identity: regrouping the arrival cumsum moves float
    #: rounding at the ULP level, so two runs are bit-identical only at
    #: the same batch (docs/SCALING.md)
    batch: int = 65_536
    #: which choice rule routes requests — any name in
    #: ``repro.sched.fluid_policy_names()`` (docs/SCHEDULING.md)
    policy: str = "sweb"
    #: optional per-node speed multipliers on the homogeneous baseline
    #: (the :class:`repro.sched.SpeedFactors` model applied to analytic
    #: service times); ``None`` = homogeneous.  Lengths must equal
    #: ``nodes``.  ``cpu_factors`` scales the fixed CPU cost,
    #: ``disk_factors`` the tail (disk) bandwidth, ``mem_factors`` the
    #: hot-set (RAM) bandwidth.
    cpu_factors: Optional[tuple[float, ...]] = None
    disk_factors: Optional[tuple[float, ...]] = None
    mem_factors: Optional[tuple[float, ...]] = None

    @property
    def heterogeneous(self) -> bool:
        """True when any per-node speed factors are supplied."""
        return (self.cpu_factors is not None
                or self.disk_factors is not None
                or self.mem_factors is not None)

    def with_seed(self, seed: int) -> "FluidScenario":
        """The same cell at a different seed (grid helper)."""
        return replace(self, seed=seed)

    def with_policy(self, policy: str) -> "FluidScenario":
        """The same cell under a different choice rule."""
        return replace(self, policy=policy)

    def with_speed_factors(self, factors: SpeedFactors) -> "FluidScenario":
        """The same cell on a heterogeneous cluster (tournament helper)."""
        return replace(self, cpu_factors=factors.cpu,
                       disk_factors=factors.disk, mem_factors=factors.mem)

    def validate(self) -> None:
        """Raise ``ValueError`` on a malformed cell."""
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        for name in ("rate", "mean_file_bytes", "disk_bps", "mem_bps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {value}")
        for name in ("t_cpu", "t_redirect"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value}")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite or None, "
                             f"got {self.alpha}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, "
                             f"got {self.n_requests}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 0 <= self.hot_set <= self.n_paths:
            raise ValueError(f"hot_set must be in 0..{self.n_paths}, "
                             f"got {self.hot_set}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.policy not in fluid_policy_names():
            raise ValueError(f"unknown fluid policy {self.policy!r}; "
                             f"choose from {fluid_policy_names()}")
        for kind, factors in (("cpu_factors", self.cpu_factors),
                              ("disk_factors", self.disk_factors),
                              ("mem_factors", self.mem_factors)):
            if factors is None:
                continue
            if len(factors) != self.nodes:
                raise ValueError(f"{kind} must have one entry per node "
                                 f"({self.nodes}), got {len(factors)}")
            if not all(math.isfinite(f) and f > 0 for f in factors):
                raise ValueError(f"{kind} must be finite and > 0, "
                                 f"got {factors}")


class FluidRequest:
    """A lightweight view of one fluid request (``__slots__``-only).

    Materialised on demand from :class:`FluidRecords` columns — the
    simulation itself never builds these; per-request state stays in
    the arrays.
    """

    __slots__ = ("arrival", "latency", "node", "path_rank", "redirected")

    def __init__(self, arrival: float, latency: float, node: int,
                 path_rank: int, redirected: bool) -> None:
        self.arrival = arrival
        self.latency = latency
        self.node = node
        self.path_rank = path_rank
        self.redirected = redirected

    def __repr__(self) -> str:
        return (f"<FluidRequest t={self.arrival:.4f} lat={self.latency:.4f} "
                f"node={self.node} rank={self.path_rank} "
                f"redirected={self.redirected}>")


class FluidRecords:
    """Column-oriented per-request records (``array``-backed).

    One entry per request: arrival time, client-observed latency, the
    serving node, the requested path's popularity rank, and whether the
    broker moved it off its DNS home.  ~21 bytes per request instead of
    a boxed object — a million requests fit in ~21 MB.
    """

    __slots__ = ("arrivals", "latencies", "nodes", "path_ranks",
                 "redirected")

    def __init__(self) -> None:
        self.arrivals = array("d")
        self.latencies = array("d")
        self.nodes = array("i")
        self.path_ranks = array("i")
        self.redirected = array("b")

    def __len__(self) -> int:
        return len(self.arrivals)

    def __getitem__(self, i: int) -> FluidRequest:
        return FluidRequest(self.arrivals[i], self.latencies[i],
                            self.nodes[i], self.path_ranks[i],
                            bool(self.redirected[i]))

    def __iter__(self) -> Iterator[FluidRequest]:
        for i in range(len(self)):
            yield self[i]


@dataclass
class FluidResult:
    """Outcome of one :func:`run_fluid` call."""

    scenario: FluidScenario
    #: per-request columns (None when ``keep_records=False``)
    records: Optional[FluidRecords]
    #: per-process metrics registry the run published into
    registry: MetricsRegistry
    #: sha256 over every per-request outcome, streamed batch by batch —
    #: identical for identical (scenario, seed) regardless of process,
    #: shard assignment or record retention
    fingerprint: str
    #: simulated time of the last request completion
    finished_at: float
    #: kernel events processed (a handful per batch, not per request)
    event_count: int
    n_requests: int = 0
    redirected: int = 0
    served: list[int] = field(default_factory=list)

    def snapshot(self) -> dict:
        """The registry snapshot (the mergeable per-shard artifact)."""
        return self.registry.snapshot()

    def summary_line(self) -> str:
        """One-line headline, mirroring ``ScenarioResult.summary_line``."""
        hist = self.registry.histogram("fluid.latency_s")
        return (f"{self.scenario.name}: offered={self.scenario.rate:.0f} rps, "
                f"completed={self.n_requests}, "
                f"redirected={self.redirected / max(1, self.n_requests):.1%}, "
                f"mean_rt={hist.mean:.4f}s")


def _service_rows(scenario: FluidScenario,
                  rng: RandomStreams) -> "list[list[float]]":
    """Per-path service times: ``rows[rank][node]``.

    Sizes draw once per path from the ``fluid-sizes`` substream; the
    ``hot_set`` most popular ranks move at memory bandwidth, the tail at
    disk bandwidth.  Each entry prices the fixed CPU cost at the node's
    ``cpu_factors`` entry and the transfer at its RAM/disk factor.  A
    homogeneous cell uses unit factors, and dividing or multiplying by
    1.0 is exact, so each of its rows repeats the historical homogeneous
    service time bit for bit.
    """
    gen = rng.stream("fluid-sizes")
    sizes = gen.exponential(scenario.mean_file_bytes,
                            size=scenario.n_paths)
    unit = (1.0,) * scenario.nodes
    cpu_f = np.asarray(scenario.cpu_factors or unit, dtype=float)
    disk_f = np.asarray(scenario.disk_factors or unit, dtype=float)
    mem_f = np.asarray(scenario.mem_factors or unit, dtype=float)
    hot = (np.arange(scenario.n_paths) < scenario.hot_set)[:, None]
    bandwidth = np.where(hot, scenario.mem_bps * mem_f,
                         scenario.disk_bps * disk_f)
    return (scenario.t_cpu / cpu_f + sizes[:, None] / bandwidth).tolist()


def _choice_rule(scenario: FluidScenario, rng: RandomStreams,
                 busy: "list[float]"):
    """The policy's choice rule for the shared batch loop: ``(choose, draw)``.

    ``choose(arrival, home, row, rank) -> node`` picks the serving node
    from the true busy clocks, given the request's DNS home, its
    service-time row (one entry per node) and its path rank.  ``draw(m)``,
    when not None, runs once per batch of ``m`` arrivals to pre-draw the
    rule's samples from its own substream (``fluid-choice``,
    ``fluid-po2``), which never perturbs the arrival, path or size draws
    of existing runs.
    """
    policy = scenario.policy
    n_nodes = scenario.nodes
    node_range = range(n_nodes)
    draw = None

    if policy == "sweb":
        # Broker argmin over estimated completions, each node priced at
        # its own service time; moving off the DNS home costs the
        # redirect penalty.
        t_redirect = scenario.t_redirect

        def choose(a, home, row, rank):
            best = home
            b = busy[home]
            best_score = (b if b > a else a) + row[home]
            for j in node_range:
                if j == home:
                    continue
                b = busy[j]
                score = (b if b > a else a) + row[j] + t_redirect
                if score < best_score:
                    best_score = score
                    best = j
            return best

    elif policy == "round-robin":
        def choose(a, home, row, rank):
            return home

    elif policy == "random":
        choice_gen = rng.stream("fluid-choice")
        picks: Iterator[int] = iter(())

        def draw(m):
            nonlocal picks
            picks = iter(choice_gen.integers(0, n_nodes, size=m).tolist())

        def choose(a, home, row, rank):
            return next(picks)

    elif policy in ("jsq", "po2"):
        # Per-node FIFO queues of finish times: finishes are appended in
        # nondecreasing order (busy clocks only advance), so draining
        # the front past the arrival instant is amortised O(1) and
        # len(queue) is the exact in-service job count.
        queues = [deque() for _ in node_range]

        def count(j, a):
            q = queues[j]
            while q and q[0] <= a:
                q.popleft()
            return len(q)

        def join(j, a, row):
            # book the finish the batch loop is about to give this request
            b = busy[j]
            queues[j].append((b if b > a else a) + row[j])
            return j

        if policy == "jsq":
            def choose(a, home, row, rank):
                best = home
                best_count = count(home, a)
                for j in node_range:
                    if j == home:
                        continue
                    c = count(j, a)
                    if c < best_count:
                        best_count = c
                        best = j
                return join(best, a, row)
        else:
            po2_gen = rng.stream("fluid-po2")
            pairs: Iterator[tuple[int, int]] = iter(())

            def draw(m):
                nonlocal pairs
                if n_nodes == 1:
                    pairs = iter([(0, 0)] * m)
                else:
                    pairs = zip(
                        po2_gen.integers(0, n_nodes, size=m).tolist(),
                        po2_gen.integers(0, n_nodes - 1, size=m).tolist())

            def choose(a, home, row, rank):
                x, y = next(pairs)
                if y >= x and n_nodes > 1:  # second sample over the rest
                    y += 1
                return join(y if count(y, a) < count(x, a) else x, a, row)

    elif policy == "lwl":
        # Outstanding work in seconds; busy clocks already run in each
        # node's own time, so the comparison is speed-normalised for
        # free on heterogeneous clusters.
        def choose(a, home, row, rank):
            best = home
            w = busy[home] - a
            best_w = w if w > 0.0 else 0.0
            for j in node_range:
                if j == home:
                    continue
                w = busy[j] - a
                if w < 0.0:
                    w = 0.0
                if w < best_w:
                    best_w = w
                    best = j
            return best

    elif policy == "chash":
        prefs = rank_preferences(scenario.n_paths, n_nodes)
        inv_n = 1.0 / n_nodes

        def choose(a, home, row, rank):
            total_w = 0.0
            for j in node_range:
                w = busy[j] - a
                if w > 0.0:
                    total_w += w
            mean_w = total_w * inv_n
            # Bounded load: the owner keeps the request unless its
            # backlog exceeds twice the cluster mean plus the request
            # itself; then walk the spill order.
            order = prefs[rank]
            for j in order:
                w = busy[j] - a
                if w < 0.0:
                    w = 0.0
                if w <= 2.0 * mean_w + row[j]:
                    return j
            return order[0]

    else:
        raise ValueError(f"no fluid choice rule for policy {policy!r}")
    return choose, draw


def _make_stepper(scenario: FluidScenario, rng: RandomStreams,
                  rows: "list[list[float]]",
                  busy: "list[float]", served: "list[int]"):
    """Build the per-batch loop for ``scenario.policy``.

    The loop consumes one arrival batch and fills the latency / node /
    redirected columns, advancing the shared ``busy`` clocks and
    ``served`` counters; the round-robin DNS cursor lives in the
    closure, carried across batches.  Every (policy, cluster) pair runs
    the shared loop around its choice rule (:func:`_choice_rule`), except
    one.

    Homogeneous ``sweb`` keeps its own inlined loop: the historical
    inner loop, unchanged, so the pre-zoo fingerprints hold bit for bit
    (pinned in ``tests/test_sched_policies.py``).  It is the hot path of
    the fluid benchmarks, and the shared loop is measurably slower on
    it.  Unit speed factors send the same cell through the shared loop
    with an identical fingerprint; on a 2-vCPU Intel Xeon host that
    costs a median 11% of req/s (8 alternating 250 k-request runs at
    5000 rps), and variants that vectorised the loop tail or inlined
    per-node rows still cost 7-11%.
    """
    n_nodes = scenario.nodes
    t_redirect = scenario.t_redirect
    rr = 0  # round-robin DNS cursor, carried across batches

    if scenario.policy == "sweb" and not scenario.heterogeneous:
        service = [row[0] for row in rows]
        node_range = range(n_nodes)

        def step(m, arr_list, rank_list, lat, node_col, red_col):
            nonlocal rr
            redirected = 0
            for i in range(m):
                a = arr_list[i]
                s = service[rank_list[i]]
                home = rr
                rr = rr + 1
                if rr == n_nodes:
                    rr = 0
                # Broker argmin over estimated completions; moving off
                # the DNS home node costs the redirect penalty.
                best = home
                b = busy[home]
                best_score = (b if b > a else a) + s
                for j in node_range:
                    if j == home:
                        continue
                    b = busy[j]
                    score = (b if b > a else a) + s + t_redirect
                    if score < best_score:
                        best_score = score
                        best = j
                busy[best] = finish = ((busy[best] if busy[best] > a else a)
                                       + s)
                served[best] += 1
                if best != home:
                    latency = finish - a + t_redirect
                    redirected += 1
                    red_col[i] = 1
                else:
                    latency = finish - a
                lat[i] = latency
                node_col[i] = best
            return redirected
        return step

    choose, draw = _choice_rule(scenario, rng, busy)

    def step(m, arr_list, rank_list, lat, node_col, red_col):
        nonlocal rr
        if draw is not None:
            draw(m)
        redirected = 0
        for i in range(m):
            a = arr_list[i]
            rank = rank_list[i]
            row = rows[rank]
            home = rr
            rr = rr + 1
            if rr == n_nodes:
                rr = 0
            best = choose(a, home, row, rank)
            b = busy[best]
            busy[best] = finish = (b if b > a else a) + row[best]
            served[best] += 1
            if best != home:
                latency = finish - a + t_redirect
                redirected += 1
                red_col[i] = 1
            else:
                latency = finish - a
            lat[i] = latency
            node_col[i] = best
        return redirected
    return step


def _popularity_cdf(scenario: FluidScenario) -> Optional[np.ndarray]:
    """CDF over path ranks for inverse-transform sampling (None=uniform)."""
    if scenario.alpha is None:
        return None
    ranks = np.arange(1, scenario.n_paths + 1, dtype=float)
    weights = ranks ** (-float(scenario.alpha))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def run_fluid(scenario: FluidScenario,
              registry: Optional[MetricsRegistry] = None,
              keep_records: bool = True) -> FluidResult:
    """Run one fluid-population cell to completion.

    One simulator process advances batch by batch: numpy draws a batch
    of Poisson arrivals and Zipf path ranks, a ``sim.timeout`` jumps the
    kernel clock to the batch end, and a tight scalar loop applies the
    two-stage assignment to per-node busy-clocks.  Metrics go into
    ``registry`` under the ``fluid.*`` namespace (histogram
    ``fluid.latency_s`` on the shared ``LATENCY_BUCKETS``), and a
    streaming sha256 fingerprints every outcome for the shard runner's
    determinism checks.
    """
    scenario.validate()
    registry = registry if registry is not None else MetricsRegistry()
    rng = RandomStreams(seed=scenario.seed)
    rows = _service_rows(scenario, rng)
    cdf = _popularity_cdf(scenario)
    arrivals_gen = rng.stream("fluid-arrivals")
    paths_gen = rng.stream("fluid-paths")
    bounds = np.asarray(LATENCY_BUCKETS)

    n_nodes = scenario.nodes
    busy = [0.0] * n_nodes
    served = [0] * n_nodes
    step = _make_stepper(scenario, rng, rows, busy, served)
    records = FluidRecords() if keep_records else None
    digest = hashlib.sha256()
    bucket_counts = np.zeros(len(bounds) + 1, dtype=np.int64)
    totals = {"latency_sum": 0.0, "lat_min": float("inf"),
              "lat_max": float("-inf"), "redirected": 0}

    sim = Simulator()

    def driver():  # noqa: ANN202 - kernel process generator
        clock = 0.0
        remaining = scenario.n_requests
        while remaining > 0:
            m = min(scenario.batch, remaining)
            remaining -= m
            gaps = arrivals_gen.exponential(1.0 / scenario.rate, size=m)
            arrivals = np.cumsum(gaps) + clock
            clock = float(arrivals[-1])
            if cdf is None:
                ranks = paths_gen.integers(0, scenario.n_paths, size=m)
            else:
                ranks = np.searchsorted(cdf, paths_gen.random(m),
                                        side="right")
            # Jump the kernel to the batch horizon: the only events this
            # model schedules are one timeout per batch.
            if clock > sim.now:
                yield sim.timeout(clock - sim.now)

            arr_list = arrivals.tolist()
            rank_list = ranks.tolist()
            lat = array("d", bytes(8 * m))
            node_col = array("i", bytes(4 * m))
            red_col = array("b", bytes(m))
            redirected = step(m, arr_list, rank_list, lat, node_col, red_col)

            lat_np = np.frombuffer(lat, dtype=np.float64)
            bucket_counts[:] += np.bincount(
                np.searchsorted(bounds, lat_np, side="left"),
                minlength=len(bounds) + 1)
            totals["latency_sum"] += float(lat_np.sum())
            totals["lat_min"] = min(totals["lat_min"], float(lat_np.min()))
            totals["lat_max"] = max(totals["lat_max"], float(lat_np.max()))
            totals["redirected"] += redirected
            digest.update(arrivals.tobytes())
            digest.update(lat.tobytes())
            digest.update(node_col.tobytes())
            if records is not None:
                records.arrivals.extend(arr_list)
                records.latencies.extend(lat)
                records.nodes.extend(node_col)
                records.path_ranks.extend(rank_list)
                records.redirected.extend(red_col)

    sim.run(until=sim.spawn(driver(), name="fluid-driver"))

    counters = registry.counters("fluid")
    counters.incr("requests", by=scenario.n_requests)
    counters.incr("redirected", by=totals["redirected"])
    node_counters = registry.counters("fluid.served")
    for node_id, count in enumerate(served):
        node_counters.incr(f"n{node_id}", by=count)
    hist = registry.histogram("fluid.latency_s")
    hist.absorb(bucket_counts.tolist(), scenario.n_requests,
                totals["latency_sum"], totals["lat_min"], totals["lat_max"])
    digest.update(repr(tuple(served)).encode())
    return FluidResult(
        scenario=scenario,
        records=records,
        registry=registry,
        fingerprint=digest.hexdigest(),
        finished_at=max(busy),
        event_count=sim.event_count,
        n_requests=scenario.n_requests,
        redirected=totals["redirected"],
        served=served,
    )
