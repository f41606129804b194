"""The measured part of one run: the program's run phase and its outcome.

``child.py`` imports this module only once its speed sampler runs,
because importing it imports the program (``repro`` and numpy), which
is part of the set-up the run measures.
"""

from __future__ import annotations

import gc
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy

from repro.experiments.runner import run_scenario
from repro.obs import MetricsRegistry, percentiles
from repro.sim import Simulator
from repro.sim.bandwidth import FairShareServer
from repro.web.server import HTTPServer
from repro.workload import FluidScenario, run_fluid

import checks
import workloads
from calibration import SpeedSampler
from layers import LAYERS, LayerProbe

__all__ = ["Evidence", "RunObserver", "measured_run", "scenario_evidence"]


class RunObserver:
    """Watches one run from outside the program, undoing it on exit.

    * the run phase: it starts at the first ``Simulator.run`` call (the
      first simulated event) and ends at :meth:`stop`;
    * the responses: every client connection a web server accepts is
      kept, and its ``reply`` is the response the client received.

    In a profiled run the speed sampler pauses for the run phase, so
    the profiler attributes none of its passes to the program.
    """

    def __init__(self, probe: Optional[LayerProbe],
                 sampler: SpeedSampler) -> None:
        self.probe = probe
        self.sampler = sampler
        self.accepted: list = []
        self.first_event: Optional[float] = None   # time.monotonic()
        self.cpu0 = self.cpu1 = self.wall1 = 0.0
        self._run = Simulator.run
        self._try_accept = HTTPServer.try_accept

    def __enter__(self) -> "RunObserver":
        original_run, original_accept = self._run, self._try_accept

        def run(sim, *args, **kwargs):
            if self.first_event is None:
                self.first_event = time.monotonic()
                self.cpu0 = time.process_time()
                if self.probe is not None:
                    self.sampler.stop()
                    self.probe.start()
            return original_run(sim, *args, **kwargs)

        def try_accept(server, conn):
            accepted = original_accept(server, conn)
            if accepted and conn.relay_to is None:
                self.accepted.append(conn)
            return accepted

        Simulator.run = run
        HTTPServer.try_accept = try_accept
        return self

    def __exit__(self, *exc: object) -> None:
        Simulator.run = self._run
        HTTPServer.try_accept = self._try_accept

    def stop(self) -> None:
        """End the run phase (call as soon as the workload returns)."""
        self.cpu1 = time.process_time()
        self.wall1 = time.monotonic()
        if self.probe is not None:
            self.probe.stop()
            self.sampler.start()

    @property
    def cpu_s(self) -> float:
        return self.cpu1 - self.cpu0

    @property
    def wall_s(self) -> float:
        return self.wall1 - self.first_event

    def response_bytes(self) -> dict[int, float]:
        """Request id -> body bytes of the last response its client got."""
        received = {}
        for conn in self.accepted:
            if conn.reply.triggered and conn.reply.ok:
                received[conn.record.req_id] = conn.reply.value.body_bytes
        return received


@dataclass
class Evidence:
    """What a per-client run left behind, in the form the checks take."""

    arrivals: list[tuple[float, str]]
    rows: list[checks.Row]
    sizes: dict[str, float]
    counters: dict[str, int]
    #: (req_id, traced, problems, reconciles); None when no tracer ran
    traces: Optional[list[tuple]]

    def failures(self) -> list[str]:
        failures = checks.check_settled(self.arrivals, self.rows,
                                        self.counters)
        failures += checks.check_bytes(self.rows, self.sizes)
        if self.traces is not None:
            failures += checks.check_traces(self.traces)
        return failures


def scenario_evidence(scenario, result, observer: RunObserver) -> Evidence:
    metrics = result.metrics
    received = observer.response_bytes()
    rows = [checks.Row(r.req_id, r.path, r.start, r.end, r.status, r.ok,
                       r.dropped, r.drop_reason, r.dns_node, r.served_by,
                       r.redirected, r.retries, r.source,
                       received.get(r.req_id))
            for r in sorted(metrics.records, key=lambda r: r.req_id)]
    return Evidence(
        arrivals=[(a.time, a.path) for a in scenario.workload],
        rows=rows,
        sizes={d.path: d.size for d in scenario.corpus.documents},
        counters=metrics.counters.as_dict(),
        traces=(trace_rows(scenario.tracer, metrics)
                if scenario.tracer is not None else None))


def scenario_outcome(evidence: Evidence, result, warmup_s: float) -> dict:
    rows = evidence.rows
    # Response-time percentiles skip the warm-up: the caches start empty.
    steady = [r.end - r.start for r in rows if r.ok and r.start >= warmup_s]
    p50, p99 = percentiles(steady, (50, 99)) if steady else (0.0, 0.0)
    sim = result.cluster.sim
    return {
        "issued": len(evidence.arrivals),
        "settled": sum(1 for r in rows if r.ok or r.dropped),
        "failed": sum(1 for r in rows if not r.ok),
        "steady_requests": len(steady),
        "sim_p50_s": p50,
        "sim_p99_s": p99,
        "failures": evidence.failures(),
        "fingerprint": checks.fingerprint(
            [*rows, result.finished_at, sim.event_count]),
        "event_count": sim.event_count,
    }


def trace_rows(tracer, metrics) -> list[tuple]:
    """Per request record: is it traced, its trace's problems, and
    whether the trace reconciles with the latency (None if not ok)."""
    out = []
    for rec in metrics.records:
        trace = tracer.get(rec.req_id)
        if trace is None:
            out.append((rec.req_id, False, [], None))
            continue
        reconciles = (trace.reconciles(rec.response_time)
                      if rec.ok and rec.response_time is not None else None)
        out.append((rec.req_id, True, trace.problems(), reconciles))
    return out


def run_fluid_cells(cells: tuple[FluidScenario, ...]) -> list:
    """Run every cell into one registry, so one histogram pools them."""
    registry = MetricsRegistry()
    return [run_fluid(cell, registry=registry, keep_records=False)
            for cell in cells]


def fluid_outcome(cells: tuple[FluidScenario, ...], results: list) -> dict:
    hist = results[0].registry.histogram("fluid.latency_s")
    failures = []
    for cell, result in zip(cells, results):
        failures += checks.check_fluid(cell.n_requests, result.n_requests,
                                       result.served)
    settled = sum(r.n_requests for r in results)
    return {
        "issued": sum(cell.n_requests for cell in cells),
        "settled": settled,
        "failed": 0,
        "steady_requests": settled,
        "sim_p50_s": hist.percentile(50),
        "sim_p99_s": hist.percentile(99),
        "failures": failures,
        "fingerprint": checks.fingerprint(
            [(r.fingerprint, r.n_requests, r.redirected, tuple(r.served),
              r.finished_at) for r in results]),
        "event_count": sum(r.event_count for r in results),
    }


def layer_metrics(probe: LayerProbe, inputs, result, out: dict,
                  cpu_s: float) -> dict:
    """The per-layer metrics of one traced run (None = n/a)."""
    settled = out["settled"]
    self_s, layer_calls = probe.layer_totals()

    def per_req(layer: str, scale: float = 1e6):
        return self_s[layer] / settled * scale if layer_calls[layer] else None

    def when(layer: str, value):
        return value if layer_calls[layer] else None

    m = {f"{layer}.self_us_per_req": per_req(layer)
         for layer in LAYERS if layer != "workload.fluid"}
    m["workload.fluid.self_ns_per_req"] = per_req("workload.fluid", 1e9)
    m["sim.engine.events_per_req"] = out["event_count"] / settled
    submits = probe.calls["FairShareServer.submit"]
    m["sim.bandwidth.submits_per_req"] = submits / settled if submits else None
    decisions = probe.calls["Broker.choose_server"]
    m["core.decisions_per_req"] = decisions / settled if decisions else None
    m["core.us_per_decision"] = (probe.call_ns["Broker.choose_server"]
                                 / decisions / 1e3 if decisions else None)
    if isinstance(inputs, tuple):   # fluid cells; result is their list
        m["workload.fluid.redirect_frac"] = (
            sum(r.redirected for r in result) / settled)
        m["sim.bandwidth.jobs_when_busy"] = None
        for name in ("cluster.page_cache_hit", "cluster.remote_read_frac",
                     "web.redirect_frac", "web.dns_cache_hit",
                     "cache.replications", "obs.spans_per_req"):
            m[name] = None
    else:
        m["workload.fluid.redirect_frac"] = None
        stations = [o for o in gc.get_objects()
                    if isinstance(o, FairShareServer)]
        busy = sum(s.busy_integral() for s in stations)
        m["sim.bandwidth.jobs_when_busy"] = (
            sum(s.population_integral() for s in stations) / busy
            if busy else None)
        m["cluster.page_cache_hit"] = when("cluster", result.cache_hit_rate())
        m["cluster.remote_read_frac"] = when("cluster",
                                             result.remote_read_fraction())
        m["web.redirect_frac"] = when("web", result.redirection_rate)
        m["web.dns_cache_hit"] = when("web", result.dns_cache_hit_rate())
        m["cache.replications"] = when("cache", result.replications)
        tracer = inputs.tracer
        m["obs.spans_per_req"] = (
            sum(len(t) for t in tracer.traces()) / settled
            if tracer is not None else None)
    m["gc.share"] = probe.gc_cpu_s / cpu_s
    m["trace.accounted"] = sum(self_s.values()) / cpu_s
    return m


def measured_run(workload: str, seed: int, scale: float, profile: bool,
                 spans_out: Optional[Path], sampler: SpeedSampler
                 ) -> dict[str, Any]:
    """Build the inputs, run the program once, check and measure it."""
    probe = LayerProbe() if profile else None
    if probe is not None:
        probe.install()
    params = workloads.parameters(workload, scale)
    with RunObserver(probe, sampler) as clock:
        inputs = workloads.build(workload, seed, scale)
        if isinstance(inputs, tuple):
            result = run_fluid_cells(inputs)
            clock.stop()
            out = fluid_outcome(inputs, result)
        else:
            result = run_scenario(inputs)
            clock.stop()
            out = scenario_outcome(scenario_evidence(inputs, result, clock),
                                   result, params["warmup_s"])

    report = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "profile": profile,
        "parameters": params,
        **out,
        "run_started_at": clock.first_event,
        "run_ended_at": clock.wall1,
        "run_cpu_s": clock.cpu_s,
        "run_wall_s": clock.wall_s,
        "drop_frac": out["failed"] / out["issued"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if probe is not None:
        report["layers"] = layer_metrics(probe, inputs, result, out,
                                         clock.cpu_s)
        report["failures"] += checks.check_accounted(
            report["layers"]["trace.accounted"])
        report["layer_calls"] = dict(probe.calls)
        if spans_out is not None:
            probe.write_spans(spans_out)
        probe.uninstall()
    return report
