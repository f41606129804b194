"""The benchmark's four workloads, generated from a seed.

Each workload is an open loop in simulated time: independent users
arriving at a fixed rate on a Poisson schedule.  The benchmark draws
the arrivals and picks the files itself, from ``random.Random`` seeded
by the workload name and the seed, so the program under test only ever
receives the generated inputs (a ``Workload`` of arrivals, a corpus, a
cluster spec, cost parameters).  The fluid workload is the exception the
fluid model's API imposes: ``run_fluid`` draws its own arrivals and its
file table from ``FluidScenario.seed``, which the benchmark derives from
the seed.  One cell's file table decides its median latency, which
swung by 7-11% between quartiles of ten seeds, so the workload runs
four cells of different seeds into one histogram.

``scale`` multiplies the amount of work (simulated seconds and the
warm-up they start with, or fluid requests) and nothing else, so the
load regime is the same at every scale; the smoke tests run at a tiny
scale.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.cluster import WANPath, meiko_cs2, sun_now
from repro.core import CostParameters
from repro.obs import Tracer
from repro.web import ClientProfile
from repro.workload import (
    Arrival,
    Corpus,
    Document,
    FluidScenario,
    MB,
    Scenario,
    Workload,
)

__all__ = ["WORKLOADS", "WorkloadSpec", "build", "parameters"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload's execution model and generator parameters.

    Why each workload exists is in ``BENCHMARK.json`` and README.md.
    """

    name: str
    kind: str        # "scenario" (per-client DES) or "fluid"
    params: dict[str, Any]


#: X10's hot/cold corpus shape: the hot set (16 x 3 MB, all on node 0)
#: overflows one Meiko node's 32 MB RAM but fits in six nodes' RAM.  The
#: cold-start storm (48 MB off one disk) lasts up to ~180 simulated
#: seconds, so response-time percentiles skip the first 180 s.  With
#: only 4 client hosts per profile, which node each host's 300 s DNS pin
#: lands on swung p99 by 11% between quartiles of ten seeds; 12 hosts
#: bring that to 3-6%.
_MEIKO = {"nodes": 6, "rps": 6.0, "duration_s": 2400.0, "warmup_s": 180.0,
          "n_hot": 16, "hot_bytes": 3.0 * MB, "n_cold": 60,
          "cold_bytes": 100e3, "alpha": 1.0, "tail_weight": 0.25,
          "dns_ttl_s": 300.0, "hosts_per_profile": 12,
          "client_timeout_s": 600.0, "backlog": 1024,
          # X10's "dir+repl" cooperative cache
          "cost_parameters": {
              "coop_cache": True, "cache_hot_set": 16, "replicate": True,
              "replication_factor": 3, "replication_period": 1.0,
              "replication_skew": 1.0, "replication_max_per_cycle": 16}}

WORKLOADS: dict[str, WorkloadSpec] = {
    "now_bus": WorkloadSpec(
        "now_bus", "scenario",
        {"nodes": 4, "rps": 0.4, "duration_s": 3600.0, "warmup_s": 300.0,
         "n_files": 40, "min_file_bytes": 1.35e6, "max_file_bytes": 1.65e6,
         "client_bps": 20e3, "client_latency_s": 0.1,
         "client_timeout_s": 300.0}),
    "meiko_coop": WorkloadSpec("meiko_coop", "scenario", dict(_MEIKO)),
    "fluid_zipf": WorkloadSpec(
        "fluid_zipf", "fluid",
        {"nodes": 6, "rps": 5000.0, "n_requests": 1_000_000, "cells": 4,
         "n_paths": 512, "alpha": 1.0, "policy": "sweb"}),
    "meiko_traced": WorkloadSpec(
        "meiko_traced", "scenario",
        dict(_MEIKO, tracer="Tracer(max_requests=None)")),
}


def parameters(name: str, scale: float = 1.0) -> dict[str, Any]:
    """The workload's parameters after scaling, for the result record."""
    spec = WORKLOADS[name]
    params = dict(spec.params, scale=scale)
    if spec.kind == "fluid":
        params["n_requests"] = max(1, round(spec.params["n_requests"] * scale))
    else:
        params["duration_s"] = spec.params["duration_s"] * scale
        params["warmup_s"] = spec.params["warmup_s"] * scale
    return params


def _poisson_times(rng: random.Random, rate: float,
                   duration: float) -> list[float]:
    times = []
    t = rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def _now_bus(seed: int, p: dict[str, Any]) -> Scenario:
    # Slow (modem-class) clients cap every transfer well below the bus
    # rate, so tens of transfers share the bus while it stays unsaturated.
    rng = random.Random(f"now_bus:{seed}")
    nodes = p["nodes"]
    docs = [Document(path=f"/data/file{i:05d}.gif",
                     size=float(round(rng.uniform(p["min_file_bytes"],
                                                  p["max_file_bytes"]))),
                     home=i % nodes) for i in range(p["n_files"])]
    arrivals = [Arrival(time=t, path=docs[rng.randrange(len(docs))].path,
                        client="modem")
                for t in _poisson_times(rng, p["rps"], p["duration_s"])]
    modem = ClientProfile(
        name="modem", domain="modem.example",
        wan=WANPath(latency=p["client_latency_s"], bandwidth=p["client_bps"],
                    name="modem"))
    return Scenario(
        name="now_bus", spec=sun_now(nodes),
        corpus=Corpus(name="table4-like", documents=docs),
        workload=Workload(name="now_bus", arrivals=arrivals,
                          duration=p["duration_s"]),
        policy="sweb", seed=seed, client_timeout=p["client_timeout_s"],
        profiles={"modem": modem})


def _meiko(seed: int, p: dict[str, Any], tracer: Optional[Tracer]) -> Scenario:
    # One arrival stream for both meiko workloads, so meiko_traced
    # replays meiko_coop's inputs exactly.
    rng = random.Random(f"meiko_coop:{seed}")
    nodes = p["nodes"]
    hot = [Document(path=f"/hot/doc{i:03d}.gif", size=p["hot_bytes"], home=0)
           for i in range(p["n_hot"])]
    cold = [Document(path=f"/cold/page{i:04d}.html", size=p["cold_bytes"],
                     home=i % nodes) for i in range(p["n_cold"])]
    cum_weights = list(itertools.accumulate(
        rank ** -p["alpha"] for rank in range(1, len(hot) + 1)))

    def pick() -> str:
        if rng.random() < p["tail_weight"]:
            return cold[rng.randrange(len(cold))].path
        u = rng.random() * cum_weights[-1]
        return hot[bisect.bisect_right(cum_weights, u)].path

    arrivals = [Arrival(time=t, path=pick())
                for t in _poisson_times(rng, p["rps"], p["duration_s"])]
    return Scenario(
        name="meiko_coop", spec=meiko_cs2(nodes),
        corpus=Corpus(name="hot-cold", documents=hot + cold),
        workload=Workload(name="meiko_coop", arrivals=arrivals,
                          duration=p["duration_s"]),
        policy="sweb", seed=seed, client_timeout=p["client_timeout_s"],
        backlog=p["backlog"], dns_ttl=p["dns_ttl_s"],
        hosts_per_profile=p["hosts_per_profile"],
        params=CostParameters(**p["cost_parameters"]),
        tracer=tracer)


def build(name: str, seed: int, scale: float = 1.0):
    """The program's inputs for one run.

    A ``Scenario`` for the per-client workloads; for ``fluid_zipf``, a
    tuple of ``FluidScenario`` cells that share ``n_requests``.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOADS)}")
    p = parameters(name, scale)
    if name == "now_bus":
        return _now_bus(seed, p)
    if name == "fluid_zipf":
        cells = p["cells"]
        return tuple(
            FluidScenario(
                name=f"fluid_zipf-{cell}", nodes=p["nodes"], rate=p["rps"],
                n_requests=max(1, p["n_requests"] // cells),
                n_paths=p["n_paths"], alpha=p["alpha"],
                seed=seed * cells + cell, policy=p["policy"])
            for cell in range(cells))
    tracer = Tracer(max_requests=None) if name == "meiko_traced" else None
    return _meiko(seed, p, tracer)
