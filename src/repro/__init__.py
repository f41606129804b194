"""repro — SWEB: Towards a Scalable World Wide Web Server on Multicomputers.

A from-scratch reproduction of Andresen, Yang, Holmedahl & Ibarra
(IPPS 1996) on a deterministic discrete-event multicomputer simulator.

Layers (bottom-up):

* :mod:`repro.sim` — the discrete-event kernel (processes, fair-share
  stations, deterministic RNG, tracing);
* :mod:`repro.cluster` — the hardware: nodes, disks, page caches, the
  Meiko fat-tree / NOW Ethernet, NFS, WAN paths;
* :mod:`repro.cache` — cooperative caching: the cluster-wide cache
  directory, per-file heat counters, hot-file replication;
* :mod:`repro.web` — HTTP, round-robin DNS, CGI, clients, the httpd;
* :mod:`repro.core` — SWEB itself: broker, oracle, loadd, the
  multi-faceted cost model, the scheduling policies, the §3.3 analysis,
  and the :class:`SWEBCluster` facade;
* :mod:`repro.workload` — corpora and request generators;
* :mod:`repro.faults` — declarative fault plans (crashes, partitions,
  slow disks, loadd blackouts) injectable into any run;
* :mod:`repro.experiments` — one module per table/figure of the paper.

Quickstart::

    from repro import SWEBCluster, meiko_cs2

    cluster = SWEBCluster(meiko_cs2(), policy="sweb", seed=1)
    cluster.add_file("/index.html", 1024, home=0)
    cluster.run(until=cluster.fetch("/index.html"))
    print(cluster.metrics.response_summary())
"""

from .cluster import (
    ClusterSpec,
    NodeSpec,
    custom_cluster,
    heterogeneous_now,
    meiko_cs2,
    sun_now,
)
from .config import SWEBConfig, dump_config, load_config
from .faults import FaultInjector, FaultPlan
from .core import (
    AdaptiveOracle,
    AnalysisInputs,
    CostParameters,
    Oracle,
    SWEBCluster,
    make_policy,
    max_sustained_rps,
)
from .web import (
    ClientProfile,
    HTTPRequest,
    HTTPResponse,
    Metrics,
    RUTGERS_CLIENT,
    UCSB_CLIENT,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveOracle",
    "AnalysisInputs",
    "ClientProfile",
    "ClusterSpec",
    "CostParameters",
    "FaultInjector",
    "FaultPlan",
    "HTTPRequest",
    "HTTPResponse",
    "Metrics",
    "NodeSpec",
    "Oracle",
    "RUTGERS_CLIENT",
    "SWEBCluster",
    "SWEBConfig",
    "UCSB_CLIENT",
    "custom_cluster",
    "dump_config",
    "heterogeneous_now",
    "load_config",
    "make_policy",
    "max_sustained_rps",
    "meiko_cs2",
    "sun_now",
    "__version__",
]
