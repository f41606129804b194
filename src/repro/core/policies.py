"""Scheduling policies: SWEB and the baselines it is evaluated against.

§4.2 compares three strategies —

* **round-robin** ("the NCSA approach that uniformly distributes requests
  to nodes"): DNS already rotated the request here, so the node simply
  serves it;
* **file locality** ("purely exploit the file locality by assigning
  requests to the nodes that own the requested files");
* **SWEB** — the broker's multi-faceted argmin.

Plus two extra baselines used by our ablations: **cpu-only**, the
single-faceted strategy of the load-balancing literature the paper argues
against ([SHK95]), and **random** — and the modern cluster-scheduling zoo
run by the heterogeneous tournament (docs/SCHEDULING.md): **jsq** (join
the shortest queue), **po2** (power of two choices), **lwl** (least work
left, in speed-normalised seconds), and **chash** (locality-aware
rendezvous hashing with a bounded-load spill).

The canonical list of names lives in :mod:`repro.sched.registry`; this
module implements the ``per_client=True`` subset as strategy objects that
share one ``decide`` scaffold and differ only in their ``pick`` rule.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sched import per_client_policy_names, preference_order
from ..sim import RandomStreams
from .broker import Broker, BrokerDecision
from .loadinfo import LoadSnapshot
from .oracle import TaskEstimate

__all__ = [
    "SchedulingPolicy",
    "RoundRobinPolicy",
    "FileLocalityPolicy",
    "SWEBPolicy",
    "CPUOnlyPolicy",
    "RandomPolicy",
    "JoinShortestQueuePolicy",
    "PowerOfTwoPolicy",
    "LeastWorkLeftPolicy",
    "ConsistentHashPolicy",
    "make_policy",
    "POLICY_NAMES",
]


def _job_count(snap: LoadSnapshot) -> float:
    """Believed jobs in service on a node: the sum over the three
    channels a request can occupy (CPU run queue, disk reads in flight,
    fabric-port transfers)."""
    return snap.cpu_load + snap.disk_load + snap.net_load


class SchedulingPolicy:
    """Decides which node serves a request that DNS delivered to ``broker.node_id``.

    Every policy answers through the broker's :class:`BrokerDecision`
    shape so the server code is policy-agnostic.  :meth:`decide` is the
    one scaffold: it characterises the request, lists the nodes the
    (possibly stale) loadd view believes available — none means stay
    local — asks :meth:`pick` for one, and for load-reading policies
    (``consults_broker``) Δ-inflates a redirect target (§3.2).
    Subclasses supply only :meth:`pick`; SWEB overrides :meth:`decide`
    with the broker's own cost-model argmin.
    """

    name = "abstract"
    #: whether the server should charge broker-analysis CPU time; the
    #: load-reading policies also Δ-inflate their redirect targets
    consults_broker = False
    #: whether :meth:`pick` chooses among the loadd view's available
    #: nodes (otherwise it receives an empty candidate list)
    reads_view = True

    def __init__(self, rng: Optional[RandomStreams] = None) -> None:
        self.rng = rng or RandomStreams(seed=0)

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        file_size = broker.fs.locate(path).size if broker.fs.exists(path) else 0.0
        task = broker.oracle.characterize(path, file_size)
        candidates = (broker.view.available(broker.sim.now)
                      if self.reads_view else [])
        chosen = (self.pick(broker, path, candidates, task)
                  if candidates or not self.reads_view else broker.node_id)
        decision = BrokerDecision(chosen=chosen, local=broker.node_id,
                                  estimates=(), task=task)
        if self.consults_broker and decision.redirected:
            broker.view.inflate_cpu(chosen, broker.cost_model.params.delta)
        return decision

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        """The policy's rule: the node that should serve ``path``."""
        raise NotImplementedError


def _least(broker: Broker, candidates: list[LoadSnapshot],
           load: Callable[[LoadSnapshot], float]) -> int:
    """The candidate with the least ``load``; ties prefer the local node,
    then the lowest id."""
    return min(candidates,
               key=lambda s: (load(s), s.node != broker.node_id, s.node)).node


class RoundRobinPolicy(SchedulingPolicy):
    """Serve wherever DNS rotation landed the request (NCSA's approach)."""

    name = "round-robin"
    reads_view = False

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        return broker.node_id


class FileLocalityPolicy(SchedulingPolicy):
    """Always move the request to the node owning the file."""

    name = "file-locality"
    reads_view = False

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        if broker.fs.exists(path):
            return broker.fs.locate(path).home
        return broker.node_id


class SWEBPolicy(SchedulingPolicy):
    """The paper's contribution: multi-faceted minimum-completion-time."""

    name = "sweb"
    consults_broker = True

    def decide(self, broker: Broker, path: str,
               client_latency: float) -> BrokerDecision:
        return broker.choose_server(path, client_latency)


class CPUOnlyPolicy(SchedulingPolicy):
    """Single-faceted baseline: minimise the believed CPU run queue.

    This is the classic load-balancing heuristic ([SHK95], [GDI93]); it
    ignores disks and the interconnect entirely, which is exactly what
    §1 argues is insufficient for WWW workloads.
    """

    name = "cpu-only"
    consults_broker = True

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        return _least(broker, candidates, lambda s: s.cpu_load / s.cpu_speed)


class RandomPolicy(SchedulingPolicy):
    """Uniform random placement (a sanity-check baseline)."""

    name = "random"

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        return candidates[self.rng.integers("random-policy", 0,
                                            len(candidates))].node


class JoinShortestQueuePolicy(SchedulingPolicy):
    """Join the shortest queue: argmin of believed jobs in service.

    The classic supermarket model.  Count-based, so it treats a
    half-speed node and a double-speed node as interchangeable — the
    blind spot :class:`LeastWorkLeftPolicy` fixes on heterogeneous
    clusters (docs/SCHEDULING.md).
    """

    name = "jsq"
    consults_broker = True

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        return _least(broker, candidates, _job_count)


class PowerOfTwoPolicy(SchedulingPolicy):
    """Power of two choices: sample two nodes, join the shorter queue.

    Two uniform samples plus one comparison buys an exponential
    improvement over purely random placement (Mitzenmacher's
    supermarket result) while reading only two nodes' state.
    """

    name = "po2"
    consults_broker = True

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        if len(candidates) == 1:
            return candidates[0].node
        i = self.rng.integers("po2-policy", 0, len(candidates))
        j = self.rng.integers("po2-policy", 0, len(candidates) - 1)
        if j >= i:                       # second sample over the rest
            j += 1
        return _least(broker, [candidates[i], candidates[j]], _job_count)


class LeastWorkLeftPolicy(SchedulingPolicy):
    """Least work left: argmin of outstanding *work* in seconds.

    Prices each node's believed backlog at that node's own speed —
    queued CPU jobs at ``cpu_speed``, queued reads at
    ``disk_bandwidth`` — using the oracle's characterisation of the
    current request as the typical queued job.  Dividing by speed is
    the whole point: a 2x node with four queued jobs drains them as
    fast as a 1x node drains two, so fast nodes absorb proportionally
    more load on heterogeneous clusters.
    """

    name = "lwl"
    consults_broker = True

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        cpu_ops = max(task.cpu_ops, 1.0)
        disk_bytes = max(task.disk_bytes, 0.0)
        return _least(broker, candidates,
                      lambda s: (s.cpu_load * cpu_ops / s.cpu_speed
                                 + s.disk_load * disk_bytes
                                 / s.disk_bandwidth))


class ConsistentHashPolicy(SchedulingPolicy):
    """Locality-aware consistent hashing with a bounded-load spill.

    Rendezvous-hashes the path to an owner node so each node's page
    cache accumulates a stable shard of the corpus; when the owner's
    believed queue exceeds the bounded-load threshold (2x the cluster
    mean), the request spills down the deterministic preference order
    to the first underloaded node (cf. consistent hashing with bounded
    loads, arXiv:1608.01350).
    """

    name = "chash"
    consults_broker = True

    def pick(self, broker: Broker, path: str,
             candidates: list[LoadSnapshot], task: TaskEstimate) -> int:
        counts = {s.node: _job_count(s) for s in candidates}
        bound = 2.0 * (sum(counts.values()) / len(counts)) + 1.0
        owner = None
        for node in preference_order(path, len(broker.fs.nodes)):
            if node not in counts:
                continue
            if owner is None:            # owner = first available in order
                owner = node
            if counts[node] <= bound:
                return node
        return owner if owner is not None else candidates[0].node


#: Per-client policy names, in canonical order — derived from the
#: registry (:mod:`repro.sched.registry`), never hand-listed.
POLICY_NAMES = per_client_policy_names()

#: name -> policy class, built once from each class's ``name``
_BY_NAME: dict[str, type[SchedulingPolicy]] = {
    cls.name: cls for cls in (
        RoundRobinPolicy, FileLocalityPolicy, SWEBPolicy, CPUOnlyPolicy,
        RandomPolicy, JoinShortestQueuePolicy, PowerOfTwoPolicy,
        LeastWorkLeftPolicy, ConsistentHashPolicy)}


def make_policy(name: str, rng: Optional[RandomStreams] = None) -> SchedulingPolicy:
    """Factory used by experiment configs."""
    if name not in _BY_NAME:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    return _BY_NAME[name](rng=rng)
