"""Discrete-event simulation kernel for the SWEB reproduction.

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Process`, :class:`Interrupt` —
  the event loop and process model (:mod:`repro.sim.engine`).
* :class:`Resource`, :class:`Store`, :class:`Container` — queueing
  primitives (:mod:`repro.sim.resources`).
* :class:`FairShareServer` — processor-sharing stations, the model behind
  CPUs, disks and links (:mod:`repro.sim.bandwidth`).
* :class:`RandomStreams` — deterministic named substreams.
* :class:`Tally`, :class:`PhaseAccumulator`, :class:`Summary` — metrics.
* :class:`Trace` — structured event log.
"""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    NORMAL,
    URGENT,
)
from .bandwidth import FairShareServer, Job
from .monitor import Monitor, ascii_series, ascii_sparkline
from .resources import Container, Resource, Store
from .rng import RandomStreams
from .stats import PhaseAccumulator, Summary, Tally
from .streamnames import STREAM_NAMES, crc32_key, stream_collisions
from .trace import DETAIL as TRACE_DETAIL
from .trace import SUMMARY as TRACE_SUMMARY
from .trace import Trace, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Event",
    "FairShareServer",
    "Interrupt",
    "Job",
    "Monitor",
    "NORMAL",
    "PhaseAccumulator",
    "Process",
    "RandomStreams",
    "Resource",
    "STREAM_NAMES",
    "SimulationError",
    "Simulator",
    "Store",
    "Summary",
    "TRACE_DETAIL",
    "TRACE_SUMMARY",
    "Tally",
    "Timeout",
    "Trace",
    "TraceRecord",
    "URGENT",
    "ascii_series",
    "ascii_sparkline",
    "crc32_key",
    "stream_collisions",
]
