"""Discrete-event simulation kernel for the SWEB reproduction.

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Timeout`, :class:`Process`,
  :class:`AnyOf`, :class:`AllOf` — the event loop and process model
  (:mod:`repro.sim.engine`).
* :class:`FairShareServer` — processor-sharing stations, the model behind
  CPUs, disks and links (:mod:`repro.sim.bandwidth`).
* :class:`RandomStreams` — deterministic named substreams, with the
  stream-name registry in :mod:`repro.sim.streamnames`.
* :class:`Trace` — structured event log.

Request metrics live with their producer in :mod:`repro.web.metrics`.
"""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    NORMAL,
    URGENT,
)
from .bandwidth import FairShareServer, Job
from .rng import RandomStreams
from .streamnames import STREAM_NAMES, crc32_key, stream_collisions
from .trace import DETAIL as TRACE_DETAIL
from .trace import SUMMARY as TRACE_SUMMARY
from .trace import Trace, TraceRecord

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "FairShareServer",
    "Job",
    "NORMAL",
    "Process",
    "RandomStreams",
    "STREAM_NAMES",
    "SimulationError",
    "Simulator",
    "TRACE_DETAIL",
    "TRACE_SUMMARY",
    "Timeout",
    "Trace",
    "TraceRecord",
    "URGENT",
    "crc32_key",
    "stream_collisions",
]
