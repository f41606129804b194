"""Host-speed sampling, so host times compare across a shared host's moods.

The benchmark's hosts are shared: the same run's CPU time moves by up to
2x within seconds as other tenants load the physical cores (measured on
a 2-vCPU Intel Xeon VM: the same loop alternates between about 0.9 and
1.5 us per iteration).  A :class:`SpeedSampler` times a fixed ~0.3 ms
pure-Python loop every 10 ms of the process's CPU time (``SIGPROF``), in
the same thread as the work it measures, so it sees the same host speed
the work saw.  Host times are then converted to *reference seconds*:
the time the work would have taken had every loop pass run in
:data:`REFERENCE_S`, the pass's time on that VM when unloaded.

The loop uses only the standard library, so no change to the program
can move it; the sampler's own time is subtracted from the work's.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Optional

__all__ = ["REFERENCE_S", "SpeedSampler"]

#: seconds of one loop pass on the reference host (see module doc)
REFERENCE_S = 300e-6
#: CPU seconds between two passes
INTERVAL_S = 0.010
_ITERATIONS = 300


class _Job:
    __slots__ = ("remaining", "rate")

    def __init__(self, remaining: float) -> None:
        self.remaining = remaining
        self.rate = 0.0

    def step(self, dt: float) -> float:
        self.remaining -= self.rate * dt
        return self.remaining


def _one_pass() -> float:
    # A heap of tuples, dict updates, attribute access and method calls:
    # what the simulator's own hot paths are made of.
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    jobs = [_Job(float(i % 97 + 1)) for i in range(16)]
    for i in range(_ITERATIONS):
        heapq.heappush(heap, (i * 7919 % 10007, i))
        if len(heap) > 64:
            key, _ = heapq.heappop(heap)
            counts[key % 101] = counts.get(key % 101, 0) + 1
        job = jobs[i & 15]
        job.rate = 1.0 / (1 + (i & 7))
        job.step(0.5)
    return time.perf_counter() - t0


class SpeedSampler:
    """Times one loop pass every :data:`INTERVAL_S` of CPU time."""

    def __init__(self) -> None:
        #: (time.monotonic() at the pass, seconds the pass took)
        self.passes: list[tuple[float, float]] = []
        self._previous: Optional[object] = None

    def start(self) -> None:
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        if self._previous is None:
            self._previous = previous
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling (:meth:`start` resumes it)."""
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _on_tick(self, _signum: int, _frame: object) -> None:
        self.passes.append((time.monotonic(), _one_pass()))

    def window(self, start: float, end: float) -> list[float]:
        """Durations of the passes taken between two monotonic times."""
        return [d for t, d in self.passes if start <= t <= end]

    @staticmethod
    def to_reference(durations: list[float]) -> float:
        """Reference seconds per host second, over the given passes.

        The mean of ``REFERENCE_S / d``: passes come at even steps of
        CPU time, so this weights each stretch of work by its length.
        """
        if not durations:
            return 1.0
        return sum(REFERENCE_S / d for d in durations) / len(durations)
