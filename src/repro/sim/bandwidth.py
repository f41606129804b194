"""Fair-share (processor-sharing) service stations.

:class:`FairShareServer` models a resource with a total service *rate*
(CPU ops/s, disk bytes/s, link bytes/s) shared among all active jobs by
weighted processor sharing with optional per-job rate caps (max-min fair
water-filling).  It is the single modelling primitive behind SWEB's CPUs,
memory, disks, the Meiko fat-tree ports, the NOW's shared Ethernet bus,
NICs and WAN links.

The station is a GPS *virtual-time* server, so every operation costs
O(log n) instead of a rescan of all n jobs:

* **Free jobs** (not held at their cap) share a virtual clock ``V`` that
  advances at ``level = (rate - sum of bound caps) / sum of free
  weights``; a free job receives ``weight * level``.  Each free job
  carries a finish tag ``F = V_submit + work / weight`` in a min-heap, and
  completes when ``V`` reaches ``F``.
* **Bound jobs** run at exactly their cap and carry an absolute finish
  time ``T = t_bind + remaining / cap`` in a second min-heap.
* **Cap crossings.**  Water-filling is a sequence of moves across the cap
  boundary at the threshold ``(cap + eps) / weight``: bound jobs whose
  threshold reaches the level are released (max-heap over bound jobs),
  then free capped jobs whose threshold falls below it are pinned
  (min-heap over free capped jobs).  Both moves only raise the level, so
  the two passes end at the max-min fair point.  Heap entries carry the
  job's epoch and are deleted lazily.
* **Exact wake-ups.**  Every change of state records the earliest
  completion: its time ``_due``, its heap key and whether that job is
  free or bound.  At most one wake-up is armed, at exactly ``_due``
  (:meth:`Simulator.timeout_at`); it is re-armed only when ``_due`` moves
  *earlier*.  A wake-up that finds its target due snaps ``V`` up to the
  target's tag (a bound target's tag is the clock itself), so the target
  finishes at the float the station computed, with no completion
  tolerance and no rounding-early wake-up.  A wake-up whose target has
  moved later (an arrival slowed it) just re-arms at ``_due``; one with
  no target left (cancel, rate 0) arms nothing.  Every path that
  advances the clocks (submit, cancel, ``set_rate``, a wake-up) skips the
  completion scan while the clock is before ``_due``; from ``_due`` on
  the scan finishes every job due within 4 ulps of the clock, measured
  in time.  A wake-up is never armed closer than 4 ulps ahead, the
  guard against a zero-delay livelock.

On the NOW bus every WAN response is capped at the client's modem rate
below its fair share, so bound jobs are the common case there, not an
exception.  Jobs that end together finish in submission order; the
population, busy-time and work integrals are kept in O(1) per change, and
``V`` is rebased to 0 whenever no free job remains.

**Copies.**  ``submit(..., copies=k)`` enters k identical uncapped jobs
submitted at the same instant as one entry of weight ``k * weight`` and
work ``k * work``.  Its finish tag ``V + work / weight`` is each copy's,
so one heap entry and one completion stand for all k; ``njobs``, the
integrals and ``jobs_completed`` count every copy.  A loadd broadcast
uses it to put its whole fan-out on a shared medium in O(1).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Any, Optional

from .engine import Event, Simulator

__all__ = ["Job", "FairShareServer"]

_EPS = 1e-9
_INF = math.inf

# Job states.
_FREE, _BOUND, _OUT = 0, 1, 2

#: A heap entry: (key, submission seq, job epoch at push, job).  An entry is
#: stale once the job's epoch has moved on.
_Entry = tuple[float, int, int, "Job"]


class Job:
    """One unit of work in service at a :class:`FairShareServer`."""

    __slots__ = ("server", "work", "weight", "cap", "tag", "copies", "done",
                 "submitted_at", "finished_at", "_state", "_key", "_epoch",
                 "_seq", "_cap", "_bind_level", "_rem")

    def __init__(self, server: "FairShareServer", work: float, weight: float,
                 cap: Optional[float], tag: Any, copies: int) -> None:
        self.server = server
        #: Totals over all copies: work and weight are k times one copy's.
        self.work = float(work) * copies
        self.weight = float(weight) * copies
        self.cap = cap
        self.copies = copies
        self.tag = tag
        #: Event that fires (with the job as value) when service completes.
        self.done: Event = Event(server.sim)
        self.submitted_at = server.sim.now
        self.finished_at: Optional[float] = None
        self._state = _OUT
        # Finish tag: virtual time F when free, absolute time T when bound.
        self._key = 0.0
        self._epoch = 0  # bumped on every move; stale heap entries differ
        self._seq = 0    # submission order, the tie-break for completions
        # The cap as a float (inf when uncapped) and the level at which it
        # binds: the cap-crossing threshold (cap + eps) / weight.
        self._cap = _INF if cap is None else float(cap)
        self._bind_level = (self._cap + _EPS) / self.weight
        self._rem = self.work  # remaining work while out of service

    @property
    def remaining(self) -> float:
        """Work units still to serve (over all copies), as of now."""
        state = self._state
        if state == _FREE:
            srv = self.server
            v = srv._vtime + srv._level * (srv.sim.now - srv._last_update)
            rem = self.weight * (self._key - v)
        elif state == _BOUND:
            rem = self._cap * (self._key - self.server.sim.now)
        else:
            return self._rem
        return rem if rem > 0.0 else 0.0

    @property
    def rate(self) -> float:
        """Service rate currently allocated to this job (all copies)."""
        state = self._state
        if state == _FREE:
            return self.weight * self.server._level
        if state == _BOUND:
            return self._cap
        return 0.0

    def __repr__(self) -> str:
        return (f"<Job tag={self.tag!r} remaining={self.remaining:.3g}/"
                f"{self.work:.3g} rate={self.rate:.3g}>")


class FairShareServer:
    """Weighted processor-sharing station with per-job caps.

    Parameters
    ----------
    sim:
        The owning simulator.
    rate:
        Total service rate (work units per simulated second).
    name:
        Label used in repr and traces.
    """

    def __init__(self, sim: Simulator, rate: float, name: str = "server") -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.sim = sim
        self.name = name
        self._rate = float(rate)
        # Jobs in service, in submission order (a dict used as an ordered set),
        # and the number of copies they hold.
        self._jobs: dict[Job, None] = {}
        self._ncopies = 0
        self._seq = 0
        self._last_update = sim.now
        # Free jobs: virtual clock, level (rate per unit weight), Σ weights.
        self._vtime = 0.0
        self._level = 0.0
        self._wsum = 0.0
        self._nfree = 0
        self._free: list[_Entry] = []      # (F, seq, epoch, job)
        self._capfree: list[_Entry] = []   # (bind level, ...) free capped
        # Bound jobs: Σ caps and their heaps.
        self._capsum = 0.0
        self._nbound = 0
        self._bound: list[_Entry] = []     # (T, seq, epoch, job)
        self._boundmax: list[_Entry] = []  # (-bind level, ...) bound jobs
        self._stale = 0  # detaches (stale heap entries) since compaction
        # The earliest completion as of the last _settle: its time, its
        # heap key (F when free, T when bound) and whether it is free.
        self._due = _INF
        self._due_key = 0.0
        self._due_free = False
        # The single armed wake-up timer and the time it fires.
        self._wake_ev: Optional[Event] = None
        self._wake_at = _INF
        # Integrals for load/utilisation accounting (see sample helpers).
        self._pop_integral = 0.0   # ∫ n(t) dt
        self._busy_integral = 0.0  # ∫ [n(t) > 0] dt
        self._work_done = 0.0      # total work served
        self._jobs_completed = 0

    # -- public API ----------------------------------------------------------
    @property
    def rate(self) -> float:
        """Total service rate."""
        return self._rate

    @property
    def njobs(self) -> int:
        """Number of jobs currently in service, counting every copy."""
        return self._ncopies

    @property
    def jobs(self) -> tuple[Job, ...]:
        """Snapshot of the jobs currently in service, in submission order."""
        return tuple(self._jobs)

    @property
    def work_completed(self) -> float:
        """Total work units served since construction."""
        return self._work_done

    @property
    def jobs_completed(self) -> int:
        """Number of jobs fully served since construction."""
        return self._jobs_completed

    def submit(self, work: float, weight: float = 1.0,
               cap: Optional[float] = None, tag: Any = None,
               copies: int = 1) -> Job:
        """Enter a job of ``work`` units; ``job.done`` fires at completion.

        ``cap`` bounds the rate this single job may receive (e.g. a WAN
        client whose modem is slower than the server's link).  ``copies=k``
        enters k identical uncapped jobs as one (see the module docstring);
        ``job.done`` then fires once, when all k finish together.
        """
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        if copies > 1 and cap is not None:
            raise ValueError("a job with copies > 1 cannot be capped")
        if work < 0:
            raise ValueError(f"negative work: {work}")
        if weight <= 0:
            raise ValueError(f"weight must be > 0, got {weight}")
        if cap is not None and cap <= 0:
            raise ValueError(f"cap must be > 0, got {cap}")
        self._advance()
        job = Job(self, work, weight, cap, tag, copies)
        if work <= _EPS:
            job._rem = 0.0
            job.finished_at = self.sim.now
            self._jobs_completed += copies
            job.done.succeed(job)
        else:
            self._seq = seq = self._seq + 1
            job._seq = seq
            self._jobs[job] = None
            self._ncopies += copies
            # Enter bound when the job stays bound at the level its own cap
            # leaves the free jobs; _settle then moves only the others.
            spare = self._rate - self._capsum - job._cap
            if spare > _EPS and (not self._nfree
                                 or job._bind_level < spare / self._wsum):
                self._bind(job, job.work)
            else:
                self._free_job(job, job.work)
        self._settle()
        return job

    def cancel(self, job: Job) -> None:
        """Abort a job; its ``done`` event fails with ``InterruptedError``."""
        self._advance()
        if job.server is self and job._state != _OUT:
            job._rem = job.remaining
            self._remove(job)
            job.done.fail(InterruptedError(f"job {job.tag!r} cancelled"))
            job.done.defuse()
        self._settle()

    def set_rate(self, rate: float) -> None:
        """Change the total service rate (e.g. node slowdown)."""
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self._advance()
        self._rate = float(rate)
        self._settle()

    def service_time(self, work: float) -> float:
        """Unloaded service time for ``work`` units (work / rate)."""
        if self._rate <= 0:
            return math.inf
        return work / self._rate

    # -- load accounting ------------------------------------------------------
    def population_integral(self) -> float:
        """∫ n(t) dt up to now; diff two readings for a window average."""
        self._advance()
        self._settle()
        return self._pop_integral

    def busy_integral(self) -> float:
        """∫ [n(t) > 0] dt up to now (busy time)."""
        self._advance()
        self._settle()
        return self._busy_integral

    # -- internals -------------------------------------------------------------
    def _spare_level(self) -> float:
        """Rate per unit weight left for free jobs by the bound caps: 0 when
        no capacity is left over, inf when some is but no job is free."""
        spare = self._rate - self._capsum
        if spare <= _EPS:
            return 0.0
        if not self._nfree:
            return _INF
        return spare / self._wsum

    def _free_job(self, job: Job, rem: float) -> None:
        """Enter ``job`` into the free set with ``rem`` work to go."""
        job._state = _FREE
        job._epoch = epoch = job._epoch + 1
        job._key = key = self._vtime + rem / job.weight
        # The work integral serves the job up to its rounded tag; book the
        # rounding now so the job adds exactly `rem` to work_completed.
        self._work_done -= job.weight * (key - self._vtime) - rem
        heappush(self._free, (key, job._seq, epoch, job))
        if job._bind_level < _INF:
            heappush(self._capfree, (job._bind_level, job._seq, epoch, job))
        self._wsum += job.weight
        self._nfree += 1

    def _bind(self, job: Job, rem: float) -> None:
        """Pin ``job`` at its cap with ``rem`` work to go."""
        cap = job._cap
        job._state = _BOUND
        job._epoch = epoch = job._epoch + 1
        now = self.sim._now
        job._key = key = now + rem / cap
        self._work_done -= cap * (key - now) - rem  # as in _free_job
        heappush(self._bound, (key, job._seq, epoch, job))
        heappush(self._boundmax, (-job._bind_level, job._seq, epoch, job))
        self._capsum += cap
        self._nbound += 1

    def _detach(self, job: Job) -> None:
        """Take ``job`` out of the free or bound set; its heap entries go
        stale.  A set that empties restarts its sum from exact zero and
        drops its heaps, and the virtual clock is rebased to 0 when no
        free job remains."""
        job._epoch += 1
        self._stale += 1
        if job._state == _FREE:
            self._nfree -= 1
            if self._nfree:
                self._wsum -= job.weight
            else:
                self._wsum = self._vtime = 0.0
                self._free.clear()
                self._capfree.clear()
        else:
            self._nbound -= 1
            if self._nbound:
                self._capsum -= job._cap
            else:
                self._capsum = 0.0
                self._bound.clear()
                self._boundmax.clear()

    def _remove(self, job: Job) -> None:
        """Take ``job`` out of service."""
        self._detach(job)
        job._state = _OUT
        del self._jobs[job]
        self._ncopies -= job.copies

    def _advance(self) -> None:
        """Apply progress accrued since the last state change and, once
        the clock has reached ``_due``, finish every job that is due."""
        now = self.sim._now
        dt = now - self._last_update
        if dt <= 0:
            # Nothing can have progressed (or finished: every path that
            # moves the clocks runs the completion check below itself).
            return
        self._last_update = now
        n = self._ncopies
        if not n:
            return
        self._pop_integral += n * dt
        self._busy_integral += dt
        served = self._capsum
        if self._nfree:
            level = self._level
            self._vtime += level * dt
            served += level * self._wsum
        self._work_done += served * dt
        if now < self._due:
            return  # no job can have finished yet
        # Finish the target and every job due within 4 ulps of the clock
        # (measured in time), in submission order.  First snap V up to a
        # free target's tag, so rounding in `level * dt` cannot leave the
        # target a hair short.  A job served past its tag (a wake-up
        # floored at 4 ulps) gives back the excess.
        tol = 4.0 * math.ulp(now if now > 1.0 else 1.0)
        due: list[_Entry] = []
        if self._nfree:
            v = self._vtime
            if self._due_free and v < self._due_key:
                # Every free job gets the snap's extra service.
                self._work_done += self._wsum * (self._due_key - v)
                self._vtime = v = self._due_key
            slack = self._level * tol
            heap = self._free
            while heap:
                entry = heap[0]
                job = entry[3]
                if job._epoch != entry[2]:
                    heappop(heap)
                    continue
                gap = entry[0] - v
                if gap > slack:
                    break
                due.append(heappop(heap))
                if gap < 0.0:
                    self._work_done += job.weight * gap
        if self._nbound:
            heap = self._bound
            while heap:
                entry = heap[0]
                job = entry[3]
                if job._epoch != entry[2]:
                    heappop(heap)
                    continue
                gap = entry[0] - now
                if gap > tol:
                    break
                due.append(heappop(heap))
                if gap < 0.0:
                    self._work_done += job._cap * gap
        if len(due) > 1:
            due.sort(key=itemgetter(1))  # submission order
        for entry in due:
            job = entry[3]
            self._remove(job)
            job._rem = 0.0
            job.finished_at = now
            self._jobs_completed += job.copies
            job.done.succeed(job)

    def _settle(self) -> None:
        """Restore the max-min fair allocation, record the earliest
        completion as ``_due``, and arm a wake-up for it if that is
        earlier than the one armed."""
        level = self._spare_level()
        # Heap tops bound every entry below them, stale ones included.
        if ((self._boundmax and -self._boundmax[0][0] >= level)
                or (self._capfree and self._capfree[0][0] < level)):
            level = self._water_fill(level)
        if not self._nfree:
            level = 0.0
        self._level = level
        if self._stale > len(self._jobs) + 64:
            self._compact()
        now = self.sim._now
        due = _INF
        if level > 0.0:
            heap = self._free
            while heap[0][3]._epoch != heap[0][2]:
                heappop(heap)
            self._due_key = key = heap[0][0]
            self._due_free = True
            due = now + (key - self._vtime) / level
        if self._nbound:
            heap = self._bound
            while heap[0][3]._epoch != heap[0][2]:
                heappop(heap)
            key = heap[0][0]
            if key < due:
                self._due_key = due = key
                self._due_free = False
        self._due = due
        if due < self._wake_at:
            # Never arm closer than 4 ulps of the clock: a wake-up that
            # did not advance time could re-arm itself forever (zero-dt
            # livelock).
            floor = now + 4.0 * math.ulp(now if now > 1.0 else 1.0)
            if due < floor:
                if floor >= self._wake_at:
                    return
                due = floor
            timer = self.sim.timeout_at(due)
            timer.callbacks.append(self._wake)
            self._wake_ev = timer
            self._wake_at = due

    def _water_fill(self, level: float) -> float:
        """Move jobs across the cap boundary until the allocation is
        max-min fair; return the final level.

        First release every bound job whose threshold the level has
        reached (largest threshold first), then pin every free capped job
        whose threshold the level has passed (smallest first).  Each move
        raises the level, so no job moves back within one call.
        """
        now = self.sim._now
        heap = self._boundmax
        while heap:
            neg_level, _, epoch, job = heap[0]
            if job._epoch != epoch:
                heappop(heap)
            elif -neg_level >= level:
                heappop(heap)
                rem = job._cap * (job._key - now)
                self._detach(job)
                self._free_job(job, rem if rem > 0.0 else 0.0)
                level = self._spare_level()
            else:
                break
        heap = self._capfree
        while heap:
            bind_level, _, epoch, job = heap[0]
            if job._epoch != epoch:
                heappop(heap)
            elif bind_level < level:
                heappop(heap)
                rem = job.weight * (job._key - self._vtime)
                self._detach(job)
                self._bind(job, rem if rem > 0.0 else 0.0)
                level = self._spare_level()
            else:
                break
        return level

    def _compact(self) -> None:
        """Drop stale heap entries, so lazy deletion keeps memory linear
        in the number of jobs in service."""
        for heap in (self._free, self._capfree, self._bound, self._boundmax):
            heap[:] = [e for e in heap if e[3]._epoch == e[2]]
            heapify(heap)
        self._stale = 0

    def _wake(self, timer: Event) -> None:
        if timer is not self._wake_ev:
            return  # superseded by an earlier wake-up
        self._wake_ev = None
        self._wake_at = _INF
        due = self._due
        if self.sim._now < due:
            # The target moved later since this wake-up was armed: nothing
            # is due, so re-arm at it (if any is left) and touch nothing.
            if due < _INF:
                timer = self.sim.timeout_at(due)
                timer.callbacks.append(self._wake)
                self._wake_ev = timer
                self._wake_at = due
            return
        self._advance()
        self._settle()

    def __repr__(self) -> str:
        return f"<FairShareServer {self.name!r} rate={self._rate:.3g} njobs={self.njobs}>"

