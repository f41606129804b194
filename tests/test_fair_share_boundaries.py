"""Boundary properties of the virtual-time fair-share station.

The station keeps free jobs on a virtual clock and bound jobs on absolute
finish times, with a single armed wake-up.  These properties drive it at
the numerical edges of that design: a clock started near 1e9 s, a long
busy period that pushes the virtual clock far from zero before it is
rebased, submit gaps below one ulp of the clock, a rate drop below the
sum of the caps (every bound job must be released), and a stall at rate
0 that must arm no wake-up.  Each checks the same three things: work is
conserved, the event count stays bounded (no wake-up livelock), and no
job finishes sooner than ``work / rate`` allows.
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import FairShareServer, Simulator

from .fair_share_reference import FairShareServer as ReferenceServer
from .test_fair_share_oracle import run_bounded

_jobs = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=5.0),     # delay
              st.floats(min_value=0.01, max_value=50.0),   # work
              st.one_of(st.none(), st.floats(min_value=0.5, max_value=8.0))),
    min_size=1, max_size=25)


def serve(sim, srv, jobs):
    """Submit (delay, work, cap) jobs one after another from one process;
    return [(work, cap, submitted_at, finished_at)] once all finish."""
    done = []

    def watch(job, work, cap, start):
        def on_done(ev):
            done.append((work, cap, start, sim.now))
        job.done.callbacks.append(on_done)

    def driver():
        for delay, work, cap in jobs:
            yield sim.timeout(delay)
            watch(srv.submit(work, cap=cap), work, cap, sim.now)

    sim.spawn(driver())
    run_bounded(sim, 10 * len(jobs) + 10)
    return done


def check(srv, jobs, done, rate, slack=0.0):
    """Conservation and the service-time floor (``serve`` already bounds
    the event count)."""
    assert len(done) == len(jobs) and srv.njobs == 0
    total = sum(work for _, work, _ in jobs)
    assert math.isclose(srv.work_completed, total, rel_tol=1e-6)
    for work, cap, start, end in done:
        fastest = work / (rate if cap is None else min(rate, cap))
        assert end - start >= fastest * (1 - 1e-9) - slack


@given(jobs=_jobs, rate=st.floats(min_value=0.5, max_value=40.0))
@settings(max_examples=60, deadline=None)
def test_clock_near_1e9(jobs, rate):
    sim = Simulator(start_time=1e9)
    srv = FairShareServer(sim, rate=rate)
    done = serve(sim, srv, jobs)
    # Times near 1e9 s are only resolved to ~1.2e-7 s, and a wake-up is
    # never armed closer than 4 ulps: each completion may land that late.
    slack = 8 * math.ulp(sim.now)
    check(srv, jobs, done, rate, slack=slack)
    if all(cap is None for *_, cap in jobs):
        # uncapped: the full rate is served whenever the station is busy
        assert math.isclose(srv.busy_integral(), srv.work_completed / rate,
                            rel_tol=1e-9, abs_tol=slack * len(jobs))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       rate=st.floats(min_value=1.0, max_value=10.0))
# A work-scaled completion tolerance finishes job 56 of this draw 1.1e-9
# relative early; exact wake-ups land within 1e-14 of the exact answer.
@example(seed=145753749, rate=1.0)
@settings(max_examples=5, deadline=None)
def test_long_busy_period_then_rebase(seed, rate):
    """Hundreds of overlapping jobs keep one busy period going, so the
    virtual clock grows large; completions still match the reference
    station's (which has no virtual clock), and a job submitted after
    the station drains runs from a rebased clock at exactly work/rate."""
    rng = random.Random(seed)
    jobs = [(rng.uniform(0.0, 1.0), rng.uniform(1.0, 4.0) * rate,
             rng.choice([None, None, None, rate / 3]))
            for _ in range(600)]
    runs = []
    for cls in (FairShareServer, ReferenceServer):
        sim = Simulator()
        srv = cls(sim, rate=rate)
        runs.append((sim, srv, serve(sim, srv, jobs)))
    (sim, srv, done), (_, _, ref_done) = runs
    check(srv, jobs, done, rate)
    assert srv.busy_integral() > 0.5 * sim.now  # one long busy stretch
    for (*_, end), (*_, ref_end) in zip(done, ref_done):
        assert math.isclose(end, ref_end, rel_tol=1e-12)
    start = sim.now + 1.0
    sim.run(until=start)
    job = srv.submit(7.0 * rate)
    run_bounded(sim, 10)
    assert math.isclose(job.finished_at, start + 7.0, rel_tol=1e-12)


@given(n=st.integers(min_value=2, max_value=30),
       clock=st.sampled_from([1.0, 1e3, 1e6, 1e9]),
       work=st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_sub_ulp_submit_gaps(n, clock, work):
    """Submits separated by less than one ulp of the clock land on the
    same instant: they share the rate from the start and finish
    together, with no zero-delay wake-up loop."""
    sim = Simulator(start_time=clock)
    srv = FairShareServer(sim, rate=4.0)
    gap = math.ulp(clock) / 4
    jobs = [(0.0 if i == 0 else gap, work, None) for i in range(n)]
    done = serve(sim, srv, jobs)
    check(srv, jobs, done, 4.0, slack=8 * math.ulp(sim.now))
    ends = {end for *_, end in done}
    assert len(ends) == 1
    assert math.isclose(ends.pop() - clock, n * work / 4.0, rel_tol=1e-9,
                        abs_tol=8 * math.ulp(sim.now))


@given(caps=st.lists(st.floats(min_value=0.5, max_value=5.0),
                     min_size=2, max_size=10),
       frac=st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_rate_below_sum_of_caps_releases_bound_jobs(caps, frac):
    """With rate far above the sum of caps every job is bound; dropping
    the rate below that sum must release them to a fair share."""
    sim = Simulator()
    srv = FairShareServer(sim, rate=10.0 * sum(caps))
    handles = [srv.submit(100.0, cap=c) for c in caps]
    assert all(h.rate == c for h, c in zip(handles, caps))
    low = frac * sum(caps)
    srv.set_rate(low)
    rates = [h.rate for h in handles]
    assert sum(rates) <= low + 1e-9
    assert all(r <= c + 1e-9 for r, c in zip(rates, caps))
    # max-min fair: whoever is below its cap gets the (common) top share
    top = max(rates)
    assert all(math.isclose(r, top, rel_tol=1e-9, abs_tol=1e-12)
               or math.isclose(r, c, rel_tol=1e-9)
               for r, c in zip(rates, caps))
    if low > 1e-9:
        assert math.isclose(sum(rates), min(low, sum(caps)), rel_tol=1e-9)
    sim.run(until=1.0)
    srv.set_rate(10.0 * sum(caps))
    run_bounded(sim, 10 * len(caps) + 10)
    assert srv.njobs == 0 and srv.jobs_completed == len(caps)
    assert math.isclose(srv.work_completed, 100.0 * len(caps), rel_tol=1e-9)
    assert sim.event_count <= 10 * len(caps) + 10


@given(works=st.lists(st.floats(min_value=1.0, max_value=30.0),
                      min_size=1, max_size=8),
       stall_at=st.floats(min_value=0.0, max_value=3.0),
       restore=st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_zero_rate_stalls_without_wakeup_then_resumes(works, stall_at,
                                                      restore):
    sim = Simulator()
    srv = FairShareServer(sim, rate=5.0)
    handles = [srv.submit(w) for w in works]
    sim.run(until=stall_at)
    srv.set_rate(0.0)
    left = [h.remaining for h in handles]
    events = sim.event_count
    # drains the timers armed before the stall, arms no new one
    run_bounded(sim, len(works) + 2)
    assert sim.event_count - events <= len(works) + 1
    assert [h.remaining for h in handles] == left
    assert all(not h.done.triggered for h in handles if h.remaining > 0)
    resumed = sim.now
    srv.set_rate(restore)
    run_bounded(sim, 10 * len(works) + 10)
    assert srv.njobs == 0
    assert math.isclose(srv.work_completed, sum(works), rel_tol=1e-9)
    stalled = [(h, rem) for h, rem in zip(handles, left) if rem > 0]
    for h, rem in stalled:
        # all stalled jobs share `restore`: none beats running alone
        assert h.finished_at - resumed >= rem / restore * (1 - 1e-9)
    if stalled:
        assert math.isclose(max(h.finished_at for h, _ in stalled),
                            resumed + sum(left) / restore, rel_tol=1e-9)
