"""Differential test: the virtual-time fair-share station vs the reference.

``tests/fair_share_reference.py`` holds the original O(n) rescan station.
Hypothesis drives it and :class:`repro.sim.FairShareServer` with the same
random operation streams — submits with mixed weights, zero work and caps
that cross the binding boundary in both directions, cancels, and
``set_rate`` changes including a stall at rate 0 and its restore — and
requires the same outcome from both: the same completed and cancelled
sets, the same completion order, completion times within 1e-9 relative,
and the same work, busy-time and population integrals.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FairShareServer, Simulator

from .fair_share_reference import FairShareServer as ReferenceServer

REL = 1e-9

_caps = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5, 4.0]),
                  st.floats(min_value=0.05, max_value=30.0))
_submit = st.tuples(
    st.just("submit"),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0)),
    st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5]),
    _caps)
_cancel = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40))
_rate = st.tuples(st.just("rate"),
                  st.one_of(st.just(0.0), st.sampled_from([1.0, 5.0, 12.0]),
                            st.floats(min_value=0.1, max_value=40.0)))
_ops = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=6.0)),
              st.one_of(_submit, _submit, _cancel, _rate)),
    min_size=1, max_size=40)


def run_bounded(sim, max_events):
    """``sim.run()`` with an event budget, so a wake-up livelock fails
    the test instead of hanging it."""
    start = sim.event_count
    while sim.peek() < math.inf:
        assert sim.event_count - start < max_events, "event budget exhausted"
        sim.step()


def drive(server_cls, rate, ops, restore):
    """Run ``ops`` — (delay, op) pairs — against a fresh station; return
    the completion log, the cancelled set and the end-of-run integrals."""
    sim = Simulator()
    srv = server_cls(sim, rate=rate)
    jobs = []
    log = []
    cancelled = set()

    def watch(index, job):
        def on_done(ev):
            if ev.ok:
                log.append((index, sim.now))
            else:
                cancelled.add(index)
        job.done.callbacks.append(on_done)

    def driver():
        for delay, op in ops:
            yield sim.timeout(delay)
            if op[0] == "submit":
                _, work, weight, cap = op
                job = srv.submit(work, weight=weight, cap=cap, tag=len(jobs))
                watch(len(jobs), job)
                jobs.append(job)
            elif op[0] == "cancel":
                if jobs:
                    srv.cancel(jobs[op[1] % len(jobs)])
            else:
                srv.set_rate(op[1])
        yield sim.timeout(1.0)
        srv.set_rate(restore)

    sim.spawn(driver())
    run_bounded(sim, 20 * len(ops) + 50)
    return {
        "log": log,
        "cancelled": cancelled,
        "njobs": srv.njobs,
        "jobs_completed": srv.jobs_completed,
        "work": srv.work_completed,
        "busy": srv.busy_integral(),
        "population": srv.population_integral(),
    }


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def assert_same(new, ref):
    assert [i for i, _ in new["log"]] == [i for i, _ in ref["log"]]
    for (i, t_new), (_, t_ref) in zip(new["log"], ref["log"]):
        assert close(t_new, t_ref), (i, t_new, t_ref)
    assert new["cancelled"] == ref["cancelled"]
    assert new["njobs"] == ref["njobs"] == 0
    assert new["jobs_completed"] == ref["jobs_completed"]
    for key in ("work", "busy", "population"):
        assert close(new[key], ref[key]), (key, new[key], ref[key])


@given(rate=st.floats(min_value=0.5, max_value=30.0), ops=_ops,
       restore=st.floats(min_value=0.5, max_value=30.0))
@settings(max_examples=300, deadline=None)
def test_virtual_time_station_matches_reference(rate, ops, restore):
    assert_same(drive(FairShareServer, rate, ops, restore),
                drive(ReferenceServer, rate, ops, restore))


def test_caps_cross_binding_boundary_both_ways():
    """Capped jobs bind when a free job leaves and unbind when the rate
    drops below their caps; both stations agree step by step."""
    ops = [(0.0, ("submit", 30.0, 1.0, 4.0)),
           (0.0, ("submit", 30.0, 1.0, 4.0)),
           (0.0, ("submit", 5.0, 1.0, None)),   # share 10/3 < cap: all free
           (1.0, ("rate", 6.0)),                 # share 2 < cap
           (2.0, ("rate", 20.0)),                # share 6.7 > cap: bind
           (0.5, ("submit", 3.0, 2.0, None)),
           (1.0, ("rate", 0.0)),                 # stall
           (3.0, ("rate", 5.0))]                 # unbind: 5 < sum of caps
    new = drive(FairShareServer, 10.0, ops, 10.0)
    assert_same(new, drive(ReferenceServer, 10.0, ops, 10.0))
    assert [i for i, _ in new["log"]] == [2, 3, 0, 1]
