"""Differential test: the virtual-time fair-share station vs the reference.

``tests/fair_share_reference.py`` holds the original O(n) rescan station.
Hypothesis drives it and :class:`repro.sim.FairShareServer` with the same
random operation streams — submits with mixed weights, zero work and caps
that cross the binding boundary in both directions, cancels, and
``set_rate`` changes including a stall at rate 0 and its restore — and
requires the same outcome from both: the same completed and cancelled
sets, the same completion order, completion times within 1e-9 relative,
the same job count after every operation, and the same work, busy-time
and population integrals and completed-job count.

Submits are plain jobs (capped or not) or uncapped jobs with ``copies``
in 2..5.  The reference implements
``copies=k`` literally, as k ordinary jobs behind one handle, so the
production station's single weight-k entry is checked against k real
jobs sharing the server.
"""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FairShareServer, Simulator

from .fair_share_reference import FairShareServer as ReferenceServer

REL = 1e-9

_caps = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5, 4.0]),
                  st.floats(min_value=0.05, max_value=30.0))
_work = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))
_weight = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5])
# (op, work, weight, cap, copies): copies of a capped job are rejected.
_submit = st.one_of(
    st.tuples(st.just("submit"), _work, _weight, _caps, st.just(1)),
    st.tuples(st.just("submit"), _work, _weight, st.none(),
              st.integers(min_value=2, max_value=5)))
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
    counts = []

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
                _, work, weight, cap, copies = op
                job = srv.submit(work, weight=weight, cap=cap, tag=len(jobs),
                                 copies=copies)
                watch(len(jobs), job)
                jobs.append(job)
            elif op[0] == "cancel":
                if jobs:
                    srv.cancel(jobs[op[1] % len(jobs)])
            else:
                srv.set_rate(op[1])
            counts.append(srv.njobs)
        yield sim.timeout(1.0)
        srv.set_rate(restore)

    sim.spawn(driver())
    # Budget per job, counting each of the reference's copies as a job.
    run_bounded(sim, 20 * sum(op[4] if op[0] == "submit" else 1
                              for _, op in ops) + 50)
    return {
        "log": log,
        "cancelled": cancelled,
        "counts": counts,
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
    assert new["counts"] == ref["counts"]
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
    ops = [(0.0, ("submit", 30.0, 1.0, 4.0, 1)),
           (0.0, ("submit", 30.0, 1.0, 4.0, 1)),
           (0.0, ("submit", 5.0, 1.0, None, 1)),  # share 10/3 < cap: all free
           (1.0, ("rate", 6.0)),                   # share 2 < cap
           (2.0, ("rate", 20.0)),                  # share 6.7 > cap: bind
           (0.5, ("submit", 3.0, 2.0, None, 1)),
           (1.0, ("rate", 0.0)),                 # stall
           (3.0, ("rate", 5.0))]                 # unbind: 5 < sum of caps
    new = drive(FairShareServer, 10.0, ops, 10.0)
    assert_same(new, drive(ReferenceServer, 10.0, ops, 10.0))
    assert [i for i, _ in new["log"]] == [2, 3, 0, 1]


def test_copies_share_like_separate_jobs():
    """Three copies beside one plain job: each copy gets a quarter of the
    rate, the copies' single handle fires when they all finish, and the
    counters count every copy."""
    ops = [(0.0, ("submit", 4.0, 1.0, None, 3)),
           (0.0, ("submit", 8.0, 1.0, None, 1)),
           (0.5, ("submit", 0.0, 1.0, None, 4))]   # zero work: done at once
    new = drive(FairShareServer, 4.0, ops, 4.0)
    assert_same(new, drive(ReferenceServer, 4.0, ops, 4.0))
    assert new["log"] == [(2, 0.5), (0, 4.0), (1, pytest.approx(5.0))]
    assert new["counts"] == [3, 4, 4]
    assert new["jobs_completed"] == 8
    assert new["population"] == pytest.approx(4 * 4.0 + 1.0)


@pytest.mark.parametrize("server_cls", [FairShareServer, ReferenceServer])
def test_copies_must_be_positive(server_cls):
    srv = server_cls(Simulator(), rate=1.0)
    for copies in (0, -2):
        with pytest.raises(ValueError):
            srv.submit(1.0, copies=copies)
    assert srv.njobs == 0


def test_capped_copies_are_rejected():
    srv = FairShareServer(Simulator(), rate=1.0)
    with pytest.raises(ValueError):
        srv.submit(1.0, cap=0.5, copies=2)
    assert srv.njobs == 0 and srv.jobs_completed == 0
