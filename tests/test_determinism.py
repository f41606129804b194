"""Fixed-seed determinism regression tests.

The kernel performance pass (``docs/PERFORMANCE.md``) rewrote several hot
paths — the run loop, the fair-share station, trace gating, and the loadd
broadcast fan-out — under the contract that every change is
*behaviour-preserving*: a fixed-seed scenario must produce bit-identical
metrics before and after.  This module pins that contract: it runs fixed
scenarios (both fabric types, the cooperative cache and the geo tier) and
compares an exact, ``repr``-level fingerprint of every request record,
counter and trace line against a golden fixture.  The comparison is exact
``==``; it is never loosened.

If a change legitimately alters simulation behaviour (new feature, model
fix), regenerate the golden file::

    PYTHONPATH=src python tests/test_determinism.py --regenerate

and explain the behaviour change in the commit message.  A *performance*
change must not need to do this, with one documented exception: the
virtual-time fair-share station computes the same allocation as the
original rescan station with different float arithmetic, so the golden was
re-pinned once for it (only float bits moved, by at most ~2e-13
relative).  The loadd fan-out that enters a broadcast's k bus copies as
one ``copies=k`` station job re-pinned ``det-now`` once more: only its
``records`` and ``finished_at`` floats moved, by at most 2e-13 relative,
because one weight-k job splits the bus's virtual clock differently
from k jobs of weight 1; every other field and scenario stayed
byte-identical.  Exact station wake-ups (a wake-up lands on the float
the station computed and finishes its target with no completion
tolerance) and the request pipeline's fork and parse steps served as one
CPU job re-pinned every scenario once more: no non-float field moved,
floats by at most 2.3e-13 relative (4.3e-14 s absolute), and the
``det-meiko``/``det-coop`` trace hashes changed with their float
timestamps.  ``--regenerate`` prints this drift report (per scenario:
non-float fields that differ, trace hashes changed, largest float
difference) before it writes, so every re-pin can be audited.  All
re-pins are backed by an independent oracle:
:func:`test_reference_station_reproduces_golden` runs the same scenarios
with the original station (``tests/fair_share_reference.py``) patched in
and requires every non-float field to be identical to the golden and every
float to agree within 1e-12 relative.
"""

import functools
import hashlib
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional

from repro.cluster import meiko_cs2, sun_now
from repro.core.costmodel import CostParameters
from repro.experiments.cache_coop import hot_cold_corpus
from repro.experiments.runner import Scenario, run_scenario
from repro.geo import GeoScenario, run_geo
from repro.sim import RandomStreams, Trace
from repro.workload import (
    burst_workload,
    poisson_workload,
    uniform_corpus,
    uniform_sampler,
    zipf_sampler,
)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "determinism_fingerprint.json"
#: the single-cluster scenarios, which run with the geo tier disabled
GEO_OFF = ("det-meiko", "det-now", "det-coop")
#: float literals as ``repr`` writes them, not glued to a name or path
_FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf)")


def _scenarios():
    """Fixed-seed scenarios covering both fabrics, both hot paths, and
    the cooperative-cache machinery (directory, replication daemon,
    replica and peer-cache read paths)."""
    meiko_corpus = uniform_corpus(24, 4e4, 6)
    meiko = Scenario(
        name="det-meiko",
        spec=meiko_cs2(6),
        corpus=meiko_corpus,
        workload=burst_workload(
            20, 8.0, uniform_sampler(meiko_corpus, RandomStreams(seed=7))),
        policy="sweb",
        seed=3,
        trace=Trace(),
    )
    now_corpus = uniform_corpus(12, 8e4, 4)
    now = Scenario(
        name="det-now",
        spec=sun_now(4),
        corpus=now_corpus,
        workload=poisson_workload(
            10.0, 6.0, uniform_sampler(now_corpus, RandomStreams(seed=11)),
            RandomStreams(seed=13)),
        policy="sweb",
        seed=5,
        params=CostParameters(),
        trace=Trace(),
    )
    coop_corpus = hot_cold_corpus(4)
    coop = Scenario(
        name="det-coop",
        spec=meiko_cs2(4),
        corpus=coop_corpus,
        workload=burst_workload(
            6, 20.0, zipf_sampler(coop_corpus, RandomStreams(seed=17),
                                  alpha=1.0, hot_set=16, tail_weight=0.25)),
        policy="sweb",
        seed=9,
        params=CostParameters(coop_cache=True, replicate=True,
                              cache_hot_set=16, replication_period=1.0,
                              replication_skew=1.0,
                              replication_max_per_cycle=8),
        trace=Trace(),
    )
    return [meiko, now, coop]


def _record_line(rec) -> str:
    phases = " ".join(f"{k}={v!r}" for k, v in sorted(rec.phases.items()))
    return (f"{rec.req_id} {rec.path} start={rec.start!r} end={rec.end!r} "
            f"status={rec.status} ok={rec.ok} dropped={rec.dropped} "
            f"reason={rec.drop_reason} dns={rec.dns_node} "
            f"served={rec.served_by} redirected={rec.redirected} "
            f"retries={rec.retries} [{phases}]")


def _geo_entry() -> dict:
    """Repr-level digest of a fixed-seed three-site geo scenario: every
    population's exact response times plus the WAN/placement counters."""
    result = run_geo(GeoScenario(
        name="det-geo", n_files=24, hot_files=6, file_bytes=6e4,
        rps=18.0, duration=6.0, seed=21, graceful=True,
        edge_budget_bytes=4e6))
    populations = {}
    for site, pop in sorted(result.populations.items()):
        populations[site] = {
            "offered": pop.offered, "completed": pop.completed,
            "dropped": pop.dropped, "lost": pop.lost,
            "spilled": pop.spilled,
            "response_times": [repr(t) for t in pop.response_times],
        }
    return {
        "populations": populations,
        "edge_hit_rate": repr(result.edge_hit_rate),
        "wan_reads": result.wan_reads,
        "wan_bytes": repr(result.wan_bytes),
        "placements": result.placements,
        "spills": result.spills,
        "partition_spills": result.partition_spills,
        "unroutable": result.unroutable,
        "finished_at": repr(result.finished_at),
    }


def _run() -> tuple[dict, dict]:
    """The fingerprint of the fixed-seed scenarios, plus each scenario's
    rendered kernel trace (the fingerprint keeps only its hash)."""
    out = {}
    traces = {}
    for scenario in _scenarios():
        result = run_scenario(scenario)
        metrics = result.metrics
        trace_text = scenario.trace.render()
        traces[scenario.name] = trace_text
        out[scenario.name] = {
            "records": [_record_line(r) for r in metrics.records],
            "counters": {k: v for k, v in
                         sorted(metrics.counters.as_dict().items())},
            "served_by": {str(k): v for k, v in
                          sorted(metrics.served_by_histogram().items())},
            "finished_at": repr(result.finished_at),
            "trace_records": len(scenario.trace),
            "trace_sha256": hashlib.sha256(
                trace_text.encode()).hexdigest(),
        }
    out["det-geo"] = _geo_entry()
    return out, traces


def fingerprint() -> dict:
    """Exact (repr-level) digest of the fixed-seed scenarios."""
    return _run()[0]


@functools.lru_cache(maxsize=None)
def _current() -> tuple[dict, dict]:
    """One run of the scenarios, shared by the tests below."""
    return _run()


def test_fixed_seed_scenarios_match_golden_fingerprint():
    golden = json.loads(GOLDEN.read_text())
    current = _current()[0]
    assert current.keys() == golden.keys()
    for name in golden:
        for key in golden[name]:
            assert current[name][key] == golden[name][key], (
                f"{name}.{key} drifted from the golden fingerprint — a "
                f"supposedly behaviour-preserving change altered simulation "
                f"results (see docs/PERFORMANCE.md)")


def test_pre_geo_goldens_unchanged_with_geo_disabled():
    """The geo tier is additive: with geo off (the default everywhere),
    the single-cluster scenarios must stay *bit-identical* to their
    entries in the one golden file (docs/GEO.md).  Those entries are the
    ones pinned before the tier landed; the geo scenario has its own."""
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {*GEO_OFF, "det-geo"}
    current = _current()[0]
    for name in GEO_OFF:
        assert current[name] == golden[name], (
            f"{name} drifted from the golden fingerprint — the geo tier "
            f"must be a strict no-op when disabled (docs/GEO.md)")


def drift(old: object, new: object, where: str = "",
          report: Optional[dict] = None) -> dict:
    """How far fingerprint ``new`` is from ``old``.

    ``fields`` counts the non-float values that differ (a string counts
    once if its text outside the float literals differs; ``first`` says
    where the first one is), ``hashes`` the changed trace hashes (trace
    text holds float timestamps), and ``rel``/``abs`` are the largest
    float differences (``worst`` says where the relative one is).
    """
    if report is None:
        report = {"fields": 0, "first": None, "hashes": 0,
                  "rel": 0.0, "abs": 0.0, "worst": None}
    if where.endswith(".trace_sha256"):
        report["hashes"] += old != new
    elif (isinstance(old, dict) and isinstance(new, dict)
          and old.keys() == new.keys()):
        for key in old:
            drift(old[key], new[key], f"{where}.{key}", report)
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            drift(a, b, f"{where}[{i}]", report)
    elif (isinstance(old, str) and isinstance(new, str)
          and _FLOAT.split(old) == _FLOAT.split(new)):
        for a, b in zip(_FLOAT.findall(old), _FLOAT.findall(new)):
            a, b = float(a), float(b)
            if a == b:
                continue
            diff = abs(a - b)
            if not math.isfinite(diff):  # inf against a finite value
                drift(a, b, where, report)
                continue
            rel = diff / max(abs(a), abs(b))
            report["abs"] = max(report["abs"], diff)
            if rel > report["rel"]:
                report["rel"], report["worst"] = rel, (where, a, b)
    elif old != new:
        report["fields"] += 1
        if report["first"] is None:
            report["first"] = (where, old, new)
    return report


def _assert_same_but_float_noise(new: object, ref: object, where: str) -> None:
    """``ref`` equals ``new`` except that float literals may differ by
    1e-12 relative; everything else must be identical."""
    report = drift(new, ref, where)
    assert report["fields"] == 0, report["first"]
    assert report["rel"] <= 1e-12, report["worst"]


def test_drift_report_tells_float_noise_from_changes():
    old = {"records": ["0 start=1.0 end=2.0 status=200", "1 end=inf"],
           "trace_sha256": "ab12", "finished_at": "4.0"}
    new = {"records": ["0 start=1.0 end=2.000000000001 status=200",
                       "1 end=5.0"],
           "trace_sha256": "cd34", "finished_at": "4.0"}
    report = drift(old, new, "det")
    assert report["hashes"] == 1
    assert report["fields"] == 1 and report["first"][0] == "det.records[1]"
    assert report["worst"][0] == "det.records[0]"
    assert math.isclose(report["rel"], 5e-13, rel_tol=1e-3)
    new["records"][0] = new["records"][0].replace("200", "503")
    assert drift(old, new, "det")["fields"] == 2


def test_reference_station_reproduces_golden(monkeypatch):
    """Independent check of the golden: the original rescan fair-share
    station (``tests/fair_share_reference.py``), patched into every
    cluster module that builds stations, reproduces every non-float field
    exactly and every float within 1e-12 relative.  Kernel traces are
    compared line for line the same way (the golden keeps only their
    hashes)."""
    import repro.cluster.disk
    import repro.cluster.network
    import repro.cluster.node

    from .fair_share_reference import FairShareServer as Reference

    for module in (repro.cluster.disk, repro.cluster.network,
                   repro.cluster.node):
        monkeypatch.setattr(module, "FairShareServer", Reference)
    reference, ref_traces = _run()
    golden = json.loads(GOLDEN.read_text())
    current, traces = _current()
    for name in golden:
        entry = {k: v for k, v in reference[name].items()
                 if k != "trace_sha256"}
        pinned = {k: v for k, v in golden[name].items()
                  if k != "trace_sha256"}
        _assert_same_but_float_noise(pinned, entry, name)
    for name in traces:
        assert (hashlib.sha256(traces[name].encode()).hexdigest()
                == golden[name]["trace_sha256"])
        lines = _canonical_trace(traces[name])
        ref_lines = _canonical_trace(ref_traces[name])
        assert len(lines) == len(ref_lines), name
        for (_, stamp, rest), (_, ref_stamp, ref_rest) in zip(lines,
                                                              ref_lines):
            # "[%10.6f]": a timestamp within 1e-12 may still round to a
            # neighbouring sixth decimal, so allow one printed unit.
            assert math.isclose(stamp, ref_stamp, rel_tol=1e-12,
                                abs_tol=1.000001e-6), (name, stamp, rest)
            _assert_same_but_float_noise(rest, ref_rest, f"{name}.trace")


def _canonical_trace(text: str) -> list[tuple[str, float, str]]:
    """Trace lines as (text with floats masked, timestamp, text), sorted.

    Events at the same simulated instant may be logged in either order
    (float noise decides which of two equal-time completions fires
    first), so the traces are compared as sorted record lists: the same
    records, each at the same time up to float noise.
    """
    out = []
    for line in text.splitlines():
        stamp, rest = line.split("]", 1)
        out.append((_FLOAT.sub("#", rest), float(stamp[1:]), rest))
    out.sort()
    return out


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        current = fingerprint()
        if GOLDEN.exists():
            old = json.loads(GOLDEN.read_text())
            for name in sorted(old.keys() | current.keys()):
                r = drift(old.get(name), current.get(name), name)
                print(f"{name}: {r['fields']} non-float fields differ, "
                      f"{r['hashes']} trace hashes changed, max float "
                      f"difference {r['rel']:.3g} relative / "
                      f"{r['abs']:.3g} absolute")
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
