"""Output checks: pure functions over what one run produced.

Every check returns a list of human-readable failures (empty = passed),
so a corrupted outcome names what is wrong.  The child process runs the
per-run checks on its own outcome; the parent runs the cross-run
fingerprint checks.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

__all__ = ["Row", "check_accounted", "check_bytes", "check_fluid", "check_same",
           "check_settled", "check_traces", "fingerprint"]


class Row(NamedTuple):
    """One request record as the run left it."""

    req_id: int
    path: str
    start: float
    end: Optional[float]
    status: Optional[int]
    ok: bool
    dropped: bool
    drop_reason: Optional[str]
    dns_node: Optional[int]
    served_by: Optional[int]
    redirected: bool
    retries: int
    source: Optional[str]
    #: body bytes of the response the client received (None: no response)
    bytes: Optional[float]


_TIME_TOL = 1e-9


def check_settled(arrivals: Sequence[tuple[float, str]],
                  rows: Sequence[Row], counters: Mapping[str, int]
                  ) -> list[str]:
    """Every generated arrival settles exactly once.

    Each arrival ``(time, path)`` must own exactly one request record
    that started at its time for its path and has ended either completed
    or dropped, and the ``http.completed`` / ``http.dropped`` counters
    must equal the records' outcomes (a request finished twice would
    count twice).
    """
    failures = []
    if len(rows) != len(arrivals):
        failures.append(f"{len(arrivals)} arrivals but {len(rows)} "
                        "request records")
    by_arrival = sorted((path, t) for t, path in arrivals)
    by_record = sorted((r.path, r.start) for r in rows)
    unmatched = sum(1 for (pa, ta), (pr, tr) in zip(by_arrival, by_record)
                    if pa != pr or abs(ta - tr) > _TIME_TOL)
    if unmatched:
        failures.append(f"{unmatched} request records do not match an "
                        "arrival's path and time")
    unsettled = sum(1 for r in rows if r.end is None)
    if unsettled:
        failures.append(f"{unsettled} requests never settled")
    both = sum(1 for r in rows if r.ok and r.dropped)
    if both:
        failures.append(f"{both} requests both completed and dropped")
    ok = sum(1 for r in rows if r.ok)
    dropped = sum(1 for r in rows if r.dropped)
    if counters.get("completed", 0) != ok:
        failures.append(f"completed counter {counters.get('completed', 0)} "
                        f"!= {ok} completed records")
    if counters.get("dropped", 0) != dropped:
        failures.append(f"dropped counter {counters.get('dropped', 0)} "
                        f"!= {dropped} dropped records")
    return failures


def check_bytes(rows: Iterable[Row],
                sizes: Mapping[str, float]) -> list[str]:
    """Every completed response carried exactly its file's corpus size."""
    bad = [r for r in rows if r.ok and r.bytes != sizes.get(r.path)]
    if not bad:
        return []
    r = bad[0]
    return [f"{len(bad)} completed responses have the wrong byte count "
            f"(first: request {r.req_id} {r.path} got {r.bytes}, corpus says "
            f"{sizes.get(r.path)})"]


def check_traces(trace_rows: Iterable[Sequence]) -> list[str]:
    """Every request trace is well formed and reconciles with its latency.

    ``trace_rows`` holds ``(req_id, traced, problems, reconciles)`` per
    request record; ``reconciles`` is ``None`` for requests that did not
    complete.
    """
    failures = []
    for req_id, traced, problems, reconciles in trace_rows:
        if not traced:
            failures.append(f"request {req_id} has no trace")
        elif problems:
            failures.append(f"request {req_id} trace: {problems[0]}")
        elif reconciles is False:
            failures.append(f"request {req_id} trace does not reconcile "
                            "with its latency")
    if len(failures) > 3:
        failures[3:] = [f"... {len(failures) - 3} more trace failures"]
    return failures


def check_fluid(requested: int, n_requests: int,
                served: Sequence[int]) -> list[str]:
    """The fluid model served exactly the requested number of requests."""
    failures = []
    if n_requests != requested:
        failures.append(f"n_requests {n_requests} != requested {requested}")
    if sum(served) != requested:
        failures.append(f"sum(served) {sum(served)} != requested {requested}")
    return failures


def check_same(fingerprints: Sequence[str], what: str) -> list[str]:
    """All fingerprints are equal (the simulated outcome repeated)."""
    distinct = sorted(set(fingerprints))
    if len(distinct) <= 1:
        return []
    return [f"{what}: {len(distinct)} different simulated-outcome "
            f"fingerprints ({', '.join(fp[:12] for fp in distinct)})"]


def check_accounted(accounted: float, tolerance: float = 0.2) -> list[str]:
    """The layers' self times add up to the profiled run's CPU time."""
    if abs(accounted - 1.0) <= tolerance:
        return []
    return [f"layer self times account for {accounted:.1%} of the traced "
            "run's CPU time"]


def fingerprint(parts: Iterable[object]) -> str:
    """sha256 over the ``repr`` of each part (floats keep every digit)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()
