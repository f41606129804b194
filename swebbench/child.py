"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured run, so no run inherits
another's heap, GC generations or peak memory.  It prints one JSON
report as its last line of standard output::

    python3 swebbench/child.py --workload meiko_coop --seed 1 \\
        --launched-at <time.monotonic() of the parent> [--profile]

Set-up runs from the parent's launch time to the first simulated event
(the first ``Simulator.run`` call): interpreter start, imports, input
generation, cluster build.  The run phase lasts until
``run_scenario``/``run_fluid`` returns.  A speed sampler
(``calibration.py``) runs through both, and host times are reported
both as measured and in reference seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from calibration import SpeedSampler


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--profile", action="store_true",
                    help="attribute host time to layers (traced run)")
    ap.add_argument("--spans-out", type=Path,
                    help="with --profile: write the entry-point spans here")
    args = ap.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from measure import measured_run

    report = measured_run(args.workload, args.seed, args.scale,
                          args.profile, args.spans_out, sampler)
    sampler.stop()
    run_start = report.pop("run_started_at")
    run_end = report.pop("run_ended_at")
    every_pass = sampler.window(0.0, float("inf"))
    setup_passes = sampler.window(0.0, run_start)
    # A profiled run pauses the sampler for its run phase; its passes
    # before and after stand in.
    run_passes = sampler.window(run_start, run_end)
    setup_raw = run_start - args.launched_at - sum(setup_passes)
    run_cpu = report["run_cpu_s"] - sum(run_passes)
    setup_ref = SpeedSampler.to_reference(setup_passes or every_pass)
    run_ref = SpeedSampler.to_reference(run_passes or every_pass)
    report.update({
        "run_cpu_s": run_cpu,
        "speed_passes": len(sampler.passes),
        "to_reference_setup": setup_ref,
        "to_reference": run_ref,
        "setup_s_raw": setup_raw,
        "setup_s": setup_raw * setup_ref,
        "req_per_host_s_raw": report["settled"] / run_cpu,
        "req_per_host_s": report["settled"] / (run_cpu * run_ref),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
    })
    if "layers" in report:
        # Self times in reference microseconds, like req_per_host_s.
        for name, value in report["layers"].items():
            if ".self_" in name and value:
                report["layers"][name] = value * run_ref
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
