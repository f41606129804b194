"""SWEB benchmark driver: run workloads, check outputs, print metrics.

Run from the repository root::

    python3 swebbench/run.py                         # every workload
    python3 swebbench/run.py --workload now_bus --seed 3 --seconds 15
    python3 swebbench/run.py --workload meiko_coop --trace 1

Each measured run is a fresh interpreter (``child.py``), started one
after another, never in parallel.  A workload keeps starting runs until
``--seconds`` of wall time would be exceeded (at least two untraced
runs, or one untraced + traced pair), and reports medians across them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of profiled runs.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  A full record with provenance and
every run's raw figures goes to ``swebbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Optional

from checks import check_same

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: a single run never gets more wall time than this (the whole command
#: must finish within 180 s)
RUN_TIMEOUT_S = 170.0
MIN_UNTRACED_RUNS = 2

#: the benchmark's definition: workloads, metric names, units and bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
#: name -> unit, printed and emitted in this order
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class RunFailed(RuntimeError):
    """A child run crashed or overran; the command prints no result."""


# ----------------------------------------------------------------- provenance
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    """sha256 over the program's sources (identifies code without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict[str, Any]:
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src", "swebbench")
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_digest(),
    }


# --------------------------------------------------------------------- runs
def run_child(workload: str, seed: int, scale: float, deadline: float,
              profile: bool = False,
              spans_out: Optional[Path] = None) -> dict[str, Any]:
    """Run ``child.py`` once and return its JSON report."""
    env = dict(os.environ)
    # One thread per run: no BLAS/OpenMP pools inside numpy.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale)]
    if profile:
        cmd.append("--profile")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"{workload}: out of time before a run could start")
    launched = time.monotonic()
    try:
        done = subprocess.run(cmd + ["--launched-at", repr(launched)],
                              capture_output=True, text=True,
                              timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: a run overran {timeout:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise RunFailed(f"{workload}: run exited {done.returncode}\n"
                        f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _median(values: list[Optional[float]]) -> Optional[float]:
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float, deadline: float) -> dict[str, Any]:
    """All runs of one workload: medians, raw reports and check failures."""
    started = time.monotonic()
    budget_end = min(started + seconds, deadline)
    reference = None
    if workload == "meiko_traced" and not trace:
        # meiko_coop on the same inputs: the tracer must only observe.
        reference = run_child("meiko_coop", seed, scale, deadline)
    untraced: list[dict] = []
    traced: list[dict] = []
    spans_out = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    while True:
        t0 = time.monotonic()
        untraced.append(run_child(workload, seed, scale, deadline))
        if trace:
            traced.append(run_child(workload, seed, scale, deadline,
                                    profile=True, spans_out=spans_out))
        step = time.monotonic() - t0
        enough = trace or len(untraced) >= MIN_UNTRACED_RUNS
        if enough and time.monotonic() + step > budget_end:
            break

    failures = [f for r in untraced + traced for f in r["failures"]]
    fps = [r["fingerprint"] for r in untraced + traced]
    failures += check_same(fps, "untraced and traced runs of one seed "
                           "disagree" if trace else "runs of one seed disagree")
    if reference is not None:
        failures += check_same(
            [reference["fingerprint"], *fps],
            "meiko_traced differs from meiko_coop (the tracer changed the "
            "simulation)")

    first = untraced[0]
    end_to_end = {name: _median([r[name] for r in untraced])
                  for name in END_TO_END}
    result: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "runs": len(untraced) + len(traced),
        "issued": first["issued"],
        "attempted": sum(r["issued"] for r in untraced + traced),
        "failed": sum(r["failed"] for r in untraced + traced),
        "drop_frac": first["drop_frac"],
        "steady_requests": first["steady_requests"],
        "parameters": first["parameters"],
        "run_wall_s": _median([r["run_wall_s"] for r in untraced]),
        "run_cpu_s": _median([r["run_cpu_s"] for r in untraced]),
        "req_per_host_s_raw": _median([r["req_per_host_s_raw"]
                                       for r in untraced]),
        "setup_s_raw": _median([r["setup_s_raw"] for r in untraced]),
        "to_reference": _median([r["to_reference"] for r in untraced]),
        "end_to_end": end_to_end,
        "failures": [f"{workload} seed {seed}: {f}" for f in failures],
        "fingerprint": first["fingerprint"],
        "reports": untraced + traced + ([reference] if reference else []),
    }
    if trace:
        layers = {name: _median([r["layers"][name] for r in traced])
                  for name in PER_LAYER if name != "trace.overhead"}
        traced_rate = _median([r["req_per_host_s"] for r in traced])
        layers["trace.overhead"] = traced_rate / end_to_end["req_per_host_s"]
        result["per_layer"] = layers
        result["spans_file"] = spans_out.relative_to(ROOT).as_posix()
    return result


# -------------------------------------------------------------------- output
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def print_result(result: dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"scale {result['scale']:g}  {result['runs']} runs  "
          f"{result['issued']} requests issued per run")
    table = result["per_layer"] if result["trace"] else result["end_to_end"]
    units = PER_LAYER if result["trace"] else END_TO_END
    for name, value in table.items():
        print(f"  {name:<32} {_fmt(value):>14} {units[name]}")
    if not result["trace"]:
        print(f"  {'drop_frac':<32} {_fmt(result['drop_frac']):>14} ratio")
        for label, value, unit in (
                ("(req_per_host_s, host s)", result["req_per_host_s_raw"],
                 "req/s"),
                ("(setup_s, host s)", result["setup_s_raw"], "s"),
                ("(run phase wall time)", result["run_wall_s"], "s"),
                ("(reference s per host s)", result["to_reference"], "")):
            print(f"  {label:<32} {_fmt(value):>14} {unit}")
    status = "ok" if not result["failures"] else "FAILED"
    print(f"  checks: {status}")
    for failure in result["failures"]:
        print(f"    {failure}")


def json_metrics(results: list[dict[str, Any]], trace: bool
                 ) -> dict[str, dict[str, Any]]:
    """The last line's ``metrics``; n/a is reported as 0 (no work done)."""
    units = PER_LAYER if trace else END_TO_END
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        for name, value in result[key].items():
            metrics[prefix + name] = {
                "value": 0.0 if value is None else value,
                "unit": units[name]}
    return metrics


# ---------------------------------------------------------------------- main
def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description="Run the SWEB benchmark and print its metrics.")
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="wall-time budget per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: profiled runs, per-layer metrics")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply each run's work (smoke tests: 0.02)")
    args = ap.parse_args(argv)
    if args.scale <= 0:
        ap.error("--scale must be > 0")

    # Imports happen inside the child runs; check the program is here
    # before starting any of them.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources (src/repro) are missing under "
              f"{ROOT}", file=sys.stderr)
        return 2
    # Compile once up front so no measured run pays for bytecode caching.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_TIMEOUT_S * (len(names) if
                                                   args.workload == "all"
                                                   else 1)
    record: dict[str, Any] = {"provenance": provenance(),
                              "argv": sys.argv[1:], "results": []}
    print(f"host: {record['provenance']['cpu_model']}, "
          f"{record['provenance']['nproc']} cpus, "
          f"python {record['provenance']['python']}, "
          f"numpy {record['provenance']['numpy']}, "
          f"rev {record['provenance']['git_revision'] or 'unknown'}"
          f"{' (dirty)' if record['provenance']['git_dirty'] else ''}")
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace),
                             args.scale, deadline)
            results.append(result)
            print_result(result)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["results"] = results
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      ".json")
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {out_file.relative_to(ROOT).as_posix()}")

    correct = not any(r["failures"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": json_metrics(results, bool(args.trace)),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
