"""qpolar benchmark: one workload, timed from outside, outputs checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload link-z16 --seed 80802 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over fresh processes), units per second and peak resident memory;
the record adds the median call time with its sample count and the failed
fraction.  ``--trace 1`` runs a fixed number of calls twice each,
untraced then traced, and reports the per-layer metrics and the tracing
overhead.  Every call's output is checked; a call that raises or fails its
check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
starts with ``record `` and holds the full result with its provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh processes whose set-up time is measured per run
SETUP_PROBES = 5


def _cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return int(nproc)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import qpolar from it."""
    src = ROOT / "src"
    if not (src / "qpolar" / "__init__.py").is_file():
        raise SystemExit(f"error: no qpolar sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import qpolar

    if Path(qpolar.__file__).resolve().parent != (src / "qpolar").resolve():
        raise SystemExit(f"error: imported qpolar from {qpolar.__file__}, not {src}")


def _git(*args: str) -> str | None:
    """Output of a git command on the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(nproc: int, wl, seed: int, seconds: int) -> dict:
    import numpy as np

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "workload": wl.name,
        "seed": seed,
        "call_seeds": f"seed + j for call j (from {seed})",
        "seconds": seconds,
        "params": wl.params,
    }


# ------------------------------------------------------------------ set-up

def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, build the inputs, say ready."""
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(seed)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from process start to ready, for fresh set-up processes."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe exited with {code}")
        times.append(dt)
    return times


# ------------------------------------------------------------------- calls

def run_call(wl, state, j: int, span=nullcontext) -> tuple[float, list]:
    """Time one call inside ``span``, then check its output outside both."""
    dt = 0.0
    try:
        with span():
            t0 = time.perf_counter()
            try:
                out = wl.call(state, j)
            finally:
                dt = time.perf_counter() - t0
        return dt, wl.check(state, out, j)
    except Exception as exc:  # a failed call is counted, the loop goes on
        return dt, [f"raised {type(exc).__name__}: {exc}"]


def closed_loop(wl, state, seconds: float) -> dict:
    """Call back to back until ``seconds`` of call time have passed (at least once)."""
    times, problems, failed = [], [], 0
    while not times or sum(times) < seconds:
        dt, bad = run_call(wl, state, len(times))
        times.append(dt)
        if bad:
            failed += 1
            problems.append({"call": len(times) - 1, "problems": bad})
    return {"times": times, "failed": failed, "problems": problems}


def end_to_end(wl, state, seconds: int, setup_times: list[float]) -> tuple[dict, dict]:
    loop = closed_loop(wl, state, seconds)
    times = loop["times"]
    n = len(times)
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "units_per_s": {"value": n * wl.units_per_call / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    # call_s.p50 is reported, not gated: with one caller it carries what
    # units_per_s does, and over 4-20 calls a median jumps between the host's
    # fast and slow phases where the mean moves smoothly.
    detail = {
        "unit": wl.unit,
        "calls": n,
        "call_s.p50": statistics.median(times),
        "call_s": times,
        "setup_s_samples": setup_times,
        "failed_frac": loop["failed"] / n,
        "problems": loop["problems"],
        "diagnostics": state.get("diagnostics", {}),
    }
    if n >= 100:  # a tail percentile only with at least ten calls beyond it
        detail["call_s.p90"] = statistics.quantiles(times, n=10)[-1]
    return metrics, {"attempted": n, "failed": loop["failed"], "detail": detail}


def traced(wl, seed: int) -> tuple[dict, dict]:
    """Set up and run ``wl.trace_calls`` calls, each untraced then traced."""
    from tracer import SETUP, Tracer

    tracer = Tracer()
    with tracer.installed(), tracer.root(SETUP):
        state = wl.setup(seed)
    plain, spanned, problems, failed = [], [], [], 0
    for j in range(wl.trace_calls):
        dt, bad = run_call(wl, state, j)
        plain.append(dt)
        with tracer.installed():
            dt, bad_traced = run_call(wl, state, j, lambda: tracer.root(j))
        spanned.append(dt)
        bad += bad_traced
        counts = tracer.calls_per(j)
        for name, want in wl.invariants.items():
            if counts.get(name, 0) != want:
                bad.append(f"traced {counts.get(name, 0)} {name} calls, expected {want}")
        if bad:
            failed += 1
            problems.append({"call": j, "problems": bad})
    calls = list(range(wl.trace_calls))
    metrics = tracer.per_layer(calls, sum(spanned) / sum(plain) - 1.0)
    span_file = HERE / "out" / f"spans-{wl.name}-{seed}.npz"
    tracer.save(span_file)
    detail = {
        "untraced_call_s": plain,
        "traced_call_s": spanned,
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "invariants": wl.invariants,
        "problems": problems,
        "diagnostics": state.get("diagnostics", {}),
    }
    return metrics, {"attempted": wl.trace_calls, "failed": failed, "detail": detail}


# -------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's acceptance-battery seed)")
    ap.add_argument("--seconds", type=int, default=30, help="call time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = _cap_blas_threads()
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if args.probe_setup:
        probe_setup(wl.name, seed)
        return 0

    if args.trace:
        metrics, result = traced(wl, seed)
    else:
        setup_times = measure_setup(wl.name, seed)
        state = wl.setup(seed)
        metrics, result = end_to_end(wl, state, args.seconds, setup_times)
    record = {
        "provenance": provenance(nproc, wl, seed, args.seconds),
        "trace": args.trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        **result["detail"],
    }
    print("record " + json.dumps(record))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
