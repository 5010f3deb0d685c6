"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/series.py --workloads link-z16 census-bec1024 \\
        --runs 10 --seconds 20 --out perfbench/out/series.jsonl

Each run is a fresh ``run.py`` process; its full record (the ``record`` line)
is appended to ``--out``, one JSON object per line, which is the input of
``compare.py``.  The table gives, per workload and metric, the median, the
quartiles and the quartile spread as a share of the median, with
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        raise SystemExit(f"run failed ({out.returncode}): {' '.join(cmd)}\n{out.stderr}")
    return json.loads(lines[-2][len("record "):])


def spread_table(records: list[dict]) -> list[str]:
    values = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            values[(rec["provenance"]["workload"], name)].append(m["value"])
    rows = [f"{'workload':16} {'metric':28} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'iqr/med':>8}"]
    for (wl, name), vals in sorted(values.items()):
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        rows.append(f"{wl:16} {name:28} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{share:8.4f}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for k in range(args.runs):
        for wl in args.workloads:
            rec = run_once(wl, args.first_seed + k, args.seconds)
            records.append(rec)
            with args.out.open("a") as fh:
                fh.write(json.dumps(rec) + "\n")
            print(f"{wl} seed {args.first_seed + k}: correct={rec['correct']} "
                  f"failed={rec['failed']}/{rec['attempted']}", flush=True)
    print("\n".join(spread_table(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
