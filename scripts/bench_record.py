#!/usr/bin/env python3
"""Write a benchmark comparison of two commits as ``BENCH_<pr>.json``.

    python3 scripts/bench_record.py PARENT.jsonl CHANGE.jsonl --pr 26

The inputs are ``perfbench/series.py`` output files, one run record per
line: one from a checkout of the parent commit, one from the change.  For
every workload and end-to-end metric that both sides ran, the file holds
each side's median and quartiles, the ratio change/parent, the pairs won
(runs of the same workload and seed on both sides) and the verdict.  The
numbers and the verdict rule come from ``perfbench/compare.py`` (``load``
and ``verdict``, imported by path), and each metric's direction and bound
from ``BENCHMARK.json``, so the file says what ``compare.py`` prints.  It
also holds each side's commit and the host's provenance, as the records
give them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _compare_module():
    path = ROOT / "perfbench" / "compare.py"
    spec = importlib.util.spec_from_file_location("perfbench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def _commit(records: list[dict], side: str) -> dict:
    """The one commit a side's records were run from, and whether its tree was dirty."""
    shas = {rec["provenance"]["git_sha"] for rec in records}
    if len(shas) != 1:
        raise SystemExit(f"error: the {side} records come from {len(shas)} commits: "
                         f"{sorted(map(str, shas))}")
    return {
        "sha": shas.pop(),
        "dirty": any(rec["provenance"]["git_dirty"] for rec in records),
        "runs": len(records),
    }


def _host(records: list[dict]) -> dict:
    """What the records say about the host, and what this machine says about itself."""
    keys = ("python", "numpy", "nproc", "blas_threads", "seconds")
    host = {key: sorted({str(rec["provenance"][key]) for rec in records}) for key in keys}
    host["platform"] = platform.platform()
    host["machine"] = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        host["cpu"] = sorted(set(models))
    return host


def bench_record(parent: Path, change: Path, pr: int) -> dict:
    compare = _compare_module()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = compare.load(parent), compare.load(change)
    old_recs, new_recs = _records(parent), _records(change)
    rules = {rule["name"]: rule for rule in spec["end_to_end"]}
    workloads: dict = {}
    for workload, name in sorted(set(old) & set(new)):
        if name not in rules:
            continue
        rule = rules[name]
        r = compare.verdict(old[workload, name], new[workload, name], rule["better"], rule["bound"])
        (om, oq1, oq3), (nm, nq1, nq3) = r["old"], r["new"]
        workloads.setdefault(workload, {})[name] = {
            "unit": rule["unit"],
            "better": rule["better"],
            "bound": rule["bound"],
            "parent": {"median": om, "q1": oq1, "q3": oq3},
            "change": {"median": nm, "q1": nq1, "q3": nq3},
            "ratio": r["ratio"],
            "pairs_won": r["wins"],
            "pairs": r["pairs"],
            "parent_spread": r["spread"],
            "verdict": r["verdict"],
        }
    return {
        "pr": pr,
        "parent": _commit(old_recs, "parent"),
        "change": _commit(new_recs, "change"),
        "host": _host(old_recs + new_recs),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="series.py records of the parent commit")
    ap.add_argument("change", type=Path, help="series.py records of the change")
    ap.add_argument("--pr", type=int, required=True, help="number in the output's name")
    ap.add_argument("--out-dir", type=Path, default=ROOT, help="where BENCH_<pr>.json goes")
    args = ap.parse_args(argv)
    doc = bench_record(args.parent, args.change, args.pr)
    out = args.out_dir / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for wl, metrics in doc["workloads"].items():
        for name, m in metrics.items():
            print(f"{wl:16} {name:12} {m['parent']['median']:12.5g} -> "
                  f"{m['change']['median']:12.5g} x{m['ratio']:.4f}  "
                  f"{m['pairs_won']}/{m['pairs']}  {m['verdict']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
