"""Compare two series of benchmark records, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds ``record`` objects, one per line, as ``series.py`` writes
them.  One row per workload and metric gives each side's median and
quartiles, the ratio change/parent with its base, the pairs won (runs of the
same workload and seed on both sides), and a verdict, with the bound and the
direction of each metric taken from ``BENCHMARK.json``:

* improved -- the change wins at least 9 of 10 pairs, ties counting for
  neither, and the medians differ by more than the parent's quartile spread;
* unresolved -- the parent's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every parent run;
* regressed -- the change's median is worse than the parent's by more than
  the bound;
* within bound -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """(workload, metric) -> {seed: value}, and each metric's unit."""
    out: dict = defaultdict(dict)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            key = rec["provenance"]["workload"]
            for name, m in rec["metrics"].items():
                out[(key, name)][rec["provenance"]["seed"]] = (m["value"], m["unit"])
    return out


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def verdict(old: dict, new: dict, better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    ov, nv = [v for v, _ in old.values()], [v for v, _ in new.values()]
    oq1, omed, oq3 = quartiles(ov)
    nq1, nmed, nq3 = quartiles(nv)
    seeds = sorted(set(old) & set(new))
    wins = sum(sign * (new[s][0] - old[s][0]) > 0 for s in seeds)
    all_better = all(sign * (n - o) > 0 for n in nv for o in ov)
    gain = sign * (nmed - omed)
    spread = (oq3 - oq1) / abs(omed) if omed else float("inf")
    if gain > 0 and seeds and wins >= 0.9 * len(seeds) and abs(nmed - omed) > oq3 - oq1:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif -gain > bound * abs(omed):
        result = "regressed"
    else:
        result = "within bound"
    return {
        "old": (omed, oq1, oq3), "new": (nmed, nq1, nq3),
        "ratio": nmed / omed if omed else float("nan"),
        "wins": wins, "pairs": len(seeds), "spread": spread, "verdict": result,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    old, new = load(args.parent), load(args.change)
    print(f"{'workload':16} {'metric':26} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'change/parent':>36} {'won':>6}  verdict")
    for key in sorted(set(old) & set(new)):
        wl, name = key
        if name not in rules:
            continue
        better, bound = rules[name]
        unit = next(iter(old[key].values()))[1]
        r = verdict(old[key], new[key], better, bound)
        (om, oq1, oq3), (nm, nq1, nq3) = r["old"], r["new"]
        print(f"{wl:16} {name:26} {om:12.5g} [{oq1:9.5g}, {oq3:9.5g}] "
              f"{nm:12.5g} [{nq1:9.5g}, {nq3:9.5g}] "
              f"{r['ratio']:8.4f} (base: {om:.5g} {unit}) {r['wins']:2d}/{r['pairs']:<2d}  "
              f"{r['verdict']} (bound {bound:.0%}, parent spread {r['spread']:.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
