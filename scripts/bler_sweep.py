#!/usr/bin/env python3
"""Sweep block-error rate against channel noise for a fixed construction.

example:
  python3 scripts/bler_sweep.py --depth 3 --trials 2000
  python3 scripts/bler_sweep.py --channel bsc --grid 0.02,0.05,0.08,0.11 --csv out.csv
"""

import argparse
import csv
import sys

from qpolar.channel import bec, bsc
from qpolar.codec import construct, simulate
from qpolar.gf import arikan_kernel, field_make
from qpolar.kernsearch import FixedKernel

parser = argparse.ArgumentParser(
    description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
)
parser.add_argument("--channel", choices=["bec", "bsc"], default="bec")
parser.add_argument("--grid", type=str, default="0.1,0.2,0.3,0.4,0.5",
                    help="comma-separated noise levels")
parser.add_argument("--depth", type=int, default=3)
parser.add_argument("--pi", type=float, default=0.2)
parser.add_argument("--trials", type=int, default=2000)
parser.add_argument("--seed", type=int, default=1)
parser.add_argument("--csv", type=str, default=None, help="also write rows here")
args = parser.parse_args()

kern = arikan_kernel(field_make(2))
make = bec if args.channel == "bec" else bsc
rows = []
print(f"{'noise':>6} {'rate':>6} {'bler':>8} {'union':>8} {'mdp':>7}")
for tok in args.grid.split(","):
    eps = float(tok)
    W = make(eps)
    spec = construct(W, 2, args.depth, args.pi, FixedKernel(kern), seed=args.seed)
    rep = simulate(spec, W, trials=args.trials, seed=args.seed)
    print(f"{eps:6.3f} {rep['rate']:6.3f} {rep['bler']:8.4f} "
          f"{rep['union_bound']:8.4f} {rep['mdp_ratio']:7.3f}")
    rows.append({"noise": eps, "rate": rep["rate"], "bler": rep["bler"],
                 "union_bound": rep["union_bound"], "mdp_ratio": rep["mdp_ratio"]})

if args.csv:
    with open(args.csv, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {args.csv}", file=sys.stderr)
