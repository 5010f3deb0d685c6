#!/usr/bin/env python3
"""Print the median cost in µs of one call of each synthesis-step layer.

Two inputs, both on the Arikan kernel over GF(2):

census     a 3-output BEC(0.5) child, position 1: the tiny steps that
           ``process`` and the polarization census make by the thousand;
construct  the 380-output parent of construct's largest node on Z(0.3) at
           capacity input (n = 5), position 2: a 288,800-column raw
           synthesis that merges to 22,801 outputs.

The layers are ``transform`` (raw law and merge), ``merge_outputs`` of the
raw synthesis, the derived law (``derived_distributions``) and
``param_vector`` of the BEC child itself (census) or of the raw synthesis
(construct).
Every call is timed on its own with ``time.perf_counter``; ``param_vector``
is timed on a fresh copy of its channel each time, with the derived law
already built, so its row is the first call's cost and not a kept result.
The figures are wall clock on the host that runs the script.

example:
  PYTHONPATH=src python3 scripts/layer_costs.py --repeats 2000 --large-repeats 5
"""

import argparse
import statistics
import time

from qpolar.channel import (
    Channel,
    bec,
    capacity_input,
    derived_distributions,
    merge_outputs,
    zchannel,
)
from qpolar.gf import arikan_kernel, field_make
from qpolar.params import param_vector
from qpolar.transform import transform

ARIKAN = arikan_kernel(field_make(2))


def _median_us(fn, make_arg, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        arg = make_arg()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _fresh_with_law(W: Channel):
    def make() -> Channel:
        V = Channel(W.field, W.transition, W.input_dist)
        V.derived  # built outside the timed call
        return V

    return make


def layer_costs(W: Channel, i: int, V: Channel, repeats: int) -> dict:
    """Median µs of ``transform`` and the merge at position ``i`` of one Arikan
    step on W, and of the derived law and ``param_vector`` of V."""
    W.derived
    raw = transform(W, ARIKAN, i, merge=False)
    return {
        "transform": _median_us(lambda U: transform(U, ARIKAN, i), lambda: W, repeats),
        "merge_outputs": _median_us(merge_outputs, lambda: raw, repeats),
        "derived law": _median_us(derived_distributions, lambda: V, repeats),
        "param_vector": _median_us(param_vector, _fresh_with_law(V), repeats),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=2000,
                    help="calls per layer on the census input")
    ap.add_argument("--large-repeats", type=int, default=5,
                    help="calls per layer on the construct input")
    args = ap.parse_args()
    if args.repeats < 1 or args.large_repeats < 1:
        ap.error("repeat counts must be at least 1")

    census = transform(bec(0.5), ARIKAN, 1)
    Z = zchannel(0.3)
    parent = Z.with_input(capacity_input(Z))
    for k in (1, 2, 1, 2):
        parent = transform(parent, ARIKAN, k)
    raw = transform(parent, ARIKAN, 2, merge=False)
    rows = {
        f"census ({census.output_size} outputs, position 1)": layer_costs(
            census, 1, census, args.repeats
        ),
        f"construct ({parent.output_size} outputs, position 2)": layer_costs(
            parent, 2, raw, args.large_repeats
        ),
    }
    names = list(next(iter(rows.values())))
    print("median µs per call | " + " | ".join(names))
    for label, costs in rows.items():
        print(label + " | " + " | ".join(f"{costs[n]:.1f}" for n in names))


if __name__ == "__main__":
    main()
