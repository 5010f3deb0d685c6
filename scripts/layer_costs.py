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
The figures are wall clock on the host that runs the script.  A last line
gives the peak memory that ``tracemalloc`` traces during one call of
``transform``, ``merge_outputs`` and ``param_vector`` on the construct
input, made as for the timing, and of the other merge path,
``quantize_merge(raw, 2048)`` of the raw synthesis, and of ``transform``
at position 1 of the same parent (their arguments are built outside the
traced call).

example:
  PYTHONPATH=src python3 scripts/layer_costs.py --repeats 2000 --large-repeats 5
"""

import argparse
import statistics
import time
import tracemalloc

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
from qpolar.transform import quantize_merge, transform

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


def _traced_peak_mb(fn, make_arg) -> float:
    arg = make_arg()
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def layers(W: Channel, i: int, V: Channel) -> dict:
    """Each layer's call and argument maker: ``transform`` and the merge at
    position ``i`` of one Arikan step on W, the derived law and
    ``param_vector`` of V."""
    W.derived
    raw = transform(W, ARIKAN, i, merge=False)
    return {
        "transform": (lambda U: transform(U, ARIKAN, i), lambda: W),
        "merge_outputs": (merge_outputs, lambda: raw),
        "derived law": (derived_distributions, lambda: V),
        "param_vector": (param_vector, _fresh_with_law(V)),
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
    construct = layers(parent, 2, raw)
    rows = {
        f"census ({census.output_size} outputs, position 1)": (
            layers(census, 1, census), args.repeats
        ),
        f"construct ({parent.output_size} outputs, position 2)": (construct, args.large_repeats),
    }
    names = list(construct)
    print("median µs per call | " + " | ".join(names))
    for label, (calls, repeats) in rows.items():
        costs = [_median_us(fn, make_arg, repeats) for fn, make_arg in calls.values()]
        print(label + " | " + " | ".join(f"{c:.1f}" for c in costs))
    traced = {n: construct[n] for n in ("transform", "merge_outputs", "param_vector")}
    traced["quantize_merge"] = (lambda U: quantize_merge(U, 2048), lambda: raw)
    traced["transform, position 1"] = (lambda U: transform(U, ARIKAN, 1), lambda: parent)
    print("traced peak MB, construct | " + " | ".join(traced))
    peaks = [_traced_peak_mb(*call) for call in traced.values()]
    print("construct | " + " | ".join(f"{p:.1f}" for p in peaks))


if __name__ == "__main__":
    main()
