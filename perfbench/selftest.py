"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Makes one real call of every workload and requires its output to pass.  Then
feeds the same closed loop corrupted copies of that output (a perturbed
final entropy, a tampered witness matrix, a wrong decoding-unit count, ...)
and a call that raises, and requires each to be counted as failed, as is a
traced call whose span counts miss an invariant.  Last, it checks that
``BENCHMARK.json`` names exactly the workloads and metrics that ``run.py``
reports.  Exits 1 on the first miss.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._cap_blas_threads()
run._import_program()

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _raise(state, j):
    raise ValueError("injected failure")


def _link(out):
    yield "du_per_block 31", {**out, "du_per_block": 31}
    yield "bler above the margin", {**out, "bler": 1.0}
    yield "inexact union bound", {**out, "union_bound_exact": False}


def _construct(spec):
    path, stat = sorted(spec.leaf_stats.items())[0]
    perturbed = {**spec.leaf_stats, path: dataclasses.replace(stat, H_w=stat.H_w + 1e-6)}
    yield "perturbed leaf entropy", dataclasses.replace(spec, leaf_stats=perturbed)
    inexact = {**spec.leaf_stats, path: dataclasses.replace(stat, exact=False)}
    yield "inexact leaf", dataclasses.replace(spec, leaf_stats=inexact)
    yield "changed info set", dataclasses.replace(spec, info_set=spec.info_set | {path})


def _census(rep):
    finals = list(rep["final_entropies"])
    finals[0] += 1e-6
    yield "perturbed final entropy", {**rep, "final_entropies": finals}
    swapped = list(rep["final_entropies"])
    k = next(t for t, h in enumerate(swapped) if h != swapped[0])
    swapped[0], swapped[k] = swapped[k], swapped[0]
    yield "two paths swapped", {**rep, "final_entropies": swapped}
    yield "wrong frac_low", {**rep, "frac_low": rep["frac_low"] + 1e-3}


def _kernels(rep):
    singular = copy.deepcopy(rep["witnesses"])
    singular[0]["matrix"][0] = list(singular[0]["matrix"][1])
    yield "tampered (singular) witness matrix", {**rep, "witnesses": singular}
    wrong = copy.deepcopy(rep["witnesses"])
    key = "min_weight" if wrong[0]["reason"] == "min_weight" else "lhs"
    wrong[0][key] += 1 if key == "min_weight" else 0.01 * wrong[0][key]
    yield f"witness with a wrong {key}", {**rep, "witnesses": wrong}
    yield "dropped witness", {**rep, "witnesses": rep["witnesses"][1:]}


CORRUPT = {"link-z16": _link, "construct-z32": _construct,
           "census-bec1024": _census, "kernels-gf4": _kernels}


def failed_calls(wl, state, out_or_call) -> int:
    call = out_or_call if callable(out_or_call) else (lambda st, j: out_or_call)
    return run.closed_loop(dataclasses.replace(wl, call=call), state, 0)["failed"]


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    for name, wl in WORKLOADS.items():
        state = wl.setup(wl.default_seed)
        out = wl.call(state, 0)
        j = 0
        while name == "kernels-gf4" and not out["witnesses"]:  # needs a witness to tamper
            j += 1
            out = wl.call(state, j)
        expect(failed_calls(wl, state, out) == 0, f"{name}: real output passes")
        for what, bad in CORRUPT[name](out):
            expect(failed_calls(wl, state, bad) == 1, f"{name}: {what} counted as failed")
        expect(failed_calls(wl, state, _raise) == 1, f"{name}: raising call counted as failed")

    wl = WORKLOADS["kernels-gf4"]
    traced = run.traced(dataclasses.replace(wl, trace_calls=1), wl.default_seed)[1]
    expect(traced["failed"] == 0, "kernels-gf4: traced counts match the invariants")
    off = dataclasses.replace(wl, trace_calls=1, invariants={"gf.sample_invertible": 21})
    expect(run.traced(off, wl.default_seed)[1]["failed"] == 1,
           "kernels-gf4: a traced count off its invariant counted as failed")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names every workload")
    expect([m["name"] for m in spec["end_to_end"]]
           == ["setup_s", "units_per_s", "peak_rss_mb"],
           "BENCHMARK.json names the end-to-end metrics run.py prints")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER,
           "BENCHMARK.json names the per-layer metrics run.py prints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
