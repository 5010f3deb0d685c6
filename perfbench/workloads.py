"""The four benchmark workloads: set-up, one call, and the check of its output.

Every workload is a closed loop with one caller: call ``j`` starts when call
``j - 1`` has returned, and it draws its random inputs from ``seed + j`` so a
run seed fixes every input of the run.  Calls go through module attributes
(``codec.simulate``, not a name imported here) so that the tracer's rebinding
reaches the top-level layer functions and the set-up as well.

A check returns a list of problems; an empty list means the output passed.
The rules reuse the acceptance battery's (c01 conservation, c08 BLER margin,
c09 erasure ladder) instead of trusting timing alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from qpolar import channel, codec, ftpc, gf, kernsearch, params, procsim

#: absolute tolerance of every exact-value comparison
TOL = 1e-9


@dataclass
class Workload:
    """One benchmark workload.

    ``params`` are the exact call parameters, recorded with every result.
    ``invariants`` are span counts that every traced call must show exactly.
    """

    name: str
    unit: str
    units_per_call: int
    default_seed: int
    trace_calls: int
    params: dict
    setup: Callable[[int], Any]
    call: Callable[[Any, int], Any]
    check: Callable[[Any, Any, int], list]
    invariants: dict = field(default_factory=dict)


def _capacity_z(eps: float):
    W = channel.zchannel(eps)
    return W.with_input(channel.capacity_input(W))


def _arikan2():
    return kernsearch.FixedKernel(gf.arikan_kernel(gf.field_make(2)))


# ------------------------------------------------------------- link-z16

LINK = {"channel": "Z(0.3) at capacity input", "ell": 2, "n": 4, "pi": 0.2,
        "kernel": "arikan", "construct_seed": 7, "trials": 200}


def _link_setup(seed: int) -> dict:
    Wz = _capacity_z(0.3)
    spec = codec.construct(Wz, 2, 4, 0.2, _arikan2(), seed=7)
    return {"W": Wz, "spec": spec, "seed": seed}


def _link_call(st: dict, j: int) -> dict:
    return codec.simulate(st["spec"], st["W"], trials=LINK["trials"], seed=st["seed"] + j)


def _link_check(st: dict, rep: dict, j: int) -> list:
    trials = LINK["trials"]
    u = rep["union_bound"]
    margin = u + 3 * math.sqrt(u * (1 - u) / trials)
    problems = []
    if rep["trials"] != trials:
        problems.append(f"trials {rep['trials']} != {trials}")
    if rep["du_per_block"] != 32:
        problems.append(f"du_per_block {rep['du_per_block']} != 32")
    if not rep["union_bound_exact"]:
        problems.append("union bound is not exact")
    if not rep["bler"] <= margin:
        problems.append(f"bler {rep['bler']} above union bound + 3 sigma {margin}")
    return problems


# --------------------------------------------------------- construct-z32

CONSTRUCT = {"channel": "Z(0.3) at capacity input", "ell": 2, "n": 5, "pi": 0.2,
             "kernel": "arikan", "seed": 7}


def _construct_setup(seed: int) -> dict:
    Wz = _capacity_z(0.3)
    return {"W": Wz, "policy": _arikan2(), "H": params.param_vector(Wz).H, "reference": None}


def _construct_call(st: dict, j: int):
    return codec.construct(st["W"], 2, 5, 0.2, st["policy"], seed=7)


def _construct_check(st: dict, spec, j: int) -> list:
    problems = []
    stats = spec.leaf_stats
    if len(stats) != 32:
        return [f"{len(stats)} leaves, expected 32"]
    mean_h = float(np.mean([s.H_w for s in stats.values()]))
    if abs(mean_h - st["H"]) > TOL:
        problems.append(f"mean leaf H_w {mean_h!r} != H(W) {st['H']!r} (conservation)")
    if not all(s.exact for s in stats.values()):
        problems.append("a leaf is not exact")
    signature = (spec.info_set, dict(stats))
    if st["reference"] is None:
        st["reference"] = signature
    elif signature != st["reference"]:
        problems.append("info set or leaf stats differ from the first call's")
    return problems


# -------------------------------------------------------- census-bec1024

CENSUS = {"channel": "BEC(0.5)", "kernel": "arikan", "n": 10, "paths": 1000,
          "thresholds": [0.01, 0.99]}


def _erasure_step(h: float, position: int) -> float:
    # Arikan kernel on an erasure channel: position 1 is the worse child.
    return 2 * h - h * h if position == 1 else h * h


def _census_setup(seed: int) -> dict:
    leaves = [0.5]
    for _ in range(CENSUS["n"]):
        leaves = [_erasure_step(h, k) for h in leaves for k in (1, 2)]
    return {"W": channel.bec(0.5), "policy": _arikan2(), "seed": seed, "leaves": np.sort(leaves),
            "diagnostics": {"census_checks": 0, "c09_3sigma_misses": 0}}


def _census_call(st: dict, j: int) -> dict:
    rng = np.random.default_rng(st["seed"] + j)
    return procsim.polarization_stats(st["W"], st["policy"], n=CENSUS["n"],
                                      paths=CENSUS["paths"], rng=rng)


def _c09_misses(st: dict, rep: dict) -> int:
    """How many of frac_low/frac_high miss the c09 3-sigma band of the exact census.

    A correct sampler misses it about once in 200 calls of 1000 paths, so the
    count is recorded beside the result and does not fail a call; the
    path-by-path replay in the check is exact and strictly stronger.
    """
    lo, hi = CENSUS["thresholds"]
    n = rep["paths"]
    misses = 0
    for got, p in ((rep["frac_low"], np.mean(st["leaves"] <= lo)),
                   (rep["frac_high"], np.mean(st["leaves"] >= hi))):
        misses += abs(got - p) > 3 * math.sqrt(p * (1 - p) / n)
    return int(misses)


def _census_check(st: dict, rep: dict, j: int) -> list:
    n, paths = CENSUS["n"], CENSUS["paths"]
    lo, hi = CENSUS["thresholds"]
    finals = np.asarray(rep["final_entropies"], dtype=float)
    if finals.shape != (paths,) or rep["paths"] != paths or rep["depth"] != n:
        return [f"census shape {finals.shape}, paths {rep['paths']}, depth {rep['depth']}"]
    problems = []
    st["diagnostics"]["census_checks"] += 1
    st["diagnostics"]["c09_3sigma_misses"] += _c09_misses(st, rep)
    if not rep["exact"]:
        problems.append("census is not exact")
    leaves = st["leaves"]
    at = np.clip(np.searchsorted(leaves, finals), 1, leaves.size - 1)
    nearest = np.minimum(np.abs(finals - leaves[at - 1]), np.abs(finals - leaves[at]))
    off_ladder = int(np.sum(nearest > TOL))
    if off_ladder:
        problems.append(f"{off_ladder} final entropies off the exact erasure ladder")
    # Replay the positions from the same generator (one draw per step, as the
    # sampled path makes them) and follow the exact erasure recursion.
    rng = np.random.default_rng(st["seed"] + j)
    want = np.empty(paths)
    for t in range(paths):
        h = 0.5
        for _ in range(n):
            h = _erasure_step(h, int(rng.integers(1, 3)))
        want[t] = h
    wrong = int(np.sum(np.abs(finals - want) > TOL))
    if wrong:
        problems.append(f"{wrong} final entropies differ from their path's exact value")
    for key, got, exp in (("frac_low", rep["frac_low"], np.mean(want <= lo)),
                          ("frac_high", rep["frac_high"], np.mean(want >= hi))):
        if got != exp:
            problems.append(f"{key} {got} != exact census of the sampled paths {exp}")
    return problems


# ------------------------------------------------------------ kernels-gf4

KERNELS = {"ell": 8, "q": 4, "z": 0.3, "trials": 20}


def _kernels_setup(seed: int) -> dict:
    return {"field": gf.field_make(2, 2), "seed": seed}


def _kernels_call(st: dict, j: int) -> dict:
    rng = np.random.default_rng(st["seed"] + j)
    return kernsearch.empirical_failure_rate(KERNELS["ell"], KERNELS["q"], KERNELS["z"],
                                             KERNELS["trials"], rng)


def _witness_problem(field, w: dict) -> str | None:
    """Re-verify one rejection witness from its matrix alone."""
    ell, q, z = KERNELS["ell"], KERNELS["q"], KERNELS["z"]
    try:
        kern = gf.mat_invert(field, w["matrix"])
    except ValueError as exc:
        return f"witness matrix does not invert: {exc}"
    if kern.ell != ell:
        return f"witness matrix has size {kern.ell}"
    i = int(w["i"])
    d = -((-i * i) // (3 * ell))
    enum = ftpc.coset_enumerator(kern, i)
    if w["reason"] == "min_weight":
        if not (i * i > 3 * ell and enum.min_weight == w["min_weight"] < d):
            return f"min_weight witness at i={i} does not re-verify"
        return None
    if w["reason"] == "overlap_poly":
        lhs = enum.evaluate(z)
        rhs = ell * (1 + (q - 1) * z) ** (ell - d) * ((q - 1) * z) ** d
        if abs(lhs - w["lhs"]) > TOL * max(1.0, abs(lhs)) or not lhs > rhs + 1e-12:
            return f"overlap_poly witness at i={i} does not re-verify"
        return None
    return f"unknown witness reason {w['reason']!r}"


def _kernels_check(st: dict, rep: dict, j: int) -> list:
    trials = KERNELS["trials"]
    witnesses = rep["witnesses"]
    problems = []
    if rep["trials"] != trials:
        problems.append(f"trials {rep['trials']} != {trials}")
    if abs(rep["rate"] * trials - len(witnesses)) > TOL:
        problems.append(f"rate*trials {rep['rate'] * trials} != {len(witnesses)} witnesses")
    for w in witnesses:
        bad = _witness_problem(st["field"], w)
        if bad:
            problems.append(bad)
    return problems


# ---------------------------------------------------------------- table

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="link-z16", unit="blocks", units_per_call=LINK["trials"],
            default_seed=80802, trace_calls=3, params=LINK,
            setup=_link_setup, call=_link_call, check=_link_check,
            invariants={"codec.node_posterior": 256 * LINK["trials"]},
        ),
        Workload(
            name="construct-z32", unit="constructions", units_per_call=1,
            default_seed=7, trace_calls=1, params=CONSTRUCT,
            setup=_construct_setup, call=_construct_call, check=_construct_check,
            invariants={"transform.transform": 124, "params.param_vector": 64},
        ),
        Workload(
            name="census-bec1024", unit="paths", units_per_call=CENSUS["paths"],
            default_seed=91001, trace_calls=2, params=CENSUS,
            setup=_census_setup, call=_census_call, check=_census_check,
            invariants={
                "transform.transform": CENSUS["n"] * CENSUS["paths"],
                "params.param_vector": (CENSUS["n"] + 1) * CENSUS["paths"],
                "procsim.sample_path": CENSUS["paths"],
            },
        ),
        Workload(
            name="kernels-gf4", unit="kernels", units_per_call=KERNELS["trials"],
            default_seed=1010, trace_calls=8, params=KERNELS,
            setup=_kernels_setup, call=_kernels_call, check=_kernels_check,
            invariants={"gf.sample_invertible": KERNELS["trials"]},
        ),
    )
}
