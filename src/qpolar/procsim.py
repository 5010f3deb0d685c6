"""Polarization-process simulation along random kernel-tree paths.

The process tracks a channel under repeated one-step synthesis at uniformly
random positions: conditional entropy is a martingale of the process, and
the whole construction story is the claim that it splits to the endpoints.
This module samples such paths, aggregates endpoint statistics, and checks
the one-step laws that drive the limiting split: conservation, the expansion
bound, the entropy-spread contraction, and the overlap supermartingale
condition.  Every synthesis on a path is exact.  A walk given a quantize
resolution bins a channel only right before a synthesis that would overrun
``transform.DEFAULT_GUARD``, at that resolution, halved as needed
(``quantize_to_fit``); it never bins the channel of the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel, _frozen, flatten
from .gf import Kernel
from .kernsearch import FixedKernel, SearchKernels, _alpha, _distance_target, _spread, search
from .params import param_vector
from .transform import quantize_to_fit, transform, transform_all

__all__ = [
    "StepRecord",
    "ProcessTrace",
    "sample_path",
    "polarization_stats",
    "check_local",
    "gadget_bound",
]


@dataclass(frozen=True)
class StepRecord:
    depth: int
    position: int  # 1-based child index taken at this step; 0 for the root
    H: float
    Zmad: float
    Smax: float
    output_size: int
    exact: bool


@dataclass(frozen=True)
class ProcessTrace:
    steps: tuple[StepRecord, ...]

    @property
    def path(self) -> tuple[int, ...]:
        return tuple(s.position for s in self.steps[1:])

    @property
    def final(self) -> StepRecord:
        return self.steps[-1]


def _record(depth: int, position: int, ch: Channel, exact: bool) -> StepRecord:
    pv = param_vector(ch)
    return _frozen(
        StepRecord,
        depth=depth,
        position=position,
        H=pv.H,
        Zmad=pv.Zmad,
        Smax=pv.Smax,
        output_size=ch.output_size,
        exact=exact,
    )


def sample_path(
    W: Channel,
    kernel_policy: FixedKernel | SearchKernels,
    n: int,
    rng: np.random.Generator,
    *,
    quantize_resolution: int | None = None,
) -> ProcessTrace:
    """Walk n random one-step synthesis steps from W, recording parameters.

    Positions are uniform on 1..ell.  Lossless merging always applies (it is
    part of synthesis).  With ``quantize_resolution`` set, a channel whose
    next synthesis would overrun ``transform.DEFAULT_GUARD`` is first binned
    until it fits (``quantize_to_fit``: at that resolution, halved as
    needed), and that step and every later one are flagged exact=False; no
    other step bins, so the last step's channel is always the exact
    synthesis of its parent.  Under a search policy the binning happens
    before the search, for all ell positions, since certification
    synthesizes every one.  With a search policy the pure-noise companion
    channel is tracked alongside, since certification needs both.  Raises
    ``ValueError`` for a negative n, for a resolution outside 1..2^53
    (``quantize_merge``'s range), and for a synthesis over the guard: at
    once without a resolution, after binning at resolution 1 with one.
    """
    if n < 0:
        raise ValueError(f"depth must be at least 0, got {n}")
    if quantize_resolution is not None and not 1 <= quantize_resolution <= 2**53:
        bound = "at least 1" if quantize_resolution < 1 else "at most 2^53"
        raise ValueError(f"quantize resolution must be {bound}, got {quantize_resolution}")
    cur: Channel = W
    cur_v: Channel | None = None
    if isinstance(kernel_policy, SearchKernels):
        cur_v = flatten(W)
    exact = True
    steps = [_record(0, 0, cur, exact)]
    for depth in range(1, n + 1):
        if isinstance(kernel_policy, FixedKernel):
            kern = kernel_policy.kernel
            k = int(rng.integers(1, kern.ell + 1))
            ell, fit = kern.ell, k
        else:  # the search certifies every position: fit the last before it
            ell = fit = kernel_policy.ell
        if quantize_resolution is not None:
            where = f"channel at depth {depth}"
            cur, shrunk = quantize_to_fit(cur, ell, fit, quantize_resolution, where=where)
            exact = exact and not shrunk
            if cur_v is not None:
                cur_v, _ = quantize_to_fit(
                    cur_v, ell, fit, quantize_resolution, where="noise " + where
                )
        if isinstance(kernel_policy, SearchKernels):
            kern = search(cur, cur_v, ell, kernel_policy.budget, rng)
            k = int(rng.integers(1, ell + 1))
        cur = transform(cur, kern, k)
        if cur_v is not None:
            cur_v = transform(cur_v, kern, k)
        steps.append(_record(depth, k, cur, exact))
    return ProcessTrace(steps=tuple(steps))


def polarization_stats(
    W: Channel,
    kernel_policy: FixedKernel | SearchKernels,
    n: int,
    paths: int,
    rng: np.random.Generator,
    *,
    thresholds: tuple[float, float] = (0.01, 0.99),
    quantize_resolution: int | None = None,
) -> dict:
    """Endpoint-entropy statistics over many sampled process paths.

    Each path is a ``sample_path`` walk: with ``quantize_resolution`` set, a
    channel is binned only right before a synthesis that would overrun
    ``transform.DEFAULT_GUARD``, so a census that never nears the guard is
    the exact census, ``exact`` included.  ``exact`` is False when any
    path's walk was binned.

    Raises ``ValueError`` for fewer than one path, whose fractions are
    undefined, for thresholds outside 0 <= low < high <= 1, and, through
    ``sample_path`` before any path is walked, for a negative n or a
    resolution outside 1..2^53.
    """
    if paths < 1:
        raise ValueError(f"need at least one path, got {paths}")
    lo, hi = thresholds
    if not 0 <= lo < hi <= 1:
        raise ValueError(f"thresholds must satisfy 0 <= low < high <= 1, got {lo} and {hi}")
    finals = np.empty(paths)
    all_exact = True
    for t in range(paths):
        trace = sample_path(W, kernel_policy, n, rng, quantize_resolution=quantize_resolution)
        finals[t] = trace.final.H
        all_exact = all_exact and trace.final.exact
    return {
        "paths": paths,
        "depth": n,
        "frac_low": float(np.mean(finals <= lo)),
        "frac_high": float(np.mean(finals >= hi)),
        "frac_middle": float(np.mean((finals > lo) & (finals < hi))),
        "final_entropies": finals.tolist(),
        "exact": all_exact,
    }


# ----------------------------------------------------------- local checks

def check_local(W: Channel, kernel: Kernel) -> dict:
    """One-step law report for a (channel, kernel) pair.

    Always-binding checks: conservation of conditional entropy across the
    children (residual <= 1e-9) and the per-child expansion bound
    1 - H(child) <= ell (1 - H(parent)).  The entropy-spread contraction
    and the overlap supermartingale step are evaluated whenever they are
    defined, but only marked as required when their size/strength
    preconditions hold; ``cl_satisfied`` records the former's precondition.
    """
    ell, q = kernel.ell, W.q
    parent = param_vector(W)
    kids = [param_vector(child) for child in transform_all(W, kernel)]
    hs = np.array([k.H for k in kids])
    zs = np.array([k.Zmad for k in kids])

    residual = float(abs(hs.mean() - parent.H))
    expansion_slacks = [ell * (1 - parent.H) - (1 - k.H) for k in kids]
    expansion_ok = all(sl >= -1e-12 for sl in expansion_slacks)

    report: dict = {
        "ell": ell,
        "q": q,
        "martingale_residual": residual,
        "martingale_ok": residual <= 1e-9,
        "expansion_min_slack": float(min(expansion_slacks)),
        "expansion_ok": bool(expansion_ok),
    }

    if ell >= 3:
        alpha = _alpha(ell)
        h_parent = max(min(parent.H, 1 - parent.H), 0.0) ** alpha
        lhs = _spread(hs, alpha)
        rhs = 4.0 * ell ** (-0.5 + 3 * alpha) * h_parent
        required = ell >= max(math.e**4, q**5, 3**q)
        report["spread"] = {
            "alpha": alpha,
            "lhs": lhs,
            "rhs": rhs,
            "required": bool(required),
            "ok": bool(lhs <= rhs + 1e-12),
        }
        report["cl_satisfied"] = bool(required)
    else:
        report["spread"] = None
        report["cl_satisfied"] = False

    cap = ell**-2
    sm_lhs = float(np.mean(np.minimum(cap, zs**0.25)))
    sm_rhs = float(min(cap, parent.Zmad**0.25))
    sm_required = parent.Zmad < ell**-8 and ell >= max(50, q**5)
    report["supermartingale"] = {
        "lhs": sm_lhs,
        "rhs": sm_rhs,
        "required": bool(sm_required),
        "ok": bool(sm_lhs <= sm_rhs + 1e-12),
    }

    ok = report["martingale_ok"] and report["expansion_ok"]
    if report["spread"] is not None and report["spread"]["required"]:
        ok = ok and report["spread"]["ok"]
    if sm_required:
        ok = ok and report["supermartingale"]["ok"]
    report["ok"] = bool(ok)
    return report


def gadget_bound(ell: int) -> dict:
    """Average inverse-sqrt of the distance targets versus the size bound.

    lhs = (1/ell) sum_k (ceil(k^2/3ell) * 3/4)^(-1/2) must fall below
    rhs = ell^(-1/2 + 2 alpha); the comparison is only binding once
    ell >= e^4, and both sides are exact arithmetic here.
    """
    if ell < 3:
        raise ValueError("bound needs ell >= 3")
    alpha = _alpha(ell)
    targets = [_distance_target(k, ell) for k in range(1, ell + 1)]
    lhs = sum((d * 0.75) ** -0.5 for d in targets) / ell
    rhs = ell ** (-0.5 + 2 * alpha)
    required = ell >= math.e**4
    return {
        "ell": ell,
        "alpha": alpha,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "required": bool(required),
        "pass": bool(lhs < rhs),
    }
