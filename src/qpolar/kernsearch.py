"""Certification of candidate kernels and randomized kernel search.

A kernel of size ell is certified at an operating point (z, s) in two
phases, position by position with the target distance d_i = ceil(i^2/3ell):

* phase I (only once d_i >= 2, i.e. i > sqrt(3 ell)): the primal coset at i
  and the dual coset at ell+1-i must both have minimum Hamming weight >= d_i;
* phase II (always): the primal enumerator at z and the dual enumerator at s
  must stay below ell * (1+(q-1)x)^(ell-d_i) * ((q-1)x)^(d_i).

A separate spread condition asks the synthesized entropies to concentrate:
with alpha = ln(ln ell)/ln ell, the average of min(H_i, 1-H_i)^alpha must be
below 4 ell^(alpha - 1/2).  At desk scales that right-hand side exceeds the
trivial cap (1/2)^alpha, which the report flags honestly.

`search` rejection-samples uniform invertible kernels until one certifies
against both supplied channels, from the primal and dual enumerators of
each candidate; every rejected candidate can carry a re-verifiable witness
(the first violated inequality, with its numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel
from .ftpc import (
    _batch_size,
    _primal_counts,
    coset_enumerators,
    dual_coset_enumerators,
)
from .gf import MAX_Q, Kernel, _prime_factors, field_make, sample_invertible
from .params import param_vector
from .transform import transform_all

__all__ = [
    "FixedKernel",
    "SearchKernels",
    "certify_ldp",
    "certify_clt",
    "search",
    "empirical_failure_rate",
]


# ------------------------------------------------------- policy configs

@dataclass(frozen=True)
class FixedKernel:
    """Use one kernel everywhere in a construction."""

    kernel: Kernel


@dataclass(frozen=True)
class SearchKernels:
    """Search a fresh certified kernel at every tree node."""

    ell: int
    budget: int = 200


# ----------------------------------------------------------- primitives

def _distance_target(i: int, ell: int) -> int:
    """ceil(i^2 / 3 ell), in exact integer arithmetic."""
    return -((-i * i) // (3 * ell))


def _alpha(ell: int) -> float:
    """The spread exponent ln(ln ell)/ln ell (positive once ell >= 3)."""
    return math.log(math.log(ell)) / math.log(ell)


def _spread(entropies, alpha: float) -> float:
    """The entropy-spread statistic mean(clip(min(H, 1-H), 0)^alpha)."""
    h = np.asarray(entropies)
    return float(np.mean(np.clip(np.minimum(h, 1.0 - h), 0.0, None) ** alpha))


def _check_point(**point: float) -> None:
    """Refuse an operating point that is not finite or lies outside [0, 1].

    The upper end has 1e-9 of slack: Zmad of a flattened binary channel can
    round to 1.0000000000000002.
    """
    for name, x in point.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
        if not 0.0 <= x <= 1.0 + 1e-9:
            raise ValueError(f"{name} must lie in [0, 1], got {x}")


def _int_power(base: float, k: int) -> float:
    """base^k for an integer k >= 0 by k correctly rounded multiplications.

    Unlike ``**`` (libm's pow) or ``np.power`` (SIMD dispatch), the bits are
    the same on every IEEE 754 platform.
    """
    out = 1.0
    for _ in range(k):
        out *= base
    return out


def _phases(
    counts: np.ndarray, q: int, x: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both certificate phases at every position of a batch of coset counts.

    ``counts`` is a (..., ell, ell + 1) array of int64 or Python integers:
    row i - 1 of each kernel holds the weight counts of its coset at
    position i, checked against the target d_i of position i.
    Phase I: the minimum weight (the first nonzero count, 0 if none)
    reaches d_i, binding once i^2 > 3 ell.
    Phase II: the enumerator at x stays within 1e-12 of
    ell (1+(q-1)x)^(ell-d_i) ((q-1)x)^d_i, which no kernel enters.  The
    enumerator is summed by Horner's rule from weight ell down in float64,
    each step one correctly rounded multiply and one add of float(count),
    so every value has the bits of ``WeightEnumerator.evaluate``.  Returns
    (minimum weights, phase I ok, lhs, rhs, phase II ok): rhs has shape
    (ell,), the others (..., ell).
    """
    ell = counts.shape[-2]
    targets = [_distance_target(i, ell) for i in range(1, ell + 1)]
    min_weight = np.argmax(counts > 0, axis=-1)
    phase1 = (np.arange(1, ell + 1) ** 2 <= 3 * ell) | (min_weight >= targets)
    x = float(x)
    # every axis reversed, weight first, each weight's counts contiguous
    by_weight = counts.astype(np.float64, order="F").T
    lhs = np.zeros(by_weight.shape[1:])
    for row in by_weight[::-1]:
        lhs *= x
        lhs += row
    lhs = lhs.T
    rhs = np.array(
        [ell * _int_power(1 + (q - 1) * x, ell - d) * _int_power((q - 1) * x, d) for d in targets]
    )
    return min_weight, phase1, lhs, rhs, lhs <= rhs + 1e-12


def _both_sides(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """One kernel's (ell, ell + 1) counts: primal at positions 1..ell, dual at ell..1."""
    prims = np.array([enum.counts for enum in coset_enumerators(kernel)])
    duals = np.array([enum.counts for enum in dual_coset_enumerators(kernel)[::-1]])
    return prims, duals


def _ldp_report(
    kernel: Kernel, prims: np.ndarray, duals: np.ndarray, z: float, s: float
) -> dict:
    """The certificate of ``certify_ldp`` from one kernel's count arrays of both sides.

    Row i - 1 of ``prims`` holds the primal coset at position i, and of
    ``duals`` the dual coset at ell + 1 - i; one ``_phases`` call per side
    checks every position.
    """
    ell, q = kernel.ell, kernel.field.q
    prim_min, prim_ok, z_lhs, z_rhs, z_ok = _phases(prims, q, z)
    dual_min, dual_ok, s_lhs, s_rhs, s_ok = _phases(duals, q, s)
    columns = (prim_min, dual_min, prim_ok & dual_ok, z_lhs, z_rhs, z_ok, s_lhs, s_rhs, s_ok)
    records = []
    for i, row in enumerate(zip(*(col.tolist() for col in columns)), start=1):
        min_weight, dual_min_weight, phase1_ok, zl, zr, zo, sl, sr, so = row
        records.append({
            "i": i,
            "d": _distance_target(i, ell),
            "min_weight": min_weight,
            "dual_min_weight": dual_min_weight,
            "phase1_required": i * i > 3 * ell,
            "phase1_ok": phase1_ok,
            "ldp_z_lhs": zl,
            "ldp_z_rhs": zr,
            "ldp_z_ok": zo,
            "ldp_s_lhs": sl,
            "ldp_s_rhs": sr,
            "ldp_s_ok": so,
            "pass": phase1_ok and zo and so,
        })
    return {
        "ell": ell,
        "q": q,
        "z": float(z),
        "s": float(s),
        "records": records,
        "pass": all(r["pass"] for r in records),
    }


def certify_ldp(kernel: Kernel, z: float, s: float) -> dict:
    """Two-phase certificate of a kernel at operating point (z, s).

    Returns {"ell", "q", "z", "s", "records", "pass"}; each per-position
    record carries the distance target, both minimum weights, and the four
    numbers of the two polynomial comparisons.  Raises ``ValueError`` when
    z or s is not finite or lies outside [0, 1].
    """
    _check_point(z=z, s=s)
    return _ldp_report(kernel, *_both_sides(kernel), z, s)


def certify_clt(kernel: Kernel, W: Channel) -> dict:
    """Entropy-spread certificate of one kernel step on one channel.

    Needs ell >= 3 (the exponent alpha is only positive there).  The
    entropies are always synthesized exactly; a synthesis that would
    overrun ``transform.DEFAULT_GUARD`` raises ``ValueError`` rather than
    fall back to an estimate.
    """
    ell = kernel.ell
    if ell < 3:
        raise ValueError("entropy-spread certificate needs kernel size >= 3")
    alpha = _alpha(ell)
    entropies = [param_vector(child).H for child in transform_all(W, kernel)]
    lhs = _spread(entropies, alpha)
    rhs = 4.0 * ell ** (alpha - 0.5)
    trivial = rhs >= 0.5**alpha
    return {
        "alpha": alpha,
        "lhs": lhs,
        "rhs": rhs,
        "trivial": bool(trivial),
        "pass": bool(lhs <= rhs),
        "entropies": [float(h) for h in entropies],
    }


# --------------------------------------------------------------- search

def _first_violation(report: dict, side: str) -> dict | None:
    for rec in report["records"]:
        if not rec["phase1_ok"]:
            return {
                "reason": "min_weight",
                "side": side,
                "i": rec["i"],
                "d": rec["d"],
                "min_weight": rec["min_weight"],
                "dual_min_weight": rec["dual_min_weight"],
            }
        if not rec["ldp_z_ok"]:
            return {
                "reason": "overlap_poly",
                "side": side,
                "i": rec["i"],
                "lhs": rec["ldp_z_lhs"],
                "rhs": rec["ldp_z_rhs"],
            }
        if not rec["ldp_s_ok"]:
            return {
                "reason": "correlation_poly",
                "side": side,
                "i": rec["i"],
                "lhs": rec["ldp_s_lhs"],
                "rhs": rec["ldp_s_rhs"],
            }
    return None


def search(
    Wnode: Channel,
    Vnode: Channel,
    ell: int,
    budget: int,
    rng: np.random.Generator,
    *,
    rejections: list | None = None,
) -> Kernel:
    """Find a kernel certified against both the data and randomness channels.

    Rejection-samples uniform invertible kernels; a candidate is accepted
    iff the two-phase certificate holds at the measured (Zmad, Smax) of both
    channels and, for ell >= 3, the entropy-spread certificate holds on
    both.  Deterministic given the generator.  Raises ``ValueError`` when
    the budget is exhausted; pass ``rejections`` to collect per-candidate
    witnesses.
    """
    field = Wnode.field
    pw = param_vector(Wnode)
    pv = param_vector(Vnode)
    for _ in range(budget):
        cand = sample_invertible(field, ell, rng)
        prims, duals = _both_sides(cand)
        rep_w = _ldp_report(cand, prims, duals, pw.Zmad, pw.Smax)
        rep_v = _ldp_report(cand, prims, duals, pv.Zmad, pv.Smax)
        witness = _first_violation(rep_w, "data") or _first_violation(rep_v, "randomness")
        if witness is None and ell >= 3:
            for side, ch in (("data", Wnode), ("randomness", Vnode)):
                clt = certify_clt(cand, ch)
                if not clt["pass"]:
                    witness = {
                        "reason": "entropy_spread",
                        "side": side,
                        "lhs": clt["lhs"],
                        "rhs": clt["rhs"],
                    }
                    break
        if witness is None:
            return cand
        if rejections is not None:
            witness["matrix"] = cand.entries.tolist()
            rejections.append(witness)
    raise ValueError(f"no certifiable kernel found within budget {budget}")


def empirical_failure_rate(
    ell: int,
    q: int,
    z: float,
    trials: int,
    rng: np.random.Generator,
) -> dict:
    """Fraction of uniform invertible kernels failing the overlap-side checks.

    A trial fails when any position violates phase I (primal minimum weight)
    or the phase-II overlap polynomial bound at z.  The theoretical ceiling
    3 q^(-sqrt(ell)/13) is reported; ``binding`` is False when that ceiling
    reaches 1 (vacuous).  Every failure carries a re-verifiable witness.

    The kernels are drawn first, a batch at a time, from the same stream
    and in the same order as one draw per trial; each batch is enumerated
    in one batched sweep, sized so that no step holds more than
    ``ftpc._BLOCK_WORDS`` words, and every position of every kernel of the
    batch is checked in one array step (``_phases``); each failing kernel's
    witness names its first failing position, and the witnesses are kept
    in trial order.  So the rate and the witnesses do not depend on the
    batch size.
    Raises ``ValueError`` for a kernel size below 1, for fewer than one
    trial, whose rate is undefined, for a z that is not finite or lies
    outside [0, 1], for a q outside 2..``MAX_Q`` or not a prime power, and,
    before any kernel is drawn, when a span would exceed
    ``ftpc.ENUM_GUARD``.
    """
    if ell < 1:
        raise ValueError(f"kernel size must be positive, got {ell}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    _check_point(z=z)
    if not 2 <= q <= MAX_Q:  # refused before trial division, which takes ages on a huge q
        raise ValueError(f"field size {q} outside 2..{MAX_Q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, m, rest = primes[0], 0, q
    while rest > 1:
        rest, m = rest // p, m + 1
    field = field_make(p, m)
    batch = _batch_size(q, ell)
    witnesses: list[dict] = []
    for first in range(0, trials, batch):
        kernels = [sample_invertible(field, ell, rng) for _ in range(min(batch, trials - first))]
        min_weight, phase1, lhs, rhs, phase2 = _phases(_primal_counts(kernels), q, z)
        failing = ~(phase1 & phase2)
        for k in np.flatnonzero(failing.any(axis=1)).tolist():
            i = int(failing[k].argmax())  # the first failing position, less one
            if not phase1[k, i]:
                witness = {
                    "reason": "min_weight",
                    "i": i + 1,
                    "d": _distance_target(i + 1, ell),
                    "min_weight": int(min_weight[k, i]),
                }
            else:
                witness = {
                    "reason": "overlap_poly",
                    "i": i + 1,
                    "lhs": float(lhs[k, i]),
                    "rhs": float(rhs[i]),
                }
            witness["matrix"] = kernels[k].entries.tolist()
            witnesses.append(witness)
    bound = 3.0 * q ** (-math.sqrt(ell) / 13.0)
    return {
        "rate": len(witnesses) / trials,
        "bound": bound,
        "binding": bool(bound < 1.0),
        "trials": trials,
        "witnesses": witnesses,
    }
