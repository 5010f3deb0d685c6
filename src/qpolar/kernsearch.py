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
against both supplied channels, from one primal and one dual enumerator
sweep per candidate; every rejected candidate can carry a re-verifiable
witness (the first violated inequality, with its numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel
from .ftpc import WeightEnumerator, coset_enumerators, dual_coset_enumerators
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


def _phases(enum: WeightEnumerator, i: int, q: int, x: float) -> tuple[bool, float, float, bool]:
    """Both certificate phases of one coset enumerator, against position i's target d_i.

    Phase I: the minimum weight reaches d_i, binding once i^2 > 3 ell.
    Phase II: the enumerator at x stays within 1e-12 of
    ell (1+(q-1)x)^(ell-d_i) ((q-1)x)^d_i.  Returns (phase I ok, lhs, rhs,
    phase II ok).
    """
    ell = enum.ell
    d = _distance_target(i, ell)
    lhs = enum.evaluate(x)
    rhs = ell * (1 + (q - 1) * x) ** (ell - d) * ((q - 1) * x) ** d
    return i * i <= 3 * ell or enum.min_weight >= d, lhs, rhs, lhs <= rhs + 1e-12


def _ldp_report(
    kernel: Kernel, prims: list[WeightEnumerator], duals: list[WeightEnumerator], z: float, s: float
) -> dict:
    """The certificate of ``certify_ldp`` from the kernel's enumerators of both sides."""
    ell, q = kernel.ell, kernel.field.q
    records = []
    for i, (prim, dual) in enumerate(zip(prims, duals[::-1]), start=1):
        prim_ok, z_lhs, z_rhs, z_ok = _phases(prim, i, q, z)
        dual_ok, s_lhs, s_rhs, s_ok = _phases(dual, i, q, s)
        rec = {
            "i": i,
            "d": _distance_target(i, ell),
            "min_weight": prim.min_weight,
            "dual_min_weight": dual.min_weight,
            "phase1_required": i * i > 3 * ell,
            "phase1_ok": prim_ok and dual_ok,
            "ldp_z_lhs": z_lhs,
            "ldp_z_rhs": z_rhs,
            "ldp_z_ok": z_ok,
            "ldp_s_lhs": s_lhs,
            "ldp_s_rhs": s_rhs,
            "ldp_s_ok": s_ok,
        }
        rec["pass"] = prim_ok and dual_ok and z_ok and s_ok
        records.append(rec)
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
    return _ldp_report(kernel, coset_enumerators(kernel), dual_coset_enumerators(kernel), z, s)


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
        prims, duals = coset_enumerators(cand), dual_coset_enumerators(cand)
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
    Raises ``ValueError`` for fewer than one trial, whose rate is undefined,
    for a z that is not finite or lies outside [0, 1], and for a q outside
    2..``MAX_Q`` or not a prime power.
    """
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
    failures = 0
    witnesses: list[dict] = []
    for _ in range(trials):
        kern = sample_invertible(field, ell, rng)
        for i, prim in enumerate(coset_enumerators(kern), start=1):
            phase1_ok, lhs, rhs, phase2_ok = _phases(prim, i, q, z)
            if not phase1_ok:
                witness = {
                    "reason": "min_weight",
                    "i": i,
                    "d": _distance_target(i, ell),
                    "min_weight": prim.min_weight,
                }
            elif not phase2_ok:
                witness = {"reason": "overlap_poly", "i": i, "lhs": lhs, "rhs": rhs}
            else:
                continue
            witness["matrix"] = kern.entries.tolist()
            failures += 1
            witnesses.append(witness)
            break
    bound = 3.0 * q ** (-math.sqrt(ell) / 13.0)
    return {
        "rate": failures / trials,
        "bound": bound,
        "binding": bool(bound < 1.0),
        "trials": trials,
        "witnesses": witnesses,
    }
