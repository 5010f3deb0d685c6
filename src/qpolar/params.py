"""Reliability/noisiness functionals of a channel and relations among them.

For a channel W used at input distribution P the module computes, from the
joint law J(x,y) = P(x) W(y|x):

==========  ==============================================================
H           conditional input entropy H(X|Y), base-q symbols
I           mutual information I(X;Y), base-q symbols (computed separately
            from H so conservation checks are honest)
Pe          error probability of the MAP symbol guess
Z           average over ordered symbol pairs of the Bhattacharyya overlap
Zmad        the worst single-difference Bhattacharyya overlap
T           mean total variation between the posterior and uniform
S           average absolute correlation of the posterior with the
            nontrivial additive characters
Smax        the worst single-character correlation
==========  ==============================================================

plus an inequality report tying them together and Gallager-type exponent
functions with their source-coding duals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import Channel, _frozen
from .gf import FieldSpec

__all__ = [
    "ParamVector",
    "param_vector",
    "holder_report",
    "gallager_e0",
    "second_moment",
    "quadratic_check",
]


@dataclass(frozen=True)
class ParamVector:
    q: int
    H: float
    I: float
    Pe: float
    Z: float
    Zmad: float
    T: float
    S: float
    Smax: float

    def as_dict(self) -> dict:
        return asdict(self)


_FIELD_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}


def _field_tables(f: FieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Shift rows ``x + d`` (d = 1..q-1) and the characters ``chi(w z)``.

    The characters come as their real and imaginary parts, each a
    (q, q, 1) array indexed [w, z], so ``re[w]`` scales the rows of a
    (q, M) array.  For p = 2 the characters are +-1 and the imaginary part
    is None (the table's entries there are round-off of sin(pi)).  All
    depend on the field alone, so each field builds them once; the arrays
    are read-only.
    """
    key = (f.p, f.m)
    if key not in _FIELD_TABLES:
        xs = np.arange(f.q)
        shifts = np.array([f.add(xs, dsym) for dsym in range(1, f.q)])
        chi = f.char(f.mul(xs[:, None], xs[None, :]))[:, :, None]
        re = np.ascontiguousarray(chi.real)
        im = None if f.p == 2 else np.ascontiguousarray(chi.imag)
        for arr in (shifts, re, im):
            if arr is not None:
                arr.setflags(write=False)
        _FIELD_TABLES[key] = shifts, re, im
    return _FIELD_TABLES[key]


def param_vector(W: Channel) -> ParamVector:
    """The nine functionals of W at its input law (see the module table).

    Computed on first use and kept on W, as ``W.derived`` is: a second call
    on the same channel returns the same (immutable) result.

    Memory: besides the law ``W.derived`` (kept on W), one (q, M) float
    scratch buffer, ``sqrt(joint)`` while Z is taken, two M float buffers
    and the (q, M) boolean mask ``joint > 0``.  Each functional is the
    same ufuncs in the same order as the plain expression it stands for,
    written into the buffers: x log y with the 0 log 0 = 0 convention is
    ``where(joint > 0, x * log(where(joint > 0, y, 1)), 0)``, so the bits
    do not depend on the buffering.  Sums, maxima and the mean are the
    ufunc reductions that ``ndarray.sum``, ``max`` and ``mean`` call,
    without their Python wrappers.  No functional goes through a BLAS
    product, whose bits depend on the CPU kernel that runs it.
    """
    kept = vars(W).get("_param_vector")
    if kept is not None:
        return kept
    q = W.q
    shifts, re, im = _field_tables(W.field)
    d = W.derived
    joint, out, post = d.joint, d.output, d.posterior
    lnq = math.log(q)
    live = joint > 0
    buf = np.empty_like(joint)
    add, top = np.add.reduce, np.maximum.reduce

    def xlogy(x: np.ndarray) -> float:
        # buf holds y on the live entries and 1 elsewhere; log(1) = 0 stays 0
        np.log(buf, out=buf)
        np.multiply(x, buf, out=buf, where=live)
        return float(add(buf, axis=None))

    # H and I lie in [0, 1] base-q symbols; a sum rounded in another order
    # can carry them an ulp past an end, so they are kept inside.  H is a
    # sum of non-positive terms negated, never below 0 (at most -0.0)
    buf.fill(1.0)
    np.copyto(buf, post, where=live)
    H = min(-xlogy(joint) / lnq, 1.0)

    buf.fill(1.0)
    np.multiply(W.input_dist[:, None], out, out=buf, where=live)
    np.divide(joint, buf, out=buf, where=live)
    I = min(max(xlogy(joint) / lnq, 0.0), 1.0)

    # Pe, the joint mass off each column's largest entry, added up as it
    # is: 1 - max P(x|y) would cancel where the posterior is near 1.  Row
    # by row, the smaller of row k and the maximum of the rows before it
    # joins the column's off-maximum mass
    col = np.empty_like(out)
    off, big = buf[0], buf[1]
    np.minimum(joint[0], joint[1], out=off)
    for k in range(2, q):
        top(joint[:k], axis=0, out=big)
        off += np.minimum(big, joint[k], out=col)
    Pe = float(add(off))

    R = np.sqrt(joint)
    overlaps = np.empty(q - 1)
    for k, shift in enumerate(shifts):
        # shift is in range: mode "clip" gathers straight into buf (the
        # default mode gathers into a hidden copy first); the method, with
        # positional arguments, skips np.take's Python wrapper
        R.take(shift, 0, buf, "clip")
        overlaps[k] = float(add(np.multiply(R, buf, out=buf), axis=None))
    del R
    Z = float(add(overlaps) / (q - 1))
    Zmad = float(top(overlaps))

    np.subtract(joint, np.divide(out, q, out=col), out=buf)
    T = float(add(np.abs(buf, out=buf), axis=None))
    del live

    # S, one character w = 1..q-1 at a time: its correlation with each
    # posterior column is the scaled posterior rows added by one reduction
    # over the outer axis, and its modulus is sqrt(re^2 + im^2)
    weights = np.empty(q - 1)
    part = None if im is None else np.empty_like(col)
    for w in range(1, q):
        add(np.multiply(post, re[w], out=buf), axis=0, out=col)
        if im is None:
            np.abs(col, out=col)
        else:
            add(np.multiply(post, im[w], out=buf), axis=0, out=part)
            np.multiply(col, col, out=col)
            np.add(col, np.multiply(part, part, out=part), out=col)
            np.sqrt(col, out=col)
        weights[w - 1] = add(np.multiply(col, out, out=col))
    S = float(add(weights) / (q - 1))
    Smax = float(top(weights))

    pv = _frozen(ParamVector, q=q, H=H, I=I, Pe=Pe, Z=Z, Zmad=Zmad, T=T, S=S, Smax=Smax)
    vars(W)["_param_vector"] = pv
    return pv


# ------------------------------------------------------ inequality report

def _h2_bits(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))


def holder_report(W: Channel) -> dict:
    """Check the full web of pairwise parameter inequalities on one channel.

    Every entry is {"lhs", "rhs", "ok"} with ok testing lhs <= rhs + 1e-9.
    Entropies are compared in bits where the classic guessing bounds are
    stated in bits; H itself is base q.
    """
    pv = param_vector(W)
    q, H, Pe, Z, Zmad, T, S, Smax = (
        pv.q, pv.H, pv.Pe, pv.Z, pv.Zmad, pv.T, pv.S, pv.Smax,
    )
    lgq = math.log2(q)
    lnq = math.log(q)
    H_bits = H * lgq

    checks: dict[str, dict] = {}

    def rec(name: str, lhs: float, rhs: float) -> None:
        checks[name] = {"lhs": float(lhs), "rhs": float(rhs), "ok": bool(lhs <= rhs + 1e-9)}

    root = math.sqrt(max(1 + (q - 1) * Z, 0.0)) - math.sqrt(max(1 - Z, 0.0))
    rec("pe_lower_vs_z", (q - 1) / q**2 * root**2, Pe)
    rec("pe_upper_vs_z", Pe, (q - 1) * Z / 2)

    rec("tv_lower_vs_pe", (q - 1) / q - Pe, T / 2)
    rec("tv_upper_vs_pe", T / 2, (q - 1) / q - ((q - 1) * q * Pe - (q - 1) * (q - 2)) / q)

    rec("corr_lower_vs_pe", 1 - q * Pe / (q - 1), S)
    inner = max(1 - (q / (q - 1)) * ((q - 2) / (q - 1)), 0.0)
    rec("corr_upper_vs_pe", S, (q - 1) * q * ((q - 1) / q - Pe) * math.sqrt(inner))

    rec("entropy_upper_fano", H_bits, _h2_bits(Pe) + Pe * math.log2(q - 1))
    rec("entropy_lower_small_pe", 2 * Pe, H_bits)
    lg_ratio = math.log2(q / (q - 1))
    rec(
        "entropy_lower_large_pe",
        (q - 1) * q * lg_ratio * (Pe - (q - 2) / (q - 1)) + math.log2(q - 1),
        H_bits,
    )

    rec("overlap_vs_entropy", Zmad, q * math.sqrt(max(H, 0.0) * lnq / math.log(4)))
    rec("entropy_vs_overlap", H, math.sqrt(math.e * (q - 1) * Zmad / 2))
    rec("corr_vs_entropy_gap", Smax, (q - 1) * q * math.sqrt(max(1 - H, 0.0) * lnq / 2))
    rec("entropy_gap_vs_corr", 1 - H, (q - 1) * Smax / lnq)

    return {"params": pv.as_dict(), "checks": checks, "ok": all(c["ok"] for c in checks.values())}


# ------------------------------------------------- exponent functionals

def _require_uniform(W: Channel, what: str) -> None:
    if np.max(np.abs(W.input_dist - 1.0 / W.q)) > 1e-12:
        raise ValueError(f"{what} requires a uniform input distribution; symmetrize first")


def gallager_e0(W: Channel, t: float) -> dict:
    """Gallager exponent function and its fixed-composition dual, in nats.

    e0(t)      = -ln sum_y (sum_x P(x) W(y|x)^(1/(1+t)))^(1+t)
    e0_dual(t) =  ln sum_y (sum_x J(x,y)^(1/(1+t)))^(1+t)

    Under uniform input the two add up to t*ln(q) identically.  The t = 0
    values are the exact limit 0 for any channel, so they are returned as
    literal zeros rather than round-off.
    """
    _require_uniform(W, "gallager_e0")
    if not -0.4 <= t <= 1.0:
        raise ValueError(f"tilt parameter {t} outside [-2/5, 1]")
    if t == 0.0:
        return {"e0": 0.0, "e0_dual": 0.0, "t": 0.0}
    a = 1.0 / (1.0 + t)
    T = W.transition
    inner = (W.input_dist[:, None] * np.power(T, a)).sum(axis=0)
    e0 = -math.log(float(np.power(inner, 1.0 + t).sum()))
    joint = W.input_dist[:, None] * T
    inner_d = np.power(joint, a).sum(axis=0)
    e0_dual = math.log(float(np.power(inner_d, 1.0 + t).sum()))
    return {"e0": e0, "e0_dual": e0_dual, "t": float(t)}


def second_moment(weights) -> float:
    """Second log-moment sum_i w_i (ln w_i)^2 of a probability vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.min() < -1e-15 or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must form a probability vector")
    mask = w > 0
    return float(np.sum(np.where(mask, w * np.log(np.where(mask, w, 1.0)) ** 2, 0.0)))


def quadratic_check(W: Channel) -> dict:
    """Quadratic lower bound and curvature floor for the exponent function.

    On a 29-point uniform grid in [-2/5, 1] verifies
    e0(t) >= I*t*ln(q) - t^2 (ln q)^2 (slack >= -1e-9) and that discrete
    second differences never drop below -2 (ln q)^2 - 1e-6.
    """
    _require_uniform(W, "quadratic_check")
    ts = np.linspace(-0.4, 1.0, 29)
    lnq = math.log(W.q)
    I_nats = param_vector(W).I * lnq
    e0s = np.array([gallager_e0(W, float(t))["e0"] for t in ts])
    slacks = e0s - (I_nats * ts - ts**2 * lnq**2)
    h = np.diff(ts)
    curv = (e0s[2:] - 2 * e0s[1:-1] + e0s[:-2]) / (h[1:] * h[:-1])
    min_curv = float(curv.min())
    report = {
        "ts": ts.tolist(),
        "e0": e0s.tolist(),
        "min_slack": float(slacks.min()),
        "min_curvature": min_curv,
        "slack_ok": bool(slacks.min() >= -1e-9),
        "curvature_ok": bool(min_curv >= -2 * lnq**2 - 1e-6),
    }
    report["ok"] = report["slack_ok"] and report["curvature_ok"]
    return report
