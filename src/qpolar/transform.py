"""Exact synthesis of per-position channels created by one kernel step.

Feeding an ell-block of i.i.d. channel uses through an invertible kernel G
turns position i of the block into a new channel: its input is the i-th
source symbol, its output is the pair (all previous source symbols, all ell
channel outputs).  This module builds that channel exactly (with a lossless
output merge so alphabets stay as small as the law allows), estimates its
conditional entropy by Monte Carlo when exact synthesis is out of budget,
and provides the lossy posterior-quantization merge used by long-horizon
simulations.
"""

from __future__ import annotations

import numpy as np

from .channel import Channel, _merge_runs, derived_distributions, merge_outputs, sample_outputs
from .gf import Kernel, _digit_matrix, field_matmul

#: default cap on the pre-merge output-alphabet size of an exact synthesis
DEFAULT_GUARD = 10_000_000

__all__ = [
    "transform",
    "transform_all",
    "estimate_entropy_mc",
    "quantize_merge",
    "quantize_to_fit",
    "DEFAULT_GUARD",
]


def transform(
    W: Channel,
    kernel: Kernel,
    i: int,
    *,
    guard: int = DEFAULT_GUARD,
    merge: bool = True,
) -> Channel:
    """Synthesize position ``i`` (1-based) of one kernel step, exactly.

    Output labels enumerate (previous source symbols, raw output block)
    pairs; a lossless posterior merge is applied before returning, so the
    output alphabet of the result is canonical up to relabeling.  Pass
    ``merge=False`` to keep the raw labels (handy for cross-checks against
    the defining quotient).  Raises ``ValueError`` when the pre-merge
    alphabet q^(i-1) * M^ell would exceed ``guard``.
    """
    ell = kernel.ell
    if not 1 <= i <= ell:
        raise ValueError(f"position {i} outside 1..{ell}")
    q, M = W.q, W.output_size
    pre_merge = q ** (i - 1) * M**ell
    if pre_merge > guard:
        raise ValueError(
            f"exact synthesis needs a {pre_merge}-symbol alphabet, over the guard {guard}"
        )
    joint = derived_distributions(W).joint
    U = _digit_matrix(q, ell)
    X = kernel.apply_rows(U)
    prefix_size = q ** (i - 1)
    shifts = q ** np.arange(i - 2, -1, -1, dtype=np.int64) if i > 1 else None
    A = np.zeros((q, prefix_size * M**ell))
    for k in range(U.shape[0]):
        w = joint[X[k, 0]]
        for j in range(1, ell):
            w = (w[:, None] * joint[X[k, j]][None, :]).ravel()
        pu = int(U[k, : i - 1] @ shifts) if i > 1 else 0
        ui = int(U[k, i - 1])
        A[ui, pu * M**ell : (pu + 1) * M**ell] += w
    mass = A.sum(axis=1)
    rows = np.where(mass[:, None] > 0, A / np.where(mass > 0, mass, 1.0)[:, None], 1.0 / A.shape[1])
    out = Channel(W.field, rows, mass)
    return merge_outputs(out, tol=1e-12) if merge else out


def transform_all(
    W: Channel, kernel: Kernel, *, guard: int = DEFAULT_GUARD, merge: bool = True
) -> list[Channel]:
    """All ell synthesized positions of one kernel step."""
    return [transform(W, kernel, i, guard=guard, merge=merge) for i in range(1, kernel.ell + 1)]


def estimate_entropy_mc(
    W: Channel,
    kernel: Kernel,
    i: int,
    samples: int,
    rng: np.random.Generator,
) -> dict:
    """Monte Carlo estimate of the synthesized conditional entropy (base q).

    Draws source blocks and channel outputs from the true law, computes the
    exact posterior of the i-th source symbol given (previous symbols, output
    block) by summing the q^(ell-i+1) completions, and averages the log-loss
    of the true symbol.  Returns estimate, standard error and sample count.
    """
    ell = kernel.ell
    if not 1 <= i <= ell:
        raise ValueError(f"position {i} outside 1..{ell}")
    q, M = W.q, W.output_size
    field = W.field
    joint = derived_distributions(W).joint
    in_cdf = np.cumsum(W.input_dist)
    cands = _digit_matrix(q, ell - i + 1)  # candidate (u_i, suffix) blocks
    C = cands.shape[0]
    losses = np.empty(samples)
    done = 0
    # keep the (B*ell, M) inverse-CDF workspace bounded regardless of M
    max_b = max(1, min(2048, 30_000_000 // max(ell * M, 1)))
    while done < samples:
        B = min(max_b, samples - done)
        xs = np.searchsorted(in_cdf, rng.random((B, ell)), side="right")
        xs = np.minimum(xs, q - 1)
        ys = sample_outputs(W, xs, rng.random((B, ell)))
        us = field_matmul(field, xs, kernel.inverse)
        full = np.empty((B, C, ell), dtype=np.int64)
        full[:, :, : i - 1] = us[:, None, : i - 1]
        full[:, :, i - 1 :] = cands[None, :, :]
        xc = field_matmul(field, full.reshape(B * C, ell), kernel.entries)
        w = joint[xc.reshape(B, C, ell), ys[:, None, :]]
        scores = w.prod(axis=2)  # (B, C)
        per_sym = scores.reshape(B, q, C // q).sum(axis=2)
        total = per_sym.sum(axis=1)
        p_true = per_sym[np.arange(B), us[:, i - 1]] / total
        losses[done : done + B] = -np.log(p_true) / np.log(q)
        done += B
    est = float(losses.mean())
    stderr = float(losses.std(ddof=1) / np.sqrt(samples)) if samples > 1 else float("inf")
    return {"estimate": est, "stderr": stderr, "samples": int(samples)}


def quantize_merge(W: Channel, resolution: int) -> Channel:
    """Merge outputs whose posteriors share a grid cell of pitch 1/resolution.

    A deterministic degradation: binning can only coarsen the posterior
    field, so conditional entropy never decreases.  Anything downstream of
    this op should be flagged as approximate.

    Grouping rule: columns are sorted lexicographically by their integer
    bin vectors, and each run of equal bin vectors becomes one output, in
    sorted order.  Summation order: each merged column adds its run's
    transition columns left to right in sorted order, bitwise equal to
    ``W.transition[:, run].sum(axis=1)``, as in ``merge_outputs``.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    d = derived_distributions(W)
    bins = np.minimum((d.posterior * resolution).astype(np.int64), resolution - 1)
    order = np.lexsort(bins[::-1, :])
    B = bins[:, order]
    start = np.ones(order.size, dtype=bool)
    start[1:] = (B[:, 1:] != B[:, :-1]).any(axis=0)
    return _merge_runs(W, order, start)


def quantize_to_fit(
    W: Channel, ell: int, i: int, resolution: int, *, guard: int, where: str
) -> tuple[Channel, bool]:
    """Coarsen W until synthesizing position ``i`` of an ell-kernel fits ``guard``.

    ``transform`` at position i enumerates q^(i-1) * M^ell outputs.  While
    that is over the guard, W is binned with ``quantize_merge``, starting
    at ``resolution`` and halving it on every pass: binning at a fixed pitch
    only merges outputs whose posteriors collide, so one pass may not
    shrink enough.  Returns the channel and whether it was quantized.
    Raises ``ValueError`` naming ``where`` when even resolution 1 leaves
    it over the guard.
    """
    q, shrunk = W.q, False
    while q ** (i - 1) * W.output_size**ell > guard:
        if resolution < 1:
            raise ValueError(
                f"{where} needs a {q ** (i - 1) * W.output_size**ell}-symbol synthesis "
                f"even after quantizing at resolution 1, over the guard {guard}"
            )
        W = quantize_merge(W, resolution)
        shrunk = True
        resolution //= 2
    return W, shrunk
