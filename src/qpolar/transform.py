"""Exact synthesis of per-position channels created by one kernel step.

Feeding an ell-block of i.i.d. channel uses through an invertible kernel G
turns position i of the block into a new channel: its input is the i-th
source symbol, its output is the pair (all previous source symbols, all ell
channel outputs).  This module builds that channel exactly (with
``merge_outputs``' likelihood-ratio merge, so alphabets stay as small as
the law allows) and provides the
lossy posterior-quantization merge used by long-horizon simulations.
"""

from __future__ import annotations

import numpy as np

from .channel import Channel, _merge_sorted, _posterior, merge_outputs
from .gf import Kernel

#: cap on the pre-merge output-alphabet size of an exact synthesis, read at call time
DEFAULT_GUARD = 10_000_000

__all__ = [
    "transform",
    "transform_all",
    "quantize_merge",
    "quantize_to_fit",
    "DEFAULT_GUARD",
]


def transform(W: Channel, kernel: Kernel, i: int, *, merge: bool = True) -> Channel:
    """Synthesize position ``i`` (1-based) of one kernel step, exactly.

    Output labels enumerate (previous source symbols, raw output block)
    pairs; ``merge_outputs`` is applied before returning, so the
    output alphabet of the result is canonical up to relabeling.  Pass
    ``merge=False`` to keep the raw labels (handy for cross-checks against
    the defining quotient).  Raises ``ValueError`` when the kernel is over
    another field than W, or when the pre-merge alphabet q^(i-1) * M^ell
    would exceed ``DEFAULT_GUARD`` (read at call time).
    """
    if kernel.field.q != W.q:  # q = p^m names the field
        raise ValueError(f"the kernel is over GF({kernel.field.q}) but the channel over GF({W.q})")
    ell = kernel.ell
    if not 1 <= i <= ell:
        raise ValueError(f"position {i} outside 1..{ell}")
    q, M = W.q, W.output_size
    pre_merge = q ** (i - 1) * M**ell
    if pre_merge > DEFAULT_GUARD:
        raise ValueError(
            f"exact synthesis needs a {pre_merge}-symbol alphabet,"
            f" over the guard {DEFAULT_GUARD}"
        )
    out = Channel._owned(W.field, *_raw_law(W.derived.joint, kernel, i))
    return merge_outputs(out) if merge else out


def _raw_law(joint: np.ndarray, kernel: Kernel, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Transition rows and input law of position ``i`` before any merge.

    Column ``prefix * M^ell + y`` of row ``u_i`` holds the joint mass of the
    words with that prefix and symbol summed over their q^(ell-i) suffixes.
    Each word's joint comes from the kernel's word table for position i
    (``Kernel.synthesis_words``): the joint rows of its symbols are
    gathered and multiplied as outer products, left to right.  Words are
    taken in (suffix, u_i, prefix) order, so each suffix block is one
    contiguous (q, prefix * M^ell) slab.  The blocks are gathered one at a
    time and added in word order one ``+`` at a time: the bits equal a
    word-by-word accumulation from zero (a reduction over the suffix axis
    would add pairwise).  Rows of zero mass are uniform.
    """
    q, ell = kernel.field.q, kernel.ell
    A = None
    for block in kernel.synthesis_words(i):
        rows = joint[block]  # (q^i, ell, M)
        w = rows[:, 0]
        for j in range(1, ell):
            w = (w[:, :, None] * rows[:, j, None, :]).reshape(len(block), -1)
        if A is None:
            A = w.reshape(q, -1)
        else:
            A += w.reshape(q, -1)
        del rows, w
    mass = np.add.reduce(A, axis=1)
    if np.minimum.reduce(mass) > 0.0:
        A /= mass[:, None]
    else:
        A /= np.where(mass > 0, mass, 1.0)[:, None]
        A[mass <= 0] = 1.0 / A.shape[1]
    return A, mass


def transform_all(W: Channel, kernel: Kernel, *, merge: bool = True) -> list[Channel]:
    """All ell synthesized positions of one kernel step."""
    return [transform(W, kernel, i, merge=merge) for i in range(1, kernel.ell + 1)]


def quantize_merge(W: Channel, resolution: int) -> Channel:
    """Merge outputs whose posteriors share a grid cell of pitch 1/resolution.

    A deterministic degradation: binning can only coarsen the posterior
    field, so conditional entropy never decreases.  Anything downstream of
    this op should be flagged as approximate.

    Grouping rule: the outputs with equal bin vectors
    min(floor(resolution * posterior), resolution - 1) merge.  The bins are
    absolute cells of the posterior, not ``merge_outputs``' relative
    lattice: they are this merge's definition.  ``channel._merge_sorted``
    groups them with ``step`` 0, the scan ``merge_outputs`` shares: the
    columns are sorted lexicographically by bin vector, each run of equal
    bin vectors becomes one output, and each merged column adds its run's
    transition columns left to right in label order.  The bins are formed
    in place in the (q, N) posterior buffer, whose first row then holds the
    group ids, so the merge holds no N-long buffer besides it, the sort
    order and the run heads (and, while the bins are formed, the N-long
    output sum of ``_posterior``).  Up to 2^53 every bin is an exact float
    integer, so ``resolution`` must lie in 1..2^53.
    """
    if not 1 <= resolution <= 2**53:
        bound = "at least 1" if resolution < 1 else "at most 2^53"
        raise ValueError(f"resolution must be {bound}, got {resolution}")
    bins = _posterior(W)[0]
    bins *= resolution
    np.minimum(np.trunc(bins, out=bins), resolution - 1, out=bins)
    return _merge_sorted(W, bins, 0)


def quantize_to_fit(
    W: Channel, ell: int, i: int, resolution: int, *, where: str
) -> tuple[Channel, bool]:
    """Coarsen W until synthesizing position ``i`` of an ell-kernel fits ``DEFAULT_GUARD``.

    ``transform`` at position i enumerates q^(i-1) * M^ell outputs.  While
    that is over the guard, W is binned with ``quantize_merge``, starting
    at ``resolution`` and halving it on every pass: binning at a fixed pitch
    only merges outputs whose posteriors collide, so one pass may not
    shrink enough.  Returns the channel and whether it was quantized.
    Raises ``ValueError`` naming ``where`` when even resolution 1 leaves
    it over the guard.
    """
    q, shrunk = W.q, False
    while q ** (i - 1) * W.output_size**ell > DEFAULT_GUARD:
        if resolution < 1:
            raise ValueError(
                f"{where} needs a {q ** (i - 1) * W.output_size**ell}-symbol synthesis "
                f"even after quantizing at resolution 1, over the guard {DEFAULT_GUARD}"
            )
        W = quantize_merge(W, resolution)
        shrunk = True
        resolution //= 2
    return W, shrunk
