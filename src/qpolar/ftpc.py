"""Coset weight enumerators of kernel codes, and the bounds they certify.

For an invertible kernel G, position i, the primal enumerator counts Hamming
weights over the coset {(0^(i-1), 1, *) G}: these control how the worst-case
Bhattacharyya overlap of a synthesized position is bounded by the parent's.
The dual enumerator runs over {(*, 1, 0^(ell-i)) G^-T} and controls the
worst-case character correlation the same way.  Both admit a closed
reciprocity: the dual of G at i equals the primal of the row-and-column
reversed inverse-transpose at position ell+1-i.

The verify_* helpers recompute the synthesized channel from scratch — they
never trust caller-provided parameter values — and report lhs/rhs/pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel
from .gf import Kernel, field_matmul, mat_invert
from .params import param_vector
from .transform import transform

#: default cap on the number of coset words enumerated in one call
ENUM_GUARD = 1 << 24

__all__ = [
    "WeightEnumerator",
    "coset_enumerator",
    "dual_coset_enumerator",
    "verify_ftpcz",
    "verify_ftpcs",
    "ENUM_GUARD",
]


@dataclass(frozen=True, eq=False)
class WeightEnumerator:
    """Hamming-weight histogram of a coset; counts[w] = #words of weight w."""

    ell: int
    counts: np.ndarray

    def evaluate(self, z: float) -> float:
        """Sum counts[w] * z^w (with 0^0 = 1)."""
        powers = np.power(float(z), np.arange(self.ell + 1))
        return float(self.counts @ powers)

    @property
    def min_weight(self) -> int:
        nz = np.nonzero(self.counts)[0]
        return int(nz[0]) if nz.size else 0

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _coset_weights(
    matrix: np.ndarray,
    kernel: Kernel,
    i: int,
    free_tail: bool,
    guard: int,
) -> WeightEnumerator:
    """Weight histogram of {(prefix, 1, suffix) @ matrix} with one free side."""
    field = kernel.field
    q, ell = field.q, kernel.ell
    if not 1 <= i <= ell:
        raise ValueError(f"position {i} outside 1..{ell}")
    free = ell - i if free_tail else i - 1
    count = q**free
    if count > guard:
        raise ValueError(f"coset of size {count} exceeds enumeration guard {guard}")
    counts = np.zeros(ell + 1, dtype=np.int64)
    shifts = q ** np.arange(free - 1, -1, -1, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        digits = (idx[:, None] // shifts[None, :]) % q if free else np.zeros((idx.size, 0), dtype=np.int64)
        rows = np.zeros((idx.size, ell), dtype=np.int64)
        rows[:, i - 1] = 1
        if free_tail:
            rows[:, i:] = digits
        else:
            rows[:, : i - 1] = digits
        words = field_matmul(field, rows, matrix)
        weights = np.count_nonzero(words, axis=1)
        counts += np.bincount(weights, minlength=ell + 1)
    return WeightEnumerator(ell=ell, counts=counts)


def coset_enumerator(kernel: Kernel, i: int, guard: int = ENUM_GUARD) -> WeightEnumerator:
    """Primal enumerator: words (0^(i-1), 1, free suffix) @ G."""
    return _coset_weights(kernel.entries, kernel, i, free_tail=True, guard=guard)


def dual_coset_enumerator(kernel: Kernel, i: int, guard: int = ENUM_GUARD) -> WeightEnumerator:
    """Dual enumerator: words (free prefix, 1, 0^(ell-i)) @ G^-T."""
    return _coset_weights(kernel.inv_transpose, kernel, i, free_tail=False, guard=guard)


def reversed_dual_kernel(kernel: Kernel) -> Kernel:
    """Row-and-column reversed inverse-transpose, as a kernel of its own.

    Satisfies: dual enumerator of G at i == primal enumerator of this kernel
    at position ell+1-i.
    """
    flipped = np.ascontiguousarray(kernel.inv_transpose[::-1, ::-1])
    return mat_invert(kernel.field, flipped)


def verify_ftpcz(W: Channel, kernel: Kernel, i: int) -> dict:
    """Check the worst-overlap bound at one synthesized position.

    Recomputes the synthesized channel exactly, then tests
    Zmad(child_i) <= primal_enumerator_i(Zmad(parent)) + 1e-9.
    """
    parent = param_vector(W).Zmad
    child = param_vector(transform(W, kernel, i)).Zmad
    rhs = coset_enumerator(kernel, i).evaluate(parent)
    return {"index": i, "lhs": child, "rhs": rhs, "pass": bool(child <= rhs + 1e-9)}


def verify_ftpcs(W: Channel, kernel: Kernel, i: int) -> dict:
    """Check the worst-correlation bound at one synthesized position.

    Recomputes the synthesized channel exactly, then tests
    Smax(child_i) <= dual_enumerator_i(Smax(parent)) + 1e-9.
    """
    parent = param_vector(W).Smax
    child = param_vector(transform(W, kernel, i)).Smax
    rhs = dual_coset_enumerator(kernel, i).evaluate(parent)
    return {"index": i, "lhs": child, "rhs": rhs, "pass": bool(child <= rhs + 1e-9)}
