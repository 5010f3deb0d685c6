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
from .gf import FieldSpec, Kernel
from .params import param_vector
from .transform import transform

#: cap on the number of coset words enumerated in one call, read at call time
ENUM_GUARD = 1 << 24

#: most coset words held in memory at once during one enumeration
_BLOCK_WORDS = 1 << 16

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


def _span(field: FieldSpec, rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Every word start + c_1 r_1 + ... + c_k r_k, one row per word.

    Nested from the last row to the first: each level adds the q scalar
    multiples of one row to every word built so far.
    """
    words = start
    for row in rows[::-1]:
        multiples = field.mul(field.elements[:, None], row[None, :])
        words = field.add(multiples[:, None, :], words[None, :, :]).reshape(-1, row.size)
    return words


def _coset_weights(field: FieldSpec, lead: np.ndarray, free: np.ndarray) -> WeightEnumerator:
    """Weight histogram of the coset lead + span(free rows).

    The trailing free rows span a block of at most 2^16 words, the leading
    ones a set of offsets containing ``lead``; each batch of offsets is added
    to the block in one step, so no step holds more than 2^16 words.
    """
    q, ell = field.q, lead.size
    count = q ** len(free)
    if count > ENUM_GUARD:
        raise ValueError(f"coset of size {count} exceeds enumeration guard {ENUM_GUARD}")
    in_block = 0
    while in_block < len(free) and q ** (in_block + 1) <= _BLOCK_WORDS:
        in_block += 1
    split = len(free) - in_block
    block = _span(field, free[split:], np.zeros((1, ell), dtype=np.int64))
    offsets = _span(field, free[:split], lead[None, :])
    step = _BLOCK_WORDS // len(block)
    counts = np.zeros(ell + 1, dtype=np.int64)
    for first in range(0, len(offsets), step):
        weights = np.count_nonzero(
            field.add(offsets[first : first + step, None, :], block[None, :, :]), axis=2
        )
        counts += np.bincount(weights.ravel(), minlength=ell + 1)
    return WeightEnumerator(ell=ell, counts=counts)


def _check_position(kernel: Kernel, i: int) -> None:
    if not 1 <= i <= kernel.ell:
        raise ValueError(f"position {i} outside 1..{kernel.ell}")


def coset_enumerator(kernel: Kernel, i: int) -> WeightEnumerator:
    """Primal enumerator: words (0^(i-1), 1, free suffix) @ G."""
    _check_position(kernel, i)
    rows = kernel.entries
    return _coset_weights(kernel.field, rows[i - 1], rows[i:])


def dual_coset_enumerator(kernel: Kernel, i: int) -> WeightEnumerator:
    """Dual enumerator: words (free prefix, 1, 0^(ell-i)) @ G^-T."""
    _check_position(kernel, i)
    rows = kernel.inv_transpose
    return _coset_weights(kernel.field, rows[i - 1], rows[: i - 1])


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
