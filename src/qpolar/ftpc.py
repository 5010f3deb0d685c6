"""Coset weight enumerators of kernel codes, and the bounds they certify.

For an invertible kernel G, position i, the primal enumerator counts Hamming
weights over the coset {(0^(i-1), 1, *) G}: these control how the worst-case
Bhattacharyya overlap of a synthesized position is bounded by the parent's.
The dual enumerator runs over {(*, 1, 0^(ell-i)) G^-T} and controls the
worst-case character correlation the same way.  Both admit a closed
reciprocity: the dual of G at i equals the primal of the row-and-column
reversed inverse-transpose at position ell+1-i.

Every position of one side comes from one nested sweep of the rows, from
the last up: level j is the span S_j = span(g_j..g_ell), made by adding the
q multiples of g_j to every word of S_(j+1), and the coset at j is its
multiplier-1 slice g_j + S_(j+1).  The dual side is the same sweep over the
rows of the inverse-transpose in reverse order.  Once a level fills a block
of 2^16 words it is frozen, and the positions above it nest a span of
offsets instead, each batch of which is added to the block in one step, so
no step holds more than 2^16 words.  A single position is entry 0 of the
same sweep over rows i..ell (rows i..1 on the dual side).

A coset word is enumerated packed: ceil(ell / (64 // (m b))) uint64 lanes,
each holding whole symbols of m digit fields of b bits.  Over GF(2^m) a
symbol is its own m bits (b = 1) and the field add is XOR; over odd p each
digit carries a guard bit (b = bit_length(p - 1) + 1) and the add is one
SWAR pass over the whole word: s = a + c, minus p in every digit whose
guard bit s + (2^(b-1) - p) sets.  The weight OR-folds each symbol onto its
lowest bit and counts the bits; a one-bit GF(2) symbol is counted as it is.
A word takes 8 bytes up to ell = 64 // (m b) (32 symbols over GF(4), 21
over GF(3)), against 8 ell bytes as int64 symbols.

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
    "coset_enumerators",
    "dual_coset_enumerator",
    "dual_coset_enumerators",
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


def _repeat_one(width: int, count: int) -> int:
    """The integer with bit 0 of each of ``count`` consecutive width-bit fields set."""
    return ((1 << (width * count)) - 1) // ((1 << width) - 1)


class _Packing:
    """Words of ell symbols over GF(q), packed into uint64 lanes.

    Each symbol takes m digit fields of b bits: its m bits as they stand for
    p = 2 (b = 1, addition is XOR); for odd p, b = bit_length(p - 1) + 1 and
    the top bit of each digit is a guard bit that a digit sum sets exactly
    when it reaches p.  A lane holds 64 // (m b) whole symbols, so a word is
    ceil(ell / (64 // (m b))) uint64 and no symbol straddles two lanes.
    """

    def __init__(self, field: FieldSpec, ell: int) -> None:
        p, m = field.p, field.m
        self.p, self.m = p, m
        self.digit = 1 if p == 2 else (p - 1).bit_length() + 1
        self.width = m * self.digit
        self.per_lane = 64 // self.width
        self.lanes = -(-ell // self.per_lane)
        self.slot_shifts = np.arange(self.per_lane, dtype=np.uint64) * np.uint64(self.width)
        self.low_bits = np.uint64(_repeat_one(self.width, self.per_lane))
        if p != 2:
            ones = _repeat_one(self.digit, self.per_lane * m)
            self.guards = np.uint64(ones << (self.digit - 1))
            self.excess = np.uint64(ones * ((1 << (self.digit - 1)) - p))
        # OR-shifts that fold a symbol's width bits onto its lowest bit, no wider
        self.folds = []
        window = 1
        while 2 * window <= self.width:
            self.folds.append(np.uint64(window))
            window *= 2
        if window < self.width:
            self.folds.append(np.uint64(self.width - window))

    def pack(self, symbols: np.ndarray) -> np.ndarray:
        """(..., ell) symbols in [0, q) -> (..., lanes) uint64 words."""
        ell = symbols.shape[-1]
        if self.p != 2 and self.m > 1:
            pows = self.p ** np.arange(self.m, dtype=np.int64)
            digits = (symbols[..., None] // pows % self.p).astype(np.uint64)
            shifts = np.arange(self.m, dtype=np.uint64) * np.uint64(self.digit)
            symbols = (digits << shifts).sum(axis=-1, dtype=np.uint64)
        slots = np.zeros(symbols.shape[:-1] + (self.lanes * self.per_lane,), dtype=np.uint64)
        slots[..., :ell] = symbols
        slots = slots.reshape(symbols.shape[:-1] + (self.lanes, self.per_lane))
        return (slots << self.slot_shifts).sum(axis=-1, dtype=np.uint64)

    def add(self, a: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Symbol-wise field sum of two packed words (broadcasting)."""
        if self.p == 2:
            return a ^ c
        s = a + c
        t = s + self.excess
        t &= self.guards
        t >>= np.uint64(self.digit - 1)
        t *= np.uint64(self.p)
        s -= t
        return s

    def weights(self, words: np.ndarray) -> np.ndarray:
        """Hamming weight of each packed word: its count of nonzero symbols."""
        if self.width > 1:
            for shift in self.folds:
                words = words | (words >> shift)
            words = words & self.low_bits
        counts = np.bitwise_count(words)
        if self.lanes == 1:
            return counts[..., 0]
        return counts.sum(axis=-1, dtype=np.intp)


def _weigh(
    packing: _Packing, offsets: np.ndarray, block: np.ndarray | None, ell: int
) -> WeightEnumerator:
    """Weight histogram of the words offset + b, b in the block (the offsets alone if None).

    Each batch of offsets is added to the whole block in one step, so no step
    holds more than 2^16 words.
    """
    if block is None:
        counts = np.bincount(packing.weights(offsets), minlength=ell + 1)
        return WeightEnumerator(ell=ell, counts=counts)
    step = _BLOCK_WORDS // len(block)
    counts = np.zeros(ell + 1, dtype=np.int64)
    for first in range(0, len(offsets), step):
        # no name holds the batch, so it is freed before bincount widens the weights
        weights = packing.weights(
            packing.add(offsets[first : first + step, None, :], block[None, :, :])
        )
        counts += np.bincount(weights.ravel(), minlength=ell + 1)
    return WeightEnumerator(ell=ell, counts=counts)


def _sweep(field: FieldSpec, rows: np.ndarray) -> list[WeightEnumerator]:
    """Weight histograms of the cosets rows[t] + span(rows[t+1:]), t = 0 .. n-1.

    One nested sweep from the last row up: level t adds the q multiples of
    rows[t] to the span below it, and the coset at t is the multiplier-1 slice
    of that level.  Once the span fills a 2^16-word block it is frozen, and
    the levels above nest a fresh span of offsets that are added to the block
    batch by batch.  The first row's level is never built in full, only its
    coset.  Raises ``ValueError`` when the first coset exceeds ``ENUM_GUARD``.
    """
    q, (n, ell) = field.q, rows.shape
    count = q ** (n - 1)
    if count > ENUM_GUARD:
        raise ValueError(f"coset of size {count} exceeds enumeration guard {ENUM_GUARD}")
    packing = _Packing(field, ell)
    multiples = packing.pack(field.mul(field.elements[None, :, None], rows[:, None, :]))
    span = zero = np.zeros((1, packing.lanes), dtype=np.uint64)
    block = None
    enums = []
    for t in range(n - 1, 0, -1):
        level = packing.add(multiples[t][:, None, :], span[None, :, :])
        enums.append(_weigh(packing, level[1], block, ell))
        span = level.reshape(-1, packing.lanes)
        if block is None and t > 1 and len(span) * q > _BLOCK_WORDS:
            block, span = span, zero
    enums.append(_weigh(packing, packing.add(multiples[0, 1:2], span), block, ell))
    return enums[::-1]


def _check_position(kernel: Kernel, i: int) -> None:
    if not 1 <= i <= kernel.ell:
        raise ValueError(f"position {i} outside 1..{kernel.ell}")


def coset_enumerators(kernel: Kernel) -> list[WeightEnumerator]:
    """Primal enumerators of every position, in order 1..ell, from one sweep."""
    return _sweep(kernel.field, kernel.entries)


def dual_coset_enumerators(kernel: Kernel) -> list[WeightEnumerator]:
    """Dual enumerators of every position, in order 1..ell, from one sweep."""
    return _sweep(kernel.field, kernel.inv_transpose[::-1])[::-1]


def coset_enumerator(kernel: Kernel, i: int) -> WeightEnumerator:
    """Primal enumerator: words (0^(i-1), 1, free suffix) @ G."""
    _check_position(kernel, i)
    return _sweep(kernel.field, kernel.entries[i - 1 :])[0]


def dual_coset_enumerator(kernel: Kernel, i: int) -> WeightEnumerator:
    """Dual enumerator: words (free prefix, 1, 0^(ell-i)) @ G^-T."""
    _check_position(kernel, i)
    return _sweep(kernel.field, kernel.inv_transpose[i - 1 :: -1])[0]


def _verify(W: Channel, kernel: Kernel, i: int, param: str, enumerator) -> dict:
    parent = getattr(param_vector(W), param)
    child = getattr(param_vector(transform(W, kernel, i)), param)
    rhs = enumerator(kernel, i).evaluate(parent)
    return {"index": i, "lhs": child, "rhs": rhs, "pass": bool(child <= rhs + 1e-9)}


def verify_ftpcz(W: Channel, kernel: Kernel, i: int) -> dict:
    """Check the worst-overlap bound at one synthesized position.

    Recomputes the synthesized channel exactly, then tests
    Zmad(child_i) <= primal_enumerator_i(Zmad(parent)) + 1e-9.
    """
    return _verify(W, kernel, i, "Zmad", coset_enumerator)


def verify_ftpcs(W: Channel, kernel: Kernel, i: int) -> dict:
    """Check the worst-correlation bound at one synthesized position.

    Recomputes the synthesized channel exactly, then tests
    Smax(child_i) <= dual_enumerator_i(Smax(parent)) + 1e-9.
    """
    return _verify(W, kernel, i, "Smax", dual_coset_enumerator)
