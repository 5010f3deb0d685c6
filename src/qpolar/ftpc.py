"""Coset weight enumerators of kernel codes, and the bounds they certify.

For an invertible kernel G, position i, the primal enumerator counts Hamming
weights over the coset {(0^(i-1), 1, *) G}: these control how the worst-case
Bhattacharyya overlap of a synthesized position is bounded by the parent's.
The dual enumerator runs over {(*, 1, 0^(ell-i)) G^-T} and controls the
worst-case character correlation the same way.  Both admit a closed
reciprocity: the dual of G at i equals the primal of the row-and-column
reversed inverse-transpose at position ell+1-i.

The positions i > ell/2 come from one nested sweep of the rows, from the
last up: level j is the span S_j = span(g_j..g_ell), made by adding the q
multiples of g_j to every word of S_(j+1), and the coset at j is its
multiplier-1 slice g_j + S_(j+1).  The positions i <= ell/2 come by
MacWilliams duality (MacWilliams, Bell Syst. Tech. J. 1963) from the same
sweep over the first ell//2 rows h of the inverse-transpose: S_k is the
dual of D_k = span(h_1..h_(k-1)), whose enumerator the sweep of the dual
cosets h_k + D_k builds, and the q - 1 nonzero multiples of g_i + S_(i+1)
tile S_i minus S_(i+1).  So no span holds more than q^(ceil(ell/2) - 1)
words: ``ENUM_GUARD`` reaches ell = 50 over GF(2), 32 over GF(3) and 26
over GF(4), where the coset at position 1 alone has q^(ell-1) words.  The
dual side is the same with the roles of G and G^-T swapped and their rows
reversed.  A single position is taken from whichever side enumerates
fewer words: the sweep over rows i..ell, q^(ell-i) words, or by duality
from the dual rows i..1, q^(i-1).

A sweep runs over a batch of kernels at once, each word array laid out
(..., kernel, lanes); the plural enumerators are a batch of one, and
``kernsearch.empirical_failure_rate`` batches its census.  Once a level
fills a block of 2^16 words it is frozen, and the positions above it nest a
span of offsets instead, each batch of which is added to the block in one
step, so no step holds more than 2^16 words.

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

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .channel import Channel
from .gf import FieldSpec, Kernel
from .params import param_vector
from .transform import transform

#: cap on the words of the largest span one call enumerates, read at call time
ENUM_GUARD = 1 << 24

#: most coset words held in memory at once during one enumeration
_BLOCK_WORDS = 1 << 16

#: this thread's scratch words of the sweeps, kept from one sweep to the next
_SCRATCH = threading.local()

#: fewest words a sweep step takes from the scratch slots
_SCRATCH_WORDS = 1 << 12

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
        """Sum counts[w] * z^w (with 0^0 = 1), by Horner's rule in Python floats.

        Every step is one IEEE multiply and one add of an integer count, each
        correctly rounded (a count above 2^53 is first rounded to the nearest
        float), so the value does not depend on numpy's SIMD dispatch, on BLAS
        or on libm.
        """
        z, acc = float(z), 0.0
        for count in reversed(self.counts.tolist()):
            acc = acc * z + count
        return acc

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
        # symbol j sits in lane j // per_lane, shifted by its slot in that lane
        self.symbol_shifts = np.arange(ell, dtype=np.uint64) % np.uint64(self.per_lane)
        self.symbol_shifts *= np.uint64(self.width)
        self.lane_starts = np.arange(0, ell, self.per_lane)
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
        """(..., ell) symbols in [0, q) -> (..., lanes) uint64 words.

        Each symbol is shifted into its slot in place and the slots of a lane
        OR-ed together, so no temporary is larger than the symbols as uint64.
        """
        if self.p != 2 and self.m > 1:
            pows = self.p ** np.arange(self.m, dtype=np.int64)
            digits = (symbols[..., None] // pows % self.p).astype(np.uint64)
            shifts = np.arange(self.m, dtype=np.uint64) * np.uint64(self.digit)
            symbols = (digits << shifts).sum(axis=-1, dtype=np.uint64)
        else:
            symbols = symbols.astype(np.uint64)
        symbols <<= self.symbol_shifts
        return np.bitwise_or.reduceat(symbols, self.lane_starts, axis=-1)

    def add(self, a: np.ndarray, c: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Symbol-wise field sum of two packed words (broadcasting), in ``out`` if given."""
        if self.p == 2:
            return np.bitwise_xor(a, c, out=out)
        s = np.add(a, c, out=out)
        t = np.add(s, self.excess, out=_scratch(4, s.shape))
        t &= self.guards
        t >>= np.uint64(self.digit - 1)
        t *= np.uint64(self.p)
        s -= t
        return s

    def weights(self, words: np.ndarray) -> np.ndarray:
        """Hamming weight of each packed (..., lanes) word: its count of nonzero symbols.

        ``words`` is left as it is unless it is scratch slot 3: the symbols
        are folded in slot 4, with slot 3 as the temporary of any fold
        after the first.
        """
        if self.width > 1:
            folded = _scratch(4, words.shape)
            folded = np.right_shift(words, self.folds[0], out=folded)
            folded = np.bitwise_or(words, folded, out=folded)
            for shift in self.folds[1:]:
                tmp = np.right_shift(folded, shift, out=_scratch(3, words.shape))
                np.bitwise_or(folded, tmp, out=folded)
            words = np.bitwise_and(folded, self.low_bits, out=folded)
        if self.lanes > 1:
            return np.bitwise_count(words).sum(axis=-1, dtype=np.intp)
        counts = _scratch(5, words.shape[:-1])
        return np.bitwise_count(words[..., 0], out=None if counts is None else counts.view(np.intp))


def _scratch(slot: int, shape: tuple[int, ...]) -> np.ndarray | None:
    """A uint64 array of ``shape`` over this thread's scratch ``slot``, or None if small.

    A sweep's large temporaries take the same few sizes every time, so they
    are kept per thread and reused.  Freed after every sweep, they would
    leave the top of the C heap free, which glibc may hand back to the
    system; the next sweep then faults every page in again (about 1,900
    page faults per 20 GF(4) 8x8 kernels), in any process whose heap layout
    allows it.  Below ``_SCRATCH_WORDS`` words the answer is None, and the
    ufunc given ``out=None`` allocates its own result: that costs less than
    a view of the slot, and frees too little for the heap to be trimmed.
    A slot only grows.  Its contents mean nothing between uses: every use
    writes before it reads.  Slots 0-2 hold the levels of a sweep, 3 the
    batches of ``_weigh``, 4 the temporaries of ``_Packing.add`` and the
    folds of ``_Packing.weights``, 5 the counts.
    """
    size = math.prod(shape)
    if size < _SCRATCH_WORDS:
        return None
    try:
        bufs = _SCRATCH.bufs
    except AttributeError:
        bufs = _SCRATCH.bufs = [np.empty(0, dtype=np.uint64)] * 6
    buf = bufs[slot]
    if buf.size < size:
        buf = bufs[slot] = np.empty(size, dtype=np.uint64)
    return buf[:size].reshape(shape)


def _histograms(packing: _Packing, words: np.ndarray, ell: int) -> np.ndarray:
    """Weight histograms of packed (..., K, lanes) words, one per kernel: a (K, ell + 1) array.

    Kernel k's weights are counted in bins k (ell + 1) .. k (ell + 1) + ell
    of one ``np.bincount``.
    """
    kernels = words.shape[-2]
    weights = packing.weights(words)
    base = np.arange(0, kernels * (ell + 1), ell + 1)
    # in place over intp weights (a scratch slot or a fresh sum), not uint8 bit counts
    keys = np.add(weights, base, out=weights if weights.dtype == base.dtype else None)
    return np.bincount(keys.reshape(-1), minlength=kernels * (ell + 1)).reshape(kernels, ell + 1)


def _weigh(
    packing: _Packing, offsets: np.ndarray, block: np.ndarray | None, ell: int
) -> np.ndarray:
    """Per-kernel weight histograms of the words offset + b, b in the block (offsets alone if None).

    ``offsets`` is (S, K, lanes) and ``block`` (B, K, lanes): kernel k's
    offsets are added to kernel k's block.  Each batch of offsets is added
    to the whole block in one step, so no step holds more than 2^16 words.
    Large batches are formed in scratch slot 3; ``offsets`` is left as it is.
    """
    if block is None:
        return _histograms(packing, offsets, ell)
    step = _BLOCK_WORDS // math.prod(block.shape[:2])
    counts = 0
    for first in range(0, len(offsets), step):
        batch = offsets[first : first + step, None]
        words = packing.add(batch, block[None], _scratch(3, (len(batch),) + block.shape))
        counts = counts + _histograms(packing, words, ell)
    return counts


def _guard(q: int, rows: int) -> int:
    """Words in the largest span of a sweep over ``rows`` rows, q^(rows - 1).

    Raises ``ValueError`` when they exceed ``ENUM_GUARD``.
    """
    count = q ** (rows - 1)
    if count > ENUM_GUARD:
        raise ValueError(f"coset of size {count} exceeds enumeration guard {ENUM_GUARD}")
    return count


def _sweep(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Weight histograms of the cosets rows[k, t] + span(rows[k, t+1:]) of every kernel k.

    ``rows`` is (K, n, ell); the result is (K, n, ell + 1).  One nested
    sweep from the last row up, for all K kernels at once: level t adds the
    q multiples of rows[:, t] to the span below it, and the coset at t is the
    multiplier-1 slice of that level.  A word array is laid out (..., K,
    lanes), so a level reshapes into the next span without a copy.  Once the
    span fills a 2^16-word block it is frozen, and the levels above nest a
    fresh span of offsets that are added to the block batch by batch.  The
    first row's level is never built in full, only its coset.  Raises
    ``ValueError`` when the first coset exceeds ``ENUM_GUARD``.
    """
    q, (kernels, n, ell) = field.q, rows.shape
    counts = np.zeros((kernels, n, ell + 1), dtype=np.int64)
    if n == 0:
        return counts
    _guard(q, n)
    packing = _Packing(field, ell)
    lanes = packing.lanes
    # multiples[t, a, k] is a * rows[k, t], packed
    multiples = packing.pack(
        field.mul(field.elements[None, :, None, None], rows.transpose(1, 0, 2)[:, None])
    )
    span = zero = np.zeros((1, kernels, lanes), dtype=np.uint64)
    block = None
    # the levels alternate between two scratch slots, so a level never
    # overwrites the span it is built from; slot 2 takes over the block's
    slots, k = [0, 1], 0
    for t in range(n - 1, 0, -1):
        level = _scratch(slots[k], (q,) + span.shape)
        level = packing.add(multiples[t][:, None], span[None], level)
        counts[:, t] = _weigh(packing, level[1], block, ell)
        span = level.reshape((-1,) + span.shape[1:])
        if block is None and t > 1 and len(span) * kernels * q > _BLOCK_WORDS:
            block, span, slots[k] = span, zero, 2
        k ^= 1
    coset = _scratch(slots[k], span.shape)
    counts[:, 0] = _weigh(packing, packing.add(multiples[0, 1], span, coset), block, ell)
    return counts


@functools.cache
def _krawtchouk(q: int, ell: int) -> np.ndarray:
    """The q-ary Krawtchouk matrix as Python integers, read-only: entry (x, w) is K_w(x).

    K_w(x) = sum_j (-1)^j (q-1)^(w-j) C(x, j) C(ell-x, w-j), the weight-w
    coefficient of (1 - y)^x (1 + (q-1) y)^(ell-x).
    """
    table = np.array(
        [
            [
                sum(
                    (-1) ** j * (q - 1) ** (w - j) * math.comb(x, j) * math.comb(ell - x, w - j)
                    for j in range(w + 1)
                )
                for w in range(ell + 1)
            ]
            for x in range(ell + 1)
        ],
        dtype=object,
    )
    table.setflags(write=False)
    return table


def _exact_quotient(a: np.ndarray, d) -> np.ndarray:
    """a // d, elementwise; raises ``RuntimeError`` when a division leaves a remainder."""
    out = a // d
    if np.any(out * d != a):
        raise RuntimeError("a MacWilliams sum left a remainder: the enumerator algebra failed")
    return out


def _macwilliams(q: int, cosets: np.ndarray, first: int) -> np.ndarray:
    """Primal coset counts at positions first+1..m from the dual cosets at 1..m.

    ``cosets`` is (K, m, ell + 1): the histogram of d_k + D_k, where
    D_k = span(d_1..d_(k-1)) is the dual of S_k = span(r_k..r_ell).  Then
    A(D_(k+1)) = A(D_k) + (q-1) hist(d_k + D_k); the MacWilliams identity
    gives |D_k| A(S_k)(w) = sum_x A(D_k)(x) K_w(x); and the q - 1 nonzero
    multiples of r_i + S_(i+1) tile S_i minus S_(i+1) with equal weights, so
    the coset at i is (A(S_i) - A(S_(i+1))) / (q - 1).  Every sum is exact:
    |K_w(x)| <= C(ell, w) (q-1)^w <= q^ell and A(D_k) sums to q^(k-1), so no
    partial sum reaches q^(ell+m), and int64 holds them while that is below
    2^63; Python integers take them beyond.  Every division is checked
    exact.  Returns (K, m - first, ell + 1) int64 counts; raises
    ``ValueError`` when the coset at first+1, of q^(ell-first-1) words,
    would overflow them.
    """
    kernels, m, width = cosets.shape
    ell = width - 1
    if q ** (ell - first - 1) >= 1 << 63:
        raise ValueError(f"coset of size {q ** (ell - first - 1)} overflows 64-bit counts")
    dtype = np.int64 if q ** (ell + m) < 1 << 63 else object
    spans = np.zeros((kernels, m + 1, width), dtype=dtype)
    spans[:, 1:] = np.cumsum(cosets.astype(dtype), axis=1) * (q - 1)
    spans[:, :, 0] += 1
    sizes = np.array([q**k for k in range(first, m + 1)], dtype=dtype)[:, None]
    primal = _exact_quotient(spans[:, first:] @ _krawtchouk(q, ell).astype(dtype), sizes)
    return _exact_quotient(primal[:, :-1] - primal[:, 1:], q - 1).astype(np.int64)


def _cosets(field: FieldSpec, rows: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """Coset counts at every position of K kernels' rows: a (K, ell, ell + 1) array.

    The coset at i is rows[:, i-1] + span(rows[:, i:]), and the first k rows
    of ``duals`` span the dual of span(rows[:, k:]).  Positions
    ell//2 + 1..ell are swept directly, over the last ceil(ell/2) rows;
    positions 1..ell//2 come by MacWilliams duality from the sweep over the
    first ell//2 dual rows.  So no span holds more than
    q^(ceil(ell/2) - 1) words.
    """
    half = rows.shape[1] // 2
    direct = _sweep(field, rows[:, half:])
    dual = _sweep(field, duals[:, half - 1 :: -1] if half else duals[:, :0])[:, ::-1]
    return np.concatenate([_macwilliams(field.q, dual, 0), direct], axis=1)


def _coset(field: FieldSpec, rows: np.ndarray, duals: np.ndarray, i: int) -> WeightEnumerator:
    """The coset at position i of one kernel's rows (as ``_cosets``), from the cheaper side.

    Swept directly it takes q^(ell - i) words; by duality, from the dual
    cosets at 1..i, q^(i - 1).
    """
    ell = rows.shape[1]
    if i - 1 < ell - i:
        counts = _macwilliams(field.q, _sweep(field, duals[None, i - 1 :: -1])[:, ::-1], i - 1)
    else:
        counts = _sweep(field, rows[None, i - 1 :])
    return WeightEnumerator(ell=ell, counts=counts[0, 0])


def _check_position(kernel: Kernel, i: int) -> None:
    if not 1 <= i <= kernel.ell:
        raise ValueError(f"position {i} outside 1..{kernel.ell}")


def _batch_size(q: int, ell: int) -> int:
    """How many kernels of size ell ``_primal_counts`` takes at once.

    The batch is sized so that no step of its sweeps holds more than
    ``_BLOCK_WORDS`` words (one kernel at a time once a span alone fills a
    block).  Raises ``ValueError`` when a span exceeds ``ENUM_GUARD``.
    """
    return max(1, _BLOCK_WORDS // _guard(q, ell - ell // 2))


def _primal_counts(kernels: list[Kernel]) -> np.ndarray:
    """Primal coset counts at every position of each kernel, (K, ell, ell + 1), one batch."""
    return _cosets(
        kernels[0].field,
        np.array([kern.entries for kern in kernels]),
        np.array([kern.inv_transpose for kern in kernels]),
    )


def _enumerators(counts: np.ndarray) -> list[WeightEnumerator]:
    return [WeightEnumerator(ell=len(row) - 1, counts=row) for row in counts]


def coset_enumerators(kernel: Kernel) -> list[WeightEnumerator]:
    """Primal enumerators of every position, in order 1..ell: a batch of one kernel."""
    return _enumerators(_primal_counts([kernel])[0])


def dual_coset_enumerators(kernel: Kernel) -> list[WeightEnumerator]:
    """Dual enumerators of every position, in order 1..ell.

    The dual coset at i is the coset at ell+1-i of the inverse-transpose's
    rows in reverse order, whose dual rows are the kernel's in reverse order.
    """
    rows, duals = kernel.inv_transpose[None, ::-1], kernel.entries[None, ::-1]
    return _enumerators(_cosets(kernel.field, rows, duals)[0, ::-1])


def coset_enumerator(kernel: Kernel, i: int) -> WeightEnumerator:
    """Primal enumerator: words (0^(i-1), 1, free suffix) @ G."""
    _check_position(kernel, i)
    return _coset(kernel.field, kernel.entries, kernel.inv_transpose, i)


def dual_coset_enumerator(kernel: Kernel, i: int) -> WeightEnumerator:
    """Dual enumerator: words (free prefix, 1, 0^(ell-i)) @ G^-T."""
    _check_position(kernel, i)
    rows, duals = kernel.inv_transpose[::-1], kernel.entries[::-1]
    return _coset(kernel.field, rows, duals, kernel.ell + 1 - i)


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
