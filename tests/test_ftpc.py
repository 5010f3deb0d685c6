"""Weight enumerators and the synthesized-parameter bounds."""

import importlib.util
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolar import ftpc
from qpolar.channel import bec, random_channel
from qpolar.ftpc import (
    WeightEnumerator,
    coset_enumerator,
    coset_enumerators,
    dual_coset_enumerator,
    dual_coset_enumerators,
    verify_ftpcs,
    verify_ftpcz,
)
from qpolar.gf import arikan_kernel, field_make, field_matmul, mat_invert, sample_invertible
from qpolar.kernsearch import certify_ldp

ARIKAN = arikan_kernel(field_make(2))


def _coset_weights_reference(matrix, kernel, i, free_tail):
    """The enumerator as it was before the nested build: one field_matmul per chunk."""
    field = kernel.field
    q, ell = field.q, kernel.ell
    free = ell - i if free_tail else i - 1
    count = q**free
    counts = np.zeros(ell + 1, dtype=np.int64)
    shifts = q ** np.arange(free - 1, -1, -1, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        digits = (
            (idx[:, None] // shifts[None, :]) % q if free else np.zeros((idx.size, 0), dtype=np.int64)
        )
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


def _assert_matches_reference(kern, i):
    np.testing.assert_array_equal(
        coset_enumerator(kern, i).counts,
        _coset_weights_reference(kern.entries, kern, i, free_tail=True).counts,
    )
    np.testing.assert_array_equal(
        dual_coset_enumerator(kern, i).counts,
        _coset_weights_reference(kern.inv_transpose, kern, i, free_tail=False).counts,
    )


def _assert_sweeps_match_reference(kern):
    prims, duals = coset_enumerators(kern), dual_coset_enumerators(kern)
    assert len(prims) == len(duals) == kern.ell
    for i in range(1, kern.ell + 1):
        np.testing.assert_array_equal(
            prims[i - 1].counts,
            _coset_weights_reference(kern.entries, kern, i, free_tail=True).counts,
        )
        np.testing.assert_array_equal(
            duals[i - 1].counts,
            _coset_weights_reference(kern.inv_transpose, kern, i, free_tail=False).counts,
        )


def _reversed_dual_kernel(kernel):
    """Row-and-column reversed inverse-transpose, as a kernel of its own.

    Satisfies: dual enumerator of G at i == primal enumerator of this kernel
    at position ell+1-i.
    """
    flipped = np.ascontiguousarray(kernel.inv_transpose[::-1, ::-1])
    return mat_invert(kernel.field, flipped)


# -------------------------------------------------------------- enumerators

def test_arikan_enumerators_frozen():
    np.testing.assert_array_equal(coset_enumerator(ARIKAN, 1).counts, [0, 2, 0])
    np.testing.assert_array_equal(coset_enumerator(ARIKAN, 2).counts, [0, 0, 1])
    np.testing.assert_array_equal(dual_coset_enumerator(ARIKAN, 1).counts, [0, 0, 1])
    np.testing.assert_array_equal(dual_coset_enumerator(ARIKAN, 2).counts, [0, 2, 0])


def test_arikan_polynomials():
    # primal: 2z and z^2; dual: s^2 and 2s
    assert coset_enumerator(ARIKAN, 1).evaluate(0.3) == pytest.approx(0.6)
    assert coset_enumerator(ARIKAN, 2).evaluate(0.3) == pytest.approx(0.09)
    assert dual_coset_enumerator(ARIKAN, 1).evaluate(0.5) == pytest.approx(0.25)
    assert dual_coset_enumerator(ARIKAN, 2).evaluate(0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("q,ell", [(2, 5), (3, 4)])
def test_identity_kernel_enumerator_closed_form(q, ell):
    field = field_make(q)
    kern = mat_invert(field, np.eye(ell, dtype=int))
    for i in range(1, ell + 1):
        counts = coset_enumerator(kern, i).counts
        # one forced coordinate plus a free tail: z * (1 + (q-1) z)^(ell-i)
        for w in range(ell + 1):
            expect = math.comb(ell - i, w - 1) * (q - 1) ** (w - 1) if w >= 1 else 0
            assert counts[w] == expect


def test_enumerator_bookkeeping():
    field = field_make(3)
    kern = sample_invertible(field, 4, np.random.default_rng(0))
    for i in range(1, 5):
        prim = coset_enumerator(kern, i)
        dual = dual_coset_enumerator(kern, i)
        assert prim.counts[0] == 0 and dual.counts[0] == 0
        assert prim.total == 3 ** (4 - i)
        assert dual.total == 3 ** (i - 1)
        assert prim.evaluate(1.0) == pytest.approx(prim.total)
        assert prim.evaluate(0.0) == 0.0
        assert prim.min_weight >= 1


def test_enumeration_guard(monkeypatch):
    # position 5 of a GF(2) 8x8 kernel is swept directly, over 2^3 words
    field = field_make(2)
    kern = sample_invertible(field, 8, np.random.default_rng(1))
    monkeypatch.setattr(ftpc, "ENUM_GUARD", 7)
    with pytest.raises(ValueError, match="guard"):
        coset_enumerator(kern, 5)
    with pytest.raises(ValueError):
        coset_enumerator(kern, 9)


@pytest.mark.parametrize("pm, ell", [((2, 1), 8), ((3, 1), 5), ((2, 2), 4)])
def test_sweeps_share_the_guard_of_the_largest_coset(monkeypatch, pm, ell):
    # the largest span any call enumerates is the directly swept coset at
    # primal ell//2 + 1 and dual ceil(ell/2), q^(ceil(ell/2) - 1) words each;
    # the positions before them come by duality from smaller spans
    kern = sample_invertible(field_make(*pm), ell, np.random.default_rng(1))
    prim, dual = ell // 2 + 1, ell + 1 - (ell // 2 + 1)
    size = kern.field.q ** (ell - prim)
    monkeypatch.setattr(ftpc, "ENUM_GUARD", size - 1)
    message = f"coset of size {size} exceeds enumeration guard {size - 1}"
    for call in (lambda: coset_enumerator(kern, prim), lambda: dual_coset_enumerator(kern, dual),
                 lambda: coset_enumerators(kern), lambda: dual_coset_enumerators(kern)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    # the largest cosets, q^(ell-1) words, come by duality from one word
    whole = kern.field.q ** (ell - 1)
    assert coset_enumerator(kern, 1).total == dual_coset_enumerator(kern, ell).total == whole
    monkeypatch.setattr(ftpc, "ENUM_GUARD", size)
    assert coset_enumerator(kern, prim).total == dual_coset_enumerator(kern, dual).total == size
    assert coset_enumerators(kern)[prim - 1].total == dual_coset_enumerators(kern)[dual - 1].total


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_dual_primal_reciprocity(seed):
    rng = np.random.default_rng(seed)
    p, m = [(2, 1), (3, 1), (2, 2)][int(rng.integers(0, 3))]
    field = field_make(p, m)
    ell = int(rng.integers(2, 5))
    kern = sample_invertible(field, ell, rng)
    mirror = _reversed_dual_kernel(kern)
    for i in range(1, ell + 1):
        np.testing.assert_array_equal(
            dual_coset_enumerator(kern, i).counts,
            coset_enumerator(mirror, ell + 1 - i).counts,
        )


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@given(st.sampled_from(FIELDS), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_enumerators_match_the_reference(pm, ell, seed):
    # GF(2, 3, 4, 5, 7, 8, 9), every position, primal and dual: equal counts
    kern = sample_invertible(field_make(*pm), ell, np.random.default_rng(seed))
    for i in range(1, ell + 1):
        _assert_matches_reference(kern, i)


# largest ell per field at which the reference enumerates every position
# quickly: its biggest coset, q^(ell-1) words, stays near 2^16 to 2^18
SWEEP_FIELDS = {(2, 1): 10, (3, 1): 10, (2, 2): 10, (5, 1): 8, (3, 2): 6}


@given(st.sampled_from(sorted(SWEEP_FIELDS)), st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sweeps_match_the_reference_at_every_position(pm, ell, seed):
    # GF(2, 3, 4, 5, 9): both sweeps against the full-coset reference
    ell = min(ell, SWEEP_FIELDS[pm])
    kern = sample_invertible(field_make(*pm), ell, np.random.default_rng(seed))
    _assert_sweeps_match_reference(kern)


@pytest.mark.parametrize("ell", [18, 20])
def test_multi_block_sweeps_match_the_reference(ell):
    # GF(2) fills a 2^16-word block with 16 rows, so a direct sweep over 18
    # rows adds its first two cosets (2^17 and 2^16 words) to the block in
    # batches of offsets: primal positions ell-17..ell, dual positions 1..18;
    # the enumerators, which sweep at most ceil(ell/2) rows, must agree
    field = field_make(2)
    kern = sample_invertible(field, ell, np.random.default_rng(ell))
    prims, duals = coset_enumerators(kern), dual_coset_enumerators(kern)
    tail = ftpc._sweep(field, kern.entries[None, ell - 18 :])[0]
    head = ftpc._sweep(field, kern.inv_transpose[None, 17::-1])[0, ::-1]
    for k in range(18):
        i = ell - 17 + k
        want = _coset_weights_reference(kern.entries, kern, i, free_tail=True).counts
        np.testing.assert_array_equal(tail[k], want)
        np.testing.assert_array_equal(prims[i - 1].counts, want)
        want = _coset_weights_reference(kern.inv_transpose, kern, k + 1, free_tail=False).counts
        np.testing.assert_array_equal(head[k], want)
        np.testing.assert_array_equal(duals[k].counts, want)


@pytest.mark.parametrize("i", [1, 2])
def test_multi_block_enumeration_matches_the_reference(i):
    # swept directly, the primal coset at i and the dual at 19 - i have
    # 2^(18-i) words: two offsets added to one 2^16-word block at i = 1, one
    # block exactly at i = 2; the single-position calls take them by duality
    field = field_make(2)
    kern = sample_invertible(field, 18, np.random.default_rng(18))
    _assert_matches_reference(kern, i)
    _assert_matches_reference(kern, 19 - i)
    np.testing.assert_array_equal(
        ftpc._sweep(field, kern.entries[None, i - 1 :])[0, 0],
        _coset_weights_reference(kern.entries, kern, i, free_tail=True).counts,
    )
    np.testing.assert_array_equal(
        ftpc._sweep(field, kern.inv_transpose[None, 18 - i :: -1])[0, 0],
        _coset_weights_reference(kern.inv_transpose, kern, 19 - i, free_tail=False).counts,
    )


@pytest.mark.parametrize("pm, ell", [((2, 1), 6), ((3, 1), 5), ((2, 2), 5), ((3, 2), 4),
                                     ((2, 1), 20)])
def test_single_positions_equal_the_full_sweeps(pm, ell):
    # a single position is entry 0 of the sweep over rows i..ell (i..1 on the
    # dual side); the whole kernel's sweep must give the same histogram
    kern = sample_invertible(field_make(*pm), ell, np.random.default_rng(ell))
    prims, duals = coset_enumerators(kern), dual_coset_enumerators(kern)
    for i in range(1, ell + 1):
        assert coset_enumerator(kern, i).counts.tolist() == prims[i - 1].counts.tolist()
        assert dual_coset_enumerator(kern, i).counts.tolist() == duals[i - 1].counts.tolist()


@pytest.mark.parametrize("pm, ell", [((2, 1), 24), ((2, 2), 12), ((2, 1), 44)])
def test_duality_equals_the_direct_sweep(pm, ell):
    # positions 1..ell//2 come by MacWilliams duality; each must equal the
    # nested sweep over rows i..ell (i..1 on the dual side), wherever that
    # takes at most 2^23 words: every position at GF(2) 24 and GF(4) 12, and
    # at GF(2) 44, whose sums exceed int64 and run in Python integers,
    # positions 21..44 and dual 1..24
    field = field_make(*pm)
    q = field.q
    kern = sample_invertible(field, ell, np.random.default_rng(ell))
    prims, duals = coset_enumerators(kern), dual_coset_enumerators(kern)
    for i in range(1, ell + 1):
        if q ** (ell - i) <= 1 << 23:
            direct = ftpc._sweep(field, kern.entries[None, i - 1 :])[0, 0]
            np.testing.assert_array_equal(prims[i - 1].counts, direct)
            np.testing.assert_array_equal(coset_enumerator(kern, i).counts, direct)
        if q ** (i - 1) <= 1 << 23:
            direct = ftpc._sweep(field, kern.inv_transpose[None, i - 1 :: -1])[0, 0]
            np.testing.assert_array_equal(duals[i - 1].counts, direct)
            np.testing.assert_array_equal(dual_coset_enumerator(kern, i).counts, direct)


def test_macwilliams_refuses_an_inexact_division():
    # a dual coset of two words is no coset: 2 A(S_2) = (3, 5, 1, -1)
    with pytest.raises(RuntimeError, match="left a remainder"):
        ftpc._macwilliams(2, np.array([[[0, 2, 0, 0]]]), 0)


def test_single_positions_refuse_counts_past_int64():
    # at GF(2) 70x70 the coset at 7 has 2^63 words, too many for int64
    # counts, and the one at 8 has 2^62; both come by duality from 2^7 words
    field = field_make(2)
    kern = sample_invertible(field, 70, np.random.default_rng(70))
    with pytest.raises(ValueError, match=f"coset of size {2**63} overflows 64-bit counts"):
        coset_enumerator(kern, 7)
    with pytest.raises(ValueError, match=f"coset of size {2**63} overflows 64-bit counts"):
        dual_coset_enumerator(kern, 64)
    assert coset_enumerator(kern, 8).total == dual_coset_enumerator(kern, 63).total == 2**62


def test_digest_kernel_past_the_old_guard():
    # the digest's {gf2_40} kernel: its position-1 coset has 2^39 words and
    # its spans reach 2^19 words, several blocks; every position of both
    # sides must hold the whole coset and no zero word
    path = Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    doc = digest.lu_kernel(2, 40, 4040)
    kern = mat_invert(field_make(doc["p"], doc["m"]), doc["matrix"])
    prims, duals = coset_enumerators(kern), dual_coset_enumerators(kern)
    for i in range(1, 41):
        assert prims[i - 1].counts[0] == 0 and prims[i - 1].total == 2 ** (40 - i)
        assert duals[i - 1].counts[0] == 0 and duals[i - 1].total == 2 ** (i - 1)


@pytest.mark.parametrize("pm, ell", [((2, 1), 9), ((3, 1), 6), ((2, 2), 5)])
def test_batched_blocks_keep_each_kernel_apart(monkeypatch, pm, ell):
    # three kernels in one sweep with 16-word blocks: the levels freeze into
    # a (words, kernel) block, and each kernel's offsets go to its own words
    field = field_make(*pm)
    kerns = [sample_invertible(field, ell, np.random.default_rng(seed)) for seed in range(3)]
    want = [
        [_coset_weights_reference(k.entries, k, i, True).counts for i in range(1, ell + 1)]
        for k in kerns
    ]
    monkeypatch.setattr(ftpc, "_BLOCK_WORDS", 16)
    np.testing.assert_array_equal(ftpc._sweep(field, np.stack([k.entries for k in kerns])), want)


def test_enumeration_memory_stays_blocked():
    # position 21 of a GF(2) 40x40 kernel is swept directly over 2^19 words;
    # 2^19 words of 40 int64 entries would take about 160 MB at once
    kern = sample_invertible(field_make(2), 40, np.random.default_rng(40))
    tracemalloc.start()
    try:
        enum = coset_enumerator(kern, 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.total == 2**19
    assert peak < 40e6


# Packed words: an odd-p symbol takes b = bit_length(p - 1) + 1 bits per digit,
# so GF(127) fills 8 bits, GF(131) 9, and GF(16), GF(27), GF(25) carry several
# digits; p - 1 + p - 1 is the largest digit sum the guard bit has to catch.
@pytest.mark.parametrize("pm", [(127, 1), (131, 1), (251, 1), (2, 4), (3, 3), (5, 2)])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_packed_digit_edges_match_the_reference(pm, ell):
    field = field_make(*pm)
    for seed in range(3):
        kern = sample_invertible(field, ell, np.random.default_rng(seed))
        for i in range(1, ell + 1):
            _assert_matches_reference(kern, i)


@pytest.mark.parametrize("pm,ell", [((2, 1), 70), ((3, 1), 30), ((2, 2), 40), ((131, 1), 8)])
def test_multi_lane_words_match_the_reference(pm, ell):
    # each word spans two uint64 lanes; only the small cosets are enumerated
    field = field_make(*pm)
    kern = sample_invertible(field, ell, np.random.default_rng(ell))
    for i in range(ell - 2, ell + 1):
        np.testing.assert_array_equal(
            coset_enumerator(kern, i).counts,
            _coset_weights_reference(kern.entries, kern, i, free_tail=True).counts,
        )
    for i in range(1, 4):
        np.testing.assert_array_equal(
            dual_coset_enumerator(kern, i).counts,
            _coset_weights_reference(kern.inv_transpose, kern, i, free_tail=False).counts,
        )
    # the sweep engine over the same rows of this kernel and of a second
    # one in the same batch, every position weighed
    other = sample_invertible(field, ell, np.random.default_rng(ell + 1))
    pair = np.stack([kern.entries, other.entries])
    tail = ftpc._sweep(field, pair[:, ell - 3 :])
    head = ftpc._sweep(field, np.stack([kern.inv_transpose, other.inv_transpose])[:, 2::-1])
    for b, k in enumerate((kern, other)):
        for t in range(3):
            np.testing.assert_array_equal(tail[b, t], coset_enumerator(k, ell - 2 + t).counts)
            np.testing.assert_array_equal(head[b, 2 - t], dual_coset_enumerator(k, t + 1).counts)


def test_packed_enumeration_memory():
    # packed, the 2^19 words of 40 GF(2) symbols at position 21 take 4 MB;
    # blocked, far less
    kern = sample_invertible(field_make(2), 40, np.random.default_rng(40))
    tracemalloc.start()
    try:
        enum = coset_enumerator(kern, 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.total == 2**19
    assert peak < 8e6


def test_certify_ldp_memory_both_sides():
    # the four sweeps of a GF(2) 40x40 kernel, over 2^19 words each, hold
    # one 2^16-word block (512 kB) and one batch of as many words at a time
    kern = sample_invertible(field_make(2), 40, np.random.default_rng(40))
    certify_ldp(kern, 0.3, 0.3)
    tracemalloc.start()
    try:
        certify_ldp(kern, 0.3, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_sweeps_reuse_their_scratch():
    # the direct sweep of a GF(4) 16x16 kernel runs over 8 rows, so its
    # levels and weighed words are 2^14-word (128 kB) arrays; after one
    # sweep they are kept, so the next allocates none of them (what it
    # traces is numpy's 8,192-element buffer for casting the bit counts to
    # intp)
    kern = sample_invertible(field_make(2, 2), 16, np.random.default_rng(16))
    want = [e.counts.tolist() for e in coset_enumerators(kern)]
    tracemalloc.start()
    try:
        got = [e.counts.tolist() for e in coset_enumerators(kern)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 100e3


def test_sweeps_in_threads_keep_their_own_scratch():
    # every thread sweeps through its own scratch slots, so concurrent
    # sweeps over one field and size give the one-thread histograms; both
    # sweeps of a GF(3) 18x18 kernel run over 9 rows, whose 3^8-word levels
    # are scratch slots
    field = field_make(3)
    kerns = [sample_invertible(field, 18, np.random.default_rng(seed)) for seed in range(8)]
    want = [[e.counts.tolist() for e in dual_coset_enumerators(k)] for k in kerns]
    got = [None] * len(kerns)

    def work(j):
        for _ in range(40):
            res = [e.counts.tolist() for e in dual_coset_enumerators(kerns[j])]
            if got[j] is None or res != want[j]:
                got[j] = res

    threads = [threading.Thread(target=work, args=(j,)) for j in range(len(kerns))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between a sweep's steps
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == want


# ----------------------------------------------------------------- bounds

def test_overlap_bound_bec_endpoints():
    W = bec(0.5)
    tight = verify_ftpcz(W, ARIKAN, 2)
    assert tight["pass"]
    assert tight["lhs"] == pytest.approx(0.25, abs=1e-9)
    assert tight["rhs"] == pytest.approx(0.25, abs=1e-9)
    slack = verify_ftpcz(W, ARIKAN, 1)
    assert slack["pass"]
    assert slack["lhs"] == pytest.approx(0.75, abs=1e-9)
    assert slack["rhs"] == pytest.approx(1.0, abs=1e-9)


def test_correlation_bound_bec_endpoints():
    W = bec(0.5)
    tight = verify_ftpcs(W, ARIKAN, 1)
    assert tight["pass"]
    assert tight["lhs"] == pytest.approx(0.25, abs=1e-9)
    assert tight["rhs"] == pytest.approx(0.25, abs=1e-9)
    slack = verify_ftpcs(W, ARIKAN, 2)
    assert slack["pass"]
    assert slack["lhs"] == pytest.approx(0.75, abs=1e-9)
    assert slack["rhs"] == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_bounds_hold_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    p, m = [(2, 1), (3, 1), (2, 2)][int(rng.integers(0, 3))]
    field = field_make(p, m)
    ell = int(rng.integers(2, 4))
    W = random_channel(field, int(rng.integers(2, 4)), rng)
    kern = sample_invertible(field, ell, rng)
    i = int(rng.integers(1, ell + 1))
    za = verify_ftpcz(W, kern, i)
    sa = verify_ftpcs(W, kern, i)
    assert za["pass"], za
    assert sa["pass"], sa
