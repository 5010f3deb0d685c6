"""Weight enumerators and the synthesized-parameter bounds."""

import math
import tracemalloc

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
    field = field_make(2)
    kern = sample_invertible(field, 8, np.random.default_rng(1))
    monkeypatch.setattr(ftpc, "ENUM_GUARD", 8)
    with pytest.raises(ValueError, match="guard"):
        coset_enumerator(kern, 1)
    with pytest.raises(ValueError):
        coset_enumerator(kern, 9)


@pytest.mark.parametrize("pm, ell", [((2, 1), 8), ((3, 1), 5), ((2, 2), 4)])
def test_sweeps_share_the_guard_of_the_largest_coset(monkeypatch, pm, ell):
    # the sweeps hold the cosets at primal 1 and dual ell, q^(ell-1) words each
    kern = sample_invertible(field_make(*pm), ell, np.random.default_rng(1))
    size = kern.field.q ** (ell - 1)
    monkeypatch.setattr(ftpc, "ENUM_GUARD", size - 1)
    message = f"coset of size {size} exceeds enumeration guard {size - 1}"
    for call in (lambda: coset_enumerator(kern, 1), lambda: dual_coset_enumerator(kern, ell),
                 lambda: coset_enumerators(kern), lambda: dual_coset_enumerators(kern)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    coset_enumerator(kern, 2)  # q^(ell-2) words stay within the guard
    monkeypatch.setattr(ftpc, "ENUM_GUARD", size)
    assert coset_enumerators(kern)[0].total == dual_coset_enumerators(kern)[-1].total == size


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
    # GF(2) fills a 2^16-word block with 16 rows, so the cosets of the first
    # ell - 17 primal positions and the last ell - 17 dual ones are added to
    # the block in batches of offsets
    kern = sample_invertible(field_make(2), ell, np.random.default_rng(ell))
    _assert_sweeps_match_reference(kern)


@pytest.mark.parametrize("i", [1, 2])
def test_multi_block_enumeration_matches_the_reference(i):
    # the primal coset at 1 and the dual at 18 have 2^17 words (two offsets
    # added to one 2^16-word block); at 2 and 17 they fill one block exactly
    kern = sample_invertible(field_make(2), 18, np.random.default_rng(18))
    _assert_matches_reference(kern, i)
    _assert_matches_reference(kern, 19 - i)


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


def test_enumeration_memory_stays_blocked():
    # 2^19 words of 20 int64 entries would take about 80 MB at once
    kern = sample_invertible(field_make(2), 20, np.random.default_rng(20))
    tracemalloc.start()
    try:
        enum = coset_enumerator(kern, 1)
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
    # the sweep engine over the same rows, every position weighed
    tail = ftpc._sweep(field, kern.entries[ell - 3 :])
    head = ftpc._sweep(field, kern.inv_transpose[2::-1])[::-1]
    for k in range(3):
        np.testing.assert_array_equal(tail[k].counts, coset_enumerator(kern, ell - 2 + k).counts)
        np.testing.assert_array_equal(head[k].counts, dual_coset_enumerator(kern, k + 1).counts)


def test_packed_enumeration_memory():
    # packed, 2^19 words of 20 GF(2) symbols take 4 MB; blocked, far less
    kern = sample_invertible(field_make(2), 20, np.random.default_rng(20))
    tracemalloc.start()
    try:
        enum = coset_enumerator(kern, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.total == 2**19
    assert peak < 8e6


def test_certify_ldp_memory_both_sides():
    # both sweeps of a GF(2) 20x20 kernel hold one 2^16-word block (512 kB)
    # and one batch of as many words at a time
    kern = sample_invertible(field_make(2), 20, np.random.default_rng(20))
    certify_ldp(kern, 0.3, 0.3)
    tracemalloc.start()
    try:
        certify_ldp(kern, 0.3, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


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
