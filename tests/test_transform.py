"""Single-step synthesis: closed forms, conservation, quotient oracle, MC."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolar import codec
from qpolar import transform as transform_module
from qpolar.channel import (
    bec,
    capacity_input,
    derived_distributions,
    flatten,
    make_channel,
    merge_outputs,
    random_channel,
    sample_outputs,
    zchannel,
)
from qpolar.gf import arikan_kernel, field_make, field_matmul, sample_invertible
from qpolar.kernsearch import FixedKernel
from qpolar.params import param_vector
from qpolar.transform import quantize_merge, transform, transform_all

F2 = field_make(2)
ARIKAN = arikan_kernel(F2)


def _H(W):
    return param_vector(W).H


# ------------------------------------------------------------ closed forms

def test_bec_single_step_frozen():
    W = bec(0.5)
    assert _H(transform(W, ARIKAN, 1)) == pytest.approx(0.75, abs=1e-12)
    assert _H(transform(W, ARIKAN, 2)) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 0.9])
def test_erasure_recursion(eps):
    W = bec(eps)
    assert _H(transform(W, ARIKAN, 1)) == pytest.approx(2 * eps - eps**2, abs=1e-12)
    assert _H(transform(W, ARIKAN, 2)) == pytest.approx(eps**2, abs=1e-12)


def test_erasure_depth3_leaf_entropies_frozen():
    # all 8 depth-3 entropies, lexicographic path order
    expected = [
        0.99609375, 0.87890625, 0.80859375, 0.31640625,
        0.68359375, 0.19140625, 0.12109375, 0.00390625,
    ]
    got = []
    for k1 in (1, 2):
        level1 = transform(bec(0.5), ARIKAN, k1)
        for k2 in (1, 2):
            level2 = transform(level1, ARIKAN, k2)
            for k3 in (1, 2):
                leaf = transform(level2, ARIKAN, k3)
                got.append(_H(leaf))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_erasure_channels_stay_tiny_after_merge():
    # losslessly merged synthesized erasure channels keep erasure structure
    child = transform(transform(bec(0.5), ARIKAN, 1), ARIKAN, 2)
    assert child.output_size <= 3


# ------------------------------------------------------------ conservation

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_entropy_conservation_random(seed):
    rng = np.random.default_rng(seed)
    p, m = [(2, 1), (3, 1), (2, 2)][int(rng.integers(0, 3))]
    field = field_make(p, m)
    ell = int(rng.integers(2, 4))
    W = random_channel(field, int(rng.integers(2, 4)), rng, random_input=bool(rng.integers(0, 2)))
    kern = sample_invertible(field, ell, rng)
    parts = transform_all(W, kern)
    total = sum(_H(child) for child in parts)
    assert total == pytest.approx(ell * param_vector(W).H, abs=1e-9)


def test_synth_input_marginal():
    # U = X G^{-1}; for the classic kernel U1 = X1 + X2, U2 = X2
    W = zchannel(0.3).with_input([0.3, 0.7])
    s1 = transform(W, ARIKAN, 1)
    s2 = transform(W, ARIKAN, 2)
    np.testing.assert_allclose(s1.input_dist, [0.58, 0.42], atol=1e-12)
    np.testing.assert_allclose(s2.input_dist, [0.3, 0.7], atol=1e-12)


# --------------------------------------------------------- quotient oracle

def _quotient_oracle(field, input_dist, kern, i):
    """Direct evaluation of the defining ratio for a pure-noise base."""
    q, ell = field.q, kern.ell
    count = q**ell
    idx = np.arange(count)
    shifts = q ** np.arange(ell - 1, -1, -1)
    U = (idx[:, None] // shifts[None, :]) % q
    X = field_matmul(kern.field, U, kern.entries)
    w = np.prod(np.asarray(input_dist)[X], axis=1)
    prefix_size = q ** (i - 1)
    A = np.zeros((q, prefix_size))
    pshift = q ** np.arange(i - 2, -1, -1) if i > 1 else None
    for k in range(count):
        pu = int(U[k, : i - 1] @ pshift) if i > 1 else 0
        A[U[k, i - 1], pu] += w[k]
    mass = A.sum(axis=1)
    return A / np.where(mass > 0, mass, 1.0)[:, None], mass


@pytest.mark.parametrize("pm,ell", [((2, 1), 2), ((3, 1), 3), ((2, 2), 2)])
def test_flattened_transform_matches_quotient(pm, ell):
    field = field_make(*pm)
    rng = np.random.default_rng(101)
    for _ in range(5):
        dist = rng.dirichlet(np.ones(field.q))
        W = flatten(make_channel(field, np.ones((field.q, 1)), dist))
        kern = sample_invertible(field, ell, rng)
        for i in range(1, ell + 1):
            child = transform(W, kern, i, merge=False)
            rows, mass = _quotient_oracle(field, dist, kern, i)
            np.testing.assert_allclose(child.transition, rows, atol=1e-12)
            np.testing.assert_allclose(child.input_dist, mass, atol=1e-12)


def test_lossless_merge_preserves_all_params():
    rng = np.random.default_rng(55)
    field = field_make(3)
    W = random_channel(field, 3, rng)
    kern = sample_invertible(field, 2, rng)
    for i in (1, 2):
        raw = transform(W, kern, i, merge=False)
        merged = transform(W, kern, i)
        a, b = param_vector(raw), param_vector(merged)
        for name in ("H", "I", "Pe", "Z", "Zmad", "T", "S", "Smax"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-9)


# ----------------------------------------------------- word-loop oracle

def _loop_transform(W, kernel, i, merge):
    """Reference: the word-by-word synthesis ``transform`` must reproduce bitwise.

    Each source word u in digit order maps to x = u G; its joint is the
    outer product of the ell channel rows of x, added into the block of
    its prefix and symbol u_i.
    """
    ell = kernel.ell
    q, M = W.q, W.output_size
    joint = derived_distributions(W).joint
    U = np.array(list(itertools.product(range(q), repeat=ell)), dtype=np.int64)
    X = field_matmul(W.field, U, kernel.entries)
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
    out = make_channel(W.field, rows, mass)
    return merge_outputs(out, tol=1e-12) if merge else out


_SYNTH_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@st.composite
def synthesis_cases(draw):
    """A channel, kernel and position small enough for the word loop.

    Rows are flat-Dirichlet with some entries zeroed, some columns are
    repeats of others (so the merge has ties), and the input law has zero-mass
    symbols with probability one half.
    """
    field = field_make(*draw(st.sampled_from(_SYNTH_FIELDS)))
    q = field.q
    ell = draw(st.integers(1, 4).filter(lambda e: q**e <= 6561))
    M = draw(st.integers(1, 6).filter(lambda m: (q * m) ** ell <= 300_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, M))
    keep = rng.random((q, distinct)) < 0.8
    keep[:, 0] = True
    T = rng.dirichlet(np.ones(distinct), size=q) * keep
    cols = np.append(np.arange(distinct), rng.integers(0, distinct, M - distinct))
    T = T[:, rng.permutation(cols)]
    T /= T.sum(axis=1, keepdims=True)
    dist = rng.dirichlet(np.ones(q))
    if draw(st.booleans()):
        dist[rng.random(q) < 0.5] = 0.0
        dist[int(rng.integers(q))] += 1.0 - dist.sum()
    kern = sample_invertible(field, ell, rng)
    i = draw(st.integers(1, ell))
    return make_channel(field, T, dist / dist.sum()), kern, i


@given(synthesis_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_transform_matches_word_loop_bitwise(case, merge):
    W, kern, i = case
    got = transform(W, kern, i, merge=merge)
    want = _loop_transform(W, kern, i, merge)
    assert got.transition.tobytes() == want.transition.tobytes()
    assert got.input_dist.tobytes() == want.input_dist.tobytes()


# ------------------------------------------------------------ bookkeeping

def _largest_construct_parent():
    """The parent of the biggest synthesis of construct on Z(0.3) at n=5."""
    W = zchannel(0.3)
    W = W.with_input(capacity_input(W))
    for k in (1, 2, 1, 2):
        W = transform(W, ARIKAN, k)
    return W


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_largest_construct_node_stays_under_its_memory_bound():
    # 288,800 raw outputs merged to 22,801: the raw law, then one posterior
    # buffer, the sort order, two N buffers and the run heads of the merge
    W = _largest_construct_parent()
    child, peak = _traced_peak(lambda: transform(W, ARIKAN, 2))
    assert (W.output_size, child.output_size) == (380, 22801)
    assert peak < 22e6


def test_param_vector_of_the_largest_raw_synthesis_stays_under_its_memory_bound():
    # the law it keeps (joint, posterior, output), then one scratch buffer,
    # sqrt(joint) and one N buffer; S's complex product sets the peak
    raw = transform(_largest_construct_parent(), ARIKAN, 2, merge=False)
    _, peak = _traced_peak(lambda: param_vector(raw))
    assert raw.output_size == 288_800
    assert peak < 32e6


def test_quantize_merge_of_the_largest_raw_synthesis_stays_under_its_memory_bound():
    # the lossless merge's buffers: one posterior buffer, binned and sorted
    # in place, the sort order, two N buffers and the run heads
    raw = transform(_largest_construct_parent(), ARIKAN, 2, merge=False)
    merged, peak = _traced_peak(lambda: quantize_merge(raw, 2048))
    assert (raw.output_size, merged.output_size) == (288_800, 2049)
    assert peak < 16e6


def test_the_law_is_kept_on_merged_channels_and_not_on_raw_syntheses(monkeypatch):
    import qpolar.channel as channel_module

    built, raws = [], []
    real_law, real_merge = channel_module.derived_distributions, transform_module.merge_outputs
    monkeypatch.setattr(
        channel_module, "derived_distributions", lambda W: built.append(W) or real_law(W)
    )
    monkeypatch.setattr(
        transform_module, "merge_outputs", lambda W, tol: raws.append(W) or real_merge(W, tol=tol)
    )
    W = zchannel(0.3)
    child = transform(W, ARIKAN, 2)
    param_vector(child)
    transform(child, ARIKAN, 1)  # reads the law param_vector kept
    # Z's raw position-2 synthesis (2 * 2^2 outputs) and the child's raw position 1
    assert [V.output_size for V in raws] == [8, child.output_size**2]
    assert not any(V is R for V in built for R in raws)
    assert not any("derived" in vars(R) for R in raws)
    assert "derived" in vars(W) and "derived" in vars(child)
    assert child.derived is child.derived


def test_a_kernel_over_another_field_is_refused():
    F3 = field_make(3)
    W = random_channel(F3, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"kernel is over GF\(2\) but the channel over GF\(3\)"):
        transform(W, ARIKAN, 2)
    with pytest.raises(ValueError, match=r"kernel is over GF\(3\) but the channel over GF\(2\)"):
        transform(bec(0.5), arikan_kernel(F3), 1, merge=False)


def test_guard_raises(monkeypatch):
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 10)
    with pytest.raises(ValueError, match="guard"):
        transform(bec(0.5), ARIKAN, 2)
    with pytest.raises(ValueError):
        transform(bec(0.5), ARIKAN, 3)


# ------------------------------------------------------------------- MC

def _estimate_entropy_mc(W, kernel, i, samples, rng):
    """Monte Carlo estimate of the synthesized conditional entropy (base q).

    The independent cross-check of ``transform``: it draws source blocks
    and channel outputs from the true law, computes the exact posterior of
    the i-th source symbol given (previous symbols, output block) by summing
    the q^(ell-i+1) completions, and averages the log-loss of the true
    symbol.  Returns estimate, standard error and sample count.
    """
    ell = kernel.ell
    q, M = W.q, W.output_size
    field = W.field
    joint = derived_distributions(W).joint
    in_cdf = np.cumsum(W.input_dist)
    # candidate (u_i, suffix) blocks, first digit most significant
    cands = np.array(list(itertools.product(range(q), repeat=ell - i + 1)), dtype=np.int64)
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
        us = field_matmul(field, xs, kernel.inv_transpose.T)
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


def test_estimate_entropy_mc_bec():
    est = _estimate_entropy_mc(bec(0.5), ARIKAN, 1, 4000, np.random.default_rng(9))
    assert est["samples"] == 4000
    assert 0.001 < est["stderr"] < 0.02
    assert abs(est["estimate"] - 0.75) <= 4 * est["stderr"]
    est2 = _estimate_entropy_mc(bec(0.5), ARIKAN, 2, 4000, np.random.default_rng(10))
    assert abs(est2["estimate"] - 0.25) <= 4 * est2["stderr"]


def test_estimate_entropy_mc_matches_exact_on_asymmetric_channel():
    W = zchannel(0.4)
    kern = ARIKAN
    exact = _H(transform(W, kern, 1))
    est = _estimate_entropy_mc(W, kern, 1, 20000, np.random.default_rng(4))
    assert abs(est["estimate"] - exact) <= 4 * est["stderr"]


def test_estimate_entropy_mc_deterministic():
    a = _estimate_entropy_mc(bec(0.3), ARIKAN, 2, 500, np.random.default_rng(1))
    b = _estimate_entropy_mc(bec(0.3), ARIKAN, 2, 500, np.random.default_rng(1))
    assert a == b


# ------------------------------------------------------------ quantization

def test_quantize_merge_degrades_monotonically():
    rng = np.random.default_rng(71)
    W = random_channel(field_make(2), 30, rng)
    h0 = param_vector(W).H
    prev = h0
    for res in (256, 16, 4, 1):
        V = quantize_merge(W, res)
        h = param_vector(V).H
        assert h >= h0 - 1e-12
        assert V.output_size <= W.output_size
        prev = h
    assert quantize_merge(W, 1).output_size == 1


def test_quantize_merge_validates_and_is_deterministic():
    W = random_channel(field_make(3), 9, np.random.default_rng(2))
    with pytest.raises(ValueError):
        quantize_merge(W, 0)
    # past 2^53 a float bin no longer holds every integer
    with pytest.raises(ValueError, match=r"at most 2\^53"):
        quantize_merge(W, 2**53 + 1)
    assert quantize_merge(W, 2**53).output_size == W.output_size
    A = quantize_merge(W, 8)
    B = quantize_merge(W, 8)
    np.testing.assert_array_equal(A.transition, B.transition)


def _scan_quantize_merge(W, resolution):
    """Reference: the column-by-column scan ``quantize_merge`` must reproduce."""
    d = derived_distributions(W)
    bins = np.minimum((d.posterior * resolution).astype(np.int64), resolution - 1)
    order = np.lexsort(bins[::-1, :])
    groups = []
    prev = None
    for col in order:
        key = bins[:, col]
        if prev is not None and np.array_equal(key, prev):
            groups[-1].append(int(col))
        else:
            groups.append([int(col)])
            prev = key
    if len(groups) == W.output_size:
        return W
    new_trans = np.empty((W.q, len(groups)))
    for j, cols in enumerate(groups):
        new_trans[:, j] = W.transition[:, cols].sum(axis=1)
    return make_channel(W.field, new_trans, W.input_dist)


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.integers(1, 12),
    st.integers(0, 8),
    st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_quantize_merge_matches_reference_scan_bitwise(pm, seed, resolution, m0, splits, dead):
    rng = np.random.default_rng(seed)
    field = field_make(*pm)
    T = rng.dirichlet(np.ones(m0), size=field.q)
    for _ in range(splits):  # split one column in two parts: equal posteriors
        c = int(rng.integers(T.shape[1]))
        f = rng.random()
        T = np.hstack([T, f * T[:, [c]]])
        T[:, c] *= 1.0 - f
    T = np.hstack([T, np.zeros((field.q, dead))])
    T = T[:, rng.permutation(T.shape[1])]
    W = make_channel(field, T, rng.dirichlet(np.ones(field.q)))
    got, want = quantize_merge(W, resolution), _scan_quantize_merge(W, resolution)
    assert got.output_size == want.output_size
    assert np.array_equal(got.transition, want.transition)


def test_quantized_construct_is_unchanged_under_the_reference_merge(monkeypatch):
    W = zchannel(0.3)
    W = W.with_input(capacity_input(W))
    # guard 200 forces quantization of every node past 10 outputs
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 200)

    def build():
        spec = codec.construct(W, 2, 4, 0.2, FixedKernel(ARIKAN), seed=7)
        assert not all(s.exact for s in spec.leaf_stats.values())
        return codec.codespec_to_dict(spec)

    fast = build()
    # construct quantizes through transform.quantize_to_fit
    monkeypatch.setattr(transform_module, "quantize_merge", _scan_quantize_merge)
    assert build() == fast
