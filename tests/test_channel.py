"""Channel layer: validation, derived laws, capacity, alphabet surgery."""

import functools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolar import channel as channel_mod
from qpolar import transform as transform_mod
from qpolar.channel import (
    Channel,
    bec,
    bsc,
    capacity_input,
    channel_from_dict,
    channel_to_dict,
    derived_distributions,
    flatten,
    make_channel,
    merge_outputs,
    random_channel,
    symmetrize,
    zchannel,
)
from qpolar.codec import codespec_to_dict, construct
from qpolar.gf import arikan_kernel, field_make, sample_invertible
from qpolar.kernsearch import FixedKernel
from qpolar.params import param_vector
from qpolar.transform import transform

from merge_oracle import oracle_merge, oracle_quantize_merge, oracle_runs


# -- tiny independent oracles (deliberately written from the definitions) --

def _cond_entropy(W):
    """H(X|Y) in base-q symbols, straight from the joint."""
    d = derived_distributions(W)
    mask = d.joint > 0
    terms = np.where(mask, d.joint * np.log(np.where(mask, d.posterior, 1.0)), 0.0)
    return float(-terms.sum() / np.log(W.q))


def _mutual_info_nats(trans, dist):
    joint = dist[:, None] * trans
    out = joint.sum(axis=0)
    prod = dist[:, None] * out[None, :]
    mask = joint > 0
    return float(
        np.sum(np.where(mask, joint * np.log(np.where(mask, joint / np.where(mask, prod, 1.0), 1.0)), 0.0))
    )


def _h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * np.log2(x) - (1 - x) * np.log2(1 - x)


# ------------------------------------------------------------- validation

def test_rejects_bad_row_sum_and_names_the_row():
    f2 = field_make(2)
    with pytest.raises(ValueError, match="row 1"):
        make_channel(f2, [[0.5, 0.5], [0.6, 0.6]])


def test_rejects_negative_probability():
    with pytest.raises(ValueError, match="negative"):
        make_channel(field_make(2), [[1.1, -0.1], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["transition", "input_dist"])
def test_rejects_non_finite_entries(where, bad):
    trans = np.array([[0.5, 0.5], [0.5, 0.5]])
    dist = np.array([0.5, 0.5])
    {"transition": trans, "input_dist": dist}[where][0] = bad
    with pytest.raises(ValueError, match=f"{where} has a NaN or infinite entry"):
        make_channel(field_make(2), trans, dist)


def test_rejects_wrong_shapes():
    f2 = field_make(2)
    with pytest.raises(ValueError):
        make_channel(f2, [[1.0], [0.5], [0.5]])
    with pytest.raises(ValueError):
        make_channel(f2, [[1.0], [1.0]], input_dist=[1.0])
    with pytest.raises(ValueError):
        make_channel(f2, [[1.0], [1.0]], input_dist=[0.7, 0.7])


def test_transition_is_read_only():
    W = bec(0.5)
    with pytest.raises(ValueError):
        W.transition[0, 0] = 0.3


def test_fortran_ordered_transition_gives_the_c_ordered_bits():
    # The output law sums each column; on a Fortran-ordered copy numpy would
    # add along the contiguous axis in another order and change the last bits.
    f9 = field_make(3, 2)
    rng = np.random.default_rng(17)
    for _ in range(5):
        W = random_channel(f9, 40, rng, random_input=True)
        V = make_channel(f9, np.asfortranarray(W.transition), W.input_dist)
        assert V.transition.flags.c_contiguous
        assert V.transition.tobytes() == W.transition.tobytes()
        out_v, out_w = derived_distributions(V).output, derived_distributions(W).output
        assert out_v.tobytes() == out_w.tobytes()
        assert param_vector(V).as_dict() == param_vector(W).as_dict()


# ----------------------------------------------------------- derived laws

def test_derived_distributions_bec():
    W = bec(0.3)
    d = derived_distributions(W)
    np.testing.assert_allclose(d.joint, [[0.35, 0.0, 0.15], [0.0, 0.35, 0.15]])
    np.testing.assert_allclose(d.output, [0.35, 0.35, 0.3])
    np.testing.assert_allclose(d.posterior, [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])


def test_zero_mass_output_gets_uniform_posterior():
    W = make_channel(field_make(2), [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    d = derived_distributions(W)
    np.testing.assert_allclose(d.posterior[:, 2], [0.5, 0.5])


@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 1), (3, 1), (2, 2)]))
@settings(max_examples=30, deadline=None)
def test_derived_laws_are_consistent(seed, pm):
    field = field_make(*pm)
    rng = np.random.default_rng(seed)
    W = random_channel(field, int(rng.integers(1, 6)), rng, random_input=True)
    d = derived_distributions(W)
    assert abs(d.joint.sum() - 1.0) < 1e-12
    assert abs(d.output.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(d.posterior.sum(axis=0), 1.0, atol=1e-12)


# --------------------------------------------------------------- capacity

def test_capacity_input_zchannel_closed_form():
    # optimal P(X=1) for the Z-channel is 1/((1-e)(1+2^(h2(e)/(1-e))))
    for eps in (0.5, 0.25):
        r = capacity_input(zchannel(eps))
        p1 = 1.0 / ((1 - eps) * (1 + 2 ** (_h2(eps) / (1 - eps))))
        assert abs(r[1] - p1) < 1e-5
    r = capacity_input(zchannel(0.5))
    assert abs(r[1] - 0.4) < 1e-6


def test_capacity_input_symmetric_channel_is_uniform():
    r = capacity_input(bsc(0.11))
    np.testing.assert_allclose(r, [0.5, 0.5], atol=1e-6)


def test_capacity_input_never_loses_to_uniform():
    rng = np.random.default_rng(17)
    for _ in range(10):
        W = random_channel(field_make(3), 4, rng)
        r = capacity_input(W)
        gain = _mutual_info_nats(W.transition, r) - _mutual_info_nats(
            W.transition, W.input_dist
        )
        assert gain >= -1e-9


# --------------------------------------------------- alphabet manipulation

def _extend_input(W, target):
    """Embed an s-ary channel into a larger q-ary input alphabet.

    The first s input symbols keep their rows; every new symbol behaves
    exactly like symbol s-1, so the extra inputs are informationless clones:
    the carried input distribution (original padded with zeros) achieves the
    same mutual information as before, and the capacity is unchanged.
    """
    s = W.q
    if target.q < s:
        raise ValueError(f"target field size {target.q} smaller than source {s}")
    extra = target.q - s
    trans = np.vstack([W.transition, np.tile(W.transition[s - 1], (extra, 1))])
    dist = np.concatenate([W.input_dist, np.zeros(extra)])
    return Channel(target, trans, dist)


def test_extend_input_clones_last_row_and_pads_zeros():
    # checks only the helper, which test_extend_input_preserves_capacity relies on
    W = zchannel(0.5)
    V = _extend_input(W, field_make(2, 2))
    assert V.q == 4
    np.testing.assert_allclose(V.transition[:2], W.transition)
    np.testing.assert_allclose(V.transition[2], W.transition[1])
    np.testing.assert_allclose(V.transition[3], W.transition[1])
    np.testing.assert_allclose(V.input_dist, [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        _extend_input(V, field_make(2))


def test_extend_input_preserves_capacity():
    W = zchannel(0.3)
    V = _extend_input(W, field_make(5))
    cw = _mutual_info_nats(W.transition, capacity_input(W))
    cv = _mutual_info_nats(V.transition, capacity_input(V))
    assert abs(cw - cv) < 1e-9


def test_flatten_destroys_all_information():
    W = bsc(0.1).with_input([0.3, 0.7])
    V = flatten(W)
    assert V.output_size == 1
    # H(X|Y) collapses to H(X)
    hx = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7)) / np.log(2)
    assert abs(_cond_entropy(V) - hx) < 1e-12
    np.testing.assert_allclose(V.input_dist, W.input_dist)


def test_symmetrize_shape_and_row_structure():
    W = zchannel(0.4).with_input([0.6, 0.4])
    S = symmetrize(W)
    assert S.output_size == W.q * W.output_size
    np.testing.assert_allclose(S.input_dist, [0.5, 0.5])
    joint_sorted = np.sort(derived_distributions(W).joint.ravel())
    for row in S.transition:
        np.testing.assert_allclose(np.sort(row), joint_sorted, atol=1e-15)
        assert abs(row.sum() - 1.0) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_symmetrize_preserves_conditional_entropy(seed):
    rng = np.random.default_rng(seed)
    field = field_make(int(rng.choice([2, 3])))
    W = random_channel(field, int(rng.integers(2, 5)), rng, random_input=True)
    assert abs(_cond_entropy(symmetrize(W)) - _cond_entropy(W)) < 1e-9


# ---------------------------------------------------------------- merging

def test_merge_outputs_recombines_split_columns():
    # a BEC whose clean outputs were each split into two half-mass columns
    eps = 0.3
    half = (1 - eps) / 2
    W = make_channel(
        field_make(2),
        [[half, half, 0, 0, eps], [0, 0, half, half, eps]],
    )
    V = merge_outputs(W)
    assert V.output_size == 3
    assert abs(_cond_entropy(V) - _cond_entropy(W)) < 1e-12
    np.testing.assert_allclose(V.transition.sum(axis=1), 1.0, atol=1e-12)


def test_merge_outputs_lossless_and_idempotent():
    rng = np.random.default_rng(23)
    W = random_channel(field_make(3), 7, rng, random_input=True)
    V = merge_outputs(W)
    assert abs(_cond_entropy(V) - _cond_entropy(W)) < 1e-12
    V2 = merge_outputs(V)
    assert V2.output_size == V.output_size


def test_merge_groups_zero_mass_outputs_together():
    W = make_channel(field_make(2), [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0]])
    V = merge_outputs(W)
    # uniform-posterior live columns and dead columns all share one group
    assert V.output_size == 1


_PITCH = 2.0**-40  # the merge lattice's step in log posterior ratio

_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


def _lattice_key(W):
    """``merge_outputs``' key, from its definition.

    rint(2^40 * (log P(u|y) - log P(0|y))) for u = 1..q-1, with log 0 read
    as -2000: a (q-1, N) array of integers.
    """
    with np.errstate(divide="ignore"):
        logs = np.maximum(np.log(derived_distributions(W).posterior), -2000.0)
    return np.rint((logs[1:] - logs[0]) / _PITCH)


def _same_bits(got, want):
    assert got.output_size == want.output_size
    assert got.transition.tobytes() == want.transition.tobytes()
    assert got.input_dist.tobytes() == want.input_dist.tobytes()


@st.composite
def merge_cases(draw):
    """A channel whose outputs tie, chain on the merge lattice or sit near the endpoints.

    The channel is built from its output masses and posteriors: random
    posteriors (singleton runs), posteriors with one entry scaled down by
    10^-8 to 10^-200 (near an endpoint, where only a relative key tells
    them apart), repeats (a column split in parts), long runs of 10 to 80
    equal posteriors whose lengths no other drawn run has (a sum over such a
    run is pairwise unless taken left to right), zero-mass outputs, and
    chains whose log ratios step by 0.3, 0.6, 1.5 or 3 lattice steps, so
    that keys straddle lattice midpoints and neighbours chain.  The columns
    are shuffled, so windows of a few columns find zero-mass outputs on
    both sides of their edges.
    """
    q = draw(st.sampled_from(sorted(_FIELDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    posts = list(rng.dirichlet(np.ones(q), size=draw(st.integers(1, 6))))
    for _ in range(draw(st.integers(0, 3))):
        p = rng.dirichlet(np.ones(q))
        p[rng.integers(q)] *= 10.0 ** -float(rng.integers(8, 200))
        posts.append(p / p.sum())
    for _ in range(draw(st.integers(0, 8))):
        posts.append(posts[int(rng.integers(len(posts)))])
    for length in draw(st.lists(st.integers(10, 80), max_size=2, unique=True)):
        posts.extend([rng.dirichlet(np.ones(q))] * length)
    chains = st.tuples(st.integers(2, 8), st.sampled_from([0.3, 0.6, 1.5, 3.0]))
    for length, step in draw(st.lists(chains, max_size=3)):
        base, b = rng.dirichlet(np.ones(q)), int(rng.integers(q))
        for k in range(length):
            p = base.copy()
            p[b] *= math.exp(k * step * _PITCH)
            posts.append(p / p.sum())
    mass = rng.random(len(posts)) + 0.05
    joint = np.array(posts).T * mass
    joint = np.hstack([joint, np.zeros((q, draw(st.integers(0, 3))))])
    joint = joint[:, rng.permutation(joint.shape[1])] / joint.sum()
    dist = joint.sum(axis=1)
    return make_channel(field_make(*_FIELDS[q]), joint / dist[:, None], dist)


@st.composite
def synthesized_cases(draw):
    """An unmerged synthesized channel: raw synthesis repeats posteriors up to rounding."""
    q = draw(st.sampled_from(sorted(_FIELDS)))
    field = field_make(*_FIELDS[q])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = random_channel(field, draw(st.integers(1, 6)), rng, random_input=draw(st.booleans()))
    ell = 2 if q > 4 else draw(st.integers(2, 3))
    kern = sample_invertible(field, ell, rng)
    return transform(W, kern, draw(st.integers(1, ell)), merge=False)


@given(st.one_of(merge_cases(), synthesized_cases()), st.sampled_from([1, 2, 7, 1 << 14]))
@settings(max_examples=300, deadline=None)
def test_merge_outputs_matches_the_dense_oracle_bitwise(W, window):
    # keys formed in windows of 1, 2 and 7 columns: each window's posterior
    # comes from its own columns, zero-mass ones included, and a lone
    # column's output sum adds its q entries in the whole-array order
    with mock.patch.object(channel_mod, "_WINDOW", window):
        got = merge_outputs(W)
    want = oracle_merge(W, _lattice_key(W), 1)
    assert (got is W) == (want is W)
    _same_bits(got, want)


@given(merge_cases(), st.sampled_from([1, 2, 7]))
@settings(max_examples=100, deadline=None)
def test_a_window_of_columns_has_the_posterior_bits_of_the_whole(W, window):
    # the merge forms its key one window of columns at a time; a reduction
    # over one column would add its q >= 8 entries in another order
    d = derived_distributions(W)
    for lo in range(0, W.output_size, window):
        post, output = channel_mod._posterior(W, cols=slice(lo, lo + window))
        assert post.tobytes() == d.posterior[:, lo : lo + window].tobytes()
        assert output.tobytes() == d.output[lo : lo + window].tobytes()


@st.composite
def integer_keys(draw):
    """A channel of N outputs and a (rows, N) key of small integers, N up to 60.

    Values from a range of 2 to 12 give ties, neighbours one step apart and
    chains; rows 1 to 3, so that the later rows re-sort within the runs.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(1, 60))
    rows = draw(st.integers(1, 3))
    key = rng.integers(0, draw(st.integers(2, 12)), (rows, N)).astype(float)
    W = random_channel(field_make(*_FIELDS[draw(st.sampled_from([2, 3]))]), N, rng)
    return W, key


@given(integer_keys(), st.sampled_from([0, 1, 2]), st.sampled_from([1, 2, 7, 1 << 14]))
@settings(max_examples=300, deadline=None)
def test_merge_matches_the_dense_oracle_at_every_window_edge(case, step, window):
    # windows of 1, 2 and 7 columns: the scan compares neighbours across
    # window edges
    W, key = case
    with mock.patch.object(channel_mod, "_WINDOW", window):
        got = channel_mod._merge_sorted(W, key.copy(), step)
    want = oracle_merge(W, key, step)
    assert (got is W) == (want is W)
    _same_bits(got, want)


_LEXSORT = np.lexsort


def _sorts_breaking_ties(ties, calls):
    """A key class whose ``argsort`` orders equal keys another way, and a like ``np.lexsort``.

    With ``ties`` "reversed" equal keys come in reverse label order, with
    "shuffled" in the order of a fresh random permutation per call: the
    permuted keys are sorted stably and the order is mapped back.  The
    merge calls the ``argsort`` method of its first key row, so a key
    viewed as the class sorts that way.  Each sort appends its name to
    ``calls``.
    """
    rng = np.random.default_rng(0)

    def sort(keys):
        keys = [np.asarray(k) for k in keys]
        n = keys[0].size
        perm = np.arange(n)[::-1] if ties == "reversed" else rng.permutation(n)
        return perm[_LEXSORT([k[perm] for k in keys])]

    class Key(np.ndarray):
        def argsort(self):
            calls.append("argsort")
            return sort([self])

    def lexsort(keys):
        calls.append("lexsort")
        return sort(keys)

    return Key, lexsort


def _same_bits_whatever_the_tie_order(ties, merges):
    """``merges(as_key)`` gives the same bits with sorts that order ties another way.

    ``merges`` runs its merges over keys made by ``as_key``; the keys that
    ``merge_outputs`` and ``quantize_merge`` form are viewed the same way.
    """
    want = merges(lambda key: key)
    calls = []
    Key, lexsort = _sorts_breaking_ties(ties, calls)
    log_ratio_key, posterior = channel_mod._log_ratio_key, transform_mod._posterior
    with mock.patch.object(np, "lexsort", lexsort), mock.patch.object(
        channel_mod, "_log_ratio_key", lambda W: log_ratio_key(W).view(Key)
    ), mock.patch.object(
        transform_mod, "_posterior", lambda W: tuple(a.view(Key) for a in posterior(W))
    ):
        got = merges(lambda key: key.view(Key))
    assert "argsort" in calls and "lexsort" in calls
    for g, w in zip(got, want):
        _same_bits(g, w)


@pytest.mark.parametrize("ties", ["reversed", "shuffled"])
@given(
    st.one_of(merge_cases(), synthesized_cases()),
    st.sampled_from([1, 3, 64, 2048]),
    integer_keys(),
    st.sampled_from([0, 1, 2]),
)
@settings(max_examples=150, deadline=None)
def test_no_merged_bit_depends_on_how_a_sort_orders_ties(ties, W, resolution, case, step):
    # every merge adds each group in label order, so sorts that put equal
    # keys in another order give the same bits: the lattice merge (one key
    # row at q = 2, q - 1 rows re-sorted within the runs above), the grid
    # merge and a merge over 1 to 3 integer key rows dense in ties
    V, key = case
    _same_bits_whatever_the_tie_order(
        ties,
        lambda as_key: [
            merge_outputs(W),
            transform_mod.quantize_merge(W, resolution),
            channel_mod._merge_sorted(V, as_key(key.copy()), step),
        ],
    )


def _largest_construct_raw():
    """The raw synthesis at construct's largest n=5 Z(0.3) node: 288,800 columns."""
    W = zchannel(0.3)
    W = W.with_input(capacity_input(W))
    kern = arikan_kernel(W.field)
    for k in (1, 2, 1, 2):
        W = transform(W, kern, k)
    return transform(W, kern, 2, merge=False)


@pytest.mark.parametrize("ties", ["reversed", "shuffled"])
def test_no_merged_bit_of_the_largest_construct_node_depends_on_how_a_sort_orders_ties(ties):
    # 288,800 columns merged to 22,801 outputs and binned to 2,049, and a
    # GF(3) raw synthesis of 729 columns merged over two key rows
    raw = _largest_construct_raw()
    rng = np.random.default_rng(4)
    field = field_make(3)
    W3 = transform(random_channel(field, 3, rng), sample_invertible(field, 2, rng), 2)
    W3 = transform(W3, sample_invertible(field, 2, rng), 2, merge=False)
    assert (raw.output_size, merge_outputs(raw).output_size) == (288_800, 22_801)
    _same_bits_whatever_the_tie_order(
        ties, lambda _: [merge_outputs(raw), transform_mod.quantize_merge(raw, 2048), merge_outputs(W3)]
    )


@given(st.one_of(merge_cases(), synthesized_cases()), st.sampled_from([1, 2, 3, 7, 64, 2048]))
@settings(max_examples=300, deadline=None)
def test_quantize_merge_matches_the_dense_oracle_bitwise(W, resolution):
    got = transform_mod.quantize_merge(W, resolution)
    want = oracle_quantize_merge(W, resolution)
    assert (got is W) == (want is W)
    assert got.transition.tobytes() == want.transition.tobytes()
    assert got.input_dist.tobytes() == want.input_dist.tobytes()


def test_each_merged_column_adds_its_group_in_label_order():
    # groups of 1, 8, 9 and 75 equal posteriors, every length once, their
    # columns shuffled: each merged column is the float sum of one group's
    # columns, left to right in label order (rounding leaves a group's
    # posteriors a few ulps apart, so its keys may differ by a step and the
    # later key row re-sorts it)
    rng = np.random.default_rng(5)
    lengths = [1, 8, 9, 75]
    posts = np.repeat(rng.dirichlet(np.ones(3), size=len(lengths)), lengths, axis=0)
    posts = posts[rng.permutation(len(posts))]
    joint = posts.T * (rng.random(posts.shape[0]) + 0.05)
    joint /= joint.sum()
    dist = joint.sum(axis=1)
    W = make_channel(field_make(3), joint / dist[:, None], dist)
    runs = oracle_runs(_lattice_key(W), 1)
    assert sorted(map(len, runs)) == lengths
    want = []
    for cols in runs:
        sums = [functools.reduce(operator.add, W.transition[x, sorted(cols)].tolist()) for x in range(3)]
        want.append(tuple(sums))
    assert merge_outputs(W).transition.T.tolist() == [list(w) for w in want]


@st.composite
def internal_channels(draw):
    """Every channel the library builds itself from one random synthesis.

    The raw and merged syntheses, a posterior-grid merge of the raw one and
    the flattened channel, over GF(2, 3, 4, 5, 7, 9) with a random kernel at
    ell 2 or 3.
    """
    field = field_make(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = random_channel(field, draw(st.integers(1, 4)), rng, random_input=draw(st.booleans()))
    ell = draw(st.integers(2, 3))
    kern = sample_invertible(field, ell, rng)
    i = draw(st.integers(1, ell))
    raw = transform(W, kern, i, merge=False)
    resolution = draw(st.sampled_from([1, 3, 64, 2048]))
    return [
        raw,
        transform(W, kern, i),
        transform_mod.quantize_merge(raw, resolution),
        flatten(raw),
    ]


@given(internal_channels())
@settings(max_examples=100, deadline=None)
def test_internal_channels_pass_the_public_checks_bitwise(channels):
    for W in channels:
        checked = Channel(W.field, W.transition, W.input_dist)
        for got, want in ((W.transition, checked.transition), (W.input_dist, checked.input_dist)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable


def test_merge_returns_the_channel_itself_when_nothing_merges():
    W = random_channel(field_make(5), 12, np.random.default_rng(3), random_input=True)
    assert merge_outputs(W) is W
    assert transform_mod.quantize_merge(W, 2**40) is W


def test_merge_keeps_apart_posteriors_that_share_only_their_first_row():
    # exact dyadic posteriors (0.5, 0.125, 0.375) twice and (0.5, 0.375, 0.125):
    # the first key row tells them apart, the first posterior row does not
    trans = [[0.25, 0.5, 0.25], [0.125, 0.75, 0.125], [0.375, 0.25, 0.375]]
    W = make_channel(field_make(3), trans, [0.5, 0.25, 0.25])
    assert np.array_equal(derived_distributions(W).posterior[0], [0.5, 0.5, 0.5])
    V = merge_outputs(W)
    assert V.output_size == 2
    _same_bits(V, oracle_merge(W, _lattice_key(W), 1))


def test_merge_outputs_chains_neighbours_within_one_lattice_step():
    # log ratios 0, 0.6, 1.2, 1.8 and 2.4 steps from a base chain into one
    # output, whichever lattice midpoints they straddle; 3 steps past the
    # chain's end is another output
    base = 0.3
    llrs = math.log(base / (1 - base)) + _PITCH * np.array([0.0, 0.6, 1.2, 1.8, 2.4, 5.4])
    post1 = 1.0 / (1.0 + np.exp(-llrs))
    joint = np.vstack([1.0 - post1, post1]) / llrs.size
    dist = joint.sum(axis=1)
    W = make_channel(field_make(2), joint / dist[:, None], dist)
    V = merge_outputs(W)
    assert V.output_size == 2
    _same_bits(V, oracle_merge(W, _lattice_key(W), 1))


def test_merge_outputs_keeps_apart_distinct_posteriors_near_the_endpoints():
    # P(1|y) of 3.0e-15 and 1.9e-13, and 1 - 1.9e-13 and 1 - 3.0e-15: each
    # pair is within 1e-12 in sup norm but 63 times apart in likelihood ratio
    post1 = np.array([3.0e-15, 1.9e-13, 1 - 1.9e-13, 1 - 3.0e-15, 0.0, 1.0])
    joint = np.vstack([1.0 - post1, post1]) / post1.size
    dist = joint.sum(axis=1)
    W = make_channel(field_make(2), joint / dist[:, None], dist)
    assert merge_outputs(W) is W


def test_construct_is_unchanged_under_the_reference_merge(monkeypatch):
    W = zchannel(0.3)
    W = W.with_input(capacity_input(W))

    def build():
        kern = FixedKernel(arikan_kernel(W.field))
        return codespec_to_dict(construct(W, 2, 4, 0.2, kern, seed=7))

    fast = build()
    monkeypatch.setattr(transform_mod, "merge_outputs", lambda V: oracle_merge(V, _lattice_key(V), 1))
    assert build() == fast


# ---------------------------------------------------------- stock + JSON

def test_stock_channels_frozen():
    np.testing.assert_allclose(bec(0.25).transition, [[0.75, 0, 0.25], [0, 0.75, 0.25]])
    np.testing.assert_allclose(bsc(0.1).transition, [[0.9, 0.1], [0.1, 0.9]])
    np.testing.assert_allclose(zchannel(0.2).transition, [[1, 0], [0.2, 0.8]])
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError):
            bec(bad)
        with pytest.raises(ValueError):
            bsc(bad)
        with pytest.raises(ValueError):
            zchannel(bad)


def test_channel_dict_roundtrip():
    W = bec(0.35).with_input([0.25, 0.75])
    doc = channel_to_dict(W)
    assert doc["p"] == 2 and doc["m"] == 1 and doc["output_size"] == 3
    V = channel_from_dict(doc)
    np.testing.assert_allclose(V.transition, W.transition)
    np.testing.assert_allclose(V.input_dist, W.input_dist)


def test_channel_from_dict_capacity_keyword():
    doc = channel_to_dict(zchannel(0.5))
    doc["input_dist"] = "capacity"
    W = channel_from_dict(doc)
    assert abs(W.input_dist[1] - 0.4) < 1e-6
    doc["input_dist"] = "nonsense"
    with pytest.raises(ValueError):
        channel_from_dict(doc)
    doc2 = channel_to_dict(bec(0.5))
    doc2["output_size"] = 7
    with pytest.raises(ValueError, match="output_size"):
        channel_from_dict(doc2)


@pytest.mark.parametrize(
    "edit, name",
    [({"p": None}, "p"), ({"output_size": None}, "output_size"), ({"m": 1.5}, "m"),
     ({"output_size": "3"}, "output_size"), ({"transition": {"a": 1}}, "transition"),
     ({"transition": [[0.5, [0.5]], [0.5, 0.5]]}, "transition"),
     ({"input_dist": {"x": 1}}, "input_dist"), ({"input_dist": [0.5, None, "x"]}, "input_dist")],
    ids=["p-null", "output-size-null", "m-fractional", "output-size-string",
         "transition-object", "transition-ragged", "input-dist-object", "input-dist-string"],
)
def test_channel_from_dict_names_a_wrong_typed_field(edit, name):
    doc = dict(channel_to_dict(bec(0.5)), **edit)
    with pytest.raises(ValueError, match=f"channel field {name} has the wrong type"):
        channel_from_dict(doc)


def test_channel_from_dict_checks_output_size_against_a_malformed_transition():
    doc = dict(channel_to_dict(bec(0.5)), transition=[0.5, 0.5])
    with pytest.raises(ValueError, match="transition must be"):
        channel_from_dict(doc)


def test_random_channel_deterministic_given_seed():
    f = field_make(2, 2)
    A = random_channel(f, 5, np.random.default_rng(99), random_input=True)
    B = random_channel(f, 5, np.random.default_rng(99), random_input=True)
    np.testing.assert_array_equal(A.transition, B.transition)
    np.testing.assert_array_equal(A.input_dist, B.input_dist)
