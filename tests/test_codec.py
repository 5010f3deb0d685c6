import itertools
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpolar import transform as transform_module
from qpolar.channel import (
    bec,
    bsc,
    capacity_input,
    derived_distributions,
    random_channel,
    sample_outputs,
)
from qpolar.codec import (
    CodeSpec,
    codespec_from_dict,
    codespec_to_dict,
    construct,
    decode,
    encode,
    node_posterior,
    simulate,
)
from qpolar.gf import arikan_kernel, field_make, field_matmul, sample_invertible
from qpolar.kernsearch import FixedKernel, SearchKernels

F2 = field_make(2)
ARIKAN = arikan_kernel(F2)


@pytest.fixture(scope="module")
def bec_spec():
    return construct(bec(0.5), 2, 3, 0.2, FixedKernel(ARIKAN), seed=42)


# ---- construction


def test_construct_bec_fixture_frozen(bec_spec):
    s = bec_spec
    assert s.block_length == 8 and s.ell == 2 and s.n == 3
    assert s.theta == pytest.approx(math.exp(-(2**0.6)), abs=1e-15)
    assert s.info_set == frozenset({(2, 1, 2), (2, 2, 1), (2, 2, 2)})
    assert s.rate == pytest.approx(3 / 8)
    assert len(s.kernels) == 7  # 1 + 2 + 4 internal nodes
    assert s.leaf_stats[(1, 1, 1)].H_w == pytest.approx(0.99609375, abs=1e-12)
    assert s.leaf_stats[(2, 2, 2)].H_w == pytest.approx(0.00390625, abs=1e-12)
    for path, stat in s.leaf_stats.items():
        assert stat.H_v == pytest.approx(1.0, abs=1e-12)  # uniform prior never shapes
        assert stat.T_v == pytest.approx(0.0, abs=1e-12)
        assert stat.exact
    # with a uniform prior nothing qualifies as a shaping leaf
    assert set(s.frozen_class.values()) == {"B"}
    assert len(s.frozen_class) == 5


def test_construct_union_bound_is_half_sum_of_info_entropies(bec_spec):
    total = sum(bec_spec.leaf_stats[p].Pe_w + bec_spec.leaf_stats[p].T_v for p in bec_spec.info_set)
    assert total == pytest.approx(0.158203125, abs=1e-12)


def test_construct_search_policy_deterministic():
    a = construct(bec(0.5), 2, 2, 0.2, SearchKernels(ell=2, budget=50), seed=9)
    b = construct(bec(0.5), 2, 2, 0.2, SearchKernels(ell=2, budget=50), seed=9)
    assert a.info_set == b.info_set
    for path in a.kernels:
        assert np.array_equal(a.kernels[path].entries, b.kernels[path].entries)


def test_construct_validates():
    with pytest.raises(ValueError, match="disagrees"):
        construct(bec(0.5), 3, 2, 0.2, FixedKernel(ARIKAN), seed=0)
    with pytest.raises(ValueError, match="the kernel policy's size 3 disagrees with ell 2"):
        construct(bsc(0.11), 2, 2, 0.2, SearchKernels(ell=3, budget=50), seed=7)
    with pytest.raises(ValueError):
        construct(bec(0.5), 2, 0, 0.2, FixedKernel(ARIKAN), seed=0)
    for pi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="pi must be finite"):
            construct(bec(0.5), 2, 2, pi, FixedKernel(ARIKAN), seed=0)


def test_construct_names_the_node_that_stays_over_the_guard(monkeypatch):
    # q^(ell-1) = 2 already exceeds guard 1, so no quantization can fit
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 1)
    with pytest.raises(ValueError, match=r"data channel at node path \[\].*over the guard 1$"):
        construct(bec(0.5), 2, 2, 0.2, FixedKernel(ARIKAN), seed=0)


def test_searched_construct_coarsens_before_the_search(monkeypatch):
    # Certifying an ell=3 candidate synthesizes every position, a 108-symbol
    # alphabet over guard 100 at the root: the node is coarsened first.
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 100)
    spec = construct(bsc(0.11), 3, 2, 0.2, SearchKernels(ell=3, budget=200), seed=7)
    assert len(spec.kernels) == 4 and len(spec.leaf_stats) == 9
    assert not all(s.exact for s in spec.leaf_stats.values())


def _bec_spec_doc(**edits):
    doc = codespec_to_dict(construct(bec(0.5), 2, 3, 0.2, FixedKernel(ARIKAN), seed=42))
    doc.update(edits)
    return doc


@pytest.mark.parametrize(
    "edits, match",
    [
        ({"n": 2}, "8 leaf_stats entries, not one per leaf of a depth-2 tree"),
        ({"n": 4}, "8 leaf_stats entries, not one per leaf of a depth-4 tree"),
        ({"ell": 1}, "ell >= 2"),
        ({"input_dist": [1.0]}, "input_dist must have 2 entries"),
    ],
    ids=["n-down", "n-up", "ell", "input_dist"],
)
def test_codespec_from_dict_rejects_inconsistent_shapes(edits, match):
    with pytest.raises(ValueError, match=match):
        codespec_from_dict(_bec_spec_doc(**edits))


def _wrong_typed_kernel_path(doc):
    doc["kernels"][0]["path"] = [[1]]


def _wrong_typed_leaf_value(doc):
    doc["leaf_stats"][3]["H_w"] = None


def _wrong_typed_leaf_entry(doc):
    doc["leaf_stats"][0] = None


def _wrong_typed_frozen_key(doc):
    key = sorted(doc["frozen_class"])[0]
    doc["frozen_class"]["x," + key[2:]] = doc["frozen_class"].pop(key)


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda doc: doc.update(n=None), "n"),
        (_wrong_typed_kernel_path, r"kernels\[0\]\.path"),
        (_wrong_typed_leaf_value, r"leaf_stats\[3\]\.H_w"),
        (lambda doc: doc.update(kernels=None), "kernels"),
        (_wrong_typed_leaf_entry, r"leaf_stats\[0\]"),
        (lambda doc: doc.update(input_dist=[None, 0.5]), "input_dist"),
        (lambda doc: doc.update(input_dist="10"), "input_dist"),
        (lambda doc: doc["leaf_stats"][2].update(exact="no"), r"leaf_stats\[2\]\.exact"),
        (lambda doc: doc["leaf_stats"][5].update(exact=1), r"leaf_stats\[5\]\.exact"),
        (_wrong_typed_frozen_key, r"frozen_class\[x,1,1\]"),
    ],
    ids=["n-null", "kernel-path-nested", "H_w-null", "kernels-null", "leaf-entry-null",
         "input-dist-entry-null", "input-dist-string", "exact-string", "exact-int",
         "frozen-key-letter"],
)
def test_codespec_from_dict_names_a_wrong_typed_field(edit, name):
    doc = _bec_spec_doc()
    edit(doc)
    with pytest.raises(ValueError, match=f"spec field {name} has the wrong type"):
        codespec_from_dict(doc)


@pytest.mark.parametrize("label", ["A", "b", None, 1])
def test_codespec_from_dict_rejects_an_unknown_frozen_class(label):
    doc = _bec_spec_doc()
    key = sorted(doc["frozen_class"])[-1]
    doc["frozen_class"][key] = label
    with pytest.raises(ValueError, match=rf'spec field frozen_class\[{key}\] must be "B" or "C"'):
        codespec_from_dict(doc)


def test_codespec_from_dict_rejects_inconsistent_paths():
    doc = _bec_spec_doc()
    kept = doc["kernels"][:-1]  # drops the kernel at path [2, 2]
    with pytest.raises(ValueError, match=r"6 kernels for the 7 expected"):
        codespec_from_dict(dict(doc, kernels=kept))
    stray = {"path": [3], "matrix": [[1, 0], [1, 1]]}
    with pytest.raises(ValueError, match=r"missing \[\(2, 2\)\], unexpected \[\(3,\)\]"):
        codespec_from_dict(dict(doc, kernels=kept + [stray]))
    with pytest.raises(ValueError, match="is not 2x2"):
        codespec_from_dict(dict(doc, kernels=kept + [{"path": [2, 2], "matrix": [[1]]}]))
    with pytest.raises(ValueError, match="leaf_stats entries for the 8 expected"):
        codespec_from_dict(dict(doc, leaf_stats=doc["leaf_stats"][:-1] + doc["leaf_stats"][:1]))
    # a leaf in both sets, and a leaf in neither
    leaf = sorted(doc["info_set"])[0]
    both = dict(doc["frozen_class"], **{",".join(map(str, leaf)): "B"})
    with pytest.raises(ValueError, match="info_set and frozen_class leaves"):
        codespec_from_dict(dict(doc, frozen_class=both))
    with pytest.raises(ValueError, match="info_set and frozen_class leaves"):
        codespec_from_dict(dict(doc, info_set=sorted(doc["info_set"])[1:]))


# ---- single-step posterior against direct Bayes enumeration


def _posterior_oracle(kern, pins, decided, i):
    f, q, ell = kern.field, kern.field.q, kern.ell
    gamma = np.zeros(q)
    for u in itertools.product(range(q), repeat=ell):
        if list(u[: i - 1]) != list(decided):
            continue
        x = field_matmul(f, np.array(u), kern.entries)
        gamma[u[i - 1]] += float(np.prod([pins[j, x[j]] for j in range(ell)]))
    total = gamma.sum()
    return (gamma / total, True) if total > 0 else (np.full(q, 1.0 / q), False)


def test_node_posterior_matches_bayes_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(80):
        p, m = [(2, 1), (3, 1), (2, 2)][int(rng.integers(3))]
        q = p**m
        ell = int(rng.choice([2, 3]))
        f = field_make(p, m)
        kern = sample_invertible(f, ell, rng)
        pins = rng.random((ell, q)) + 1e-3
        pins /= pins.sum(axis=1, keepdims=True)
        i = int(rng.integers(1, ell + 1))
        decided = rng.integers(0, q, size=i - 1)
        got, ok = node_posterior(kern, pins, decided, i)
        want, ok_want = _posterior_oracle(kern, pins, decided, i)
        assert ok and ok_want
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_node_posterior_zero_mass_gives_uniform_flag():
    pins = np.array([[1.0, 0.0], [0.0, 1.0]])  # x1 pinned to 0, x2 pinned to 1
    post, ok = node_posterior(ARIKAN, pins, np.array([0]), 2)
    # u1 = 0 forces x1 = u2 and x2 = u2, contradicting the pins
    assert not ok
    np.testing.assert_allclose(post, [0.5, 0.5])


def test_node_posterior_validates():
    pins = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="position"):
        node_posterior(ARIKAN, pins, np.array([]), 3)
    with pytest.raises(ValueError, match="prefix"):
        node_posterior(ARIKAN, pins, np.array([0]), 1)
    with pytest.raises(ValueError, match="pins"):
        node_posterior(ARIKAN, np.full((3, 2), 0.5), np.array([]), 1)
    for symbol in (3, -1, 2):
        with pytest.raises(ValueError, match="decided symbol"):
            node_posterior(ARIKAN, pins, np.array([symbol]), 2)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="NaN or infinite"):
            node_posterior(ARIKAN, np.array([[bad, 0.5], [0.5, 0.5]]), np.array([]), 1)


def test_node_posterior_refuses_negative_pins():
    # these pins once gave [0.5, 0.5] with ok=True
    with pytest.raises(ValueError, match="nonnegative"):
        node_posterior(ARIKAN, np.array([[-1.0, 2.0], [0.5, 0.5]]), np.array([]), 1)
    post, ok = node_posterior(ARIKAN, np.array([[-0.0, 1.0], [0.5, 0.5]]), np.array([]), 1)
    assert ok and post.tolist() == [0.5, 0.5]


# Reference copy of the node posterior before the completion table: it
# rebuilds the completion rows U and their images X = U G on every call.
def _node_posterior_reference(kernel, pins, decided, i):
    f = kernel.field
    q, ell = f.q, kernel.ell
    pins = np.asarray(pins, dtype=float)
    decided = np.asarray(decided, dtype=np.int64).reshape(-1)
    # (candidate symbol, free suffix), first digit most significant
    tails = np.array(list(itertools.product(range(q), repeat=ell - i + 1)), dtype=np.int64)
    U = np.empty((tails.shape[0], ell), dtype=np.int64)
    U[:, : i - 1] = decided
    U[:, i - 1 :] = tails
    X = field_matmul(f, U, kernel.entries)
    w = np.ones(U.shape[0])
    for j in range(ell):
        w *= pins[j, X[:, j]]
    gamma = w.reshape(q, -1).sum(axis=1)
    total = gamma.sum()
    if total <= 0.0:
        return np.full(q, 1.0 / q), False
    return gamma / total, True


_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from([(q, ell) for q in _FIELDS for ell in (2, 3, 4) if q**ell <= 4096]),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=(2, 2), zero_share=1.0, seed=0)  # every completion contradicts the pins
@example(case=(9, 3), zero_share=0.3, seed=1)
def test_node_posterior_matches_reference_bitwise(case, zero_share, seed):
    q, ell = case
    rng = np.random.default_rng(seed)
    kern = sample_invertible(field_make(*_FIELDS[q]), ell, rng)
    pins = rng.random((ell, q))
    pins[rng.random((ell, q)) < zero_share] = 0.0  # share 1.0: every pin zero
    for i in range(1, ell + 1):
        for prefix in itertools.product(range(q), repeat=i - 1):
            got, ok = node_posterior(kern, pins, np.array(prefix, dtype=np.int64), i)
            want, ok_want = _node_posterior_reference(kern, pins, prefix, i)
            assert got.tobytes() == want.tobytes() and ok == ok_want, (i, prefix)


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_pipeline_needs_no_field_matmul(monkeypatch, pm):
    # every u G of construct, encode, decode, simulate and transform reads
    # the completion table
    def refuse(*args):
        raise AssertionError("field_matmul called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qpolar" and hasattr(module, "field_matmul"):
            monkeypatch.setattr(module, "field_matmul", refuse)
    f = field_make(*pm)
    rng = np.random.default_rng(7)
    W = random_channel(f, 3, rng)
    kern = sample_invertible(f, 2, rng)
    spec = construct(W, 2, 2, 0.2, FixedKernel(kern), seed=3)
    x = encode(spec, rng.integers(0, f.q, size=spec.dimension), seed=5)
    y = sample_outputs(W, x, rng.random(x.shape))
    assert decode(spec, y, seed=5, channel=W).message.shape == (spec.dimension,)
    assert simulate(spec, W, trials=2, seed=1)["trials"] == 2
    fresh = sample_invertible(f, 3, rng)
    assert transform_module.transform(W, fresh, 1).field is f


def test_completion_table_is_built_on_first_use():
    kern = sample_invertible(field_make(2, 2), 3, np.random.default_rng(3))
    assert "completions" not in vars(kern)
    node_posterior(kern, np.full((3, 4), 0.25), np.array([]), 1)
    table = kern.completions
    assert table.shape == (64, 3) and not table.flags.writeable
    assert kern.completions is table


# ---- encoder layout against an iterative reference


def _all_info_spec(field, ell, n, rng):
    kernels = {
        path: sample_invertible(field, ell, rng)
        for d in range(n)
        for path in itertools.product(range(1, ell + 1), repeat=d)
    }
    leaves = list(itertools.product(range(1, ell + 1), repeat=n))
    return CodeSpec(
        field=field,
        ell=ell,
        n=n,
        pi=0.2,
        theta=0.5,
        seed=0,
        input_dist=np.full(field.q, 1.0 / field.q),
        kernels=kernels,
        info_set=frozenset(leaves),
        frozen_class={},
        leaf_stats={},
    )


def _encode_map_reference(spec, u_leaf):
    """Level-by-level bottom-up transform: group t of a node sits at [t*ell, t*ell+ell)."""
    ell, n = spec.ell, spec.n
    vecs = {
        path: np.array([u], dtype=np.int64)
        for path, u in zip(itertools.product(range(1, ell + 1), repeat=n), u_leaf)
    }
    for depth in range(n - 1, -1, -1):
        for path in itertools.product(range(1, ell + 1), repeat=depth):
            kern = spec.kernels[path]
            kids = [vecs[path + (k,)] for k in range(1, ell + 1)]
            out = np.empty(ell * kids[0].shape[0], dtype=np.int64)
            for t in range(kids[0].shape[0]):
                row = np.array([kid[t] for kid in kids])
                out[t * ell : (t + 1) * ell] = field_matmul(spec.field, row, kern.entries)
            vecs[path] = out
    return vecs[()]


def test_encode_matches_reference_map():
    rng = np.random.default_rng(31)
    for q, ell, n in [(2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        spec = _all_info_spec(field_make(q), ell, n, rng)
        for _ in range(20):
            msg = rng.integers(0, q, size=spec.block_length)
            np.testing.assert_array_equal(
                encode(spec, msg, seed=0), _encode_map_reference(spec, msg)
            )


def test_encode_deterministic_and_validates(bec_spec):
    msg = np.array([1, 0, 1])
    a = encode(bec_spec, msg, seed=7)
    b = encode(bec_spec, msg, seed=7)
    np.testing.assert_array_equal(a, b)
    c = encode(bec_spec, msg, seed=8)
    assert not np.array_equal(a, c)  # different frozen chain
    with pytest.raises(ValueError, match="symbols"):
        encode(bec_spec, np.array([1, 0]), seed=0)
    with pytest.raises(ValueError, match="field"):
        encode(bec_spec, np.array([1, 0, 2]), seed=0)


# ---- decoding


def test_decode_noiseless_roundtrip(bec_spec):
    rng = np.random.default_rng(5)
    for trial in range(25):
        msg = rng.integers(0, 2, size=3)
        x = encode(bec_spec, msg, seed=100 + trial)
        pins = np.eye(2)[x]  # certain observations
        res = decode(bec_spec, pins, seed=100 + trial)
        np.testing.assert_array_equal(res.message, msg)
        assert not res.failed
        assert res.du_activations == 3 * 2**2  # n * ell^(n-1)


def test_decode_symbol_and_posterior_paths_agree(bec_spec):
    W = bec(0.5)
    rng = np.random.default_rng(77)
    post = derived_distributions(W).posterior
    for trial in range(25):
        msg = rng.integers(0, 2, size=3)
        x = encode(bec_spec, msg, seed=trial)
        y = np.where(rng.random(8) < 0.5, 2, x)  # erase half on average
        a = decode(bec_spec, y, seed=trial, channel=W)
        b = decode(bec_spec, post[:, y].T, seed=trial)
        np.testing.assert_array_equal(a.message, b.message)
        assert a.du_activations == b.du_activations == 12


def test_decode_validates(bec_spec):
    with pytest.raises(ValueError, match="needs the channel"):
        decode(bec_spec, np.zeros(8, dtype=int), seed=0)
    with pytest.raises(ValueError, match="posterior array"):
        decode(bec_spec, np.zeros((4, 2)), seed=0)
    with pytest.raises(ValueError, match="output symbols"):
        decode(bec_spec, np.zeros(5, dtype=int), seed=0, channel=bec(0.5))


@pytest.mark.parametrize("bad", [np.nan, -0.25, np.inf])
def test_decode_rejects_nan_or_negative_posteriors(bec_spec, bad):
    pins = np.full((8, 2), 0.5)
    pins[3, 1] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        decode(bec_spec, pins, seed=0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        decode(bec_spec, np.full((8, 2), bad), seed=0)


@pytest.mark.parametrize("symbol", [3, -1])
def test_decode_rejects_out_of_range_symbols(bec_spec, symbol):
    y = np.zeros(8, dtype=int)
    y[5] = symbol  # BEC outputs are 0, 1, 2
    with pytest.raises(ValueError, match=r"0\.\.2"):
        decode(bec_spec, y, seed=0, channel=bec(0.5))


def test_decode_rejects_fractional_symbols(bec_spec):
    y = [0, 1.7, 0, 1, 0, 0, 1, 0.2]
    with pytest.raises(ValueError, match="must be integers"):
        decode(bec_spec, y, seed=1, channel=bec(0.5))
    # integer-valued floats stay accepted
    whole = np.array([0, 2, 0, 1, 0, 0, 1, 0])
    as_float = decode(bec_spec, whole.astype(float), seed=1, channel=bec(0.5))
    assert np.array_equal(as_float.message, decode(bec_spec, whole, seed=1, channel=bec(0.5)).message)


def test_a_channel_over_another_field_is_refused(bec_spec):
    gf3 = random_channel(field_make(3), 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"channel is over GF\(3\) but the spec over GF\(2\)"):
        decode(bec_spec, np.zeros(8, dtype=int), seed=0, channel=gf3)
    with pytest.raises(ValueError, match=r"channel is over GF\(3\) but the spec over GF\(2\)"):
        simulate(bec_spec, gf3, trials=2, seed=0)
    # a smaller field fails before any channel output is drawn
    spec3 = construct(gf3, 2, 2, 0.2, FixedKernel(arikan_kernel(field_make(3))), seed=1)
    with pytest.raises(ValueError, match=r"channel is over GF\(2\) but the spec over GF\(3\)"):
        simulate(spec3, bec(0.5), trials=2, seed=0)


def test_decode_flags_contradictory_pins():
    rng = np.random.default_rng(0)
    spec = _all_info_spec(F2, 2, 1, rng)
    spec = replace(
        spec,
        kernels={(): ARIKAN},
        info_set=frozenset({(2,)}),
        frozen_class={(1,): "B"},
    )
    pins = np.array([[1.0, 0.0], [0.0, 1.0]])  # only u = (1, 1) has mass
    seed = next(s for s in range(50) if np.random.default_rng(s).random(1)[0] < 0.5)
    res = decode(spec, pins, seed=seed)  # frozen draw forces u1 = 0: contradiction
    assert res.failed
    assert res.message.shape == (1,)


# ---- agreement with exhaustive successive MAP


def _oracle_decode(spec, W, received, seed):
    """Exhaustive successive MAP; also reports the smallest decision margin.

    The margin is how far the block stays from a tied maximum (info leaf)
    or a shaping draw landing on a quantile boundary; when it underflows,
    the MAP decision is not unique and two exact implementations may
    legitimately split.
    """
    q, N = spec.field.q, spec.block_length
    leaves = spec.leaf_paths()
    variates = np.random.default_rng(seed).random(N - spec.dimension)
    Us = np.array(list(itertools.product(range(q), repeat=N)), dtype=np.int64)
    X = np.array([_encode_map_reference(spec, u) for u in Us])
    prior_w = np.prod(spec.input_dist[X], axis=1)
    ch_w = prior_w * np.prod(W.transition[X, received[None, :]], axis=1)
    mask = np.ones(len(Us), dtype=bool)
    decoded, fz, margin = [], 0, np.inf
    for j, leaf in enumerate(leaves):
        col = Us[:, j]
        if leaf in spec.info_set:
            scores = np.array([ch_w[mask & (col == a)].sum() for a in range(q)])
            total = scores.sum()
            if total > 0:
                top = np.sort(scores)[::-1]
                margin = min(margin, (top[0] - top[1]) / total)
            else:
                margin = 0.0
            u = int(np.argmax(scores))
            decoded.append(u)
        else:
            v = variates[fz]
            fz += 1
            cond = np.array([prior_w[mask & (col == a)].sum() for a in range(q)])
            cdf = np.cumsum(cond)
            u = min(int(np.searchsorted(cdf, v * cdf[-1], side="right")), q - 1)
            if cdf[-1] > 0:
                margin = min(
                    margin, min(abs(v - cdf[a] / cdf[-1]) for a in range(q - 1))
                )
        mask &= col == u
    return np.array(decoded, dtype=np.int64), margin


def _agreement_run(spec, W, blocks, seed0):
    rng = np.random.default_rng(seed0)
    tied = 0
    for trial in range(blocks):
        msg = rng.integers(0, spec.field.q, size=spec.dimension)
        x = encode(spec, msg, seed=seed0 + trial)
        y = sample_outputs(W, x, rng.random(x.shape[0]))
        got = decode(spec, y, seed=seed0 + trial, channel=W).message
        want, margin = _oracle_decode(spec, W, y, seed=seed0 + trial)
        if not np.array_equal(got, want):
            # any split must trace back to a mathematically tied decision,
            # where successive MAP is non-unique
            assert margin < 1e-9, f"divergence with clear margin {margin}"
            tied += 1
            continue
    assert tied <= blocks // 5, "too many blocks excused as ties"


def test_decoder_matches_successive_map_bec(bec_spec):
    _agreement_run(bec_spec, bec(0.5), 60, 1000)


def test_decoder_matches_successive_map_shaped_asymmetric():
    rng = np.random.default_rng(3)
    W = random_channel(F2, 3, rng)
    W = W.with_input(capacity_input(W))
    spec = construct(W, 2, 2, 0.2, FixedKernel(ARIKAN), seed=1)
    # relabel to exercise every leaf role, including shaping leaves
    leaves = spec.leaf_paths()
    spec = replace(
        spec,
        info_set=frozenset({leaves[3]}),
        frozen_class={leaves[0]: "B", leaves[1]: "C", leaves[2]: "C"},
    )
    _agreement_run(spec, W, 60, 2000)


def test_decoder_matches_successive_map_bsc_ell3():
    W = bsc(0.1)
    kern = sample_invertible(F2, 3, np.random.default_rng(8))
    spec = construct(W, 3, 2, 0.2, FixedKernel(kern), seed=2)
    _agreement_run(spec, W, 60, 3000)


def test_decoder_matches_successive_map_ternary():
    f3 = field_make(3)
    W = random_channel(f3, 3, np.random.default_rng(12))
    kern = sample_invertible(f3, 2, np.random.default_rng(13))
    spec = construct(W, 2, 2, 0.2, FixedKernel(kern), seed=3)
    _agreement_run(spec, W, 60, 4000)


# ---- simulation


def test_simulate_bec_fixture(bec_spec):
    out = simulate(bec_spec, bec(0.5), trials=400, seed=99)
    assert out["rate"] == pytest.approx(3 / 8)
    assert out["union_bound"] == pytest.approx(0.158203125, abs=1e-12)
    assert out["union_bound_exact"]
    assert out["du_per_block"] == 12
    sigma = math.sqrt(0.1582 * (1 - 0.1582) / 400)
    assert out["bler"] <= 0.158203125 + 4 * sigma
    assert 0 <= out["ber"] <= out["bler"]
    assert out["mdp_ratio"] >= 0
    again = simulate(bec_spec, bec(0.5), trials=400, seed=99)
    assert out == again


def test_simulate_reports_zero_mdp_when_every_block_fails(bec_spec):
    # |ln BLER| is 0 at BLER = 1, so the figure is undefined there as at BLER = 0
    out = simulate(bec_spec, bec(0.99), trials=1, seed=0)
    assert out["bler"] == 1.0
    assert out["mdp_ratio"] == 0.0


def test_simulate_validates(bec_spec):
    with pytest.raises(ValueError):
        simulate(bec_spec, bec(0.5), trials=0, seed=1)


# ---- serialization


def test_codespec_json_roundtrip(bec_spec):
    doc = json.loads(json.dumps(codespec_to_dict(bec_spec)))
    back = codespec_from_dict(doc)
    assert back.info_set == bec_spec.info_set
    assert back.frozen_class == bec_spec.frozen_class
    assert back.theta == bec_spec.theta
    for path in bec_spec.kernels:
        assert np.array_equal(back.kernels[path].entries, bec_spec.kernels[path].entries)
    msg = np.array([0, 1, 1])
    np.testing.assert_array_equal(encode(back, msg, seed=4), encode(bec_spec, msg, seed=4))
    assert back.leaf_stats[(1, 1, 1)].H_w == bec_spec.leaf_stats[(1, 1, 1)].H_w
