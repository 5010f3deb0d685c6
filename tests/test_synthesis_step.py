"""One synthesis step against a frozen copy of the code it replaced, bit for bit.

``transform``, the derived law and ``param_vector`` were rewritten to
make fewer numpy calls per step (a word table per kernel position, ufunc
reductions without the ndarray wrappers, no error-state context, split
flags written in place).  The functions below are the earlier bodies, kept
here as the reference: every result must match them in every bit, on
random channels with dead outputs and zero-mass input symbols, over GF(2),
GF(3), GF(4) and GF(5), at every position of random 2x2 and 3x3 kernels.

The exceptions.  The lossless merge has a new rule, so a merged child is
compared with ``merge_outputs`` of the earlier raw law; the rule itself is
checked against its dense oracle in tests/test_channel.py and against exact
rational syntheses in tests/test_exact_reference.py.  ``quantize_merge``
of the raw law is compared with the dense oracle of tests/merge_oracle.py,
the one reference of both merges.  S and Smax are
compared with ``_ref_correlations``, a restatement of their rule without
BLAS products, H and I are kept inside [0, 1] as ``param_vector`` now
keeps them, and Pe is the joint mass off each column's largest entry, as
``param_vector`` now adds it (one minus the largest posterior cancels near
1); the other functionals keep the earlier code as their reference.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolar.channel import (
    Channel,
    DerivedDists,
    bsc,
    derived_distributions,
    make_channel,
    merge_outputs,
)
from qpolar.gf import field_make, sample_invertible
from qpolar.params import ParamVector, _field_tables, param_vector
from qpolar.transform import quantize_merge, transform

from merge_oracle import oracle_quantize_merge

# ------------------------------------------------------ the earlier code


def _ref_posterior(W):
    post = W.input_dist[:, None] * W.transition
    output = post.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        post /= output
    dead = output <= 0.0
    if dead.any():
        post[:, dead] = 1.0 / W.q
    return post, output


def _ref_derived(W):
    joint = W.input_dist[:, None] * W.transition
    posterior, output = _ref_posterior(W)
    return DerivedDists(joint=joint, output=output, posterior=posterior)


def _ref_raw_law(joint, kernel, i):
    q, ell = kernel.field.q, kernel.ell
    words = q**i
    perm = np.arange(q**ell).reshape(q ** (i - 1), q, q ** (ell - i)).T.ravel()
    table = kernel.completions[perm]
    stacked = np.concatenate([joint] * ell)
    A = None
    for lo in range(0, table.shape[0], words):
        rows = stacked[table[lo : lo + words]]
        w = rows[:, 0]
        for j in range(1, ell):
            w = (w[:, :, None] * rows[:, j, None, :]).reshape(words, -1)
        if A is None:
            A = w.reshape(q, -1)
        else:
            A += w.reshape(q, -1)
    mass = A.sum(axis=1)
    A /= np.where(mass > 0, mass, 1.0)[:, None]
    A[mass <= 0] = 1.0 / A.shape[1]
    return A, mass


def _ref_transform(W, kernel, i, merge):
    out = Channel._owned(W.field, *_ref_raw_law(_ref_derived(W).joint, kernel, i))
    return merge_outputs(out) if merge else out


def _ref_param_vector(W):
    q = W.q
    shifts = _field_tables(W.field)[0]
    d = _ref_derived(W)
    joint, out, post = d.joint, d.output, d.posterior
    lnq = math.log(q)
    live = joint > 0
    buf = np.empty_like(joint)

    def xlogy(x):
        np.log(buf, out=buf)
        np.multiply(x, buf, out=buf, where=live)
        return float(buf.sum())

    buf.fill(1.0)
    np.copyto(buf, post, where=live)
    H = min(-xlogy(joint) / lnq, 1.0)

    buf.fill(1.0)
    np.multiply(W.input_dist[:, None], out, out=buf, where=live)
    np.divide(joint, buf, out=buf, where=live)
    I = min(max(xlogy(joint) / lnq, 0.0), 1.0)

    col = np.empty_like(out)
    off, big = buf[0], buf[1]
    np.minimum(joint[0], joint[1], out=off)
    for k in range(2, q):
        np.maximum.reduce(joint[:k], axis=0, out=big)
        off += np.minimum(big, joint[k], out=col)
    Pe = float(off.sum())

    R = np.sqrt(joint)
    overlaps = np.empty(q - 1)
    for k, shift in enumerate(shifts):
        np.take(R, shift, axis=0, out=buf, mode="clip")
        overlaps[k] = float(np.multiply(R, buf, out=buf).sum())
    Z = float(overlaps.sum() / (q - 1))
    Zmad = float(overlaps.max())

    np.subtract(joint, np.divide(out, q, out=col), out=buf)
    T = float(np.abs(buf, out=buf).sum())

    S, Smax = _ref_correlations(W.field, post, out)
    return ParamVector(q=q, H=H, I=I, Pe=Pe, Z=Z, Zmad=Zmad, T=T, S=S, Smax=Smax)


def _ref_correlations(field, post, out):
    """S and Smax, restated: the earlier code took them by BLAS products.

    ``abs(chi @ post) @ out`` went through zgemm and dgemv, so its bits
    depended on the CPU kernel OpenBLAS picked.  The rule now: for each
    character w = 1..q-1, the posterior rows scaled by chi(w z) are added
    by one sum over the symbol axis, real and imaginary parts apart; the
    modulus is |re| for p = 2 (the characters are +-1) and sqrt(re^2 +
    im^2) otherwise; the weight is the sum of modulus * P(y).
    """
    xs = np.arange(field.q)
    chi = field.char(field.mul(xs[:, None], xs[None, :]))
    weights = []
    for w in range(1, field.q):
        re = (post * chi.real[w][:, None]).sum(axis=0)
        if field.p == 2:
            mod = np.abs(re)
        else:
            im = (post * chi.imag[w][:, None]).sum(axis=0)
            mod = np.sqrt(re * re + im * im)
        weights.append((mod * out).sum())
    weights = np.array(weights)
    return float(weights.mean()), float(weights.max())


# ------------------------------------------------------------ the checks


def _same_channel(got, want):
    assert got.output_size == want.output_size
    assert got.transition.tobytes() == want.transition.tobytes()
    assert got.input_dist.tobytes() == want.input_dist.tobytes()


def _same_params(got, want):
    # == would let -0.0 pass for 0.0; the bits must agree
    assert np.array(list(got.as_dict().values())).tobytes() == np.array(
        list(want.as_dict().values())
    ).tobytes()


@st.composite
def step_cases(draw):
    """A channel over GF(2), GF(3), GF(4) or GF(5), a 2x2 or 3x3 kernel and a position.

    Transition entries are zeroed at random, a share of the outputs is dead
    (zero in every row) and some columns repeat others, so merges see ties;
    half the input laws have zero-mass symbols, which give zero rows in the
    joint and in the raw synthesis.
    """
    field = field_make(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    q = field.q
    ell = draw(st.integers(2, 3))
    M = draw(st.integers(1, 5 if ell == 2 or q < 4 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = rng.dirichlet(np.ones(M), size=q) * (rng.random((q, M)) < 0.7)
    T = T[:, rng.integers(0, M, M)] if draw(st.booleans()) else T
    T[:, rng.random(M) < 0.25] = 0.0
    T[np.arange(q), rng.integers(0, M, q)] += 0.5  # every row keeps some mass
    T /= T.sum(axis=1, keepdims=True)
    dist = rng.dirichlet(np.ones(q))
    if draw(st.booleans()):
        dist[rng.random(q) < 0.5] = 0.0
        dist[int(rng.integers(q))] += 1.0 - dist.sum()
    W = make_channel(field, T, dist / dist.sum())
    return W, sample_invertible(field, ell, rng), draw(st.integers(1, ell))


@given(step_cases(), st.sampled_from([1, 3, 64]))
@settings(max_examples=300, deadline=None)
def test_synthesis_step_matches_the_earlier_code_bitwise(case, resolution):
    W, kern, i = case
    raw = transform(W, kern, i, merge=False)
    _same_channel(raw, _ref_transform(W, kern, i, merge=False))
    child = transform(W, kern, i)
    _same_channel(child, _ref_transform(W, kern, i, merge=True))
    _same_channel(quantize_merge(raw, resolution), oracle_quantize_merge(raw, resolution))
    for V in (W, raw, child):
        got, want = derived_distributions(V), _ref_derived(V)
        for name in ("joint", "output", "posterior"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        _same_params(param_vector(V), _ref_param_vector(V))


def test_param_vector_is_kept_per_channel():
    W = bsc(0.11)
    pv = param_vector(W)
    assert param_vector(W) is pv
    # the record skips the generated __init__ but compares, hashes and
    # prints as one built through it
    built = ParamVector(**pv.as_dict())
    assert (pv == built, hash(pv) == hash(built), repr(pv) == repr(built)) == (True,) * 3
    # a channel made by with_input is another object with its own parameters
    V = W.with_input([0.3, 0.7])
    assert param_vector(V) is not pv and param_vector(V) is param_vector(V)
    _same_params(param_vector(V), _ref_param_vector(V))
    same_law = W.with_input(W.input_dist)
    assert param_vector(same_law) is not pv
    _same_params(param_vector(same_law), pv)
