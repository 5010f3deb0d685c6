"""Parameter calculus: frozen values, invariants, inequality web, exponents."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpolar
from qpolar.channel import (
    Channel,
    bec,
    derived_distributions,
    bsc,
    flatten,
    make_channel,
    random_channel,
    symmetrize,
    zchannel,
)
from qpolar.gf import field_make, sample_invertible
from qpolar.params import (
    ParamVector,
    _field_tables,
    gallager_e0,
    holder_report,
    param_vector,
    quadratic_check,
    second_moment,
)
from qpolar.transform import transform

LN2SQ = math.log(2) ** 2


def _entropy_base_q(dist, q):
    d = np.asarray(dist)
    mask = d > 0
    return float(-np.sum(np.where(mask, d * np.log(np.where(mask, d, 1.0)), 0.0)) / np.log(q))


def _random_uniform_channel(seed):
    rng = np.random.default_rng(seed)
    p, m = [(2, 1), (3, 1), (2, 2), (5, 1)][int(rng.integers(0, 4))]
    return random_channel(field_make(p, m), int(rng.integers(2, 6)), rng)


# ------------------------------------------------------------ frozen values

def test_param_vector_bec_half():
    pv = param_vector(bec(0.5))
    assert pv.H == pytest.approx(0.5, abs=1e-12)
    assert pv.I == pytest.approx(0.5, abs=1e-12)
    assert pv.Pe == pytest.approx(0.25, abs=1e-12)
    assert pv.Z == pytest.approx(0.5, abs=1e-12)
    assert pv.Zmad == pytest.approx(0.5, abs=1e-12)
    assert pv.T == pytest.approx(0.5, abs=1e-12)
    assert pv.S == pytest.approx(0.5, abs=1e-12)
    assert pv.Smax == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("eps", [0.1, 0.35, 0.8])
def test_bec_family_closed_forms(eps):
    pv = param_vector(bec(eps))
    assert pv.H == pytest.approx(eps, abs=1e-12)
    assert pv.Z == pytest.approx(eps, abs=1e-12)
    assert pv.Pe == pytest.approx(eps / 2, abs=1e-12)
    assert pv.S == pytest.approx(1 - eps, abs=1e-12)


@pytest.mark.parametrize("delta", [0.05, 0.11, 0.4])
def test_bsc_closed_forms(delta):
    pv = param_vector(bsc(delta))
    assert pv.Z == pytest.approx(2 * math.sqrt(delta * (1 - delta)), abs=1e-12)
    assert pv.Pe == pytest.approx(delta, abs=1e-12)
    assert pv.Zmad == pv.Z and pv.Smax == pv.S


def test_noiseless_channel_extremes():
    q = 3
    W = make_channel(field_make(q), np.eye(q))
    pv = param_vector(W)
    assert pv.H == pytest.approx(0.0, abs=1e-12)
    assert pv.Pe == pytest.approx(0.0, abs=1e-12)
    assert pv.Z == pytest.approx(0.0, abs=1e-12)
    assert pv.T == pytest.approx(2 * (q - 1) / q, abs=1e-12)
    assert pv.S == pytest.approx(1.0, abs=1e-12)
    assert pv.Smax == pytest.approx(1.0, abs=1e-12)


def test_useless_channel_extremes():
    q = 4
    W = flatten(make_channel(field_make(2, 2), np.eye(q)))
    pv = param_vector(W)
    assert pv.H == pytest.approx(1.0, abs=1e-12)
    assert pv.I == pytest.approx(0.0, abs=1e-12)
    assert pv.Z == pytest.approx(1.0, abs=1e-12)
    assert pv.Zmad == pytest.approx(1.0, abs=1e-12)
    assert pv.T == pytest.approx(0.0, abs=1e-12)
    assert pv.S == pytest.approx(0.0, abs=1e-12)
    assert pv.Pe == pytest.approx(1 - 1 / q, abs=1e-12)


# -------------------------------------------------------------- invariants

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_param_invariants_random_channels(seed):
    W = _random_uniform_channel(seed)
    pv = param_vector(W)
    q = pv.q
    for val in (pv.H, pv.Pe, pv.Z, pv.Zmad, pv.T, pv.S, pv.Smax):
        assert val >= -1e-12
    assert pv.H <= 1 + 1e-12
    assert pv.Pe <= 1 - 1 / q + 1e-12
    assert pv.Z <= pv.Zmad + 1e-12
    assert pv.Zmad <= (q - 1) * pv.Z + 1e-9
    assert pv.Zmad <= q - 1 + 1e-9
    assert pv.S <= pv.Smax + 1e-12
    assert pv.Smax <= (q - 1) * pv.S + 1e-9
    # H and I are computed independently; together they tile the input entropy
    h_in = _entropy_base_q(W.input_dist, q)
    assert pv.H + pv.I == pytest.approx(h_in, abs=1e-9)


def test_binary_collapse_is_exact():
    rng = np.random.default_rng(77)
    for _ in range(20):
        W = random_channel(field_make(2), int(rng.integers(2, 7)), rng)
        pv = param_vector(W)
        assert pv.Z == pv.Zmad
        assert pv.S == pv.Smax


def _xlogy(x, y):
    """x*log(y) with the 0*log(0) = 0 convention."""
    mask = x > 0
    return np.where(mask, x * np.log(np.where(mask, y, 1.0)), 0.0)


def _param_vector_reference(W):
    """Reference: ``param_vector`` as plain whole-array expressions, one temporary each."""
    q = W.q
    shifts = _field_tables(W.field)[0]
    d = W.derived
    joint, out, post = d.joint, d.output, d.posterior
    lnq = math.log(q)

    # H and I are entropies in base-q symbols: rounding past [0, 1] is cut off
    H = min(float(-_xlogy(joint, post).sum()) / lnq, 1.0)

    prod = W.input_dist[:, None] * out[None, :]
    I = float(_xlogy(joint, np.where(joint > 0, joint / np.where(joint > 0, prod, 1.0), 1.0)).sum()) / lnq
    I = min(max(I, 0.0), 1.0)

    # the joint mass off each column's largest entry: row by row, the
    # smaller of the running maximum and the next row joins it
    off, big = np.minimum(joint[0], joint[1]), np.maximum(joint[0], joint[1])
    for row in joint[2:]:
        off = off + np.minimum(big, row)
        big = np.maximum(big, row)
    Pe = float(off.sum())

    R = np.sqrt(joint)
    overlaps = np.empty(q - 1)
    for k, shift in enumerate(shifts):
        overlaps[k] = float((R * R[shift, :]).sum())
    Z = float(overlaps.sum() / (q - 1))
    Zmad = float(overlaps.max())

    T = float(np.abs(joint - out[None, :] / q).sum())

    xs = np.arange(q)
    chi = W.field.char(W.field.mul(xs[:, None], xs[None, :]))
    weights = []
    for w in range(1, q):
        re = (post * chi.real[w][:, None]).sum(axis=0)
        if W.field.p == 2:  # the characters are +-1
            mod = np.abs(re)
        else:
            im = (post * chi.imag[w][:, None]).sum(axis=0)
            mod = np.sqrt(re * re + im * im)
        weights.append((mod * out).sum())
    S = float(np.mean(weights))
    Smax = float(np.max(weights))

    return ParamVector(q=q, H=H, I=I, Pe=Pe, Z=Z, Zmad=Zmad, T=T, S=S, Smax=Smax)


_PV_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@st.composite
def param_cases(draw):
    """A channel over GF(2, 3, 4, 5, 7, 9) with 1 to 300 outputs, or a merged synthesis.

    Transition entries are zeroed at random and some outputs are dead (zero
    in every row); the input law is uniform, random, or random with
    zero-mass symbols, which kill more outputs.  A synthesis is taken at a
    random position of a random 2x2 kernel from a channel of 1 to 8 outputs.
    """
    field = field_make(*draw(st.sampled_from(_PV_FIELDS)))
    q = field.q
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    synthesize = draw(st.booleans())
    M = draw(st.integers(1, 8 if synthesize else 300))
    T = rng.dirichlet(np.ones(M), size=q) * (rng.random((q, M)) < 0.7)
    T[:, rng.random(M) < 0.2] = 0.0
    T[np.arange(q), rng.integers(0, M, q)] += 0.5  # every row keeps some mass
    T /= T.sum(axis=1, keepdims=True)
    law = draw(st.sampled_from(["uniform", "random", "zeros"]))
    dist = np.full(q, 1.0 / q) if law == "uniform" else rng.dirichlet(np.ones(q))
    if law == "zeros":
        dist[rng.random(q) < 0.5] = 0.0
        dist[int(rng.integers(q))] += 1.0 - dist.sum()
    W = make_channel(field, T, dist / dist.sum())
    if synthesize:
        W = transform(W, sample_invertible(field, 2, rng), draw(st.integers(1, 2)))
    return W


@given(param_cases())
@settings(max_examples=300, deadline=None)
def test_param_vector_matches_the_reference_bitwise(W):
    pv = param_vector(W)
    assert pv == _param_vector_reference(W)
    assert 0.0 <= pv.H <= 1.0 and 0.0 <= pv.I <= 1.0


@given(param_cases())
@settings(max_examples=100, deadline=None)
def test_pe_is_the_joint_mass_off_each_columns_largest_entry(W):
    # from the definition, added exactly: no cancellation against 1 - max
    # P(x|y), so Pe is within rounding of the exact sum even where it is tiny
    off = [math.fsum(sorted(col)[:-1]) for col in W.derived.joint.T.tolist()]
    assert param_vector(W).Pe == pytest.approx(math.fsum(off), rel=1e-13, abs=0.0)


_BLAS_PROBE = """
import hashlib
import numpy as np
from qpolar.channel import capacity_input, random_channel
from qpolar.gf import arikan_kernel, field_make
from qpolar.params import param_vector
from qpolar.transform import transform
h = hashlib.sha256()
for seed, (p, m) in enumerate([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]):
    F = field_make(p, m)
    W = random_channel(F, 7, np.random.default_rng(seed), random_input=True)
    h.update(capacity_input(W).tobytes())
    for i in (1, 2):
        V = transform(W, arikan_kernel(F), i)
        h.update(np.array(list(param_vector(V).as_dict().values())).tobytes())
print(h.hexdigest())
"""


def test_parameters_and_capacity_input_do_not_depend_on_the_blas_kernel():
    # S, Smax and the capacity search once went through zgemm and dgemv,
    # whose bits depend on the kernel OpenBLAS picks for the CPU; the same
    # probe must hash alike with the kernel pinned to Nehalem (ignored by
    # other BLAS builds) as with the one picked here
    src = str(Path(qpolar.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    digests = []
    for extra in ({}, {"OPENBLAS_CORETYPE": "Nehalem"}):
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE],
            env={**base, **extra},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


# --------------------------------------------------------- inequality web

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_holder_report_random_channels(seed):
    rep = holder_report(_random_uniform_channel(seed))
    assert rep["ok"], {k: v for k, v in rep["checks"].items() if not v["ok"]}


@pytest.mark.parametrize(
    "W", [bec(0.0), bec(1.0), bsc(0.5), bec(0.5), bsc(0.0)], ids=lambda w: "edge"
)
def test_holder_report_edge_channels(W):
    rep = holder_report(W)
    assert rep["ok"], rep["checks"]


def test_holder_report_structure():
    rep = holder_report(bec(0.3))
    assert set(rep) == {"params", "checks", "ok"}
    for entry in rep["checks"].values():
        assert set(entry) == {"lhs", "rhs", "ok"}
        assert entry["lhs"] <= entry["rhs"] + 1e-9


# ---------------------------------------------------------------- exponents

def test_gallager_e0_bec_frozen():
    out = gallager_e0(bec(0.5), 1.0)
    assert out["e0"] == pytest.approx(math.log(4 / 3), abs=1e-12)


def test_gallager_e0_zero_is_exact_zero():
    for W in (bec(0.3), bsc(0.12), symmetrize(zchannel(0.4))):
        out = gallager_e0(W, 0.0)
        assert out["e0"] == 0.0 and out["e0_dual"] == 0.0


def test_gallager_duality_uniform_input():
    rng = np.random.default_rng(5)
    for _ in range(15):
        W = random_channel(field_make(3), 4, rng)
        t = float(rng.uniform(-0.4, 1.0))
        out = gallager_e0(W, t)
        assert out["e0"] + out["e0_dual"] == pytest.approx(t * math.log(3), abs=1e-12)


def test_gallager_rejects_nonuniform_and_bad_t():
    W = bsc(0.2).with_input([0.3, 0.7])
    with pytest.raises(ValueError, match="uniform"):
        gallager_e0(W, 0.5)
    with pytest.raises(ValueError):
        gallager_e0(bsc(0.2), 1.5)
    with pytest.raises(ValueError):
        gallager_e0(bsc(0.2), -0.5)


def test_gallager_derivative_at_zero_is_mutual_info():
    h = 1e-5
    for W in (bec(0.5), bsc(0.11), random_channel(field_make(2, 2), 5, np.random.default_rng(3))):
        pv = param_vector(W)
        fd = (gallager_e0(W, h)["e0"] - gallager_e0(W, -h)["e0"]) / (2 * h)
        assert abs(fd - pv.I * math.log(W.q)) <= 1e-4


# ------------------------------------------------------------------ tilting

def _tilted(W, t):
    """Exponentially tilt the joint law by 1/(1+t) and renormalise.

    Returns a channel whose joint distribution is

        J_t(x,y) = A(y)^(1+t)/Z * J(x,y)^(1/(1+t))/A(y),
        A(y) = sum_x J(x,y)^(1/(1+t)),

    i.e. the output law is reweighted by A(y)^(1+t) and each posterior is
    power-tilted.  t = 0 returns W itself.
    """
    if not -0.4 <= t <= 1.0:
        raise ValueError(f"tilt parameter {t} outside [-2/5, 1]")
    if np.any(W.input_dist <= 0):
        raise ValueError("tilting needs a full-support input distribution")
    if t == 0.0:
        return W
    a = 1.0 / (1.0 + t)
    joint = derived_distributions(W).joint
    powered = np.power(joint, a)
    A = powered.sum(axis=0)
    out_t = np.power(A, 1.0 + t)
    out_t /= out_t.sum()
    post_t = powered / np.where(A > 0, A, 1.0)[None, :]
    joint_t = post_t * out_t[None, :]
    marg = joint_t.sum(axis=1)
    trans = joint_t / marg[:, None]
    return Channel(W.field, trans, marg)


def test_tilted_identity_at_zero():
    # checks only the helper, which test_tilted_derivative_matches_conditional_entropy relies on
    W = bsc(0.2)
    assert _tilted(W, 0.0) is W


def test_tilted_matches_direct_formula():
    # checks only the helper, which test_tilted_derivative_matches_conditional_entropy relies on
    W = random_channel(field_make(3), 4, np.random.default_rng(8))
    t = 0.6
    V = _tilted(W, t)
    a = 1 / (1 + t)
    J = W.input_dist[:, None] * W.transition
    A = (J**a).sum(axis=0)
    expect = (A ** (1 + t) / (A ** (1 + t)).sum())[None, :] * (J**a) / A[None, :]
    got = V.input_dist[:, None] * V.transition
    np.testing.assert_allclose(got, expect, atol=1e-14)


def test_tilted_derivative_matches_conditional_entropy():
    # d/dt of the dual exponent equals the tilted conditional entropy (nats)
    h = 1e-5
    rng = np.random.default_rng(13)
    for t in (-0.2, 0.0, 0.3, 0.8):
        W = random_channel(field_make(2), 4, rng)
        fd = (
            gallager_e0(W, t + h)["e0_dual"] - gallager_e0(W, t - h)["e0_dual"]
        ) / (2 * h)
        V = _tilted(W, t)
        assert abs(fd - param_vector(V).H * math.log(V.q)) <= 1e-4


def test_tilted_validates():
    # checks only the helper, which test_tilted_derivative_matches_conditional_entropy relies on
    with pytest.raises(ValueError):
        _tilted(bsc(0.2), 1.2)
    with pytest.raises(ValueError):
        _tilted(bsc(0.2).with_input([1.0, 0.0]), 0.5)


# ------------------------------------------------------------ second moment

def test_second_moment_frozen_and_bounds():
    assert second_moment([0.5, 0.5]) == pytest.approx(LN2SQ, abs=1e-12)
    assert LN2SQ <= 0.563
    # sweep the binary simplex: the maximum sits near w = 0.161, below 0.563
    xs = np.linspace(1e-12, 1 - 1e-12, 20001)
    vals = [second_moment([x, 1 - x]) for x in xs[:: len(xs) // 200]]
    assert max(vals) <= 0.563


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_second_moment_q_bounds(q):
    lnq2 = math.log(q) ** 2
    assert second_moment([1.0 / q] * q) == pytest.approx(lnq2, abs=1e-12)
    rng = np.random.default_rng(q)
    for _ in range(200):
        w = rng.dirichlet(np.full(q, 0.4))
        sm = second_moment(w)
        assert sm <= 1.2 * lnq2 + 1e-12


def test_second_moment_validates():
    with pytest.raises(ValueError):
        second_moment([0.7, 0.7])
    with pytest.raises(ValueError):
        second_moment([1.2, -0.2])


# ------------------------------------------------------------- quadratic

def test_quadratic_check_bec_and_random():
    rep = quadratic_check(bec(0.5))
    assert rep["ok"], rep
    rng = np.random.default_rng(31)
    for q in (2, 3):
        W = random_channel(field_make(q), 4, rng)
        rep = quadratic_check(W)
        assert rep["slack_ok"] and rep["curvature_ok"]
