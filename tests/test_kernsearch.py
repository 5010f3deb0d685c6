"""Kernel certification, search determinism, failure-rate estimation."""

import math
import time

import numpy as np
import pytest

from qpolar import ftpc, kernsearch
from qpolar import transform as transform_module
from qpolar.channel import bec, flatten
from qpolar.ftpc import coset_enumerator, coset_enumerators, dual_coset_enumerator
from qpolar.gf import arikan_kernel, field_make, mat_invert, sample_invertible
from qpolar.kernsearch import (
    FixedKernel,
    SearchKernels,
    certify_clt,
    certify_ldp,
    empirical_failure_rate,
    search,
)
from qpolar.params import param_vector

F2 = field_make(2)
ARIKAN = arikan_kernel(F2)


# ---------------------------------------------------------------- weights

def test_min_coset_weight_frozen():
    assert coset_enumerator(ARIKAN, 1).min_weight == 1
    assert coset_enumerator(ARIKAN, 2).min_weight == 2


def test_identity_kernel_min_weights_are_one():
    kern = mat_invert(field_make(3), np.eye(9, dtype=int))
    assert coset_enumerator(kern, 9).min_weight == 1


# ------------------------------------------------------------ certificates

def test_certify_ldp_arikan_frozen_numbers():
    rep = certify_ldp(ARIKAN, 0.1, 0.1)
    assert rep["pass"]
    r1, r2 = rep["records"]
    assert r1["d"] == 1 and r2["d"] == 1
    assert not r1["phase1_required"] and not r2["phase1_required"]
    assert r1["ldp_z_lhs"] == pytest.approx(0.2)
    assert r1["ldp_z_rhs"] == pytest.approx(0.22)
    assert r2["ldp_z_lhs"] == pytest.approx(0.01)
    assert r2["ldp_z_rhs"] == pytest.approx(0.22)
    # record i pairs the primal coset at i with the dual coset at ell+1-i
    assert r1["ldp_s_lhs"] == pytest.approx(0.2)
    assert r2["ldp_s_lhs"] == pytest.approx(0.01)


def test_certify_ldp_rejects_big_identity():
    # the coset at the last position of a size-9 identity has weight 1 < 3
    kern = mat_invert(field_make(3), np.eye(9, dtype=int))
    rep = certify_ldp(kern, 0.05, 0.05)
    assert not rep["pass"]
    last = rep["records"][-1]
    assert last["phase1_required"] and not last["phase1_ok"]
    assert last["d"] == 3 and last["min_weight"] == 1


def test_certify_clt_small_kernel_is_trivial():
    kern = sample_invertible(F2, 4, np.random.default_rng(0))
    rep = certify_clt(kern, bec(0.5))
    alpha = math.log(math.log(4)) / math.log(4)
    assert rep["alpha"] == pytest.approx(alpha)
    assert rep["rhs"] == pytest.approx(4 * 4 ** (alpha - 0.5))
    assert rep["trivial"] and rep["pass"]
    assert len(rep["entropies"]) == 4


def test_certify_clt_requires_ell_three():
    with pytest.raises(ValueError):
        certify_clt(ARIKAN, bec(0.5))


def test_certify_clt_raises_over_the_guard(monkeypatch):
    kern = sample_invertible(F2, 3, np.random.default_rng(5))
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 4)
    with pytest.raises(ValueError):
        certify_clt(kern, bec(0.5))


# ----------------------------------------------------------------- search

def test_search_deterministic_and_certified():
    W, V = bec(0.5), flatten(bec(0.5))
    a = search(W, V, 4, 100, np.random.default_rng(33))
    b = search(W, V, 4, 100, np.random.default_rng(33))
    np.testing.assert_array_equal(a.entries, b.entries)
    zs = 0.5  # Zmad and Smax of both channels at erasure half
    assert certify_ldp(a, zs, zs)["pass"]
    assert certify_clt(a, W)["pass"]


def test_search_rejections_are_reverifiable():
    W, V = bec(0.5), flatten(bec(0.5))
    rejections: list[dict] = []
    search(W, V, 4, 200, np.random.default_rng(12345), rejections=rejections)
    for wit in rejections:
        kern = mat_invert(F2, np.asarray(wit["matrix"]))
        if wit["reason"] == "min_weight":
            prim = coset_enumerator(kern, wit["i"]).min_weight
            dual = dual_coset_enumerator(kern, kern.ell + 1 - wit["i"]).min_weight
            assert wit["min_weight"] == prim and wit["dual_min_weight"] == dual
            assert min(prim, dual) < wit["d"]
        elif wit["reason"] == "overlap_poly":
            assert coset_enumerator(kern, wit["i"]).evaluate(0.5) == pytest.approx(wit["lhs"])
            assert wit["lhs"] > wit["rhs"]
        elif wit["reason"] == "correlation_poly":
            assert dual_coset_enumerator(kern, kern.ell + 1 - wit["i"]).evaluate(
                0.5
            ) == pytest.approx(wit["lhs"])
            assert wit["lhs"] > wit["rhs"]


def test_search_budget_exhaustion():
    with pytest.raises(ValueError, match="budget"):
        search(bec(0.5), flatten(bec(0.5)), 4, 0, np.random.default_rng(0))


def test_search_small_kernels_skip_spread_certificate():
    kern = search(bec(0.5), flatten(bec(0.5)), 2, 10, np.random.default_rng(7))
    assert kern.ell == 2


# ------------------------------------------------------------ failure rate

def test_empirical_failure_rate_f2_ell8():
    rep = empirical_failure_rate(8, 2, 0.1, 40, np.random.default_rng(3))
    assert rep["bound"] == pytest.approx(3 * 2 ** (-math.sqrt(8) / 13))
    assert not rep["binding"]  # ceiling above 1 carries no content
    assert 0.0 <= rep["rate"] <= 1.0
    assert len(rep["witnesses"]) == int(rep["rate"] * 40 + 0.5)
    for wit in rep["witnesses"]:
        kern = mat_invert(field_make(2), np.asarray(wit["matrix"]))
        if wit["reason"] == "min_weight":
            assert coset_enumerator(kern, wit["i"]).min_weight == wit["min_weight"]
            assert wit["min_weight"] < wit["d"]
        else:
            assert coset_enumerator(kern, wit["i"]).evaluate(0.1) == pytest.approx(wit["lhs"])
            assert wit["lhs"] > wit["rhs"]


def test_empirical_failure_rate_validates_alphabet():
    with pytest.raises(ValueError):
        empirical_failure_rate(4, 6, 0.1, 5, np.random.default_rng(0))


@pytest.mark.parametrize("q", [2**61 - 1, 2**17, 1, 0])
def test_empirical_failure_rate_refuses_a_field_size_out_of_range_at_once(q):
    # 2^61 - 1 is prime: trial division of it ran until killed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="outside 2..65536"):
        empirical_failure_rate(2, q, 0.3, 1, np.random.default_rng(0))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p, m", [(2, 1), (2, 3), (3, 3), (5, 3), (7, 2), (2, 8), (3, 5)])
def test_empirical_failure_rate_finds_the_extension_degree_exactly(monkeypatch, p, m):
    made = []
    monkeypatch.setattr(kernsearch, "field_make", lambda *pm: made.append(pm) or field_make(*pm))
    empirical_failure_rate(2, p**m, 0.3, 1, np.random.default_rng(0))
    assert made == [(p, m)]


def _failure_rate_loop(ell, q, z, trials, rng):
    """The census one kernel at a time, as it was before the batched sweep."""
    field = field_make(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    failures, witnesses = 0, []
    for _ in range(trials):
        kern = sample_invertible(field, ell, rng)
        for i, prim in enumerate(coset_enumerators(kern), start=1):
            phase1_ok, lhs, rhs, phase2_ok = kernsearch._phases(prim, i, q, z)
            if not phase1_ok:
                witness = {"reason": "min_weight", "i": i,
                           "d": kernsearch._distance_target(i, ell), "min_weight": prim.min_weight}
            elif not phase2_ok:
                witness = {"reason": "overlap_poly", "i": i, "lhs": lhs, "rhs": rhs}
            else:
                continue
            witness["matrix"] = kern.entries.tolist()
            failures += 1
            witnesses.append(witness)
            break
    return failures / trials, witnesses


@pytest.mark.parametrize("block_words", [None, 64])
@pytest.mark.parametrize("ell, q, z", [(10, 2, 0.2), (7, 2, 0.05), (7, 3, 0.3), (10, 4, 0.3),
                                       (5, 4, 0.02)])
def test_empirical_failure_rate_equals_a_loop_over_kernels(monkeypatch, block_words, ell, q, z):
    # 64-word blocks split the kernels into batches of 1 to 8, and the
    # GF(4) 10x10 sweeps into blocks; the report must not move
    if block_words:
        monkeypatch.setattr(ftpc, "_BLOCK_WORDS", block_words)
    for seed in range(3):
        rep = empirical_failure_rate(ell, q, z, 13, np.random.default_rng(seed))
        rate, witnesses = _failure_rate_loop(ell, q, z, 13, np.random.default_rng(seed))
        assert rep["rate"] == rate and rep["witnesses"] == witnesses


@pytest.mark.parametrize("ell, q, trials, block_words", [(8, 4, 20, None), (8, 2, 21, 64)])
def test_empirical_failure_rate_draws_each_kernel_once(monkeypatch, ell, q, trials, block_words):
    # the benchmark's census (one batch of 20) and batches of 8, 8 and 5:
    # one sample_invertible call per trial, as the benchmark traces
    calls = []
    draw = kernsearch.sample_invertible
    monkeypatch.setattr(kernsearch, "sample_invertible", lambda *a: calls.append(a) or draw(*a))
    if block_words:
        monkeypatch.setattr(ftpc, "_BLOCK_WORDS", block_words)
    empirical_failure_rate(ell, q, 0.3, trials, np.random.default_rng(0))
    assert len(calls) == trials


@pytest.mark.parametrize("ell", [0, -3])
def test_empirical_failure_rate_needs_a_kernel(ell):
    with pytest.raises(ValueError, match="kernel size must be positive"):
        empirical_failure_rate(ell, 2, 0.3, 5, np.random.default_rng(0))


def test_empirical_failure_rate_checks_the_guard_before_drawing(monkeypatch):
    # GF(2) 52x52 sweeps 2^25-word spans, past the guard of 2^24
    monkeypatch.setattr(kernsearch, "sample_invertible", None)
    with pytest.raises(ValueError, match="coset of size 33554432 exceeds enumeration guard"):
        empirical_failure_rate(52, 2, 0.3, 5, np.random.default_rng(0))


def test_empirical_failure_rate_needs_a_trial():
    with pytest.raises(ValueError, match="at least one trial"):
        empirical_failure_rate(4, 2, 0.3, 0, np.random.default_rng(0))


@pytest.mark.parametrize("z, s", [(math.nan, 0.3), (0.3, math.inf), (-math.inf, 0.3)])
def test_certify_ldp_refuses_a_non_finite_point(z, s):
    name = "z" if not math.isfinite(z) else "s"
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        certify_ldp(ARIKAN, z, s)


@pytest.mark.parametrize("z", [math.nan, math.inf])
def test_empirical_failure_rate_refuses_a_non_finite_z(z):
    with pytest.raises(ValueError, match="z must be finite"):
        empirical_failure_rate(4, 2, z, 5, np.random.default_rng(0))


@pytest.mark.parametrize("ell, q, z", [(8, 2, 0.3), (5, 3, 0.6), (4, 4, 0.1)])
def test_empirical_failure_rate_fails_what_certify_ldp_fails_on_the_primal_side(ell, q, z):
    rep = empirical_failure_rate(ell, q, z, 15, np.random.default_rng(21))
    # replay the same kernel draws through the full certificate
    field = field_make(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    rng = np.random.default_rng(21)
    failed = []
    for _ in range(15):
        kern = sample_invertible(field, ell, rng)
        records = certify_ldp(kern, z, z)["records"]
        if any(
            (r["phase1_required"] and r["min_weight"] < r["d"]) or not r["ldp_z_ok"]
            for r in records
        ):
            failed.append(kern.entries.tolist())
    assert [w["matrix"] for w in rep["witnesses"]] == failed
    assert rep["rate"] == len(failed) / 15


def test_policy_configs():
    pol = FixedKernel(kernel=ARIKAN)
    assert pol.kernel.ell == 2
    sp = SearchKernels(ell=3, budget=50)
    assert sp.ell == 3 and sp.budget == 50


# The full reports at (ell, q, z, trials) = (8, 4, 0.3, 20), as the
# per-position enumerator computed them: any change to the order in which
# positions are tried, or to a reported number, changes one of them.
_GOLDEN_WITNESSES = {
    1010: [
        ("min_weight", 8, 3, 2, [[0, 1, 3, 3, 2, 1, 2, 1], [3, 1, 3, 0, 1, 2, 3, 3],
                                 [2, 0, 1, 0, 3, 1, 3, 3], [2, 0, 3, 1, 2, 2, 2, 3],
                                 [0, 3, 1, 3, 3, 2, 2, 2], [2, 0, 1, 2, 1, 3, 1, 3],
                                 [3, 2, 2, 2, 1, 0, 1, 2], [1, 0, 0, 1, 0, 0, 0, 0]]),
    ],
    1011: [],
    1012: [
        ("min_weight", 8, 3, 1, [[1, 1, 2, 3, 1, 3, 2, 0], [3, 1, 3, 0, 0, 3, 0, 0],
                                 [2, 3, 0, 2, 3, 3, 0, 0], [2, 1, 1, 3, 3, 0, 1, 0],
                                 [0, 3, 0, 3, 2, 2, 2, 3], [2, 1, 0, 1, 0, 1, 0, 3],
                                 [3, 1, 3, 3, 0, 2, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]]),
        ("min_weight", 5, 2, 1, [[1, 3, 2, 2, 3, 0, 2, 2], [2, 3, 2, 1, 1, 1, 2, 0],
                                 [2, 0, 3, 2, 1, 2, 0, 2], [2, 1, 0, 2, 2, 0, 1, 1],
                                 [3, 1, 2, 1, 3, 2, 2, 3], [1, 0, 3, 0, 0, 0, 0, 3],
                                 [0, 3, 2, 0, 3, 3, 0, 1], [2, 0, 3, 1, 1, 2, 1, 3]]),
    ],
    1013: [
        ("min_weight", 5, 2, 1, [[1, 2, 0, 1, 2, 2, 0, 2], [0, 0, 1, 0, 0, 2, 1, 1],
                                 [1, 1, 0, 3, 1, 2, 1, 0], [2, 2, 2, 2, 1, 0, 2, 1],
                                 [0, 2, 0, 0, 3, 2, 1, 3], [2, 3, 3, 0, 3, 1, 2, 2],
                                 [1, 1, 2, 3, 1, 3, 0, 2], [2, 2, 3, 3, 3, 3, 3, 2]]),
    ],
    1014: [],
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_WITNESSES))
def test_empirical_failure_rate_golden_reports(seed):
    rep = empirical_failure_rate(8, 4, 0.3, 20, np.random.default_rng(seed))
    want = [
        {"reason": reason, "i": i, "d": d, "min_weight": w, "matrix": matrix}
        for reason, i, d, w, matrix in _GOLDEN_WITNESSES[seed]
    ]
    assert rep == {
        "rate": len(want) / 20,
        "bound": 2.21886188135586,
        "binding": False,
        "trials": 20,
        "witnesses": want,
    }


@pytest.mark.parametrize(
    "z, s", [(-0.5, 0.3), (1e300, 0.3), (0.3, 1.5), (0.3, -1e-12), (1.0 + 2e-9, 0.3)]
)
def test_certify_ldp_refuses_a_point_outside_the_unit_interval(z, s):
    name = "z" if not 0 <= z <= 1 else "s"
    with pytest.raises(ValueError, match=f"{name} must lie in \\[0, 1\\]"):
        certify_ldp(ARIKAN, z, s)


@pytest.mark.parametrize("z", [-0.5, 1e300])
def test_empirical_failure_rate_refuses_a_z_outside_the_unit_interval(z):
    with pytest.raises(ValueError, match="z must lie in \\[0, 1\\]"):
        empirical_failure_rate(4, 2, z, 5, np.random.default_rng(0))


def test_certify_ldp_keeps_the_rounding_slack_above_one():
    # Zmad of a flattened binary channel rounds to 1.0000000000000002, and
    # search certifies the noise companion there
    one = param_vector(flatten(bec(0.5))).Zmad
    rep = certify_ldp(ARIKAN, one, 1.0)
    assert rep["z"] == one and rep["s"] == 1.0
    assert certify_ldp(ARIKAN, 0.0, 0.0)["pass"]
