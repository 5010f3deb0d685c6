import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolar import procsim
from qpolar import transform as transform_module
from qpolar.channel import bec, bsc, random_channel
from qpolar.gf import arikan_kernel, field_make, sample_invertible
from qpolar.kernsearch import FixedKernel, SearchKernels
from qpolar.params import param_vector
from qpolar.procsim import (
    check_local,
    gadget_bound,
    polarization_stats,
    sample_path,
)
from qpolar.transform import transform

F2 = field_make(2)
ARIKAN = arikan_kernel(F2)


def _bec_leaf_entropies(eps: float, n: int) -> np.ndarray:
    cur = [eps]
    for _ in range(n):
        cur = [v for e in cur for v in (2 * e - e * e, e * e)]
    return np.array(cur)


# ---- path sampling


def test_sample_path_matches_erasure_recursion():
    rng = np.random.default_rng(7)
    trace = sample_path(bec(0.5), FixedKernel(ARIKAN), 8, rng)
    assert trace.steps[0].depth == 0
    assert trace.steps[0].position == 0
    assert trace.steps[0].H == pytest.approx(0.5, abs=1e-12)
    eps = 0.5
    for step in trace.steps[1:]:
        eps = 2 * eps - eps * eps if step.position == 1 else eps * eps
        assert step.H == pytest.approx(eps, abs=1e-12)
        assert step.exact
        assert step.output_size <= 3
    assert len(trace.path) == 8


def test_sample_path_deterministic():
    a = sample_path(bec(0.4), FixedKernel(ARIKAN), 6, np.random.default_rng(123))
    b = sample_path(bec(0.4), FixedKernel(ARIKAN), 6, np.random.default_rng(123))
    assert a == b
    # the records skip the generated __init__ but compare, hash and print
    # as records built through it
    for step in a.steps:
        built = procsim.StepRecord(**dataclasses.asdict(step))
        assert (step == built, hash(step) == hash(built), repr(step) == repr(built)) == (True,) * 3


def test_sample_path_quantization_flips_exact_flag(monkeypatch):
    # Guard 100: on these BSC paths the 21-output channel at depth 4 or 5
    # is the first whose next synthesis (21^2 = 441 outputs) overruns it.
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 100)
    coarsened_at = []
    for seed in (0, 1):
        trace = sample_path(
            bsc(0.11), FixedKernel(ARIKAN), 6, np.random.default_rng(seed), quantize_resolution=64
        )
        # replay: each record is the unbinned synthesis of its parent, which
        # quantize_to_fit coarsens only when that synthesis would overrun
        parent, exact = bsc(0.11), True
        for step in trace.steps[1:]:
            parent, shrunk = transform_module.quantize_to_fit(
                parent, 2, step.position, 64, where="replay"
            )
            if shrunk:
                coarsened_at.append((seed, step.depth))
            exact = exact and not shrunk
            parent = transform(parent, ARIKAN, step.position)
            pv = param_vector(parent)
            assert (step.H, step.Zmad, step.Smax) == (pv.H, pv.Zmad, pv.Smax)
            assert step.output_size == parent.output_size
            assert step.exact == exact
        assert not trace.final.exact
    # seed 0 coarsens at depth 5 and synthesizes its last step from a parent
    # that fits; seed 1 coarsens the parent of its last step
    assert coarsened_at == [(0, 5), (1, 6)]


def test_quantized_census_below_the_guard_is_the_exact_census():
    # BSC(0.11) to depth 6 never nears the guard of 10^7 outputs, so a
    # resolution bins nothing and the census is the unquantized one
    def census(**kw):
        rng = np.random.default_rng(0)
        return polarization_stats(bsc(0.11), FixedKernel(ARIKAN), 6, 20, rng, **kw)

    exact = census()
    assert exact["exact"]
    assert census(quantize_resolution=64) == exact


def test_quantized_walk_gives_up_when_resolution_one_stays_over_the_guard(monkeypatch):
    # the search certifies both positions, so the one-output parent still
    # needs a 2^1 * 1^2 = 2-symbol synthesis over guard 1
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 1)
    message = (
        "channel at depth 1 needs a 2-symbol synthesis even after quantizing at "
        "resolution 1, over the guard 1"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_path(
            bsc(0.11),
            SearchKernels(ell=2, budget=10),
            2,
            np.random.default_rng(0),
            quantize_resolution=4,
        )


@pytest.mark.parametrize("seed", [0, 5])
def test_quantized_sample_path_coarsens_to_fit_the_guard(seed, monkeypatch):
    # With guard 2000 these BSC paths outgrow the guard: unquantized they
    # raise, quantized they are coarsened before the synthesis that would
    # overrun it.
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 2000)
    with pytest.raises(ValueError, match="over the guard 2000"):
        sample_path(bsc(0.11), FixedKernel(ARIKAN), 6, np.random.default_rng(seed))
    trace = sample_path(
        bsc(0.11), FixedKernel(ARIKAN), 6, np.random.default_rng(seed), quantize_resolution=16
    )
    assert not trace.final.exact
    assert all(0.0 <= s.H <= 1.0 for s in trace.steps)
    replay = np.random.default_rng(seed)  # coarsening draws no randomness
    assert trace.path == tuple(int(replay.integers(1, 3)) for _ in range(6))


@pytest.mark.parametrize("seed", [0, 2])
def test_quantized_search_path_coarsens_before_the_search(seed, monkeypatch):
    # Certifying an ell=3 candidate synthesizes all three positions, a
    # 108-symbol alphabet over guard 100 on these paths: the channels must be
    # coarsened before the search, not only before the chosen synthesis.
    policy = SearchKernels(ell=3, budget=200)
    monkeypatch.setattr(transform_module, "DEFAULT_GUARD", 100)
    with pytest.raises(ValueError, match="over the guard 100"):
        sample_path(bsc(0.11), policy, 3, np.random.default_rng(seed))
    trace = sample_path(
        bsc(0.11), policy, 3, np.random.default_rng(seed), quantize_resolution=16
    )
    assert not trace.final.exact
    assert all(0.0 <= s.H <= 1.0 for s in trace.steps)


def test_polarization_stats_needs_a_path():
    with pytest.raises(ValueError, match="at least one path"):
        polarization_stats(bec(0.5), FixedKernel(ARIKAN), 2, 0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n, resolution, match",
    [(-1, None, "depth must be at least 0"), (2, 0, "resolution must be at least 1"),
     (2, -5, "resolution must be at least 1"),
     (2, 2**53 + 1, r"resolution must be at most 2\^53, got 9007199254740993")],
    ids=["depth-negative", "resolution-zero", "resolution-negative", "resolution-past-2^53"],
)
def test_process_refuses_a_bad_depth_or_resolution(n, resolution, match):
    policy = FixedKernel(ARIKAN)
    with pytest.raises(ValueError, match=match):
        sample_path(bec(0.5), policy, n, np.random.default_rng(0), quantize_resolution=resolution)
    with pytest.raises(ValueError, match=match):
        polarization_stats(
            bec(0.5), policy, n, 3, np.random.default_rng(0), quantize_resolution=resolution
        )


@pytest.mark.parametrize(
    "thresholds",
    [(0.9, 0.1), (0.5, 0.5), (-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5)],
    ids=["swapped", "equal", "low-negative", "high-above-one", "low-nan"],
)
def test_polarization_stats_refuses_bad_thresholds(thresholds):
    with pytest.raises(ValueError, match="thresholds must satisfy"):
        polarization_stats(
            bec(0.5), FixedKernel(ARIKAN), 2, 3, np.random.default_rng(0), thresholds=thresholds
        )


def test_depth_zero_is_the_root_alone():
    trace = sample_path(bec(0.5), FixedKernel(ARIKAN), 0, np.random.default_rng(0))
    assert trace.path == () and trace.final.H == 0.5
    stats = polarization_stats(
        bec(0.5), FixedKernel(ARIKAN), 0, 2, np.random.default_rng(0), thresholds=(0.0, 1.0)
    )
    assert stats["depth"] == 0 and stats["frac_middle"] == 1.0


def test_sample_path_search_policy_runs():
    rng = np.random.default_rng(11)
    trace = sample_path(bec(0.5), SearchKernels(ell=2, budget=50), 3, rng)
    assert len(trace.steps) == 4
    assert all(s.exact for s in trace.steps)
    assert all(1 <= p <= 2 for p in trace.path)


# ---- endpoint statistics


def test_polarization_stats_against_exact_leaves():
    paths = 1500
    stats = polarization_stats(
        bec(0.5), FixedKernel(ARIKAN), 10, paths, np.random.default_rng(17)
    )
    leaves = _bec_leaf_entropies(0.5, 10)
    for key, exact in [
        ("frac_low", float(np.mean(leaves <= 0.01))),
        ("frac_high", float(np.mean(leaves >= 0.99))),
    ]:
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / paths)
        assert abs(stats[key] - exact) <= 4 * sigma + 1e-9, key
    total = stats["frac_low"] + stats["frac_high"] + stats["frac_middle"]
    assert total == pytest.approx(1.0, abs=1e-12)
    assert stats["exact"]
    assert len(stats["final_entropies"]) == paths


# ---- one-step law checks


def test_check_local_bec_arikan_frozen():
    report = check_local(bec(0.5), ARIKAN)
    assert report["martingale_residual"] <= 1e-12
    assert report["martingale_ok"] and report["expansion_ok"]
    assert report["spread"] is None and not report["cl_satisfied"]
    sm = report["supermartingale"]
    # children have Zmad 0.75 and 0.25; the fourth roots both exceed 1/4,
    # so both sides saturate at the cap and the step holds with equality.
    assert sm["lhs"] == pytest.approx(0.25, abs=1e-12)
    assert sm["rhs"] == pytest.approx(0.25, abs=1e-12)
    assert not sm["required"]
    assert sm["ok"] and report["ok"]


def test_check_local_accepts_synth_node():
    node = transform(bec(0.5), ARIKAN, 2)
    report = check_local(node, ARIKAN)
    assert report["ok"]
    assert report["martingale_residual"] <= 1e-9


def test_check_local_reports_spread_at_ell_three():
    f3 = field_make(3)
    kern = sample_invertible(f3, 3, np.random.default_rng(3))
    W = random_channel(f3, 4, np.random.default_rng(4))
    report = check_local(W, kern)
    spread = report["spread"]
    assert spread is not None
    assert spread["alpha"] == pytest.approx(math.log(math.log(3)) / math.log(3))
    assert not spread["required"]  # ell=3 is far below the size threshold
    assert report["ok"]  # only conservation + expansion bind here


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_check_local_required_checks_hold(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.choice([2, 3]))
    f = field_make(q)
    ell = int(rng.choice([2, 3]))
    kern = sample_invertible(f, ell, rng)
    W = random_channel(f, int(rng.integers(2, 6)), rng)
    report = check_local(W, kern)
    assert report["martingale_ok"]
    assert report["expansion_ok"]
    assert report["ok"]


# ---- distance-profile average bound


def test_gadget_bound_small_ell_frozen():
    rep = gadget_bound(3)
    assert rep["lhs"] == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    alpha = math.log(math.log(3)) / math.log(3)
    assert rep["rhs"] == pytest.approx(3 ** (-0.5 + 2 * alpha), abs=1e-12)
    assert not rep["required"]
    assert not rep["pass"]  # lhs ~ 1.155 exceeds rhs ~ 0.70 at this size


def test_gadget_bound_sweep_holds_when_required():
    for ell in range(55, 257):
        rep = gadget_bound(ell)
        assert rep["required"]
        assert rep["pass"], ell


def test_gadget_bound_rejects_tiny_ell():
    with pytest.raises(ValueError):
        gadget_bound(2)
