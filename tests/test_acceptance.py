"""Acceptance battery.

One test per acceptance check, ordered c01..c12.  Each prints a single
labeled PASS/FAIL line (visible with -s / on failure) and asserts the
check at its stated tolerance and time budget.  Frozen numbers are exact
values the library must keep reproducing; Monte Carlo comparisons carry
explicit 3-sigma margins.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from qpolar.channel import (
    bec,
    bsc,
    capacity_input,
    flatten,
    make_channel,
    random_channel,
    symmetrize,
    zchannel,
)
from qpolar.cli import render_json
from qpolar.codec import construct, decode, encode, node_posterior, simulate
from qpolar.ftpc import verify_ftpcs, verify_ftpcz
from qpolar.gf import arikan_kernel, field_make, field_matmul, mat_invert, sample_invertible
from qpolar.kernsearch import FixedKernel, certify_ldp, search
from qpolar.params import (
    gallager_e0,
    holder_report,
    param_vector,
    quadratic_check,
    second_moment,
)
from qpolar.procsim import check_local, gadget_bound, polarization_stats
from qpolar.transform import transform_all

F2 = field_make(2)
F3 = field_make(3)
F4 = field_make(2, 2)
F5 = field_make(5)

AR2 = arikan_kernel(F2)
AR3 = arikan_kernel(F3)
K33 = mat_invert(F2, np.array([[1, 0, 0], [1, 1, 0], [1, 0, 1]]))


def _finish(label: str, ok: bool, detail: str = "") -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label}: {detail}"


# ------------------------------------------------------------------ c01

def test_c01_one_step_entropy_conservation():
    """Child entropies of any invertible one-step combine sum to ell * parent."""
    t0 = time.time()
    rng = np.random.default_rng(10101)
    menu = []
    for field in (F2, F3, F4):
        menu += [(field, 2, m) for m in (2, 3, 4, 5)]
        menu += [(field, 3, m) for m in (2, 3, 4)]
        menu += [(field, 4, m) for m in (2, 3)]
    worst = 0.0
    for idx in range(500):
        field, ell, m = menu[rng.integers(len(menu))]
        W = random_channel(field, m, rng, random_input=bool(idx % 2))
        kern = sample_invertible(field, ell, rng)
        parent = param_vector(W).H
        kids = transform_all(W, kern, merge=False)
        resid = abs(sum(param_vector(sc).H for sc in kids) - ell * parent)
        worst = max(worst, resid)
    dt = time.time() - t0
    _finish(
        "c01 entropy conservation",
        worst <= 1e-9 and dt <= 60,
        f"500 pairs, worst residual {worst:.2e}, {dt:.1f}s",
    )


# ------------------------------------------------------------------ c02

def test_c02_coset_bound_checks_and_tight_equalities():
    """Enumerator bounds hold on random triples; erasure equalities are tight."""
    t0 = time.time()
    rng = np.random.default_rng(20202)
    menu = [(F2, 2), (F2, 3), (F2, 4), (F3, 2), (F3, 3), (F4, 2), (F4, 3)]
    fails_z = fails_s = 0
    for _ in range(200):
        field, ell = menu[rng.integers(len(menu))]
        W = random_channel(field, int(rng.integers(2, 4)), rng, random_input=False)
        kern = sample_invertible(field, ell, rng)
        i = int(rng.integers(1, ell + 1))
        if not verify_ftpcz(W, kern, i)["pass"]:
            fails_z += 1
    for _ in range(200):
        field, ell = menu[rng.integers(len(menu))]
        W = random_channel(field, int(rng.integers(2, 4)), rng, random_input=False)
        kern = sample_invertible(field, ell, rng)
        i = int(rng.integers(1, ell + 1))
        if not verify_ftpcs(W, kern, i)["pass"]:
            fails_s += 1
    repz = verify_ftpcz(bec(0.5), AR2, 2)
    reps = verify_ftpcs(bec(0.5), AR2, 1)
    tight = (
        abs(repz["lhs"] - 0.25) <= 1e-9
        and abs(repz["rhs"] - 0.25) <= 1e-9
        and abs(reps["lhs"] - 0.25) <= 1e-9
        and abs(reps["rhs"] - 0.25) <= 1e-9
    )
    dt = time.time() - t0
    _finish(
        "c02 coset weight bounds",
        fails_z == 0 and fails_s == 0 and tight and dt <= 60,
        f"200+200 triples, failures {fails_z}/{fails_s}, "
        f"tight pairs ({repz['lhs']:.6f},{repz['rhs']:.6f}) "
        f"({reps['lhs']:.6f},{reps['rhs']:.6f}), {dt:.1f}s",
    )


# ------------------------------------------------------------------ c03

def test_c03_erasure_recursion_is_exact():
    """One erasure step gives (2e - e^2, e^2); depth 3 at e=0.5 is the known ladder."""
    worst = 0.0
    for eps in (0.1, 0.25, 0.5, 0.9):
        kids = transform_all(bec(eps), AR2)
        h1 = param_vector(kids[0]).H
        h2 = param_vector(kids[1]).H
        worst = max(worst, abs(h1 - (2 * eps - eps * eps)), abs(h2 - eps * eps))
    level = [bec(0.5)]
    for _ in range(3):
        level = [sc for W in level for sc in transform_all(W, AR2)]
    got = sorted(param_vector(W).H for W in level)
    want = sorted(
        [0.99609375, 0.87890625, 0.80859375, 0.68359375,
         0.31640625, 0.19140625, 0.12109375, 0.00390625]
    )
    leaf_err = max(abs(g - w) for g, w in zip(got, want))
    _finish(
        "c03 erasure recursion",
        worst <= 1e-12 and leaf_err <= 1e-12,
        f"one-step worst {worst:.2e}, depth-3 worst {leaf_err:.2e}",
    )


# ------------------------------------------------------------------ c04

def test_c04_parameter_inequality_suite():
    """The full inter-parameter inequality report holds on random channels."""
    t0 = time.time()
    rng = np.random.default_rng(40404)
    bad = 0
    for field in (F2, F3, F4, F5):
        for idx in range(200):
            W = random_channel(field, int(rng.integers(2, 7)), rng, random_input=bool(idx % 2))
            if not holder_report(W)["ok"]:
                bad += 1
    dt = time.time() - t0
    _finish(
        "c04 parameter inequalities",
        bad == 0 and dt <= 60,
        f"800 channels, {bad} violations, {dt:.1f}s",
    )


# ------------------------------------------------------------------ c05

def test_c05_error_exponent_function():
    """E0 vanishes at 0, slopes to the mutual information, obeys the quadratic floor."""
    exact_zero = True
    slope_err = 0.0
    for W in (bsc(0.1), bec(0.3), bsc(0.35)):
        rep = gallager_e0(W, 0.0)
        exact_zero &= rep["e0"] == 0.0 and rep["e0_dual"] == 0.0
        h = 1e-5
        fd = (gallager_e0(W, h)["e0"] - gallager_e0(W, -h)["e0"]) / (2 * h)
        nats = param_vector(W).I * math.log(W.q)
        slope_err = max(slope_err, abs(fd - nats))
    rng = np.random.default_rng(50505)
    min_slack = math.inf
    for field in (F2, F3, F5):
        for _ in range(4):
            W = random_channel(field, int(rng.integers(2, 5)), rng, random_input=False)
            rep = quadratic_check(W)
            min_slack = min(min_slack, rep["min_slack"])
            assert rep["ok"]
    sm = second_moment(np.array([0.5, 0.5]))
    sm_ok = abs(sm - math.log(2) ** 2) <= 1e-15 and sm <= 0.563
    _finish(
        "c05 exponent function",
        exact_zero and slope_err <= 1e-4 and min_slack >= -1e-9 and sm_ok,
        f"slope err {slope_err:.2e}, quad slack {min_slack:.2e}, "
        f"coin moment {sm:.6f}",
    )


# ------------------------------------------------------------------ c06

def test_c06_symmetrized_channel_preserves_entropies():
    """Dithered wrapper keeps the parent and every child entropy, any kernel."""
    rng = np.random.default_rng(60606)
    worst = 0.0
    for idx in range(50):
        field = (F2, F3)[idx % 2]
        W = random_channel(field, int(rng.integers(2, 5)), rng, random_input=True)
        Wbar = symmetrize(W)
        worst = max(worst, abs(param_vector(Wbar).H - param_vector(W).H))
        if idx % 2 == 0:
            kern = arikan_kernel(field)
        else:
            kern = sample_invertible(field, int(rng.integers(2, 4)), rng)
        kw = transform_all(W, kern, merge=False)
        kb = transform_all(Wbar, kern, merge=False)
        for cw, cb in zip(kw, kb):
            worst = max(
                worst, abs(param_vector(cb).H - param_vector(cw).H)
            )
    _finish("c06 symmetrization identities", worst <= 1e-9, f"50 channels, worst {worst:.2e}")


# ------------------------------------------------------------------ c07

def _encode_basis(spec):
    """N x N generator of the leaf-to-codeword map (it is linear over the field)."""
    ell, n, N = spec.ell, spec.n, spec.block_length
    paths = list(itertools.product(range(1, ell + 1), repeat=n))
    basis = np.zeros((N, N), dtype=np.int64)
    for j in range(N):
        vecs = {path: np.array([1 if k == j else 0]) for k, path in enumerate(paths)}
        for depth in range(n - 1, -1, -1):
            for path in itertools.product(range(1, ell + 1), repeat=depth):
                kern = spec.kernels[path]
                kids = [vecs[path + (k,)] for k in range(1, ell + 1)]
                out = np.empty(ell * kids[0].shape[0], dtype=np.int64)
                for t in range(kids[0].shape[0]):
                    out[t * ell : (t + 1) * ell] = field_matmul(
                        spec.field, np.array([kid[t] for kid in kids]), kern.entries
                    )
                vecs[path] = out
        basis[j] = vecs[()]
    return basis


def _oracle_tables(spec):
    q, N = spec.field.q, spec.block_length
    Us = np.array(list(itertools.product(range(q), repeat=N)), dtype=np.int64)
    X = field_matmul(spec.field, Us, _encode_basis(spec))
    prior_w = np.prod(np.asarray(spec.input_dist)[X], axis=1)
    return Us, X, prior_w


def _oracle_decode(spec, W, y, seed, tables):
    """Successive MAP by total enumeration; returns (message, decision margin)."""
    q, N = spec.field.q, spec.block_length
    Us, X, prior_w = tables
    variates = np.random.default_rng(seed).random(N - spec.dimension)
    like = prior_w.copy()
    for j in range(N):
        like = like * W.transition[X[:, j], y[j]]
    mask = np.ones(len(Us), dtype=bool)
    decoded, fz, margin = [], 0, math.inf
    for j, leaf in enumerate(spec.leaf_paths()):
        col = Us[:, j]
        if leaf in spec.info_set:
            scores = np.array([like[mask & (col == a)].sum() for a in range(q)])
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
            if cdf[-1] > 0:
                u = min(int(np.searchsorted(cdf, v * cdf[-1], side="right")), q - 1)
                margin = min(
                    margin, min(abs(v - cdf[a] / cdf[-1]) for a in range(q - 1))
                )
            else:
                u = min(int(v * q), q - 1)
                margin = 0.0
        mask &= col == u
    return np.array(decoded, dtype=np.int64), margin


def _sample_y(W, x, rng):
    cdf = np.cumsum(W.transition, axis=1)
    y = (rng.random(x.shape[0])[:, None] >= cdf[x]).sum(axis=1)
    return np.minimum(y, W.output_size - 1)


def test_c07_decoder_equals_successive_map():
    """Engine decisions match total-enumeration successive MAP block by block."""
    rows3 = np.array([[0.95, 0.025, 0.025], [0.025, 0.95, 0.025], [0.025, 0.025, 0.95]])
    Wz = zchannel(0.3)
    Wz = Wz.with_input(capacity_input(Wz))
    fixtures = [
        ("bec8", bec(0.5), construct(bec(0.5), 2, 3, 0.2, FixedKernel(AR2), seed=42)),
        ("zchan4", Wz, construct(Wz, 2, 2, 0.2, FixedKernel(AR2), seed=7)),
        ("bsc9", bsc(0.1), construct(bsc(0.1), 3, 2, 0.2, FixedKernel(K33), seed=5)),
        (
            "tern4",
            make_channel(F3, rows3, input_dist=np.array([0.5, 0.3, 0.2])),
            construct(
                make_channel(F3, rows3, input_dist=np.array([0.5, 0.3, 0.2])),
                2, 2, 0.2, FixedKernel(AR3), seed=11,
            ),
        ),
    ]
    report = []
    for name, W, spec in fixtures:
        assert spec.block_length <= 9 and spec.dimension >= 1
        tables = _oracle_tables(spec)
        rng = np.random.default_rng(70707)
        tied = 0
        for trial in range(200):
            seed = 70_000 + trial
            msg = rng.integers(0, spec.field.q, size=spec.dimension)
            x = encode(spec, msg, seed=seed)
            y = _sample_y(W, x, rng)
            got = decode(spec, y, seed=seed, channel=W).message
            want, margin = _oracle_decode(spec, W, y, seed, tables)
            if not np.array_equal(got, want):
                assert margin < 1e-9, f"{name}: clear-margin divergence {margin}"
                tied += 1
        assert tied <= 40, f"{name}: {tied} tied blocks out of 200"
        report.append(f"{name} ties={tied}")
    # single-step posterior against the brute-force Bayes rule
    rng = np.random.default_rng(70708)
    worst = 0.0
    for _ in range(500):
        field = (F2, F3, F4)[rng.integers(3)]
        q = field.q
        ell = int(rng.integers(2, 5)) if q == 2 else int(rng.integers(2, 4))
        kern = sample_invertible(field, ell, rng)
        pins = rng.random((ell, q))
        pins /= pins.sum(axis=1, keepdims=True)
        i = int(rng.integers(1, ell + 1))
        decided = rng.integers(0, q, size=i - 1)
        got, ok = node_posterior(kern, pins, decided, i)
        assert ok
        ref = np.zeros(q)
        for u in itertools.product(range(q), repeat=ell):
            if list(u[: i - 1]) != list(decided):
                continue
            xv = field_matmul(field, np.array(u, dtype=np.int64), kern.entries)
            ref[u[i - 1]] += np.prod(pins[np.arange(ell), xv])
        ref /= ref.sum()
        worst = max(worst, float(np.max(np.abs(got - ref))))
    _finish(
        "c07 successive-MAP equivalence",
        worst <= 1e-12,
        f"4 specs x 200 blocks ({'; '.join(report)}), posterior worst {worst:.2e}",
    )


# ------------------------------------------------------------------ c08

def test_c08_end_to_end_error_rates_and_input_shaping():
    """Measured BLER sits under the leaf bound; encoder output follows the target law."""
    t0 = time.time()
    spec_b = construct(bec(0.5), 2, 3, 0.2, FixedKernel(AR2), seed=42)
    rep_b = simulate(spec_b, bec(0.5), trials=10_000, seed=80801)
    u_b = rep_b["union_bound"]
    sig_b = math.sqrt(u_b * (1 - u_b) / 10_000)
    ok_b = abs(u_b - 0.158203125) <= 1e-12 and rep_b["bler"] <= u_b + 3 * sig_b

    Wz = zchannel(0.3)
    Wz = Wz.with_input(capacity_input(Wz))
    spec_z = construct(Wz, 2, 4, 0.2, FixedKernel(AR2), seed=7)
    rep_z = simulate(spec_z, Wz, trials=10_000, seed=80802)
    u_z = rep_z["union_bound"]
    sig_z = math.sqrt(u_z * (1 - u_z) / 10_000)
    ok_z = rep_z["bler"] <= u_z + 3 * sig_z

    rng = np.random.default_rng(80803)
    counts = np.zeros(2)
    blocks = 3000
    for t in range(blocks):
        msg = rng.integers(0, 2, size=spec_z.dimension)
        x = encode(spec_z, msg, seed=90_000 + t)
        counts += np.bincount(x, minlength=2)
    emp = counts / counts.sum()
    tv = 0.5 * float(np.abs(emp - np.asarray(spec_z.input_dist)).sum())
    sig_tv = math.sqrt(0.25 / (blocks * spec_z.block_length))
    ok_tv = tv <= 0.02 + 3 * sig_tv
    dt = time.time() - t0
    _finish(
        "c08 end-to-end error and shaping",
        ok_b and ok_z and ok_tv and dt <= 300,
        f"bec bler {rep_b['bler']:.4f} <= {u_b + 3 * sig_b:.4f}; "
        f"zchan bler {rep_z['bler']:.4f} <= {u_z + 3 * sig_z:.4f}; "
        f"marginal tv {tv:.4f} <= {0.02 + 3 * sig_tv:.4f}; {dt:.0f}s",
    )


# ------------------------------------------------------------------ c09

def _erasure_leaf_entropies(eps, depth):
    hs = [eps]
    for _ in range(depth):
        hs = [h for e in hs for h in (2 * e - e * e, e * e)]
    return np.array(hs)


def test_c09_process_laws_and_polarization():
    """Local step laws hold on a sweep; sampled paths match the exact leaf census."""
    t0 = time.time()
    rng = np.random.default_rng(90909)
    nodes = [(bec(0.5), AR2), (bsc(0.1), AR2), (bec(0.1), AR2), (bsc(0.35), K33)]
    for _ in range(12):
        field = (F2, F3)[rng.integers(2)]
        W = random_channel(field, int(rng.integers(2, 5)), rng, random_input=False)
        kern = sample_invertible(field, int(rng.integers(2, 4)), rng)
        nodes.append((W, kern))
    worst_res = 0.0
    quartic_required = quartic_ok = 0
    for W, kern in nodes:
        rep = check_local(W, kern)
        worst_res = max(worst_res, rep["martingale_residual"])
        assert rep["martingale_ok"]
        sup = rep["supermartingale"]
        if sup["required"]:
            quartic_required += 1
            quartic_ok += int(sup["ok"])
    gadget_bad = [ell for ell in range(55, 257) if not gadget_bound(ell)["pass"]]

    paths = 10_000
    stats = polarization_stats(
        bec(0.5), FixedKernel(AR2), n=10, paths=paths, rng=np.random.default_rng(91001)
    )
    exact = _erasure_leaf_entropies(0.5, 10)
    p_low = float(np.mean(exact <= 0.01))
    p_high = float(np.mean(exact >= 0.99))
    d_low = abs(stats["frac_low"] - p_low)
    d_high = abs(stats["frac_high"] - p_high)
    s_low = 3 * math.sqrt(p_low * (1 - p_low) / paths)
    s_high = 3 * math.sqrt(p_high * (1 - p_high) / paths)
    dt = time.time() - t0
    _finish(
        "c09 process laws",
        worst_res <= 1e-9
        and quartic_ok == quartic_required
        and not gadget_bad
        and d_low <= s_low
        and d_high <= s_high
        and dt <= 300,
        f"residual {worst_res:.2e}; quartic {quartic_ok}/{quartic_required} "
        f"(preconditions bind only at large sizes); gadget 55..256 clean; "
        f"low {stats['frac_low']:.4f} vs {p_low:.4f}, "
        f"high {stats['frac_high']:.4f} vs {p_high:.4f}; {dt:.0f}s",
    )


# ------------------------------------------------------------------ c10

def test_c10_search_certificates_are_sound():
    """Accepted kernels verify against measured children; rejections re-verify."""
    fixtures = [
        (bsc(0.25), 2, (101, 102, 103)),
        (bsc(0.25), 3, (104, 105, 106)),
        (bsc(0.25), 4, (107, 108, 109)),
        (bsc(0.4), 3, (110, 111)),
        (bsc(0.4), 4, (112, 113)),
        (random_channel(F3, 3, np.random.default_rng(44), random_input=False), 2, (114,)),
        (random_channel(F3, 3, np.random.default_rng(45), random_input=False), 3, (115,)),
    ]
    accepted = 0
    witnesses = 0
    for W, ell, seeds in fixtures:
        V = flatten(W)
        pw, pv = param_vector(W), param_vector(V)
        for seed in seeds:
            rej = []
            kern = search(W, V, ell, 400, np.random.default_rng(seed), rejections=rej)
            accepted += 1
            # accepted kernel: measured children obey the distance-driven bounds
            q = W.q
            alpha = math.log(math.log(ell)) / math.log(ell) if ell >= 3 else None
            for side, parent, pvec in (("data", W, pw), ("randomness", V, pv)):
                kids = [param_vector(sc) for sc in transform_all(parent, kern)]
                z, s = pvec.Zmad, pvec.Smax
                spread = []
                for i, kid in enumerate(kids, start=1):
                    dz = -((-i * i) // (3 * ell))
                    ds_idx = ell + 1 - i
                    ds = -((-ds_idx * ds_idx) // (3 * ell))
                    z_cap = ell * math.exp(q * z * ell) * (q * z) ** dz
                    s_cap = ell * math.exp(q * s * ell) * (q * s) ** ds
                    assert kid.Zmad <= z_cap + 1e-12, (side, i, kid.Zmad, z_cap)
                    assert kid.Smax <= s_cap + 1e-12, (side, i, kid.Smax, s_cap)
                    spread.append(min(kid.H, 1 - kid.H))
                if alpha is not None:
                    lhs = float(np.mean(np.clip(spread, 0.0, None) ** alpha))
                    assert lhs < 4 * ell ** (alpha - 0.5)
            # every rejected candidate must reproduce its recorded violation
            for w in rej:
                cand = mat_invert(W.field, np.array(w["matrix"], dtype=np.int64))
                z, s = (pw.Zmad, pw.Smax) if w["side"] == "data" else (pv.Zmad, pv.Smax)
                rep = certify_ldp(cand, z, s)
                rec = rep["records"][w["i"] - 1]
                if w["reason"] == "min_weight":
                    assert rec["min_weight"] == w["min_weight"]
                    assert rec["dual_min_weight"] == w["dual_min_weight"]
                    assert min(rec["min_weight"], rec["dual_min_weight"]) < w["d"]
                elif w["reason"] == "overlap_poly":
                    assert abs(rec["ldp_z_lhs"] - w["lhs"]) <= 1e-12
                    assert rec["ldp_z_lhs"] > rec["ldp_z_rhs"]
                else:
                    assert abs(rec["ldp_s_lhs"] - w["lhs"]) <= 1e-12
                    assert rec["ldp_s_lhs"] > rec["ldp_s_rhs"]
                witnesses += 1
    _finish(
        "c10 certificate soundness",
        accepted == 15 and witnesses >= 5,
        f"{accepted} accepted kernels re-verified, {witnesses} rejection witnesses re-verified",
    )


# ------------------------------------------------------------------ c11

def test_c11_equal_seeds_reproduce_byte_identical_results():
    spec = construct(bec(0.5), 2, 3, 0.2, FixedKernel(AR2), seed=42)
    msg = np.array([1, 0, 1])
    ok = encode(spec, msg, seed=5).tobytes() == encode(spec, msg, seed=5).tobytes()
    y = np.array([0, 2, 1, 0, 2, 2, 1, 0])
    d1 = decode(spec, y, seed=5, channel=bec(0.5))
    d2 = decode(spec, y, seed=5, channel=bec(0.5))
    ok &= d1.message.tobytes() == d2.message.tobytes() and d1.failed == d2.failed
    k1 = sample_invertible(F3, 3, np.random.default_rng(77))
    k2 = sample_invertible(F3, 3, np.random.default_rng(77))
    ok &= k1.entries.tobytes() == k2.entries.tobytes()
    W = bsc(0.25)
    s1 = search(W, flatten(W), 3, 200, np.random.default_rng(13))
    s2 = search(W, flatten(W), 3, 200, np.random.default_rng(13))
    ok &= s1.entries.tobytes() == s2.entries.tobytes()
    r1 = simulate(spec, bec(0.5), trials=200, seed=99)
    r2 = simulate(spec, bec(0.5), trials=200, seed=99)
    ok &= render_json(r1) == render_json(r2)
    _finish("c11 seeded determinism", ok, "encode/decode/sampler/search/simulate")


# ------------------------------------------------------------------ c12

def test_c12_decoding_unit_count_matches_contract():
    """Instrumented DU activations equal n * ell^(n-1) exactly."""
    cases = [
        (construct(bec(0.5), 2, 3, 0.2, FixedKernel(AR2), seed=42), bec(0.5), 12),
        (construct(bsc(0.1), 3, 2, 0.2, FixedKernel(K33), seed=5), bsc(0.1), 6),
        (construct(bec(0.5), 2, 1, 0.2, FixedKernel(AR2), seed=1), bec(0.5), 1),
        (construct(bec(0.5), 2, 4, 0.2, FixedKernel(AR2), seed=2), bec(0.5), 32),
    ]
    got = []
    rng = np.random.default_rng(121212)
    for spec, W, want in cases:
        msg = rng.integers(0, spec.field.q, size=spec.dimension)
        x = encode(spec, msg, seed=3)
        y = _sample_y(W, x, rng)
        res = decode(spec, y, seed=3, channel=W)
        got.append(res.du_activations)
        assert res.du_activations == want, (spec.ell, spec.n)
    _finish("c12 decoding-unit count", True, f"counts {got} == [12, 6, 1, 32]")
