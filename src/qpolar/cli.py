"""Command-line front end.

Everything prints deterministic JSON (or CSV for traces): floats are
rendered with 17 significant digits so equal runs are byte-identical and
values round-trip exactly.  Stochastic subcommands require an explicit
seed.  Exit codes: 0 success, 1 usage/validation problem, 2 a `verify`
suite failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .channel import (
    Channel,
    _document,
    _typed,
    bec,
    bsc,
    channel_from_dict,
    flatten,
    random_channel,
    symmetrize,
    zchannel,
)
from .codec import (
    codespec_from_dict,
    codespec_to_dict,
    construct,
    decode,
    encode,
    simulate_counts,
    summarize_counts,
)
from .ftpc import coset_enumerators, dual_coset_enumerators, verify_ftpcs, verify_ftpcz
from .gf import Kernel, arikan_kernel, field_make, mat_invert, sample_invertible
from .kernsearch import FixedKernel, SearchKernels, certify_ldp, search
from .params import holder_report, param_vector, quadratic_check
from .procsim import StepRecord, check_local, gadget_bound, polarization_stats, sample_path
from .transform import transform, transform_all

__all__ = ["main", "render_json"]


# ------------------------------------------------------------- rendering

def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def render_json(obj, _ind: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit floats.

    Raises ``ValueError`` on a NaN or infinite float, which JSON cannot hold.
    """
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot render the non-finite float {obj} as JSON")
        return _fmt_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad, inner_pad = "  " * _ind, "  " * (_ind + 1)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner_pad + render_json(v, _ind + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner_pad}{json.dumps(str(k))}: {render_json(v, _ind + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj)!r}")


def _emit(obj) -> None:
    sys.stdout.write(render_json(obj) + "\n")


def _csv_cell(value) -> str:
    """A trace CSV cell: a flag as 0/1, a float at 17 digits, an integer as is."""
    if isinstance(value, bool):
        return str(int(value))
    return _fmt_float(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------- arg plumbing

class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # default argparse would sys.exit(2)
        raise _CliError(message)


def _add_channel_opts(p: argparse.ArgumentParser, required: bool = True) -> None:
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--channel", metavar="FILE", help="channel description JSON")
    g.add_argument("--bec", type=float, metavar="EPS", help="binary erasure channel")
    g.add_argument("--bsc", type=float, metavar="DELTA", help="binary symmetric channel")
    g.add_argument("--zchan", type=float, metavar="EPS", help="binary Z channel")


def _resolve_channel(args) -> Channel:
    if args.channel is not None:
        with open(args.channel) as fh:
            return channel_from_dict(json.load(fh))
    if args.bec is not None:
        return bec(args.bec)
    if args.bsc is not None:
        return bsc(args.bsc)
    if args.zchan is not None:
        return zchannel(args.zchan)
    raise _CliError("a channel is required (--channel/--bec/--bsc/--zchan)")


def _add_kernel_opts(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--kernel", metavar="FILE", help="kernel JSON with p, m, matrix")
    g.add_argument("--arikan", action="store_true", help="the [[1,0],[1,1]] kernel")


def _load_kernel(path: str) -> Kernel:
    with open(path) as fh:
        doc = _document(json.load(fh), "kernel")
    f = field_make(
        _typed(operator.index, doc["p"], "p", "kernel"),
        _typed(operator.index, doc.get("m", 1), "m", "kernel"),
    )
    return mat_invert(f, doc["matrix"])


def _resolve_kernel(args, default_field=None) -> Kernel:
    if args.kernel is not None:
        return _load_kernel(args.kernel)
    if args.arikan or default_field is not None:
        f = default_field if default_field is not None else field_make(2)
        return arikan_kernel(f)
    raise _CliError("a kernel is required (--kernel FILE or --arikan)")


def _kernel_doc(kern: Kernel) -> dict:
    return {
        "p": kern.field.p,
        "m": kern.field.m,
        "ell": kern.ell,
        "matrix": kern.entries.tolist(),
    }


def _child_doc(index: int, child: Channel) -> dict:
    return {
        "index": index,
        "output_size": child.output_size,
        "params": param_vector(child).as_dict(),
    }


def _parse_symbols(text: str) -> np.ndarray:
    try:
        return np.array([int(t) for t in text.split(",") if t.strip() != ""], dtype=np.int64)
    except ValueError as exc:
        raise _CliError(f"bad symbol list {text!r}") from exc


def _load_spec(path: str):
    with open(path) as fh:
        return codespec_from_dict(json.load(fh))


# ------------------------------------------------------------- handlers

def _cmd_params(args) -> int:
    W = _resolve_channel(args)
    out = {"params": param_vector(W).as_dict()}
    if args.holder:
        out["holder"] = holder_report(W)
    _emit(out)
    return 0


def _cmd_transform(args) -> int:
    W = _resolve_channel(args)
    kern = _resolve_kernel(args, default_field=W.field if args.arikan else None)
    merge = not args.no_merge
    if args.index is not None:
        _emit(_child_doc(args.index, transform(W, kern, args.index, merge=merge)))
        return 0
    kids = transform_all(W, kern, merge=merge)
    _emit(
        {
            "parent": param_vector(W).as_dict(),
            "children": [_child_doc(i, child) for i, child in enumerate(kids, 1)],
        }
    )
    return 0


def _cmd_kernel(args) -> int:
    if args.search:
        if args.seed is None:
            raise _CliError("--search needs --seed")
        W = _resolve_channel(args)
        kern = search(
            W, flatten(W), args.ell, args.budget, np.random.default_rng(args.seed)
        )
        _emit(_kernel_doc(kern))
        return 0
    if args.certify is not None:
        kern = _resolve_kernel(args)
        z, s = args.certify
        _emit(certify_ldp(kern, z, s))
        return 0
    kern = _resolve_kernel(args)
    rows = [
        {"position": i, "min_weight": prim.min_weight, "dual_min_weight": dual.min_weight}
        for i, (prim, dual) in enumerate(
            zip(coset_enumerators(kern), dual_coset_enumerators(kern)), start=1
        )
    ]
    _emit({"ell": kern.ell, "q": kern.field.q, "positions": rows})
    return 0


def _cmd_construct(args) -> int:
    W = _resolve_channel(args)
    if args.search_budget is not None:
        policy = SearchKernels(ell=args.ell, budget=args.search_budget)
    else:
        kern = _resolve_kernel(args, default_field=W.field)
        policy = FixedKernel(kern)
    spec = construct(W, args.ell, args.depth, args.pi, policy, args.seed)
    if args.summary:
        _emit(
            {
                "block_length": spec.block_length,
                "dimension": spec.dimension,
                "rate": spec.rate,
                "theta": spec.theta,
                "union_bound": spec.union_bound,
                "shaping_leaves": sum(1 for c in spec.frozen_class.values() if c == "C"),
            }
        )
        return 0
    _emit(codespec_to_dict(spec))
    return 0


def _cmd_encode(args) -> int:
    spec = _load_spec(args.spec)
    msg = _parse_symbols(args.message)
    _emit({"codeword": encode(spec, msg, args.seed).tolist()})
    return 0


def _cmd_decode(args) -> int:
    spec = _load_spec(args.spec)
    if args.posteriors is not None:
        with open(args.posteriors) as fh:
            doc = json.load(fh)
        try:
            received = np.array(doc, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError("a posteriors file must hold an (N, q) array of numbers") from exc
        res = decode(spec, received, args.seed)
    else:
        if args.received is None:
            raise _CliError("provide --received with a channel, or --posteriors FILE")
        W = _resolve_channel(args)
        res = decode(spec, _parse_symbols(args.received), args.seed, channel=W)
    _emit(
        {
            "message": res.message.tolist(),
            "failed": res.failed,
            "du_activations": res.du_activations,
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    W = _resolve_channel(args)
    # Contiguous shards of the per-trial streams of one master sequence:
    # their merged tallies match a sequential run bit for bit.
    streams = np.random.SeedSequence(args.seed).spawn(max(args.trials, 0))
    jobs = max(args.jobs, 1)
    bounds = [len(streams) * j // jobs for j in range(jobs + 1)]
    shards = [streams[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    tally = partial(simulate_counts, spec, W)
    if len(shards) > 1:
        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            parts = list(pool.map(tally, shards))
    else:
        parts = list(map(tally, shards))
    _emit(summarize_counts(spec, W, parts))
    return 0


def _cmd_process(args) -> int:
    W = _resolve_channel(args)
    if args.search_budget is not None:
        if args.ell is None:
            raise _CliError("--search-budget needs --ell")
        policy = SearchKernels(ell=args.ell, budget=args.search_budget)
    else:
        policy = FixedKernel(_resolve_kernel(args, default_field=W.field))
    rng = np.random.default_rng(args.seed)
    if args.trace:
        trace = sample_path(
            W, policy, args.depth, rng, quantize_resolution=args.quantize
        )
        cols = [f.name for f in dataclasses.fields(StepRecord)]
        lines = [",".join(cols)]
        for step in trace.steps:
            lines.append(",".join(_csv_cell(getattr(step, c)) for c in cols))
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    stats = polarization_stats(
        W,
        policy,
        args.depth,
        args.paths,
        rng,
        thresholds=(args.low, args.high),
        quantize_resolution=args.quantize,
    )
    if not args.full:
        stats.pop("final_entropies")
    _emit(stats)
    return 0


# ----------------------------------------------------------- verify mode

def _draw_case(rng: np.random.Generator, outputs: int) -> tuple[Channel, Kernel]:
    """A random channel with 2..outputs-1 outputs and a random kernel over its field.

    (q, ell) is one of (2, 2), (2, 3) and (3, 2); the draws come in that
    order: the pair, the output count, the channel, the kernel.
    """
    q, ell = [(2, 2), (2, 3), (3, 2)][int(rng.integers(3))]
    f = field_make(q)
    W = random_channel(f, int(rng.integers(2, outputs)), rng)
    return W, sample_invertible(f, ell, rng)


def _failure(case: int, check: str, lhs: float, rhs: float) -> str:
    """The line a suite returns for its first failing check."""
    return f"case {case}: {check}: lhs {float(lhs)!r}, rhs {float(rhs)!r}"


# Each suite returns None when every check passes, else the line of its first
# failing check: the case index in its draw order, the check, lhs and rhs.

def _suite_conservation(seed: int) -> str | None:
    rng = np.random.default_rng([seed, 1])
    for case in range(30):
        W, kern = _draw_case(rng, 6)
        kids = transform_all(W, kern)
        mean_h = float(np.mean([param_vector(child).H for child in kids]))
        parent_h = param_vector(W).H
        if abs(mean_h - parent_h) > 1e-9:
            return _failure(case, "mean child H == parent H", mean_h, parent_h)
    return None


def _suite_ftpc(seed: int) -> str | None:
    rng = np.random.default_rng([seed, 2])
    tight = verify_ftpcz(bec(0.5), arikan_kernel(field_make(2)), 2)
    if not (tight["pass"] and abs(tight["lhs"] - tight["rhs"]) <= 1e-9):
        return _failure(0, "BEC(0.5) Arikan Zmad bound at i=2 is tight", tight["lhs"], tight["rhs"])
    for case in range(1, 13):
        W, kern = _draw_case(rng, 5)
        i = int(rng.integers(1, kern.ell + 1))
        for name, check in (("Zmad", verify_ftpcz), ("Smax", verify_ftpcs)):
            rep = check(W, kern, i)
            if not rep["pass"]:
                return _failure(case, f"{name} bound at i={i}", rep["lhs"], rep["rhs"])
    return None


def _suite_holder(seed: int) -> str | None:
    rng = np.random.default_rng([seed, 3])
    for case in range(30):
        W = random_channel(field_make(int(rng.choice([2, 3, 5]))), int(rng.integers(2, 7)), rng)
        for name, check in holder_report(W)["checks"].items():
            if not check["ok"]:
                return _failure(case, name, check["lhs"], check["rhs"])
    return None


def _suite_quadratic(seed: int) -> str | None:
    rng = np.random.default_rng([seed, 4])
    channels = [bec(0.5), bsc(0.25)]
    for q in (2, 3):
        channels.append(random_channel(field_make(q), int(rng.integers(2, 5)), rng))
    for case, W in enumerate(channels):
        rep = quadratic_check(W)
        # the floors of quadratic_check: -1e-9 and -2 ln(q)^2 - 1e-6
        for name, floor in (("slack", -1e-9), ("curvature", -2 * math.log(W.q) ** 2 - 1e-6)):
            if not rep[f"{name}_ok"]:
                return _failure(case, f"min {name} >= rhs", rep[f"min_{name}"], floor)
    return None


def _suite_symmetrization(seed: int) -> str | None:
    rng = np.random.default_rng([seed, 5])
    for case in range(10):
        f = field_make(int(rng.choice([2, 3])))
        W = random_channel(f, int(rng.integers(2, 5)), rng, random_input=True)
        Wb = symmetrize(W)
        hw, hb = param_vector(W).H, param_vector(Wb).H
        if abs(hb - hw) > 1e-9:
            return _failure(case, "symmetrized H == H", hb, hw)
        kern = arikan_kernel(f)
        for i in (1, 2):
            hw = param_vector(transform(W, kern, i)).H
            hb = param_vector(transform(Wb, kern, i)).H
            if abs(hw - hb) > 1e-9:
                return _failure(case, f"symmetrized child {i} H == child {i} H", hb, hw)
    return None


def _suite_local(seed: int) -> str | None:
    rng = np.random.default_rng([seed, 6])
    for case in range(12):
        rep = check_local(*_draw_case(rng, 6))
        if rep["ok"]:
            continue
        if not rep["martingale_ok"]:
            return _failure(case, "martingale residual <= 1e-9", rep["martingale_residual"], 1e-9)
        if not rep["expansion_ok"]:
            return _failure(case, "expansion slack >= -1e-12", rep["expansion_min_slack"], -1e-12)
        spread = rep["spread"]
        name = "spread" if spread and spread["required"] and not spread["ok"] else "supermartingale"
        return _failure(case, name, rep[name]["lhs"], rep[name]["rhs"])
    return None


def _suite_gadget(seed: int) -> str | None:
    for case, ell in enumerate(range(55, 257)):
        rep = gadget_bound(ell)
        if not rep["pass"]:
            return _failure(case, f"gadget_bound at ell={ell}", rep["lhs"], rep["rhs"])
    return None


def _cmd_verify(args) -> int:
    suites = [
        ("conservation", _suite_conservation),
        ("coset-identities", _suite_ftpc),
        ("parameter-inequalities", _suite_holder),
        ("exponent-curvature", _suite_quadratic),
        ("symmetrization-identities", _suite_symmetrization),
        ("one-step-laws", _suite_local),
        ("distance-average-bound", _suite_gadget),
    ]
    failed = 0
    for name, fn in suites:
        try:
            failure = fn(args.seed)
        except Exception as exc:
            failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            # stdout keeps its one verdict line; the failing check goes to stderr
            print(f"{name}: {failure}", file=sys.stderr)
        print(("PASS " if failure is None else "FAIL ") + name)
        failed += failure is not None
    return 2 if failed else 0


# ----------------------------------------------------------------- main

def _build_parser() -> _Parser:
    p = _Parser(prog="qpolar", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="channel parameter vector")
    _add_channel_opts(sp)
    sp.add_argument("--holder", action="store_true", help="include the inequality report")
    sp.set_defaults(fn=_cmd_params)

    sp = sub.add_parser("transform", help="one-step synthesized children")
    _add_channel_opts(sp)
    _add_kernel_opts(sp)
    sp.add_argument("--index", type=int, help="single child (1-based); default all")
    sp.add_argument("--no-merge", action="store_true", help="skip lossless output merging")
    sp.set_defaults(fn=_cmd_transform)

    sp = sub.add_parser("kernel", help="kernel weights, certification, or search")
    _add_kernel_opts(sp)
    _add_channel_opts(sp, required=False)
    sp.add_argument("--certify", nargs=2, type=float, metavar=("Z", "S"))
    sp.add_argument("--search", action="store_true")
    sp.add_argument("--ell", type=int, default=2)
    sp.add_argument("--budget", type=int, default=200)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("construct", help="design a code for a channel")
    _add_channel_opts(sp)
    _add_kernel_opts(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--depth", type=int, required=True, metavar="N")
    sp.add_argument("--pi", type=float, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--search-budget", type=int)
    sp.add_argument("--summary", action="store_true", help="print summary, not the full spec")
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("encode", help="message to codeword")
    sp.add_argument("--spec", required=True, metavar="FILE")
    sp.add_argument("--message", required=True, help="comma-separated symbols")
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(fn=_cmd_encode)

    sp = sub.add_parser("decode", help="received symbols or posteriors to message")
    _add_channel_opts(sp, required=False)
    sp.add_argument("--spec", required=True, metavar="FILE")
    sp.add_argument("--received", help="comma-separated output symbols")
    sp.add_argument("--posteriors", metavar="FILE", help="JSON (N, q) posterior array")
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(fn=_cmd_decode)

    sp = sub.add_parser("simulate", help="Monte Carlo error rates")
    _add_channel_opts(sp)
    sp.add_argument("--spec", required=True, metavar="FILE")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("process", help="polarization-process sampling")
    _add_channel_opts(sp)
    _add_kernel_opts(sp)
    sp.add_argument("--depth", type=int, required=True, metavar="N")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--paths", type=int, default=1000)
    sp.add_argument("--low", type=float, default=0.01)
    sp.add_argument("--high", type=float, default=0.99)
    sp.add_argument("--trace", action="store_true", help="CSV of a single sampled path")
    sp.add_argument("--full", action="store_true", help="include every final entropy")
    sp.add_argument(
        "--quantize",
        type=int,
        metavar="R",
        help="bin a channel at resolution R (halved as needed) only right before"
        " a synthesis that would overrun the guard; the last step is never binned",
    )
    sp.add_argument("--ell", type=int)
    sp.add_argument("--search-budget", type=int)
    sp.set_defaults(fn=_cmd_process)

    sp = sub.add_parser("verify", help="run the internal consistency battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (_CliError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
