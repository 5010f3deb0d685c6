"""Successive-cancellation encoder/decoder over a dynamic kernel tree.

A code is a depth-n tree of one-step transforms: every internal node owns an
invertible ell x ell kernel, and the ell^n leaves are the synthesized
channels.  Construction walks the data channel and a pure-noise companion
(same input law, blank output) down the tree together, classifies each leaf
by its endpoint entropies, and keeps the clean-and-free leaves for message
symbols.  Every other leaf is frozen: it draws a symbol from the successive
conditional input law through a variate stream shared with the decoder
(randomized rounding), so both ends settle on the same frozen chain.  The
"B"/"C" split among frozen leaves records whether the draw is essentially
free randomness or essentially forced shaping; it is bookkeeping for rate
and shared-randomness accounting, not a different sampling rule.

Encoding and decoding run the same recursive engine.  It threads two pin
streams — posteriors from the channel observations and replicas driven by
the prior alone — and makes hard leaf decisions that both passes share, so
the decoder reproduces the encoder's frozen chain exactly whenever its
message decisions are right.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .channel import Channel, _document, _typed, flatten, sample_outputs
from .gf import FieldSpec, Kernel, field_make, mat_invert
from .kernsearch import FixedKernel, SearchKernels, search
from .params import param_vector
from .transform import quantize_to_fit, transform

__all__ = [
    "LeafStat",
    "CodeSpec",
    "DecodeResult",
    "construct",
    "node_posterior",
    "encode",
    "decode",
    "simulate",
    "simulate_counts",
    "summarize_counts",
    "codespec_to_dict",
    "codespec_from_dict",
]


@dataclass(frozen=True)
class LeafStat:
    """Endpoint parameters of one leaf pair (data tree, noise tree)."""

    H_w: float
    H_v: float
    Pe_w: float
    T_v: float
    exact: bool


@dataclass(frozen=True, eq=False)
class CodeSpec:
    field: FieldSpec
    ell: int
    n: int
    pi: float
    theta: float
    seed: int
    input_dist: np.ndarray
    kernels: dict[tuple[int, ...], Kernel]
    info_set: frozenset[tuple[int, ...]]
    frozen_class: dict[tuple[int, ...], str]
    leaf_stats: dict[tuple[int, ...], LeafStat]

    @property
    def block_length(self) -> int:
        return self.ell**self.n

    @property
    def dimension(self) -> int:
        return len(self.info_set)

    @property
    def rate(self) -> float:
        return self.dimension / self.block_length

    @property
    def union_bound(self) -> float:
        """Sum over the message leaves of data-leaf Pe plus noise-leaf T."""
        return sum(self.leaf_stats[p].Pe_w + self.leaf_stats[p].T_v for p in self.info_set)

    def leaf_paths(self) -> list[tuple[int, ...]]:
        """All leaf paths in lexicographic order."""
        return _level_paths(self.ell, self.n)


def _level_paths(ell: int, depth: int) -> list[tuple[int, ...]]:
    """All tree paths of length ``depth`` in lexicographic order."""
    out = [()]
    for _ in range(depth):
        out = [p + (k,) for p in out for k in range(1, ell + 1)]
    return out


def construct(
    W: Channel,
    ell: int,
    n: int,
    pi: float,
    kernel_policy: FixedKernel | SearchKernels,
    seed: int,
) -> CodeSpec:
    """Design a blocklength ell^n code for W.

    Walks the synthesis tree depth-first in pre-order, choosing one kernel
    per internal node (fixed, or searched against the node's data and noise
    channels with a generator keyed by the node's path, so the walk order
    does not change the result).  The leaf threshold is
    theta = exp(-ell^(pi*n)).  A leaf joins the message set
    when its data entropy is below theta while its noise entropy stays
    within theta of full; non-message leaves with both entropies below
    theta are tagged shaping ("C"), everything else shared randomness
    ("B") — a rate-accounting label, since every frozen leaf samples the
    same way at run time.  When an intermediate alphabet would overrun the
    enumeration guard, the node is quantized first (from resolution 2048,
    before its kernel is chosen) and the whole subtree is marked inexact.
    Raises ``ValueError`` when ``pi`` is not finite, and when the kernel
    policy's size (its kernel's ``ell`` or ``SearchKernels.ell``) is not ``ell``.
    """
    fixed = isinstance(kernel_policy, FixedKernel)
    size = kernel_policy.kernel.ell if fixed else kernel_policy.ell
    if size != ell:
        raise ValueError(f"the kernel policy's size {size} disagrees with ell {ell}")
    if n < 1 or ell < 2:
        raise ValueError("need n >= 1 and ell >= 2")
    if not math.isfinite(pi):
        raise ValueError(f"pi must be finite, got {pi}")
    theta = math.exp(-(ell ** (pi * n)))
    kernels: dict[tuple[int, ...], Kernel] = {}
    info: set[tuple[int, ...]] = set()
    fclass: dict[tuple[int, ...], str] = {}
    stats: dict[tuple[int, ...], LeafStat] = {}

    def visit(path: tuple[int, ...], Wn: Channel, Vn: Channel, exact: bool) -> None:
        if len(path) == n:
            pw = param_vector(Wn)
            pv = param_vector(Vn)
            stats[path] = LeafStat(H_w=pw.H, H_v=pv.H, Pe_w=pw.Pe, T_v=pv.T, exact=exact)
            if pw.H < theta and 1.0 - pv.H < theta:
                info.add(path)
            elif pv.H < theta and pw.H < theta:
                fclass[path] = "C"
            else:
                fclass[path] = "B"
            return
        # Pre-shrink rather than letting the search or the child transforms
        # trip the guard: certification synthesizes every position too.
        where = f"channel at node path {list(path)}"
        Wn, shrunk_w = quantize_to_fit(Wn, ell, ell, 2048, where="data " + where)
        Vn, shrunk_v = quantize_to_fit(Vn, ell, ell, 2048, where="noise " + where)
        exact = exact and not (shrunk_w or shrunk_v)
        if fixed:
            kern = kernel_policy.kernel
        else:
            rng = np.random.default_rng([seed] + list(path))
            kern = search(Wn, Vn, ell, kernel_policy.budget, rng)
        kernels[path] = kern
        for k in range(1, ell + 1):
            # unbound, a visited child and the law it keeps go before the next synthesis
            visit(path + (k,), transform(Wn, kern, k), transform(Vn, kern, k), exact)

    visit((), W, flatten(W), True)
    return CodeSpec(
        field=W.field,
        ell=ell,
        n=n,
        pi=pi,
        theta=theta,
        seed=seed,
        input_dist=W.input_dist,
        kernels=kernels,
        info_set=frozenset(info),
        frozen_class=fclass,
        leaf_stats=stats,
    )


# ------------------------------------------------------------ pin calculus

def node_posterior(
    kernel: Kernel,
    pins: np.ndarray,
    decided: np.ndarray,
    i: int,
) -> tuple[np.ndarray, bool]:
    """Posterior of source symbol i of one kernel group.

    ``pins`` is an (ell, q) array whose rows are the per-instance posteriors
    of the group's channel inputs x_j; ``decided`` holds the i-1 already
    fixed source symbols.  Sums the pin products over every completion of
    the source row through x = u G, read as one contiguous block of the
    kernel's completion table and multiplied column by column from x_1.
    A zero total (contradictory pins) yields the uniform distribution and
    ok=False so a decoder can keep going while flagging the block.  Decided
    symbols outside 0..q-1, negative pins and pins whose total is NaN or
    infinite raise ``ValueError``.
    """
    q, ell = kernel.field.q, kernel.ell
    if not 1 <= i <= ell:
        raise ValueError("position out of range")
    pins = np.asarray(pins, dtype=float)
    if pins.shape != (ell, q):
        raise ValueError(f"pins must be ({ell}, {q})")
    if min(pins.flat) < 0.0:  # -0.0 passes; a NaN is left to the total check
        raise ValueError("pins must be nonnegative")
    decided = np.asarray(decided, dtype=np.int64).reshape(-1)
    if decided.shape[0] != i - 1:
        raise ValueError("decided prefix length must be i-1")
    index = 0
    for s in decided.tolist():
        if not 0 <= s < q:
            raise ValueError(f"decided symbol {s} outside 0..{q - 1}")
        index = index * q + s
    block = q ** (ell - i + 1)
    g = pins.ravel()[kernel.completions[index * block : (index + 1) * block]]
    w = g[:, 0]
    for j in range(1, ell):
        w = w * g[:, j]
    gamma = w.reshape(q, -1).sum(axis=1)
    total = gamma.sum()
    if not math.isfinite(total):
        raise ValueError("pins give a NaN or infinite posterior mass")
    if total <= 0.0:
        return np.full(q, 1.0 / q), False
    return gamma / total, True


# ------------------------------------------------------------- SC engine

class _Engine:
    """One pass of the shared encode/decode recursion."""

    def __init__(
        self,
        spec: CodeSpec,
        mode: str,
        variates: np.ndarray,
        message: np.ndarray | None = None,
    ) -> None:
        self.spec = spec
        self.mode = mode
        self.variates = variates
        self.message = message
        self.msg_pos = 0
        self.frozen_pos = 0
        self.decoded: list[int] = []
        self.du_activations = 0
        self.failed = False
        # place values of a source word's digits: its completion-table row is u @ place
        self.place = spec.field.q ** np.arange(spec.ell - 1, -1, -1)

    def run(self, pins_ch: np.ndarray, pins_pr: np.ndarray) -> np.ndarray:
        # a depth-0 code is one leaf, whose symbol comes back as an int
        return np.asarray(self._rec((), pins_ch, pins_pr), dtype=np.int64).reshape(-1)

    def _rec(
        self, path: tuple[int, ...], pins_ch: np.ndarray, pins_pr: np.ndarray
    ) -> np.ndarray | int:
        spec = self.spec
        if len(path) == spec.n:
            return self._leaf(path, pins_ch[0], pins_pr[0])  # broadcast into decided
        kern = spec.kernels[path]
        ell, q = kern.ell, spec.field.q
        groups = pins_ch.shape[0] // ell
        decided = np.zeros((groups, ell), dtype=np.int64)
        for k in range(1, ell + 1):
            ch_k = np.empty((groups, q))
            pr_k = np.empty((groups, q))
            for t in range(groups):
                rows = slice(t * ell, (t + 1) * ell)
                prefix = decided[t, : k - 1]
                post_ch, ok_ch = node_posterior(kern, pins_ch[rows], prefix, k)
                post_pr, ok_pr = node_posterior(kern, pins_pr[rows], prefix, k)
                if k == 1:
                    self.du_activations += 1
                if not (ok_ch and ok_pr):
                    self.failed = True
                ch_k[t] = post_ch
                pr_k[t] = post_pr
            decided[:, k - 1] = self._rec(path + (k,), ch_k, pr_k)
        # x = u G of each group is its completion-table row, less the pin offsets j*q
        return (kern.completions[decided @ self.place] % q).reshape(-1)

    def _leaf(self, path: tuple[int, ...], pc: np.ndarray, pp: np.ndarray) -> int:
        q = self.spec.field.q
        if path in self.spec.info_set:
            if self.mode == "encode":
                u = int(self.message[self.msg_pos])
                self.msg_pos += 1
                return u
            u = int(np.argmax(pc))  # first max wins on exact ties
            self.decoded.append(u)
            return u
        # Randomized rounding: every frozen leaf draws from the successive
        # conditional carried by the prior stream, using a variate shared
        # with its twin on the other end, so both ends settle on one symbol.
        # The B/C split is rate bookkeeping and does not alter the draw.
        v = self.variates[self.frozen_pos]
        self.frozen_pos += 1
        cdf = np.cumsum(pp)
        return min(int(np.searchsorted(cdf, v * cdf[-1], side="right")), q - 1)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    message: np.ndarray
    failed: bool
    du_activations: int


def _frozen_variates(spec: CodeSpec, seed: int) -> np.ndarray:
    n_frozen = spec.block_length - spec.dimension
    return np.random.default_rng(seed).random(n_frozen)


def _prior_pins(spec: CodeSpec) -> np.ndarray:
    return np.tile(spec.input_dist, (spec.block_length, 1))


def encode(spec: CodeSpec, message: np.ndarray, seed: int) -> np.ndarray:
    """Map a message (one symbol per info leaf, in leaf order) to a codeword.

    The frozen chain is derived from ``seed``; the decoder must be handed
    the same seed to reproduce it.
    """
    message = np.asarray(message, dtype=np.int64).reshape(-1)
    if message.shape[0] != spec.dimension:
        raise ValueError(f"message must have {spec.dimension} symbols")
    if message.size and (message.min() < 0 or message.max() >= spec.field.q):
        raise ValueError("message symbols outside the field")
    prior = _prior_pins(spec)
    eng = _Engine(spec, "encode", _frozen_variates(spec, seed), message)
    return eng.run(prior, prior.copy())


def decode(
    spec: CodeSpec,
    received: np.ndarray,
    seed: int,
    channel: Channel | None = None,
) -> DecodeResult:
    """Successive decode from per-use posteriors or raw output symbols.

    ``received`` is either an (N, q) array of channel-input posteriors or a
    length-N symbol vector (then ``channel`` supplies the posterior map).
    ``seed`` must match the encoder's.  ``failed`` reports contradictory
    pins somewhere in the pass; decoding still completes on uniform
    substitutes.  NaN, infinite or negative posteriors and symbols that are
    not integers in the channel's output alphabet raise ``ValueError``.
    """
    received = np.asarray(received)
    N, q = spec.block_length, spec.field.q
    if received.ndim == 2:
        if received.shape != (N, q):
            raise ValueError(f"posterior array must be ({N}, {q})")
        pins_ch = np.asarray(received, dtype=float)
        if not (np.isfinite(pins_ch).all() and pins_ch.min() >= 0.0):
            raise ValueError("posteriors must be finite and nonnegative")
    elif received.ndim == 1:
        if channel is None:
            raise ValueError("symbol input needs the channel")
        if received.shape[0] != N:
            raise ValueError(f"expected {N} output symbols")
        if not (np.isfinite(received).all() and (received % 1 == 0).all()):
            raise ValueError("output symbols must be integers")
        symbols = received.astype(np.int64)
        M = channel.output_size
        if symbols.min() < 0 or symbols.max() >= M:
            raise ValueError(f"output symbols must lie in 0..{M - 1}")
        post = channel.derived.posterior  # (q, M)
        pins_ch = post[:, symbols].T
    else:
        raise ValueError("received must be 1-D symbols or an (N, q) posterior array")
    eng = _Engine(spec, "decode", _frozen_variates(spec, seed))
    eng.run(pins_ch, _prior_pins(spec))
    return DecodeResult(
        message=np.array(eng.decoded, dtype=np.int64),
        failed=eng.failed,
        du_activations=eng.du_activations,
    )


# ------------------------------------------------------------- simulation

def simulate_counts(spec: CodeSpec, W: Channel, streams: list) -> dict:
    """Raw error tallies over the given per-trial seed-sequence streams.

    Factored out so trial ranges can be sharded across workers: tallies
    over a partition of the streams merge to exactly the sequential run.
    """
    q, k = spec.field.q, spec.dimension
    block_errs = sym_errs = failures = du = 0
    for ss in streams:
        rng_t = np.random.default_rng(ss)
        inner = int(ss.generate_state(1)[0])
        msg = rng_t.integers(0, q, size=k)
        x = encode(spec, msg, inner)
        y = sample_outputs(W, x, rng_t.random(x.shape[0]))
        res = decode(spec, y, inner, channel=W)
        wrong = res.message != msg
        block_errs += int(wrong.any())
        sym_errs += int(wrong.sum())
        failures += int(res.failed)
        du = res.du_activations
    return {
        "blocks": len(streams),
        "block_errs": block_errs,
        "sym_errs": sym_errs,
        "failures": failures,
        "du": du,
    }


def summarize_counts(spec: CodeSpec, W: Channel, parts: list[dict]) -> dict:
    """Merge shard tallies into the rate/bound summary reported by simulate.

    ``parts`` are ``simulate_counts`` results over disjoint stream ranges;
    counts add up and ``du`` is the per-block count, the same in every
    shard.  Raises ``ValueError`` when the shards hold no trial.
    """
    trials = sum(p["blocks"] for p in parts)
    if trials < 1:
        raise ValueError("need at least one trial")
    k, N = spec.dimension, spec.block_length
    bler = sum(p["block_errs"] for p in parts) / trials
    ber = sum(p["sym_errs"] for p in parts) / (k * trials) if k else 0.0
    I = param_vector(W).I
    R = spec.rate
    mdp = N * (I - R) ** 2 / abs(math.log(bler)) if 0 < bler < 1 else 0.0
    return {
        "trials": trials,
        "bler": bler,
        "ber": ber,
        "rate": R,
        "union_bound": spec.union_bound,
        "union_bound_exact": all(spec.leaf_stats[p].exact for p in spec.info_set),
        "mdp_ratio": mdp,
        "pin_failures": sum(p["failures"] for p in parts),
        "du_per_block": max(p["du"] for p in parts),
    }


def simulate(spec: CodeSpec, W: Channel, trials: int, seed: int) -> dict:
    """Monte Carlo block/symbol error rates plus the design-side bound.

    Every trial derives its own generator and a shared encode/decode seed
    from one seed sequence, so runs are reproducible and trials are
    independent.  ``union_bound`` adds, over the message leaves, the data
    leaf's decision-error parameter and the noise leaf's distance from its
    design law; ``union_bound_exact`` is False when any contributing leaf
    was computed through quantization.  ``mdp_ratio`` is the finite-length
    figure N (I - R)^2 / |ln BLER|, reported as zero when BLER is 0 or 1,
    where it is undefined.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    streams = np.random.SeedSequence(seed).spawn(trials)
    return summarize_counts(spec, W, [simulate_counts(spec, W, streams)])


# ---------------------------------------------------------- serialization

def _path_key(path: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in path)


def codespec_to_dict(spec: CodeSpec) -> dict:
    return {
        "p": spec.field.p,
        "m": spec.field.m,
        "ell": spec.ell,
        "n": spec.n,
        "pi": spec.pi,
        "theta": spec.theta,
        "seed": spec.seed,
        "input_dist": spec.input_dist.tolist(),
        "kernels": [
            {"path": list(path), "matrix": kern.entries.tolist()}
            for path, kern in sorted(spec.kernels.items())
        ],
        "info_set": sorted(list(p) for p in spec.info_set),
        "frozen_class": {_path_key(p): c for p, c in sorted(spec.frozen_class.items())},
        "leaf_stats": [
            {"path": list(path), **asdict(s)} for path, s in sorted(spec.leaf_stats.items())
        ],
    }


def _check_paths(what: str, got: list, want: list) -> None:
    if len(got) != len(want) or set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(
            f"spec has {len(got)} {what} for the {len(want)} expected"
            f" (missing {missing[:3]}, unexpected {extra[:3]})"
        )


def _as_path(value) -> tuple[int, ...]:
    return tuple(operator.index(x) for x in value)


def _as_key(key: str) -> tuple[int, ...]:
    return tuple(int(x) for x in key.split(","))


def _as_reals(value) -> np.ndarray:
    return np.array([float(x) for x in value])


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not a JSON boolean")
    return value


def codespec_from_dict(doc: dict) -> CodeSpec:
    """Rebuild a spec from ``codespec_to_dict`` output, checking it first.

    Raises ``ValueError`` naming the problem unless every field has its
    type (integer p, m, ell, n and seed; numeric pi, theta, leaf values and
    input_dist entries; a JSON boolean for each leaf's exact flag; lists for
    kernels, leaf_stats, info_set and input_dist, with each path a list of
    integers; an object for frozen_class, keyed by comma-joined integer
    paths, whose values are "B" or "C") and the
    document holds one ell x ell kernel per internal path of the depth-n
    tree, one leaf_stats entry per leaf, an info_set and frozen_class that
    split the leaves between them, and a length-q input_dist.  A ``doc``
    that is not an object raises ``ValueError`` too.
    """
    doc = _document(doc, "spec")
    f = field_make(
        _typed(operator.index, doc["p"], "p"), _typed(operator.index, doc.get("m", 1), "m")
    )
    ell = _typed(operator.index, doc["ell"], "ell")
    n = _typed(operator.index, doc["n"], "n")
    if ell < 2 or n < 0:
        raise ValueError(f"spec needs ell >= 2 and n >= 0, got ell={ell}, n={n}")
    containers = {
        "kernels": list, "leaf_stats": list, "info_set": list, "frozen_class": dict,
        "input_dist": list,
    }
    for key, kind in containers.items():
        if not isinstance(doc[key], kind):
            raise ValueError(f"spec field {key} has the wrong type: {doc[key]!r}")
    for key in ("kernels", "leaf_stats"):
        for k, entry in enumerate(doc[key]):
            if not isinstance(entry, dict):
                raise ValueError(f"spec field {key}[{k}] has the wrong type: {entry!r}")
    n_stats = len(doc["leaf_stats"])
    # ell^n > n: testing n first keeps an absurd depth from computing ell**n
    if n > n_stats or ell**n != n_stats:
        raise ValueError(
            f"spec has {n_stats} leaf_stats entries, not one per leaf of a"
            f" depth-{n} tree with ell={ell}"
        )
    leaves = _level_paths(ell, n)
    internal = [p for depth in range(n) for p in _level_paths(ell, depth)]
    kernel_paths = [
        _typed(_as_path, e["path"], f"kernels[{k}].path") for k, e in enumerate(doc["kernels"])
    ]
    leaf_paths = [
        _typed(_as_path, e["path"], f"leaf_stats[{k}].path")
        for k, e in enumerate(doc["leaf_stats"])
    ]
    _check_paths("kernels", kernel_paths, internal)
    _check_paths("leaf_stats entries", leaf_paths, leaves)
    info = [_typed(_as_path, p, f"info_set[{k}]") for k, p in enumerate(doc["info_set"])]
    frozen = [_typed(_as_key, key, f"frozen_class[{key}]") for key in doc["frozen_class"]]
    _check_paths("info_set and frozen_class leaves", info + frozen, leaves)
    for key, label in doc["frozen_class"].items():
        if label not in ("B", "C"):
            raise ValueError(f'spec field frozen_class[{key}] must be "B" or "C", got {label!r}')
    input_dist = _typed(_as_reals, doc["input_dist"], "input_dist")
    if input_dist.shape != (f.q,):
        raise ValueError(f"input_dist must have {f.q} entries, got shape {input_dist.shape}")
    input_dist.setflags(write=False)
    kernels = {}
    for path, entry in zip(kernel_paths, doc["kernels"]):
        kern = mat_invert(f, entry["matrix"])
        if kern.ell != ell:
            raise ValueError(f"kernel at path {list(path)} is not {ell}x{ell}")
        kernels[path] = kern
    stats = {
        path: LeafStat(
            **{
                key: _typed(float, entry[key], f"leaf_stats[{k}].{key}")
                for key in ("H_w", "H_v", "Pe_w", "T_v")
            },
            exact=_typed(_as_bool, entry["exact"], f"leaf_stats[{k}].exact"),
        )
        for k, (path, entry) in enumerate(zip(leaf_paths, doc["leaf_stats"]))
    }
    return CodeSpec(
        field=f,
        ell=ell,
        n=n,
        pi=_typed(float, doc["pi"], "pi"),
        theta=_typed(float, doc["theta"], "theta"),
        seed=_typed(operator.index, doc["seed"], "seed"),
        input_dist=input_dist,
        kernels=kernels,
        info_set=frozenset(info),
        frozen_class=dict(zip(frozen, doc["frozen_class"].values())),
        leaf_stats=stats,
    )
