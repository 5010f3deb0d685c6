"""Span tracing of qpolar's public functions, installed from outside.

The package imports names with ``from .x import y``, so one function object
is reachable under several module attributes.  ``Tracer.install`` wraps each
traced function once and rebinds the wrapper under every ``qpolar`` module
attribute that held the original (and on the class, for ``FieldSpec.mul``);
``uninstall`` puts the originals back, so untraced calls run the program as
shipped.

Spans are kept in memory as (name, start, end, parent span, workload call)
and only while a workload call or the set-up is open.  Counters that need
the arguments (alphabet sizes, enumerated words, decoding units) are taken
after the span has closed; the channel hashing behind ``repeat_share`` runs
after the whole workload call, outside every span.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from qpolar.gf import FieldSpec

#: call id of the set-up span
SETUP = -1

#: traced functions: span name -> (module, attribute); "FieldSpec.mul" is a method
TARGETS = {
    "gf.field_matmul": ("qpolar.gf", "field_matmul"),
    "gf.mul": ("qpolar.gf", "FieldSpec.mul"),
    "gf.mat_invert": ("qpolar.gf", "mat_invert"),
    "gf.sample_invertible": ("qpolar.gf", "sample_invertible"),
    "channel.merge_outputs": ("qpolar.channel", "merge_outputs"),
    "channel.derived_distributions": ("qpolar.channel", "derived_distributions"),
    "channel.capacity_input": ("qpolar.channel", "capacity_input"),
    "params.param_vector": ("qpolar.params", "param_vector"),
    "transform.transform": ("qpolar.transform", "transform"),
    "transform.quantize_merge": ("qpolar.transform", "quantize_merge"),
    "ftpc.coset_enumerator": ("qpolar.ftpc", "coset_enumerator"),
    "kernsearch.empirical_failure_rate": ("qpolar.kernsearch", "empirical_failure_rate"),
    "codec.construct": ("qpolar.codec", "construct"),
    "codec.node_posterior": ("qpolar.codec", "node_posterior"),
    "codec.encode": ("qpolar.codec", "encode"),
    "codec.decode": ("qpolar.codec", "decode"),
    "codec.simulate_counts": ("qpolar.codec", "simulate_counts"),
    "codec.simulate": ("qpolar.codec", "simulate"),
    "procsim.sample_path": ("qpolar.procsim", "sample_path"),
    "procsim.polarization_stats": ("qpolar.procsim", "polarization_stats"),
}

#: per-layer metrics in the order they are reported, with their units
PER_LAYER = [
    ("gf.field_matmul.calls", "count"),
    ("gf.field_matmul.self_s", "s"),
    ("gf.mul.calls", "count"),
    ("gf.mul.self_s", "s"),
    ("gf.mat_invert.calls", "count"),
    ("gf.sample_invertible.calls", "count"),
    ("channel.merge_outputs.calls", "count"),
    ("channel.merge_outputs.self_s", "s"),
    ("channel.merge_outputs.cols_in", "count"),
    ("channel.merge_outputs.cols_out", "count"),
    ("channel.merge_outputs.merge_ratio", "ratio"),
    ("channel.derived_distributions.calls", "count"),
    ("channel.derived_distributions.self_s", "s"),
    ("channel.capacity_input.self_s", "s"),
    ("params.param_vector.calls", "count"),
    ("params.param_vector.self_s", "s"),
    ("transform.transform.calls", "count"),
    ("transform.transform.self_s", "s"),
    ("transform.transform.pre_merge_cols", "count"),
    ("transform.repeat_share", "ratio"),
    ("transform.quantize_merge.calls", "count"),
    ("ftpc.coset_enumerator.calls", "count"),
    ("ftpc.coset_enumerator.self_s", "s"),
    ("ftpc.coset_enumerator.words", "count"),
    ("kernsearch.empirical_failure_rate.self_s", "s"),
    ("kernsearch.failures", "count"),
    ("codec.encode.self_s", "s"),
    ("codec.decode.self_s", "s"),
    ("codec.node_posterior.calls", "count"),
    ("codec.node_posterior.self_s", "s"),
    ("codec.du_per_block", "count"),
    ("codec.us_per_du", "us"),
    ("codec.pin_failures", "count"),
    ("codec.simulate_counts.self_s", "s"),
    ("codec.construct.self_s", "s"),
    ("procsim.sample_path.calls", "count"),
    ("procsim.sample_path.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _channel_of(W):
    return getattr(W, "channel", W)  # a SynthChannel carries its Channel


class Tracer:
    """Spans and argument counters of the traced functions."""

    def __init__(self) -> None:
        self.names = list(TARGETS) + ["bench.setup", "bench.call"]
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.spans: list = []
        self._stack: list[int] = []
        self._call: int | None = None
        self.counters: Counter = Counter()   # (call id, counter) -> value
        self._transform_args: list = []
        self.repeats: Counter = Counter()    # call id -> repeated transform inputs
        self._rebound: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qpolar" or name.startswith("qpolar.")]
        for span, (modname, attr) in TARGETS.items():
            if attr == "FieldSpec.mul":
                original = FieldSpec.mul
                FieldSpec.mul = self._wrap(span, original)
                self._rebound.append((FieldSpec, "mul", original))
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._rebound.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- spans --------------------------------------------------------------

    def _wrap(self, span: str, fn):
        nid = self._ids[span]
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = getattr(self, "_after_" + span.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._call is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self._call)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def root(self, call_id: int):
        """Open the root span of one workload call (or of the set-up)."""
        name = "bench.setup" if call_id == SETUP else "bench.call"
        self._call = call_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self._ids[name], t0, t1, -1, call_id)
            self._call = None
            self._count_repeats(call_id)

    # -- argument counters --------------------------------------------------

    def _add(self, key: str, value) -> None:
        self.counters[(self._call, key)] += value

    def _after_channel_merge_outputs(self, args, kwargs, out) -> None:
        self._add("channel.merge_outputs.cols_in", args[0].output_size)
        self._add("channel.merge_outputs.cols_out", out.output_size)

    def _after_transform_transform(self, args, kwargs, out) -> None:
        W, kernel = _channel_of(args[0]), args[1]
        i = args[2] if len(args) > 2 else kwargs["i"]
        self._add("transform.transform.pre_merge_cols",
                  W.q ** (i - 1) * W.output_size ** kernel.ell)
        self._transform_args.append((W, kernel, i))

    def _after_ftpc_coset_enumerator(self, args, kwargs, out) -> None:
        kernel = args[0]
        i = args[1] if len(args) > 1 else kwargs["i"]
        self._add("ftpc.coset_enumerator.words", kernel.field.q ** (kernel.ell - i))

    def _after_codec_decode(self, args, kwargs, out) -> None:
        self._add("codec.decodes", 1)
        self._add("codec.du_activations", out.du_activations)
        self._add("codec.pin_failures", int(out.failed))

    def _after_kernsearch_empirical_failure_rate(self, args, kwargs, out) -> None:
        self._add("kernsearch.failures", len(out["witnesses"]))

    def _count_repeats(self, call_id: int) -> None:
        seen = set()
        for W, kernel, i in self._transform_args:
            h = hashlib.blake2b(digest_size=16)
            for arr in (W.transition, W.input_dist, kernel.entries):
                h.update(repr(arr.shape).encode())
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(f"{W.q},{i}".encode())
            key = h.digest()
            self.repeats[call_id] += key in seen
            seen.add(key)
        self._transform_args.clear()

    # -- results ------------------------------------------------------------

    def span_arrays(self) -> dict:
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(arr))
        return {
            "name": arr[:, 0].astype(np.int64),
            "start": arr[:, 1],
            "end": arr[:, 2],
            "parent": parent,
            "call": arr[:, 4].astype(np.int64),
            "self": dur - child,
            "dur": dur,
        }

    def save(self, path: Path) -> None:
        """Write every span out, as compressed numpy arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        sp = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), name=sp["name"],
                            start=sp["start"], end=sp["end"], parent=sp["parent"],
                            call=sp["call"])

    def calls_per(self, call_id: int) -> dict:
        """Span counts by name within one workload call."""
        sp = self.span_arrays()
        ids = sp["name"][sp["call"] == call_id]
        return {self.names[k]: int(c) for k, c in zip(*np.unique(ids, return_counts=True))}

    def per_layer(self, call_ids: list[int], overhead_frac: float) -> dict:
        """Per-layer metrics, per workload call over ``call_ids``."""
        sp = self.span_arrays()
        calls = len(call_ids)
        traced = np.isin(sp["call"], call_ids)
        in_setup = sp["call"] == SETUP

        def count(name, mask=traced):
            return float(np.sum(mask & (sp["name"] == self._ids[name])))

        def self_s(name, mask=traced):
            return float(np.sum(sp["self"][mask & (sp["name"] == self._ids[name])]))

        def dur(name):
            return float(np.sum(sp["dur"][traced & (sp["name"] == self._ids[name])]))

        def counter(key):
            return float(sum(self.counters[(c, key)] for c in call_ids))

        values: dict[str, float] = {}
        for span in TARGETS:
            values[span + ".calls"] = count(span) / calls
            values[span + ".self_s"] = self_s(span) / calls
        values["channel.capacity_input.self_s"] = self_s("channel.capacity_input", in_setup)
        for key in ("channel.merge_outputs.cols_in", "channel.merge_outputs.cols_out",
                    "transform.transform.pre_merge_cols", "ftpc.coset_enumerator.words",
                    "kernsearch.failures", "codec.pin_failures"):
            values[key] = counter(key) / calls
        cols_in = counter("channel.merge_outputs.cols_in")
        values["channel.merge_outputs.merge_ratio"] = (
            counter("channel.merge_outputs.cols_out") / cols_in if cols_in else 0.0)
        n_transform = count("transform.transform")
        values["transform.repeat_share"] = (
            sum(self.repeats[c] for c in call_ids) / n_transform if n_transform else 0.0)
        decodes = counter("codec.decodes")
        du = counter("codec.du_activations")
        values["codec.du_per_block"] = du / decodes if decodes else 0.0
        # encode runs the same recursion as decode, so a block costs 2 x du DUs
        values["codec.us_per_du"] = (
            1e6 * (dur("codec.encode") + dur("codec.decode")) / (2 * du) if du else 0.0)
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
