"""Discrete memoryless channels with q-ary input and finite output alphabet.

A channel is a row-stochastic (q x M) matrix over an opaque integer output
alphabet, paired with the input distribution it is operated at.  Output
labels carry no meaning beyond indexing, which is what makes output merging
and the synthesized-channel machinery legitimate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .gf import FieldSpec, field_make

#: tolerance for "rows sum to one" validation
ROW_TOL = 1e-12

#: log 0 in the merge key: below every finite log posterior (at least -745)
_LOG_ZERO = -2000.0

#: lattice points per unit of log posterior ratio in the merge key (pitch 2^-40)
_LATTICE = 2.0**40

#: sorted columns a merge scans at a time
_WINDOW = 1 << 14

__all__ = [
    "Channel",
    "DerivedDists",
    "make_channel",
    "derived_distributions",
    "sample_outputs",
    "capacity_input",
    "flatten",
    "symmetrize",
    "merge_outputs",
    "bec",
    "bsc",
    "zchannel",
    "random_channel",
    "channel_to_dict",
    "channel_from_dict",
]


def _frozen(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields``, every one named.

    Skips the generated ``__init__``, which sets each field through
    ``object.__setattr__`` and costs more than the object's use on a tiny
    channel; the instance keeps the class's eq, repr, hash and ``asdict``.
    For the objects the library fills itself with values that need no
    check or conversion: ``Channel._owned``, ``params.ParamVector`` and
    ``procsim.StepRecord``.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic transition matrix plus the input distribution in use."""

    field: FieldSpec
    transition: np.ndarray
    input_dist: np.ndarray

    def __post_init__(self) -> None:
        trans = np.array(self.transition, dtype=np.float64, order="C")
        dist = np.array(self.input_dist, dtype=np.float64)
        if trans.ndim != 2 or trans.shape[0] != self.field.q:
            raise ValueError(
                f"transition must be (q, M) with q={self.field.q}, got {trans.shape}"
            )
        if trans.shape[1] < 1:
            raise ValueError("channel needs at least one output")
        for name, arr in (("transition", trans), ("input_dist", dist)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a NaN or infinite entry")
        if trans.min() < -1e-15:
            bad = np.unravel_index(int(np.argmin(trans)), trans.shape)
            raise ValueError(f"negative transition probability at {bad}")
        np.maximum(trans, 0.0, out=trans)
        sums = trans.sum(axis=1)
        off = np.abs(sums - 1.0)
        if off.max() > ROW_TOL:
            row = int(np.argmax(off))
            raise ValueError(
                f"transition row {row} sums to {sums[row]!r}, outside {ROW_TOL} of 1"
            )
        if dist.shape != (self.field.q,):
            raise ValueError(f"input_dist must have length q={self.field.q}")
        if dist.min() < -1e-15 or abs(dist.sum() - 1.0) > ROW_TOL:
            raise ValueError("input_dist is not a probability vector")
        np.maximum(dist, 0.0, out=dist)
        trans.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "input_dist", dist)

    @classmethod
    def _owned(cls, field: FieldSpec, transition: np.ndarray, input_dist: np.ndarray) -> "Channel":
        """A channel the library built itself, taking ownership of its arrays.

        ``transition`` must be a C-ordered float64 (q, M) array with
        non-negative, row-normalised entries and ``input_dist`` a float64
        probability vector: the public constructor would keep both bits
        unchanged.  Nothing is checked or copied; both arrays are made
        read-only.
        """
        transition.setflags(write=False)
        input_dist.setflags(write=False)
        return _frozen(cls, field=field, transition=transition, input_dist=input_dist)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def output_size(self) -> int:
        return int(self.transition.shape[1])

    @cached_property
    def derived(self) -> "DerivedDists":
        """``derived_distributions(self)``, computed on first use and kept.

        The arrays are read-only, so every reader can share them.  The one
        library caller of ``derived_distributions``.  Merges keep nothing,
        since their input is mostly a raw synthesis read once: both build
        only a posterior (``_posterior``), ``merge_outputs`` one window of
        columns at a time and ``quantize_merge`` in one buffer.
        """
        return derived_distributions(self)

    def with_input(self, input_dist) -> "Channel":
        """Same transition law operated at a different input distribution."""
        return Channel(self.field, self.transition, np.asarray(input_dist))


def make_channel(field: FieldSpec, transition, input_dist=None) -> Channel:
    """Build a channel; ``input_dist=None`` means uniform."""
    transition = np.asarray(transition, dtype=np.float64)
    if input_dist is None:
        input_dist = np.full(field.q, 1.0 / field.q)
    return Channel(field, transition, input_dist)


# ---------------------------------------------------------- derived laws

@dataclass(frozen=True)
class DerivedDists:
    """Joint P(x,y), output marginal P(y) and posterior P(x|y) arrays."""

    joint: np.ndarray      # (q, M)
    output: np.ndarray     # (M,)
    posterior: np.ndarray  # (q, M), uniform on zero-mass outputs


def derived_distributions(W: Channel) -> DerivedDists:
    """The joint, output and posterior laws of W, as read-only arrays.

    Holds two (q, M) arrays and one M vector: the joint, and the posterior
    that ``_posterior`` divides out of it into a new buffer.
    """
    joint = W.input_dist[:, None] * W.transition
    posterior, output = _posterior(W, joint)
    for arr in (joint, output, posterior):
        arr.setflags(write=False)
    return DerivedDists(joint=joint, output=output, posterior=posterior)


def _posterior(
    W: Channel, joint: np.ndarray | None = None, cols: slice | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The posterior P(x|y) in one fresh writable buffer, and P(y).

    The posterior is the joint P(x) W(y|x) divided by its column sums P(y),
    with its zero-mass columns set uniform.  Given W's ``joint``, which the
    caller keeps, it is divided out of it into a new buffer; otherwise the
    joint of the output columns ``cols`` (all of them when None) is formed
    in the buffer and divided in place.  Each column's entries are
    computed from that column alone, so a window of columns gets the bits
    of the whole.  The one posterior rule of the module:
    ``derived_distributions``, ``merge_outputs`` (one window of its key at
    a time) and ``transform.quantize_merge`` call it.
    """
    post = None
    if joint is None:
        law = W.transition if cols is None else W.transition[:, cols]
        joint = post = W.input_dist[:, None] * law
    # the rows added one at a time, first to last: a reduction over axis 0
    # adds so on two or more columns, but adds the q >= 8 entries of a
    # lone column pairwise, so a one-column window would differ
    output = joint[0] + joint[1]
    for x in range(2, len(joint)):
        output += joint[x]
    live = np.minimum.reduce(output) > 0.0
    if not live:
        # divide the dead columns by 1, so no 0 / 0 is formed: their
        # output entries are set to 1 for the divide and then put back
        dead = (output <= 0.0).nonzero()[0]
        mass = output.take(dead)
        output.put(dead, 1.0)
    # operators, not np.divide(..., out=): its keyword costs more than the
    # divide on small channels
    if post is None:
        post = joint / output
    else:
        post /= output
    if not live:
        output.put(dead, mass)
        post[:, dead] = 1.0 / W.q
    return post, output


def sample_outputs(W: Channel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Output symbols for the inputs ``x`` by inverse CDF at the uniforms ``u``.

    ``u`` has the shape of ``x``; the symbol is the number of entries of
    row x's transition CDF that ``u`` reaches (``u >= cdf``), capped at M-1
    against round-off in the last entry.
    """
    cdf = np.cumsum(W.transition, axis=1)
    y = (u[..., None] >= cdf[x]).sum(axis=-1)
    return np.minimum(y, W.output_size - 1)


# ------------------------------------------------------- capacity search

def capacity_input(W: Channel) -> np.ndarray:
    """Capacity-achieving input distribution via alternating maximisation.

    Iterates the classic update r(x) <- r(x) exp(D(W(.|x) || out)) / Z and
    stops once the optimality-gap certificate max_x D_x - I is at most
    1e-9 nats, which bounds the capacity lost by stopping.  Raises
    ``ValueError`` if the gap has not closed after 10^5 rounds.
    """
    T = W.transition
    q = W.q
    r = np.full(q, 1.0 / q)
    logT = np.where(T > 0, np.log(np.where(T > 0, T, 1.0)), 0.0)
    for _ in range(10**5):
        # reductions, not BLAS products: their bits do not depend on the CPU
        out = np.add.reduce(r[:, None] * T, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            log_out = np.where(out > 0, np.log(np.where(out > 0, out, 1.0)), 0.0)
        D = np.sum(np.where(T > 0, T * (logT - log_out[None, :]), 0.0), axis=1)
        I = float(np.add.reduce(r * D))
        if float(D.max()) - I <= 1e-9:
            return r / r.sum()
        r = r * np.exp(D - D.max())
        r /= r.sum()
    raise ValueError("capacity search did not converge within 100000 iterations")


# ------------------------------------------------- alphabet manipulation

def flatten(W: Channel) -> Channel:
    """Collapse the output alphabet to a single symbol (pure-noise channel)."""
    return Channel._owned(W.field, np.ones((W.q, 1)), W.input_dist)


def symmetrize(W: Channel) -> Channel:
    """Uniform-input symmetric wrap of an arbitrary channel.

    A uniform dither v is added to the source symbol before transmission
    and revealed alongside the channel output: the wrapped channel maps
    input u to output pair (v, y) with probability P_in(u-v) W(y | u-v).
    Every row is a permutation of the same joint array, the input is
    uniform, and both the conditional input entropy and all synthesized
    conditional entropies coincide with those of the original channel.
    """
    q, M = W.q, W.output_size
    joint = W.input_dist[:, None] * W.transition
    u = np.arange(q)
    diff = W.field.sub(u[:, None], u[None, :])  # (u, v) -> u - v
    trans = joint[diff, :].reshape(q, q * M)    # output index = v*M + y
    return Channel(W.field, trans, np.full(q, 1.0 / q))


def merge_outputs(W: Channel) -> Channel:
    """Merge the output symbols whose likelihood ratios agree on a lattice of pitch 2^-40.

    The key of output y is its log posterior ratios on the lattice,
    key_u = rint(2^40 * (log P(u|y) - log P(0|y))) for u = 1..q-1, with
    log 0 read as ``_LOG_ZERO`` = -2000.  Two outputs are neighbours when
    their keys differ by at most one lattice step in every row, and a group
    is what neighbours chain together, one key row at a time (the rule is
    ``_merge_sorted``'s with ``step`` 1).  Equal posteriors differ in their
    computed log ratios by rounding only, far below the pitch, so they
    always merge, on whichever side of a lattice midpoint their keys fall.
    Two outputs are told apart only when no chain of outputs, each within
    one step of the next, connects them.  The rule bounds no group's span,
    and a group that joins distinct posteriors loses their difference.
    The lattice is relative: its step is 2^-40 of log ratio, so posteriors
    near 0 or 1 are resolved as finely as those in between.  A finite log
    posterior is at least -745.  So where P(0|y) > 0, row u of the key lies
    within 745 * 2^40 of 0 when P(u|y) > 0 and below -1255 * 2^40 when
    P(u|y) = 0; where P(0|y) = 0, it is 0 when P(u|y) = 0 and above
    1255 * 2^40 otherwise.  Outputs whose keys are within a step of each
    other thus have their zeros in the same places.  Every key is an integer of magnitude at most
    2000 * 2^40 < 2^53, so keys and their differences are exact.
    Zero-mass outputs share a uniform posterior (key 0) and collapse
    together, and with the live uniform ones.

    The key is formed one window of ``_WINDOW`` columns at a time
    (``_log_ratio_key``); ``_merge_sorted`` groups it and states the order,
    the summation order (each group adds its columns in label order) and
    the memory.  At q = 2 a merge of N columns thus holds four N-long rows,
    W's two transition rows, the key row (later the group ids) and the sort
    order, besides N run-head flags, window-sized buffers and the result:
    no (q, N) posterior and no N-long output sum.
    """
    return _merge_sorted(W, _log_ratio_key(W), 1)


def _log_ratio_key(W: Channel) -> np.ndarray:
    """``merge_outputs``' (q-1, N) key of W, as a C-ordered buffer the caller owns.

    The key is formed one window of ``_WINDOW`` output columns at a time:
    the window's posterior from ``_posterior``, turned into keys in place
    (``_lattice_rows``) and copied into the key.  Every op is elementwise
    within a column, so the bits are those of the whole-array form, and no
    (q, N) posterior or N-long output sum is ever held.  A key of one
    window is rows 1..q-1 of that window's posterior buffer itself, so a
    tiny merge makes no call more than the whole-array form.
    """
    N = W.transition.shape[1]
    if N <= _WINDOW:
        return _lattice_rows(_posterior(W)[0])
    key = np.empty((W.q - 1, N))
    for lo in range(0, N, _WINDOW):
        window = slice(lo, lo + _WINDOW)
        key[:, window] = _lattice_rows(_posterior(W, cols=window)[0])
    return key


def _lattice_rows(post: np.ndarray) -> np.ndarray:
    """Rows 1..q-1 of the posterior buffer ``post``, made merge keys in place.

    The logs, floored at ``_LOG_ZERO``, the ratios to row 0, the lattice
    scale and ``rint``.  The logs are of the posterior, not of the joint: a
    column scaled by its mass would move the keys of its zero entries,
    which sit at the fixed ``_LOG_ZERO``.
    """
    with np.errstate(divide="ignore"):
        np.log(post, out=post)
    np.maximum(post, _LOG_ZERO, out=post)
    ratio = post[1:]
    ratio -= post[0]
    ratio *= _LATTICE
    np.rint(ratio, out=ratio)
    return ratio


def _merge_sorted(W: Channel, key: np.ndarray, step: int) -> Channel:
    """Merge the output columns of W that the (r, N) key columns chain together.

    The one place that groups output columns: ``merge_outputs`` keys them
    by log-ratio lattice point (r = q - 1, ``step`` 1),
    ``transform.quantize_merge`` by grid bin (r = q, ``step`` 0).  ``key``
    holds exact float integers in a C-ordered buffer the caller gives up:
    it is never sorted in place, and once the groups are known its row 0
    holds the group ids.

    Grouping rule: at ``step`` 0 the groups are the columns with equal key
    vectors, the runs of the lexicographic sort order.  Otherwise the
    columns are sorted by key row 0 and split wherever two neighbours
    differ by more than ``step``; then, one key row at a time, each run is
    sorted by that row and split the same way.  Either way a group is a run
    of the final order.  Each sort yields the same sequence of key values
    however it orders equal keys, so the groups, and the order of the
    merged columns (the order of their runs), do not depend on it: key row
    0 takes numpy's default, unstable ``argsort``.

    Summation order: each merged column adds its group's transition columns
    left to right in column-label order, one at a time from zero: one
    np.bincount per transition row over the columns' group ids, which adds
    every bin's weights in index order.  No bit depends on how a sort
    orders equal keys, nor on the CPU's sort kernel.  (A sum over a
    contiguous axis would not be bitwise: numpy adds it pairwise.)
    Returns ``W`` itself, in its original column order, when nothing
    merges.

    Memory: besides W, the result and ``key``, the N-long sort order and
    run heads, and one merged row at a time; the sort order is dropped
    before the sums.  With more than one key row and ``step`` 1, each row's
    pass also holds the N run indices, the row's sorted keys and the order
    within the runs.  The scan and the group ids walk the sorted order in
    windows of ``_WINDOW`` columns, so every other buffer they hold is
    window-sized.
    """
    rows, N = key.shape
    start = np.zeros(N, dtype=bool)  # the run heads after the first column
    if step == 0:
        order = np.lexsort(key[::-1])
        _split_runs(key, order, start, 0)
    else:
        order = key[0].argsort()
        _split_runs(key[:1], order, start, step)
        for r in range(1, rows):
            within = np.lexsort((key[r].take(order), np.cumsum(start)))
            order = order.take(within)
            del within
            _split_runs(key[r : r + 1], order, start, step)
    G = np.count_nonzero(start) + 1
    if G == N:
        return W
    # the key is read for the last time: its row 0 takes the group id of
    # each column, in label order.  Each window's run indices count the run
    # heads on from the group of the column before it (the flags are cast
    # to intp first: an accumulate that casts as it goes costs more)
    gid = key[0].view(np.intp)
    for lo in range(0, N, _WINDOW):
        runs = start[lo : lo + _WINDOW].astype(np.intp)
        np.add.accumulate(runs, out=runs)
        if lo:
            runs += gid[order[lo - 1]]
        gid[order[lo : lo + _WINDOW]] = runs
    del order, start, runs
    sums = np.empty((W.q, G))
    for x, row in enumerate(W.transition):
        sums[x] = np.bincount(gid, weights=row, minlength=G)
    return Channel._owned(W.field, sums, W.input_dist)


def _split_runs(key: np.ndarray, order: np.ndarray, start: np.ndarray, step: int) -> None:
    """Flag in ``start`` the sorted columns more than ``step`` above the column before.

    A flag is set where some key row exceeds the previous column's by more
    than ``step``; flags already set stay.  ``order`` must sort the key
    lexicographically within the runs that ``start`` already holds, so a
    row can fall only where an earlier row or a set flag rose, and no
    difference needs its sign dropped.  The sorted order is walked in
    windows of ``_WINDOW`` columns; each window gathers its key columns and
    the column before it, so every neighbour pair is compared, across
    window edges too.  A merge of at most ``_WINDOW`` columns is one
    window.
    """
    for lo in range(0, order.size, _WINDOW):
        a = lo - 1 if lo else 0  # window column 0: the column before the window
        idx = order[a : lo + _WINDOW]
        split = start[a + 1 : lo + _WINDOW]
        for row in key:
            # operators, not ufuncs with ``out=``: the keyword costs more
            # than the arithmetic on small merges
            sorted_row = row.take(idx)
            split |= sorted_row[1:] - sorted_row[:-1] > step


# ------------------------------------------------------- stock channels
# Each runs at the uniform input; ``Channel.with_input`` sets another law.

def bec(eps: float) -> Channel:
    """Binary erasure channel; outputs are (0, 1, erasure)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("erasure probability must lie in [0, 1]")
    trans = [[1 - eps, 0.0, eps], [0.0, 1 - eps, eps]]
    return make_channel(field_make(2), trans)


def bsc(delta: float) -> Channel:
    """Binary symmetric channel with flip probability delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    trans = [[1 - delta, delta], [delta, 1 - delta]]
    return make_channel(field_make(2), trans)


def zchannel(eps: float) -> Channel:
    """Z-channel: 0 passes clean, 1 flips to 0 with probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("crossover probability must lie in [0, 1]")
    trans = [[1.0, 0.0], [eps, 1 - eps]]
    return make_channel(field_make(2), trans)


def random_channel(
    field: FieldSpec,
    output_size: int,
    rng: np.random.Generator,
    random_input: bool = False,
) -> Channel:
    """Flat-Dirichlet transition rows, optionally a random input simplex."""
    trans = rng.dirichlet(np.full(output_size, 1.0), size=field.q)
    dist = rng.dirichlet(np.full(field.q, 1.0)) if random_input else None
    return make_channel(field, trans, dist)


# ---------------------------------------------------------------- JSON

def channel_to_dict(W: Channel) -> dict:
    return {
        "p": W.field.p,
        "m": W.field.m,
        "output_size": W.output_size,
        "transition": [[float(v) for v in row] for row in W.transition],
        "input_dist": [float(v) for v in W.input_dist],
    }


def _typed(cast, value, name: str, what: str = "spec"):
    """cast(value), reporting a value of the wrong type as a ValueError naming the field.

    Shared by the channel and spec file readers; ``what`` names the file kind.
    """
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} field {name} has the wrong type: {value!r}") from exc


def _document(doc, what: str) -> dict:
    """``doc`` itself if it is a JSON object; otherwise a ValueError naming the file kind."""
    if not isinstance(doc, dict):
        raise ValueError(f"a {what} file must hold a JSON object, got {type(doc).__name__}")
    return doc


def channel_from_dict(doc: dict) -> Channel:
    """Rebuild a channel from ``channel_to_dict`` output.

    Integer ``p``, ``m`` and ``output_size`` are read with
    ``operator.index`` and ``transition`` and ``input_dist`` as float
    arrays, so a wrong-typed one (null, 1.5, an object) raises a
    ``ValueError`` naming the field.  ``input_dist`` may be the keyword
    ``"capacity"``, which operates the channel at ``capacity_input``.  A
    ``doc`` that is not an object raises ``ValueError``.
    """
    doc = _document(doc, "channel")
    p = _typed(operator.index, doc["p"], "p", "channel")
    m = _typed(operator.index, doc.get("m", 1), "m", "channel")
    floats = partial(np.array, dtype=np.float64)
    transition = _typed(floats, doc["transition"], "transition", "channel")
    dist = doc.get("input_dist")
    capacity = isinstance(dist, str)
    if capacity and dist != "capacity":
        raise ValueError(f"unknown input_dist keyword {dist!r}")
    if dist is not None and not capacity:
        dist = _typed(floats, dist, "input_dist", "channel")
    W = make_channel(field_make(p, m), transition, None if capacity else dist)
    if "output_size" in doc:
        size = _typed(operator.index, doc["output_size"], "output_size", "channel")
        if size != W.output_size:
            raise ValueError(
                f"output_size {size} does not match transition width {W.output_size}"
            )
    return W.with_input(capacity_input(W)) if capacity else W
