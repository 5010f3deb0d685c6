"""The float synthesis pipeline against exact rational syntheses, node by node.

``scripts/exact_reference.py`` builds each synthesized channel from its
definition over Python integers and merges outputs by exact posterior
equality.  At every node walked, ``transform`` must keep exactly the exact
count of live outputs (a lossless merge neither merges distinct posteriors
nor leaves equal ones apart), Pe must agree to 1e-12 relative, and H and Z
to 1e-8.
Tiny specs only: prime q up to 5, kernels up to 3x3, depth up to 4.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpolar.gf import field_make, sample_invertible

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "exact_reference.py"
_spec = importlib.util.spec_from_file_location("exact_reference", _SCRIPT)
exact_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact_reference)
Exact, compare = exact_reference.Exact, exact_reference.compare

ARIKAN = [[1, 0], [1, 1]]


def _check(records):
    for path, want, got, errs, _ in records:
        assert got == want, (path, want, got)
        for name, err in errs.items():
            tol = exact_reference.PE_TOL if name == "Pe" else exact_reference.REL_TOL
            assert err <= tol, (path, name, err)


def _bsc(eps):
    return Exact.from_rationals(2, [[1 - eps, eps], [eps, 1 - eps]], [Fraction(1, 2)] * 2)


def _zchannel(eps, input_dist):
    return Exact.from_rationals(2, [[1, 0], [eps, 1 - eps]], input_dist)


def _symmetric(p, eps, input_dist):
    """The p-ary symmetric channel: correct with 1 - eps, each other symbol eps / (p - 1)."""
    rows = [[1 - eps if x == y else eps / (p - 1) for y in range(p)] for x in range(p)]
    return Exact.from_rationals(p, rows, input_dist)


F = Fraction
HALF = [F(1, 2)] * 2


@pytest.mark.parametrize(
    "channel, kernel, depth, paths",
    [
        # the well-polarized leaves, where a merge within an absolute 1e-12
        # merged distinct posteriors near 0 and 1
        (_bsc(F(1, 100)), ARIKAN, 4, None),
        (_bsc(F(1, 50)), ARIKAN, 4, None),
        (_bsc(F(11, 100)), ARIKAN, 4, None),
        (_zchannel(F(3, 10), HALF), ARIKAN, 4, None),
        (_zchannel(F(3, 10), [F(3, 5), F(2, 5)]), ARIKAN, 4, None),
        # q = 3 with a non-uniform input: posteriors equal in every entry
        # but sorted apart by rounding in their first
        (Exact.from_rationals(
            3, [[F(7, 10), F(2, 10), F(1, 10)], [F(1, 10), F(6, 10), F(3, 10)],
                [F(25, 100), F(15, 100), F(6, 10)]], [F(3, 10), F(3, 10), F(4, 10)]),
         ARIKAN, 2, None),
        (_symmetric(3, F(1, 20), [F(1, 2), F(1, 4), F(1, 4)]), [[1, 0], [2, 1]], 3,
         [(2, 1, 1), (2, 2, 1)]),
        (_symmetric(3, F(1, 20), [F(1, 3)] * 3), ARIKAN, 3, None),
        (_symmetric(5, F(1, 10), [F(1, 5)] * 5), ARIKAN, 2, None),
        (_symmetric(2, F(1, 10), HALF), [[1, 0, 0], [1, 1, 0], [1, 1, 1]], 2, None),
        (_symmetric(3, F(1, 10), [F(1, 3)] * 3), [[1, 0, 0], [1, 1, 0], [1, 1, 1]], 2, None),
    ],
    ids=["bsc-1/100", "bsc-1/50", "bsc-11/100", "z-3/10", "z-3/10-input",
         "gf3-channel", "gf3-symmetric-input", "gf3-symmetric", "gf5-symmetric",
         "gf2-ell3", "gf3-ell3"],
)
def test_every_node_matches_the_exact_synthesis(channel, kernel, depth, paths):
    _check(compare(channel, kernel, depth, paths))


@st.composite
def rational_cases(draw):
    """A random rational channel over GF(2, 3, 5), a random kernel and a depth.

    Transition rows are integer weights 0..9 over their sum, with zeros
    allowed; the input law is uniform or random.  The kernel is a random
    invertible 2x2 (or 3x3 over GF(2)), and the walk goes to depth 2 (1 for
    the larger alphabets).
    """
    p = draw(st.sampled_from([2, 3, 5]))
    M = draw(st.integers(1, 3 if p < 5 else 2))
    weights = st.lists(st.integers(0, 9), min_size=M, max_size=M).filter(any)
    rows = [[F(w, sum(ws)) for w in ws] for ws in draw(st.lists(weights, min_size=p, max_size=p))]
    if draw(st.booleans()):
        dist = [F(1, p)] * p
    else:
        ds = draw(st.lists(st.integers(1, 5), min_size=p, max_size=p))
        dist = [F(d, sum(ds)) for d in ds]
    ell = draw(st.sampled_from([2, 3])) if p == 2 else 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = sample_invertible(field_make(p), ell, rng).entries.tolist()
    depth = 2 if p * M <= 6 and ell == 2 else 1
    return Exact.from_rationals(p, rows, dist), kernel, depth


@given(rational_cases())
@settings(max_examples=25, deadline=None)
def test_random_rational_channels_match_the_exact_synthesis(case):
    _check(compare(*case))
