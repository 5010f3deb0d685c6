#!/usr/bin/env python3
"""Check the float synthesis pipeline against an exact rational one.

The exact pipeline builds each synthesized channel from its definition,
over Python integers: a channel is a common denominator D and one column of
integer joint masses D * P(x, y) per live output.  Position i of a kernel
step G maps the source word u to x = u G (mod p, prime p) and gives the
output (u_<i, y_1..y_ell) of input u_i the joint mass
sum over u_>i of prod_j P(x_j, y_j).  Outputs merge when their posteriors
are equal, which for integer columns means equal primitive vectors (the
column divided by the gcd of its entries); zero-mass outputs are dropped.
Pe is then an exact rational; H and Z are taken in floats from the exact
masses through the logs of their integers, so no mass underflows.

``compare`` walks a synthesis tree with ``qpolar.transform.transform``
beside the exact pipeline and reports, at every node, the live output
counts and the relative errors of Pe, H and Z; the tier-1 tests
(tests/test_exact_reference.py) run it on tiny specs.  The script runs the
deeper case: the best leaf (every position 2) of BSC(1/100) under the
Arikan kernel, which at depth 5 must keep 33 outputs with Pe within 1e-12
relative of the exact value (about 2.61e-24).  It exits 1 on a mismatch of
the count or of Pe.  H and Z are reported but not checked there:
``param_vector`` takes H near posterior 1 with a cancellation that leaves
it about 7.6e-9 relative off at that leaf, which says nothing of the merge.

example:
  PYTHONPATH=src python3 scripts/exact_reference.py --depth 5
"""

import argparse
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from qpolar.channel import make_channel
from qpolar.gf import field_make, mat_invert
from qpolar.params import param_vector
from qpolar.transform import transform

#: the relative agreement of Pe with the exact value asked of every node
PE_TOL = 1e-12

#: the relative agreement of H and Z asked of every node in the tier-1 tests
REL_TOL = 1e-8


class Exact:
    """A channel over GF(p): joint masses ``cols[y][x] / den``, every column live."""

    def __init__(self, p: int, den: int, cols):
        self.p, self.den, self.cols = p, den, cols

    @classmethod
    def from_rationals(cls, p: int, transition, input_dist) -> "Exact":
        """The channel with rows ``transition`` at input ``input_dist`` (any rationals)."""
        joint = [[Fraction(px) * Fraction(w) for w in row] for px, row in zip(input_dist, transition)]
        den = math.lcm(*(j.denominator for row in joint for j in row))
        cols = [tuple(int(row[y] * den) for row in joint) for y in range(len(joint[0]))]
        return cls(p, den, _merge(cols))

    def floats(self) -> tuple[np.ndarray, np.ndarray]:
        """The transition rows and input law as floats, for the float pipeline."""
        mass = [sum(col[x] for col in self.cols) for x in range(self.p)]
        trans = [[Fraction(col[x], mass[x]) if mass[x] else Fraction(1, len(self.cols))
                  for col in self.cols] for x in range(self.p)]
        return np.array(trans, dtype=float), np.array([Fraction(m, self.den) for m in mass], dtype=float)

    def synthesize(self, G, i: int) -> "Exact":
        """Position ``i`` (1-based) of one step of the kernel ``G`` (rows of ints mod p)."""
        p, ell = self.p, len(G)
        out: dict[tuple, list[int]] = {}
        for u in itertools.product(range(p), repeat=ell):
            x = [sum(u[k] * G[k][j] for k in range(ell)) % p for j in range(ell)]
            for ys in itertools.product(range(len(self.cols)), repeat=ell):
                mass = 1
                for j, y in enumerate(ys):
                    mass *= self.cols[y][x[j]]
                if mass:
                    col = out.setdefault((u[: i - 1], ys), [0] * p)
                    col[u[i - 1]] += mass
        return Exact(p, self.den**ell, _merge(tuple(c) for c in out.values()))

    def params(self) -> dict:
        """Exact Pe and float H and Z of the channel, as ``param_vector`` defines them."""
        p, den = self.p, self.den
        pe = sum(sum(col) - max(col) for col in self.cols)
        h = z = 0.0
        for col in self.cols:
            out = sum(col)
            h -= sum(c / den * (math.log(c) - math.log(out)) for c in col if c) / math.log(p)
            for x, d in itertools.product(range(p), range(1, p)):
                other = col[(x + d) % p]
                if col[x] and other:
                    z += math.exp((math.log(col[x]) + math.log(other)) / 2 - math.log(den))
        return {"Pe": Fraction(pe, den), "H": h, "Z": z / (p - 1)}


def _merge(cols) -> list[tuple]:
    """The live columns, those with equal posteriors summed."""
    groups: dict[tuple, list[int]] = {}
    for col in cols:
        g = math.gcd(*col)
        if g:
            acc = groups.setdefault(tuple(c // g for c in col), [0] * len(col))
            for x, c in enumerate(col):
                acc[x] += c
    return [tuple(acc) for acc in groups.values()]


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def compare(exact: Exact, G, depth: int, paths=None):
    """Walk the synthesis tree to ``depth`` in both pipelines; one record per node.

    ``paths`` limits the walk to the prefixes of the given leaf paths
    (tuples of 1-based positions); by default every node is visited.
    Each record is (path, exact live outputs, float live outputs, relative
    errors of Pe, H and Z, exact parameters).
    """
    field = field_make(exact.p)
    kernel = mat_invert(field, G)
    W = make_channel(field, *exact.floats())
    records = []

    def visit(path, E, V):
        want, pv = E.params(), param_vector(V)
        live = int(np.count_nonzero(V.derived.output > 0))
        errs = {name: _rel(getattr(pv, name), float(want[name])) for name in ("Pe", "H", "Z")}
        records.append((path, len(E.cols), live, errs, want))
        if len(path) == depth:
            return
        for k in range(1, len(G) + 1):
            child = path + (k,)
            if paths is None or any(leaf[: len(child)] == child for leaf in paths):
                visit(child, E.synthesize(G, k), transform(V, kernel, k))

    visit((), exact, W)
    return records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, default=5, help="depth of the best BSC(1/100) leaf")
    args = ap.parse_args()
    if args.depth < 1:
        ap.error("depth must be at least 1")
    eps = Fraction(1, 100)
    bsc = Exact.from_rationals(2, [[1 - eps, eps], [eps, 1 - eps]], [Fraction(1, 2)] * 2)
    ok = True
    for path, want, got, errs, exact in compare(bsc, [[1, 0], [1, 1]], args.depth, [(2,) * args.depth]):
        good = want == got and errs["Pe"] <= PE_TOL
        ok = ok and good
        print(f"{list(path)}: exact {want} outputs, float {got}, exact Pe {float(exact['Pe']):.6e};"
              + "".join(f" {k} rel err {v:.1e}" for k, v in errs.items())
              + ("" if good else "  MISMATCH"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
