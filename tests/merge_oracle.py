"""Dense reference merges, written from their definitions for the tests.

``oracle_merge`` groups output columns by Python sorts over whole columns
and adds each group one Python float addition at a time: the rule of
``channel._merge_sorted``, which both ``merge_outputs`` and
``transform.quantize_merge`` run.  ``oracle_quantize_merge`` is
``quantize_merge`` from its definition, ``oracle_merge`` over the grid bins
at step 0.
"""

import functools
import operator

import numpy as np

from qpolar.channel import derived_distributions, make_channel


def oracle_runs(key, step):
    """The groups of ``_merge_sorted``'s rule, by Python sorts over whole columns.

    Each group is a list of column labels, and the groups come in the
    order of the merged columns.  At ``step`` 0 a group is the columns of
    one key vector, and the groups come in lexicographic key order.
    Otherwise the columns are sorted by (row 0, label) and cut wherever two
    neighbours differ by more than ``step`` in row 0; then, one row at a
    time, each group is sorted by that row (Python's sort is stable) and
    cut the same way.
    """
    rows, N = key.shape
    cols = [tuple(key[:, c].tolist()) for c in range(N)]
    if step == 0:
        runs = []
        for c in sorted(range(N), key=lambda c: (cols[c], c)):
            if runs and cols[runs[-1][-1]] == cols[c]:
                runs[-1].append(c)
            else:
                runs.append([c])
        return runs
    runs = [sorted(range(N), key=lambda c: (cols[c][0], c))]
    for r in range(rows):
        cut = []
        for run in runs:
            run = sorted(run, key=lambda c: cols[c][r])
            cut.append(run[:1])
            for a, b in zip(run, run[1:]):
                if abs(cols[b][r] - cols[a][r]) > step:
                    cut.append([b])
                else:
                    cut[-1].append(b)
        runs = cut
    return runs


def oracle_merge(W, key, step):
    """Reference: W merged over ``oracle_runs(key, step)``.

    Each merged column adds its group's transition columns left to right in
    label order, one Python float addition at a time; W itself when
    nothing merges.
    """
    runs = [sorted(run) for run in oracle_runs(key, step)]
    if len(runs) == W.output_size:
        return W
    T = W.transition.tolist()
    sums = [[functools.reduce(operator.add, [row[c] for c in run]) for run in runs] for row in T]
    return make_channel(W.field, sums, W.input_dist)


def oracle_quantize_merge(W, resolution):
    """Reference ``quantize_merge``: the equal bin vectors merge.

    The bins are min(floor(resolution * P(x|y)), resolution - 1) of the
    posterior of ``derived_distributions``.
    """
    bins = np.floor(derived_distributions(W).posterior * resolution)
    return oracle_merge(W, np.minimum(bins, resolution - 1), 0)
