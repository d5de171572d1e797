"""Sums in numpy's order, taken in a few long array operations.

numpy reduces each run of contiguous float64 entries by its own pairwise
scheme, starting from 0.0, in one inner loop per run.  When the runs are
short and many, those per-run loops cost more than the adds.  Here every
add is one array operation across all runs, in numpy's order, so each sum
is the one numpy gives, bit for bit.  The joint's prefix marginals
(`models.ExactJoint`), `coupling` and `bounds` keep their outputs by keeping
that order; an observable's tails and moments read `ExactJoint.law` instead.
"""

from __future__ import annotations

import numpy as np

#: `sum_last` leaves runs of at least this many entries to numpy's own
#: reduction, and also any array of at most 64 runs per entry of a run.
#: numpy pays about 15 ns per run; each strided slice add pays about 1.5 us
#: per call and a cache line per entry once the array outgrows the cache.
#: Per sum over the last axis, numpy's own against slices (2-core x86-64,
#: numpy 2.4): 2^17 entries, runs of 2: 982 against 60 us, of 8: 321
#: against 83 us, of 16: 180 against 123 us, of 32: 101 against 144 us;
#: 2^21 entries, runs of 8: 5.1 against 3.3 ms, of 16: 3.0 against 6.2 ms;
#: 2^13 entries, runs of 16: 13 against 25 us.  On small arrays the call
#: itself counts: `x.reshape(-1, 2).sum(axis=1)` against `sum_last` took
#: 4.4 against 5.2 us on 64 runs, 6.1 against 5.3 us on 128 runs and 15.7
#: against 6.4 us on 512 runs (the same box in a slower hour).
SLICES_BELOW = 16


def pairwise_sum(take, n: int, lo: int = 0):
    """take(lo) + ... + take(lo + n - 1), elementwise, in numpy's order.

    numpy sums n contiguous float64 entries pairwise: in order below 8; up
    to 128 in 8 interleaved partial sums, added ((0+1)+(2+3))+((4+5)+(6+7)),
    then the n % 8 left over in order; above that as two such sums split at
    a multiple of 8 near n/2.  Here every entry is an array, so each add is
    one long array operation.  numpy adds the result to 0.0, which turns a
    -0.0 sum into 0.0; this does not (`sum_last` does).  For n = 1 the
    result is take(lo) itself.
    """
    if n < 8:
        res = take(lo)
        if n > 1:
            res = res + take(lo + 1)
            for r in range(lo + 2, lo + n):
                res += take(r)
        return res
    if n <= 128:
        blocks = n - n % 8
        acc = [take(lo + j) for j in range(8)]
        if blocks > 8:
            acc = [a + take(lo + 8 + j) for j, a in enumerate(acc)]
            for start in range(lo + 16, lo + blocks, 8):
                for j, a in enumerate(acc):
                    a += take(start + j)
        res = (acc[0] + acc[1]) + (acc[2] + acc[3])
        res += (acc[4] + acc[5]) + (acc[6] + acc[7])
        for r in range(lo + blocks, lo + n):
            res += take(r)
        return res
    half = n // 2 - (n // 2) % 8
    res = pairwise_sum(take, half, lo)
    res += pairwise_sum(take, n - half, lo + half)
    return res


def sum_last(x: np.ndarray) -> np.ndarray:
    """`np.ascontiguousarray(x).sum(axis=-1)`, bit for bit, in any layout.

    With the last axis contiguous in memory and runs of at least
    `SLICES_BELOW` entries, or at most 64 runs per entry of a run, this is
    numpy's own reduction.  Otherwise it is `pairwise_sum` over the slices
    `x[..., c]`: a last axis of length k below 8 costs k - 1 adds, each
    across every run, and one more add of 0.0, numpy's start.
    """
    r = x.shape[-1]
    contiguous = x.strides[-1] == x.itemsize
    if contiguous and (r >= SLICES_BELOW or x.size <= 64 * r * r):
        return np.add.reduce(x, axis=-1)
    res = pairwise_sum(lambda c: x[..., c], r)
    if r == 1:
        return res + 0.0
    res += 0.0
    return res
