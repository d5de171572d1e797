"""`spinconc.sums` against numpy's own reductions, bit for bit."""

import numpy as np
import pytest

from spinconc import sums
from spinconc.models import exact_joint, ising_rect

from tests.test_coupling import _ternary_chain, _zero_mass_prefix_joint


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _data(rng, shape):
    """float64 entries over 25 orders of magnitude, of both signs, with
    +0.0 and -0.0 among them and, given two runs or more, a run of -0.0
    and one of +0.0: numpy starts each sum at 0.0, so both sum to +0.0."""
    x = rng.random(shape) ** 3 * rng.choice([1e-12, 1.0, 1e12], size=shape)
    x *= rng.choice([-1.0, 1.0], size=shape)
    x[rng.random(shape) < 0.15] = 0.0
    x[rng.random(shape) < 0.15] = -0.0
    runs = x.reshape(-1, shape[-1])
    if len(runs) > 1:
        runs[0] = -0.0
        runs[-1] = 0.0
    return x


# last axes of length 2-7 and from 8 on; enough runs to take the slices
# (more than 64 runs per entry of a run) and few enough to take numpy's own
_LAST_AXES = (2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 130)
_RUN_COUNTS = (1, 3, 40, 1100)


def _last_axis_cases(rng):
    """(array, label): C-contiguous arrays, and arrays whose last axis is
    strided (a transpose, and the past-innermost layout of the bands)."""
    for r in _LAST_AXES:
        for n in _RUN_COUNTS:
            x = _data(rng, (n, r))
            yield x, f"row-major {n}x{r}"
            yield np.ascontiguousarray(x.T).T, f"column-major {n}x{r}"
            inner = np.ascontiguousarray(_data(rng, (2, n, r)).transpose(2, 0, 1))
            yield inner.transpose(1, 2, 0), f"past-inner 2x{n}x{r}"


def _trailing_run_cases(rng):
    """(array, t, label): p and p g stacked on a first axis of 2, as the
    decomposition sums them, over their last t axes: runs of 1 to 256
    entries for k = 2 and of 1 to 243 for k = 3.  The first run of every t
    is -0.0 throughout and the last +0.0."""
    for k, m in ((2, 9), (3, 6)):
        x = _data(rng, (2,) + (k,) * m)
        x[0, 0] = -0.0
        x[1, -1] = 0.0
        for t in range(m):
            yield x, t, f"k={k}, last {t} axes"


def _mismatches(sum_last) -> list[str]:
    """Every case where `sum_last` is not numpy's `.sum` bit for bit."""
    rng = np.random.default_rng(28)
    bad = []
    for x, label in _last_axis_cases(rng):
        if not _same_bits(sum_last(x), np.ascontiguousarray(x).sum(axis=-1)):
            bad.append(label)
    for x, t, label in _trailing_run_cases(rng):
        want = x.sum(axis=tuple(range(x.ndim - t, x.ndim))).reshape(2, -1)
        if not _same_bits(sum_last(x.reshape(2, -1, x.shape[-1] ** t)), want):
            bad.append(label)
    return bad


def test_the_cases_cover_every_branch():
    runs = {x.shape[-1] ** t for x, t, _ in _trailing_run_cases(np.random.default_rng(0))}
    assert {1, 3, 9, 27, 81, 243} <= runs and {2, 4, 8, 16, 32, 64, 128, 256} <= runs
    # runs below 8, from 8 to 63 and of 64 or more, on both paths of sum_last
    assert min(_LAST_AXES) == 2 and max(_LAST_AXES) >= sums.SLICES_BELOW
    assert max(_RUN_COUNTS) > 64 * max(r for r in _LAST_AXES if r < sums.SLICES_BELOW)


def test_sum_last_is_numpys_sum_bit_for_bit():
    assert _mismatches(sums.sum_last) == []


def test_a_five_entry_run_added_pairwise_is_caught():
    # ((a+b)+(c+d))+e is numpy's order for a run of 8 or more, not of 5
    def sabotaged(x):
        if x.shape[-1] != 5:
            return sums.sum_last(x)
        t = [x[..., c] for c in range(5)]
        return ((t[0] + t[1]) + (t[2] + t[3])) + t[4] + 0.0

    assert _mismatches(sabotaged)


def test_a_lost_zero_start_is_caught():
    # numpy adds the sum to 0.0, so a run of -0.0 sums to +0.0
    def sabotaged(x):
        r = x.shape[-1]
        return sums.pairwise_sum(lambda c: x[..., c], r) + (0.0 if r == 1 else -0.0)

    assert _mismatches(sabotaged)


def test_pairwise_sum_is_numpys_sum():
    # every branch: in order, 8 partial sums with and without a remainder,
    # and the split of the sum above 128 entries; the sums are nonzero, so
    # numpy's start at 0.0 changes nothing
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 7, 8, 9, 15, 16, 27, 81, 128, 129, 243, 1000):
        x = rng.random((n, 5)) ** 3 * rng.choice([1e-9, 1.0, 1e9], size=(n, 5)) + 1.0
        got = sums.pairwise_sum(lambda r: x[r], n)
        assert _same_bits(got, np.ascontiguousarray(x.T).sum(axis=1)), n


@pytest.mark.parametrize("make", [
    lambda: exact_joint(ising_rect(4, 4, 0.2, "plus")),
    lambda: exact_joint(ising_rect(2, 3, 0.5, "plus")),
    lambda: exact_joint(_ternary_chain(7)),
    _zero_mass_prefix_joint,
], ids=["ising-4x4", "ising-2x3", "ternary-chain-7", "zero-mass-prefix"])
def test_prefix_marginals_are_numpys_last_axis_sums_bit_for_bit(make):
    joint = make()
    want = joint.probs
    for i in range(joint.n_sites - 1, -1, -1):
        assert _same_bits(joint.prefix_marginal(i), want), i
        want = want.sum(axis=-1)
