import itertools

import pytest
from hypothesis import given, strategies as st

from spinconc.lattice import (
    SpiralOrder,
    l1_distance,
    rect_sites,
    segment_sites,
    sort_by_spiral,
    spiral_sites,
)


def test_spiral_start_and_first_shell():
    gen = spiral_sites(2)
    first_nine = [next(gen) for _ in range(9)]
    assert first_nine[0] == (0, 0)
    assert first_nine[1] == (1, 0)  # first step in +x
    assert first_nine[2] == (1, 1)  # counterclockwise turn
    assert set(first_nine) == {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}


def test_shell_radii_nondecreasing():
    gen = spiral_sites(2)
    radii = [max(abs(c) for c in next(gen)) for _ in range(121)]
    assert radii == sorted(radii)


@given(st.integers(min_value=0, max_value=7))
def test_box_is_bijective_prefix(n):
    # the first (2n+1)^2 sites of the spiral are the centered box of radius n
    sites = list(itertools.islice(spiral_sites(2), (2 * n + 1) ** 2))
    assert len(set(sites)) == len(sites)
    assert set(sites) == {
        (x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)
    }
    order = SpiralOrder(2)
    assert [order.index_of(s) for s in sites] == list(range((2 * n + 1) ** 2))


def test_one_dimensional_order_is_identity():
    order = SpiralOrder(1)
    for i, site in zip(range(20), spiral_sites(1)):
        assert site == (i,)
        assert order.index_of(site) == i
    with pytest.raises(ValueError):
        order.index_of((-1,))


def test_index_site_inverse_2d():
    order = SpiralOrder(2)
    for k, site in zip(range(200), spiral_sites(2)):
        assert order.index_of(site) == k


def test_distances():
    assert l1_distance((0, 0), (3, -2)) == 5
    assert l1_distance((5,), (2,)) == 3


def test_sort_by_spiral_matches_index_order():
    sites = [(1, 1), (0, 0), (-1, 0), (2, 2)]
    ordered = sort_by_spiral(sites)
    order = SpiralOrder(2)
    idx = [order.index_of(s) for s in ordered]
    assert idx == sorted(idx)


def test_rect_sites_shape_and_order():
    sites = rect_sites(2, 3)
    assert len(sites) == 6
    assert len({s for s in sites}) == 6
    xs = sorted({s[0] for s in sites})
    ys = sorted({s[1] for s in sites})
    assert len(xs) == 3 and len(ys) == 2
    assert (0, 0) in sites
    order = SpiralOrder(2)
    idx = [order.index_of(s) for s in sites]
    assert idx == sorted(idx)


def test_segment_sites():
    assert segment_sites(3) == ((0,), (1,), (2,))
    assert tuple(itertools.islice(spiral_sites(1), 5)) == segment_sites(5)
