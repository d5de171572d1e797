import itertools
import random

import pytest
from hypothesis import given, strategies as st

from spinconc.lattice import (
    l1_distance,
    rect_sites,
    segment_sites,
    sort_by_spiral,
    spiral_index,
)

from .oracles import spiral_walk


def _box(n):
    return [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]


def test_spiral_start_and_first_shell():
    first_nine = sort_by_spiral(_box(1))
    assert first_nine[0] == (0, 0)
    assert first_nine[1] == (1, 0)  # first step in +x
    assert first_nine[2] == (1, 1)  # counterclockwise turn
    assert [spiral_index(s) for s in first_nine] == list(range(9))


def test_shell_radii_nondecreasing():
    first = sort_by_spiral(_box(5))
    assert [spiral_index(s) for s in first] == list(range(121))
    radii = [max(abs(c) for c in s) for s in first]
    assert radii == sorted(radii)


@given(st.integers(min_value=0, max_value=7))
def test_box_is_bijective_prefix(n):
    # the first (2n+1)^2 positions of the spiral are the centered box of radius n
    assert sorted(spiral_index(s) for s in _box(n)) == list(range((2 * n + 1) ** 2))


def test_one_dimensional_order_is_identity():
    for i in range(20):
        assert spiral_index((i,)) == i
    with pytest.raises(ValueError):
        spiral_index((-1,))


def test_unsupported_dimensions_are_refused():
    for site in ((), (0, 0, 0)):
        with pytest.raises(ValueError):
            spiral_index(site)
    with pytest.raises(ValueError):
        sort_by_spiral([(0, 0), (1,)])


def test_index_site_inverse_2d():
    n = (2 * 30 + 1) ** 2  # every site of radius <= 30
    for k, site in zip(range(n), spiral_walk(2)):
        assert spiral_index(site) == k
    # shell R starts at (R, 1-R) after the (2R-1)^2 sites inside it, and each
    # of its four sides takes 2R steps
    R = 10 ** 6
    base = (2 * R - 1) ** 2
    assert spiral_index((R, 1 - R)) == base
    assert spiral_index((R, R)) == base + 2 * R - 1
    assert spiral_index((-R, R)) == base + 4 * R - 1
    assert spiral_index((-R, -R)) == base + 6 * R - 1
    assert spiral_index((R, -R)) == base + 8 * R - 1 == (2 * R + 1) ** 2 - 1


def test_distances():
    assert l1_distance((0, 0), (3, -2)) == 5
    assert l1_distance((5,), (2,)) == 3


def test_sort_by_spiral_matches_index_order():
    walk = list(itertools.islice(spiral_walk(2), 49))
    sites = random.Random(7).sample(walk, 20)
    assert sort_by_spiral(sites) == tuple(s for s in walk if s in sites)
    assert sort_by_spiral(reversed(walk)) == tuple(walk)
    assert sort_by_spiral([]) == ()


def test_rect_sites_shape_and_order():
    sites = rect_sites(2, 3)
    assert len(sites) == 6
    assert len({s for s in sites}) == 6
    xs = sorted({s[0] for s in sites})
    ys = sorted({s[1] for s in sites})
    assert len(xs) == 3 and len(ys) == 2
    assert (0, 0) in sites
    # every small rectangle lists its sites in walk order
    walk = list(itertools.islice(spiral_walk(2), 11 ** 2))
    for rows, cols in itertools.product(range(1, 10), repeat=2):
        rect = set(rect_sites(rows, cols))
        assert len(rect) == rows * cols
        assert rect_sites(rows, cols) == tuple(s for s in walk if s in rect)


def test_segment_sites():
    assert segment_sites(3) == ((0,), (1,), (2,))
    assert tuple(itertools.islice(spiral_walk(1), 5)) == segment_sites(5)
