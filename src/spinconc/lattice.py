"""Site enumeration on Z^d along a square spiral, rectangles, and distances.

The enumeration fixes the total order used by filtrations, coupling
constructions and sweep schedules everywhere else in the package.  In one
dimension the lattice is one-sided (sites 0, 1, 2, ... in natural order); in
two dimensions it is the counterclockwise square spiral from the origin whose
first step goes in the +x direction (runs of 1, 1, 2, 2, 3, ... steps, a left
turn after each).  Shell r = max(|x|, |y|) fills positions (2r-1)^2 up to
(2r+1)^2 - 1, from (r, 1-r) up the right side, along the top, down the left
side and along the bottom, so the first (2n+1)^2 sites are exactly the
centered box of radius n; `spiral_index` is that position in closed form.
"""

from __future__ import annotations

Site = tuple[int, ...]


def l1_distance(x: Site, y: Site) -> int:
    """Graph (l1) distance; nearest neighbors are at l1 distance 1."""
    return sum(abs(a - b) for a, b in zip(x, y))


def spiral_index(site: Site) -> int:
    """A site's position in the enumeration order: its step count along the
    counterclockwise walk from (0, 0) whose first step is +x.

    In 1D the position is the coordinate, which must be nonnegative.  In 2D,
    with r = max(|x|, |y|) and base = (2r-1)^2, it is base + r-1 + y on the
    right side (x = r, y > -r), base + 3r-1 - x on the top (y = r),
    base + 5r-1 - y on the left (x = -r) and base + 7r-1 + x on the bottom;
    the origin takes the top branch, 1 + 0-1 - 0 = 0.  Any other dimension
    is a ValueError.
    """
    if len(site) == 1:
        if site[0] < 0:
            raise ValueError(f"site {tuple(site)} outside the supported coordinate range")
        return site[0]
    if len(site) != 2:
        raise ValueError(f"unsupported dimension {len(site)}")
    x, y = site
    r = max(abs(x), abs(y))
    base = (2 * r - 1) ** 2
    if x == r and y > -r:
        return base + r - 1 + y
    if y == r:
        return base + 3 * r - 1 - x
    if x == -r:
        return base + 5 * r - 1 - y
    return base + 7 * r - 1 + x


def sort_by_spiral(sites) -> tuple[Site, ...]:
    """Sort a finite collection of sites of one dimension by enumeration order."""
    sites = [tuple(s) for s in sites]
    if len({len(s) for s in sites}) > 1:
        raise ValueError("sites of different dimensions have no common order")
    return tuple(sorted(sites, key=spiral_index))


def _centered_range(h: int) -> range:
    lo = -((h - 1) // 2)
    return range(lo, lo + h)


def rect_sites(rows: int, cols: int) -> tuple[Site, ...]:
    """A rows x cols rectangle placed around the origin, in enumeration order.

    Coordinates are (x, y) with x varying over `cols` values and y over `rows`.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rectangle sides must be positive")
    return sort_by_spiral((x, y) for y in _centered_range(rows) for x in _centered_range(cols))


def segment_sites(n: int) -> tuple[Site, ...]:
    """The first n sites of the one-dimensional lattice."""
    if n < 1:
        raise ValueError("segment length must be positive")
    return tuple((i,) for i in range(n))
