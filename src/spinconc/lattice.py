"""Site enumeration on Z^d along a square spiral, rectangles, and distances.

The enumeration fixes the total order used by filtrations, coupling
constructions and sweep schedules everywhere else in the package.  In one
dimension the lattice is one-sided (sites 0, 1, 2, ... in natural order); in
two dimensions the order is a counterclockwise square spiral around the
origin whose first step goes in the +x direction.  The spiral completes each
sup-norm shell before entering the next one, so the first (2n+1)^2 sites are
exactly the centered box of radius n.
"""

from __future__ import annotations

from typing import Iterator

Site = tuple[int, ...]

# counterclockwise: +x, +y, -x, -y
_DIRECTIONS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def l1_distance(x: Site, y: Site) -> int:
    """Graph (l1) distance; nearest neighbors are at l1 distance 1."""
    return sum(abs(a - b) for a, b in zip(x, y))


def spiral_sites(d: int) -> Iterator[Site]:
    """Yield lattice sites in enumeration order, lazily."""
    if d == 1:
        i = 0
        while True:
            yield (i,)
            i += 1
    elif d == 2:
        x, y = 0, 0
        yield (0, 0)
        run = 1
        direction = 0
        while True:
            for _ in range(2):
                dx, dy = _DIRECTIONS[direction % 4]
                for _ in range(run):
                    x, y = x + dx, y + dy
                    yield (x, y)
                direction += 1
            run += 1
    else:
        raise ValueError(f"unsupported dimension {d}")


class SpiralOrder:
    """Bijection between N and the site set, materialized lazily."""

    def __init__(self, d: int):
        if d not in (1, 2):
            raise ValueError(f"unsupported dimension {d}")
        self.d = d
        self._gen = spiral_sites(d)
        self._sites: list[Site] = []
        self._index: dict[Site, int] = {}

    def _grow(self, upto: int) -> None:
        while len(self._sites) <= upto:
            s = next(self._gen)
            self._index[s] = len(self._sites)
            self._sites.append(s)

    def index_of(self, site: Site) -> int:
        site = tuple(site)
        if len(site) != self.d:
            raise ValueError(f"site {site} has wrong dimension for d={self.d}")
        if self.d == 1:
            if site[0] < 0:
                raise ValueError(f"site {site} outside the supported coordinate range")
            return site[0]
        if site not in self._index:
            # the spiral reaches every site of sup-norm radius r within (2r+1)^2 steps
            r = max(abs(c) for c in site)
            self._grow((2 * r + 1) ** 2 - 1)
        return self._index[site]


def sort_by_spiral(sites, order: SpiralOrder | None = None) -> tuple[Site, ...]:
    """Sort an arbitrary finite site collection by enumeration order."""
    sites = [tuple(s) for s in sites]
    if not sites:
        return ()
    if order is None:
        order = SpiralOrder(len(sites[0]))
    return tuple(sorted(sites, key=order.index_of))


def _centered_range(h: int) -> range:
    lo = -((h - 1) // 2)
    return range(lo, lo + h)


def rect_sites(rows: int, cols: int) -> tuple[Site, ...]:
    """A rows x cols rectangle placed around the origin, in enumeration order.

    Coordinates are (x, y) with x varying over `cols` values and y over `rows`.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rectangle sides must be positive")
    raw = [(x, y) for y in _centered_range(rows) for x in _centered_range(cols)]
    return sort_by_spiral(raw, SpiralOrder(2))


def segment_sites(n: int) -> tuple[Site, ...]:
    """The first n sites of the one-dimensional lattice."""
    if n < 1:
        raise ValueError("segment length must be positive")
    return tuple((i,) for i in range(n))
