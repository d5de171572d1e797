"""Alphabets, local observables, and exact oscillation vectors.

An observable is a real function of finitely many coordinates, given once as
a function vectorised over configurations.  Its per-site oscillation (the
largest change attainable by editing one coordinate) is computed exactly by
enumeration of the dependency set, or group by group for sums of functions
of disjoint coordinate sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from spinconc.errors import CapacityError, _integer, _only_keys
from spinconc.lattice import Site

#: most configurations any exact enumeration or joint may hold
ENUMERATION_CAP = 2**20

#: most configurations per `LocalFunction.fn` call in `value_grid`
_BLOCK = 2**12


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered symbol set with numeric values used by observables."""

    symbols: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.symbols) != len(self.values):
            raise ValueError("symbols and values must have equal length")
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least two symbols")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


#: two-symbol spin alphabet, the default almost everywhere
SPIN = Alphabet(("-", "+"), (-1.0, 1.0))


@dataclass(frozen=True)
class LocalFunction:
    """Observable depending on `sites` only.

    `fn` is the observable's one implementation: it maps an (n, len(sites))
    array of alphabet values, columns aligned with `sites`, to the n values
    of g.  Exact tables and oscillations evaluate it on `value_grid`'s
    blocks, Monte Carlo runs on sampled rows.  `groups`, when given, is a
    partition of `sites`, with no functions, that declares g a sum of
    functions of one group each; the oscillation at x then enumerates only
    x's group, the other sites held at one symbol, which keeps it cheap for
    large volumes.
    """

    name: str
    sites: tuple[Site, ...]
    fn: Callable[[np.ndarray], np.ndarray]
    groups: tuple[tuple[Site, ...], ...] | None = None

    def oscillations(self, alphabet: Alphabet) -> np.ndarray:
        """Per site of `sites`, the largest |g(s) - g(s')| over configuration
        pairs differing there only: max - min along that site's axis of the
        grid of its group."""
        column = {s: i for i, s in enumerate(self.sites)}
        out = np.empty(len(self.sites))
        for group in self.groups or (self.sites,):
            cols = [column[s] for s in group]
            grid = value_grid(self, alphabet, cols)
            out[cols] = [np.ptp(grid, axis=a).max() for a in range(len(cols))]
        return out

    def span(self, alphabet: Alphabet) -> float:
        """max g - min g over every configuration: the sum over groups of
        each group grid's range, since g sums one function per group."""
        column = {s: i for i, s in enumerate(self.sites)}
        return float(sum(np.ptp(value_grid(self, alphabet, [column[s] for s in group]))
                         for group in self.groups or (self.sites,)))


def value_grid(g: LocalFunction, alphabet: Alphabet,
               columns: Sequence[int] | None = None) -> np.ndarray:
    """g on every configuration of the sites `g.sites[c]` for c in `columns`
    (default: all of them), the other sites held at the alphabet's first
    value; one axis per column, in the order given.

    Configurations run row-major and reach `g.fn` in blocks of at most
    `_BLOCK` rows, one block per setting of the leading coordinates.
    """
    columns = list(range(len(g.sites)) if columns is None else columns)
    k, n = alphabet.size, len(columns)
    if k ** n > ENUMERATION_CAP:
        raise CapacityError(f"{g.name} needs {k}^{n} evaluations, cap is {ENUMERATION_CAP}")
    values = np.asarray(alphabet.values, dtype=float)
    tail = n
    while tail > 0 and k ** tail > _BLOCK:
        tail -= 1
    lead = columns[:n - tail]
    block = np.full((k ** tail, len(g.sites)), values[0])
    block[:, columns[n - tail:]] = values[np.indices((k,) * tail).reshape(tail, k ** tail).T]
    out = np.empty((k ** (n - tail), k ** tail))
    for row, setting in zip(out, itertools.product(values, repeat=n - tail)):
        block[:, lead] = setting
        row[:] = g.fn(block)
    return out.reshape((k,) * n)


@dataclass(frozen=True)
class DeltaVector:
    """Per-site oscillations aligned with an ordered volume, plus norms."""

    sites: tuple[Site, ...]
    per_site: np.ndarray
    l1: float
    l2: float

    @property
    def l2_squared(self) -> float:
        return self.l2 ** 2


def delta_vector(g: LocalFunction, volume_sites: Sequence[Site],
                 alphabet: Alphabet) -> DeltaVector:
    """Exact oscillation vector of g along an ordered volume."""
    volume = tuple(tuple(s) for s in volume_sites)
    position = {s: i for i, s in enumerate(volume)}
    missing = [s for s in g.sites if s not in position]
    if missing:
        raise ValueError(f"observable {g.name} depends on sites outside the volume: {missing}")
    per_site = np.zeros(len(volume))
    per_site[[position[s] for s in g.sites]] = g.oscillations(alphabet)
    return DeltaVector(
        sites=volume,
        per_site=per_site,
        l1=float(per_site.sum()),
        l2=float(np.sqrt((per_site ** 2).sum())),
    )


# ---------------------------------------------------------------------------
# built-in observable catalog
# ---------------------------------------------------------------------------

def magnetization(sites: Sequence[Site], normalized: bool = True) -> LocalFunction:
    """Mean (or sum, if normalized=False) of the numeric values over `sites`."""
    sites = tuple(tuple(s) for s in sites)
    scale = 1.0 / len(sites) if normalized else 1.0
    return LocalFunction(
        name="magnetization" if normalized else "total_spin",
        sites=sites,
        fn=lambda m: scale * m.sum(axis=1),
        groups=tuple((s,) for s in sites),
    )


def total_spin(sites: Sequence[Site]) -> LocalFunction:
    return magnetization(sites, normalized=False)


def single_spin(site: Site) -> LocalFunction:
    site = tuple(site)
    return LocalFunction(name=f"spin{site}", sites=(site,), fn=lambda m: m[:, 0])


def pair_product(x: Site, y: Site) -> LocalFunction:
    x, y = tuple(x), tuple(y)
    if x == y:
        raise ValueError("pair product needs two distinct sites")
    return LocalFunction(name=f"pair{x}*{y}", sites=(x, y),
                         fn=lambda m: m[:, 0] * m[:, 1])


def majority(sites: Sequence[Site]) -> LocalFunction:
    """Sign of the value sum; use an odd number of spin sites to avoid ties."""
    sites = tuple(tuple(s) for s in sites)
    return LocalFunction(name=f"majority[{len(sites)}]", sites=sites,
                         fn=lambda m: np.sign(m.sum(axis=1)))


def pattern_indicator(sites: Sequence[Site], pattern: Sequence[str],
                      alphabet: Alphabet = SPIN) -> LocalFunction:
    """Indicator that the configuration restricted to `sites` equals `pattern`."""
    sites = tuple(tuple(s) for s in sites)
    if len(pattern) != len(sites):
        raise ValueError("pattern length must match the site list")
    target = np.array([alphabet.values[alphabet.index(sym)] for sym in pattern])
    return LocalFunction(name=f"pattern[{''.join(pattern)}]", sites=sites,
                         fn=lambda m: (m == target).all(axis=1).astype(float))


def build_function(spec: dict, volume_sites: Sequence[Site],
                   alphabet: Alphabet = SPIN) -> LocalFunction:
    """Instantiate a catalog observable from a config dictionary.

    Site coordinates and `count` are read through `_integer` and
    `normalized` must be a boolean; anything else is a TypeError.  A key
    the kind does not read is a ConfigError.
    """
    kind = spec.get("kind")
    read = {"magnetization": {"normalized"}, "total_spin": set(), "single_spin": {"site"},
            "pair_product": {"x", "y"}, "majority": {"count"},
            "pattern_indicator": {"sites", "pattern"}}
    if not isinstance(kind, str) or kind not in read:
        raise ValueError(f"unknown observable kind: {kind!r}")
    _only_keys(spec, read[kind] | {"kind"}, f"observable kind {kind!r}")
    volume = tuple(tuple(s) for s in volume_sites)

    def site(coords) -> Site:
        return tuple(_integer(c) for c in coords)

    if kind == "magnetization":
        normalized = spec.get("normalized", True)
        if not isinstance(normalized, bool):
            raise TypeError(f"normalized must be true or false, got {normalized!r}")
        return magnetization(volume, normalized)
    if kind == "total_spin":
        return total_spin(volume)
    if kind == "single_spin":
        return single_spin(site(spec.get("site", volume[0])))
    if kind == "pair_product":
        return pair_product(site(spec.get("x", volume[0])), site(spec.get("y", volume[1])))
    if kind == "majority":
        count = _integer(spec.get("count", min(3, len(volume))))
        if not 1 <= count <= len(volume):
            raise ValueError(f"majority count must lie in [1, {len(volume)}], got {count}")
        return majority(volume[:count])
    sites = ([site(s) for s in spec["sites"]] if "sites" in spec
             else volume[: len(spec["pattern"])])
    return pattern_indicator(sites, spec["pattern"], alphabet)
