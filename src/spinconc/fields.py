"""Alphabets, local observables, and exact oscillation vectors.

An observable is a real function of finitely many coordinates.  Its per-site
oscillation (the largest change attainable by editing one coordinate) is
computed exactly by enumeration of the dependency set, or term by term for
sums whose terms depend on disjoint coordinate sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from spinconc.errors import CapacityError
from spinconc.lattice import Site

DEFAULT_ENUMERATION_CAP = 2**20


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
    """Observable depending on `sites` only, evaluated on alphabet values.

    `fn` receives a tuple of numeric values aligned with `sites`.  When the
    function is a sum of terms over pairwise disjoint site sets, `terms`
    lists (site_subset, term_fn) pairs; per-site oscillations then reduce to
    the oscillation of the unique term containing the site, which keeps the
    enumeration exact and cheap for large volumes.
    """

    name: str
    sites: tuple[Site, ...]
    fn: Callable[[tuple[float, ...]], float]
    terms: tuple[tuple[tuple[Site, ...], Callable], ...] | None = None
    batch_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def eval_batch(self, values_matrix: np.ndarray) -> np.ndarray:
        """Evaluate on a (n_samples, len(sites)) matrix of numeric values."""
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(values_matrix), dtype=float)
        return np.array([self.fn(tuple(row)) for row in values_matrix], dtype=float)

    def variation(self, x: Site, alphabet: Alphabet,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> float:
        """Largest |g(s) - g(s')| over configuration pairs differing at x only."""
        x = tuple(x)
        if x not in self.sites:
            return 0.0
        if self.terms is not None:
            for term_sites, term_fn in self.terms:
                if x in term_sites:
                    return _enumeration_variation(term_fn, term_sites, x, alphabet, cap)
            return 0.0
        return _enumeration_variation(self.fn, self.sites, x, alphabet, cap)


def _enumeration_variation(fn, sites, x, alphabet, cap) -> float:
    k = alphabet.size
    if k ** len(sites) > cap:
        raise CapacityError(
            f"oscillation enumeration needs {k}^{len(sites)} evaluations, cap is {cap}"
        )
    axis = sites.index(x)
    table = np.array(
        [fn(values) for values in itertools.product(alphabet.values, repeat=len(sites))],
        dtype=float,
    ).reshape((k,) * len(sites))
    moved = np.moveaxis(table, axis, -1)
    return float((moved.max(axis=-1) - moved.min(axis=-1)).max())


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


def delta_vector(g: LocalFunction, volume_sites: Sequence[Site], alphabet: Alphabet,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> DeltaVector:
    """Exact oscillation vector of g along an ordered volume."""
    volume = tuple(tuple(s) for s in volume_sites)
    missing = [s for s in g.sites if s not in volume]
    if missing:
        raise ValueError(f"observable {g.name} depends on sites outside the volume: {missing}")
    per_site = np.array([g.variation(s, alphabet, cap) for s in volume], dtype=float)
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
    terms = tuple(((s,), (lambda v, _sc=scale: _sc * v[0])) for s in sites)
    name = "magnetization" if normalized else "total_spin"
    return LocalFunction(
        name=name,
        sites=sites,
        fn=lambda v, _sc=scale: _sc * sum(v),
        terms=terms,
        batch_fn=lambda m, _sc=scale: _sc * m.sum(axis=1),
    )


def total_spin(sites: Sequence[Site]) -> LocalFunction:
    return magnetization(sites, normalized=False)


def single_spin(site: Site) -> LocalFunction:
    site = tuple(site)
    return LocalFunction(
        name=f"spin{site}",
        sites=(site,),
        fn=lambda v: v[0],
        batch_fn=lambda m: m[:, 0],
    )


def pair_product(x: Site, y: Site) -> LocalFunction:
    x, y = tuple(x), tuple(y)
    if x == y:
        raise ValueError("pair product needs two distinct sites")
    return LocalFunction(
        name=f"pair{x}*{y}",
        sites=(x, y),
        fn=lambda v: v[0] * v[1],
        batch_fn=lambda m: m[:, 0] * m[:, 1],
    )


def majority(sites: Sequence[Site]) -> LocalFunction:
    """Sign of the value sum; use an odd number of spin sites to avoid ties."""
    sites = tuple(tuple(s) for s in sites)
    return LocalFunction(
        name=f"majority[{len(sites)}]",
        sites=sites,
        fn=lambda v: float(np.sign(sum(v))),
        batch_fn=lambda m: np.sign(m.sum(axis=1)),
    )


def pattern_indicator(sites: Sequence[Site], pattern: Sequence[str],
                      alphabet: Alphabet = SPIN) -> LocalFunction:
    """Indicator that the configuration restricted to `sites` equals `pattern`."""
    sites = tuple(tuple(s) for s in sites)
    if len(pattern) != len(sites):
        raise ValueError("pattern length must match the site list")
    target = tuple(alphabet.values[alphabet.index(sym)] for sym in pattern)
    return LocalFunction(
        name=f"pattern[{''.join(pattern)}]",
        sites=sites,
        fn=lambda v, _t=target: 1.0 if v == _t else 0.0,
        batch_fn=lambda m, _t=target: (m == np.asarray(_t)).all(axis=1).astype(float),
    )


def build_function(spec: dict, volume_sites: Sequence[Site],
                   alphabet: Alphabet = SPIN) -> LocalFunction:
    """Instantiate a catalog observable from a config dictionary."""
    kind = spec.get("kind")
    volume = tuple(tuple(s) for s in volume_sites)
    if kind == "magnetization":
        return magnetization(volume, normalized=spec.get("normalized", True))
    if kind == "total_spin":
        return total_spin(volume)
    if kind == "single_spin":
        site = tuple(spec.get("site", volume[0]))
        return single_spin(site)
    if kind == "pair_product":
        x = tuple(spec.get("x", volume[0]))
        y = tuple(spec.get("y", volume[1]))
        return pair_product(x, y)
    if kind == "majority":
        count = int(spec.get("count", min(3, len(volume))))
        return majority(volume[:count])
    if kind == "pattern_indicator":
        sites = [tuple(s) for s in spec["sites"]] if "sites" in spec else list(volume[: len(spec["pattern"])])
        return pattern_indicator(sites, spec["pattern"], alphabet)
    raise ValueError(f"unknown observable kind: {kind!r}")
