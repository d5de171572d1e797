"""Finite-volume models: exact joints, conditionals, samplers, sensitivity data.

Every model lives on a finite, enumeration-ordered site tuple and exposes
unnormalized log weights over full configurations plus single-site
conditionals given the rest of the volume.  Small volumes are handled exactly
through `ExactJoint`; `glauber_batch` draws product and Markov models exactly
and runs binary nearest-neighbor Gibbs models through one heat-bath kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from spinconc.errors import (
    CapacityError,
    ConfigError,
    DegenerateConditioningError,
)
from spinconc.fields import SPIN, Alphabet, LocalFunction
from spinconc.lattice import (
    Site,
    l1_distance,
    rect_sites,
    segment_sites,
    sort_by_spiral,
)

#: literature value for the critical density of 2D site percolation
SITE_PERCOLATION_PC_2D = 0.5927

DEFAULT_JOINT_CAP = 2**20

#: most configurations per `LocalFunction.eval_batch` call in `function_table`
_TABLE_BLOCK = 2**12


# ---------------------------------------------------------------------------
# exact joint law
# ---------------------------------------------------------------------------

@dataclass
class ExactJoint:
    """Normalized law over all configurations of a finite ordered volume.

    `probs` has one axis per site, in enumeration order, each of length
    `alphabet.size`; `log_z` is the log normalizer of the defining weights.
    """

    sites: tuple[Site, ...]
    alphabet: Alphabet
    probs: np.ndarray
    log_z: float
    _prefix_cache: list = field(default_factory=list, repr=False)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def k(self) -> int:
        return self.alphabet.size

    def site_axis(self, site: Site) -> int:
        return self.sites.index(tuple(site))

    def prefix_marginal(self, i: int) -> np.ndarray:
        """Marginal law of the first i+1 coordinates (an (k,)*(i+1) array)."""
        if not self._prefix_cache:
            tables = [self.probs]
            for axis in range(self.n_sites - 1, 0, -1):
                tables.append(tables[-1].sum(axis=axis))
            self._prefix_cache.extend(reversed(tables))
        return self._prefix_cache[i]

    def conditional_future(self, prefix: Sequence[int]) -> "ExactJoint":
        """Law of the remaining coordinates given symbol indices for a prefix."""
        prefix = tuple(int(c) for c in prefix)
        if len(prefix) >= self.n_sites:
            raise ValueError("prefix must leave at least one free coordinate")
        sub = self.probs[prefix]
        mass = float(sub.sum())
        if mass <= 0.0:
            raise DegenerateConditioningError(
                f"conditioning prefix {prefix} has zero probability"
            )
        return ExactJoint(
            sites=self.sites[len(prefix):],
            alphabet=self.alphabet,
            probs=sub / mass,
            log_z=self.log_z + float(np.log(mass)),
        )

    def function_table(self, g: LocalFunction,
                       cap: int = DEFAULT_JOINT_CAP) -> np.ndarray:
        """Values of g on every configuration, broadcast to the joint's shape.

        g's own configurations are enumerated row-major and evaluated with
        `g.eval_batch`, one block per setting of the leading coordinates; a
        block enumerates the trailing ones and holds at most `_TABLE_BLOCK`
        rows.
        """
        axes = [self.site_axis(s) for s in g.sites]
        k, n = self.k, len(axes)
        if k ** n > cap:
            raise CapacityError(f"observable table needs {k}^{n} evaluations")
        values = np.asarray(self.alphabet.values, dtype=float)
        tail = n
        while tail > 0 and k ** tail > _TABLE_BLOCK:
            tail -= 1
        block = np.empty((k ** tail, n))
        block[:, n - tail:] = values[np.indices((k,) * tail).reshape(tail, k ** tail).T]
        local = np.empty((k ** (n - tail), k ** tail))
        for row, lead in zip(local, itertools.product(values, repeat=n - tail)):
            block[:, :n - tail] = lead
            row[:] = g.eval_batch(block)
        local = local.reshape((k,) * n)
        order = np.argsort(axes)
        local = np.transpose(local, order)
        shape = [1] * self.n_sites
        for a in axes:
            shape[a] = k
        return np.broadcast_to(local.reshape(shape), self.probs.shape)

    def expectation(self, table: np.ndarray) -> float:
        return float((self.probs * table).sum())

    def exact_tail(self, table: np.ndarray, t: float) -> float:
        """P(|g - Eg| >= t), exactly."""
        centered = table - self.expectation(table)
        return float(self.probs[np.abs(centered) >= t].sum())

    def sample(self, n: int, seed: int) -> np.ndarray:
        """Draw n configurations (symbol indices, shape (n, n_sites))."""
        rng = np.random.default_rng(seed)
        flat = self.probs.reshape(-1)
        picks = rng.choice(flat.size, size=n, p=flat / flat.sum())
        return np.array(np.unravel_index(picks, self.probs.shape)).T

    def config_rows(self) -> Iterator[tuple[str, float]]:
        """(symbol string, probability) pairs in row-major enumeration order."""
        syms = self.alphabet.symbols
        for idx, p in zip(itertools.product(range(self.k), repeat=self.n_sites),
                          self.probs.reshape(-1)):
            yield "".join(syms[c] for c in idx), float(p)


# ---------------------------------------------------------------------------
# model classes
# ---------------------------------------------------------------------------

class Model:
    """Base class: unnormalized log weights plus single-site conditionals."""

    alphabet: Alphabet
    sites: tuple[Site, ...]
    name: str

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def log_weight_table(self) -> np.ndarray:
        raise NotImplementedError

    def site_conditional(self, idx: int, config: Sequence) -> np.ndarray:
        """Conditional law at position idx given the rest of the volume.

        `config` holds symbol indices (the entry at idx is ignored); an
        unassigned (None) entry that the conditional actually needs is an
        error.
        """
        raise NotImplementedError


def _axes_table_add(target: np.ndarray, axes: tuple[int, ...], table: np.ndarray,
                    k: int, scale: float) -> None:
    order = np.argsort(axes)
    local = np.transpose(table, order)
    shape = [1] * target.ndim
    for a in axes:
        shape[a] = k
    target += scale * local.reshape(shape)


class GibbsModel(Model):
    """Finite-volume Gibbs law: weight(sigma) = exp(-beta * H(sigma)).

    The energy H is a sum of local terms.  Terms are stored already folded
    onto the free volume: each is (axes, table) with `axes` positions in the
    ordered site tuple and `table` an energy array over those coordinates.
    Boundary contributions enter as lower-arity terms with the fixed symbols
    substituted.
    """

    def __init__(self, sites: Sequence[Site], terms, beta: float,
                 alphabet: Alphabet = SPIN, name: str = "gibbs",
                 boundary_label: str = ""):
        self.sites = tuple(tuple(s) for s in sites)
        self.alphabet = alphabet
        self.beta = float(beta)
        self.terms = [(tuple(axes), np.asarray(table, dtype=float)) for axes, table in terms]
        self.name = name
        self.boundary_label = boundary_label
        self._by_site: dict[int, list] = {}
        for axes, table in self.terms:
            for a in axes:
                self._by_site.setdefault(a, []).append((axes, table))
        # set by the nearest-neighbor constructors; enables vectorized sampling
        self.nn_index: list[np.ndarray] | None = None
        self.boundary_field: np.ndarray | None = None

    def log_weight_table(self) -> np.ndarray:
        k = self.alphabet.size
        out = np.zeros((k,) * self.n_sites)
        for axes, table in self.terms:
            _axes_table_add(out, axes, table, k, -self.beta)
        return out

    def site_conditional(self, idx: int, config: Sequence) -> np.ndarray:
        k = self.alphabet.size
        energy = np.zeros(k)
        for axes, table in self._by_site.get(idx, []):
            pos = axes.index(idx)
            index: list = []
            for j, a in enumerate(axes):
                if j == pos:
                    index.append(slice(None))
                else:
                    c = config[a]
                    if c is None:
                        raise ValueError(
                            f"site {self.sites[a]} must be assigned to condition at {self.sites[idx]}"
                        )
                    index.append(int(c))
            energy += table[tuple(index)]
        w = np.exp(-self.beta * (energy - energy.min()))
        return w / w.sum()


class ProductModel(Model):
    """Independent coordinates with prescribed per-site marginals."""

    def __init__(self, sites: Sequence[Site], marginals: np.ndarray,
                 alphabet: Alphabet = SPIN, name: str = "product"):
        self.sites = tuple(tuple(s) for s in sites)
        self.alphabet = alphabet
        self.marginals = np.asarray(marginals, dtype=float)
        if self.marginals.shape != (len(self.sites), alphabet.size):
            raise ValueError("marginals must have shape (n_sites, alphabet size)")
        if not np.allclose(self.marginals.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("each marginal must sum to one")
        self.name = name

    def log_weight_table(self) -> np.ndarray:
        k = self.alphabet.size
        out = np.zeros((k,) * self.n_sites)
        with np.errstate(divide="ignore"):
            logs = np.log(self.marginals)
        for i in range(self.n_sites):
            shape = [1] * self.n_sites
            shape[i] = k
            out += logs[i].reshape(shape)
        return out

    def site_conditional(self, idx: int, config: Sequence) -> np.ndarray:
        return self.marginals[idx].copy()


class MarkovChainModel(Model):
    """One-dimensional chain: initial law and a shared transition matrix."""

    def __init__(self, n: int, initial: np.ndarray, transition: np.ndarray,
                 alphabet: Alphabet = SPIN, name: str = "markov"):
        self.sites = segment_sites(n)
        self.alphabet = alphabet
        self.initial = np.asarray(initial, dtype=float)
        self.transition = np.asarray(transition, dtype=float)
        k = alphabet.size
        if self.initial.shape != (k,) or self.transition.shape != (k, k):
            raise ValueError("initial/transition shape mismatch with the alphabet")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition rows must sum to one")
        self.name = name

    def log_weight_table(self) -> np.ndarray:
        k = self.alphabet.size
        out = np.zeros((k,) * self.n_sites)
        with np.errstate(divide="ignore"):
            li, lt = np.log(self.initial), np.log(self.transition)
        shape = [1] * self.n_sites
        shape[0] = k
        out += li.reshape(shape)
        for i in range(self.n_sites - 1):
            _axes_table_add(out, (i, i + 1), lt, k, 1.0)
        return out

    def site_conditional(self, idx: int, config: Sequence) -> np.ndarray:
        w = np.ones(self.alphabet.size)
        if idx == 0:
            w = self.initial.copy()
        else:
            prev = config[idx - 1]
            if prev is None:
                raise ValueError("left neighbor must be assigned")
            w = self.transition[int(prev)].copy()
        if idx + 1 < self.n_sites:
            nxt = config[idx + 1]
            if nxt is None:
                raise ValueError("right neighbor must be assigned")
            w = w * self.transition[:, int(nxt)]
        return w / w.sum()


# ---------------------------------------------------------------------------
# nearest-neighbor ferromagnets
# ---------------------------------------------------------------------------

def _boundary_value(boundary, site: Site, alphabet: Alphabet):
    if boundary == "free":
        return None
    if boundary == "plus":
        return max(alphabet.values)
    if boundary == "minus":
        return min(alphabet.values)
    if isinstance(boundary, dict):
        key = tuple(site)
        if key in boundary:
            return alphabet.values[alphabet.index(boundary[key])]
        return None
    raise ConfigError(f"unknown boundary condition {boundary!r}")


def ising_model(sites: Sequence[Site], beta: float, boundary="plus",
                external_field: float = 0.0, name: str | None = None) -> GibbsModel:
    """Ferromagnetic pair model on an arbitrary finite site set.

    Energy of a bond is -s_x s_y, so weights are exp(beta * sum of products)
    plus boundary bond terms with the fixed outside symbols substituted.
    """
    ordered = sort_by_spiral(sites)
    pos = {s: i for i, s in enumerate(ordered)}
    alphabet = SPIN
    vals = np.array(alphabet.values)
    terms = []
    bond_pairs = []
    for i, x in enumerate(ordered):
        for y in ordered[i + 1:]:
            if l1_distance(x, y) == 1:
                bond_pairs.append((pos[x], pos[y]))
    pair_energy = -np.outer(vals, vals)
    for i, j in bond_pairs:
        terms.append(((i, j), pair_energy))

    # collar: outside neighbors with fixed symbols contribute single-site terms
    bfield = np.zeros(len(ordered))
    d = len(ordered[0])
    for x in ordered:
        total = external_field
        for delta in _unit_moves(d):
            y = tuple(a + b for a, b in zip(x, delta))
            if y in pos:
                continue
            bval = _boundary_value(boundary, y, alphabet)
            if bval is not None:
                total += bval
        bfield[pos[x]] = total
        if total != 0.0:
            terms.append(((pos[x],), -vals * total))

    label = boundary if isinstance(boundary, str) else "explicit"
    model = GibbsModel(ordered, terms, beta, alphabet,
                       name=name or f"ising{_shape_label(ordered)}_b{beta:g}_{label}",
                       boundary_label=label)
    model.nn_index = [
        np.array([pos[y] for y in _neighbors_in(pos, x)], dtype=int) for x in ordered
    ]
    model.boundary_field = bfield
    return model


def _unit_moves(d: int):
    for axis in range(d):
        for sign in (1, -1):
            move = [0] * d
            move[axis] = sign
            yield tuple(move)


def _neighbors_in(pos: dict, x: Site):
    for delta in _unit_moves(len(x)):
        y = tuple(a + b for a, b in zip(x, delta))
        if y in pos:
            yield y


def _shape_label(sites: tuple[Site, ...]) -> str:
    d = len(sites[0])
    if d == 1:
        return f"[{len(sites)}]"
    xs = {s[0] for s in sites}
    ys = {s[1] for s in sites}
    if len(xs) * len(ys) == len(sites):
        return f"[{len(ys)}x{len(xs)}]"
    return f"[{len(sites)}sites]"


def ising_rect(rows: int, cols: int, beta: float, boundary="plus",
               external_field: float = 0.0) -> GibbsModel:
    return ising_model(rect_sites(rows, cols), beta, boundary, external_field)


def ising_segment(n: int, beta: float, boundary="plus",
                  external_field: float = 0.0) -> GibbsModel:
    return ising_model(segment_sites(n), beta, boundary, external_field)


def iid_spins(n_sites: int | Sequence[Site], p_plus: float = 0.5,
              name: str | None = None) -> ProductModel:
    sites = segment_sites(n_sites) if isinstance(n_sites, int) else sort_by_spiral(n_sites)
    marg = np.tile([1.0 - p_plus, p_plus], (len(sites), 1))
    return ProductModel(sites, marg, SPIN, name=name or f"iid[{len(sites)}]_p{p_plus:g}")


# ---------------------------------------------------------------------------
# exact joint construction and conditionals
# ---------------------------------------------------------------------------

def exact_joint(model: Model, cap: int = DEFAULT_JOINT_CAP) -> ExactJoint:
    k = model.alphabet.size
    if k ** model.n_sites > cap:
        raise CapacityError(
            f"exact joint needs {k}^{model.n_sites} states, cap is {cap}"
        )
    logw = model.log_weight_table()
    peak = logw.max()
    w = np.exp(logw - peak)
    z = w.sum()
    return ExactJoint(
        sites=model.sites,
        alphabet=model.alphabet,
        probs=w / z,
        log_z=float(peak + np.log(z)),
    )


def conditional_future(joint: ExactJoint, prefix: Sequence[int]) -> ExactJoint:
    return joint.conditional_future(prefix)


def single_site_conditional(model: Model, site: Site, assignment: dict) -> np.ndarray:
    """Conditional law at `site` given symbols for (at least) its neighborhood.

    `assignment` maps sites to symbol strings; sites the conditional does not
    depend on may be omitted.
    """
    idx = model.sites.index(tuple(site))
    config: list = [None] * model.n_sites
    for s, sym in assignment.items():
        config[model.sites.index(tuple(s))] = model.alphabet.index(sym)
    return model.site_conditional(idx, config)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

#: replicas per chunk; every chunk draws from its own `SeedSequence` child,
#: so replica r depends only on the seed and r // CHUNK, never on n_samples
CHUNK = 1024

# start configurations as site-major symbol indices (n_sites, replicas)
_STARTS = {
    "plus": lambda m, n, rng: np.ones((m, n), dtype=np.int8),
    "minus": lambda m, n, rng: np.zeros((m, n), dtype=np.int8),
    "random": lambda m, n, rng: rng.integers(2, size=(m, n), dtype=np.int8),
}


def _chunks(n_samples: int, seed: int):
    """(lo, hi, generator) for each chunk of replicas lo..hi-1."""
    children = np.random.SeedSequence(seed).spawn(-(-n_samples // CHUNK))
    for j, child in enumerate(children):
        lo = j * CHUNK
        yield lo, min(lo + CHUNK, n_samples), np.random.default_rng(child)


def _uniforms24(bit_generator, n: int, carry: np.ndarray):
    """The next n values of `random(dtype=float32)`, times 2^24, and the new carry.

    A float32 uniform is the next 32-bit half of a raw 64-bit word (low half
    first, read here as the little-endian uint32 view) shifted right by 8.
    `carry` holds the half a previous odd draw left pending, if any.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint32), carry
    need = n - carry.size
    halves = bit_generator.random_raw((need + 1) // 2).view(np.uint32)
    words = np.concatenate([carry, halves[:need]]) if carry.size else halves[:need]
    return np.right_shift(words, 8, out=words), halves[need:].copy()


def _heat_bath(model: Model, n_samples: int, sweeps: int, seed: int,
               start: str = "plus", frozen: tuple[int, tuple[int, ...]] | None = None):
    """The heat-bath kernel for binary nearest-neighbor Gibbs models.

    Returns an iterator of (lo, hi, legs), one per chunk of CHUNK replicas:
    each leg is a site-major int8 array (n_sites, hi - lo) of symbol indices
    after `sweeps` sweeps from `start`, in the model's site order.  There is
    one leg, or with `frozen=(site, symbols)` one leg per entry of
    `symbols`: leg k starts with `site` set to symbols[k] and never updates
    it.  All legs of a chunk read the same uniforms, which for a
    ferromagnet is the monotone coupling: the update is increasing in the
    neighbor configuration, so the pointwise order of the legs persists.

    Any finite site set works.  Nearest neighbors have opposite coordinate
    parity, so each parity class is resampled at once from its exact
    single-site conditionals; missing neighbors point at a ghost row that
    holds 0, so a leg's neighbor sum is its number c of plus neighbors.

    Uniforms are 24-bit integers U, the values of `random(dtype=float32)`
    times 2^24 read from raw PCG64 words (`_uniforms24`), so the stream is
    the float32 one bit for bit.  The conditional is an integer threshold
    q[s, c] = round(p_+(s, c) 2^24): site s with c plus neighbors turns plus
    iff U < q[s, c].  U is uniform on {0, ..., 2^24 - 1} and q is p_+ rounded
    to that grid, so each update's law is off by at most 2^-25 from the exact
    conditional.  Once per class and sweep, shared by every leg, the kernel
    counts T over the row of thresholds.  For beta >= 0 the row is
    non-decreasing in c; with T = #{c : U >= q[s, c]} the spin is plus iff
    c >= T.  For beta < 0 it is non-increasing; the kernel counts
    T = #{c : U < q[s, c]} = deg + 1 - #{c : U >= q[s, c]} and the spin is
    plus iff c < T.  One ufunc, `compare`, serves both counts and both
    comparisons.  Each leg then only counts its plus neighbors and compares.
    Working memory is one chunk, whatever n_samples is.
    """
    if not (isinstance(model, GibbsModel) and model.alphabet.size == 2
            and model.nn_index is not None):
        raise ConfigError("heat-bath sampling needs a binary nearest-neighbor Gibbs model")
    if start not in _STARTS:
        raise ConfigError(f"unknown start configuration {start!r}")
    m = model.n_sites
    pinned, symbols = frozen if frozen is not None else (None, (None,))
    parity = np.array([sum(s) & 1 for s in model.sites])
    free = np.arange(m) != pinned
    order = np.concatenate([np.flatnonzero(free & (parity == 0)),
                            np.flatnonzero(free & (parity == 1)),
                            np.flatnonzero(~free)])
    row = np.empty(m, dtype=np.intp)  # model site index -> kernel row
    row[order] = np.arange(m)
    deg = max(1, max(len(nb) for nb in model.nn_index))
    nbr = np.full((m, deg), m, dtype=np.intp)  # row m is the ghost
    for i, nb in enumerate(model.nn_index):
        nbr[row[i], :len(nb)] = row[nb]
    n_plus = np.arange(deg + 1)
    degree = np.array([len(nb) for nb in model.nn_index])[order]
    field = (2 * n_plus - degree[:, None]) + model.boundary_field[order][:, None]
    p_plus = 0.5 * (1.0 + np.tanh(model.beta * field))
    q = np.round(p_plus * 2.0**24).astype(np.uint32)
    compare = np.greater_equal if model.beta >= 0 else np.less
    n0 = int((free & (parity == 0)).sum())
    classes = [(0, n0), (n0, int(free.sum()))]

    def run(size: int, rng) -> list[np.ndarray]:
        start_cfg = _STARTS[start](m, size, rng)
        legs = []
        for sym in symbols:
            spins = np.zeros((m + 1, size), dtype=np.int8)
            spins[row] = start_cfg
            if pinned is not None:
                spins[row[pinned]] = sym
            legs.append(spins)
        state = rng.bit_generator.state  # the start may leave half a word pending
        carry = np.array([state["uinteger"]] * state["has_uint32"], dtype=np.uint32)
        hit = np.empty((max(b - a for a, b in classes), size), dtype=np.int8)
        for _ in range(sweeps):
            for a, b in classes:
                u, carry = _uniforms24(rng.bit_generator, (b - a) * size, carry)
                u = u.reshape(b - a, size)
                t = np.empty((b - a, size), dtype=np.int8)
                compare(u, q[a:b, 0, None], out=t.view(bool))
                for c in range(1, deg + 1):
                    t += compare(u, q[a:b, c, None], out=hit[:b - a].view(bool)).view(np.int8)
                for spins in legs:
                    count = spins[nbr[a:b, 0]]
                    for j in range(1, deg):
                        count += spins[nbr[a:b, j]]
                    compare(count, t, out=spins[a:b].view(bool))
        return [spins[row] for spins in legs]

    return ((lo, hi, run(hi - lo, rng)) for lo, hi, rng in _chunks(n_samples, seed))


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbol index whose cumulative interval holds u (broadcast over rows)."""
    return (u[..., None] >= cdf[..., :-1]).sum(axis=-1)


def _exact_draws(model: Model, n_samples: int, seed: int):
    """(lo, hi, [ids]) chunks of exact draws; ids is site-major like a leg."""
    m = model.n_sites
    for lo, hi, rng in _chunks(n_samples, seed):
        u = rng.random((hi - lo, m))
        if isinstance(model, ProductModel):
            ids = _inverse_cdf(np.cumsum(model.marginals, axis=1), u)
        else:  # ancestral sampling along the chain
            step = np.cumsum(model.transition, axis=1)
            ids = np.empty((hi - lo, m), dtype=np.intp)
            ids[:, 0] = _inverse_cdf(np.cumsum(model.initial), u[:, 0])
            for i in range(1, m):
                ids[:, i] = _inverse_cdf(step[ids[:, i - 1]], u[:, i])
        yield lo, hi, [ids.T]


def _collect(model: Model, n_samples: int, chunks) -> np.ndarray:
    values = np.asarray(model.alphabet.values)
    out = np.empty((n_samples, model.n_sites))
    for lo, hi, legs in chunks:
        out[lo:hi] = values[legs[0].T]
    return out


def glauber_batch(model: Model, n_samples: int, sweeps: int, seed: int,
                  start: str = "plus") -> np.ndarray:
    """Independent draws from the model's law; values (n_samples, n_sites).

    Product models are drawn exactly site by site and Markov chains exactly
    by ancestral sampling (`sweeps` and `start` do not enter); a binary
    nearest-neighbor Gibbs model runs the heat-bath kernel `_heat_bath`.  Any
    other model raises ConfigError.
    """
    if start not in _STARTS:
        raise ConfigError(f"unknown start configuration {start!r}")
    if isinstance(model, GibbsModel):
        chunks = _heat_bath(model, n_samples, sweeps, seed, start)
    elif isinstance(model, (ProductModel, MarkovChainModel)):
        chunks = _exact_draws(model, n_samples, seed)
    else:
        raise ConfigError(f"no sampler for {type(model).__name__}")
    return _collect(model, n_samples, chunks)


def glauber_block_batch(model: GibbsModel, n_samples: int, sweeps: int,
                        seed: int, start: str = "plus") -> np.ndarray:
    """Heat-bath replicas of a binary nearest-neighbor Gibbs model.

    Returns values (n_samples, n_sites) aligned with the model's site order;
    see `_heat_bath` for the update and its precision.
    """
    return _collect(model, n_samples, _heat_bath(model, n_samples, sweeps, seed, start))


def grid_layout(model: GibbsModel):
    """(rows, cols, flat grid cell per site index) for a rectangle.

    `to_grid[i]` is the row-major grid cell of enumeration index i.
    """
    xs = sorted({s[0] for s in model.sites})
    ys = sorted({s[1] for s in model.sites})
    rows, cols = len(ys), len(xs)
    if rows * cols != model.n_sites:
        raise ConfigError("grid layout needs a full rectangular volume")
    row_of = {y: r for r, y in enumerate(ys)}
    col_of = {x: c for c, x in enumerate(xs)}
    to_grid = np.empty(model.n_sites, dtype=np.int64)
    for idx, (x, y) in enumerate(model.sites):
        to_grid[idx] = row_of[y] * cols + col_of[x]
    return rows, cols, to_grid


# ---------------------------------------------------------------------------
# single-site sensitivity (influence) data
# ---------------------------------------------------------------------------

@dataclass
class DobrushinData:
    """Pairwise influence matrix and derived quantities for a finite model.

    `influence[x, y]` is twice the largest total-variation change of the
    conditional law at x caused by editing y alone (the factor 2 is kept so
    reported values match the defining convention used across the package;
    `influence_tv` drops it).  `delta` is (I - influence)^-1, the sum of the
    Neumann series of `influence`, when the row-sum condition holds.
    """

    sites: tuple[Site, ...]
    influence: np.ndarray
    influence_tv: np.ndarray
    row_sum_max: float
    condition_ok: bool
    delta: np.ndarray | None
    p_raw: np.ndarray
    p_tv: np.ndarray

    @property
    def p_sup_raw(self) -> float:
        return float(self.p_raw.max())

    @property
    def p_sup_tv(self) -> float:
        return float(self.p_tv.max())


def _dependency_sets(model: GibbsModel) -> list[set[int]]:
    deps: list[set[int]] = [set() for _ in range(model.n_sites)]
    for axes, _ in model.terms:
        for a in axes:
            deps[a].update(b for b in axes if b != a)
    return deps


def _conditionals_over_contexts(model: GibbsModel, idx: int, dep: list[int],
                                cap: int = 2**16) -> np.ndarray:
    """Conditional laws at idx for every assignment of its dependency set."""
    k = model.alphabet.size
    if k ** len(dep) > cap:
        raise CapacityError("dependency enumeration too large")
    config: list = [0] * model.n_sites
    out = np.empty((k ** len(dep), k))
    for row, assign in enumerate(itertools.product(range(k), repeat=len(dep))):
        for a, c in zip(dep, assign):
            config[a] = c
        out[row] = model.site_conditional(idx, config)
    return out


def dobrushin_matrix(model: GibbsModel) -> DobrushinData:
    """Exact influence matrix by enumeration of dependency neighborhoods."""
    m = model.n_sites
    k = model.alphabet.size
    deps = _dependency_sets(model)
    influence_tv = np.zeros((m, m))
    p_tv = np.zeros(m)
    for x in range(m):
        dep = sorted(deps[x])
        conds = _conditionals_over_contexts(model, x, dep)
        if len(dep) == 0:
            continue
        shape = (k,) * len(dep)
        conds = conds.reshape(shape + (k,))
        # sup over all context pairs, for the site-level quantity
        flat = conds.reshape(-1, k)
        p_tv[x] = max(
            0.5 * np.abs(flat[:, None, :] - flat[None, :, :]).sum(axis=2).max(),
            0.0,
        )
        for j, y in enumerate(dep):
            moved = np.moveaxis(conds, j, 0)
            rest = moved.reshape(k, -1, k)
            best = 0.0
            for a in range(k):
                for b in range(a + 1, k):
                    tv = 0.5 * np.abs(rest[a] - rest[b]).sum(axis=1).max()
                    best = max(best, tv)
            influence_tv[x, y] = best
    influence = 2.0 * influence_tv
    row_max = float(influence.sum(axis=1).max())
    ok = row_max < 1.0
    delta = np.linalg.solve(np.eye(m) - influence, np.eye(m)) if ok else None
    return DobrushinData(
        sites=model.sites,
        influence=influence,
        influence_tv=influence_tv,
        row_sum_max=row_max,
        condition_ok=ok,
        delta=delta,
        p_raw=2.0 * p_tv,
        p_tv=p_tv,
    )


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def model_from_config(cfg: dict) -> Model:
    """Build a model from a JSON-style dictionary (see README for the schema)."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("model config must be a dict with a 'kind' entry")
    kind = cfg["kind"]
    try:
        if kind == "ising":
            beta = float(cfg["beta"])
            boundary = cfg.get("boundary", "plus")
            if isinstance(boundary, dict):
                boundary = {tuple(k_ if isinstance(k_, tuple) else tuple(int(c) for c in k_.split(","))): v
                            for k_, v in boundary.items()}
            vol = cfg["volume"]
            if isinstance(vol, dict) and "segment" in vol:
                return ising_segment(int(vol["segment"]), beta, boundary,
                                     float(cfg.get("external_field", 0.0)))
            rows, cols = int(vol[0]), int(vol[1])
            return ising_rect(rows, cols, beta, boundary,
                              float(cfg.get("external_field", 0.0)))
        if kind in ("iid", "product"):
            n = int(cfg["n_sites"])
            p = cfg.get("p_plus", 0.5)
            if np.isscalar(p):
                return iid_spins(n, float(p))
            marg = np.column_stack([1.0 - np.asarray(p, float), np.asarray(p, float)])
            return ProductModel(segment_sites(n), marg, SPIN, name=f"product[{n}]")
        if kind == "markov":
            return MarkovChainModel(
                int(cfg["n_sites"]),
                np.asarray(cfg["initial"], float),
                np.asarray(cfg["transition"], float),
            )
    except (KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"malformed model config for kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")
