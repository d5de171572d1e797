"""Finite-volume models: exact joints, conditionals, samplers, sensitivity data.

Every model is a `GibbsModel` on a finite, enumeration-ordered site tuple: a
sum of local energy terms, which `log_weight_table` turns into unnormalized
log weights over full configurations and `local_conditionals` into one table
of a site's conditional laws over every context of the sites it shares a term
with.  Product models and Markov chains are Gibbs models at beta = 1 whose
terms are negated log marginals, or a negated log initial law and log
transitions.  Small volumes are handled exactly through `ExactJoint`;
`glauber_batch` draws product and Markov models exactly and runs binary
nearest-neighbor Gibbs models through one heat-bath kernel, and returns an
observable g on each replica.  A sampled batch is a `Batch` of chunk jobs
built by `_batch`, each of which draws its chunk of replicas and reduces it
on the thread that ran it; `stream` runs the jobs of several batches on one
`ordered_map` pool of `os.cpu_count()` threads when some batch's larger
parity class has at least `POOL_MIN_ROWS` rows, serially below that, and
returns one iterator of parts per batch.  Parts come back in order, so the
output does not depend on the thread count.  Working memory is up to one
chunk per job in flight plus what the caller keeps of the parts.

Importing this module sets numpy's bundled OpenBLAS to one thread: spinconc's
own pools take the cores, and its BLAS calls, all small, run inside them.  A
threaded OpenBLAS wakes a helper thread for gemvs of 9216 entries or more,
which competes with the pool: one moment gemv `x @ V ** 2` at 32768x16 took
4.97 ms wall and 5.41 ms CPU on two BLAS threads, against 1.11 ms and 1.62 ms
on one (2-core x86-64, numpy 2.4).  Any other BLAS is left as it is.
"""

from __future__ import annotations

import ctypes
import glob
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from spinconc.errors import (
    CapacityError,
    ConfigError,
    DegenerateConditioningError,
    _integer,
    _only_keys,
    _real,
)
from spinconc.fields import ENUMERATION_CAP, SPIN, Alphabet, LocalFunction, value_grid
from spinconc.lattice import (
    Site,
    rect_sites,
    segment_sites,
    sort_by_spiral,
)

#: literature value for the critical density of 2D site percolation
SITE_PERCOLATION_PC_2D = 0.5927


def _openblas_one_thread() -> None:
    """Set the OpenBLAS bundled with numpy (`numpy.libs`) to one thread.

    Does nothing when numpy bundles no OpenBLAS (MKL, Accelerate, a system
    BLAS).  Called once, at import, before any BLAS call or pool exists.
    """
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            setter = getattr(handle, sym, None)
            if setter is not None:
                setter(1)
                return


_openblas_one_thread()


# ---------------------------------------------------------------------------
# exact joint law
# ---------------------------------------------------------------------------

def sum_last(x: np.ndarray) -> np.ndarray:
    """`x.sum(axis=-1)` of a C-contiguous float64 x, bit for bit.

    numpy adds a run of fewer than 8 entries in order from 0.0, one inner
    loop per run; here each add is one array operation across all runs, in
    that order.  Starting from the first entry instead of 0.0 changes only
    the sign of a zero partial sum, and the last add of 0.0 turns -0.0
    into +0.0 as numpy's start does.  Runs of 8 or more, which numpy adds
    pairwise, go to numpy.
    """
    r = x.shape[-1]
    if r >= 8:
        return x.sum(axis=-1)
    res = x[..., 0] + (x[..., 1] if r > 1 else 0.0)
    for c in range(2, r):
        res += x[..., c]
    res += 0.0
    return res


@dataclass
class ExactJoint:
    """Normalized law over all configurations of a finite ordered volume.

    `probs` has one axis per site, in enumeration order, each of length
    `alphabet.size`.
    """

    sites: tuple[Site, ...]
    alphabet: Alphabet
    probs: np.ndarray
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
        """Marginal law of the first i+1 coordinates (an (k,)*(i+1) array).

        i = -1 is the empty prefix, whose mass is `np.array(1.0)`; any i
        outside -1..n_sites-1 is an IndexError.  Each table sums the next
        one over its last axis, `table.sum(axis=-1)` bit for bit, taken by
        `sum_last`: k - 1 adds across the table, not one numpy inner loop
        per prefix.
        """
        if not -1 <= i < self.n_sites:
            raise IndexError(f"prefix index {i} outside -1..{self.n_sites - 1}")
        if i == -1:
            return np.array(1.0)
        if not self._prefix_cache:
            tables = [self.probs]
            for _ in range(self.n_sites - 1):
                tables.append(sum_last(tables[-1]))
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
        )

    def function_table(self, g: LocalFunction) -> np.ndarray:
        """Values of g on every configuration, broadcast to the joint's shape:
        `value_grid` over g's own sites, moved onto their axes."""
        axes = [self.site_axis(s) for s in g.sites]
        grid = value_grid(g, self.alphabet)
        return np.broadcast_to(_on_axes(grid, axes, self.n_sites), self.probs.shape)

    def expectation(self, table: np.ndarray) -> float:
        return float((self.probs * table).sum())

    def law(self, table: np.ndarray, mean: float) -> tuple[np.ndarray, np.ndarray]:
        """(levels, weights): the distinct values of g - mean, ascending, and
        their probabilities, from g's broadcast or full function table.

        The levels come from the array a broadcast `table` reads (its first
        entry along each axis of stride 0), so `np.unique` sees each value
        of g's own grid once.  Each weight is one pairwise sum, in numpy's
        order, over its level's configurations in enumeration order.
        """
        base = table[tuple(slice(None) if st else slice(1) for st in table.strides)]
        levels, where = np.unique(base - mean, return_inverse=True)
        where = np.broadcast_to(where.reshape(base.shape), self.probs.shape).reshape(-1)
        order = np.argsort(where, kind="stable")
        starts = np.searchsorted(where[order], np.arange(levels.size))
        return levels, np.add.reduceat(self.probs.reshape(-1)[order], starts)

    def exact_tail(self, table: np.ndarray, t: float) -> float:
        """P(|g - Eg| >= t), exactly."""
        levels, weights = self.law(table, self.expectation(table))
        return float(weights[np.abs(levels) >= t].sum())


# ---------------------------------------------------------------------------
# model classes
# ---------------------------------------------------------------------------

def _on_axes(table: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """`table`, one axis per entry of `axes`, reshaped to broadcast over
    `ndim` axes with its own axes at `axes`."""
    shape = [1] * ndim
    for a, size in zip(axes, table.shape):
        shape[a] = size
    return np.transpose(table, np.argsort(axes)).reshape(shape)


class GibbsModel:
    """Finite-volume Gibbs law: weight(sigma) = exp(-beta * H(sigma)).

    The energy H is a sum of local terms.  Terms are stored already folded
    onto the free volume: each is (axes, table) with `axes` positions in the
    ordered site tuple and `table` an energy array over those coordinates.
    Boundary contributions enter as lower-arity terms with the fixed symbols
    substituted.
    """

    def __init__(self, sites: Sequence[Site], terms, beta: float,
                 alphabet: Alphabet = SPIN, name: str = "gibbs"):
        self.sites = tuple(tuple(s) for s in sites)
        self.alphabet = alphabet
        self.beta = float(beta)
        self.terms = [(tuple(axes), np.asarray(table, dtype=float)) for axes, table in terms]
        self.name = name
        # set by the nearest-neighbor constructors; enables vectorized sampling
        self.nn_index: list[np.ndarray] | None = None
        self.boundary_field: np.ndarray | None = None

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def log_weight_table(self) -> np.ndarray:
        k = self.alphabet.size
        out = np.zeros((k,) * self.n_sites)
        for axes, table in self.terms:
            out += -self.beta * _on_axes(table, axes, self.n_sites)
        return out

    def local_conditionals(self, idx: int) -> tuple[list[int], np.ndarray]:
        """The conditional laws at position idx over every context.

        `dep` lists, sorted, the positions that share a term with idx, and
        `table[c..., a]` is the probability of symbol a at idx given symbols
        c at `dep`: shape (k,) * len(dep) + (k,).  Every term that holds idx
        is added, in term order, onto the (dep..., idx) axes.  A context in
        which every symbol has weight 0 has no conditional law; its row is
        NaN.  More than 2^16 contexts is a CapacityError.
        """
        k = self.alphabet.size
        held = [(axes, table) for axes, table in self.terms if idx in axes]
        dep = sorted({a for axes, _ in held for a in axes} - {idx})
        if k ** len(dep) > 2**16:
            raise CapacityError("dependency enumeration too large")
        local = {a: i for i, a in enumerate(dep + [idx])}
        energy = np.zeros((k,) * (len(dep) + 1))
        for axes, table in held:
            energy += _on_axes(table, [local[a] for a in axes], energy.ndim)
        with np.errstate(invalid="ignore"):  # inf - inf on a null context
            w = np.exp(-self.beta * (energy - energy.min(axis=-1, keepdims=True)))
            return dep, w / w.sum(axis=-1, keepdims=True)


def _neg_log(p: np.ndarray) -> np.ndarray:
    """-log p, +inf where p is 0: an energy at beta = 1."""
    with np.errstate(divide="ignore"):
        return -np.log(p)


def _check_laws(what: str, rows: np.ndarray) -> None:
    """ValueError unless every row is a probability law: no negative entry,
    and a sum of one.  A NaN entry fails the sum."""
    if (rows < 0.0).any():
        raise ValueError(f"{what} must have no negative entry")
    if not np.allclose(rows.sum(axis=1), 1.0, atol=1e-12):
        raise ValueError(f"{what} must sum to one")


class ProductModel(GibbsModel):
    """Independent coordinates with prescribed per-site marginals: the Gibbs
    law at beta = 1 whose term at site i is -log marginals[i]."""

    def __init__(self, sites: Sequence[Site], marginals: np.ndarray,
                 alphabet: Alphabet = SPIN, name: str = "product"):
        self.marginals = np.asarray(marginals, dtype=float)
        if self.marginals.shape != (len(sites), alphabet.size):
            raise ValueError("marginals must have shape (n_sites, alphabet size)")
        _check_laws("each marginal", self.marginals)
        energy = _neg_log(self.marginals)
        super().__init__(sites, [((i,), e) for i, e in enumerate(energy)], 1.0,
                         alphabet, name)


class MarkovChainModel(GibbsModel):
    """Spin chain with an initial law and a shared transition matrix: the
    Gibbs law at beta = 1 with -log initial at site 0 and -log transition on
    each (i, i + 1)."""

    def __init__(self, n: int, initial: np.ndarray, transition: np.ndarray,
                 name: str = "markov"):
        self.initial = np.asarray(initial, dtype=float)
        self.transition = np.asarray(transition, dtype=float)
        if self.initial.shape != (2,) or self.transition.shape != (2, 2):
            raise ValueError("a spin chain needs initial of shape (2,) and transition (2, 2)")
        _check_laws("the initial law", self.initial[None])
        _check_laws("each transition row", self.transition)
        step = _neg_log(self.transition)
        terms = [((0,), _neg_log(self.initial))] + [((i, i + 1), step) for i in range(n - 1)]
        super().__init__(segment_sites(n), terms, 1.0, SPIN, name)


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
        if key not in boundary:
            return None
        if boundary[key] not in alphabet.symbols:
            raise ConfigError(f"boundary symbol {boundary[key]!r} at {key} is not one "
                              f"of the symbols {alphabet.symbols}")
        return alphabet.values[alphabet.index(boundary[key])]
    raise ConfigError(f"unknown boundary condition {boundary!r}")


def ising_model(sites: Sequence[Site], beta: float, boundary="plus",
                external_field: float = 0.0) -> GibbsModel:
    """Ferromagnetic pair model on an arbitrary finite site set.

    Energy of a bond is -s_x s_y, so weights are exp(beta * sum of products)
    plus boundary bond terms with the fixed outside symbols substituted.  A
    dict boundary maps outside neighbors (the collar) to symbols; a key
    outside the collar, or a symbol outside the alphabet, is a ConfigError.
    """
    ordered = sort_by_spiral(sites)
    pos = {s: i for i, s in enumerate(ordered)}
    alphabet = SPIN
    vals = np.array(alphabet.values)
    pair_energy = -np.outer(vals, vals)
    # one pass over each site's unit moves: an inside neighbor is a bond
    # partner, an outside one is in the collar and, with a fixed symbol,
    # adds to the collar field.  Each bond is kept once as (i, j), i < j,
    # sorted by i then j, and the single-site terms follow the bonds: the
    # order in which every joint's log weights are summed
    nn_index, bonds, singles, collar = [], [], [], set()
    bfield = np.zeros(len(ordered))
    for i, x in enumerate(ordered):
        inside, total = [], external_field
        for delta in _unit_moves(len(x)):
            y = tuple(a + b for a, b in zip(x, delta))
            if y in pos:
                inside.append(pos[y])
            else:
                collar.add(y)
                if (bval := _boundary_value(boundary, y, alphabet)) is not None:
                    total += bval
        nn_index.append(np.array(inside, dtype=int))
        bonds += [((i, j), pair_energy) for j in sorted(inside) if j > i]
        bfield[i] = total
        if total != 0.0:
            singles.append(((i,), -vals * total))
    if isinstance(boundary, dict) and (stray := set(boundary) - collar):
        raise ConfigError(f"boundary sites {sorted(stray)} are not outside "
                          f"neighbors of the volume")

    label = boundary if isinstance(boundary, str) else "explicit"
    model = GibbsModel(ordered, bonds + singles, beta, alphabet,
                       name=f"ising{_shape_label(ordered)}_b{beta:g}_{label}")
    model.nn_index = nn_index
    model.boundary_field = bfield
    return model


def _unit_moves(d: int):
    for axis in range(d):
        for sign in (1, -1):
            move = [0] * d
            move[axis] = sign
            yield tuple(move)


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


def iid_spins(n: int, p_plus: float = 0.5) -> ProductModel:
    marg = np.tile([1.0 - p_plus, p_plus], (n, 1))
    return ProductModel(segment_sites(n), marg, SPIN, name=f"iid[{n}]_p{p_plus:g}")


# ---------------------------------------------------------------------------
# exact joint construction
# ---------------------------------------------------------------------------

def exact_joint(model: GibbsModel) -> ExactJoint:
    k = model.alphabet.size
    if k ** model.n_sites > ENUMERATION_CAP:
        raise CapacityError(
            f"exact joint needs {k}^{model.n_sites} states, cap is {ENUMERATION_CAP}"
        )
    logw = model.log_weight_table()
    w = np.exp(logw - logw.max())
    return ExactJoint(sites=model.sites, alphabet=model.alphabet, probs=w / w.sum())


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

#: replicas per chunk; every chunk draws from its own `SeedSequence` child,
#: so replica r depends only on the seed and r // CHUNK, never on n_samples
CHUNK = 1024

#: the largest replica count one sampled batch may ask for (`tail` and
#: `hightemp`'s n_samples, `lowtemp`'s n_pair, n_ell and n_tail); the
#: experiments raise CapacityError above it, before their first sample.
#: Peak `tracemalloc` grows by 8.8 B per replica of `lowtemp`'s n_tail (4x4,
#: 5*10^4 -> 2*10^5: split A, 0.4 of n_tail in float64, and the Luxembourg
#: norm's two arrays of its size; split B is counted chunk by chunk) and by
#: 2.3 B per replica of `tail`'s n_samples (4x4, 8*10^4 -> 3.2*10^5: the
#: mean batch, 0.2 of n_samples in float64; the main batch is counted chunk
#: by chunk), and `_batch` spawns one 376 B `SeedSequence` child per CHUNK
#: replicas of a batch when its first job is read.  At the cap that is at
#: most 0.46 GB, under a sixteenth of an 8 GB box.
MAX_REPLICAS = 50_000_000

#: `_heat_bath` runs its chunks serially when its larger parity class has
#: fewer rows: each numpy call is then too short to pay for the pool, whose
#: workers mostly trade the interpreter lock.  Medians of 10 interleaved
#: calls, 2 threads against 1, in two sessions on a shared 2-core x86-64
#: box (numpy 2.4): 8x8 (32 rows), 10^4 replicas, 40 sweeps, pool 114 and
#: 124 ms wall, serial 105 and 118 ms; 16x16 (128 rows), 6250 replicas, 60
#: sweeps, pool 289 and 271 ms wall, serial 391 and 371 ms.
POOL_MIN_ROWS = 64

def ordered_map(fn: Callable, items: Iterable):
    """fn(item) for each item, yielded in item order, computed on a pool of
    `os.cpu_count()` threads, or serially in the calling thread on one core.

    At most `workers + 1` calls are in flight beyond the result last
    yielded, so a slow consumer bounds the memory, and items are read only
    as slots free up.  The one call beyond the worker count stays queued,
    so a worker that finishes while the consumer handles a result starts
    the next call at once.  Closing the generator early cancels the calls
    not yet started, waits for the running ones and joins every worker
    thread.  An exception from fn is raised when its result's turn comes.
    """
    workers = os.cpu_count() or 1
    if workers == 1:
        yield from map(fn, items)
        return
    items = iter(items)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = deque(pool.submit(fn, item) for item in islice(items, workers + 1))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


class Batch(NamedTuple):
    """One sampled batch as chunk jobs, in replica order (see `_batch`).

    Each job, called with no argument, draws its chunk and returns it
    reduced to a part on the thread that ran it.  `n_chunks` is the number
    of jobs, and `pooled` says whether they pay for `ordered_map`'s pool.
    """

    jobs: Iterator[Callable[[], object]]
    n_chunks: int
    pooled: bool


def _batch(run: Callable[[int, np.random.Generator], object], n_samples: int, seed: int,
           pooled: bool) -> Batch:
    """The `Batch` of jobs run(size, rng), one per CHUNK replicas (the last
    may be short); chunk j's generator is on the j-th `SeedSequence` child of
    `seed`, spawned when the first job is read."""
    n_chunks = -(-n_samples // CHUNK)

    def jobs():
        for j, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
            yield partial(run, min(CHUNK, n_samples - j * CHUNK), np.random.default_rng(child))

    return Batch(jobs(), n_chunks, pooled)


def _run(job: Callable[[], object]) -> object:
    """One chunk job, run on the thread that `stream` hands it to."""
    return job()


def stream(batches: Sequence[Batch]) -> list[Iterator]:
    """One iterator per batch, each yielding that batch's parts in replica
    order, all read from one `ordered_map` stream of every batch's jobs.

    The jobs of all batches share the pool, so no batch drains before the
    next one starts.  The stream runs serially in the calling thread when
    no batch is pooled.  Every job reads its own generator, so the parts do
    not depend on the thread count or on which batches share the stream.
    Each batch was checked when it was built, so a bad model in any batch
    has raised before the stream starts a thread.

    The iterators share that one source, so read them in batch order, each
    to its end: batches of one size read out of order swap their parts with
    no error, which only a comparison with one stream per batch shows.
    Reading the last to its end joins the threads; dropping the list early
    cancels the jobs not yet started and joins them too.
    """
    jobs = (job for batch in batches for job in batch.jobs)
    parts = ordered_map(_run, jobs) if any(b.pooled for b in batches) else map(_run, jobs)
    return [islice(parts, batch.n_chunks) for batch in batches]


def gather(parts: Iterable[np.ndarray], out: np.ndarray) -> np.ndarray:
    """`out`, filled along its last axis by `parts` in order."""
    lo = 0
    for part in parts:
        out[..., lo:lo + part.shape[-1]] = part
        lo += part.shape[-1]
    return out


def _halves(bit_generator, n: int, carry: np.ndarray):
    """The next n 32-bit halves of raw PCG64 words, and the new carry.

    `random(dtype=float32)` reads the same halves, low half first (the
    little-endian uint32 view), and returns each one shifted right by 8 and
    divided by 2^24.  `carry` holds the half a previous odd draw left
    pending, if any.
    """
    if n == 0:
        return np.empty(0, dtype=np.uint32), carry
    need = n - carry.size
    halves = bit_generator.random_raw((need + 1) // 2).view(np.uint32)
    words = np.concatenate([carry, halves[:need]]) if carry.size else halves[:need]
    return words, halves[need:].copy()


class _Plan(NamedTuple):
    """What `_heat_bath`'s chunk jobs read: `row` maps a model site to its
    kernel row; `nbr[r]` lists row r's neighbor rows, spare slots on the
    ghosts m (0) and m + 1 (plus); `classes` holds each parity class's
    (first row, end row) and `runs` its runs of equal threshold rows as
    (first row, end row, cuts), rows counted from the class's first."""

    row: np.ndarray
    nbr: np.ndarray
    classes: list[tuple[int, int]]
    runs: list[list[tuple[int, int, list]]]
    compare: Callable


def _plan(model: GibbsModel, pinned: int | None) -> _Plan:
    """The kernel's rows, neighbor slots, thresholds and runs; see
    `_heat_bath`.  A model the kernel cannot run is a ConfigError."""
    if model.alphabet.size != 2 or model.nn_index is None:
        raise ConfigError("heat-bath sampling needs a binary nearest-neighbor Gibbs model")
    m = model.n_sites
    parity = np.array([sum(s) & 1 for s in model.sites])
    free = np.arange(m) != pinned
    order = np.concatenate([np.flatnonzero(free & (parity == 0)),
                            np.flatnonzero(free & (parity == 1)),
                            np.flatnonzero(~free)])
    row = np.empty(m, dtype=np.intp)  # model site index -> kernel row
    row[order] = np.arange(m)
    deg = max(1, max(len(nb) for nb in model.nn_index))
    nbr = np.full((m, deg), m, dtype=np.intp)  # row m is the ghost that holds 0
    for i, nb in enumerate(model.nn_index):
        nbr[row[i], :len(nb)] = row[nb]
    degree = [len(model.nn_index[i]) for i in order]
    field = 2 * np.arange(deg + 1) - np.array(degree)[:, None]
    field = field + model.boundary_field[order][:, None]
    p_plus = 0.5 * (1.0 + np.tanh(model.beta * field))
    q = np.round(p_plus * 2.0**24).astype(np.uint32).tolist()
    # a row of degree d < deg whose reachable thresholds q[0..d] equal a
    # full-degree row's q[o..o+d] takes that row's thresholds and points o
    # spare slots at row m + 1, the ghost that holds plus: its count becomes
    # c + o, and U < q_full[c + o] = q[c], so the spin is unchanged
    full = list(dict.fromkeys(tuple(x) for x, d in zip(q, degree) if d == deg))
    for r, d in enumerate(degree):
        reach = tuple(q[r][:d + 1])
        shifts = [(t, o) for t in full if d < deg
                  for o in range(deg - d + 1) if t[o:o + d + 1] == reach]
        if shifts:
            target, o = shifts[0]
            q[r] = list(target)
            nbr[r, d:d + o] = m + 1
    compare = np.greater_equal if model.beta >= 0 else np.less
    n0 = int((free & (parity == 0)).sum())
    classes = [(0, n0), (n0, int(free.sum()))]
    # per class, (first row, end row, cuts) for each run of equal threshold
    # rows.  A cut is q << 8 as a 0-d uint32 array, or None for q = 2^24,
    # whose compare is constant.  A short run's compares are mostly call
    # overhead: with 0-d arrays and `out` passed by position a call on one
    # row of 1024 takes about 0.6 us instead of 1.0 us (2-core x86-64,
    # numpy 2.4).
    runs = []
    for a, b in classes:
        rows = q[a:b]
        edges = [r for r in range(1, b - a) if rows[r] != rows[r - 1]]
        runs.append([(r0, r1, [None if x == 2**24 else np.array(x << 8, dtype=np.uint32)
                               for x in rows[r0]])
                     for r0, r1 in zip([0] + edges, edges + [b - a]) if r1 > r0])
    return _Plan(row, nbr, classes, runs, compare)


def _heat_bath(model: GibbsModel, n_samples: int, sweeps: int, seed: int,
               starts: tuple[int, ...] = (1,),
               frozen: tuple[int, tuple[int, ...]] | None = None,
               reduce: Callable[[list[np.ndarray]], object] = lambda legs: legs) -> Batch:
    """The heat-bath kernel for binary nearest-neighbor Gibbs models.

    Returns the `Batch` of chunk jobs (`_batch`); each job returns
    reduce(legs), reduced on the thread that ran it.  There is one leg per
    entry of `starts`, a symbol index (1 plus, 0 minus): leg k starts with
    every site at starts[k].  Each leg is a site-major int8 array
    (n_sites, chunk size) of symbol indices after `sweeps` sweeps, in the
    model's site order.  With `frozen=(site, symbols)`, one symbol per leg,
    leg k starts with `site` set to symbols[k] and never updates it.  All
    legs of a chunk read the same uniforms, which for a ferromagnet is the
    monotone coupling: the update is increasing in the neighbor
    configuration, so the pointwise order of the legs persists.  Legs from
    all-plus and all-minus thus sandwich every chain on the same uniforms,
    and meet for good at the sweep tau where they first agree: the law after
    t sweeps from any start is within P(tau > t) of the kernel's stationary
    law in total variation (Propp-Wilson 1996; Levin-Peres-Wilmer, ch. 5).
    The model is checked and the plan built here, at call time, before any
    job runs or thread starts.

    Any finite site set works.  Nearest neighbors have opposite coordinate
    parity, so each parity class is resampled at once from its exact
    single-site conditionals.  A row's neighbor slots beyond its degree
    point at ghost rows: row m holds 0, so a leg's neighbor sum is its
    number c of plus neighbors, and row m + 1 holds plus (see below).

    Uniforms are 24-bit integers U, the values of `random(dtype=float32)`
    times 2^24, so the stream is the float32 one bit for bit.  The
    conditional is an integer threshold q[s, c] = round(p_+(s, c) 2^24):
    site s with c plus neighbors turns plus iff U < q[s, c].  U is uniform on
    {0, ..., 2^24 - 1} and q is p_+ rounded to that grid, so each update's
    law is off by at most 2^-25 from the exact conditional.  Once per class
    and sweep, shared by every leg, the kernel counts T over the row of
    thresholds.  For beta >= 0 the row is non-decreasing in c; with
    T = #{c : U >= q[s, c]} the spin is plus iff c >= T.  For beta < 0 it is
    non-increasing; the kernel counts T = #{c : U < q[s, c]} =
    deg + 1 - #{c : U >= q[s, c]} and the spin is plus iff c < T.  One ufunc,
    `compare`, serves both counts and both comparisons.  Each leg then only
    counts its plus neighbors and compares.  Either way the spin is plus iff
    U < q[s, c]: only the row's entry at the leg's own count matters.

    The count reads the raw 32-bit halves H that U is taken from (`_halves`),
    U = H >> 8: for q < 2^24, U >= q iff H >= q 2^8, so no shift pass is
    needed.  A threshold q = 2^24 is a constant term of the count: U >= q
    never holds and U < q always does.  Within a class, rows in site order
    fall into runs of equal threshold rows, and each run's compares take its
    thresholds as scalars, which numpy runs 2-3x faster per element than a
    broadcast column.  The (deg + 1) compares fill a bool buffer that one
    `np.add.reduce` sums into T.  A site set whose rows rarely repeat makes
    one compare call per row and threshold.

    Edge and corner rows join the interior's run where their thresholds are
    the interior's shifted.  A row s of degree d < deg whose reachable
    thresholds q[s, 0..d] equal, bit for bit, a full-degree row's
    q_full[o..o+d] points o spare slots at the plus ghost and takes q_full:
    its count is c + o, the row q_full is monotone like every row, and
    U < q_full[c + o] = q[s, c], so every leg is unchanged.  Under a plus
    boundary an edge row is the interior's shifted by one and a corner by
    two, under a minus boundary both equal it, so each class of a rectangle
    is one run: deg + 1 compare calls per class and sweep.  Free and dict
    boundaries and external fields keep the runs that do not merge.

    Jobs run in parallel on `ordered_map`'s pool of `os.cpu_count()`
    threads (`stream`) when the larger parity class has at least
    `POOL_MIN_ROWS` rows; numpy releases the interpreter lock in
    `random_raw` and the ufuncs, where the time goes.  With fewer rows (8x8
    has 32) every call is short, the workers mostly trade the lock, and the
    batch is not `pooled`.  Each job keeps its own generator, carry and
    buffers, so the output does not depend on the thread count.  One job's
    working memory at 16x16 peaks at about 3.1 MiB, of which the
    (deg + 1, rows, CHUNK) compare buffer takes 0.63 MiB.
    """
    pinned, symbols = frozen if frozen is not None else (None, (None,) * len(starts))
    row, nbr, classes, runs, compare = _plan(model, pinned)
    m, deg = nbr.shape
    nbr_cols = [[np.ascontiguousarray(nbr[a:b, j]) for j in range(deg)] for a, b in classes]
    always = compare is np.less
    n_rows = max(b - a for a, b in classes)

    def run(size: int, rng: np.random.Generator) -> object:
        legs = []
        for start, sym in zip(starts, symbols):
            spins = np.full((m + 2, size), start, dtype=np.int8)
            spins[m:] = [[0], [1]]  # the ghosts that hold 0 and plus
            if pinned is not None:
                spins[row[pinned]] = sym
            legs.append(spins)
        carry = np.empty(0, dtype=np.uint32)
        hit = np.empty((deg + 1, n_rows, size), dtype=bool)
        t_buf = np.empty((n_rows, size), dtype=np.int8)
        # per class: each run's rows with its (output, cut) pairs, and the
        # int8 view of the compares that sums into T
        plans = [([(r0, r1, [(hit[c, r0:r1], x) for c, x in enumerate(cuts)])
                   for r0, r1, cuts in class_runs],
                  hit[:, :b - a].view(np.int8), t_buf[:b - a])
                 for (a, b), class_runs in zip(classes, runs)]
        for _ in range(sweeps):
            for (a, b), (class_plan, hits, t), cols in zip(classes, plans, nbr_cols):
                h, carry = _halves(rng.bit_generator, (b - a) * size, carry)
                h = h.reshape(b - a, size)
                for r0, r1, outs in class_plan:
                    h_run = h[r0:r1]
                    for out, x in outs:
                        if x is None:
                            out[...] = always
                        else:
                            compare(h_run, x, out)
                np.add.reduce(hits, 0, np.int8, t)
                for spins in legs:
                    count = spins[cols[0]]
                    for j in cols[1:]:
                        count += spins[j]
                    compare(count, t, spins[a:b].view(bool))
        return reduce([spins[row] for spins in legs])

    return _batch(run, n_samples, seed, n_rows >= POOL_MIN_ROWS)


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Symbol index whose cumulative interval holds u (broadcast over rows)."""
    return (u[..., None] >= cdf[..., :-1]).sum(axis=-1)


def _exact_draws(model: ProductModel | MarkovChainModel, n_samples: int, seed: int,
                 reduce: Callable[[list[np.ndarray]], object]) -> Batch:
    """The `Batch` of exact draws (`_batch`), run serially; each job returns
    reduce([ids]), where ids is site-major like a leg."""
    m = model.n_sites

    def run(size: int, rng: np.random.Generator) -> object:
        u = rng.random((size, m))
        if isinstance(model, ProductModel):
            ids = _inverse_cdf(np.cumsum(model.marginals, axis=1), u)
        else:  # ancestral sampling along the chain
            step = np.cumsum(model.transition, axis=1)
            ids = np.empty((size, m), dtype=np.intp)
            ids[:, 0] = _inverse_cdf(np.cumsum(model.initial), u[:, 0])
            for i in range(1, m):
                ids[:, i] = _inverse_cdf(step[ids[:, i - 1]], u[:, i])
        return reduce([ids.T])

    return _batch(run, n_samples, seed, False)


def observable_batch(model: GibbsModel, g: LocalFunction, n_samples: int, sweeps: int,
                     seed: int) -> Batch:
    """The chunk jobs of `glauber_batch`: each returns g's values on its
    chunk's replicas, with `g.fn` applied on the thread that ran the job.
    A model the kernel cannot run is a ConfigError, raised here."""
    values = np.asarray(model.alphabet.values)
    cols = [model.sites.index(tuple(s)) for s in g.sites]

    def on_g(legs: list[np.ndarray]) -> np.ndarray:
        # gathered through a C-contiguous index, the values come out
        # C-contiguous: one float64 array per chunk, not two
        return g.fn(values[np.ascontiguousarray(legs[0][cols].T)])

    if isinstance(model, (ProductModel, MarkovChainModel)):
        return _exact_draws(model, n_samples, seed, on_g)
    return _heat_bath(model, n_samples, sweeps, seed, reduce=on_g)


def glauber_batch(model: GibbsModel, g: LocalFunction, n_samples: int, sweeps: int,
                  seed: int) -> np.ndarray:
    """g on independent draws from the model's law: float64 (n_samples,).

    Product models are drawn exactly site by site and Markov chains exactly
    by ancestral sampling (`sweeps` does not enter); every other model goes
    to the heat-bath kernel `_heat_bath`, whose chains start all-plus.  A
    model the kernel cannot run is a ConfigError.  The batch runs on its
    own `stream`; `observable_batch` gives its jobs, for a stream shared
    with other batches.  `g.fn` sees one chunk at a time as C-contiguous
    rows of the values at `g.sites`, on whichever thread ran the chunk, so
    it must be thread-safe.  Working memory is up to one heat-bath chunk
    per job in flight plus the n_samples values returned.
    """
    [parts] = stream([observable_batch(model, g, n_samples, sweeps, seed)])
    return gather(parts, np.empty(n_samples))


def glauber_block_batch(model: GibbsModel, n_samples: int, sweeps: int,
                        seed: int) -> np.ndarray:
    """Heat-bath replicas of a binary nearest-neighbor Gibbs model.

    Returns the kernel's site-major int8 symbol indices (n_sites, n_samples)
    in the model's site order, 0 for minus; see `_heat_bath` for the update
    and its precision.
    """
    [parts] = stream([_heat_bath(model, n_samples, sweeps, seed, reduce=lambda legs: legs[0])])
    return gather(parts, np.empty((model.n_sites, n_samples), dtype=np.int8))


# ---------------------------------------------------------------------------
# single-site sensitivity (influence) data
# ---------------------------------------------------------------------------

@dataclass
class DobrushinData:
    """Pairwise influence matrix and single-site sensitivities of a finite model.

    `influence_tv[x, y]` is the largest total-variation change of the
    conditional law at x caused by editing y alone, and `row_sum_max` is
    Dobrushin's coefficient max_x sum_y influence_tv[x, y], which his
    uniqueness condition bounds by 1.  `p_tv[x]` is the largest
    total-variation distance between the conditional laws at x over all
    pairs of contexts.  Contexts with no conditional law (every symbol of
    weight 0) take part in none of these.
    """

    sites: tuple[Site, ...]
    influence_tv: np.ndarray
    row_sum_max: float
    p_tv: np.ndarray

    @property
    def p_sup_tv(self) -> float:
        return float(self.p_tv.max())


def _max_tv(laws: np.ndarray) -> float:
    """Largest total-variation distance between `laws[a][i]` and `laws[b][i]`
    over a, b and every index i of the middle axes (laws run along the last).

    TV(P, Q) is the largest P(A) - Q(A) over symbol sets A, so this is the
    largest range over a of laws[a][i](A), over i and the 2^k - 2 proper
    nonempty sets A: memory linear in the laws, with no axis of pairs.  NaN
    laws (null contexts) are skipped; with no two laws to compare it is 0.
    """
    k = laws.shape[-1]
    sets = (np.arange(1, 2**k - 1)[:, None] >> np.arange(k)) & 1
    mass = laws @ sets.T.astype(float)
    spread = np.fmax.reduce(mass, axis=0) - np.fmin.reduce(mass, axis=0)
    return float(np.fmax.reduce(spread, axis=None, initial=0.0))


def dobrushin_matrix(model: GibbsModel) -> DobrushinData:
    """Exact influence matrix from each site's `local_conditionals` table."""
    m = model.n_sites
    k = model.alphabet.size
    influence_tv = np.zeros((m, m))
    p_tv = np.zeros(m)
    for x in range(m):
        dep, table = model.local_conditionals(x)
        # sup over all context pairs, for the site-level quantity
        p_tv[x] = _max_tv(table.reshape(-1, k))
        for j, y in enumerate(dep):
            influence_tv[x, y] = _max_tv(np.moveaxis(table, j, 0).reshape(k, -1, k))
    return DobrushinData(model.sites, influence_tv,
                         float(influence_tv.sum(axis=1).max()), p_tv)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def model_from_config(cfg: dict) -> GibbsModel:
    """Build a model from a JSON-style dictionary (see README for the schema).

    Every number is read through `_integer` or `_real`.  A key the kind does
    not read is a ConfigError, and so is a volume other than two sides or
    `{"segment": n}`.
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("model config must be a dict with a 'kind' entry")
    kind = cfg["kind"]
    try:
        if kind == "ising":
            _only_keys(cfg, {"kind", "beta", "external_field", "boundary", "volume"},
                       "this kind")
            beta = _real(cfg["beta"])
            h = _real(cfg.get("external_field", 0.0))
            boundary = cfg.get("boundary", "plus")
            if isinstance(boundary, dict):
                boundary = {tuple(k_ if isinstance(k_, tuple) else tuple(int(c) for c in k_.split(","))): v
                            for k_, v in boundary.items()}
            vol = cfg["volume"]
            if isinstance(vol, dict):
                _only_keys(vol, {"segment"}, "a segment volume")
                return ising_segment(_integer(vol["segment"]), beta, boundary, h)
            if not isinstance(vol, (list, tuple)) or len(vol) != 2:
                raise ConfigError(f"volume must be two sides or {{'segment': n}}, got {vol!r}")
            return ising_rect(_integer(vol[0]), _integer(vol[1]), beta, boundary, h)
        if kind in ("iid", "product"):
            _only_keys(cfg, {"kind", "n_sites", "p_plus"}, "this kind")
            n = _integer(cfg["n_sites"])
            p = cfg.get("p_plus", 0.5)
            if np.isscalar(p):
                return iid_spins(n, _real(p))
            p = np.array([_real(x) for x in p])
            return ProductModel(segment_sites(n), np.column_stack([1.0 - p, p]), SPIN,
                                name=f"product[{n}]")
        if kind == "markov":
            _only_keys(cfg, {"kind", "n_sites", "initial", "transition"}, "this kind")
            return MarkovChainModel(
                _integer(cfg["n_sites"]),
                np.array([_real(x) for x in cfg["initial"]]),
                np.array([[_real(x) for x in row] for row in cfg["transition"]]),
            )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError(f"malformed model config for kind {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")
