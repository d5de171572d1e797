import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import exp

import numpy as np
import pytest

from spinconc import models
from spinconc.errors import (
    CapacityError,
    ConfigError,
    DegenerateConditioningError,
)
from spinconc.fields import (
    SPIN,
    Alphabet,
    LocalFunction,
    delta_vector,
    magnetization,
    majority,
    pair_product,
    pattern_indicator,
    single_spin,
    total_spin,
)
from spinconc.lattice import rect_sites, segment_sites
from spinconc.models import (
    CHUNK,
    SITE_PERCOLATION_PC_2D,
    GibbsModel,
    MarkovChainModel,
    ProductModel,
    dobrushin_matrix,
    exact_joint,
    glauber_batch,
    iid_spins,
    ising_model,
    ising_rect,
    ising_segment,
    model_from_config,
    observable_batch,
    ordered_map,
    stream,
    _heat_bath,
    _halves,
    _plan,
)
from spinconc.verify import battery_models, ell_observable, empirical_tail

from .oracles import ising_weight, numpy_openblas, reference_heat_bath


def test_uniform_at_infinite_temperature():
    joint = exact_joint(ising_rect(2, 2, beta=0.0))
    assert np.allclose(joint.probs, 1.0 / 16.0, atol=1e-14)


def test_joint_normalization():
    for model in [ising_rect(2, 3, 0.5), iid_spins(5, 0.3),
                  ising_segment(6, 0.7, "minus")]:
        joint = exact_joint(model)
        assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (joint.probs >= 0).all()


def test_two_site_plus_boundary_masses():
    # 1x2 strip with plus boundary: each site has 3 outside neighbors, so
    # weight(s1, s2) = exp(beta*(s1*s2 + 3*s1 + 3*s2)); masses checked by hand
    beta = 0.5
    model = ising_rect(1, 2, beta, "plus")
    joint = exact_joint(model)
    raw = {
        (1, 1): exp(beta * 7),
        (1, 0): exp(-beta),
        (0, 1): exp(-beta),
        (0, 0): exp(-beta * 5),
    }
    z = sum(raw.values())
    for idx, want in raw.items():
        assert joint.probs[idx] == pytest.approx(want / z, rel=1e-12)


def test_exact_joint_matches_naive_weights():
    beta = 0.4
    model = ising_rect(2, 2, beta, "plus")
    joint = exact_joint(model)
    sites = model.sites
    bonds = [(i, j) for i in range(4) for j in range(i + 1, 4)
             if sum(abs(a - b) for a, b in zip(sites[i], sites[j])) == 1]
    vals = np.array(SPIN.values)
    raw = np.zeros((2,) * 4)
    for idx in itertools.product(range(2), repeat=4):
        raw[idx] = ising_weight(vals[list(idx)], bonds, model.boundary_field, beta)
    raw /= raw.sum()
    assert np.allclose(joint.probs, raw, atol=1e-13)


def test_free_boundary_has_no_field():
    model = ising_rect(2, 2, 0.3, "free")
    assert np.allclose(model.boundary_field, 0.0)
    # symmetric under global flip
    joint = exact_joint(model)
    flipped = joint.probs[::-1, ::-1, ::-1, ::-1]
    assert np.allclose(joint.probs, flipped, atol=1e-14)


def test_single_site_conditional_four_plus_neighbors():
    beta = 0.7
    model = ising_rect(3, 3, beta, "plus")
    center = model.sites.index((0, 0))
    config = [SPIN.index("+")] * model.n_sites
    dep, table = model.local_conditionals(center)
    p = table[tuple(config[a] for a in dep)]
    want = exp(4 * beta) / (exp(4 * beta) + exp(-4 * beta))
    assert p[SPIN.index("+")] == pytest.approx(want, rel=1e-12)


def test_conditional_future_markov_row():
    q = 0.8
    chain = MarkovChainModel(4, np.array([0.5, 0.5]),
                             np.array([[q, 1 - q], [1 - q, q]]))
    joint = exact_joint(chain)
    cond = joint.conditional_future((1, 1))
    first = cond.probs.sum(axis=1)
    assert np.allclose(first, [1 - q, q], atol=1e-12)


def test_degenerate_conditioning_raises():
    marg = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
    model = ProductModel(segment_sites(3), marg)
    joint = exact_joint(model)
    with pytest.raises(DegenerateConditioningError):
        joint.conditional_future((1,))


def test_prefix_marginal_reads_the_empty_prefix_and_refuses_other_indices():
    joint = exact_joint(ising_rect(2, 2, 0.3, "plus"))
    empty = joint.prefix_marginal(-1)
    assert empty.shape == () and empty == 1.0
    assert np.allclose(joint.prefix_marginal(0), joint.probs.sum(axis=(1, 2, 3)),
                       rtol=0, atol=1e-15)
    assert joint.prefix_marginal(3) is joint.probs
    for i in (-2, joint.n_sites):
        with pytest.raises(IndexError):
            joint.prefix_marginal(i)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        exact_joint(iid_spins(25))


@pytest.mark.parametrize("alphabet, n", [(SPIN, 13),
                                         (Alphabet(("a", "b", "c"), (0.0, 0.5, 2.0)), 9)],
                         ids=["spin-13", "three-symbol-9"])
def test_function_table_matches_per_configuration_values(alphabet, n):
    sites = segment_sites(n)
    k = alphabet.size
    joint = exact_joint(ProductModel(sites, np.full((n, k), 1.0 / k), alphabet))
    picked = (sites[5], sites[1], sites[3])  # out of enumeration order
    mixed = LocalFunction("mixed", picked, lambda m: m[:, 0] - 2.0 * m[:, 1] + m[:, 2] ** 2)
    cases = ((total_spin(sites), sum), (mixed, lambda v: v[0] - 2.0 * v[1] + v[2] ** 2))
    for g, scalar in cases:
        table = joint.function_table(g)
        axes = [sites.index(s) for s in g.sites]
        for config in itertools.product(range(k), repeat=n):
            if sum(config) % 7:  # a spread-out subset keeps the loop short
                continue
            want = scalar(tuple(alphabet.values[config[a]] for a in axes))
            assert table[config] == want


@pytest.mark.parametrize("model", [
    ising_rect(3, 3, 0.4, "plus"),
    ProductModel(segment_sites(6), np.full((6, 3), 1.0 / 3.0),
                 Alphabet(("a", "b", "c"), (0.0, 0.5, 2.0))),
], ids=["ising-3x3", "three-symbol-6"])
def test_delta_vector_matches_function_table(model):
    # the oscillation at x is the largest max - min along x's axis of g's table
    joint = exact_joint(model)
    sites, alphabet = joint.sites, joint.alphabet
    catalog = [magnetization(sites), total_spin(sites), single_spin(sites[4]),
               pair_product(sites[1], sites[3]), majority(sites[:3]),
               pattern_indicator(sites[2:5], alphabet.symbols[:2] + alphabet.symbols[:1],
                                 alphabet)]
    for g in catalog:
        table = joint.function_table(g)
        per_site = delta_vector(g, sites, alphabet).per_site
        for x in range(len(sites)):
            assert per_site[x] == pytest.approx(np.ptp(table, axis=x).max(), abs=1e-12)


def test_heat_bath_detailed_balance():
    model = ising_rect(2, 2, 0.6, "plus")
    logw = model.log_weight_table()
    rng = np.random.default_rng(3)
    for _ in range(20):
        cfg = list(rng.integers(0, 2, size=4))
        i = int(rng.integers(4))
        dep, table = model.local_conditionals(i)
        p = table[tuple(cfg[a] for a in dep)]
        for a in range(2):
            for b in range(2):
                ca, cb = list(cfg), list(cfg)
                ca[i], cb[i] = a, b
                lhs = exp(logw[tuple(ca)]) * p[b]
                rhs = exp(logw[tuple(cb)]) * p[a]
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_local_conditionals_match_the_joint():
    # 7 ternary sites: random pair tables on a ring and a chord, a field at
    # every site and one three-site term with its axes out of order
    rng = np.random.default_rng(11)
    alphabet = Alphabet(("a", "b", "c"), (0.0, 0.5, 2.0))
    n, k = 7, 3
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(2, 5)]
    terms = [(pair, rng.normal(size=(k, k))) for pair in pairs]
    terms += [((i,), rng.normal(size=k)) for i in range(n)]
    terms.append(((6, 1, 3), rng.normal(size=(k, k, k))))
    chains = [m for m in battery_models(101) if isinstance(m, MarkovChainModel)]
    assert len(chains) == 3
    product = ProductModel(segment_sites(5), rng.dirichlet(np.ones(k), size=5), alphabet)
    # once minus, always minus: some contexts have no conditional law
    absorbing = MarkovChainModel(4, [0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]])
    for model in [GibbsModel(segment_sites(n), terms, 0.8, alphabet), *chains, product,
                  absorbing]:
        m, k = model.n_sites, model.alphabet.size
        probs = exact_joint(model).probs
        configs = np.indices((k,) * m).reshape(m, -1)
        data = dobrushin_matrix(model)
        for x in range(m):
            dep, table = model.local_conditionals(x)
            # compare on contexts of the other sites with positive mass only
            mass = probs.sum(axis=x, keepdims=True)
            cond = probs / np.where(mass > 0, mass, 1.0)
            live = np.broadcast_to(mass > 0, probs.shape)[tuple(configs)]
            got = table[tuple(configs[dep]) + (configs[x],)]
            assert np.abs(got - cond[tuple(configs)])[live].max() <= 1e-12
            # brute force: every pair of those contexts
            laws = np.moveaxis(cond, x, -1).reshape(-1, k)[mass.reshape(-1) > 0]
            tv = 0.5 * np.abs(laws[:, None] - laws[None, :]).sum(axis=-1)
            assert data.p_tv[x] == pytest.approx(tv.max(), abs=1e-12)
    assert dobrushin_matrix(absorbing).p_tv == pytest.approx([2 / 3, 1, 1, 1 / 2], abs=1e-12)
    # independent sites never influence one another; a chain's neighbors do
    assert not dobrushin_matrix(product).p_tv.any()
    for chain in chains:
        sites = np.arange(chain.n_sites)
        nearest = np.abs(sites[:, None] - sites[None, :]) == 1
        assert np.array_equal(dobrushin_matrix(chain).influence_tv != 0, nearest)


def test_dobrushin_memory_is_linear_in_the_contexts():
    # one site sharing a pair term with each of 10 others: 2^10 contexts,
    # whose pairs alone would take 32 MB as float64 differences
    rng = np.random.default_rng(0)
    terms = [((0, i), rng.normal(size=(2, 2))) for i in range(1, 11)]
    model = GibbsModel(segment_sites(11), terms, 0.7)
    tracemalloc.start()
    try:
        dobrushin_matrix(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_glauber_matches_exact_mean_3x3():
    beta = 0.4
    model = ising_rect(3, 3, beta, "plus")
    joint = exact_joint(model)
    g = magnetization(model.sites)
    exact_mean = joint.expectation(joint.function_table(g))
    vals = glauber_batch(model, g, 4000, 60, seed=11)
    assert vals.shape == (4000,)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact_mean) < 3 * se + 1e-3


def _configuration_code(sites) -> LocalFunction:
    """A spin configuration on `sites` read as a binary number: equal values
    mean equal configurations."""
    return LocalFunction("code", tuple(sites),
                         lambda m: (m > 0) @ 2.0 ** np.arange(len(sites)))


def test_glauber_batch_deterministic():
    model = ising_rect(3, 3, 0.4, "plus")
    g = _configuration_code(model.sites)
    a = glauber_batch(model, g, 50, 10, seed=5)
    b = glauber_batch(model, g, 50, 10, seed=5)
    assert np.array_equal(a, b)
    c = glauber_batch(model, g, 50, 10, seed=6)
    assert not np.array_equal(a, c)


# a 4x4 box without its upper-right 2x2 corner
L_SHAPE = [s for s in rect_sites(4, 4) if not (s[0] > 0 and s[1] > 0)]


@pytest.mark.parametrize("model", [ising_model(L_SHAPE, 0.4, "plus"),
                                   ising_segment(6, 0.4, "minus")],
                         ids=["L-shape", "segment"])
def test_glauber_matches_exact_mean_off_rectangle(model):
    joint = exact_joint(model)
    g = magnetization(model.sites)
    exact_mean = joint.expectation(joint.function_table(g))
    vals = glauber_batch(model, g, 4000, 60, seed=11)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact_mean) < 3 * se


@pytest.mark.parametrize("model", [
    MarkovChainModel(6, np.array([0.9, 0.1]), np.array([[0.7, 0.3], [0.2, 0.8]])),
    ProductModel(segment_sites(4), np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.3], [0.98, 0.02]])),
], ids=["markov", "product"])
def test_glauber_batch_is_exact_on_product_and_markov(model):
    # every observable reads the same 20000 draws: same seed, same stream
    joint = exact_joint(model)
    sites = model.sites
    observables = [single_spin(s) for s in sites]
    observables += [pair_product(x, y) for x, y in zip(sites, sites[1:])]
    for g in observables:
        vals = glauber_batch(model, g, 20000, sweeps=0, seed=3)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - joint.expectation(joint.function_table(g))) < 4 * se


@pytest.mark.parametrize("model", [ising_model(L_SHAPE, 0.4, "plus"), iid_spins(5, 0.3)],
                         ids=["gibbs", "product"])
def test_glauber_batch_prefix_does_not_depend_on_n(model):
    g = _configuration_code(model.sites)
    short = glauber_batch(model, g, 1500, 5, seed=9)
    long = glauber_batch(model, g, 3000, 5, seed=9)
    assert short.shape == (1500,)
    assert np.array_equal(short[:CHUNK], long[:CHUNK])


def test_uniforms24_continue_the_float32_stream():
    ref, raw = np.random.default_rng(4), np.random.default_rng(4)
    for rng in (ref, raw):
        rng.integers(2, size=3, dtype=np.int8)  # leaves half a word pending
    state = raw.bit_generator.state
    carry = np.array([state["uinteger"]] * state["has_uint32"], dtype=np.uint32)
    assert carry.size == 1
    for n in (3, 5, 0, 8, 1, 1025):
        halves, carry = _halves(raw.bit_generator, n, carry)
        assert halves.dtype == np.uint32
        assert np.array_equal(halves >> 8, ref.random(n, dtype=np.float32) * 2.0**24)


def _kernel_legs(model, n, sweeps, seed, starts=(1,), frozen=None):
    [parts] = stream([_heat_bath(model, n, sweeps, seed, starts, frozen)])
    return np.concatenate([np.stack(legs) for legs in parts], axis=-1)


# one leg from all-plus; the pinned pair chain, both legs from all-plus; the
# grand coupling, one leg from all-plus and one from all-minus
def _leg_sets(pinned, symbols):
    return [((1,), None), ((1, 1), (pinned, symbols)), ((1, 0), None)]


# a mixed boundary: minus on the left, plus on part of the top and bottom,
# minus on part of the right, free elsewhere.  With the external field it
# breaks the 6x5 rectangle's parity classes into 7 and 5 runs of equal
# threshold rows, and sites of one degree into rows of different thresholds.
MIXED_BOUNDARY = {**{(-3, y): "-" for y in range(-2, 4)},
                  **{(x, 4): "+" for x in (-2, -1, 0)},
                  (3, 0): "-", (3, 1): "-", (1, -3): "+"}


# at beta = +-9 thresholds reach 0 and 2^24, the constant terms of the count
@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, -0.4, 9.0, -9.0])
@pytest.mark.parametrize("model_of", [lambda b: ising_rect(5, 3, b, "plus"),
                                      lambda b: ising_rect(4, 5, b, "minus"),
                                      lambda b: ising_rect(5, 4, b, "free"),
                                      lambda b: ising_rect(4, 4, b, "plus", 0.3),
                                      lambda b: ising_model(L_SHAPE, b, "free"),
                                      lambda b: ising_segment(9, b, "minus"),
                                      lambda b: ising_rect(6, 5, b, MIXED_BOUNDARY, 0.5)],
                         ids=["rectangle", "minus-rectangle", "free-rectangle", "field-rectangle",
                              "L-shape", "segment", "mixed-rectangle"])
def test_heat_bath_matches_float32_reference_bit_for_bit(model_of, beta, monkeypatch):
    model = model_of(beta)
    # every volume here is below the pool's threshold; pooled, four chunks
    # cross the window of in-flight chunks on a 2-core machine, so a chunk
    # yielded out of order or dropped shows
    # n = 7 on the 5x3 rectangle draws an odd number of halves for its 7-row
    # class, so `_halves` carries half a word into the next class's draw
    window = ()
    if model.name == "ising[5x3]_b1_plus":
        monkeypatch.setattr(models, "POOL_MIN_ROWS", 0)
        window = (3 * CHUNK + 5,)
    for starts, frozen in _leg_sets(model.n_sites // 2, (0, 1)):
        for n in (1, 7, CHUNK + 1) + window:
            got = _kernel_legs(model, n, 3, 100 + n, starts, frozen)
            want = reference_heat_bath(model, n, 3, 100 + n, starts, frozen)
            assert np.array_equal(got, want), (starts, frozen, n)


# plus, minus, free, dict and h = 0.3 boundaries, beta < 0, a segment, the
# pinned pair and the all-minus leg, at chunk sizes that leave every chunk
# and class an odd number of halves
@pytest.mark.parametrize("chunk", [333, 1001])
@pytest.mark.parametrize("model", [ising_rect(6, 5, 1.0, "plus"), ising_rect(6, 5, 1.0, "minus"),
                                   ising_rect(5, 4, 0.7, "free"),
                                   ising_rect(6, 5, 0.6, MIXED_BOUNDARY, 0.3),
                                   ising_rect(4, 5, 1.0, "plus", 0.3),
                                   ising_rect(5, 5, -0.4, "plus"), ising_segment(7, 0.8, "plus")],
                         ids=lambda m: m.name)
def test_heat_bath_at_odd_chunk_sizes_matches_the_reference(model, chunk, monkeypatch):
    monkeypatch.setattr(models, "CHUNK", chunk)
    monkeypatch.setattr(models, "POOL_MIN_ROWS", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for starts, frozen in _leg_sets(0, (1, 0)):
        got = _kernel_legs(model, 2500, 3, chunk, starts, frozen)
        want = reference_heat_bath(model, 2500, 3, chunk, starts, frozen, chunk=chunk)
        assert np.array_equal(got, want), (starts, frozen)


@pytest.mark.parametrize("model", [ising_rect(5, 3, 0.4, "plus"), ising_rect(4, 5, 1.0, "minus"),
                                   ising_rect(5, 4, 0.7, "free"),
                                   ising_rect(6, 5, 0.6, MIXED_BOUNDARY, 0.3),
                                   ising_rect(4, 4, 1.0, "plus", 0.3), ising_model(L_SHAPE, 0.5)],
                         ids=lambda m: m.name)
def test_grand_coupling_legs_stay_ordered_after_every_sweep(model):
    # a run of s sweeps replays the first s sweeps of a longer one on the
    # same uniforms, so each s shows the legs after sweep s; they start
    # apart everywhere and must meet in some replicas
    met = []
    for sweeps in range(13):
        top, bottom = _kernel_legs(model, 1500, sweeps, 21, (1, 0))
        assert (top >= bottom).all(), sweeps
        met.append(int((top == bottom).all(axis=0).sum()))
    assert met[0] == 0 and met == sorted(met) and met[-1] > 0


@pytest.mark.parametrize("side", [8, 16])
@pytest.mark.parametrize("boundary", ["plus", "minus"])
def test_plus_and_minus_plans_have_one_threshold_run_per_class(side, boundary):
    # every edge and corner row joins the interior's run, so a class step
    # makes deg + 1 = 5 compare calls, pinned pair or not
    model = ising_rect(side, side, 1.0, boundary)
    for pinned in (None, 0):
        assert [len(runs) for runs in _plan(model, pinned).runs] == [1, 1]
    # a free boundary's edges keep their own runs
    assert all(len(runs) > 1 for runs in _plan(ising_rect(side, side, 1.0, "free"), None).runs)


def test_a_row_shifted_by_one_more_ghost_fails_the_reference(monkeypatch):
    # a free corner's thresholds are the interior's shifted by one, so it
    # takes one plus-ghost slot and keeps one 0-ghost slot; pointing that
    # slot at the plus ghost too adds 1 to its count, which the reference
    # must catch
    model = ising_rect(5, 4, 1.0, "free")
    plan = _plan(model, None)
    m = model.n_sites
    shifted = [r for r in range(m) if {m, m + 1} <= set(plan.nbr[r].tolist())]
    assert shifted
    nbr = plan.nbr.copy()
    r = shifted[0]
    nbr[r, nbr[r].tolist().index(m)] = m + 1
    monkeypatch.setattr(models, "_plan", lambda *args: plan._replace(nbr=nbr))
    got = _kernel_legs(model, 700, 3, 5)
    assert not np.array_equal(got, reference_heat_bath(model, 700, 3, 5))


def _two_batch_stream(reduce):
    """A pooled stream of two kernel batches, of 3 chunks and of 2 chunks,
    the last one short."""
    return stream([_heat_bath(ising_rect(5, 3, 1.0, "plus"), 3 * CHUNK, 3, 1, reduce=reduce),
                   _heat_bath(ising_rect(4, 4, 0.5, "minus"), CHUNK + 5, 3, 2, reduce=reduce)])


def test_stream_closed_early_cancels_its_jobs_and_joins_its_threads(monkeypatch):
    # two batches on one stream: dropping the iterators after the first
    # chunk, from another thread, cancels the queued jobs of both and joins
    # every worker
    monkeypatch.setattr(models, "POOL_MIN_ROWS", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ran = []

    def record(legs):
        ran.append(legs)
        return legs[0].shape[1]

    before = threading.active_count()
    held = [_two_batch_stream(record)]
    assert next(held[0][0]) == CHUNK
    closer = threading.Thread(target=held.clear)
    closer.start()
    closer.join(timeout=30)
    assert not closer.is_alive()
    assert threading.active_count() == before
    # the first chunk, and at most the workers + 1 jobs in flight beyond it
    assert len(ran) <= 1 + 3 < 5


def test_stream_joins_its_threads_once_its_last_batch_is_read(monkeypatch):
    # the list of iterators stays referenced: reading the last one to its
    # end is what ends the stream
    monkeypatch.setattr(models, "POOL_MIN_ROWS", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = threading.active_count()
    parts = _two_batch_stream(lambda legs: legs[0].shape[1])
    assert list(parts[0]) == [CHUNK] * 3
    assert threading.active_count() > before  # the second batch is in flight
    assert list(parts[1]) == [CHUNK, 5]
    assert threading.active_count() == before
    assert len(parts) == 2


def test_a_bad_model_in_any_batch_raises_before_a_thread_starts(monkeypatch):
    # a Gibbs model given by its terms alone has no neighbor tables
    monkeypatch.setattr(models, "POOL_MIN_ROWS", 0)
    generic = GibbsModel(segment_sites(2), [((0, 1), np.eye(2))], beta=0.5)
    good = ising_rect(5, 3, 1.0, "plus")
    g = magnetization(good.sites)
    before = threading.active_count()
    with pytest.raises(ConfigError):
        stream([observable_batch(good, g, 3 * CHUNK, 3, 1),
                observable_batch(generic, magnetization(generic.sites), 10, 3, 2)])
    assert threading.active_count() == before


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_ordered_map_reads_at_most_workers_plus_one_items_ahead(cores, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    read = []

    def items():
        for i in range(12):
            read.append(i)
            yield i

    ahead = 0 if cores == 1 else cores + 1
    results = ordered_map(lambda i: i * i, items())
    assert read == []  # nothing is read before the first result is asked for
    for j, value in enumerate(results):
        assert value == j * j
        assert len(read) == min(12, j + 1 + ahead)


@pytest.mark.parametrize("side, pooled", [(8, False), (16, True)])
def test_heat_bath_pools_only_from_pool_min_rows(side, pooled, monkeypatch):
    # 8x8 has 32 rows per parity class, 16x16 has 128: the pool pays only
    # on the larger volume
    assert (side * side // 2 >= models.POOL_MIN_ROWS) == pooled
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(models, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    model = ising_rect(side, side, 0.3)
    glauber_batch(model, magnetization(model.sites), 2 * CHUNK, 1, seed=3)
    assert len(pools) == pooled


def test_importing_spinconc_leaves_openblas_on_one_thread():
    # spinconc's pools take the cores; a threaded OpenBLAS beside them wakes a
    # helper thread that competes with the pool.  A fresh interpreter, with no
    # thread setting in its environment, sees the import alone.
    if "openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy is not built against OpenBLAS")
    assert numpy_openblas("get_num_threads") is not None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root]
                                        + env.get("PYTHONPATH", "").split(os.pathsep))
    code = ("import spinconc.models\n"
            "from tests.oracles import numpy_openblas\n"
            "print(numpy_openblas('get_num_threads')())")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) == 1


def test_sampler_working_memory_is_one_chunk_per_worker():
    # a tail batch keeps up to one chunk of replicas per job in flight and
    # the mean batch's 8 bytes per replica of 0.2 n_samples, and counts the
    # main batch chunk by chunk: about 2.3 bytes per replica on 4x4.  The
    # peak may grow by at most 16 bytes for each replica added.  The chunks'
    # fixed memory grows with the volume and, on 16x16, still sets the peak
    # at 3.2e5 replicas; on 4x4 the per-replica arrays set it from 8e4 up,
    # so a regression of 16 bytes per replica shows.  The path statistic is
    # read the same way, chunk by chunk, so it meets the same bound.
    model = ising_rect(4, 4, 1.0)
    sizes = (80_000, 320_000)
    for g in (magnetization(model.sites), ell_observable(model.sites, 4, 4, 0.9)):
        peaks = []
        for n in sizes:
            tracemalloc.start()
            try:
                empirical_tail(model, g, [0.1, 0.5], n, 1, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 16 * (sizes[1] - sizes[0]), g.name


def test_glauber_batch_rejects_what_it_cannot_sample():
    # a Gibbs model given by its terms alone has no neighbor tables
    generic = GibbsModel(segment_sites(2), [((0, 1), np.eye(2))], beta=0.5)
    with pytest.raises(ConfigError):
        glauber_batch(generic, magnetization(generic.sites), 10, 5, seed=1)
    # the kernel refuses when called, before its pool starts a thread
    before = threading.active_count()
    with pytest.raises(ConfigError):
        _heat_bath(generic, 10, 5, seed=1)
    assert threading.active_count() == before


def test_boundary_symbol_outside_the_alphabet_is_a_config_error():
    with pytest.raises(ConfigError) as exc:
        ising_model(rect_sites(2, 2), 0.3, {(-1, 0): "x"})
    message = str(exc.value)
    assert all(part in message for part in ("(-1, 0)", "'x'", "'+'", "'-'"))


def test_magnetization_increasing_in_beta():
    means = []
    for beta in (0.1, 0.3, 0.5, 0.8):
        joint = exact_joint(ising_rect(3, 3, beta, "plus"))
        g = magnetization(rect_sites(3, 3))
        means.append(joint.expectation(joint.function_table(g)))
    assert all(b > a - 1e-12 for a, b in zip(means, means[1:]))


def test_rotation_invariance_3x3_plus():
    beta = 0.45
    model = ising_rect(3, 3, beta, "plus")
    joint = exact_joint(model)
    sites = model.sites
    rot = {s: (-s[1], s[0]) for s in sites}  # 90 degree rotation fixes the box
    perm = [sites.index(rot[s]) for s in sites]
    g = total_spin(sites)
    table = joint.function_table(g)
    for idx in itertools.product(range(2), repeat=9):
        rotated = tuple(idx[perm[i]] for i in range(9))
        assert joint.probs[idx] == pytest.approx(joint.probs[rotated], rel=1e-10)
    del table


def test_dobrushin_influence_ising():
    beta = 0.2
    model = ising_rect(3, 3, beta, "free")
    data = dobrushin_matrix(model)

    def f(s):
        return 1.0 / (1.0 + exp(-2 * beta * s))

    # interior site: the y-flip moves the neighbor sum by 2; remaining three
    # neighbors range over all patterns, the best is the steepest one
    want = max(abs(f(s + 1) - f(s - 1)) for s in (-3, -1, 1, 3))
    center = model.sites.index((0, 0))
    nbr = model.sites.index((1, 0))
    assert data.influence_tv[center, nbr] == pytest.approx(want, rel=1e-10)
    # Dobrushin's coefficient: the center's four neighbors, each at `want`
    assert data.row_sum_max == pytest.approx(4 * want, rel=1e-10)
    assert data.row_sum_max == pytest.approx(0.760, abs=5e-4)
    assert data.influence_tv[center, model.sites.index((1, 1))] == 0.0
    # at beta = 0.15 on a 2x2 volume every row sum stays below 1
    small = dobrushin_matrix(ising_rect(2, 2, 0.15, "plus"))
    assert small.row_sum_max < 1


def test_site_influence_p_values():
    beta = 0.1
    model = ising_rect(3, 3, beta, "plus")
    data = dobrushin_matrix(model)

    def f(s):
        return 1.0 / (1.0 + exp(-2 * beta * s))

    # interior site: neighbor sums range over [-4, 4]
    assert data.p_tv.max() == pytest.approx(f(4) - f(-4), rel=1e-10)
    assert 2 * data.p_sup_tv == pytest.approx(2 * (f(4) - f(-4)), rel=1e-10)
    assert data.p_sup_tv < SITE_PERCOLATION_PC_2D
    # the doubled convention exceeds the percolation threshold even here
    assert 2 * data.p_sup_tv > SITE_PERCOLATION_PC_2D


# a marginal, an initial law or a transition row that is not a law: the
# exact joint and the exact sampler would read it differently
@pytest.mark.parametrize("build", [
    lambda: ProductModel(segment_sites(2), [[0.5, 0.5], [1.25, -0.25]]),
    lambda: iid_spins(4, 1.5),
    lambda: MarkovChainModel(4, [0.3, 0.3], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: MarkovChainModel(4, [1.2, -0.2], [[0.5, 0.5], [0.5, 0.5]]),
    lambda: MarkovChainModel(4, [0.5, 0.5], [[1.5, -0.5], [0.5, 0.5]]),
], ids=["negative-marginal", "p_plus-above-one", "initial-sum", "negative-initial",
        "negative-transition"])
def test_product_and_chain_models_refuse_laws_that_are_not_laws(build):
    with pytest.raises(ValueError):
        build()


def test_product_and_chain_models_take_probabilities_zero_and_one():
    product = exact_joint(iid_spins(3, 1.0))
    assert product.probs[1, 1, 1] == 1.0
    chain = exact_joint(MarkovChainModel(3, [0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]))
    assert chain.probs[1, 1, 1] == 1.0


def test_model_from_config_roundtrip():
    m1 = model_from_config({"kind": "ising", "volume": [2, 3], "beta": 0.5,
                            "boundary": "minus"})
    assert m1.n_sites == 6 and m1.name == "ising[2x3]_b0.5_minus"
    m2 = model_from_config({"kind": "ising", "volume": {"segment": 5}, "beta": 0.2})
    assert m2.n_sites == 5
    m3 = model_from_config({"kind": "iid", "n_sites": 4, "p_plus": 0.3})
    assert isinstance(m3, ProductModel)
    m4 = model_from_config({"kind": "markov", "n_sites": 3,
                            "initial": [0.5, 0.5],
                            "transition": [[0.9, 0.1], [0.2, 0.8]]})
    assert isinstance(m4, MarkovChainModel)
    with pytest.raises(ConfigError):
        model_from_config({"kind": "ising", "beta": 0.1})
    with pytest.raises(ConfigError):
        model_from_config({"kind": "mystery"})
