import itertools
import tracemalloc
from math import exp

import numpy as np
import pytest

from spinconc.errors import (
    CapacityError,
    ConfigError,
    DegenerateConditioningError,
)
from spinconc.fields import (
    SPIN,
    Alphabet,
    LocalFunction,
    magnetization,
    pair_product,
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
    single_site_conditional,
    _heat_bath,
    _uniforms24,
)

from .oracles import ising_weight, reference_heat_bath


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
    center = (0, 0)
    assignment = {s: "+" for s in model.sites if s != center}
    p = single_site_conditional(model, center, assignment)
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


def test_capacity_guard():
    with pytest.raises(CapacityError):
        exact_joint(iid_spins(25), cap=2**20)


@pytest.mark.parametrize("alphabet, n", [(SPIN, 13),
                                         (Alphabet(("a", "b", "c"), (0.0, 0.5, 2.0)), 9)],
                         ids=["spin-13", "three-symbol-9"])
def test_function_table_matches_per_configuration_values(alphabet, n):
    sites = segment_sites(n)
    k = alphabet.size
    joint = exact_joint(ProductModel(sites, np.full((n, k), 1.0 / k), alphabet))
    picked = (sites[5], sites[1], sites[3])  # out of enumeration order
    loop_only = LocalFunction("mixed", picked, lambda v: v[0] - 2.0 * v[1] + v[2] ** 2)
    for g in (total_spin(sites), loop_only):
        table = joint.function_table(g)
        axes = [sites.index(s) for s in g.sites]
        for config in itertools.product(range(k), repeat=n):
            if sum(config) % 7:  # a spread-out subset keeps the loop short
                continue
            want = g.fn(tuple(alphabet.values[config[a]] for a in axes))
            assert table[config] == want


def test_heat_bath_detailed_balance():
    model = ising_rect(2, 2, 0.6, "plus")
    logw = model.log_weight_table()
    rng = np.random.default_rng(3)
    for _ in range(20):
        cfg = list(rng.integers(0, 2, size=4))
        i = int(rng.integers(4))
        p = model.site_conditional(i, cfg)
        for a in range(2):
            for b in range(2):
                ca, cb = list(cfg), list(cfg)
                ca[i], cb[i] = a, b
                lhs = exp(logw[tuple(ca)]) * p[b]
                rhs = exp(logw[tuple(cb)]) * p[a]
                assert lhs == pytest.approx(rhs, rel=1e-10)


def test_glauber_matches_exact_mean_3x3():
    beta = 0.4
    model = ising_rect(3, 3, beta, "plus")
    joint = exact_joint(model)
    g = magnetization(model.sites)
    exact_mean = joint.expectation(joint.function_table(g))
    samples = glauber_batch(model, 4000, 60, seed=11)
    vals = g.eval_batch(samples)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact_mean) < 3 * se + 1e-3


def test_glauber_batch_deterministic():
    model = ising_rect(3, 3, 0.4, "plus")
    a = glauber_batch(model, 50, 10, seed=5)
    b = glauber_batch(model, 50, 10, seed=5)
    assert np.array_equal(a, b)
    c = glauber_batch(model, 50, 10, seed=6)
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
    vals = g.eval_batch(glauber_batch(model, 4000, 60, seed=11))
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact_mean) < 3 * se


@pytest.mark.parametrize("model", [
    MarkovChainModel(6, np.array([0.9, 0.1]), np.array([[0.7, 0.3], [0.2, 0.8]])),
    ProductModel(segment_sites(4), np.array([[0.1, 0.9], [0.5, 0.5], [0.7, 0.3], [0.98, 0.02]])),
], ids=["markov", "product"])
def test_glauber_batch_is_exact_on_product_and_markov(model):
    joint = exact_joint(model)
    samples = glauber_batch(model, 20000, sweeps=0, seed=3)
    sites = model.sites
    observables = [single_spin(s) for s in sites]
    observables += [pair_product(x, y) for x, y in zip(sites, sites[1:])]
    for g in observables:
        vals = g.eval_batch(samples[:, [sites.index(s) for s in g.sites]])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - joint.expectation(joint.function_table(g))) < 4 * se


@pytest.mark.parametrize("model", [ising_model(L_SHAPE, 0.4, "plus"), iid_spins(5, 0.3)],
                         ids=["gibbs", "product"])
def test_glauber_batch_prefix_does_not_depend_on_n(model):
    short = glauber_batch(model, 1500, 5, seed=9)
    long = glauber_batch(model, 3000, 5, seed=9)
    assert short.shape == (1500, model.n_sites)
    assert np.array_equal(short[:CHUNK], long[:CHUNK])


def test_uniforms24_continue_the_float32_stream():
    ref, raw = np.random.default_rng(4), np.random.default_rng(4)
    for rng in (ref, raw):
        rng.integers(2, size=3, dtype=np.int8)  # leaves half a word pending
    state = raw.bit_generator.state
    carry = np.array([state["uinteger"]] * state["has_uint32"], dtype=np.uint32)
    assert carry.size == 1
    for n in (3, 5, 0, 8, 1, 1025):
        u, carry = _uniforms24(raw.bit_generator, n, carry)
        assert np.array_equal(u, ref.random(n, dtype=np.float32) * 2.0**24)


def _kernel_legs(model, n, sweeps, seed, start, frozen):
    chunks = list(_heat_bath(model, n, sweeps, seed, start, frozen))
    return np.stack([np.concatenate([legs[k] for _, _, legs in chunks], axis=1)
                     for k in range(len(chunks[0][2]))])


@pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, -0.4])
@pytest.mark.parametrize("model_of", [lambda b: ising_rect(5, 3, b, "plus"),
                                      lambda b: ising_model(L_SHAPE, b, "free"),
                                      lambda b: ising_segment(9, b, "minus")],
                         ids=["rectangle", "L-shape", "segment"])
def test_heat_bath_matches_float32_reference_bit_for_bit(model_of, beta):
    model = model_of(beta)
    for start in ("plus", "minus", "random"):
        for frozen in (None, (model.n_sites // 2, (0, 1))):
            for n in (1, 7, CHUNK + 1):
                got = _kernel_legs(model, n, 3, 100 + n, start, frozen)
                want = reference_heat_bath(model, n, 3, 100 + n, start, frozen)
                assert np.array_equal(got, want), (start, frozen, n)


def test_sampler_working_memory_is_one_chunk():
    model = ising_rect(16, 16, 1.0)
    extra = []
    for n in (2 * CHUNK, 20 * CHUNK):
        tracemalloc.start()
        try:
            out = glauber_batch(model, n, 1, seed=1)
            extra.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
        finally:
            tracemalloc.stop()
    assert extra[1] < extra[0] + 2**18


def test_glauber_batch_rejects_what_it_cannot_sample():
    # a Gibbs model given by its terms alone has no neighbor tables
    generic = GibbsModel(segment_sites(2), [((0, 1), np.eye(2))], beta=0.5)
    with pytest.raises(ConfigError):
        glauber_batch(generic, 10, 5, seed=1)
    with pytest.raises(ConfigError):
        glauber_batch(iid_spins(3), 10, 5, seed=1, start="sideways")


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
    want = 2.0 * max(abs(f(s + 1) - f(s - 1)) for s in (-3, -1, 1, 3))
    center = model.sites.index((0, 0))
    nbr = model.sites.index((1, 0))
    assert data.influence[center, nbr] == pytest.approx(want, rel=1e-10)
    assert data.influence[center, model.sites.index((1, 1))] == 0.0
    assert data.influence_tv[center, nbr] == pytest.approx(want / 2, rel=1e-10)


def test_dobrushin_neumann_series():
    model = ising_rect(2, 2, 0.15, "plus")
    data = dobrushin_matrix(model)
    assert data.condition_ok
    assert data.row_sum_max < 1
    # delta solves (I - C) delta = I up to the truncation tolerance
    m = len(model.sites)
    recon = (np.eye(m) - data.influence) @ data.delta
    assert np.allclose(recon, np.eye(m), atol=1e-10)
    assert (data.delta >= np.eye(m) - 1e-15).all()


def test_site_influence_p_values():
    beta = 0.1
    model = ising_rect(3, 3, beta, "plus")
    data = dobrushin_matrix(model)

    def f(s):
        return 1.0 / (1.0 + exp(-2 * beta * s))

    # interior site: neighbor sums range over [-4, 4]
    assert data.p_tv.max() == pytest.approx(f(4) - f(-4), rel=1e-10)
    assert data.p_raw.max() == pytest.approx(2 * (f(4) - f(-4)), rel=1e-10)
    assert data.p_sup_tv < SITE_PERCOLATION_PC_2D
    # the doubled convention exceeds the percolation threshold even here
    assert data.p_sup_raw > SITE_PERCOLATION_PC_2D


def test_sample_exact_joint_frequencies():
    model = iid_spins(3, 0.75)
    joint = exact_joint(model)
    draws = joint.sample(20000, seed=9)
    freq_plus = (draws == 1).mean(axis=0)
    assert np.allclose(freq_plus, 0.75, atol=0.02)


def test_model_from_config_roundtrip():
    m1 = model_from_config({"kind": "ising", "volume": [2, 3], "beta": 0.5,
                            "boundary": "minus"})
    assert m1.n_sites == 6 and m1.boundary_label == "minus"
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


def test_config_rows_export():
    joint = exact_joint(iid_spins(2, 0.5))
    rows = list(joint.config_rows())
    assert len(rows) == 4
    assert rows[0][0] == "--"
    assert sum(p for _, p in rows) == pytest.approx(1.0)
