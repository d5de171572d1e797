import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinconc import bounds
from spinconc.bounds import (
    BoundReport,
    BoundRow,
    OrliczSpec,
    classify_tail_row,
    profile_moment_bound,
    exponential_bound,
    luxembourg_norm,
    martingale_decomposition,
    moment_bound,
    operator_norm_l2,
    orlicz_chebyshev_bound,
    profile_norm_bound,
    report_from_json,
    riemann_zeta,
    stretched_bound,
    variance_bound,
)
from spinconc.coupling import coupling_rows_all, envelope_and_moment_matrices
from spinconc.fields import SPIN, Alphabet, delta_vector, magnetization, total_spin
from spinconc.lattice import segment_sites
from spinconc.models import (ExactJoint, GibbsModel, MarkovChainModel, ProductModel,
                             exact_joint, ising_rect)
from spinconc.verify import (_TOLERANCES, _observable_rows, backbone_check,
                             battery_functions, battery_models)

from tests.oracles import (dict_joint, naive_increments, reference_backbone,
                           reference_central_moment, reference_decomposition,
                           reference_decomposition_errors, reference_moment_row,
                           reference_tail)


def _random_joint(m, seed, zero_slab=False):
    rng = np.random.default_rng(seed)
    probs = rng.random((2,) * m) ** 2 + 1e-3
    if zero_slab:
        probs[0] = 0.0  # first coordinate forced to symbol 1
    probs /= probs.sum()
    return ExactJoint(sites=segment_sites(m), alphabet=SPIN, probs=probs)


# ---------------------------------------------------------------------------
# martingale decomposition
# ---------------------------------------------------------------------------

def test_increments_match_dictionary_oracle():
    joint = _random_joint(4, seed=11)
    g = total_spin(joint.sites)
    dec = martingale_decomposition(joint, g)
    vals = joint.alphabet.values

    def g_of(cfg):
        return sum(vals[c] for c in cfg)

    for cfg, vs in naive_increments(dict_joint(joint), g_of, 4):
        for i, v in enumerate(vs):
            assert abs(np.broadcast_to(dec.increments[i], joint.probs.shape)[cfg] - v) < 1e-10


def test_decomposition_identities_gibbs():
    joint = exact_joint(ising_rect(2, 2, beta=0.5, boundary="plus"))
    g = magnetization(joint.sites)
    dec = martingale_decomposition(joint, g)
    assert dec.telescoping_error() < 1e-10
    assert dec.conditional_mean_error() < 1e-10
    assert dec.orthogonality_error() < 1e-10


def test_decomposition_handles_zero_mass_prefixes():
    joint = _random_joint(3, seed=5, zero_slab=True)
    g = total_spin(joint.sites)
    dec = martingale_decomposition(joint, g)
    for v in dec.increments:
        assert np.isfinite(v).all()
    assert dec.telescoping_error() < 1e-10
    assert dec.conditional_mean_error() < 1e-10


def test_last_increment_reaches_g():
    # after conditioning on everything, E[g | all coordinates] == g
    joint = _random_joint(3, seed=7)
    g = total_spin(joint.sites)
    dec = martingale_decomposition(joint, g)
    partial = sum(dec.increments) + dec.mean
    on_support = dec.support
    assert np.allclose(partial[on_support], dec.g_table[on_support], atol=1e-12)


# every battery model; a 2^16-state joint; a prefix of probability zero at
# the first coordinate; a chain that never leaves minus, whose
# zero-probability prefixes sit under positive-mass pasts
_REFERENCE_JOINTS = {m.name: (lambda m=m: exact_joint(m)) for m in battery_models(101)}
_REFERENCE_JOINTS.update({
    "ising[4x4]_b0.2_plus": lambda: exact_joint(ising_rect(4, 4, 0.2, "plus")),
    "zero-mass-prefix": lambda: _random_joint(3, seed=5, zero_slab=True),
    "absorbing-markov-6": lambda: exact_joint(
        MarkovChainModel(6, [0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]])),
})


@pytest.mark.parametrize("name", list(_REFERENCE_JOINTS))
def test_decomposition_and_backbone_match_the_dense_reference_bit_for_bit(name):
    joint = _REFERENCE_JOINTS[name]()
    values = [coupling_rows_all(joint, i).value for i in range(joint.n_sites)]
    for g in battery_functions(joint):
        dec = martingale_decomposition(joint, g)
        want = reference_decomposition(joint, dec.g_table, dec.mean)
        assert len(dec.increments) == len(want)
        for i, (v, w) in enumerate(zip(dec.increments, want)):
            assert v.shape == (joint.k,) * (i + 1) + (1,) * (joint.n_sites - i - 1)
            dense = np.where(dec.support, np.broadcast_to(v, joint.probs.shape), 0.0)
            assert np.array_equal(dense, w), (g.name, i)
            assert not v.reshape(-1)[joint.prefix_marginal(i).reshape(-1) == 0.0].any()
        telescoping, cond_mean, ortho = reference_decomposition_errors(
            joint, dec.g_table, dec.mean, want)
        assert dec.telescoping_error() == telescoping, g.name
        # both martingale checks sum on prefix grids, in another order than
        # the dense formulas: equal to rounding, and both read about 1e-15
        assert dec.conditional_mean_error() == pytest.approx(cond_mean, rel=0, abs=1e-14)
        assert dec.orthogonality_error() == pytest.approx(ortho, rel=0, abs=1e-14)
        per_site = delta_vector(g, joint.sites, joint.alphabet).per_site
        assert (backbone_check(dec, [v @ per_site for v in values])
                == reference_backbone(joint, want, values, per_site)), g.name


# MarkovChainModel is binary only; these bring a third symbol, with
# centered levels of both signs
_THREE_SYMBOLS = Alphabet(("a", "b", "c"), (-1.0, 0.5, 2.0))
_MOMENT_JOINTS = {
    **_REFERENCE_JOINTS,
    "three-symbol-product-6": lambda: exact_joint(ProductModel(
        segment_sites(6), np.random.default_rng(3).dirichlet(np.ones(3), size=6),
        _THREE_SYMBOLS)),
    "three-symbol-chain-5": lambda: exact_joint(GibbsModel(
        segment_sites(5),
        [((i, i + 1), np.random.default_rng(i).normal(size=(3, 3))) for i in range(4)],
        0.8, _THREE_SYMBOLS)),
}


@pytest.mark.parametrize("name", list(_MOMENT_JOINTS))
def test_moment_matrices_match_the_pow_formulas_bit_for_bit_and_moment_rows_to_rounding(name):
    joint = _MOMENT_JOINTS[name]()
    bands = [coupling_rows_all(joint, i) for i in range(joint.n_sites)]
    # the battery's orders, and the odd ones a coupling-matrix config may ask for
    moment = envelope_and_moment_matrices(joint, (1, 2, 3, 4, 6)).moment
    for p in (1, 2, 3, 4, 6):
        want = np.array([reference_moment_row(b.past_mass, b.value, p) for b in bands])
        assert np.array_equal(moment[p], want), p
    labels = {"variance": 2, "moment_p1": 2, "moment_p2": 4, "moment_p3": 6}
    for g in battery_functions(joint):
        dv = delta_vector(g, joint.sites, joint.alphabet)
        rhs = [b.value @ dv.per_site for b in bands]
        rows = _observable_rows(SimpleNamespace(name=name), joint, g, dv, rhs, 1.0,
                                {2: 1.0, 4: 1.0, 6: 1.0}, 2)
        observed = {r.bound: r.observed for r in rows if r.bound in labels}
        dec = martingale_decomposition(joint, g)
        # the rows sum each level of the law apart, then across levels: the
        # largest relative change seen on these joints is 4.1e-16
        assert observed == {label: pytest.approx(
            reference_central_moment(joint, dec.g_table, dec.mean, q), rel=2e-15, abs=0)
            for label, q in labels.items()}, g.name


# the exact benchmark workload's 4x4 volumes, where a level's weight sums
# up to 2^16 configurations
_LAW_JOINTS = {
    **_MOMENT_JOINTS,
    "ising[4x4]_b0.1_plus": lambda: exact_joint(ising_rect(4, 4, 0.1, "plus")),
    "ising[4x4]_b0.25_free": lambda: exact_joint(ising_rect(4, 4, 0.25, "free")),
}


@pytest.mark.parametrize("name", list(_LAW_JOINTS))
def test_law_tails_and_moments_match_exactly_rounded_sums(name):
    # math.fsum over the joint is the tail and the moment to within one
    # rounding of each term.  The law sums each level pairwise: 2.2e-16 on
    # the tails and 3.7e-16 on the moments.  Summing each level in order, as
    # np.bincount(where, probs) does, misses by up to 2.6e-13 on the 4x4 volumes
    joint = _LAW_JOINTS[name]()
    for g in battery_functions(joint):
        table = joint.function_table(g)
        mean = joint.expectation(table)
        levels, weights = joint.law(table, mean)
        distance = np.abs(table - mean)
        assert np.array_equal(levels, np.unique(table - mean)), g.name
        for t in np.abs(levels):
            want = math.fsum(joint.probs[distance >= t])
            assert abs(joint.exact_tail(table, t) - want) <= 1e-14, (g.name, t)
        for q in (2, 4, 6):
            want = math.fsum((joint.probs * distance ** q).reshape(-1))
            assert float(weights @ levels ** q) == pytest.approx(want, rel=1e-14, abs=0), \
                (g.name, q)


@pytest.mark.parametrize("name", list(_MOMENT_JOINTS))
def test_exact_tail_matches_the_full_table_formula_on_broadcast_and_full_tables(name):
    joint = _MOMENT_JOINTS[name]()
    for g in battery_functions(joint):
        table = joint.function_table(g)
        full = np.array(table)
        assert 0 not in full.strides
        for t in np.unique(np.abs(full - joint.expectation(full))):
            want = reference_tail(joint, full, t)
            assert abs(joint.exact_tail(table, t) - want) <= 1e-15, (g.name, t)
            assert abs(joint.exact_tail(full, t) - want) <= 1e-15, (g.name, t)


@pytest.mark.parametrize("name", list(_MOMENT_JOINTS))
def test_tail_grid_ends_at_the_largest_level_of_positive_probability(name, monkeypatch):
    # t_max is the largest |g - Eg| on the support, bit for bit.  A bound of
    # 0 at t_max and 1 below it makes the grid's worst gap the tail at t_max
    joint = _MOMENT_JOINTS[name]()
    bands = [coupling_rows_all(joint, i) for i in range(joint.n_sites)]
    unmasked = []
    for g in battery_functions(joint):
        dec = martingale_decomposition(joint, g)
        distance = np.abs(dec.g_table - dec.mean)
        t_max = float(distance[dec.support].max())
        unmasked.append(float(distance.max()) > t_max)
        monkeypatch.setattr(bounds, "exponential_bound",
                            lambda t, *_: 0.0 if t == t_max else 1.0)
        dv = delta_vector(g, joint.sites, joint.alphabet)
        rows = _observable_rows(SimpleNamespace(name=name), joint, g, dv,
                                [b.value @ dv.per_site for b in bands], 1.0,
                                {2: 1.0, 4: 1.0, 6: 1.0}, 3)
        grid = next(r for r in rows if r.bound == "tail_exponential_grid")
        assert grid.params["t_max"] == t_max, g.name
        assert abs(grid.observed - reference_tail(joint, dec.g_table, t_max)) <= 1e-15
    # here total_spin and spin(0,) take their largest |level| only where the
    # joint has no mass
    assert unmasked == ([True, True, False, False] if name == "zero-mass-prefix"
                        else [False] * 4)


@pytest.mark.parametrize("name", list(_MOMENT_JOINTS))
def test_martingale_checks_match_the_dense_formulas_on_any_prefix_increments(name):
    # random prefix-shaped arrays, zero on zero-mass prefixes, in place of the
    # increments: both errors then read O(1) values, which the prefix-grid
    # sums must reproduce to rounding
    joint = _MOMENT_JOINTS[name]()
    m, k = joint.n_sites, joint.k
    rng = np.random.default_rng(24)
    increments = []
    for i in range(m):
        v = rng.normal(size=(k,) * (i + 1) + (1,) * (m - i - 1))
        v[joint.prefix_marginal(i).reshape(v.shape) == 0.0] = 0.0
        increments.append(v)
    dec = dataclasses.replace(martingale_decomposition(joint, total_spin(joint.sites)),
                              increments=increments)
    dense = np.array([np.broadcast_to(v, joint.probs.shape) for v in increments])
    _, cond_mean, ortho = reference_decomposition_errors(joint, dec.g_table, dec.mean, dense)
    assert min(cond_mean, ortho) > 1e-3
    assert dec.conditional_mean_error() == pytest.approx(cond_mean, rel=1e-12, abs=0)
    assert dec.orthogonality_error() == pytest.approx(ortho, rel=1e-12, abs=0)
    # one pair (i, m - 1) at a time, so that a slip at any depth of the sums
    # over later coordinates cannot hide behind the largest pair
    for i in range(m - 1):
        pair = [v if a in (i, m - 1) else np.zeros_like(v) for a, v in enumerate(increments)]
        want = abs(float((joint.probs * dense[i] * dense[m - 1]).sum()))
        got = dataclasses.replace(dec, increments=pair).orthogonality_error()
        assert got == pytest.approx(want, rel=1e-12, abs=0), i


def _pair_by_pair_errors(dec):
    """(conditional mean, orthogonality) errors by the loops these checks
    had before the orthogonality check stacked its pairs: one
    `.reshape(-1, k).sum(axis=1)` per past sum and one `.sum()` per pair."""
    joint, k = dec.joint, dec.joint.k

    def past_sums(j):
        weighted = joint.prefix_marginal(j).reshape(-1) * dec.increments[j].reshape(-1)
        return weighted.reshape(-1, k).sum(axis=1)

    cond_mean = 0.0
    for i in range(joint.n_sites):
        den = joint.prefix_marginal(i - 1).reshape(-1)
        live = den > 0
        if live.any():
            cond_mean = max(cond_mean, float(np.abs(past_sums(i)[live] / den[live]).max()))
    ortho = 0.0
    for j in range(1, joint.n_sites):
        b = past_sums(j)
        for v in dec.increments[j - 1::-1]:
            ortho = max(ortho, abs(float((v.reshape(-1) * b).sum())))
            b = b.reshape(-1, k).sum(axis=1)
    return cond_mean, ortho


@pytest.mark.parametrize("name", list(_MOMENT_JOINTS))
def test_martingale_checks_equal_their_pair_by_pair_loops_bit_for_bit(name):
    # on the true increments, which read about 1e-16, and on random
    # prefix-shaped ones, which read O(1)
    joint = _MOMENT_JOINTS[name]()
    m, k = joint.n_sites, joint.k
    rng = np.random.default_rng(28)
    increments = []
    for i in range(m):
        v = rng.normal(size=(k,) * (i + 1) + (1,) * (m - i - 1))
        v[joint.prefix_marginal(i).reshape(v.shape) == 0.0] = 0.0
        increments.append(v)
    for g in battery_functions(joint):
        dec = martingale_decomposition(joint, g)
        for d in (dec, dataclasses.replace(dec, increments=increments)):
            assert (d.conditional_mean_error(), d.orthogonality_error()) == \
                _pair_by_pair_errors(d), g.name


def _sabotaged(dec, change):
    """A copy of `dec` whose increments went through `change`, in place."""
    increments = [v.copy() for v in dec.increments]
    change(increments)
    return dataclasses.replace(dec, increments=increments)


@pytest.fixture
def rect_decomposition():
    # 2x3 plus: every configuration has positive probability
    joint = exact_joint(ising_rect(2, 3, 0.5, "plus"))
    dec = martingale_decomposition(joint, total_spin(joint.sites))
    tol = _TOLERANCES["decomposition"]
    assert dec.telescoping_error() < tol
    assert dec.conditional_mean_error() < tol
    assert dec.orthogonality_error() < tol
    return dec, tol


def test_telescoping_fails_when_one_prefix_moves(rect_decomposition):
    dec, tol = rect_decomposition

    def shift(v):
        v[2].reshape(-1)[5] += 1e-3

    assert _sabotaged(dec, shift).telescoping_error() > tol


def test_conditional_mean_fails_when_one_past_moves(rect_decomposition):
    # every child (sigma_{<2}, s) of the past sigma_{<2} = (1, 0) moves alike
    dec, tol = rect_decomposition

    def shift(v):
        v[2].reshape(4, 2)[2] += 1e-3

    assert _sabotaged(dec, shift).conditional_mean_error() > tol


def test_orthogonality_fails_when_an_earlier_increment_leaks(rect_decomposition):
    dec, tol = rect_decomposition

    def leak(v):
        v[4] = v[4] + v[1]

    assert _sabotaged(dec, leak).orthogonality_error() > tol


# a break sized to twice the battery's tolerance fails it, and one sized to
# half of it passes: the checks read the break itself, not rounding
@pytest.mark.parametrize("factor, fails", [(2.0, True), (0.5, False)])
def test_orthogonality_reads_a_leak_sized_to_the_tolerance(rect_decomposition,
                                                           factor, fails):
    dec, tol = rect_decomposition
    # E[V_1 (V_4 + c V_1)] = E[V_1 V_4] + c E[V_1^2], and E[V_1 V_4] = 0
    c = factor * tol / float((dec.joint.probs * dec.increments[1] ** 2).sum())

    def leak(v):
        v[4] += c * v[1]

    assert (_sabotaged(dec, leak).orthogonality_error() > tol) == fails


@pytest.mark.parametrize("factor, fails", [(2.0, True), (0.5, False)])
def test_conditional_mean_reads_a_shift_sized_to_the_tolerance(rect_decomposition,
                                                               factor, fails):
    # E[V_2 | sigma_{<2} = (1, 0)] moves from 0 to the shift
    dec, tol = rect_decomposition

    def shift(v):
        v[2].reshape(4, 2)[2] += factor * tol

    assert (_sabotaged(dec, shift).conditional_mean_error() > tol) == fails


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_identity_norm_is_exactly_one():
    for n in (1, 4, 9):
        assert operator_norm_l2(np.eye(n)) == 1.0


def test_rank_one_norm():
    rng = np.random.default_rng(3)
    u = rng.normal(size=7)
    v = rng.normal(size=5)
    a = np.outer(u, v)
    expect = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(operator_norm_l2(a) - expect) <= 1e-9 * expect


def test_diagonal_and_zero_matrices():
    assert operator_norm_l2(np.zeros((4, 4))) == 0.0
    assert abs(operator_norm_l2(np.diag([1.0, -3.0, 2.0])) - 3.0) < 1e-9


def test_norm_matches_svd_on_random_matrices():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
        ref = np.linalg.norm(a, 2)
        assert abs(operator_norm_l2(a) - ref) <= 1e-5 * max(ref, 1e-12)


def test_norm_rejects_non_matrix():
    with pytest.raises(ValueError):
        operator_norm_l2(np.zeros(3))


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_reference_values():
    assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6) < 1e-12
    assert abs(riemann_zeta(4.0) - math.pi ** 4 / 90) < 1e-12
    # Apery's constant
    assert abs(riemann_zeta(3.0) - 1.2020569031595942854) < 1e-12
    assert abs(riemann_zeta(1.5) - 2.612375348685488) < 1e-12


def test_zeta_domain():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)
    with pytest.raises(ValueError):
        riemann_zeta(0.5)


def test_zeta_large_s_tends_to_one():
    assert abs(riemann_zeta(60.0) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Orlicz / Luxembourg
# ---------------------------------------------------------------------------

def test_orlicz_shift():
    assert OrliczSpec(1.0).shift == 0.0
    spec = OrliczSpec(0.5)
    assert abs(spec.shift - 1.0) < 1e-15  # ((1-.5)/.5)^(1/.5) = 1
    # phi(0) = 0 by construction
    assert abs(float(spec.phi(0.0))) < 1e-15


def test_orlicz_convexity_spot():
    spec = OrliczSpec(0.4)
    xs = np.linspace(0.0, 5.0, 41)
    vals = spec.phi(xs)
    mids = spec.phi((xs[:-1] + xs[1:]) / 2.0)
    assert np.all(mids <= (vals[:-1] + vals[1:]) / 2.0 + 1e-12)


def test_luxembourg_constant_variable():
    # |Z| = c with rho = 1: E[exp(c / lam) - 1] = 1  =>  lam = c / ln 2
    for c in (0.5, 1.0, 7.25):
        lam = luxembourg_norm([c], rho=1.0)
        assert abs(lam - c / math.log(2.0)) <= 1e-8 * (c / math.log(2.0))


def test_luxembourg_moment_at_result():
    rng = np.random.default_rng(9)
    z = rng.exponential(size=200)
    lam = luxembourg_norm(z, rho=0.5)
    spec = OrliczSpec(0.5)
    m = float(np.mean(spec.phi(z / lam)))
    assert m <= 1.0 + 1e-12
    assert m >= 1.0 - 1e-6


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_luxembourg_homogeneity(scale):
    z = np.array([0.3, 1.1, 2.4, 0.05])
    base = luxembourg_norm(z, rho=1.0)
    scaled = luxembourg_norm(scale * z, rho=1.0)
    assert abs(scaled - scale * base) <= 1e-6 * scale * base


def test_luxembourg_zero_variable():
    assert luxembourg_norm([0.0, 0.0]) == 0.0


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def test_exponential_bound_closed_form():
    # n = 10 iid signs summed: ||dg||^2 = 40, identity envelope
    delta_l2 = math.sqrt(40.0)
    for t in np.linspace(0.5, 10.0, 20):
        assert abs(exponential_bound(t, 1.0, delta_l2)
                   - 2.0 * math.exp(-t * t / 20.0)) < 1e-15


def test_exponential_bound_degenerate():
    assert exponential_bound(1.0, 0.0, 2.0) == 0.0
    assert exponential_bound(0.0, 0.0, 0.0) == 2.0


def test_variance_and_moment_bounds():
    assert variance_bound(1.5, 2.0) == pytest.approx(9.0)
    assert moment_bound(1, 1.0, 1.0) == pytest.approx(400.0)
    assert moment_bound(2, 0.5, 1.0) == pytest.approx(40.0 ** 4 * 0.5 ** 4)
    with pytest.raises(ValueError):
        moment_bound(0, 1.0, 1.0)


def test_profile_norm_bound_geometric_closed_form():
    # P(ell0 >= j) = e^-j: for p = 1 the tail series sums to 1/(sqrt(e)-1);
    # what j > 120 would add is about 1e-26
    j = np.arange(1, 121)
    tail = np.exp(-j)
    psi = np.exp(-j)
    got = profile_norm_bound(1, tail, psi)
    expect = 1.0 / (math.exp(0.5) - 1.0) + 1.0 / (math.e - 1.0)
    assert abs(got - expect) < 1e-12


def test_prop2_rejects_negative_inputs():
    with pytest.raises(ValueError):
        profile_norm_bound(1, [-0.1], [0.0])


def test_profile_moment_bound_formula():
    p, eps, mom, psi, dl2 = 2, 0.5, 3.0, 0.25, 1.5
    z = riemann_zeta(1.0 + eps / (2 * p - 1))
    bracket = z ** ((2 * p - 1) / (2 * p)) * mom ** (1 / (2 * p)) + psi
    expect = (20.0 * p) ** (2 * p) * bracket ** (2 * p) * dl2 ** (2 * p)
    assert profile_moment_bound(p, eps, mom, psi, dl2) == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        profile_moment_bound(2, 0.0, 1.0, 0.0, 1.0)


def test_polynomial_and_stretched_bounds():
    assert stretched_bound(0.0, 0.5, 1.0, 1.0) == pytest.approx(4.0)
    vals = [stretched_bound(t, 0.5, 0.7, 2.0) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_orlicz_chebyshev_example():
    # at t equal to the norm, rho = 1: bound is 2 / (e - 1)
    lam = 3.7
    got = orlicz_chebyshev_bound(lam, 1.0, lam)
    assert abs(got - 2.0 / (math.e - 1.0)) < 1e-12
    assert orlicz_chebyshev_bound(1.0, 1.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# verdicts and reports
# ---------------------------------------------------------------------------

def _row(**kw):
    base = dict(model="m", function="g", bound="b", params={"t": 1.0},
                theoretical=0.5)
    base.update(kw)
    return BoundRow(**base)


def test_classify_exact():
    assert classify_tail_row(_row(observed=0.4)).verdict == "pass"
    assert classify_tail_row(_row(observed=0.6)).verdict == "fail"


def test_classify_monte_carlo():
    r = classify_tail_row(_row(observed=0.3, observed_lo=0.2, observed_hi=0.45,
                               observed_kind="mc"))
    assert r.verdict == "pass"
    r = classify_tail_row(_row(observed=0.7, observed_lo=0.62, observed_hi=0.8,
                               observed_kind="mc"))
    assert r.verdict == "fail"
    r = classify_tail_row(_row(observed=0.5, observed_lo=0.4, observed_hi=0.62,
                               observed_kind="mc"))
    assert r.verdict == "unresolved"


def _demo_report():
    rep = BoundReport(meta={"seed": 7, "config": "demo"})
    rep.add(classify_tail_row(_row(observed=0.25)))
    rep.add(classify_tail_row(_row(observed=0.9, observed_lo=0.8,
                                   observed_hi=1.0, observed_kind="mc",
                                   bound="other")))
    return rep


def test_report_serialization_is_deterministic():
    a, b = _demo_report(), _demo_report()
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()
    assert "0.25" in a.to_csv()
    parsed = json.loads(a.to_json())
    assert parsed["meta"]["seed"] == 7


def test_report_roundtrip_and_counts():
    rep = _demo_report()
    back = report_from_json(rep.to_json())
    assert back.to_json() == rep.to_json()
    assert rep.n_failures == 1
    assert "1 fail" in rep.summary()
