import itertools
import threading

import numpy as np
import pytest

from spinconc import coupling
from spinconc.coupling import (
    coupled_glauber_disagreement,
    coupling_rows_all,
    envelope_and_moment_matrices,
    joint_atoms,
    kr_distance,
    kr_optimal_coupling,
    maximal_coupling,
    sequential_coupling_sample,
    sequential_coupling_tree,
    transport_cost,
    verify_transport_chain,
)
from spinconc.errors import CapacityError, ConfigError
from spinconc.fields import SPIN, Alphabet, magnetization, single_spin
from spinconc.lattice import rect_sites, segment_sites
from spinconc.models import (
    ExactJoint,
    GibbsModel,
    MarkovChainModel,
    exact_joint,
    iid_spins,
    ising_model,
    ising_rect,
    ising_segment,
)
from spinconc.verify import battery_models

from tests.oracles import naive_tv, reference_coupling_rows, transport_vertex_oracle


# ---------------------------------------------------------------------------
# single-coordinate maximal coupling
# ---------------------------------------------------------------------------

def test_maximal_coupling_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        p = rng.random(k) + 1e-3
        q = rng.random(k) + 1e-3
        p, q = p / p.sum(), q / q.sum()
        c = maximal_coupling(p, q)
        ep, eq = c.marginal_errors()
        assert ep <= 1e-12 and eq <= 1e-12
        assert abs(c.disagreement - naive_tv(p, q)) <= 1e-12
        off_diag = c.table.sum() - np.trace(c.table)
        assert abs(off_diag - c.disagreement) <= 1e-12


def test_maximal_coupling_equal_laws():
    p = np.array([0.25, 0.75])
    c = maximal_coupling(p, p.copy())
    assert c.disagreement == 0.0
    assert np.allclose(c.table, np.diag(p))


# ---------------------------------------------------------------------------
# exact canonical rows, against a dictionary oracle
# ---------------------------------------------------------------------------

def _naive_row(joint, i, prefix):
    """Row i after the tuple `prefix`, from dicts: per future coordinate j, the
    canonical-coupling disagreement (`value`), the TV of the coordinate-j
    marginals (`lower`) and the TV of the futures (`upper`), each the
    maximum over the symbol pairs at i whose futures have positive mass."""
    m, k = joint.n_sites, joint.k
    value, lower, upper = ({j: 0.0 for j in range(i + 1, m)} for _ in range(3))
    if i == m - 1:
        return value, lower, upper  # no future coordinate
    for a, b in itertools.combinations(range(k), 2):
        if min(joint.probs[prefix + (a,)].sum(), joint.probs[prefix + (b,)].sum()) <= 0.0:
            continue
        fut_a = joint.conditional_future(prefix + (a,))
        fut_b = joint.conditional_future(prefix + (b,))
        pa = {idx: float(v) for idx, v in np.ndenumerate(fut_a.probs)}
        pb = {idx: float(v) for idx, v in np.ndenumerate(fut_b.probs)}
        mn = {c: min(pa[c], pb[c]) for c in pa}
        resid = 1.0 - sum(mn.values())
        for y in range(m - i - 1):
            j = i + 1 + y
            ma, mb, ra, rb = {}, {}, {}, {}
            for c in pa:
                ma[c[y]] = ma.get(c[y], 0.0) + pa[c]
                mb[c[y]] = mb.get(c[y], 0.0) + pb[c]
                ra[c[y]] = ra.get(c[y], 0.0) + pa[c] - mn[c]
                rb[c[y]] = rb.get(c[y], 0.0) + pb[c] - mn[c]
            if resid > 1e-15:
                agree = sum(ra[s] * rb[s] for s in ra) / resid
                value[j] = max(value[j], resid - agree)
            lower[j] = max(lower[j], 0.5 * sum(abs(ma[s] - mb[s]) for s in ma))
            upper[j] = max(upper[j], resid)
    return value, lower, upper


def _assert_bands_match_dictionary_oracle(joint, rows):
    for i in rows:
        band = coupling_rows_all(joint, i, lower=True)
        for prefix in itertools.product(range(joint.k), repeat=i):
            w = np.ravel_multi_index(prefix, (joint.k,) * i)
            mass = float(joint.probs[prefix].sum())
            assert abs(band.past_mass[w] - mass) < 1e-12
            if mass <= 0.0:
                continue
            naive = _naive_row(joint, i, prefix)
            for name, column in zip(("value", "lower", "upper"), naive):
                for j, v in column.items():
                    assert abs(getattr(band, name)[w, j] - v) < 1e-12, (i, prefix, name, j)


def test_rows_match_dictionary_oracle():
    joint = exact_joint(ising_segment(4, beta=0.7, boundary="plus"))
    _assert_bands_match_dictionary_oracle(joint, range(3))


def test_rows_match_oracle_2d():
    joint = exact_joint(ising_rect(2, 2, beta=0.45, boundary="free"))
    _assert_bands_match_dictionary_oracle(joint, [1])


def _ternary_chain(n: int) -> GibbsModel:
    rng = np.random.default_rng(5)
    terms = [((x, x + 1), rng.normal(size=(3, 3))) for x in range(n - 1)]
    return GibbsModel(segment_sites(n), terms, 0.8, Alphabet(("a", "b", "c"), (0.0, 0.5, 2.0)))


# runs of R = 3^5, 3^4, ... entries are not multiples of 8; the chain that
# never leaves minus has pasts of probability zero
@pytest.mark.parametrize("model", [
    ising_rect(4, 4, 0.2, "plus"),
    ising_rect(2, 3, 0.5, "plus"),
    ising_rect(3, 3, 0.3, "free"),
    _ternary_chain(7),
    MarkovChainModel(6, [0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]]),
], ids=["ising-4x4", "ising-2x3", "ising-3x3", "ternary-chain-7", "absorbing-markov-6"])
def test_bands_match_the_reference_formula_bit_for_bit(model):
    joint = exact_joint(model)
    for i in range(joint.n_sites):
        band = coupling_rows_all(joint, i, lower=True)
        want = reference_coupling_rows(joint, i)
        for name, w in zip(("value", "lower", "upper", "past_mass"), want):
            assert np.array_equal(getattr(band, name), w), (i, name)


# 4x4 is left out: its dictionaries take too long
@pytest.mark.parametrize("model", [
    ising_rect(2, 3, 0.5, "plus"),
    ising_rect(3, 3, 0.3, "free"),
    _ternary_chain(7),
    MarkovChainModel(6, [0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]]),
], ids=["ising-2x3", "ising-3x3", "ternary-chain-7", "absorbing-markov-6"])
def test_bands_match_the_dictionary_oracle(model):
    joint = exact_joint(model)
    _assert_bands_match_dictionary_oracle(joint, range(joint.n_sites))


def _zero_mass_prefix_joint() -> ExactJoint:
    probs = np.random.default_rng(5).random((2,) * 6) ** 2 + 1e-3
    probs[0] = 0.0  # every past that starts with symbol 0 has mass zero
    return ExactJoint(segment_sites(6), SPIN, probs / probs.sum())


# every battery model, the three 4x4 volumes of the benchmark's `exact`
# workload, and a joint with zero-mass pasts
_LOWER_JOINTS = {m.name: (lambda m=m: exact_joint(m)) for m in battery_models(101)}
_LOWER_JOINTS.update({
    f"ising[4x4]_b{beta}_{boundary}": (lambda beta=beta, boundary=boundary:
                                       exact_joint(ising_rect(4, 4, beta, boundary)))
    for beta, boundary in ((0.1, "plus"), (0.2, "plus"), (0.25, "free"))})
_LOWER_JOINTS["zero-mass-prefix"] = _zero_mass_prefix_joint


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


@pytest.mark.parametrize("name", list(_LOWER_JOINTS))
def test_a_band_without_lower_is_the_full_band_bit_for_bit(name):
    joint = _LOWER_JOINTS[name]()
    for i in range(joint.n_sites):
        full = coupling_rows_all(joint, i, lower=True)
        bare = coupling_rows_all(joint, i)
        assert isinstance(full.lower, np.ndarray) and bare.lower is None
        for attr in ("value", "upper", "past_mass"):
            assert _same_bits(getattr(bare, attr), getattr(full, attr)), (i, attr)
    full = envelope_and_moment_matrices(joint, (1, 2, 3, 4, 6), lower=True)
    bare = envelope_and_moment_matrices(joint, (1, 2, 3, 4, 6))
    assert isinstance(full.lower_envelope, np.ndarray) and bare.lower_envelope is None
    assert _same_bits(bare.envelope, full.envelope)
    assert _same_bits(bare.upper_envelope, full.upper_envelope)
    for p in (1, 2, 3, 4, 6):
        assert _same_bits(bare.moment[p], full.moment[p]), p


def test_reading_lower_that_was_not_built_fails():
    joint = exact_joint(ising_rect(2, 3, 0.5, "plus"))
    with pytest.raises(TypeError):
        coupling_rows_all(joint, 1).lower[0, 2]
    with pytest.raises(TypeError):
        envelope_and_moment_matrices(joint).lower_envelope[0, 1]


def test_markov_first_superdiagonal_is_two_q_minus_one():
    for q in (0.8, 0.3, 0.65):
        t = np.array([[q, 1 - q], [1 - q, q]])
        model = MarkovChainModel(5, np.array([0.5, 0.5]), t)
        joint = exact_joint(model)
        sigma = (0, 1, 0, 0, 1)
        for i in range(4):
            row = coupling_rows_all(joint, i).value[np.ravel_multi_index(sigma[:i], (2,) * i)]
            assert abs(row[i + 1] - abs(2 * q - 1)) < 1e-12


def test_matrix_shape_and_bands():
    # row i of each matrix is band i at the past sigma[:i]
    joint = exact_joint(ising_rect(2, 3, beta=0.5, boundary="plus"))
    sigma = (1, 0, 1, 1, 0, 1)
    m = joint.n_sites
    bands = [coupling_rows_all(joint, i, lower=True) for i in range(m)]
    rows = [np.ravel_multi_index(sigma[:i], (2,) * i) for i in range(m)]
    value, lower, upper = (np.array([getattr(b, name)[w] for b, w in zip(bands, rows)])
                           for name in ("value", "lower", "upper"))
    assert np.allclose(np.diag(value), 1.0)
    assert np.allclose(np.tril(value, -1), 0.0)
    assert np.all(lower <= value + 1e-12)
    assert np.all(value <= upper + 1e-12)
    assert value.shape == (m, m)


def test_iid_rows_are_identity():
    joint = exact_joint(iid_spins(5, p_plus=0.6))
    data = envelope_and_moment_matrices(joint, p_orders=(1, 2))
    assert np.allclose(data.envelope, np.eye(5), atol=1e-14)
    assert np.allclose(data.moment[2], np.eye(5), atol=1e-14)


def test_envelope_dominates_and_moments_are_monotone():
    joint = exact_joint(ising_rect(2, 3, beta=0.4, boundary="free"))
    data = envelope_and_moment_matrices(joint, p_orders=(1, 2, 3), lower=True)
    assert np.all(data.moment[1] <= data.moment[2] + 1e-12)
    assert np.all(data.moment[2] <= data.moment[3] + 1e-12)
    assert np.all(data.moment[3] <= data.envelope + 1e-12)
    assert np.all(data.lower_envelope <= data.envelope + 1e-12)
    assert np.all(data.envelope <= data.upper_envelope + 1e-12)
    rng = np.random.default_rng(2)
    bands = [coupling_rows_all(joint, i) for i in range(joint.n_sites)]
    for _ in range(5):
        sigma = tuple(rng.integers(0, 2, size=joint.n_sites))
        for i, band in enumerate(bands):
            row = band.value[np.ravel_multi_index(sigma[:i], (2,) * i)]
            assert np.all(row <= data.envelope[i] + 1e-12)


def test_envelope_from_shared_bands_matches_default():
    joint = exact_joint(ising_rect(2, 3, beta=0.4, boundary="plus"))
    data = envelope_and_moment_matrices(joint, p_orders=(2, 4), lower=True)
    bands = (coupling_rows_all(joint, i, lower=True) for i in range(joint.n_sites))
    shared = envelope_and_moment_matrices(joint, p_orders=(2, 4), bands=bands, lower=True)
    for a, b in [(data.envelope, shared.envelope),
                 (data.lower_envelope, shared.lower_envelope),
                 (data.upper_envelope, shared.upper_envelope),
                 (data.moment[2], shared.moment[2]),
                 (data.moment[4], shared.moment[4])]:
        assert np.array_equal(a, b)


def test_envelope_decays_with_distance():
    joint = exact_joint(ising_segment(6, beta=0.5, boundary="free"))
    env = envelope_and_moment_matrices(joint, p_orders=(1,)).envelope
    row = env[0]
    assert row[1] > row[3] > row[5]


# ---------------------------------------------------------------------------
# sequential quantile coupling: exact recursion and sampler
# ---------------------------------------------------------------------------

def test_tree_legs_are_exact():
    joint = exact_joint(ising_rect(2, 2, beta=0.5, boundary="plus"))
    ja = joint.conditional_future((1,))
    jb = joint.conditional_future((0,))
    tree = sequential_coupling_tree(ja, jb)
    ea, eb = tree.leg_errors(ja, jb)
    assert ea < 1e-12 and eb < 1e-12
    assert np.all(tree.disagree >= -1e-15) and np.all(tree.disagree <= 1.0 + 1e-15)


def test_tree_disagreement_dominates_marginal_tv():
    # any coupling disagrees at y at least as often as the marginals differ
    joint = exact_joint(ising_rect(2, 3, beta=0.45, boundary="free"))
    tree = sequential_coupling_tree(joint.conditional_future((1,)),
                                    joint.conditional_future((0,)))
    band = coupling_rows_all(joint, 0, lower=True)
    assert np.all(tree.disagree >= band.lower[0, 1:] - 1e-12)


def test_two_laws_tree_identical_inputs():
    joint = exact_joint(ising_segment(4, beta=0.6, boundary="plus"))
    tree = sequential_coupling_tree(joint, joint)
    assert np.allclose(tree.disagree, 0.0, atol=1e-14)


def test_sampler_matches_tree():
    joint = exact_joint(ising_rect(2, 3, beta=0.3, boundary="plus"))
    ja = joint.conditional_future((1,))
    jb = joint.conditional_future((0,))
    tree = sequential_coupling_tree(ja, jb)
    stats = sequential_coupling_sample(ja, jb, n_samples=40000, seed=9)
    for y in range(ja.n_sites):
        gap = abs(stats.disagree[y] - tree.disagree[y])
        assert gap <= 3.0 * max(stats.disagree_se[y], 1e-4) + 5e-4
    # leg means must track the exact conditional means
    g0 = ja.function_table(single_spin(ja.sites[0]))
    assert abs(stats.leg_a_mean[0] - ja.expectation(g0)) < 0.02


def test_sampler_first_disagreement_histogram():
    joint = exact_joint(ising_segment(4, beta=0.5, boundary="free"))
    stats = sequential_coupling_sample(joint.conditional_future((1,)),
                                       joint.conditional_future((0,)),
                                       n_samples=5000, seed=3)
    assert stats.first_disagreement.sum() == 5000
    assert stats.first_disagreement.shape == (4,)


def test_tree_capacity_guard():
    joint = exact_joint(iid_spins(14))
    with pytest.raises(CapacityError):
        sequential_coupling_tree(joint, joint)


# ---------------------------------------------------------------------------
# monotone pair chains
# ---------------------------------------------------------------------------

def test_pair_glauber_estimates_marginal_tv():
    # the ordered pair's per-site disagreement equals the conditional
    # single-site total variation, which the enumerated band gives exactly
    model = ising_rect(3, 3, beta=0.3, boundary="plus")
    joint = exact_joint(model)
    band = coupling_rows_all(joint, 0, lower=True)
    res = coupled_glauber_disagreement(model, n_samples=4000, sweeps=60, seed=4)
    assert res.monotone_violations == 0
    assert res.disagree[0] == 1.0
    for y in range(1, 9):
        gap = abs(res.disagree[y] - band.lower[0, y])
        assert gap <= 3.0 * res.disagree_se[y] + 0.02


def test_pair_glauber_legs_are_ordered_and_sensible():
    model = ising_rect(4, 4, beta=0.35, boundary="plus")
    res = coupled_glauber_disagreement(model, n_samples=1500, sweeps=40, seed=11)
    assert res.monotone_violations == 0
    assert np.all(res.upper_leg_mean >= res.lower_leg_mean - 1e-12)
    assert res.upper_leg_mean[0] == 1.0 and res.lower_leg_mean[0] == -1.0


def test_pair_glauber_runs_off_rectangle():
    # an L-shaped volume: a 4x4 box without its upper-right 2x2 corner
    sites = [s for s in rect_sites(4, 4) if not (s[0] > 0 and s[1] > 0)]
    model = ising_model(sites, beta=0.6, boundary="plus")
    res = coupled_glauber_disagreement(model, n_samples=1500, sweeps=40, seed=2)
    assert res.monotone_violations == 0
    assert res.disagree[0] == 1.0
    assert np.all((res.disagree >= 0.0) & (res.disagree <= 1.0))
    assert np.all(res.upper_leg_mean >= res.lower_leg_mean)


def test_pair_chain_refuses_antiferromagnets_before_building_the_kernel(monkeypatch):
    # the shared-uniform pair is monotone only for beta >= 0; the check comes
    # first, so no kernel generator is built and no thread starts
    built = []
    monkeypatch.setattr(coupling, "_heat_bath", lambda *args, **kwargs: built.append(args))
    before = threading.active_count()
    with pytest.raises(ConfigError):
        coupled_glauber_disagreement(ising_rect(3, 3, beta=-0.3), n_samples=10, sweeps=2, seed=1)
    assert built == []
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def test_transport_matches_vertex_oracle():
    rng = np.random.default_rng(7)
    for shape in ((3, 4), (4, 4), (2, 8), (5, 3)):
        p = rng.random(shape[0]) + 0.05
        q = rng.random(shape[1]) + 0.05
        p, q = p / p.sum(), q / q.sum()
        cost = rng.random(shape) * 3.0
        plan = kr_optimal_coupling(p, q, cost)
        ref = transport_vertex_oracle(p, q, cost)
        assert abs(plan.cost - ref) <= 1e-9
        assert plan.dual_gap <= 1e-9
        assert plan.marginal_error <= 1e-9


def test_transport_point_masses():
    va = np.array([[1.0, -1.0, 1.0]])
    vb = np.array([[-1.0, -1.0, -1.0]])
    phi = np.array([0.7, 0.2, 1.1])
    cost = transport_cost(va, vb, phi)
    plan = kr_optimal_coupling(np.array([1.0]), np.array([1.0]), cost)
    assert abs(plan.cost - (2 * 0.7 + 0.0 + 2 * 1.1)) < 1e-12


def test_transport_product_measures_single_site_difference():
    # product laws differing only at one site: cost is 2 phi(s) |p - r|
    p_plus, r_plus, s = 0.7, 0.35, 1
    base = exact_joint(iid_spins(3, p_plus=p_plus))
    probs = np.array([1 - r_plus, r_plus])
    other = base.probs.copy()
    # rebuild the joint with the altered marginal at site s
    marg = [np.array([1 - p_plus, p_plus])] * 3
    marg[s] = probs
    grids = np.ones((2, 2, 2))
    for ax, m_ in enumerate(marg):
        shape = [1, 1, 1]
        shape[ax] = 2
        grids = grids * m_.reshape(shape)
    other = base.__class__(sites=base.sites, alphabet=base.alphabet,
                           probs=grids)
    phi = np.array([0.5, 1.25, 0.8])
    plan = kr_distance(base, other, phi)
    assert abs(plan.cost - 2.0 * phi[s] * abs(p_plus - r_plus)) < 1e-9


def test_transport_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kr_optimal_coupling([0.5, 0.5], [1.0], np.ones((2, 2)))
    with pytest.raises(ValueError):
        kr_optimal_coupling([0.7, 0.5], [0.5, 0.5], np.ones((2, 2)))
    with pytest.raises(CapacityError):
        kr_optimal_coupling(np.full(100, 0.01), np.full(100, 0.01),
                            np.ones((100, 100)), lp_cap=50)


def test_weak_duality_for_premise_functions():
    jp = exact_joint(ising_rect(2, 2, beta=0.5, boundary="plus"))
    jq = exact_joint(ising_rect(2, 2, beta=0.5, boundary="minus"))
    g = magnetization(jp.sites)
    phi = np.full(4, 0.5)  # flipping one of 4 sites moves g by exactly 2/4
    plan = kr_distance(jp, jq, phi)
    gap = abs(jp.expectation(jp.function_table(g))
              - jq.expectation(jq.function_table(g)))
    assert gap <= plan.cost + 1e-9


def test_verify_transport_chain_two_by_two():
    jp = exact_joint(ising_rect(2, 2, beta=0.5, boundary="plus"))
    jq = exact_joint(ising_rect(2, 2, beta=0.5, boundary="minus"))
    fns = [magnetization(jp.sites), single_spin(jp.sites[0])]
    phi = np.full(4, 2.0)  # a spin flip moves single_spin by 2
    report = verify_transport_chain(jp, jq, fns, phi)
    assert report.all_ok
    assert report.plan_weighted_disagreement <= report.tree_weighted_disagreement + 1e-9
    assert len(report.rows) == 2
    assert all(r.premise_ok for r in report.rows)


def test_transport_chain_flags_premise_violation():
    jp = exact_joint(ising_rect(2, 2, beta=0.4, boundary="plus"))
    jq = exact_joint(ising_rect(2, 2, beta=0.4, boundary="minus"))
    g = single_spin(jp.sites[0])  # oscillation 2 at the first site
    phi = np.full(4, 0.1)
    report = verify_transport_chain(jp, jq, [g], phi)
    assert not report.rows[0].premise_ok


def test_joint_atoms_roundtrip():
    joint = exact_joint(ising_rect(2, 2, beta=0.3, boundary="plus"))
    vals, probs = joint_atoms(joint)
    assert vals.shape == (16, 4)
    assert abs(probs.sum() - 1.0) < 1e-12

