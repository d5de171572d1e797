import dataclasses
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinconc import bounds, coupling, models, verify
from spinconc.bounds import martingale_decomposition
from spinconc.errors import ConfigError
from spinconc.fields import delta_vector, magnetization, total_spin
from spinconc.models import (CHUNK, exact_joint, glauber_batch, glauber_block_batch,
                             iid_spins, ising_rect, ising_segment)
from spinconc.verify import (
    HightempConfig,
    LowtempConfig,
    TailEstimate,
    _config_from_dict,
    backbone_check,
    battery_functions,
    battery_models,
    binomial_ci99,
    config_digest,
    ell_observable,
    ell_statistic,
    empirical_tail,
    exact_battery,
    fit_decay_constant,
    hightemp_experiment,
    load_config,
    lowtemp_experiment,
    tails_to_csv,
    write_artifacts,
)

from .oracles import numpy_openblas


# ---------------------------------------------------------------------------
# exact battery
# ---------------------------------------------------------------------------

def test_battery_models_distinct_and_enumerable():
    ms = battery_models(101)
    assert len(ms) == 11
    assert len({m.name for m in ms}) == 11
    for m in ms:
        assert m.alphabet.size ** m.n_sites <= 2 ** 10
        assert len(battery_functions(m)) == 4


def test_battery_all_exact_checks_pass():
    report = exact_battery(battery_models(101), 20)
    assert report.n_failures == 0
    assert report.n_unresolved == 0
    assert len(report.rows) >= 400
    # every row is an exact verdict, not an unchecked annotation
    assert all(r.verdict == "pass" for r in report.rows)
    assert all(r.observed_kind == "exact" for r in report.rows)
    names = {r.bound for r in report.rows}
    assert {"decomposition_telescoping", "backbone_rowsum",
            "tail_exponential_grid", "variance", "moment_p3"} <= names


def test_battery_thread_count_does_not_change_output(monkeypatch):
    # three iid models, whose bands are trivial, plus a Markov chain, an
    # Ising segment and a 2x3 rectangle with real coupling bands
    ms = battery_models(101)
    small = ms[:3] + [ms[3], ms[6], ms[8]]
    assert [m.name for m in small[3:]] == ["markov[6]_r0", "ising[6]_b0.7_plus",
                                           "ising[2x3]_b0.5_plus"]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = exact_battery(model_list=small, t_points=20)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pooled = exact_battery(model_list=small, t_points=20)
    assert serial.to_json() == pooled.to_json()


def test_battery_on_a_callers_models_names_no_seed():
    # the models were built by the caller, at a seed the battery never saw
    report = exact_battery(battery_models(4242)[:4], 20)
    assert "battery_seed" not in report.meta
    assert report.meta["models"][3] == "markov[6]_r0"


def test_exact_rows_do_not_depend_on_blas_threads():
    # the moment and backbone gemvs of a joint on 11 or more sites cross
    # OpenBLAS's threading threshold (9216 entries); 4x4 is the exact
    # workload's volume
    set_threads = numpy_openblas("set_num_threads")
    if set_threads is None:
        pytest.skip("numpy bundles no OpenBLAS")
    model_list = [ising_rect(4, 4, 0.1, "plus")]
    try:
        set_threads(2)
        threaded = exact_battery(model_list, 20)
        set_threads(1)
        single = exact_battery(model_list, 20)
    finally:
        set_threads(1)
    assert len(threaded.rows) == len(single.rows) > 0
    for a, b in zip(threaded.rows, single.rows):
        for f in dataclasses.fields(a):
            assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), (a, f.name)


def test_battery_computes_each_band_once(monkeypatch):
    # and builds no band's `lower`, which no battery row reads
    calls = []
    original = coupling.coupling_rows_all

    def counted(joint, i, lower=False):
        band = original(joint, i, lower)
        calls.append((i, lower, band.lower is None))
        return band

    monkeypatch.setattr(coupling, "coupling_rows_all", counted)
    exact_battery(battery_models(101), 20)
    assert len(calls) == sum(m.n_sites for m in battery_models(101)) == 70
    assert all(not lower and bare for _, lower, bare in calls)


def _band_values(joint):
    return [coupling.coupling_rows_all(joint, i).value for i in range(joint.n_sites)]


def _row_sums(values, g, joint, corrupt=None):
    """The backbone's right-hand sides `values[i] @ delta_g`.  `corrupt=(i, y)`
    zeroes column y of a copy of `values[i]` first, a sabotage that must
    surface as a violation."""
    per_site = delta_vector(g, joint.sites, joint.alphabet).per_site
    sums = []
    for i, value in enumerate(values):
        if corrupt is not None and corrupt[0] == i:
            value = value.copy()
            value[:, corrupt[1]] = 0.0
        sums.append(value @ per_site)
    return sums


def test_backbone_corruption_is_detected():
    # iid coins leave no slack: the coupling matrix is the identity, so
    # zeroing one diagonal entry must surface as a violation of exactly 1
    joint = exact_joint(iid_spins(6, 0.5))
    g = total_spin(joint.sites)
    dec = martingale_decomposition(joint, g)
    values = _band_values(joint)
    clean, _ = backbone_check(dec, _row_sums(values, g, joint))
    assert clean <= 1e-12
    bad, witness = backbone_check(dec, _row_sums(values, g, joint, corrupt=(3, 3)))
    assert bad == pytest.approx(1.0, abs=1e-12)
    assert witness[0] == 3


def test_backbone_corruption_leaves_shared_bands_intact():
    # the battery shares one set of band values across observables; the
    # sabotage must corrupt a copy, not the shared arrays
    joint = exact_joint(iid_spins(6, 0.5))
    g = total_spin(joint.sites)
    dec = martingale_decomposition(joint, g)
    values = _band_values(joint)
    bad, witness = backbone_check(dec, _row_sums(values, g, joint, corrupt=(3, 3)))
    assert bad == pytest.approx(1.0, abs=1e-12)
    assert witness[0] == 3
    clean, _ = backbone_check(dec, _row_sums(values, g, joint))
    assert clean <= 1e-12


def test_backbone_witness_reproduces_the_gap():
    model = ising_segment(4, 0.4, "free")
    joint = exact_joint(model)
    g = magnetization(joint.sites)
    dec = martingale_decomposition(joint, g)
    worst, (i, conf) = backbone_check(dec, _row_sums(_band_values(joint), g, joint))
    dv = delta_vector(g, joint.sites, joint.alphabet)
    k, m = joint.k, joint.n_sites
    digits = [(conf // k ** (m - 1 - j)) % k for j in range(m)]
    row = coupling.coupling_rows_all(joint, i).value[np.ravel_multi_index(digits[:i], (k,) * i)]
    v = np.broadcast_to(dec.increments[i], joint.probs.shape)
    gap = abs(v.reshape(-1)[conf]) - float(row @ dv.per_site)
    assert gap == pytest.approx(worst, abs=1e-12)


@pytest.fixture(scope="module")
def observable_inputs():
    """The arguments `_battery_task` hands `_observable_rows`, for each
    observable of every battery model, keyed by model name."""
    captured = {}
    original = verify._observable_rows

    def capture(*args):
        captured.setdefault(args[0].name, []).append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_observable_rows", capture)
        for model in battery_models(101):
            verify._battery_task(model, 20)
    return captured


def _failed(args, label, env_norm, moment_norm):
    """How many `label` rows of one model fail with the norms replaced."""
    rows = [row for model, joint, g, dv, rhs, _, _, t_points in args
            for row in verify._observable_rows(model, joint, g, dv, list(rhs), env_norm,
                                               dict(moment_norm), t_points)
            if row.bound == label]
    assert len(rows) == len(args)
    return sum(row.verdict == "fail" for row in rows)


def test_halved_envelope_norm_fails_the_tail_grid(observable_inputs):
    assert len(observable_inputs) == 11
    for name, args in observable_inputs.items():
        env_norm, moment_norm = args[0][5], args[0][6]
        assert _failed(args, "tail_exponential_grid", env_norm, moment_norm) == 0, name
        assert _failed(args, "tail_exponential_grid", env_norm / 2, moment_norm) >= 1, name


def test_shrunk_second_moment_norm_fails_the_variance(observable_inputs):
    for name, args in observable_inputs.items():
        env_norm, moment_norm = args[0][5], args[0][6]
        assert _failed(args, "variance", env_norm, moment_norm) == 0, name
        shrunk = {**moment_norm, 2: moment_norm[2] / 10}
        assert _failed(args, "variance", env_norm, shrunk) >= 1, name


# an empty list, and a 1-site model after a usable one
@pytest.mark.parametrize("model_list", [[], [iid_spins(6, 0.5), iid_spins(1, 0.5)]],
                         ids=["no-models", "one-site-model"])
def test_battery_rejects_unusable_models_before_any_joint(monkeypatch, model_list):
    def no_joint(model):
        raise AssertionError(f"joint of {model.name} built")

    monkeypatch.setattr(models, "exact_joint", no_joint)
    with pytest.raises(ConfigError):
        exact_battery(model_list, 20)


# ---------------------------------------------------------------------------
# Monte Carlo tail machinery
# ---------------------------------------------------------------------------

def test_binomial_ci99_zero_count_floor():
    n = 1000
    lo, hi = binomial_ci99(0, n)
    assert lo == 0.0
    # Clopper-Pearson at k=0: n*hi -> -log(0.005) ~ 5.3
    assert 5.0 <= n * hi <= 5.5
    lo, hi = binomial_ci99(n, n)
    assert hi == 1.0 and 1.0 - lo <= 5.5 / n


def test_binomial_ci99_normal_regime():
    lo, hi = binomial_ci99(500, 1000)
    hw = 2.5758293035489004 * math.sqrt(0.25 / 1000)
    assert hi - 0.5 == pytest.approx(hw, rel=1e-12)
    assert 0.5 - lo == pytest.approx(hw, rel=1e-12)
    with pytest.raises(ValueError):
        binomial_ci99(5, 4)


def test_binomial_ci99_contains_point_estimate():
    for k, n in [(0, 50), (1, 50), (7, 200), (60, 100), (199, 200)]:
        lo, hi = binomial_ci99(k, n)
        assert lo <= k / n <= hi


def test_empirical_tail_matches_exact_binomial():
    # independent fair coins: |sum| tail has a closed form to compare against
    model = iid_spins(16, 0.5)
    g = total_spin(model.sites)
    ests, cert = empirical_tail(model, g, [0.0, 0.5, 3.5, 7.5], 10000, 6, seed=42)
    assert cert is None  # exact draws need no certificate
    assert ests[0].estimate == 1.0  # t=0 events are certain
    counts = np.array([math.comb(16, b) for b in range(17)], dtype=float)
    pmf = counts / counts.sum()
    spins = 2.0 * np.arange(17) - 16.0
    for est in ests[1:]:
        exact = float(pmf[np.abs(spins) >= est.t_effective].sum())
        assert abs(est.estimate - exact) <= 2.5 * est.half_width


def test_empirical_tail_interval_narrows_with_n():
    model = iid_spins(16, 0.5)
    g = total_spin(model.sites)
    small = empirical_tail(model, g, [0.5], 4000, 6, seed=3)[0][0]
    large = empirical_tail(model, g, [0.5], 16000, 6, seed=3)[0][0]
    assert 1.6 <= small.half_width / large.half_width <= 2.5


def test_empirical_tail_gibbs_mean_agrees_with_enumeration():
    model = ising_rect(3, 3, 0.5, "plus")
    joint = exact_joint(model)
    g = magnetization(model.sites)
    table = joint.function_table(g)
    mean = joint.expectation(table)
    # every level of g - Eg lies at least 0.0528 from 0, so t = 0.05 alone
    # reads 1 on both sides; the larger t fall between levels
    ests, cert = empirical_tail(model, g, [0.05, 0.1, 0.25, 0.5], 30000, 30, seed=8)
    assert cert.apart == 0
    for est in ests:
        # P(|g - Eg| >= t) from enumeration, at the effective threshold,
        # within the binomial width alone: the certificate's widening is
        # not spent here
        exact = joint.exact_tail(table, est.t_effective)
        lo, hi = binomial_ci99(round(est.estimate * est.n_samples), est.n_samples)
        assert abs(est.estimate - exact) <= 2.5 * max(hi - est.estimate, est.estimate - lo)
    assert 0.0 < ests[-1].estimate < ests[1].estimate < 1.0


def test_empirical_tail_rejects_tiny_runs():
    model = iid_spins(4, 0.5)
    with pytest.raises(ConfigError):
        empirical_tail(model, total_spin(model.sites), [1.0], 500, 5, seed=1)


def test_empirical_tail_is_deterministic():
    model = iid_spins(8, 0.7)
    g = total_spin(model.sites)
    a = empirical_tail(model, g, [1.0, 2.0], 2000, 5, seed=77)
    b = empirical_tail(model, g, [1.0, 2.0], 2000, 5, seed=77)
    assert a == b
    assert tails_to_csv(a[0]) == tails_to_csv(b[0])


# ---------------------------------------------------------------------------
# high-temperature experiment
# ---------------------------------------------------------------------------

def test_fit_decay_constant_independent_limit():
    c, used = fit_decay_constant(0.0, "free", 3, 3)
    assert math.isinf(c) and used == 0


def test_fit_decay_constant_bounds_the_envelope():
    from spinconc.coupling import envelope_and_moment_matrices
    from spinconc.lattice import l1_distance

    c, used = fit_decay_constant(0.3, "plus", 3, 3)
    assert used > 0 and 0.0 < c < math.inf
    model = ising_rect(3, 3, 0.3, "plus")
    env = envelope_and_moment_matrices(exact_joint(model), p_orders=(2,)).envelope
    sites = model.sites
    for i in range(len(sites)):
        for j in range(len(sites)):
            if i == j or env[i, j] <= 1e-14:
                continue
            d = l1_distance(sites[i], sites[j])
            assert env[i, j] <= math.exp(-c * d) * (1 + 1e-12)


def test_hightemp_small_volume_run():
    rep = hightemp_experiment(HightempConfig(seed=7, rows=6, cols=6,
                                             n_samples=4000, sweeps=20))
    assert rep.meta["experiment"] == "high_temperature_tail"
    assert rep.n_failures == 0
    p_row = rep.rows[0]
    assert p_row.bound == "percolation_condition"
    assert p_row.verdict == "pass"
    assert p_row.observed < 0.5927
    tail_rows = [r for r in rep.rows if r.bound == "tail_exponential"]
    assert len(tail_rows) == 5
    for r in tail_rows:
        if r.params["resolvable"]:
            assert r.verdict == "pass"
        else:
            assert r.verdict == "unresolved"
            assert r.theoretical < rep.meta["mc_floor"]
            assert "floor" in r.note


def test_hightemp_refuses_when_condition_fails():
    rep = hightemp_experiment(HightempConfig(seed=5, rows=4, cols=4, beta=1.0,
                                             n_samples=1000, sweeps=5))
    p_row = rep.rows[0]
    assert p_row.verdict == "fail"
    assert rep.n_failures == 1  # the condition itself, nothing else claimed
    tail_rows = [r for r in rep.rows if r.bound == "tail_exponential"]
    assert tail_rows and all(r.verdict == "info" for r in tail_rows)
    assert all("condition failed" in r.note for r in tail_rows)


def _hightemp_8x8(sweeps):
    report = hightemp_experiment(HightempConfig(seed=20260818, n_samples=4000, sweeps=sweeps))
    [mix] = [r for r in report.rows if r.bound == "mixing_certificate"]
    return mix, [r for r in report.rows if r.bound == "tail_exponential"]


def test_mixing_certificate_passes_at_the_committed_sweeps():
    mix, tails = _hightemp_8x8(10)
    assert mix.verdict == "pass" and mix.params["apart"] == 0
    assert mix.observed_hi == binomial_ci99(0, verify.MIXING_PAIRS)[1] <= verify.MIXING_BOUND
    assert all(r.verdict == "pass" for r in tails if r.params["resolvable"])


def test_mixing_certificate_fails_with_no_sweeps():
    # every pair starts apart everywhere: d = 1, so every interval is [0, 1]
    # and a tail bound below 1 cannot be resolved
    mix, tails = _hightemp_8x8(0)
    assert mix.verdict == "fail" and mix.params["apart"] == verify.MIXING_PAIRS
    assert mix.observed_hi == 1.0
    for r in tails:
        assert (r.observed_lo, r.observed_hi) == (0.0, 1.0)
        assert r.verdict == ("pass" if r.theoretical >= 1.0 else "unresolved")
        assert r.params["t_effective"] == 0.0


def test_mixing_certificate_fails_at_two_sweeps():
    mix, _ = _hightemp_8x8(2)
    assert mix.verdict == "fail" and mix.observed_lo > verify.MIXING_BOUND


def test_mixing_certificate_reads_the_all_minus_leg(monkeypatch):
    # a lower leg started all-plus never parts from the upper one, so the
    # certificate would pass at two sweeps: the failure above comes from the
    # minus start, which the kernel tests pin against the reference
    heat_bath = coupling._heat_bath

    def both_plus(model, n, sweeps, seed, starts=(1,), **kwargs):
        return heat_bath(model, n, sweeps, seed, (1,) * len(starts), **kwargs)

    monkeypatch.setattr(coupling, "_heat_bath", both_plus)
    mix, _ = _hightemp_8x8(2)
    assert mix.verdict == "pass" and mix.params["apart"] == 0


def test_resolvable_floor_carries_the_mixing_bound():
    # a bound above the binomial floor but below floor + d cannot be
    # resolved once the interval is widened by d
    floor = binomial_ci99(0, 10000)[1]
    est = TailEstimate(1.0, 1.0, 0.0, 10000, 0.0, floor + 1e-3)
    row = verify._mc_tail_row("m", "g", "tail", {}, floor + 5e-4, est, mixing=1e-3)
    assert not row.params["resolvable"] and row.verdict == "unresolved"
    assert "floor" in row.note
    assert verify._mc_tail_row("m", "g", "tail", {}, floor + 5e-4, est).params["resolvable"]


def test_third_seed_keeps_the_mean_and_main_seeds():
    # the certificate's seed is drawn third, so exact draws keep their streams
    for seed in (0, 7, 9, 42, 77, 20260818):
        three = np.random.default_rng(seed).integers(2 ** 63, size=3)
        assert three[:2].tolist() == np.random.default_rng(seed).integers(2 ** 63, size=2).tolist()


def test_empirical_tail_refuses_an_antiferromagnet_before_any_stream(monkeypatch):
    def no_stream(batches):
        raise AssertionError("a stream started")

    monkeypatch.setattr(models, "stream", no_stream)
    model = ising_rect(3, 3, -0.3)
    with pytest.raises(ConfigError):
        empirical_tail(model, magnetization(model.sites), [0.1], 1000, 5, seed=1)


# ---------------------------------------------------------------------------
# path-magnetization statistic
# ---------------------------------------------------------------------------

def _ell_oracle(spins: np.ndarray, theta: float) -> int:
    """Longest staircase path with mean below theta, by explicit search."""
    rows, cols = spins.shape
    best = 0
    for steps in (((1, 0), (0, 1)), ((1, 0), (0, -1))):
        stack = [((r, c), 1, float(spins[r, c]))
                 for r in range(rows) for c in range(cols)]
        while stack:
            (r, c), length, tot = stack.pop()
            if tot / length < theta:
                best = max(best, length)
            for dr, dc in steps:
                nr, nc = r + dr, c + dc
                if 0 <= nr < rows and 0 <= nc < cols:
                    stack.append(((nr, nc), length + 1, tot + float(spins[nr, nc])))
    return best + 1 if best else 0


def test_ell_statistic_matches_search_oracle():
    rng = np.random.default_rng(2024)
    for theta in (0.3, 0.5, 0.8, 0.9, 0.95, 1.0):
        for rows in range(1, 7):
            for cols in range(1, 7):
                minus = rng.random((4, rows, cols)) < rng.uniform(0.1, 0.6)
                want = [_ell_oracle(np.where(m, -1.0, 1.0), theta) for m in minus]
                assert ell_statistic(minus, theta).tolist() == want
    # sparse minus sites, as in the ordered phase; and paths longer than 127
    # sites, whose counts need more than 8 bits
    for shape, p in (((40, 4, 4), 0.2), ((3, 1, 140), 0.1), ((3, 140, 1), 0.1)):
        minus = rng.random(shape) < p
        want = [_ell_oracle(np.where(m, -1.0, 1.0), 0.9) for m in minus]
        assert ell_statistic(minus, 0.9).tolist() == want


def test_ell_statistic_known_values():
    plus = np.zeros((16, 16), dtype=bool)
    one = plus.copy()
    one[8, 8] = True
    two = plus.copy()
    two[3, 3] = True
    two[5, 7] = True
    batch = np.stack([plus, one, two])
    # one minus: longest path with mean < 0.9 has 19 sites; two comparable
    # minuses saturate the box diagonal
    assert ell_statistic(batch, 0.9).tolist() == [0, 20, 32]
    # any minus poisons every path
    assert ell_statistic(batch, 1.0).tolist() == [0, 32, 32]
    assert ell_statistic(batch[:0], 0.9).shape == (0,)
    with pytest.raises(ConfigError):
        ell_statistic(batch, 0.0)
    with pytest.raises(ConfigError):
        ell_statistic(batch, 1.5)


# At theta = 0.9 one minus spin puts every path of up to 2 / (1 - 0.9) - 1 =
# 19 sites below theta, and every cell lies on a longest path.  So while
# rows + cols - 1 <= 19, ell is rows + cols on any grid with a minus spin,
# wherever the spins lie; past that, one minus spin gives 20.
@pytest.mark.parametrize("rows, cols, one_minus", [
    (8, 8, 16), (6, 10, 16), (5, 15, 20), (5, 16, 20), (16, 16, 20)])
def test_ell_at_theta_09_reads_only_whether_a_small_grid_has_a_minus_spin(
        rows, cols, one_minus):
    one = np.eye(rows * cols, dtype=bool).reshape(-1, rows, cols)
    assert ell_statistic(one, 0.9).tolist() == [one_minus] * (rows * cols)
    rng = np.random.default_rng(rows * cols)
    some = rng.random((200, rows, cols)) < rng.uniform(0.0, 0.3, (200, 1, 1))
    ell = ell_statistic(some, 0.9)
    assert np.array_equal(ell == 0, ~some.any(axis=(1, 2)))
    saturated = ell[ell > 0] == rows + cols
    assert saturated.all() == (rows + cols - 1 <= 19)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 16 - 1),
       st.sampled_from([0.5, 0.9]))
def test_ell_statistic_invariants(rows, cols, mask, theta):
    bits = [(mask >> i) & 1 for i in range(rows * cols)]
    minus = np.array(bits, dtype=bool).reshape(1, rows, cols)
    ell = int(ell_statistic(minus, theta)[0])
    l_box = rows + cols - 1
    assert 0 <= ell <= l_box + 1
    assert (ell == 0) == (not minus.any())
    # raising theta can only lengthen the worst path
    assert ell <= ell_statistic(minus, min(theta + 0.09, 1.0))[0]


# 2500 replicas are three chunks, the last one partial; a 6x10 rectangle
# fails a transposed grid; at 3x3 and beta = 3 whole chunks hold no minus spin
@pytest.mark.parametrize("rows, cols, beta", [(8, 8, 1.0), (6, 10, 0.8), (3, 3, 3.0)])
def test_ell_per_chunk_matches_the_block_sampler(rows, cols, beta):
    # both paths read the same heat-bath replicas; the reference maps the
    # whole batch onto the grid, row y and column x, and scores every grid.
    # At theta = 0.9 one minus spin already fills the longest path of these
    # boxes, whatever its cell; at 0.5 the value depends on where they lie.
    model = ising_rect(rows, cols, beta)
    n = 2500
    got = glauber_batch(model, ell_observable(model.sites, rows, cols, 0.5), n, 5, 7)
    ids = glauber_block_batch(model, n, 5, 7)
    xs = sorted({x for x, _ in model.sites})
    ys = sorted({y for _, y in model.sites})
    minus = np.zeros((n, rows, cols), dtype=bool)
    for i, (x, y) in enumerate(model.sites):
        minus[:, ys.index(y), xs.index(x)] = ids[i] == 0
    want = ell_statistic(minus, 0.5)
    assert np.array_equal(got, want)
    chunk_has_minus = [bool(want[lo:lo + CHUNK].any()) for lo in range(0, n, CHUNK)]
    assert all(chunk_has_minus) == (rows > 3)


# ---------------------------------------------------------------------------
# low-temperature experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lowtemp_small():
    cfg = LowtempConfig(seed=11, rows=8, cols=8, n_pair=4000, n_tail=6000,
                        n_ell=2000, sweeps=30)
    return lowtemp_experiment(cfg)


def test_lowtemp_no_refutations(lowtemp_small):
    _, _, rep = lowtemp_small
    assert rep.meta["experiment"] == "low_temperature_tail"
    assert rep.n_failures == 0
    # every input of every row, the info rows' too, is sampled
    assert {r.observed_kind for r in rep.rows} == {"mc"}
    rank = next(r for r in rep.rows if r.bound == "decay_rank_test")
    assert rank.verdict == "pass"        # disagreement decays with distance
    assert rank.observed <= 0.01
    held = [r for r in rep.rows if r.bound == "tail_stretched_heldout"]
    assert held
    for r in held:
        assert r.verdict in ("pass", "unresolved")
        if r.params["resolvable"]:
            assert r.verdict == "pass"


def test_lowtemp_profile_shape(lowtemp_small):
    tail, psi, rep = lowtemp_small
    assert len(tail) == 16
    assert ((0.0 <= tail) & (tail <= 1.0)).all()
    assert (np.diff(tail) <= 1e-12).all()  # survival function
    assert (psi >= 0.0).all()
    # profile norm assemblies are reported for each p
    for p in (1, 2, 3):
        assert any(r.bound == f"profile_norm_p{p}" for r in rep.rows)
        assert any(r.bound == f"profile_moment_p{p}" for r in rep.rows)


def test_lowtemp_fit_rows_are_annotated(lowtemp_small):
    _, _, rep = lowtemp_small
    row = next(r for r in rep.rows if r.bound == "stretched_fit")
    assert row.verdict == "info"
    assert row.note


def test_lowtemp_working_memory_per_tail_replica():
    # lowtemp holds split A (0.4 n_tail float64, centred as it lands) and
    # the mean batch (0.2 n_tail) until its last chunk, and counts split B
    # chunk by chunk; the Luxembourg norm adds two arrays of split A's size:
    # |z| and one buffer for z / lambda and phi in place on it.  That is
    # about 8.8 bytes per replica of n_tail on 4x4, where the chunks' fixed
    # memory does not set the peak
    counts = dict(seed=3, rows=4, cols=4, n_pair=1000, n_ell=1000, sweeps=5)
    sizes = (50_000, 200_000)
    peaks = []
    for n in sizes:
        tracemalloc.start()
        try:
            lowtemp_experiment(LowtempConfig(n_tail=n, **counts))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 10 * (sizes[1] - sizes[0])


_STREAM = models.stream


def _one_batch_at_a_time(batches):
    """`models.stream`, with each batch drained on a stream of its own
    before the next one starts."""
    return [iter(list(_STREAM([batch])[0])) for batch in batches]


def _lowtemp_draws(cfg):
    """lowtemp's five batches, drawn one at a time by the public samplers
    with the seeds lowtemp draws: the pair chain's result, the ell values,
    the mean batch and the deviations of splits A and B."""
    model = ising_rect(cfg.rows, cfg.cols, cfg.beta, cfg.boundary)
    g = magnetization(model.sites, normalized=True)
    seed_pair, seed_mean, seed_a, seed_b, seed_ell = (
        int(s) for s in np.random.default_rng(cfg.seed).integers(2 ** 63, size=5))
    n_mean = max(1000, cfg.n_tail // 5)
    n_split = (cfg.n_tail - n_mean) // 2
    pair = coupling.coupled_glauber_disagreement(model, cfg.n_pair, cfg.sweeps, seed_pair)
    ells = glauber_batch(model, ell_observable(model.sites, cfg.rows, cfg.cols, 0.9),
                         cfg.n_ell, cfg.sweeps, seed_ell)
    mean = glauber_batch(model, g, n_mean, cfg.sweeps, seed_mean)
    dev_a, dev_b = (np.abs(glauber_batch(model, g, n_split, cfg.sweeps, s) - mean.mean())
                    for s in (seed_a, seed_b))
    return model, pair, ells, mean, dev_a, dev_b


# 8x8 at beta = 1: 2500 pair replicas, 1500 ell replicas, a mean batch of
# 1200 and splits of 2400 each end in a partial chunk
LOWTEMP_8X8 = LowtempConfig(seed=5, rows=8, cols=8, n_pair=2500, n_tail=6000, n_ell=1500,
                            sweeps=20)


def test_lowtemp_on_one_stream_equals_one_batch_at_a_time(monkeypatch):
    monkeypatch.setattr(models, "POOL_MIN_ROWS", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ell_tail, psi_hat, report = lowtemp_experiment(LOWTEMP_8X8)
    monkeypatch.setattr(models, "stream", _one_batch_at_a_time)
    alone = lowtemp_experiment(LOWTEMP_8X8)
    assert report.to_json() == alone[2].to_json()
    assert report.to_csv() == alone[2].to_csv()
    assert ell_tail.tobytes() == alone[0].tobytes()
    assert psi_hat.tobytes() == alone[1].tobytes()

    # each quantity read from the samples is the one-batch samplers' value
    model, pair, ells, mean, dev_a, dev_b = _lowtemp_draws(LOWTEMP_8X8)
    assert report.meta["monotone_violations"] == pair.monotone_violations
    assert report.meta["mean_se"] == float(mean.std(ddof=1) / math.sqrt(len(mean)))
    assert report.meta["t_grid"] == np.quantile(dev_a, LOWTEMP_8X8.quantiles).tolist()
    assert ell_tail.tolist() == [(ells >= j).mean() for j in range(1, 17)]
    dists = np.array([abs(x) + abs(y) for x, y in model.sites])
    assert psi_hat.tolist() == [pair.disagree[dists == j].max()
                                for j in range(1, dists.max() + 1)]
    held = [r for r in report.rows if r.bound == "tail_stretched_heldout"]
    assert len(held) == len(LOWTEMP_8X8.quantiles)
    for r in held:
        assert r.observed == int((dev_b >= r.params["t_effective"]).sum()) / len(dev_b)
    for rho in (0.25, 0.5):
        row = next(r for r in report.rows if r.bound == f"orlicz_norm_rho{rho:g}")
        assert row.theoretical == bounds.luxembourg_norm(dev_a, rho=rho)


@pytest.mark.parametrize("model", [ising_rect(8, 8, 1.0), iid_spins(6, 0.3)],
                         ids=lambda m: m.name)
def test_empirical_tail_on_one_stream_equals_one_batch_at_a_time(model, monkeypatch):
    monkeypatch.setattr(models, "POOL_MIN_ROWS", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g = magnetization(model.sites)
    t_grid = [0.0, 0.05, 0.2, 0.5]
    got = empirical_tail(model, g, t_grid, 2500, 20, seed=9)
    monkeypatch.setattr(models, "stream", _one_batch_at_a_time)
    assert empirical_tail(model, g, t_grid, 2500, 20, seed=9) == got
    # each batch drawn by its own public sampler: the certificate's pairs
    # (a Gibbs model's only), the mean batch, then the main batch counted whole
    seed_mean, seed_main, seed_mix = (
        int(s) for s in np.random.default_rng(9).integers(2 ** 63, size=3))
    d = 0.0
    if isinstance(model, models.ProductModel):
        assert got[1] is None
    else:
        [pairs] = _STREAM([coupling.coalescence_batch(model, verify.MIXING_PAIRS, 20, seed_mix)])
        apart = sum(pairs)
        lo, d = binomial_ci99(apart, verify.MIXING_PAIRS)
        assert got[1] == verify.MixingCertificate(verify.MIXING_PAIRS, 20, apart, lo, d)
    bias = d * 2.0  # the normalized magnetization spans [-1, 1]
    mean = glauber_batch(model, g, 1000, 20, seed_mean)
    se = float(mean.std(ddof=1) / math.sqrt(len(mean)))
    dev = np.abs(glauber_batch(model, g, 2500, 20, seed_main) - float(mean.mean()))
    want = []
    for t in t_grid:
        t_eff = max(t - 3.0 * se - bias, 0.0)
        k = int((dev >= t_eff).sum())
        lo, hi = binomial_ci99(k, 2500)
        want.append(TailEstimate(t, t_eff, k / 2500, 2500, max(lo - d, 0.0), min(hi + d, 1.0)))
    assert got[0] == want


def test_lowtemp_refuses_an_antiferromagnet_before_any_stream(monkeypatch):
    # the pair chain's check runs while the batches are built
    def no_stream(batches):
        raise AssertionError("a stream started")

    monkeypatch.setattr(models, "stream", no_stream)
    before = threading.active_count()
    with pytest.raises(ConfigError):
        lowtemp_experiment(dataclasses.replace(LOWTEMP_8X8, beta=-0.3))
    assert threading.active_count() == before


def test_lowtemp_rejects_tiny_splits():
    with pytest.raises(ConfigError):
        lowtemp_experiment(LowtempConfig(seed=1, rows=4, cols=4, n_pair=1000,
                                         n_tail=1500, n_ell=1000, sweeps=5))


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_config_from_dict_defaults_and_validation():
    cfg = _config_from_dict(HightempConfig, {"seed": 3}, "hightemp")
    assert (cfg.rows, cfg.cols, cfg.beta) == (8, 8, 0.1)
    cfg = _config_from_dict(LowtempConfig, {"seed": 3, "rows": 4}, "lowtemp")
    assert cfg.rows == 4 and cfg.cols == 16
    with pytest.raises(ConfigError):
        _config_from_dict(HightempConfig, {"seed": 3, "bogus": 1}, "hightemp")
    with pytest.raises(ConfigError):
        _config_from_dict(LowtempConfig, {}, "lowtemp")  # seed is required


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"seed": 9}))
    assert load_config(str(good)) == {"seed": 9}


def test_config_digest_is_canonical():
    a = config_digest({"a": 1, "b": [2, 3]}, 5)
    b = config_digest({"b": [2, 3], "a": 1}, 5)
    assert a == b and len(a) == 8
    assert config_digest({"a": 1, "b": [2, 3]}, 6) != a


def test_write_artifacts_round_trip(tmp_path):
    report = exact_battery(battery_models(101)[:1], 20)
    paths = write_artifacts(str(tmp_path), "run", report=report,
                            tables={"extra.csv": "x,y\n1,2\n"})
    assert len(paths) == 3
    from spinconc.bounds import report_from_json
    with open(paths[0], "r", encoding="utf-8") as fh:
        back = report_from_json(fh.read())
    assert back.to_json() == report.to_json()
    with open(paths[1], "r", encoding="utf-8") as fh:
        assert fh.readline().startswith("model,")
