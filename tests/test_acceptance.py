"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the two long Monte Carlo experiments carry the `slow` marker.
"""

import math

import numpy as np
import pytest

from spinconc import bounds, coupling, fields, models, verify
from spinconc.bounds import (
    exponential_bound,
    luxembourg_norm,
    operator_norm_l2,
    riemann_zeta,
)
from spinconc.coupling import (
    envelope_and_moment_matrices,
    kr_optimal_coupling,
    maximal_coupling,
    sequential_coupling_sample,
    sequential_coupling_tree,
    verify_transport_chain,
)
from spinconc.fields import delta_vector, magnetization, single_spin, total_spin
from spinconc.models import exact_joint, iid_spins, ising_rect

from tests.oracles import naive_tv, transport_vertex_oracle


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def battery_report():
    return verify.exact_battery(verify.battery_models(101), 20)


def _rows(report, name):
    return [r for r in report.rows if r.bound == name]


def test_criterion_01_backbone(battery_report):
    rows = _rows(battery_report, "backbone_rowsum")
    n_models = len({r.model for r in rows})
    n_fns = len({r.function for r in rows})
    worst = max(r.observed for r in rows)
    ok = (n_models >= 10 and n_fns >= 3 and worst <= 1e-9
          and all(r.verdict == "pass" for r in rows))
    _verdict(1, ok, f"row-sum inequality on {n_models} models x {n_fns} "
                    f"functions, worst slack violation {worst:.3e} <= 1e-9")


def test_criterion_02_decomposition(battery_report):
    names = ("decomposition_telescoping", "decomposition_martingale",
             "decomposition_orthogonality")
    worst = max(r.observed for n in names for r in _rows(battery_report, n))
    ok = worst <= 1e-10 and all(r.verdict == "pass"
                                for n in names for r in _rows(battery_report, n))
    _verdict(2, ok, f"telescoping/martingale/orthogonality errors "
                    f"<= {worst:.3e} (tolerance 1e-10)")


def test_criterion_03_exponential_tail(battery_report):
    rows = _rows(battery_report, "tail_exponential_grid")
    grid_ok = all(r.verdict == "pass" for r in rows)
    worst = max(r.observed for r in rows)

    # ten fair coins reduce the bound to the classical 2 exp(-t^2/2n) form
    model = iid_spins(10, 0.5)
    joint = exact_joint(model)
    g = total_spin(model.sites)
    dv = delta_vector(g, model.sites, model.alphabet)
    env_norm = operator_norm_l2(envelope_and_moment_matrices(joint).envelope)
    table = joint.function_table(g)
    formula_gap = 0.0
    domination_gap = -math.inf
    for t in np.linspace(0.0, 10.0, 20):
        b = exponential_bound(float(t), env_norm, dv.l2)
        formula_gap = max(formula_gap, abs(b - 2.0 * math.exp(-t * t / 20.0)))
        domination_gap = max(domination_gap, joint.exact_tail(table, float(t)) - b)
    ok = grid_ok and formula_gap <= 1e-12 and domination_gap <= 1e-12
    _verdict(3, ok, f"exact tails under the exponential bound at 20 grid "
                    f"points per instance (worst gap {worst:.3e}); coin case "
                    f"matches 2exp(-t^2/20) within {formula_gap:.2e} and "
                    f"dominates the binomial tail")


def test_criterion_04_moments(battery_report):
    names = [f"moment_p{p}" for p in (1, 2, 3)] + ["variance",
                                                   "variance_independent"]
    all_rows = [r for n in names for r in _rows(battery_report, n)]
    n_indep = len(_rows(battery_report, "variance_independent"))
    ok = all(r.verdict == "pass" for r in all_rows) and n_indep > 0
    _verdict(4, ok, f"central moments p in {{1,2,3}} under their bounds on "
                    f"the battery; independent-case variance <= |delta g|^2 "
                    f"on {n_indep} rows")


def test_criterion_05_coupling_kernels():
    rng = np.random.default_rng(515)
    worst_tv = 0.0
    worst_marg = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        c = maximal_coupling(p, q)
        worst_tv = max(worst_tv, abs(c.disagreement - naive_tv(p, q)))
        worst_marg = max(worst_marg, *c.marginal_errors())

    jp = exact_joint(ising_rect(3, 3, 0.3, "plus"))
    jq = exact_joint(ising_rect(3, 3, 0.3, "minus"))
    tree = sequential_coupling_tree(jp, jq)
    leg_err = max(tree.leg_errors(jp, jq))

    stats = sequential_coupling_sample(jp, jq, 100000, seed=515)
    exact_a = jp.probs.reshape(-1, *[2] * jp.n_sites)
    mc_gap_se = 0.0
    vals = np.asarray(jp.alphabet.values)
    for leg, joint in ((stats.leg_a_mean, jp), (stats.leg_b_mean, jq)):
        for site_axis in range(joint.n_sites):
            marg = joint.prefix_marginal(site_axis)
            marg = marg.reshape(-1, 2).sum(axis=0) @ vals  # mean spin at site
            sd = math.sqrt(max(1.0 - marg ** 2, 1e-12))
            se = sd / math.sqrt(stats.n_samples)
            mc_gap_se = max(mc_gap_se, abs(leg[site_axis] - marg) / se)
    ok = worst_tv <= 1e-12 and worst_marg <= 1e-12 and leg_err <= 1e-12 \
        and mc_gap_se <= 3.0
    _verdict(5, ok, f"1000 maximal couplings: |disagreement - TV| <= "
                    f"{worst_tv:.2e}, marginal error <= {worst_marg:.2e}; "
                    f"sequential legs exact to {leg_err:.2e}; MC site means "
                    f"within {mc_gap_se:.2f} SE over 1e5 runs")


def test_criterion_06_optimal_transport():
    rng = np.random.default_rng(66)
    worst_opt = 0.0
    worst_dual = -math.inf
    for _ in range(50):
        a = int(rng.integers(2, 5))
        b = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(a))
        q = rng.dirichlet(np.ones(b))
        cost = rng.uniform(0.0, 1.0, size=(a, b))
        plan = kr_optimal_coupling(p, q, cost)
        worst_opt = max(worst_opt,
                        abs(plan.cost - transport_vertex_oracle(p, q, cost)))
        # random feasible dual pair: f_i = min_j (cost_ij - h_j)
        h = rng.uniform(-1.0, 1.0, size=b)
        f = (cost - h[None, :]).min(axis=1)
        worst_dual = max(worst_dual, float(p @ f + q @ h) - plan.cost)

    chain_ok = True
    for beta in (0.2, 0.4):
        jp = exact_joint(ising_rect(2, 2, beta, "plus"))
        jq = exact_joint(ising_rect(2, 2, beta, "minus"))
        fns = [magnetization(jp.sites), single_spin(jp.sites[0])]
        phi = 2.0 * np.ones(len(jp.sites))
        chain_ok = chain_ok and verify_transport_chain(jp, jq, fns, phi).all_ok
    ok = worst_opt <= 1e-9 and worst_dual <= 1e-9 and chain_ok
    _verdict(6, ok, f"50 transport instances match the vertex oracle within "
                    f"{worst_opt:.2e}; weak duality margin {worst_dual:.2e} "
                    f"<= 0; mean-gap chain holds on the 2x2 boundary pairs")


def test_criterion_07_numerical_kernels():
    zeta_err = max(abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0),
                   abs(riemann_zeta(4.0) - math.pi ** 4 / 90.0))
    lux_err = 0.0
    for c in (0.25, 1.0, 7.5):
        lux = luxembourg_norm(np.full(64, c), rho=1.0)
        lux_err = max(lux_err, abs(lux - c / math.log(2.0)))
    eye_ok = operator_norm_l2(np.eye(7)) == 1.0
    rank1_err = 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        rank1_err = max(rank1_err,
                        abs(operator_norm_l2(np.outer(u, v))
                            - np.linalg.norm(u) * np.linalg.norm(v)))
    ok = zeta_err <= 1e-12 and lux_err <= 1e-8 and eye_ok and rank1_err <= 1e-9
    _verdict(7, ok, f"zeta within {zeta_err:.2e}; Luxembourg norm of a "
                    f"constant within {lux_err:.2e} of c/ln2; operator norms "
                    f"exact on identity, rank-one within {rank1_err:.2e}")


@pytest.mark.slow
def test_criterion_08_high_temperature_tail():
    config = verify.HightempConfig(seed=20260818, rows=8, cols=8, beta=0.1,
                                   n_samples=100000, sweeps=10)
    report = verify.hightemp_experiment(config)
    p_row = report.rows[0]
    [mix] = _rows(report, "mixing_certificate")
    tail_rows = _rows(report, "tail_exponential")
    resolvable = [r for r in tail_rows if r.params["resolvable"]]
    ok = (p_row.verdict == "pass" and p_row.observed < 0.5927
          and mix.verdict == "pass"
          and report.n_failures == 0
          and len(resolvable) > 0
          and all(r.verdict == "pass" for r in resolvable))
    _verdict(8, ok, f"beta=0.1 on 8x8: condition value "
                    f"{p_row.observed:.4f} < 0.5927; {mix.params['apart']} of "
                    f"{mix.params['pairs']} coupled pairs apart after 10 sweeps, "
                    f"d_TV <= {mix.observed_hi:.2e} <= 1e-3; N=1e5 tails under the "
                    f"exponential bound at all {len(resolvable)} resolvable "
                    f"grid points, {len(tail_rows) - len(resolvable)} below "
                    f"the Monte Carlo floor, zero refutations")


@pytest.mark.slow
def test_criterion_09_low_temperature_tail():
    config = verify.LowtempConfig(seed=20260818, rows=16, cols=16, beta=1.0,
                                  n_pair=80000, n_tail=100000, n_ell=20000,
                                  sweeps=60)
    _, _, report = verify.lowtemp_experiment(config)
    rank = next(r for r in report.rows if r.bound == "decay_rank_test")
    held = _rows(report, "tail_stretched_heldout")
    ok = (rank.verdict == "pass" and rank.observed < 0.01
          and len(held) == 5
          and all(r.verdict == "pass" for r in held)
          and report.n_failures == 0)
    _verdict(9, ok, f"beta=1.0 on 16x16: disagreement decays in distance "
                    f"(rank-test p = {rank.observed:.2e} < 0.01); held-out "
                    f"stretched bound dominates split B at all {len(held)} "
                    f"grid points")


@pytest.mark.slow
def test_criterion_10_determinism(tmp_path):
    import filecmp

    from spinconc.cli import run

    specs = {
        "tail": ["tail", "--seed", "7", "--samples", "2000"],
        "hightemp": ["hightemp", "--seed", "5", "--samples", "4000"],
        "lowtemp": ["lowtemp", "--config", str(tmp_path / "lt.json")],
    }
    (tmp_path / "lt.json").write_text(
        '{"seed": 11, "rows": 8, "cols": 8, "n_pair": 4000,'
        ' "n_tail": 6000, "n_ell": 2000, "sweeps": 30}')
    identical = True
    checked = 0
    for name, argv in specs.items():
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}_{rep}"
            code = run(argv + ["--out", str(out)])
            assert code in (0, 1)
            outs.append(out)
        names_a = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        identical = identical and names_a == names_b and all(
            filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False)
            for n in names_a)
        checked += len(names_a)
    _verdict(10, identical and checked > 0,
             f"seeded reruns of tail/hightemp/lowtemp produce byte-identical "
             f"artifacts ({checked} files compared)")
