"""Experiment harness: exact verification battery and Monte Carlo studies.

Two kinds of work live here.  The exact battery enumerates small models and
checks every identity and bound against brute-force truth (decomposition,
row-sum inequality, exponential and moment bounds).  The Monte Carlo
experiments estimate tails on volumes far beyond enumeration: a
high-temperature run checks the exponential bound with an exactly computed
decay constant, a low-temperature run fits decay profiles and a stretched
exponential on held-out splits.

Every Monte Carlo verdict uses the conservative end of a 99% confidence
interval; exact-path results never touch a random number generator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats as sstats

from spinconc import bounds, coupling, fields, models
from spinconc.bounds import BoundReport, BoundRow, classify_tail_row
from spinconc.coupling import TailProfile
from spinconc.errors import ConfigError
from spinconc.fields import LocalFunction
from spinconc.lattice import l1_distance
from spinconc.models import (ExactJoint, GibbsModel, Model, ProductModel,
                             SITE_PERCOLATION_PC_2D)

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

_TOLERANCES = {
    "decomposition": 1e-10,
    "backbone": 1e-9,
    "tail_grid": 1e-12,
    "moment": 1e-9,
}


# ---------------------------------------------------------------------------
# battery registry
# ---------------------------------------------------------------------------

def battery_models(seed: int = 101) -> list[Model]:
    """Eleven exactly enumerable models spanning the implemented families.

    The three chain transition matrices are random but fixed by `seed`, so
    the battery is reproducible and still exercises asymmetric kernels.
    """
    rng = np.random.default_rng(seed)
    out: list[Model] = [
        models.iid_spins(6, 0.5),
        models.iid_spins(6, 0.7),
        models.iid_spins(10, 0.5),
    ]
    for j in range(3):
        stay = rng.uniform(0.15, 0.85, size=2)
        init = rng.uniform(0.2, 0.8)
        out.append(models.MarkovChainModel(
            6,
            np.array([init, 1.0 - init]),
            np.array([[stay[0], 1.0 - stay[0]], [1.0 - stay[1], stay[1]]]),
            name=f"markov[6]_r{j}",
        ))
    out.append(models.ising_segment(6, 0.7, "plus"))
    out.append(models.ising_segment(6, 0.4, "minus"))
    out.append(models.ising_rect(2, 3, 0.5, "plus"))
    out.append(models.ising_rect(2, 3, 0.5, "minus"))
    out.append(models.ising_rect(2, 3, 0.25, "free"))
    return out


def battery_functions(model: Model) -> list[LocalFunction]:
    """Four observables per model: global, single-site, nonlinear, pair."""
    s = model.sites
    return [
        fields.total_spin(s),
        fields.single_spin(s[0]),
        fields.majority(s[:3]),
        fields.pair_product(s[0], s[1]),
    ]


# ---------------------------------------------------------------------------
# row-sum inequality check
# ---------------------------------------------------------------------------

def backbone_check(joint: ExactJoint, g: LocalFunction,
                   decomposition=None, corrupt_entry=None, values=None):
    """Worst violation of |V_i(sigma)| <= sum_y D_{i,y}(past) delta_y g.

    Returns (max over sigma, i of |V_i| - rhs, witness (i, flat config)).
    `values[i]`, when given, is `coupling_rows_all(joint, i).value`, shared
    by a caller that checks several observables on one joint; by default the
    bands are computed here.  `corrupt_entry=(i, y)` zeroes column y of the
    row-i coupling values in a copy, a deliberate sabotage hook used to
    confirm the check has teeth.
    """
    dec = decomposition or bounds.martingale_decomposition(joint, g)
    dv = fields.delta_vector(g, joint.sites, joint.alphabet)
    m, k = joint.n_sites, joint.k
    conf = np.arange(k ** m)
    support = dec.support.reshape(-1)
    worst = -math.inf
    witness = (0, 0)
    for i in range(m):
        value = (coupling.coupling_rows_all(joint, i).value if values is None
                 else values[i])
        if corrupt_entry is not None and corrupt_entry[0] == i:
            value = value.copy()
            value[:, corrupt_entry[1]] = 0.0
        rhs = (value @ dv.per_site)[conf // k ** (m - i)]
        gap = np.abs(dec.increments[i].reshape(-1)) - rhs
        gap = np.where(support, gap, -math.inf)
        j = int(gap.argmax())
        if gap[j] > worst:
            worst = float(gap[j])
            witness = (i, j)
    return worst, witness


# ---------------------------------------------------------------------------
# exact battery
# ---------------------------------------------------------------------------

def _observable_rows(model: Model, joint: ExactJoint, g: LocalFunction,
                     values: list[np.ndarray], env_norm: float,
                     moment_norm: dict[int, float], t_points: int) -> list[BoundRow]:
    """The exact rows of one observable, on its model's shared bands and norms."""
    dec = bounds.martingale_decomposition(joint, g)
    dv = fields.delta_vector(g, joint.sites, joint.alphabet)
    name, fname = model.name, g.name
    rows = []

    def exact_row(label, theoretical, observed, tol, params=None, note=""):
        return classify_tail_row(
            BoundRow(name, fname, label, params or {}, theoretical,
                     observed=observed, observed_kind="exact", note=note),
            tol=tol)

    rows.append(exact_row("decomposition_telescoping",
                          _TOLERANCES["decomposition"],
                          dec.telescoping_error(), 0.0))
    rows.append(exact_row("decomposition_martingale",
                          _TOLERANCES["decomposition"],
                          dec.conditional_mean_error(), 0.0))
    rows.append(exact_row("decomposition_orthogonality",
                          _TOLERANCES["decomposition"],
                          dec.orthogonality_error(), 0.0))

    viol, witness = backbone_check(joint, g, decomposition=dec, values=values)
    rows.append(exact_row("backbone_rowsum", _TOLERANCES["backbone"], viol, 0.0,
                          params={"witness_row": witness[0],
                                  "witness_config": witness[1]}))

    # centered once for the whole tail grid and every moment; each tail sum
    # is the one ExactJoint.exact_tail makes, term for term
    centered = dec.g_table - dec.mean
    distance = np.abs(centered)
    t_max = float(distance[dec.support].max()) if dec.support.any() else 0.0
    grid = np.linspace(0.0, t_max, t_points)
    worst_gap = -math.inf
    for t in grid:
        tail = float(joint.probs[distance >= float(t)].sum())
        worst_gap = max(worst_gap,
                        tail - bounds.exponential_bound(float(t), env_norm, dv.l2))
    rows.append(exact_row("tail_exponential_grid", 0.0, worst_gap,
                          _TOLERANCES["tail_grid"],
                          params={"envelope_norm": env_norm, "delta_l2": dv.l2,
                                  "t_max": t_max, "t_points": t_points}))

    moment = {q: float((joint.probs * centered ** q).sum()) for q in (2, 4, 6)}
    var = moment[2]
    norm2 = moment_norm[2]
    rows.append(exact_row("variance", bounds.variance_bound(norm2, dv.l2), var,
                          _TOLERANCES["moment"], params={"moment2_norm": norm2}))
    for p in (1, 2, 3):
        norm_2p = moment_norm[2 * p]
        rows.append(exact_row(
            f"moment_p{p}", bounds.moment_bound(p, norm_2p, dv.l2),
            moment[2 * p], _TOLERANCES["moment"],
            params={"p": p, "moment_norm": norm_2p}))
    if isinstance(model, ProductModel):
        rows.append(exact_row("variance_independent", dv.l2_squared, var,
                              _TOLERANCES["moment"]))
    return rows


def _battery_task(model: Model, functions: list[LocalFunction],
                  t_points: int) -> list[BoundRow]:
    """Every exact row of one model, observable by observable.

    Each coupling band is computed once: its envelope and moment rows are
    taken as it is produced, then only its `value` array is kept, for the
    backbone check of every observable.  The envelope norm and the moment
    norms of orders 2, 4 and 6 do not depend on the observable either.
    """
    joint = models.exact_joint(model)
    values = []

    def bands():
        for i in range(joint.n_sites):
            band = coupling.coupling_rows_all(joint, i)
            values.append(band.value)
            yield band

    env = coupling.envelope_and_moment_matrices(joint, p_orders=(2, 4, 6),
                                                bands=bands())
    env_norm = bounds.operator_norm_l2(env.envelope)
    moment_norm = {q: bounds.operator_norm_l2(env.moment[q]) for q in (2, 4, 6)}
    return [row for g in functions
            for row in _observable_rows(model, joint, g, values, env_norm,
                                        moment_norm, t_points)]


def exact_battery(model_list=None, function_factory=None, threads: int = 0,
                  t_points: int = 20, seed: int = 101) -> BoundReport:
    """Run every exact check over the battery; no verdict tolerates a violation.

    `function_factory(model)` supplies the observables per model (the
    defaults live in `battery_functions`).  One task per model builds the
    joint and its coupling bands once and checks every observable on them.
    Tasks are independent, so they run on a thread pool; `threads=0` picks
    the machine's CPU count.  Rows come out in model order whatever the
    thread count.
    """
    model_list = battery_models(seed) if model_list is None else model_list
    factory = function_factory or battery_functions
    tasks = [(m, factory(m)) for m in model_list]
    workers = threads if threads > 0 else (os.cpu_count() or 1)
    if workers == 1:
        chunks = [_battery_task(m, fs, t_points) for m, fs in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda mf: _battery_task(*mf, t_points), tasks))
    report = BoundReport(meta={
        "experiment": "exact_battery",
        "models": [m.name for m in model_list],
        "functions_per_model": len(tasks[0][1]),
        "battery_seed": seed,
        "t_points": t_points,
        "tolerances": dict(_TOLERANCES),
    })
    for chunk in chunks:
        for row in chunk:
            report.add(row)
    return report


# ---------------------------------------------------------------------------
# Monte Carlo tail estimation
# ---------------------------------------------------------------------------

@dataclass
class TailEstimate:
    """One tail point P(|g - Eg| >= t) with a 99% confidence interval.

    The mean is estimated on an independent batch; its uncertainty enters as
    the shift t -> t_effective (three standard errors), which can only
    enlarge the counted event, keeping one-sided comparisons conservative.
    """

    t: float
    t_effective: float
    estimate: float
    n_samples: int
    lo: float
    hi: float
    kind: str = "mc"

    @property
    def half_width(self) -> float:
        return max(self.hi - self.estimate, self.estimate - self.lo)


def binomial_ci99(k: int, n: int) -> tuple[float, float]:
    """Two-sided 99% interval for a binomial proportion.

    Normal approximation once both tails hold >= 30 counts, Clopper-Pearson
    otherwise; the exact interval at k = 0 is what makes "bound below the
    resolvable floor" a well-defined notion in the reports.
    """
    if n <= 0 or k < 0 or k > n:
        raise ValueError("need 0 <= k <= n with n positive")
    p = k / n
    if min(k, n - k) >= 30:
        hw = Z99 * math.sqrt(p * (1.0 - p) / n)
        return max(p - hw, 0.0), min(p + hw, 1.0)
    lo = float(sstats.beta.ppf(0.005, k, n - k + 1)) if k > 0 else 0.0
    hi = float(sstats.beta.ppf(0.995, k + 1, n - k)) if k < n else 1.0
    return lo, hi


def _g_columns(model: Model, g: LocalFunction) -> list[int]:
    return [model.sites.index(tuple(s)) for s in g.sites]


def empirical_tail(model: Model, g: LocalFunction, t_grid, n_samples: int,
                   sweeps: int, seed: int, start: str = "plus") -> list[TailEstimate]:
    """Replicated tail estimates at each t in `t_grid`.

    Replicas come from `models.glauber_batch`: exact draws for product and
    Markov models, independent heat-bath chains for Gibbs models.  The mean
    batch of max(1000, n_samples // 5) further replicas and the main batch
    each get their own seed, both drawn from `seed`.
    """
    if n_samples < 1000:
        raise ConfigError("tail estimation needs at least 1000 replicas")
    rng = np.random.default_rng(seed)
    seed_mean, seed_main = (int(s) for s in rng.integers(2 ** 63, size=2))
    cols = _g_columns(model, g)
    n_mean = max(1000, n_samples // 5)
    g_mean = g.eval_batch(
        models.glauber_batch(model, n_mean, sweeps, seed_mean, start)[:, cols])
    m_hat = float(g_mean.mean())
    se_mean = float(g_mean.std(ddof=1) / math.sqrt(n_mean))
    gs = g.eval_batch(
        models.glauber_batch(model, n_samples, sweeps, seed_main, start)[:, cols])
    dev = np.abs(gs - m_hat)
    out = []
    for t in np.asarray(t_grid, dtype=float):
        t_eff = max(float(t) - 3.0 * se_mean, 0.0)
        k = int((dev >= t_eff).sum())
        lo, hi = binomial_ci99(k, n_samples)
        out.append(TailEstimate(float(t), t_eff, k / n_samples, n_samples, lo, hi))
    return out


def tails_to_csv(estimates: list[TailEstimate]) -> str:
    lines = ["t,t_effective,estimate,lo,hi,n_samples,kind"]
    for e in estimates:
        lines.append(",".join([repr(e.t), repr(e.t_effective), repr(e.estimate),
                               repr(e.lo), repr(e.hi), str(e.n_samples), e.kind]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# high-temperature experiment
# ---------------------------------------------------------------------------

def fit_decay_constant(beta: float, boundary, fit_rows: int, fit_cols: int,
                       floor: float = 1e-14):
    """Largest C with envelope(x, y) <= exp(-C |x-y|) on an enumerated volume.

    Entries at or below `floor` carry no information at double precision and
    are excluded.  Returns (C, number of entries used); C is +inf when no
    entry resolves (the independent-spin limit).
    """
    fit_model = models.ising_rect(fit_rows, fit_cols, beta, boundary)
    env = coupling.envelope_and_moment_matrices(
        models.exact_joint(fit_model), p_orders=(2,)).envelope
    sites = fit_model.sites
    best = math.inf
    used = 0
    for i in range(len(sites)):
        for j in range(len(sites)):
            if i == j or env[i, j] <= floor:
                continue
            used += 1
            best = min(best, -math.log(env[i, j]) / l1_distance(sites[i], sites[j]))
    return best, used


@dataclass
class HightempConfig:
    """High-temperature run: exact applicability check + empirical tails."""

    seed: int
    rows: int = 8
    cols: int = 8
    beta: float = 0.1
    boundary: str = "plus"
    n_samples: int = 100000
    sweeps: int = 40
    t_multipliers: tuple = (0.5, 1.0, 2.0, 4.0, 8.0)
    fit_rows: int = 4
    fit_cols: int = 4
    start: str = "plus"

    def as_dict(self) -> dict:
        d = asdict(self)
        d["t_multipliers"] = list(self.t_multipliers)
        return d


def hightemp_experiment(config: HightempConfig) -> BoundReport:
    """Check the exponential tail bound with an exactly fitted decay rate.

    The single-site variation condition is computed exactly on the run's own
    geometry; the decay constant C comes from the enumerated envelope of a
    small volume with the same interaction.  When the condition fails, the
    tail rows are reported as informational: the data stays, the claim goes.
    """
    model = models.ising_rect(config.rows, config.cols, config.beta, config.boundary)
    g = fields.magnetization(model.sites, normalized=True)
    dv = fields.delta_vector(g, model.sites, model.alphabet)

    p_tv = models.dobrushin_matrix(model).p_sup_tv
    p_raw = 2.0 * p_tv  # doubled convention; can exceed 1 nominally
    report = BoundReport(meta={
        "experiment": "high_temperature_tail",
        "config": config.as_dict(),
        "delta_l2": dv.l2,
        "p_c_site_2d": SITE_PERCOLATION_PC_2D,
    })
    p_row = classify_tail_row(
        BoundRow(model.name, g.name, "percolation_condition", {}, SITE_PERCOLATION_PC_2D,
                 observed=p_tv, observed_kind="exact",
                 note=f"coupling disagreement probability; doubled convention "
                      f"gives {min(p_raw, 1.0)!r} (clipped)"),
        tol=0.0)
    report.add(p_row)
    applicable = p_row.verdict == "pass"

    c_fit, n_entries = fit_decay_constant(config.beta, config.boundary,
                                          config.fit_rows, config.fit_cols)
    if c_fit <= 0.0:
        applicable = False
        prefactor = math.inf
    else:
        prefactor = 1.0 if math.isinf(c_fit) else 1.0 / (1.0 - math.exp(-2.0 * c_fit))
    report.meta["decay_constant"] = c_fit
    report.meta["prefactor"] = prefactor
    report.add(BoundRow(model.name, g.name, "decay_fit",
                        {"fit_rows": config.fit_rows, "fit_cols": config.fit_cols,
                         "entries_used": n_entries},
                        c_fit, verdict="info",
                        note="smallest -log(envelope)/distance over the enumerated volume"))

    t_grid = [m * dv.l2 for m in config.t_multipliers]
    estimates = empirical_tail(model, g, t_grid, config.n_samples,
                               config.sweeps, config.seed, config.start)
    floor = binomial_ci99(0, config.n_samples)[1]
    report.meta["mc_floor"] = floor
    report.meta["mean_shift"] = estimates[0].t - estimates[0].t_effective
    for mult, est in zip(config.t_multipliers, estimates):
        bound = bounds.exponential_bound(est.t, math.sqrt(prefactor), dv.l2)
        row = BoundRow(model.name, g.name, "tail_exponential",
                       {"t_multiplier": mult, "t_effective": est.t_effective,
                        "resolvable": bool(bound >= floor)},
                       bound, observed=est.estimate, observed_lo=est.lo,
                       observed_hi=est.hi, observed_kind="mc")
        if not applicable:
            row.verdict = "info"
            row.note = "condition failed: exponential bound not claimed"
            report.add(row)
            continue
        if bound < floor:
            row.note = f"bound below the resolvable floor {floor!r}"
        report.add(classify_tail_row(row))
    return report


# ---------------------------------------------------------------------------
# path-magnetization statistic
# ---------------------------------------------------------------------------

def _max_chain_start_sum(points: np.ndarray) -> np.ndarray:
    """For sorted lattice points, dp[j, k] = best (largest) coordinate sum of
    the start of a componentwise nondecreasing chain of size k+1 ending at j."""
    m = len(points)
    dp = np.full((m, m), -np.inf)
    sums = points.sum(axis=1).astype(float)
    dp[:, 0] = sums
    for j in range(m):
        for i in range(j):
            if points[i, 0] <= points[j, 0] and points[i, 1] <= points[j, 1]:
                dp[j, 1:] = np.maximum(dp[j, 1:], dp[i, :-1])
    return dp


def _min_span_by_size(points: np.ndarray) -> np.ndarray:
    """minspan[k-1] = smallest path span of a size-k nondecreasing chain."""
    if len(points) == 0:
        return np.array([])
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]
    dp = _max_chain_start_sum(pts)
    sums = pts.sum(axis=1).astype(float)
    spans = (sums[:, None] - dp) + 1.0
    return spans.min(axis=0)


def ell_statistic(spins: np.ndarray, theta: float = 0.9) -> int:
    """Smallest n such that every directed lattice path with >= n sites has
    average spin >= theta.

    Directed paths (each step increases one coordinate) are the computable
    core of the path family: the minus sites on such a path always form a
    chain in one of the two diagonal orderings, so the longest "bad" path
    length reduces to chain statistics over the minus set.  A path of L
    sites containing k minus spins has average below theta exactly when
    L(1 - theta) < 2k; geometry caps L at rows + cols - 1.
    """
    if not 0.0 < theta <= 1.0:
        raise ConfigError("theta must lie in (0, 1]")
    rows, cols = spins.shape
    l_box = rows + cols - 1
    pos = np.argwhere(spins < 0)
    if len(pos) == 0:
        return 0
    flipped = pos.copy()
    flipped[:, 1] = -flipped[:, 1]
    best = 0
    for pts in (pos, flipped):
        minspan = _min_span_by_size(pts)
        for k in range(1, len(minspan) + 1):
            if not np.isfinite(minspan[k - 1]):
                continue
            if theta >= 1.0:
                longest_bad = l_box  # any path through a minus is bad
            else:
                q = 2.0 * k / (1.0 - theta)
                qr = round(q)
                # largest integer strictly below q, robust to float noise
                budget = qr - 1 if abs(q - qr) < 1e-9 else math.floor(q)
                longest_bad = min(int(budget), l_box)
            if minspan[k - 1] <= longest_bad:
                best = max(best, longest_bad + 1)
    return best


def ell_samples(model: GibbsModel, n_samples: int, sweeps: int, seed: int,
                theta: float, start: str = "plus") -> np.ndarray:
    """Path-magnetization statistic on independent equilibrium samples."""
    rows, cols, to_grid = models.grid_layout(model)
    vals = models.glauber_block_batch(model, n_samples, sweeps, seed, start)
    grids = np.zeros((n_samples, rows * cols))
    grids[:, to_grid] = vals
    grids = grids.reshape(n_samples, rows, cols)
    out = np.zeros(n_samples, dtype=np.int64)
    has_minus = np.nonzero((grids < 0).any(axis=(1, 2)))[0]
    for idx in has_minus:
        out[idx] = ell_statistic(grids[idx], theta)
    return out


# ---------------------------------------------------------------------------
# low-temperature experiment
# ---------------------------------------------------------------------------

@dataclass
class LowtempConfig:
    """Low-temperature run: decay ranking, profile fits, held-out tail bound."""

    seed: int
    rows: int = 16
    cols: int = 16
    beta: float = 1.0
    boundary: str = "plus"
    frozen: int = 0            # spiral origin = volume center
    n_pair: int = 80000
    n_tail: int = 100000
    n_ell: int = 20000
    sweeps: int = 60
    theta: float = 0.9
    quantiles: tuple = (0.5, 0.75, 0.9, 0.99, 0.999)
    kappa: float = 3.0
    spearman_dmax: int = 3
    p_list: tuple = (1, 2, 3)
    rho_grid: tuple = (0.25, 0.5)
    eps: float = 0.5
    start: str = "plus"

    def as_dict(self) -> dict:
        d = asdict(self)
        for key in ("quantiles", "p_list", "rho_grid"):
            d[key] = list(d[key])
        return d


def _loglinear_fit(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    ssr = float(((y - (slope * x + intercept)) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ssr / sst if sst > 0.0 else (1.0 if ssr == 0.0 else 0.0)
    return float(slope), float(intercept), r2


def lowtemp_experiment(config: LowtempConfig) -> tuple[TailProfile, BoundReport]:
    """Fitted decay and tail study in the ordered phase; all fits labeled mc.

    Three independent sample streams: a synchronized pair chain for the
    disagreement field, equilibrium replicas for the path-magnetization
    statistic, and two equal tail splits (fit on A, verdict on B) plus a
    mean batch.  Fit degeneracies are reported as such; no verdict is forced
    from a degenerate fit.
    """
    model = models.ising_rect(config.rows, config.cols, config.beta, config.boundary)
    g = fields.magnetization(model.sites, normalized=True)
    dv = fields.delta_vector(g, model.sites, model.alphabet)
    cols = _g_columns(model, g)
    rng = np.random.default_rng(config.seed)
    seed_pair, seed_mean, seed_a, seed_b, seed_ell = (
        int(s) for s in rng.integers(2 ** 63, size=5))

    report = BoundReport(meta={
        "experiment": "low_temperature_tail",
        "config": config.as_dict(),
        "delta_l2": dv.l2,
    })

    # --- disagreement field from the synchronized pair chain ---------------
    pair = coupling.coupled_glauber_disagreement(
        model, config.n_pair, config.sweeps, seed_pair, frozen=config.frozen)
    x_site = model.sites[config.frozen]
    dists = np.array([l1_distance(x_site, y) for y in model.sites])
    pair_floor = 5.0 / config.n_pair
    report.meta["monotone_violations"] = pair.monotone_violations

    sel = (dists >= 1) & (dists <= config.spearman_dmax)
    rho_s, p_s = sstats.spearmanr(dists[sel], pair.disagree[sel])
    observed_p = float(p_s) if rho_s < 0 else 1.0
    report.add(classify_tail_row(
        BoundRow(model.name, "disagreement", "decay_rank_test",
                 {"n_sites": int(sel.sum()), "d_max": config.spearman_dmax,
                  "spearman_rho": float(rho_s)},
                 0.01, observed=observed_p, observed_lo=observed_p,
                 observed_hi=observed_p, observed_kind="mc",
                 note="p-value of the one-sided rank-decay test"),
        tol=0.0))

    # --- per-distance envelope profile and its exponential fit -------------
    d_max = int(dists.max())
    psi_hat = np.zeros(d_max)
    for j in range(1, d_max + 1):
        on_shell = pair.disagree[dists == j]
        psi_hat[j - 1] = float(on_shell.max()) if on_shell.size else 0.0
    fit_js = np.nonzero(psi_hat > pair_floor)[0] + 1
    if len(fit_js) >= 2:
        slope, intercept, r2 = _loglinear_fit(
            fit_js.astype(float), np.log(psi_hat[fit_js - 1]))
        report.add(BoundRow(model.name, "disagreement", "psi_exponential_fit",
                            {"n_points": int(len(fit_js)), "r_squared": r2,
                             "noise_floor": pair_floor},
                            -slope, verdict="info",
                            note=f"psi(j) ~ C exp(-c j): c = {-slope!r}, "
                                 f"log C = {intercept!r}"))
    else:
        report.add(BoundRow(model.name, "disagreement", "psi_exponential_fit",
                            {"n_points": int(len(fit_js))}, math.nan,
                            verdict="info",
                            note="degenerate: too few points above the noise floor"))

    # --- path-magnetization statistic ---------------------------------------
    ells = ell_samples(model, config.n_ell, config.sweeps, seed_ell,
                       config.theta, config.start)
    j_cap = config.rows + config.cols  # geometric bound on the statistic
    ell_tail = coupling.tail_from_samples(ells, j_cap)
    ell_floor = 5.0 / config.n_ell
    pts = np.nonzero((ell_tail > ell_floor) & (ell_tail < 1.0))[0] + 1
    # the statistic is box-censored, so the survival curve is a step
    # function; a fit needs at least two distinct levels
    n_levels = len(np.unique(np.round(ell_tail[pts - 1], 12))) if len(pts) else 0
    if len(pts) >= 2 and n_levels >= 2:
        xs = np.log(pts.astype(float))
        ys = np.log(-np.log(ell_tail[pts - 1]))
        alpha_hat, log_c, r2 = _loglinear_fit(xs, ys)
        report.add(BoundRow(model.name, "path_magnetization", "ell_stretched_fit",
                            {"n_points": int(len(pts)), "r_squared": r2,
                             "theta": config.theta, "alpha": alpha_hat},
                            math.exp(log_c), verdict="info",
                            note="P(ell >= n) ~ exp(-c n^alpha); theoretical "
                                 "column holds c"))
    else:
        report.add(BoundRow(model.name, "path_magnetization", "ell_stretched_fit",
                            {"n_points": int(len(pts)), "n_levels": n_levels,
                             "theta": config.theta},
                            math.nan, verdict="info",
                            note="degenerate: too few resolvable tail levels"))
    profile = TailProfile(ell0_tail=ell_tail, psi=psi_hat,
                          ell0_rest=0.0, psi_rest=0.0)

    # --- held-out stretched-exponential tail bound -------------------------
    n_mean = max(1000, config.n_tail // 5)
    n_split = (config.n_tail - n_mean) // 2
    if n_split < 1000:
        raise ConfigError("tail splits need at least 1000 replicas each")

    def g_values(n, seed):
        return g.eval_batch(models.glauber_batch(model, n, config.sweeps, seed,
                                                 config.start)[:, cols])

    g_mean = g_values(n_mean, seed_mean)
    m_hat = float(g_mean.mean())
    se_mean = float(g_mean.std(ddof=1) / math.sqrt(n_mean))
    dev_a = np.abs(g_values(n_split, seed_a) - m_hat)
    dev_b = np.abs(g_values(n_split, seed_b) - m_hat)
    t_grid = np.quantile(dev_a, config.quantiles)
    report.meta["t_grid"] = [float(t) for t in t_grid]
    report.meta["mean_se"] = se_mean

    def split_tail(dev, t):
        t_eff = max(float(t) - 3.0 * se_mean, 0.0)
        k = int((dev >= t_eff).sum())
        lo, hi = binomial_ci99(k, len(dev))
        return TailEstimate(float(t), t_eff, k / len(dev), len(dev), lo, hi)

    tails_a = [split_tail(dev_a, t) for t in t_grid]
    tails_b = [split_tail(dev_b, t) for t in t_grid]

    fit_pts = [e for e in tails_a if 0.0 < e.estimate < 1.0 and e.t > 0.0]
    if fit_pts:
        if len({e.t for e in fit_pts}) >= 2:
            xs = np.array([math.log(e.t / dv.l2) for e in fit_pts])
            ys = np.array([math.log(-math.log(e.estimate / 4.0)) for e in fit_pts])
            slope, _, r2 = _loglinear_fit(xs, ys)
            rho_hat = min(max(slope, 0.05), 1.0)
        else:
            # One level (a single point, or quantiles tied on an atom of a
            # discrete observable) fixes no slope.  Every grid point lies at
            # or below that level, where rho = 1, the largest admissible
            # value, gives the largest bound.
            slope, r2, rho_hat = math.nan, math.nan, 1.0
        c_hat = min(
            (dv.l2 / e.t) ** rho_hat
            * -math.log(min(config.kappa * e.hi, 3.999) / 4.0)
            for e in fit_pts)
        report.add(BoundRow(model.name, g.name, "stretched_fit",
                            {"rho": rho_hat, "raw_slope": float(slope),
                             "r_squared": r2, "kappa": config.kappa,
                             "n_points": len(fit_pts)},
                            c_hat, verdict="info",
                            note="split-A constants; theoretical column holds c"))
        floor_b = binomial_ci99(0, n_split)[1]
        for alpha, est in zip(config.quantiles, tails_b):
            bound = bounds.stretched_bound(est.t, rho_hat, c_hat, dv.l2)
            row = BoundRow(model.name, g.name, "tail_stretched_heldout",
                           {"quantile": alpha, "t": est.t,
                            "t_effective": est.t_effective,
                            "resolvable": bool(bound >= floor_b)},
                           bound, observed=est.estimate, observed_lo=est.lo,
                           observed_hi=est.hi, observed_kind="mc")
            if bound < floor_b:
                row.note = f"bound below the resolvable floor {floor_b!r}"
            report.add(classify_tail_row(row))
    else:
        report.add(BoundRow(model.name, g.name, "stretched_fit",
                            {"n_points": 0}, math.nan, verdict="info",
                            note="degenerate: no resolvable split-A points"))

    # --- informational bound assemblies from the fitted profile ------------
    for p in config.p_list:
        report.add(BoundRow(model.name, g.name, f"profile_norm_p{p}",
                            {"p": int(p)}, profile.norm_bound(int(p)),
                            verdict="info",
                            note="tail-profile norm assembly (empirical inputs)"))
        moment = float(np.mean(ells.astype(float) ** (2 * p * 2 + config.eps)))
        report.add(BoundRow(model.name, g.name, f"profile_moment_p{p}",
                            {"p": int(p), "eps": config.eps,
                             "ell_moment": moment},
                            bounds.profile_moment_bound(int(p), config.eps, moment,
                                                        float(psi_hat.sum()), dv.l2),
                            verdict="info",
                            note="zeta-interpolated moment assembly (empirical inputs)"))
    for rho in config.rho_grid:
        lux = bounds.luxembourg_norm(dev_a, rho=rho)
        t_top = float(t_grid[-1])
        cheb = bounds.orlicz_chebyshev_bound(t_top, rho, lux) if t_top > 0 else math.inf
        report.add(BoundRow(model.name, g.name, f"orlicz_norm_rho{rho:g}",
                            {"rho": rho, "t": t_top, "chebyshev_bound": cheb},
                            lux, verdict="info",
                            note="split-A Luxembourg norm; theoretical column holds it"))
    return profile, report


# ---------------------------------------------------------------------------
# config plumbing and artifacts
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc


def _config_from_dict(cls, cfg: dict, kind: str):
    """Build the config dataclass `cls` from a JSON-style dict.

    The dataclass fields are the allowed keys and their defaults the
    defaults; a field without a default, or a key set to null, is missing.
    `int` fields are coerced with int() and `tuple` fields to tuples whose
    entries take the type of the default's entries; other values are kept
    as given, so the artifact digests see them unchanged.
    """
    specs = dataclasses.fields(cls)
    unknown = set(cfg) - {f.name for f in specs}
    if unknown:
        raise ConfigError(f"unknown {kind} config keys: {sorted(unknown)}")
    merged = {f.name: cfg.get(f.name, f.default) for f in specs}
    missing = [k for k, v in merged.items() if v is None or v is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{kind} config is missing required keys: {missing}")
    for f in specs:
        if f.type == "int":
            merged[f.name] = int(merged[f.name])
        elif f.type == "tuple":
            merged[f.name] = tuple(type(f.default[0])(x) for x in merged[f.name])
    return cls(**merged)


def hightemp_config_from_dict(cfg: dict) -> HightempConfig:
    return _config_from_dict(HightempConfig, cfg, "high-temperature")


def lowtemp_config_from_dict(cfg: dict) -> LowtempConfig:
    return _config_from_dict(LowtempConfig, cfg, "low-temperature")


def config_digest(cfg: dict, seed: int) -> str:
    canon = json.dumps({"config": cfg, "seed": seed}, sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:8]


def write_artifacts(out_dir: str, stem: str, report: BoundReport | None = None,
                    tables: dict[str, str] | None = None) -> list[str]:
    """Write report JSON/CSV plus any named text tables; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if report is not None:
        for ext, text in (("json", report.to_json()), ("csv", report.to_csv())):
            path = os.path.join(out_dir, f"{stem}.{ext}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
    for name, text in (tables or {}).items():
        path = os.path.join(out_dir, f"{stem}_{name}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)
    return written
