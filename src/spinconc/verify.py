"""Experiment harness: exact verification battery and Monte Carlo studies.

Two kinds of work live here.  The exact battery enumerates small models and
checks every identity and bound against brute-force truth (decomposition,
row-sum inequality, exponential and moment bounds).  The Monte Carlo
experiments estimate tails on volumes far beyond enumeration: a
high-temperature run checks the exponential bound with a decay constant
fitted on an enumerated 4x4 volume, a low-temperature run measures the
disagreement and path profiles and checks a stretched exponential fitted
and judged on held-out splits.  The path statistic, like the
magnetization, is an observable that the samplers reduce chunk by chunk,
8 bytes per replica.

Every Monte Carlo verdict uses the conservative end of a 99% confidence
interval; exact-path results never touch a random number generator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np
from scipy import stats as sstats

from spinconc import bounds, coupling, fields, models
from spinconc.bounds import BoundReport, BoundRow, classify_tail_row
from spinconc.errors import CapacityError, ConfigError, _integer, _real
from spinconc.fields import LocalFunction
from spinconc.lattice import l1_distance
from spinconc.models import (ExactJoint, GibbsModel, MarkovChainModel, ProductModel,
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

def battery_models(seed: int) -> list[GibbsModel]:
    """Eleven exactly enumerable models spanning the implemented families.

    The three chain transition matrices are random but fixed by `seed`, so
    the battery is reproducible and still exercises asymmetric kernels.
    """
    rng = np.random.default_rng(seed)
    out: list[GibbsModel] = [
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


def battery_functions(model: GibbsModel) -> list[LocalFunction]:
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

def backbone_check(dec: bounds.MartingaleDecomposition, rhs: list[np.ndarray]):
    """Worst violation of |V_i| <= sum_y D_{i,y}(past) delta_y g.

    `rhs[i]` is that row sum for every past sigma_{<i}, flat over the k**i
    pasts in enumeration order: `coupling_rows_all(joint, i).value @
    delta_vector(g, ...).per_site`.  Row i compares |V_i| with it on every
    positive-mass prefix sigma_{<=i}.  Returns (max over i and prefixes of
    |V_i| - rhs, witness (i, flat config)); the witness config is the first
    positive-probability configuration under the worst prefix.
    """
    joint = dec.joint
    support = dec.support.reshape(-1)
    worst = -math.inf
    witness = (0, 0)
    for i, v in enumerate(dec.increments):
        gap = np.abs(v.reshape(-1)) - np.repeat(rhs[i], joint.k)
        gap = np.where(joint.prefix_marginal(i).reshape(-1) > 0.0, gap, -math.inf)
        q = int(gap.argmax())
        if gap[q] > worst:
            worst = float(gap[q])
            block = support.size // gap.size
            witness = (i, q * block + int(support[q * block:(q + 1) * block].argmax()))
    return worst, witness


# ---------------------------------------------------------------------------
# exact battery
# ---------------------------------------------------------------------------

def _observable_rows(model: GibbsModel, joint: ExactJoint, g: LocalFunction,
                     dv: fields.DeltaVector, rhs: list[np.ndarray], env_norm: float,
                     moment_norm: dict[int, float], t_points: int) -> list[BoundRow]:
    """The exact rows of one observable, from its oscillation vector `dv`,
    its backbone row sums `rhs` and its model's shared norms."""
    dec = bounds.martingale_decomposition(joint, g)
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

    viol, witness = backbone_check(dec, rhs)
    rows.append(exact_row("backbone_rowsum", _TOLERANCES["backbone"], viol, 0.0,
                          params={"witness_row": witness[0],
                                  "witness_config": witness[1]}))

    # one law for the whole tail grid and every moment, as ExactJoint.exact_tail
    # reads it; t_max skips levels of zero probability
    levels, weights = joint.law(dec.g_table, dec.mean)
    distance = np.abs(levels)
    t_max = float(distance[weights > 0.0].max(initial=0.0))
    worst_gap = max(float(weights[distance >= t].sum())
                    - bounds.exponential_bound(t, env_norm, dv.l2)
                    for t in map(float, np.linspace(0.0, t_max, t_points)))
    rows.append(exact_row("tail_exponential_grid", 0.0, worst_gap,
                          _TOLERANCES["tail_grid"],
                          params={"envelope_norm": env_norm, "delta_l2": dv.l2,
                                  "t_max": t_max, "t_points": t_points}))

    # q is even, so the law's merging of -0.0 with +0.0 changes nothing
    moment = {q: float(weights @ levels ** q) for q in (2, 4, 6)}
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


def _battery_task(model: GibbsModel, t_points: int) -> list[BoundRow]:
    """Every exact row of one model, observable by observable
    (`battery_functions(model)`).

    Each coupling band is computed once and reduced as it streams by: the
    envelope and moment matrices take their rows from it, and each
    observable takes its backbone row sums `band.value @ delta_g`.  No band
    outlives its row.  The envelope norm and the moment norms of orders 2,
    4 and 6 do not depend on the observable.
    """
    joint = models.exact_joint(model)
    functions = battery_functions(model)
    dvs = [fields.delta_vector(g, joint.sites, joint.alphabet) for g in functions]
    rhs = [[] for _ in functions]

    def bands():
        for i in range(joint.n_sites):
            band = coupling.coupling_rows_all(joint, i)
            for sums, dv in zip(rhs, dvs):
                sums.append(band.value @ dv.per_site)
            yield band

    env = coupling.envelope_and_moment_matrices(joint, p_orders=(2, 4, 6),
                                                bands=bands())
    env_norm = bounds.operator_norm_l2(env.envelope)
    moment_norm = {q: bounds.operator_norm_l2(env.moment[q]) for q in (2, 4, 6)}
    return [row for g, dv, sums in zip(functions, dvs, rhs)
            for row in _observable_rows(model, joint, g, dv, sums, env_norm,
                                        moment_norm, t_points)]


def exact_battery(model_list, t_points: int) -> BoundReport:
    """Run every exact check over `model_list`; no verdict tolerates a violation.

    One task per model builds the joint and its coupling bands once and
    checks every observable on them.  Tasks are independent, so they run on
    `models.ordered_map`'s thread pool, and rows come out in model order
    whatever the core count.  `t_points` below 1 is a ConfigError, raised
    before any joint is built: an empty tail grid checks nothing.  So is an
    empty `model_list`, and a model on fewer than two sites, which has no
    pair for `battery_functions` to take.
    """
    if t_points < 1:
        raise ConfigError("t_points must be at least 1")
    if not model_list:
        raise ConfigError("the battery needs at least one model")
    for m in model_list:
        if m.n_sites < 2:
            raise ConfigError(f"battery model {m.name} has {m.n_sites} site(s); "
                              "its pair observable needs two")
    chunks = list(models.ordered_map(lambda m: _battery_task(m, t_points), model_list))
    report = BoundReport(meta={
        "experiment": "exact_battery",
        "models": [m.name for m in model_list],
        "functions_per_model": len(battery_functions(model_list[0])),
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


def _check_replicas(**counts: int) -> None:
    """A CapacityError naming every count above `models.MAX_REPLICAS`."""
    over = [f"{name}={n}" for name, n in counts.items() if n > models.MAX_REPLICAS]
    if over:
        raise CapacityError(f"{', '.join(over)} above the replica cap "
                            f"of {models.MAX_REPLICAS}")


def _check_batch(n_samples: int, sweeps: int) -> None:
    """The rules every tail batch keeps: at least 1000 replicas and `sweeps`
    nonnegative; a ConfigError otherwise.  More than `models.MAX_REPLICAS`
    replicas is a CapacityError."""
    if n_samples < 1000:
        raise ConfigError(f"a tail batch needs at least 1000 replicas, got {n_samples}")
    if sweeps < 0:
        raise ConfigError("sweeps must be nonnegative")
    _check_replicas(n_samples=n_samples)


def _mean_size(n: int) -> int:
    """Replicas drawn to center a batch of n."""
    return max(1000, n // 5)


def _mean_batch(vals: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of the replicas of g drawn to center a batch."""
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def _tail_points(t_grid, se_mean: float, bias: float = 0.0) -> list[tuple[float, float]]:
    """(t, t_eff) for each t in `t_grid`: t_eff = max(t - 3 se_mean - bias, 0),
    the level a deviation must reach to count at t; `bias` bounds how far
    the sampled mean may sit from the target law's."""
    return [(float(t), max(float(t) - 3.0 * se_mean - bias, 0.0))
            for t in np.asarray(t_grid, dtype=float)]


def _tail_counts(dev: np.ndarray, points) -> np.ndarray:
    """How many of the deviations `dev` reach each point's t_eff: int64,
    so a batch counted chunk by chunk sums to its whole count."""
    return np.array([(dev >= t_eff).sum() for _, t_eff in points], dtype=np.int64)


def _tail_estimates(points, counts: np.ndarray, n: int) -> list[TailEstimate]:
    """Tail points of a batch of n deviations |g - mean| from their counts
    at each (t, t_eff) of `points`, with a 99% binomial interval."""
    out = []
    for (t, t_eff), k in zip(points, counts.tolist()):
        lo, hi = binomial_ci99(k, n)
        out.append(TailEstimate(t, t_eff, k / n, n, lo, hi))
    return out


def _deviate(vals: np.ndarray, m_hat: float) -> np.ndarray:
    """|g - m_hat| on sampled values of g, in place."""
    vals -= m_hat
    return np.abs(vals, out=vals)


#: pairs of the grand coupling behind each mixing certificate, six chunks:
#: with none apart the certificate reads binomial_ci99(0, 6144)[1] = 8.6e-4,
#: under MIXING_BOUND (that takes at least 5300 pairs)
MIXING_PAIRS = 6144

#: the certified distance `hightemp`'s mixing_certificate row accepts
MIXING_BOUND = 1e-3


@dataclass
class MixingCertificate:
    """How far a sampled law may be from the kernel's stationary law.

    `apart` of `pairs` pairs of the grand coupling (`coupling.
    coalescence_batch`) were still apart after `sweeps` sweeps; [lo, hi] is
    the 99% `binomial_ci99` interval on P(tau > sweeps), and hi bounds the
    total-variation distance of the law after `sweeps` sweeps from any start.
    The kernel's stationary law is the target's with each update's
    conditional rounded to 2^-24 (`models._heat_bath`).
    """

    pairs: int
    sweeps: int
    apart: int
    lo: float
    hi: float


def mixing_certificate(sweeps: int, parts: Iterable[int]) -> MixingCertificate:
    """The certificate from a `coupling.coalescence_batch`'s parts, which it
    reads to their end and sums."""
    apart = sum(parts)
    lo, hi = binomial_ci99(apart, MIXING_PAIRS)
    return MixingCertificate(MIXING_PAIRS, sweeps, apart, lo, hi)


def _widen(est: TailEstimate, d: float) -> TailEstimate:
    """A tail estimate whose interval covers every law within d of the
    sampled one in total variation."""
    return dataclasses.replace(est, lo=max(est.lo - d, 0.0), hi=min(est.hi + d, 1.0))


def empirical_tail(model: GibbsModel, g: LocalFunction, t_grid, n_samples: int, sweeps: int,
                   seed: int) -> tuple[list[TailEstimate], MixingCertificate | None]:
    """Replicated tail estimates at each t in `t_grid`, and the mixing
    certificate of a kernel-sampled law (None for exact draws).

    Replicas come from `models.observable_batch`: exact draws for product
    and Markov models, independent heat-bath chains from all-plus for Gibbs
    models, reduced to g chunk by chunk.  A Gibbs model's law is certified
    by MIXING_PAIRS pairs of the grand coupling run for the same `sweeps`
    (`coupling.coalescence_batch`): with d the certificate's upper end, every
    interval widens by d, since |P_t(A) - pi(A)| <= d, and t_eff moves down
    by d (max g - min g), since the mean batch comes from the same chain.
    Each interval and the certificate hold with 99% probability, so both
    hold with at least 98% (a union bound).  The certificate needs ordered
    legs: a Gibbs model at beta < 0 is a ConfigError.

    The certificate's pairs, the mean batch (`_mean_size(n_samples)`
    replicas) and the main batch each get their own seed, all drawn from
    `seed`, and run on one `models.stream` in that order; exact draws run
    the last two alone.  The mean batch is gathered, reduced to (m_hat, se)
    and dropped, and the main batch is counted chunk by chunk, so working
    memory is up to one chunk per job in flight plus 8 bytes per replica of
    the mean batch.  An empty `t_grid`, or an entry that is negative or
    NaN, is a ConfigError, and more than `models.MAX_REPLICAS` replicas a
    CapacityError, before the first sample.
    """
    _check_batch(n_samples, sweeps)
    if len(t_grid) == 0 or not all(t >= 0.0 for t in t_grid):
        raise ConfigError("t_grid must be a nonempty list of values >= 0")
    rng = np.random.default_rng(seed)
    seed_mean, seed_main, seed_mix = (int(s) for s in rng.integers(2 ** 63, size=3))
    n_mean = _mean_size(n_samples)
    batches = [models.observable_batch(model, g, n_mean, sweeps, seed_mean),
               models.observable_batch(model, g, n_samples, sweeps, seed_main)]
    span = 0.0  # exact draws: no certificate, so d = 0
    if not isinstance(model, (ProductModel, MarkovChainModel)):
        span = g.span(model.alphabet)
        batches.insert(0, coupling.coalescence_batch(model, MIXING_PAIRS, sweeps, seed_mix))
    *mix, mean, main = models.stream(batches)
    cert = mixing_certificate(sweeps, mix[0]) if mix else None
    d = cert.hi if cert else 0.0
    m_hat, se_mean = _mean_batch(models.gather(mean, np.empty(n_mean)))
    points = _tail_points(t_grid, se_mean, d * span)
    counts = sum(_tail_counts(_deviate(vals, m_hat), points) for vals in main)
    return [_widen(e, d) for e in _tail_estimates(points, counts, n_samples)], cert


def _mc_tail_row(model: str, function: str, label: str, params: dict,
                bound: float, est: TailEstimate, unclaimed: str = "",
                mixing: float = 0.0) -> BoundRow:
    """The row that sets a Monte Carlo tail point against its bound.

    `params` gains `t_effective` and `resolvable`: whether the bound reaches
    the floor binomial_ci99(0, n)[1] + mixing that the estimate's n replicas
    can resolve, where `mixing` is the mixing certificate's bound that
    widened the estimate (0 for exact draws).  A bound below that floor is
    noted on the row.  The verdict comes from `classify_tail_row`, unless
    `unclaimed` gives a reason why the bound is not claimed; the row is then
    informational with that note.
    """
    floor = min(binomial_ci99(0, est.n_samples)[1] + mixing, 1.0)
    row = BoundRow(model, function, label,
                   dict(params, t_effective=est.t_effective,
                        resolvable=bool(bound >= floor)),
                   bound, observed=est.estimate, observed_lo=est.lo,
                   observed_hi=est.hi, observed_kind="mc")
    if unclaimed:
        row.verdict = "info"
        row.note = unclaimed
        return row
    if bound < floor:
        row.note = f"bound below the resolvable floor {floor!r}"
    return classify_tail_row(row)


def tails_to_csv(estimates: list[TailEstimate]) -> str:
    lines = ["t,t_effective,estimate,lo,hi,n_samples,kind"]
    for e in estimates:
        lines.append(",".join([repr(e.t), repr(e.t_effective), repr(e.estimate),
                               repr(e.lo), repr(e.hi), str(e.n_samples), e.kind]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# high-temperature experiment
# ---------------------------------------------------------------------------

def fit_decay_constant(beta: float, boundary, fit_rows: int, fit_cols: int):
    """Largest C with envelope(x, y) <= exp(-C |x-y|) on an enumerated volume.

    Entries at or below 1e-14 carry no information at double precision and
    are excluded.  Returns (C, number of entries used); C is +inf when no
    entry resolves (the independent-spin limit).
    """
    fit_model = models.ising_rect(fit_rows, fit_cols, beta, boundary)
    env = coupling.envelope_and_moment_matrices(
        models.exact_joint(fit_model), p_orders=()).envelope
    sites = fit_model.sites
    best = math.inf
    used = 0
    for i in range(len(sites)):
        for j in range(len(sites)):
            if i == j or env[i, j] <= 1e-14:
                continue
            used += 1
            best = min(best, -math.log(env[i, j]) / l1_distance(sites[i], sites[j]))
    return best, used


#: `hightemp`'s tail grid, in units of ||delta g||_2, and the enumerated
#: volume its decay constant is fitted on
T_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0, 8.0)
FIT_ROWS, FIT_COLS = 4, 4


@dataclass
class HightempConfig:
    """High-temperature run: exact applicability check + empirical tails at
    T_MULTIPLIERS, with the decay constant of a FIT_ROWS x FIT_COLS volume.

    `sweeps` is certified, not trusted: the run's mixing_certificate row
    passes when MIXING_PAIRS pairs of the grand coupling bound the sampled
    law's distance to the kernel's stationary law by MIXING_BOUND.  On 8x8
    at beta = 0.1 the legs met within 8 sweeps in 4 x 10^5 pairs.
    """

    seed: int
    rows: int = 8
    cols: int = 8
    beta: float = 0.1
    boundary: str = "plus"
    n_samples: int = 100000
    sweeps: int = 10


def hightemp_experiment(config: HightempConfig) -> BoundReport:
    """Check the exponential tail bound with an exactly fitted decay rate.

    The single-site variation condition is computed exactly on the run's own
    geometry; the decay constant C comes from the enumerated envelope of a
    small volume with the same interaction.  The sampled law is certified
    by `empirical_tail`: the mixing_certificate row sets its bound d on the
    distance to the kernel's stationary law against MIXING_BOUND, and every
    tail interval and the resolvable floor carry d.  When the condition
    fails, the certificate and tail rows are reported as informational: the
    data stays, the claim goes.
    """
    if min(config.rows, config.cols) < 1:
        raise ConfigError("rows and cols must be at least 1")
    _check_batch(config.n_samples, config.sweeps)
    model = models.ising_rect(config.rows, config.cols, config.beta, config.boundary)
    g = fields.magnetization(model.sites, normalized=True)
    dv = fields.delta_vector(g, model.sites, model.alphabet)

    p_tv = models.dobrushin_matrix(model).p_sup_tv
    report = BoundReport(meta={
        "experiment": "high_temperature_tail",
        "config": config_dict(config),
        "delta_l2": dv.l2,
        "p_c_site_2d": SITE_PERCOLATION_PC_2D,
    })
    p_row = classify_tail_row(
        BoundRow(model.name, g.name, "percolation_condition", {}, SITE_PERCOLATION_PC_2D,
                 observed=p_tv, observed_kind="exact",
                 note=f"coupling disagreement probability; doubled convention "
                      f"gives {min(2.0 * p_tv, 1.0)!r} (clipped)"),
        tol=0.0)
    report.add(p_row)
    applicable = p_row.verdict == "pass"

    c_fit, n_entries = fit_decay_constant(config.beta, config.boundary, FIT_ROWS, FIT_COLS)
    if c_fit <= 0.0:
        applicable = False
        prefactor = math.inf
    else:
        prefactor = 1.0 if math.isinf(c_fit) else 1.0 / (1.0 - math.exp(-2.0 * c_fit))
    report.meta["decay_constant"] = c_fit
    report.meta["prefactor"] = prefactor
    report.add(BoundRow(model.name, g.name, "decay_fit",
                        {"fit_rows": FIT_ROWS, "fit_cols": FIT_COLS,
                         "entries_used": n_entries},
                        c_fit, verdict="info",
                        note="smallest -log(envelope)/distance over the enumerated volume"))

    t_grid = [m * dv.l2 for m in T_MULTIPLIERS]
    estimates, cert = empirical_tail(model, g, t_grid, config.n_samples,
                                     config.sweeps, config.seed)
    report.meta["mc_floor"] = min(binomial_ci99(0, config.n_samples)[1] + cert.hi, 1.0)
    report.meta["mean_shift"] = estimates[0].t - estimates[0].t_effective
    unclaimed = "" if applicable else "condition failed: exponential bound not claimed"
    mix_row = BoundRow(model.name, g.name, "mixing_certificate",
                       {"pairs": cert.pairs, "sweeps": cert.sweeps, "apart": cert.apart},
                       MIXING_BOUND, observed=cert.apart / cert.pairs, observed_lo=cert.lo,
                       observed_hi=cert.hi, observed_kind="mc",
                       note=unclaimed or "P(tau > sweeps) for the grand coupling from "
                                         "all-plus and all-minus; every tail interval "
                                         "widens by observed_hi")
    report.add(classify_tail_row(mix_row, tol=0.0) if applicable else mix_row)
    for mult, est in zip(T_MULTIPLIERS, estimates):
        report.add(_mc_tail_row(
            model.name, g.name, "tail_exponential", {"t_multiplier": mult},
            bounds.exponential_bound(est.t, math.sqrt(prefactor), dv.l2), est,
            unclaimed, cert.hi))
    return report


# ---------------------------------------------------------------------------
# path-magnetization statistic
# ---------------------------------------------------------------------------

def ell_statistic(minus: np.ndarray, theta: float = 0.9) -> np.ndarray:
    """Per grid of a batch, the smallest n such that every directed lattice
    path with >= n sites has average spin >= theta; 0 for an all-plus grid.

    `minus` is a boolean batch (n, rows, cols), true at the minus spins.  A
    directed path steps down and right, or down and left.  K_L(cell), the
    most minus sites on a path of L sites ending at `cell`, follows
    K_L(cell) = minus(cell) + max(K_{L-1}(above), K_{L-1}(beside)), with
    -inf outside the box; the down-left paths are the down-right paths of
    the grid with its columns flipped.  A path of L sites with k minus spins
    has average below theta exactly when L < q = 2k / (1 - theta), so a bad
    path of L sites exists iff L <= budget[max over cells of K_L], where
    budget[k] is the largest integer strictly below q; at theta = 1 it is
    rows + cols - 1, the longest path, for every k >= 1, and -1 for k = 0.
    The statistic is 1 + the largest such L, or 0 when there is none.
    """
    if not 0.0 < theta <= 1.0:
        raise ConfigError("theta must lie in (0, 1]")
    n, rows, cols = minus.shape
    l_box = rows + cols - 1
    k = np.arange(l_box + 1)
    if theta < 1.0:
        q = 2.0 * k / (1.0 - theta)
        qr = np.round(q)
        # largest integer strictly below q, robust to float noise
        budget = np.where(np.abs(q - qr) < 1e-9, qr - 1, np.floor(q)).astype(np.int64)
    else:
        budget = np.where(k > 0, l_box, -1)
    # every count lies in [-l_box - 1, l_box]: -l_box - 1 stands for -inf,
    # since a cell no path of length L reaches holds at most -l_box - 2 + L
    dtype = np.min_scalar_type(-l_box - 1)
    grids = np.concatenate([minus, minus[:, :, ::-1]]).astype(dtype)
    counts, prev = grids.copy(), np.empty_like(grids)  # K_1 and a buffer
    ell = np.zeros(2 * n, dtype=np.int64)
    for length in range(1, l_box + 1):
        if length > 1:
            prev, counts = counts, prev
            counts[:, 0, :] = -l_box - 1
            counts[:, 1:, :] = prev[:, :-1, :]
            np.maximum(counts[:, :, 1:], prev[:, :, :-1], out=counts[:, :, 1:])
            counts += grids
        # the far corner ends a path of every length, so the max is >= 0
        top = counts.reshape(2 * n, rows * cols).max(axis=1)
        ell[length <= budget[top]] = length + 1
    return ell.reshape(2, n).max(axis=0)


def ell_observable(sites, rows: int, cols: int, theta: float) -> LocalFunction:
    """The path-magnetization statistic of a rows x cols rectangle as an
    observable.  Its sites run row-major, so a sampled row of values is one
    grid in grid order; `fn` makes one `ell_statistic` call on the grids
    with a minus spin, and the others are 0.

    One minus spin puts every path of fewer than 2 / (1 - theta) sites below
    theta, and every cell lies on a longest path.  So when rows + cols - 1
    < 2 / (1 - theta) (rows + cols - 1 <= 19 at theta = 0.9), ell is
    rows + cols or 0: it only says whether the grid has a minus spin.
    """
    def fn(values: np.ndarray) -> np.ndarray:
        minus = (values < 0).reshape(len(values), rows, cols)
        has_minus = minus.any(axis=(1, 2))
        out = np.zeros(len(values))
        out[has_minus] = ell_statistic(minus[has_minus], theta)
        return out

    return LocalFunction("ell", tuple(sorted(sites, key=lambda s: (s[1], s[0]))), fn)


# ---------------------------------------------------------------------------
# low-temperature experiment
# ---------------------------------------------------------------------------

#: `lowtemp`'s fixed levels: ell's path-average level THETA, the rank test's
#: distances 1..SPEARMAN_DMAX, the factor KAPPA the fitted bound keeps over
#: each split-A upper end, the profile rows' orders P_LIST and extra
#: ell-moment exponent EPS, and the Luxembourg-norm rows' exponents RHO_GRID
THETA, SPEARMAN_DMAX, KAPPA, EPS = 0.9, 3, 3.0, 0.5
P_LIST, RHO_GRID = (1, 2, 3), (0.25, 0.5)


@dataclass
class LowtempConfig:
    """Low-temperature run: decay ranking, profile, held-out tail bound.

    Every chain starts all-plus.  The pair chain pins the model's first
    site, the spiral origin (the center of the rectangle), to + in one leg
    and - in the other.  The path statistic ell resolves where the minus
    spins lie only when rows + cols - 1 >= 2 / (1 - THETA); below that it
    reads whether a grid has a minus spin (`ell_observable`), as on 8 x 8.
    The rank test, the fit and the profile and Orlicz rows read the fixed
    levels above.
    """

    seed: int
    rows: int = 16
    cols: int = 16
    beta: float = 1.0
    boundary: str = "plus"
    n_pair: int = 80000
    n_tail: int = 100000
    n_ell: int = 20000
    sweeps: int = 60
    quantiles: tuple = (0.5, 0.75, 0.9, 0.99, 0.999)


def _loglinear_fit(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    ssr = float(((y - (slope * x + intercept)) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ssr / sst if sst > 0.0 else (1.0 if ssr == 0.0 else 0.0)
    return float(slope), float(intercept), r2


def lowtemp_experiment(config: LowtempConfig) -> tuple[np.ndarray, np.ndarray, BoundReport]:
    """Decay and tail study in the ordered phase; all estimates labeled mc.

    Five independently seeded batches run on one `models.stream`, in this
    order: a synchronized pair chain for the disagreement field (reduced
    chunk by chunk to leg sums), equilibrium replicas of the
    path-magnetization statistic (`ell_observable`, an observable like the
    magnetization), a mean batch, and two equal tail splits (fit on A,
    verdict on B), read in that order.  The mean batch is gathered, reduced
    to (m_hat, se) and dropped; split A is held, split B counted by chunk.
    Returns `(ell_tail, psi_hat, report)`: the profile
    `ell_tail[j-1]` = P(ell >= j) for j = 1..rows + cols and `psi_hat[j-1]`,
    the largest disagreement at distance j from the pinned site.  It feeds
    the `profile_*` assemblies as measured; no curve is fitted to it.  A
    degenerate split-A fit is reported as such; no verdict is forced from it.

    A value out of its range is a ConfigError, and a replica count above
    `models.MAX_REPLICAS` a CapacityError, before the first sample.
    """
    if min(config.rows, config.cols, config.n_pair, config.n_ell) < 1:
        raise ConfigError("rows, cols, n_pair and n_ell must be at least 1")
    if not config.quantiles or not all(0.0 <= q <= 1.0 for q in config.quantiles):
        raise ConfigError("quantiles must be a nonempty list of values in [0, 1]")
    _check_replicas(n_pair=config.n_pair, n_ell=config.n_ell, n_tail=config.n_tail)
    n_split = (config.n_tail - _mean_size(config.n_tail)) // 2
    _check_batch(n_split, config.sweeps)  # each held-out split is a tail batch
    model = models.ising_rect(config.rows, config.cols, config.beta, config.boundary)
    g = fields.magnetization(model.sites, normalized=True)
    dv = fields.delta_vector(g, model.sites, model.alphabet)
    rng = np.random.default_rng(config.seed)
    seed_pair, seed_mean, seed_a, seed_b, seed_ell = (
        int(s) for s in rng.integers(2 ** 63, size=5))

    report = BoundReport(meta={
        "experiment": "low_temperature_tail",
        "config": config_dict(config),
        "delta_l2": dv.l2,
    })

    # --- the five batches, on one stream, read in batch order --------------
    # split A, which the Orlicz rows read below, is the one split held
    n_mean = _mean_size(config.n_tail)
    ell_g = ell_observable(model.sites, config.rows, config.cols, THETA)
    pair_parts, ell_parts, mean, split_a, split_b = models.stream([
        coupling.pair_batch(model, config.n_pair, config.sweeps, seed_pair),
        models.observable_batch(model, ell_g, config.n_ell, config.sweeps, seed_ell),
        models.observable_batch(model, g, n_mean, config.sweeps, seed_mean),
        models.observable_batch(model, g, n_split, config.sweeps, seed_a),
        models.observable_batch(model, g, n_split, config.sweeps, seed_b)])
    pair = coupling.pair_result(model, config.n_pair, config.sweeps, pair_parts)
    ells = models.gather(ell_parts, np.empty(config.n_ell))
    m_hat, se_mean = _mean_batch(models.gather(mean, np.empty(n_mean)))
    dev_a = _deviate(models.gather(split_a, np.empty(n_split)), m_hat)
    t_grid = np.quantile(dev_a, config.quantiles)
    points = _tail_points(t_grid, se_mean)
    counts_b = sum(_tail_counts(_deviate(part, m_hat), points) for part in split_b)

    # --- disagreement field from the synchronized pair chain ---------------
    dists = np.array([l1_distance(model.sites[0], y) for y in model.sites])
    report.meta["monotone_violations"] = pair.monotone_violations

    sel = (dists >= 1) & (dists <= SPEARMAN_DMAX)
    rho_s, p_s = sstats.spearmanr(dists[sel], pair.disagree[sel])
    observed_p = float(p_s) if rho_s < 0 else 1.0
    report.add(classify_tail_row(
        BoundRow(model.name, "disagreement", "decay_rank_test",
                 {"n_sites": int(sel.sum()), "d_max": SPEARMAN_DMAX,
                  "spearman_rho": float(rho_s)},
                 0.01, observed=observed_p, observed_lo=observed_p,
                 observed_hi=observed_p, observed_kind="mc",
                 note="p-value of the one-sided rank-decay test"),
        tol=0.0))

    # --- per-distance envelope profile -------------------------------------
    d_max = int(dists.max())
    psi_hat = np.zeros(d_max)
    for j in range(1, d_max + 1):
        on_shell = pair.disagree[dists == j]
        psi_hat[j - 1] = float(on_shell.max()) if on_shell.size else 0.0

    # --- path-magnetization statistic ---------------------------------------
    j_cap = config.rows + config.cols  # geometric bound on the statistic
    # ell <= j_cap and psi_hat holds every distance, so nothing is truncated
    ell_tail = np.array([(ells >= j).mean() for j in range(1, j_cap + 1)])

    # --- held-out stretched-exponential tail bound -------------------------
    report.meta["t_grid"] = [float(t) for t in t_grid]
    report.meta["mean_se"] = se_mean
    tails_a = _tail_estimates(points, _tail_counts(dev_a, points), n_split)
    tails_b = _tail_estimates(points, counts_b, n_split)

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
            * -math.log(min(KAPPA * e.hi, 3.999) / 4.0)
            for e in fit_pts)
        report.add(BoundRow(model.name, g.name, "stretched_fit",
                            {"rho": rho_hat, "raw_slope": float(slope),
                             "r_squared": r2, "kappa": KAPPA,
                             "n_points": len(fit_pts)},
                            c_hat, observed_kind="mc", verdict="info",
                            note="split-A constants; theoretical column holds c"))
        for alpha, est in zip(config.quantiles, tails_b):
            report.add(_mc_tail_row(
                model.name, g.name, "tail_stretched_heldout",
                {"quantile": alpha, "t": est.t},
                bounds.stretched_bound(est.t, rho_hat, c_hat, dv.l2), est))
    else:
        report.add(BoundRow(model.name, g.name, "stretched_fit",
                            {"n_points": 0}, math.nan, observed_kind="mc", verdict="info",
                            note="degenerate: no resolvable split-A points"))

    # --- informational bound assemblies from the profile -------------------
    for p in P_LIST:
        report.add(BoundRow(model.name, g.name, f"profile_norm_p{p}",
                            {"p": p}, bounds.profile_norm_bound(p, ell_tail, psi_hat),
                            observed_kind="mc", verdict="info",
                            note="tail-profile norm assembly (empirical inputs)"))
        moment = float(np.mean(ells.astype(float) ** (2 * p * 2 + EPS)))
        report.add(BoundRow(model.name, g.name, f"profile_moment_p{p}",
                            {"p": p, "eps": EPS, "ell_moment": moment},
                            bounds.profile_moment_bound(p, EPS, moment,
                                                        float(psi_hat.sum()), dv.l2),
                            observed_kind="mc", verdict="info",
                            note="zeta-interpolated moment assembly (empirical inputs)"))
    for rho in RHO_GRID:
        lux = bounds.luxembourg_norm(dev_a, rho=rho)
        t_top = float(t_grid[-1])
        cheb = bounds.orlicz_chebyshev_bound(t_top, rho, lux) if t_top > 0 else math.inf
        report.add(BoundRow(model.name, g.name, f"orlicz_norm_rho{rho:g}",
                            {"rho": rho, "t": t_top, "chebyshev_bound": cheb},
                            lux, observed_kind="mc", verdict="info",
                            note="split-A Luxembourg norm; theoretical column holds it"))
    return ell_tail, psi_hat, report


# ---------------------------------------------------------------------------
# config plumbing and artifacts
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file must hold a JSON object: {path}")
    return cfg


# JSON kinds a str or dict config field may hold, kept as given
_FIELD_KINDS = {"str": str, "dict": dict}


def _config_from_dict(cls, cfg: dict, kind: str):
    """Build the config dataclass `cls` from a JSON-style dict.

    The dataclass fields are the allowed keys and their defaults (or
    default factories) the defaults; a field without one, or a key set to
    null, is missing.  `int` fields are read through `_integer`, and
    `tuple` fields become tuples whose entries go through `_integer` or
    `_real` by the type of the default's entries.  A `float` field must
    pass `_real`, and `str` and `dict` fields must hold a JSON value of
    that kind; these are kept as given, so the artifact digests see them
    unchanged.  Every config has a `seed`, which must be nonnegative.  Any
    other value is a ConfigError naming its key.
    """
    specs = dataclasses.fields(cls)
    unknown = set(cfg) - {f.name for f in specs}
    if unknown:
        raise ConfigError(f"unknown {kind} config keys: {sorted(unknown)}")

    def default(f):
        return f.default if f.default_factory is dataclasses.MISSING else f.default_factory()

    merged = {f.name: cfg.get(f.name, default(f)) for f in specs}
    missing = [k for k, v in merged.items() if v is None or v is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{kind} config is missing required keys: {missing}")
    for f in specs:
        value = merged[f.name]
        try:
            if f.type == "int":
                merged[f.name] = _integer(value)
            elif f.type == "tuple":
                entry = _integer if type(f.default[0]) is int else _real
                merged[f.name] = tuple(entry(x) for x in value)
            elif f.type == "float":
                _real(value)  # checked, and kept as given
            elif not isinstance(value, _FIELD_KINDS[f.type]):
                raise TypeError(f"expected {f.type}, got {value!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{kind} config key {f.name!r}: {exc}") from None
    if merged["seed"] < 0:
        raise ConfigError(f"{kind} config key 'seed' must be nonnegative, got {merged['seed']}")
    return cls(**merged)


def config_dict(config) -> dict:
    """A config dataclass as JSON values: its tuples become lists."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(config).items()}


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
