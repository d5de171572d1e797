"""Couplings of conditional laws: exact rows, envelopes, samplers, transport.

Three layers, by volume:

* exact canonical coupling rows and their envelope / moment matrices, fully
  enumerated (vectorized over all pasts at once);
* the sequential quantile coupling of two laws on the same volume, either as
  an exact pair-state recursion (small volumes) or as a shared-uniform
  sampler (any volume whose prefix tables fit in memory);
* a synchronized monotone pair of heat-bath chains for nearest-neighbor
  ferromagnets at scales where nothing can be enumerated, and the grand
  coupling from all-plus and all-minus that certifies the sampler's mixing.

Transport problems are solved as explicit linear programs; the duality gap
reported by the solver is part of the result so callers can assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.linalg import block_diag
from scipy.optimize import linprog

from spinconc.errors import CapacityError, ConfigError, ConvergenceError
from spinconc.fields import LocalFunction, delta_vector
from spinconc.lattice import Site
from spinconc.models import Batch, ExactJoint, GibbsModel, _heat_bath, stream, sum_last

_RESID_TOL = 1e-15


# ---------------------------------------------------------------------------
# single-coordinate maximal coupling
# ---------------------------------------------------------------------------

@dataclass
class DiscreteCoupling:
    """Joint table over symbol pairs with prescribed marginals."""

    p: np.ndarray
    q: np.ndarray
    table: np.ndarray
    disagreement: float

    def marginal_errors(self) -> tuple[float, float]:
        return (
            float(np.abs(self.table.sum(axis=1) - self.p).max()),
            float(np.abs(self.table.sum(axis=0) - self.q).max()),
        )


def maximal_coupling(p, q) -> DiscreteCoupling:
    """Min-overlap diagonal plus independent residuals.

    For a single coordinate the residuals have disjoint support, so the
    disagreement probability equals the total-variation distance exactly.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mn = np.minimum(p, q)
    resid = 1.0 - float(mn.sum())
    if resid < 1e-14:
        table = np.diag(mn)
        return DiscreteCoupling(p, q, table, 0.0)
    r1 = p - mn
    r2 = q - mn
    table = np.diag(mn) + np.outer(r1, r2) / resid
    return DiscreteCoupling(p, q, table, resid)


# ---------------------------------------------------------------------------
# exact canonical coupling rows
# ---------------------------------------------------------------------------

@dataclass
class CouplingRowBand:
    """Row statistics at one row index, for every past prefix at once.

    Each array has shape (k^i, n_sites); column j < i is zero, column i is 1.
    `value` is the disagreement probability of the canonical coupling
    (shared minimum, independent residuals); `lower` is the total-variation
    distance of the coordinate-j marginals (no coupling does better), or
    None when the band was built without it; `upper` is the total-variation
    distance of the full conditional futures.  All three take the worst
    case over symbol pairs at coordinate i.
    """

    value: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray
    past_mass: np.ndarray


def _digits(n: int, k: int) -> np.ndarray:
    """The (k^n, n k) indicator of the base-k digits of 0..k^n - 1: entry
    [f, y k + s] is 1.0 when digit y of f, most significant first, is s."""
    digit = np.arange(k ** n)[:, None] // k ** np.arange(n - 1, -1, -1) % k
    return (digit[:, :, None] == np.arange(k)).reshape(k ** n, n * k).astype(float)


def coupling_rows_all(joint: ExactJoint, i: int, lower: bool = False) -> CouplingRowBand:
    """The band of row i: coupling statistics at every past of length i.

    For symbols a, b at coordinate i after past w, p1 and p2 are the laws
    of the future coordinates; r1 = p1 - min(p1, p2) and r2 likewise are
    the residuals, and their total mass is the TV of the futures (`upper`).
    The marginals g1, g2 of r1, r2 at coordinate j = i + 1 + y give
    `value`.  Since p1 - p2 = r1 - r2, half the l1 distance of g1 and g2 is
    the TV of the coordinate-j marginals of p1, p2, `lower`; see
    `CouplingRowBand`.  `lower` is built only when the caller asks for it
    (the `coupling-matrix` command); `value` and `upper` do not depend on
    the choice.

    The marginals of every later coordinate come from one product per
    pair.  The future index splits into its high and low base-k digits;
    r1 and r2 summed over the low half, beside them summed over the high
    half, times the block-diagonal pair of the halves' digit indicators
    (`_digits`) give every marginal at once.  One indicator of the whole
    future index would hold (m - i - 1) k^(m - i) floats: 152 MiB at row 0
    of a binary 2^20-state joint, where the pair holds 456 KiB.
    Each marginal is a few blocked or pairwise sums, not k^y runs added in
    sequence, so the bands meet a long-double evaluation of the formula
    within 1e-15 (`tests/oracles.py`).  The sums over a last axis are
    `models.sum_last`, numpy's own bits.
    """
    m, k = joint.n_sites, joint.k
    n_past = k ** i
    value = np.zeros((n_past, m))
    upper = np.zeros((n_past, m))
    value[:, i] = upper[:, i] = 1.0
    low = None
    if lower:
        low = np.zeros((n_past, m))
        low[:, i] = 1.0
    band = CouplingRowBand(value, low, upper, joint.prefix_marginal(i - 1).reshape(-1))
    if i == m - 1:
        return band
    n_digits = m - i - 1
    n_hi = n_digits // 2
    digits = block_diag(_digits(n_hi, k), _digits(n_digits - n_hi, k))
    t = joint.probs.reshape(n_past, k, -1)
    sym_mass = sum_last(t)
    cond = t / np.where(sym_mass > 0.0, sym_mass, 1.0)[:, :, None]
    for a in range(k):
        for b in range(a + 1, k):
            ok = (sym_mass[:, a] > 0.0) & (sym_mass[:, b] > 0.0)
            if not ok.any():
                continue
            p1, p2 = cond[:, a], cond[:, b]
            x = np.stack((p1, p2)) - np.minimum(p1, p2)  # r1, r2
            resid = sum_last(x[0])  # = TV of the full futures
            x = x.reshape(2, n_past, k ** n_hi, -1)
            halves = np.concatenate((sum_last(x), x.sum(axis=2)), axis=-1)
            g1, g2 = (halves @ digits).reshape(2, n_past, n_digits, k)
            live = ok & (resid > _RESID_TOL)
            val = resid[:, None] - sum_last(g1 * g2) / np.where(live, resid, 1.0)[:, None]
            val = np.where(live[:, None], val, 0.0).clip(0.0)
            value[:, i + 1:] = np.maximum(value[:, i + 1:], val)
            if lower:
                tv = 0.5 * sum_last(np.abs(g1 - g2))
                low[:, i + 1:] = np.maximum(low[:, i + 1:], np.where(ok[:, None], tv, 0.0))
            upper[:, i + 1:] = np.maximum(upper[:, i + 1:], np.where(ok, resid, 0.0)[:, None])
    return band


def _band_power(value: np.ndarray, i: int, p) -> np.ndarray:
    """`value ** p` for the row-i band `value`, bit for bit.

    Its columns j < i hold 0.0 and column i holds 1.0, which every power
    p >= 1 keeps, so `pow` runs on the later columns only; the last band has
    none and is returned as it is.  The result is a full-width band, so the
    product that reads it is the one `value ** p` would get.
    """
    if i == value.shape[1] - 1:
        return value
    out = value.copy()
    out[:, i + 1:] **= p
    return out


@dataclass
class EnvelopeData:
    """Worst-case and probability-weighted power means of the coupling rows.

    `lower_envelope` is None unless it was asked for."""

    sites: tuple[Site, ...]
    envelope: np.ndarray
    lower_envelope: np.ndarray | None
    upper_envelope: np.ndarray
    moment: dict[int, np.ndarray] = field(default_factory=dict)


def _masked_max(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`rows[mask].max(axis=0)`, without copying the rows `mask` keeps."""
    return np.max(rows, axis=0, where=mask[:, None], initial=-np.inf)


def envelope_and_moment_matrices(joint: ExactJoint, p_orders=(1, 2),
                                 bands=None, lower: bool = False) -> EnvelopeData:
    """Enumerate every positive-probability past at every row.

    The moment matrix of order p holds (sum_w P(w) value(w)^p)^(1/p); the
    envelope is the plain maximum over pasts, and so are the upper envelope
    and, when `lower` is set, the lower one.  `bands` yields the row bands
    `coupling_rows_all(joint, i, lower)` for i = 0..m-1 in order, for a
    caller that shares them; a generator lets each band be dropped once
    reduced.  By default they are computed here.

    Each moment row is the float `past_mass @ value ** p` gives
    (`tests/oracles.py`); `_band_power` takes the power.  Each maximum is
    taken in place over the positive-mass pasts (`_masked_max`); a maximum
    does not round, so it is the one over the copied rows.
    """
    m = joint.n_sites
    env = np.zeros((m, m))
    lo_env = np.zeros((m, m)) if lower else None
    hi_env = np.zeros((m, m))
    mom = {p: np.zeros((m, m)) for p in p_orders}
    if bands is None:
        bands = (coupling_rows_all(joint, i, lower) for i in range(m))
    for i, band in enumerate(bands):
        mask = band.past_mass > 0.0
        env[i] = _masked_max(band.value, mask)
        if lower:
            lo_env[i] = _masked_max(band.lower, mask)
        hi_env[i] = _masked_max(band.upper, mask)
        for p in p_orders:
            mom[p][i] = (band.past_mass @ _band_power(band.value, i, p)) ** (1.0 / p)
    return EnvelopeData(joint.sites, env, lo_env, hi_env, mom)


# ---------------------------------------------------------------------------
# sequential quantile coupling of two laws on the same volume
# ---------------------------------------------------------------------------

def _step_conditionals(joint: ExactJoint, k_coord: int) -> np.ndarray:
    """P(coordinate k = symbol 1 | each prefix), flat over k-bit prefixes."""
    num = joint.prefix_marginal(k_coord).reshape(-1)
    den = joint.prefix_marginal(k_coord - 1).reshape(-1)
    return num[1::2] / np.where(den > 0.0, den, 1.0)


def _require_binary_pair(ja: ExactJoint, jb: ExactJoint):
    if ja.k != 2 or jb.k != 2:
        raise CapacityError("sequential couplings are implemented for binary alphabets")
    if ja.n_sites != jb.n_sites:
        raise ValueError("the two laws must live on the same number of sites")


@dataclass
class SequentialCouplingTree:
    """Exact per-site disagreement of the shared-uniform sequential coupling."""

    sites: tuple[Site, ...]
    disagree: np.ndarray
    leg_a: np.ndarray
    leg_b: np.ndarray

    def leg_errors(self, ja: ExactJoint, jb: ExactJoint) -> tuple[float, float]:
        return (
            float(np.abs(self.leg_a - ja.probs.reshape(-1)).max()),
            float(np.abs(self.leg_b - jb.probs.reshape(-1)).max()),
        )


def sequential_coupling_tree(ja: ExactJoint, jb: ExactJoint) -> SequentialCouplingTree:
    """Propagate the exact pair-state mass matrix through every coordinate.

    Both coordinates draw from their true conditional law given their own
    past, sharing one uniform per step (the quantile coupling), so each leg's
    marginal is exact by construction; the recursion just tracks the joint.
    """
    _require_binary_pair(ja, jb)
    m = ja.n_sites
    if 4 ** m > 2 ** 22:
        raise CapacityError(f"pair-state recursion needs 4^{m} states")
    disagree = np.zeros(m)
    s = np.array([[1.0]])
    for k_coord in range(m):
        p1 = _step_conditionals(ja, k_coord)
        p2 = _step_conditionals(jb, k_coord)
        n = s.shape[0]
        a = p1[:, None]
        b = p2[None, :]
        disagree[k_coord] = float((s * np.abs(a - b)).sum())
        grown = np.empty((n, 2, n, 2))
        grown[:, 1, :, 1] = s * np.minimum(a, b)
        grown[:, 0, :, 0] = s * (1.0 - np.maximum(a, b))
        grown[:, 1, :, 0] = s * np.clip(a - b, 0.0, None)
        grown[:, 0, :, 1] = s * np.clip(b - a, 0.0, None)
        s = grown.reshape(2 * n, 2 * n)
    return SequentialCouplingTree(ja.sites, disagree, s.sum(axis=1), s.sum(axis=0))


@dataclass
class CoupledSampleStats:
    """Monte Carlo disagreement data from the shared-uniform coupling."""

    sites: tuple[Site, ...]
    n_samples: int
    disagree: np.ndarray
    disagree_se: np.ndarray
    first_disagreement: np.ndarray  # counts; index n_sites means "never"
    leg_a_mean: np.ndarray
    leg_b_mean: np.ndarray


def sequential_coupling_sample(ja: ExactJoint, jb: ExactJoint, n_samples: int,
                               seed: int) -> CoupledSampleStats:
    _require_binary_pair(ja, jb)
    m = ja.n_sites
    rng = np.random.default_rng(seed)
    cond_a = [_step_conditionals(ja, k) for k in range(m)]
    cond_b = [_step_conditionals(jb, k) for k in range(m)]
    ixa = np.zeros(n_samples, dtype=np.int64)
    ixb = np.zeros(n_samples, dtype=np.int64)
    vals = np.asarray(ja.alphabet.values)
    counts = np.zeros(m)
    first = np.full(n_samples, m, dtype=np.int64)
    mean_a = np.zeros(m)
    mean_b = np.zeros(m)
    for k_coord in range(m):
        u = rng.random(n_samples)
        bit_a = (u < cond_a[k_coord][ixa]).astype(np.int64)
        bit_b = (u < cond_b[k_coord][ixb]).astype(np.int64)
        neq = bit_a != bit_b
        counts[k_coord] = neq.sum()
        first[(first == m) & neq] = k_coord
        mean_a[k_coord] = vals[bit_a].mean()
        mean_b[k_coord] = vals[bit_b].mean()
        ixa = 2 * ixa + bit_a
        ixb = 2 * ixb + bit_b
    p_hat = counts / n_samples
    se = np.sqrt(p_hat * (1.0 - p_hat) / n_samples)
    hist = np.bincount(first, minlength=m + 1).astype(float)
    return CoupledSampleStats(ja.sites, n_samples, p_hat, se, hist, mean_a, mean_b)


# ---------------------------------------------------------------------------
# synchronized monotone heat-bath pair for large ferromagnets
# ---------------------------------------------------------------------------

@dataclass
class PairGlauberResult:
    sites: tuple[Site, ...]
    n_samples: int
    sweeps: int
    disagree: np.ndarray
    disagree_se: np.ndarray
    upper_leg_mean: np.ndarray
    lower_leg_mean: np.ndarray
    monotone_violations: int


def _leg_sums(legs: list[np.ndarray]) -> np.ndarray:
    """One chunk of the pair chain reduced to int64 (2 m + 1,): each site's
    plus count in the upper leg, then in the lower leg, then the number of
    sites where the upper leg is below the lower one."""
    up, dn = legs
    return np.concatenate([up.sum(axis=1), dn.sum(axis=1), [(up < dn).sum()]])


def pair_batch(model: GibbsModel, n_samples: int, sweeps: int, seed: int) -> Batch:
    """The chunk jobs of `coupled_glauber_disagreement`, each reduced on the
    thread that ran it by `_leg_sums`; `pair_result` sums their parts.  An
    antiferromagnet is a ConfigError, raised before the kernel is built."""
    if model.beta < 0:
        raise ConfigError("monotone coupling needs a ferromagnetic interaction")
    return _heat_bath(model, n_samples, sweeps, seed, starts=(1, 1), frozen=(0, (1, 0)),
                      reduce=_leg_sums)


def _apart(legs: list[np.ndarray]) -> int:
    """One chunk of the grand coupling reduced to its number of pairs whose
    legs still differ at some site."""
    top, bottom = legs
    return int((top != bottom).any(axis=0).sum())


def coalescence_batch(model: GibbsModel, n_pairs: int, sweeps: int, seed: int) -> Batch:
    """The grand coupling's chunk jobs: n_pairs pairs of heat-bath legs on
    shared uniforms, one leg from all-plus and one from all-minus, each chunk
    reduced by `_apart` to its count of pairs still apart after `sweeps`
    sweeps.  Every chain on the same uniforms lies between the two legs, so
    that count estimates P(tau > sweeps), where tau is the sweep at which the
    legs meet.  An antiferromagnet's legs are not ordered: a ConfigError,
    raised before the kernel is built."""
    if model.beta < 0:
        raise ConfigError("monotone coupling needs a ferromagnetic interaction")
    return _heat_bath(model, n_pairs, sweeps, seed, starts=(1, 0), reduce=_apart)


def pair_result(model: GibbsModel, n_samples: int, sweeps: int,
                parts: Iterable[np.ndarray]) -> PairGlauberResult:
    """The pair chain's estimates from its chunks' `_leg_sums` parts, which
    it reads to their end and sums."""
    m = model.n_sites
    totals = sum(parts)
    up_sum, dn_sum = totals[:m], totals[m:2 * m]
    p_hat = (up_sum - dn_sum) / n_samples
    se = np.sqrt(np.clip(p_hat * (1.0 - p_hat), 0.0, None) / n_samples)
    return PairGlauberResult(model.sites, n_samples, sweeps, p_hat, se,
                             2.0 * up_sum / n_samples - 1.0,
                             2.0 * dn_sum / n_samples - 1.0, int(totals[-1]))


def coupled_glauber_disagreement(model: GibbsModel, n_samples: int, sweeps: int,
                                 seed: int) -> PairGlauberResult:
    """Two heat-bath chains sharing every uniform, from all-plus, whose
    pinned site `model.sites[0]` (the spiral origin, the center of a
    rectangle) is + in the upper leg and - in the lower one.

    Requires a ferromagnetic binary nearest-neighbor model, on any site set:
    the shared-uniform update then preserves the pointwise order of the two
    legs, so per-site disagreement is upper minus lower in symbol indices.
    The batch runs on its own `models.stream`; `pair_batch` gives its jobs,
    for a stream shared with other batches.
    """
    [parts] = stream([pair_batch(model, n_samples, sweeps, seed)])
    return pair_result(model, n_samples, sweeps, parts)


# ---------------------------------------------------------------------------
# transport problems
# ---------------------------------------------------------------------------

def transport_cost(values_p: np.ndarray, values_q: np.ndarray,
                   phi: np.ndarray) -> np.ndarray:
    """Cost matrix sum_x |v_x - v'_x| phi(x) between two atom lists."""
    values_p = np.asarray(values_p, dtype=float)
    values_q = np.asarray(values_q, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.abs(values_p[:, None, :] - values_q[None, :, :]) @ phi


@dataclass
class TransportPlan:
    plan: np.ndarray
    cost: float
    dual_gap: float
    marginal_error: float


def kr_optimal_coupling(p, q, cost, lp_cap: int = 2 ** 22) -> TransportPlan:
    """Minimum-cost coupling of two finite distributions, as an explicit LP."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n_p, n_q = cost.shape
    if p.shape != (n_p,) or q.shape != (n_q,):
        raise ValueError("marginal lengths must match the cost matrix")
    if abs(p.sum() - q.sum()) > 1e-9:
        raise ValueError("marginals must carry equal total mass")
    if n_p * n_q > lp_cap:
        raise CapacityError(f"transport LP needs {n_p * n_q} variables")
    a_eq = sparse.vstack([
        sparse.kron(sparse.eye(n_p), np.ones((1, n_q))),
        sparse.kron(np.ones((1, n_p)), sparse.eye(n_q)),
    ]).tocsr()
    b_eq = np.concatenate([p, q])
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq,
                  bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise ConvergenceError(f"transport solver failed: {res.message}")
    plan = res.x.reshape(n_p, n_q)
    dual = float(b_eq @ res.eqlin.marginals)
    marg_err = max(float(np.abs(plan.sum(axis=1) - p).max()),
                   float(np.abs(plan.sum(axis=0) - q).max()))
    return TransportPlan(plan, float(res.fun), abs(float(res.fun) - dual),
                         marg_err)


def joint_atoms(joint: ExactJoint):
    """Positive-probability configurations as (value matrix, probabilities)."""
    flat = joint.probs.reshape(-1)
    keep = np.nonzero(flat > 0.0)[0]
    digits = np.array(np.unravel_index(keep, joint.probs.shape)).T
    vals = np.asarray(joint.alphabet.values)[digits]
    return vals, flat[keep]


def kr_distance(joint_p: ExactJoint, joint_q: ExactJoint, phi) -> TransportPlan:
    phi = np.asarray(phi, dtype=float)
    vp, pp = joint_atoms(joint_p)
    vq, qq = joint_atoms(joint_q)
    return kr_optimal_coupling(pp, qq, transport_cost(vp, vq, phi))


# ---------------------------------------------------------------------------
# the transport-against-disagreement consistency check
# ---------------------------------------------------------------------------

@dataclass
class TransportChainRow:
    function: str
    premise_ok: bool
    ok: bool


@dataclass
class TransportChainReport:
    rho: np.ndarray
    phi: np.ndarray
    dual_gap: float
    plan_weighted_disagreement: float
    tree_weighted_disagreement: float
    transport_ok: bool
    rows: list[TransportChainRow]

    @property
    def all_ok(self) -> bool:
        return self.transport_ok and all(r.ok for r in self.rows)


def verify_transport_chain(joint_p: ExactJoint, joint_q: ExactJoint,
                   functions: list[LocalFunction], phi) -> TransportChainReport:
    """Check the mean-difference / disagreement chain on an exact pair.

    rho comes from the sequential coupling of the two laws, so every claim
    below is a theorem about these finite objects: premise functions change
    their mean by at most sum_x delta_x g rho(x); the optimal transport cost
    never exceeds the sequential coupling's cost; and the optimal plan's
    phi-weighted disagreement never exceeds the sequential coupling's.
    """
    tol = 1e-9
    phi = np.asarray(phi, dtype=float)
    tree = sequential_coupling_tree(joint_p, joint_q)
    rho = tree.disagree
    plan = kr_distance(joint_p, joint_q, phi)
    vp, _ = joint_atoms(joint_p)
    vq, _ = joint_atoms(joint_q)
    # per-site disagreement of the optimal plan, phi-weighted
    plan_dis = 0.0
    for x in range(len(phi)):
        ne = np.abs(vp[:, None, x] - vq[None, :, x]) > 1e-12
        plan_dis += phi[x] * float(plan.plan[ne].sum())
    tree_dis = float((phi * rho).sum())
    rows = []
    for g in functions:
        dv = delta_vector(g, joint_p.sites, joint_p.alphabet)
        premise_ok = bool(np.all(dv.per_site <= phi + tol))
        gp = joint_p.expectation(joint_p.function_table(g))
        gq = joint_q.expectation(joint_q.function_table(g))
        gap = abs(gp - gq)
        budget = float((dv.per_site * rho).sum())
        rows.append(TransportChainRow(g.name, premise_ok,
                               premise_ok and gap <= budget + tol))
    vals = np.asarray(joint_p.alphabet.values)
    span = float(vals.max() - vals.min())
    transport_ok = (plan.dual_gap <= tol
                    and plan_dis <= tree_dis + tol
                    and plan.cost <= span * tree_dis + tol)
    return TransportChainReport(rho, phi, plan.dual_gap, plan_dis,
                         tree_dis, transport_ok, rows)
