"""Martingale decomposition, matrix norms, Orlicz machinery, and tail bounds.

The bound evaluators are pure formulas; everything they consume (envelope and
moment matrices, oscillation vectors, Luxembourg norms) is computed elsewhere
and passed in, so each piece can be tested in isolation.  Non-constructive
constants enter as explicit parameters; fitting helpers in `verify` extract
the smallest constants an instance family tolerates.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from spinconc.errors import ConvergenceError
from spinconc.fields import LocalFunction
from spinconc.models import ExactJoint, sum_last

# ---------------------------------------------------------------------------
# martingale decomposition along the enumeration order
# ---------------------------------------------------------------------------

@dataclass
class MartingaleDecomposition:
    """Increments V_i = E[g|first i+1 coordinates] - E[g|first i coordinates].

    V_i is a function of the first i+1 coordinates, and `increments[i]` is
    stored on that prefix grid: an array of shape (k,)*(i+1) + (1,)*(m-i-1),
    which broadcasts against the joint and whose `.reshape(-1)` is the table
    over prefixes in enumeration order.  Entries over zero-probability
    prefixes are zero; a zero-probability configuration under a
    positive-mass prefix carries its prefix's value.  Every identity is
    taken over the support or weighted by the joint, so no check reads a
    zero-probability configuration.

    The telescoping identity is checked on the full joint.  The two
    martingale-difference identities are expectations of functions of a
    prefix, so they are taken on prefix grids, weighted by the joint's own
    `prefix_marginal`: with b_j = P(sigma_{<=j}) V_j flat over the k**(j+1)
    prefixes, summing b_j over its last coordinate leaves
    E[V_j; sigma_{<j}], which divided by P(sigma_{<j}) is E[V_j | F_{j-1}];
    summing on down to coordinate i leaves E[V_j; sigma_{<=i}], whose dot
    product with V_i is E[V_i V_j].  Each check then costs about 2 k**m
    operations per observable, not one k**m pass per increment or pair.

    Every sum keeps numpy's order: a sum over one coordinate is
    `x.reshape(-1, k).sum(axis=1)` and a dot product `(v * b).sum()`, bit
    for bit, taken by `models.sum_last` and `np.add.reduce` in a few long
    array operations (`orthogonality_error` takes all pairs (i, j > i) of
    one i at once).
    """

    joint: ExactJoint
    g_table: np.ndarray
    mean: float
    increments: list[np.ndarray]
    support: np.ndarray

    def telescoping_error(self) -> float:
        """max |sum_i V_i - (g - Eg)| over the support."""
        total = sum(self.increments)
        err = np.abs(total - (self.g_table - self.mean))
        return float(err[self.support].max())

    def _past_sums(self, j: int) -> np.ndarray:
        """E[V_j; sigma_{<j}]: P(sigma_{<=j}) V_j summed over coordinate j,
        flat over the k**j pasts."""
        weighted = self.joint.prefix_marginal(j).reshape(-1) * self.increments[j].reshape(-1)
        return sum_last(weighted.reshape(-1, self.joint.k))

    def conditional_mean_error(self) -> float:
        """max over i and positive-mass pasts sigma_{<i} of |E[V_i | F_{i-1}]|."""
        worst = 0.0
        for i in range(self.joint.n_sites):
            den = self.joint.prefix_marginal(i - 1).reshape(-1)
            live = den > 0
            if live.any():
                worst = max(worst, float(np.abs(self._past_sums(i)[live] / den[live]).max()))
        return worst

    def orthogonality_error(self) -> float:
        """max over pairs i < j of |E[V_i V_j]|, each V_i dotted with
        E[V_j; sigma_{<=i}].

        Going down from the last row, `past` holds E[V_j; sigma_{<=i}] for
        every j > i, one row per j, so each V_i meets all of them in one
        product and each step down sums them all over one coordinate.  Each
        row's sums are the ones V_j alone would get: `.sum()` of a row, and
        `.reshape(-1, k).sum(axis=1)` of a row, in numpy's order.
        """
        k, m = self.joint.k, self.joint.n_sites
        worst = 0.0
        past = np.empty((0, k ** m))
        for i in range(m - 2, -1, -1):
            down = sum_last(past.reshape(len(past), k ** (i + 1), k))
            past = np.concatenate([self._past_sums(i + 1)[None], down])
            dots = np.add.reduce(past * self.increments[i].reshape(-1), axis=1)
            worst = max(worst, float(np.abs(dots).max()))
        return worst


def martingale_decomposition(joint: ExactJoint, g: LocalFunction) -> MartingaleDecomposition:
    """V_i from E[g | first i+1 coordinates] = sum(p g) / sum(p) over each
    prefix's trailing block.

    Both block sums are `x.sum(axis=(i+1, ..., m-1), keepdims=True)` bit
    for bit: `sum_last` over each block's k**(m-i-1) entries, on p and
    p g stacked in one array, adds blocks of fewer than 8 entries slice by
    slice across every block at once and leaves longer ones to numpy.
    """
    p = joint.probs
    m, k = joint.n_sites, joint.k
    g_table = joint.function_table(g)
    mean = joint.expectation(g_table)
    stack = np.empty((2,) + p.shape)
    stack[0] = p
    np.multiply(p, g_table, out=stack[1])
    prev = mean
    increments = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(m):
            shape = (2,) + (k,) * (i + 1) + (1,) * (m - i - 1)
            den, num = sum_last(stack.reshape(2, k ** (i + 1), -1)).reshape(shape)
            live = den > 0
            cond = np.where(live, num / np.where(live, den, 1.0), 0.0)
            increments.append(np.where(live, cond - prev, 0.0))
            prev = np.where(live, cond, prev)
    return MartingaleDecomposition(joint, g_table, mean, increments, p > 0)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def operator_norm_l2(matrix: np.ndarray) -> float:
    """Largest singular value, from the SVD (`np.linalg.norm(a, 2)`)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("operator_norm_l2 expects a matrix")
    if a.size == 0 or not np.any(a):
        return 0.0
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def riemann_zeta(s: float) -> float:
    """zeta(s) for real s > 1, from `scipy.special.zeta`."""
    if s <= 1.0:
        raise ValueError("zeta(s) diverges for s <= 1")
    return float(special.zeta(s))


# ---------------------------------------------------------------------------
# Orlicz functions and the Luxembourg norm
# ---------------------------------------------------------------------------

_EXP_CAP = 700.0  # exp argument cap; beyond this the moment test fails anyway


@dataclass(frozen=True)
class OrliczSpec:
    """Young function x -> exp((|x| + h)^rho) - exp(h^rho).

    The shift h = ((1-rho)/rho)^(1/rho) is exactly the smallest one making
    the function convex on [0, inf) for rho < 1; it vanishes at rho = 1.
    Note (h)^rho = (1-rho)/rho, which keeps the constant term tame.
    """

    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho:
            raise ValueError("rho must be positive")

    @property
    def shift(self) -> float:
        if self.rho >= 1.0:
            return 0.0
        return ((1.0 - self.rho) / self.rho) ** (1.0 / self.rho)

    def phi(self, x, out: np.ndarray | None = None) -> np.ndarray:
        """phi(x), elementwise.  An array is worked on in place in one array,
        `out` when given (it may be x itself) or else a copy; a scalar x
        stays a numpy scalar, whose power is libm's `pow`, which differs in
        the last bit from numpy's array loop at some x."""
        x = np.abs(np.asarray(x, dtype=float), out=out)
        out = x if isinstance(x, np.ndarray) else None
        h = self.shift
        x += h
        x **= self.rho
        x = np.exp(np.minimum(x, _EXP_CAP, out=out), out=out)
        x -= math.exp(min(h ** self.rho, _EXP_CAP))
        return x


def luxembourg_norm(values, rho: float = 1.0) -> float:
    """Smallest lambda with E[phi(|Z|/lambda)] <= 1 over equally weighted
    samples `values`, by bracketed bisection to a relative width of 1e-9.

    Returns the feasible (upper) end of the bracket, so the moment condition
    holds at the result.  More than 600 doublings of the upper end is a
    ConvergenceError.
    """
    z = np.abs(np.asarray(values, dtype=float))
    hi = float(z.max())
    if hi == 0.0:
        return 0.0
    spec = OrliczSpec(rho)
    buf = np.empty_like(z)  # every step's z / lambda, and phi in place on it

    def moment(lam: float) -> float:
        phi = spec.phi(np.divide(z, lam, out=buf), out=buf)
        phi *= 1.0 / z.size  # each sample's weight, as one product per entry
        return float(phi.sum())

    expansions = 0
    while moment(hi) > 1.0:
        hi *= 2.0
        expansions += 1
        if expansions > 600:
            raise ConvergenceError("no finite Luxembourg norm below the expansion cap")
    lo = hi / 2.0
    while moment(lo) <= 1.0:
        lo /= 2.0
        if lo < 1e-300:
            return hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if moment(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# tail and moment bound formulas
# ---------------------------------------------------------------------------

def exponential_bound(t: float, envelope_norm: float, delta_l2: float) -> float:
    """Two-sided exponential tail bound 2 exp(-2 t^2 / (||D||^2 ||dg||^2))."""
    denom = (envelope_norm ** 2) * (delta_l2 ** 2)
    if denom == 0.0:
        # degenerate instance: a constant function never deviates
        return 2.0 if t <= 0.0 else 0.0
    return 2.0 * math.exp(-2.0 * t * t / denom)


def variance_bound(moment2_norm: float, delta_l2: float) -> float:
    """Upper bound on Var(g)."""
    return (moment2_norm ** 2) * (delta_l2 ** 2)


def moment_bound(p: int, moment_norm_2p: float, delta_l2: float) -> float:
    """Upper bound on E[(g - Eg)^(2p)], with the (20 p)^(2p) prefactor.

    The prefactor is kept in its conservative form for every dimension.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    return (20.0 * p) ** (2 * p) * moment_norm_2p ** (2 * p) * delta_l2 ** (2 * p)


def profile_norm_bound(p: int, ell0_tail, psi) -> float:
    """Norm bound sum_j P(ell0 >= j)^(1/2p) + ||psi||_1 for tail-profiled rows.

    `ell0_tail[j-1]` holds P(ell0 >= j); both arrays must reach every j where
    they can be nonzero, since nothing is added for a truncated remainder.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    tail = np.asarray(ell0_tail, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if np.any(tail < 0) or np.any(psi < 0):
        raise ValueError("tail and psi entries must be nonnegative")
    return float((tail ** (1.0 / (2 * p))).sum() + psi.sum())


def profile_moment_bound(p: int, eps: float, ell0_moment: float, psi_l1: float,
                         delta_l2: float) -> float:
    """Moment bound with the zeta-interpolated tail profile.

    `ell0_moment` is E[ell0^(2p + eps)] in one dimension and
    E[ell0^(2pd + eps)] in d dimensions; the caller supplies whichever the
    geometry requires.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if eps <= 0:
        raise ValueError("eps must be positive, otherwise the zeta factor diverges")
    if ell0_moment < 0 or psi_l1 < 0:
        raise ValueError("moment and psi inputs must be nonnegative")
    z = riemann_zeta(1.0 + eps / (2 * p - 1))
    bracket = z ** ((2 * p - 1.0) / (2 * p)) * ell0_moment ** (1.0 / (2 * p)) + psi_l1
    return (20.0 * p) ** (2 * p) * bracket ** (2 * p) * delta_l2 ** (2 * p)


def stretched_bound(t: float, rho: float, c: float, delta_l2: float) -> float:
    """Tail bound 4 exp(-c t^rho / ||dg||^rho); c is a supplied constant."""
    if delta_l2 <= 0:
        return 0.0 if t > 0 else 4.0
    return 4.0 * math.exp(-c * (t / delta_l2) ** rho)


def orlicz_chebyshev_bound(t: float, rho: float, lux_norm: float) -> float:
    """Tail bound 2 / phi(t / ||g - Eg||_phi) from the Orlicz moment condition."""
    if t <= 0:
        raise ValueError("t must be positive")
    if lux_norm == 0.0:
        return 0.0
    spec = OrliczSpec(rho)
    denom = float(spec.phi(t / lux_norm))
    if denom == 0.0:
        return float("inf")
    return min(2.0 / denom, float("inf"))


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("model", "function", "bound", "params", "theoretical",
                "observed", "observed_lo", "observed_hi", "observed_kind",
                "verdict", "slack", "note")


@dataclass
class BoundRow:
    model: str
    function: str
    bound: str
    params: dict
    theoretical: float
    observed: float | None = None
    observed_lo: float | None = None
    observed_hi: float | None = None
    observed_kind: str = "exact"
    verdict: str = "info"
    slack: float | None = None
    note: str = ""

    def as_record(self) -> dict:
        rec = {}
        for col in _CSV_COLUMNS:
            val = getattr(self, col)
            if col == "params":
                val = json.dumps(val, sort_keys=True)
            rec[col] = val
        return rec


def classify_tail_row(row: BoundRow, tol: float = 1e-9) -> BoundRow:
    """Assign pass/fail/unresolved from the observed interval.

    Exact observations compare directly.  Monte Carlo observations pass when
    even the upper confidence end sits below the bound, fail when the lower
    end exceeds it (the sample statistically refutes the bound), and stay
    unresolved when the sample cannot distinguish the two.
    """
    theo = row.theoretical
    if row.observed_kind == "exact":
        ok = row.observed <= theo + tol
        row.verdict = "pass" if ok else "fail"
        row.slack = theo - row.observed
        return row
    lo = row.observed_lo if row.observed_lo is not None else row.observed
    hi = row.observed_hi if row.observed_hi is not None else row.observed
    if hi <= theo + tol:
        row.verdict = "pass"
    elif lo > theo + tol:
        row.verdict = "fail"
    else:
        row.verdict = "unresolved"
    row.slack = theo - hi
    return row


@dataclass
class BoundReport:
    meta: dict
    rows: list[BoundRow] = field(default_factory=list)

    def add(self, row: BoundRow) -> BoundRow:
        self.rows.append(row)
        return row

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.rows if r.verdict == "fail")

    @property
    def n_unresolved(self) -> int:
        return sum(1 for r in self.rows if r.verdict == "unresolved")

    def to_json(self) -> str:
        payload = {
            "meta": self.meta,
            "rows": [r.as_record() for r in self.rows],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          default=_json_float)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for r in self.rows:
            rec = r.as_record()
            writer.writerow({k: _csv_cell(v) for k, v in rec.items()})
        return buf.getvalue()

    def summary(self) -> str:
        total = len(self.rows)
        passes = sum(1 for r in self.rows if r.verdict == "pass")
        info = sum(1 for r in self.rows if r.verdict == "info")
        return (f"{total} rows: {passes} pass, {self.n_failures} fail, "
                f"{self.n_unresolved} unresolved, {info} informational")


def _json_float(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def report_from_json(text: str) -> BoundReport:
    payload = json.loads(text)
    rows = []
    for rec in payload["rows"]:
        rec = dict(rec)
        rec["params"] = json.loads(rec["params"])
        rows.append(BoundRow(**rec))
    return BoundReport(meta=payload["meta"], rows=rows)
