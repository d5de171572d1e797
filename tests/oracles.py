"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the package's own numerics: plain dict/loop code so
that agreement is meaningful.
"""

import ctypes
import glob
import itertools
import os
from math import exp

import numpy as np


def naive_variation(fn, sites, x, values):
    """Max |fn(a) - fn(b)| over assignments differing only at position of x."""
    axis = sites.index(x)
    best = 0.0
    rest = [i for i in range(len(sites)) if i != axis]
    for assign in itertools.product(values, repeat=len(rest)):
        outs = []
        for v in values:
            full = [None] * len(sites)
            for i, r in zip(rest, assign):
                full[i] = r
            full[axis] = v
            outs.append(fn(tuple(full)))
        best = max(best, max(outs) - min(outs))
    return best


def mean_value(v):
    """Magnetization of one configuration: the mean of its values."""
    return sum(v) / len(v)


def sign_of_sum(v):
    """Majority vote of one configuration: the sign of its value sum."""
    total = sum(v)
    return 1.0 if total > 0 else -1.0 if total < 0 else 0.0


def pattern_match(target):
    """Indicator that a configuration equals `target`, value by value."""
    return lambda v: 1.0 if tuple(v) == tuple(target) else 0.0


def spiral_walk(d):
    """The enumeration order as a walk, site by site: 0, 1, 2, ... in 1D; in
    2D the counterclockwise square spiral from the origin, runs of 1, 1, 2,
    2, 3, ... steps turning left after each run, the first step in +x."""
    if d == 1:
        yield from ((i,) for i in itertools.count())
        return
    directions = ((1, 0), (0, 1), (-1, 0), (0, -1))
    x, y = 0, 0
    yield (0, 0)
    direction = 0
    for run in itertools.count(1):
        for _ in range(2):
            dx, dy = directions[direction % 4]
            for _ in range(run):
                x, y = x + dx, y + dy
                yield (x, y)
            direction += 1


def naive_tv(p, q):
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def dict_joint(joint):
    """ExactJoint -> {config index tuple: probability} dictionary."""
    out = {}
    it = np.ndenumerate(joint.probs)
    for idx, p in it:
        if p > 0:
            out[idx] = float(p)
    return out


def naive_conditional_expectations(dist, g_of_config, n):
    """E[g | first i+1 coordinates] for every i, as dicts prefix -> value."""
    tables = []
    for i in range(n):
        num, den = {}, {}
        for cfg, p in dist.items():
            pre = cfg[: i + 1]
            num[pre] = num.get(pre, 0.0) + p * g_of_config(cfg)
            den[pre] = den.get(pre, 0.0) + p
        tables.append({k: num[k] / den[k] for k in num if den[k] > 0})
    return tables


def naive_increments(dist, g_of_config, n):
    """Martingale increments V_i(config) computed from dictionaries."""
    eg = sum(p * g_of_config(c) for c, p in dist.items())
    tables = naive_conditional_expectations(dist, g_of_config, n)
    out = []
    for cfg in dist:
        vs = []
        prev = eg
        for i in range(n):
            cur = tables[i][cfg[: i + 1]]
            vs.append(cur - prev)
            prev = cur
        out.append((cfg, vs))
    return out


def ising_weight(config_vals, bonds, bfield, beta):
    """exp(beta * (sum of bond products + boundary field contributions))."""
    e = 0.0
    for i, j in bonds:
        e += config_vals[i] * config_vals[j]
    for i, h in enumerate(bfield):
        e += config_vals[i] * h
    return exp(beta * e)


def transport_vertex_oracle(p, q, cost):
    """Exact transportation optimum by enumerating spanning-forest vertices.

    Vertices of the transportation polytope have support contained in a
    spanning tree of the complete bipartite graph; enumerate all edge subsets
    of size m+n-1 that are acyclic and connected, solve the unique flow, and
    keep the feasible ones.
    """
    m, n = len(p), len(q)
    edges = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for subset in itertools.combinations(edges, m + n - 1):
        # connectivity + acyclicity via union-find on m+n nodes
        parent = list(range(m + n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for i, j in subset:
            ra, rb = find(i), find(m + j)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok:
            continue
        # solve the tree flow by repeatedly peeling leaves
        adj = {}
        for i, j in subset:
            adj.setdefault(("r", i), []).append(("c", j))
            adj.setdefault(("c", j), []).append(("r", i))
        need = {("r", i): p[i] for i in range(m)}
        need.update({("c", j): q[j] for j in range(n)})
        flows = {}
        live = {k: list(v) for k, v in adj.items()}
        feasible = True
        pending = [k for k, v in live.items() if len(v) == 1]
        removed = set()
        while pending:
            node = pending.pop()
            if node in removed or not live[node]:
                continue
            other = live[node][0]
            f = need[node]
            if f < -1e-12:
                feasible = False
                break
            i = node[1] if node[0] == "r" else other[1]
            j = node[1] if node[0] == "c" else other[1]
            flows[(i, j)] = flows.get((i, j), 0.0) + f
            need[other] -= f
            removed.add(node)
            live[other] = [x for x in live[other] if x != node]
            if len(live[other]) == 1:
                pending.append(other)
        if not feasible or any(f < -1e-9 for f in flows.values()):
            continue
        c = sum(cost[i][j] * f for (i, j), f in flows.items())
        if best is None or c < best - 1e-15:
            best = c
    return best


def reference_coupling_rows(joint, i):
    """(value, lower, upper, past_mass) of row i, by the formula the package
    first had: for coordinate j = i + 1 + y, four strided
    `reshape(n_past, k**y, k, R).sum(axis=(1, 3))` reductions per symbol
    pair.  Every array has the joint's dtype.  Run on a `np.longdouble`
    copy of a joint, it is the reference `coupling.coupling_rows_all` must
    meet within 1e-15: in float64 its sums of k**y runs in sequence miss
    the long-double bands by up to 1.9e-14 on 4x4 volumes.
    """
    m, k = joint.n_sites, joint.k
    n_past = k ** i
    value, lower, upper = (np.zeros((n_past, m), dtype=joint.probs.dtype) for _ in range(3))
    value[:, i] = lower[:, i] = upper[:, i] = 1.0
    past_mass = np.array([1.0]) if i == 0 else joint.prefix_marginal(i - 1).reshape(-1)
    if i == m - 1:
        return value, lower, upper, past_mass
    t = joint.probs.reshape(n_past, k, -1)
    n_future = t.shape[2]
    sym_mass = t.sum(axis=2)
    cond = t / np.where(sym_mass > 0.0, sym_mass, 1.0)[:, :, None]
    for a in range(k):
        for b in range(a + 1, k):
            ok = (sym_mass[:, a] > 0.0) & (sym_mass[:, b] > 0.0)
            if not ok.any():
                continue
            p1, p2 = cond[:, a, :], cond[:, b, :]
            mn = np.minimum(p1, p2)
            r1, r2 = p1 - mn, p2 - mn
            resid = r1.sum(axis=1)
            safe = np.where(resid > 1e-15, resid, 1.0)
            for y in range(m - i - 1):
                j = i + 1 + y
                shape = (n_past, k ** y, k, n_future // k ** (y + 1))
                ax = (1, 3)
                m1 = p1.reshape(shape).sum(axis=ax)
                m2 = p2.reshape(shape).sum(axis=ax)
                tv_j = 0.5 * np.abs(m1 - m2).sum(axis=1)
                g1 = r1.reshape(shape).sum(axis=ax)
                g2 = r2.reshape(shape).sum(axis=ax)
                val = resid - (g1 * g2).sum(axis=1) / safe
                val = np.clip(np.where(resid > 1e-15, val, 0.0), 0.0, None)
                value[:, j] = np.maximum(value[:, j], np.where(ok, val, 0.0))
                lower[:, j] = np.maximum(lower[:, j], np.where(ok, tv_j, 0.0))
                upper[:, j] = np.maximum(upper[:, j], np.where(ok, resid, 0.0))
    return value, lower, upper, past_mass


def reference_decomposition(joint, g_table, mean):
    """Martingale increments by the formula the package first had: every
    V_i broadcast over the joint's shape, stacked into one (m, *shape)
    array, zero off the support.  `bounds.martingale_decomposition` must
    match it bit for bit on the support.
    """
    p = joint.probs
    m = joint.n_sites
    support = p > 0
    prev = np.full(p.shape, mean)
    increments = np.empty((m,) + p.shape)
    for i in range(m):
        axes = tuple(range(i + 1, m))
        num = (p * g_table).sum(axis=axes, keepdims=True)
        den = p.sum(axis=axes, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        cond = np.broadcast_to(cond, p.shape)
        increments[i] = np.where(support, cond - prev, 0.0)
        prev = np.where(den > 0, cond, prev)
    return increments


def reference_decomposition_errors(joint, g_table, mean, increments):
    """(telescoping, conditional mean, orthogonality) errors of dense
    increments, by the package's first formulas; the orthogonality sums run
    over blocks of at most 2**17 entries, which does not change them."""
    p = joint.probs
    support = p > 0
    total = sum(increments)
    telescoping = float(np.abs(total - (g_table - mean))[support].max())
    cond_mean = 0.0
    for i, v in enumerate(increments):
        axes = tuple(range(i, joint.n_sites))
        num = (p * v).sum(axis=axes)
        den = p.sum(axis=axes)
        mask = den > 0
        if np.any(mask):
            cond_mean = max(cond_mean, float(np.abs(np.atleast_1d(num)[np.atleast_1d(mask)]
                                                    / np.atleast_1d(den)[np.atleast_1d(mask)]).max()))
    pf = p.reshape(-1)
    v = increments.reshape(len(increments), -1)
    step = max(1, 2 ** 17 // v.shape[1])
    ortho = 0.0
    for i in range(len(v) - 1):
        pv = pf * v[i]
        for j in range(i + 1, len(v), step):
            ortho = max(ortho, float(np.abs((pv * v[j:j + step]).sum(axis=1)).max()))
    return telescoping, cond_mean, ortho


def reference_backbone(joint, increments, values, per_site):
    """(worst gap, witness (i, flat config)) of the backbone check by its
    first loop: every row's gap over all k**m configurations, -inf off the
    support, with `values[i]` the row-i band values."""
    m, k = joint.n_sites, joint.k
    conf = np.arange(k ** m)
    support = (joint.probs > 0).reshape(-1)
    worst = -np.inf
    witness = (0, 0)
    for i in range(m):
        rhs = (values[i] @ per_site)[conf // k ** (m - i)]
        gap = np.abs(increments[i].reshape(-1)) - rhs
        gap = np.where(support, gap, -np.inf)
        j = int(gap.argmax())
        if gap[j] > worst:
            worst = float(gap[j])
            witness = (i, j)
    return worst, witness


def reference_central_moment(joint, g_table, mean, q):
    """E(g - Eg)^q by the battery's first formula, `pow` on every entry of
    the centered table.  `verify._observable_rows` reads it from the law
    (`ExactJoint.law`) and matches it to rounding."""
    return float((joint.probs * (g_table - mean) ** q).sum())


def reference_tail(joint, g_table, t):
    """P(|g - Eg| >= t) by the first formula, a compare over the full table,
    a boolean gather and a sum.  `ExactJoint.exact_tail` reads it from the
    law and matches it to rounding."""
    centered = g_table - float((joint.probs * g_table).sum())
    return float(joint.probs[np.abs(centered) >= t].sum())


def reference_moment_row(past_mass, value, p):
    """Row i of the order-p moment matrix by its first formula, `pow` on
    every entry of the row-i band `value`.
    `coupling.envelope_and_moment_matrices` must match it bit for bit."""
    return (past_mass @ value ** p) ** (1.0 / p)


def reference_heat_bath(model, n_samples, sweeps, seed, starts=(1,), frozen=None, chunk=1024):
    """Float32 heat bath with a gathered p_+ table, leg by leg, leg k from
    every site at symbol index starts[k] (1 plus, 0 minus).

    Returns one site-major int8 array (n_legs, n_sites, n_samples) of symbol
    indices.  Same chunks of `chunk` replicas (the package's CHUNK), seeds
    and site classes as the package kernel; missing neighbors count 0, and
    every site reads its own threshold row.  Each class update draws
    `random(dtype=float32)` and sets the spin to [u < p_+(site, plus
    neighbors)] read from a float32 table on the 2^-24 grid.  The package
    kernel must match it bit for bit.
    """
    m = model.n_sites
    pinned, symbols = frozen if frozen is not None else (None, (None,) * len(starts))
    parity = np.array([sum(s) & 1 for s in model.sites])
    free = np.arange(m) != pinned
    order = np.concatenate([np.flatnonzero(free & (parity == 0)),
                            np.flatnonzero(free & (parity == 1)),
                            np.flatnonzero(~free)])
    row = np.empty(m, dtype=np.intp)
    row[order] = np.arange(m)
    deg = max(1, max(len(nb) for nb in model.nn_index))
    nbr = np.full((m, deg), m, dtype=np.intp)
    for i, nb in enumerate(model.nn_index):
        nbr[row[i], :len(nb)] = row[nb]
    degree = np.array([len(nb) for nb in model.nn_index])[order]
    field = (2 * np.arange(deg + 1) - degree[:, None]) + model.boundary_field[order][:, None]
    p_plus = 0.5 * (1.0 + np.tanh(model.beta * field))
    table = (np.round(p_plus * 2.0**24) / 2.0**24).astype(np.float32).reshape(-1)
    base = (np.arange(m) * (deg + 1))[:, None]
    n0 = int((free & (parity == 0)).sum())
    classes = [(0, n0), (n0, int(free.sum()))]
    out = np.empty((len(starts), m, n_samples), dtype=np.int8)
    children = np.random.SeedSequence(seed).spawn(-(-n_samples // chunk))
    for j, child in enumerate(children):
        lo, hi = j * chunk, min(j * chunk + chunk, n_samples)
        rng = np.random.default_rng(child)
        size = hi - lo
        legs = []
        for start, sym in zip(starts, symbols):
            spins = np.zeros((m + 1, size), dtype=np.int8)
            spins[:m] = start
            if pinned is not None:
                spins[row[pinned]] = sym
            legs.append(spins)
        for _ in range(sweeps):
            for a, b in classes:
                u = rng.random((b - a, size), dtype=np.float32)
                for spins in legs:
                    count = spins[nbr[a:b]].sum(axis=1, dtype=np.intp)
                    spins[a:b] = u < table[base[a:b] + count]
        for k, spins in enumerate(legs):
            out[k, :, lo:hi] = spins[row]
    return out


def numpy_openblas(name):
    """`openblas_<name>` (e.g. "get_num_threads") of the OpenBLAS bundled with
    numpy in `numpy.libs`, or None when numpy bundles none."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(handle, sym):
                return getattr(handle, sym)
    return None
