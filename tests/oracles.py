"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the package's own numerics: plain dict/loop code so
that agreement is meaningful.
"""

import itertools
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


def reference_heat_bath(model, n_samples, sweeps, seed, start="plus", frozen=None):
    """Float32 heat bath with a gathered p_+ table, leg by leg.

    Returns one site-major int8 array (n_legs, n_sites, n_samples) of symbol
    indices.  Same chunks, seeds, site classes and start draws as the
    package kernel; each class update draws `random(dtype=float32)` and sets
    the spin to [u < p_+(site, plus neighbors)] read from a float32 table on
    the 2^-24 grid.  The package kernel must match it bit for bit.
    """
    m = model.n_sites
    pinned, symbols = frozen if frozen is not None else (None, (None,))
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
    out = np.empty((len(symbols), m, n_samples), dtype=np.int8)
    children = np.random.SeedSequence(seed).spawn(-(-n_samples // 1024))
    for j, child in enumerate(children):
        lo, hi = j * 1024, min(j * 1024 + 1024, n_samples)
        rng = np.random.default_rng(child)
        size = hi - lo
        if start == "plus":
            start_cfg = np.ones((m, size), dtype=np.int8)
        elif start == "minus":
            start_cfg = np.zeros((m, size), dtype=np.int8)
        else:
            start_cfg = rng.integers(2, size=(m, size), dtype=np.int8)
        legs = []
        for sym in symbols:
            spins = np.zeros((m + 1, size), dtype=np.int8)
            spins[row] = start_cfg
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
