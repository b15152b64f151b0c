"""Independent exact-arithmetic references used to cross-check the package.

Everything here is computed from first principles with Fraction sums and
brute-force enumeration, deliberately avoiding the package's own closed
forms and vectorized identities.  Slow but exact; keep inputs small.
argsort_extend (a lift by sorting) and restrict (a batch average by
bincount) are the numpy references for the package's extend, and
object_extraction (object-dtype sums) the one for the solver's results.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from gridcoreset.grid import merge_map
from gridcoreset.model import Clustering


def exact_point(rho, j):
    """Grid point (2 j_t - 1) / 2^(rho_t + 1) as a tuple of Fractions."""
    return tuple(Fraction(2 * jt - 1, 2 ** (rt + 1)) for rt, jt in zip(rho, j))


def exact_indices(rho):
    """All 1-based multi-indices in row-major (last axis fastest) order."""
    return list(itertools.product(*(range(1, 2**rt + 1) for rt in rho)))


def exact_points(rho):
    """All grid points in flat order, as tuples of Fractions."""
    return [exact_point(rho, j) for j in exact_indices(rho)]


def exact_volume(rho) -> Fraction:
    return Fraction(1, 2 ** sum(rho))


def batch_members(rho, tau, q):
    """Flat fine indices whose coordinates fall inside coarse voxel q.

    Membership is decided by interval containment of the coordinates,
    (q_t - 1) / 2^tau_t < x_t < q_t / 2^tau_t, not by index arithmetic.
    """
    members = []
    for flat, point in enumerate(exact_points(rho)):
        inside = all(
            Fraction(qt - 1, 2**tt) < xt < Fraction(qt, 2**tt)
            for qt, tt, xt in zip(q, tau, point)
        )
        if inside:
            members.append(flat)
    return members


def batch_partition(rho, tau):
    """Flat fine indices of every coarse voxel, listed in flat coarse order.

    One pass over the fine points: coordinate x_t goes to the coarse interval
    q_t = floor(x_t 2^tau_t) + 1, and (q_t - 1) / 2^tau_t < x_t < q_t / 2^tau_t
    is asserted in Fractions, so membership never rests on index arithmetic.
    """
    batches = {q: [] for q in exact_indices(tau)}
    for flat, point in enumerate(exact_points(rho)):
        q = tuple(math.floor(xt * 2**tt) + 1 for xt, tt in zip(point, tau))
        assert all(Fraction(qt - 1, 2**tt) < xt < Fraction(qt, 2**tt)
                   for qt, tt, xt in zip(q, tau, point))
        batches[q].append(flat)
    return list(batches.values())


def exact_scatter(points, weights):
    """(centroid, scatter) of a weighted point set, by direct summation."""
    total = sum(weights, Fraction(0))
    if total == 0:
        raise ZeroDivisionError("zero total weight")
    d = len(points[0])
    centroid = tuple(
        sum((w * p[t] for w, p in zip(weights, points)), Fraction(0)) / total
        for t in range(d)
    )
    scatter = sum(
        (
            w * sum((p[t] - centroid[t]) ** 2 for t in range(d))
            for w, p in zip(weights, points)
        ),
        Fraction(0),
    )
    return centroid, scatter


def exact_sq_norm(diff, norm=None):
    """diff^T A diff with A defaulting to the identity."""
    d = len(diff)
    if norm is None:
        return sum(x * x for x in diff)
    return sum(diff[a] * norm[a][b] * diff[b] for a in range(d) for b in range(d))


def exact_cost(entries, sites, rho, norms=None) -> Fraction:
    """nu * sum_ij xi_ij ||x_j - s_i||^2_{A_i} over explicit entries.

    entries: iterable of (cluster, flat point, Fraction weight).
    sites: per-cluster coordinate tuples of Fractions.
    norms: optional per-cluster matrices as nested Fraction lists.
    """
    points = exact_points(rho)
    nu = exact_volume(rho)
    total = Fraction(0)
    for i, j, xi in entries:
        diff = tuple(points[j][t] - sites[i][t] for t in range(len(rho)))
        norm = None if norms is None else norms[i]
        total += Fraction(xi) * exact_sq_norm(diff, norm)
    return nu * total


def exact_delta(rho, tau) -> Fraction:
    """Total within-batch scatter of the uniform grid, by brute summation."""
    points = exact_points(rho)
    nu = exact_volume(rho)
    total = Fraction(0)
    for members in batch_partition(rho, tau):
        pts = [points[m] for m in members]
        wts = [nu] * len(pts)
        _, scatter = exact_scatter(pts, wts)
        total += scatter
    return total


def clustering_entries(C):
    """Sparse entries of a Clustering as (cluster, point, Fraction) triples."""
    return [
        (int(i), int(j), Fraction(float(v)))
        for i, j, v in zip(C.rows, C.cols, C.vals)
    ]


def site_fractions(sites):
    """Exact binary values of a float site array."""
    return [tuple(Fraction(float(x)) for x in row) for row in sites]


def exact_dual_bound(rho, sites, kappa, duals, norms=None) -> Fraction:
    """sum_i kappa_i mu_i + nu sum_j min_i (c_ij - mu_i) for the given duals.

    By weak duality this is a lower bound on the assignment LP optimum for
    any mu whatever, and every float is a dyadic rational, so evaluated in
    Fractions it is a rigorous certificate.  sites and norms as in
    exact_cost; kappa and duals may be floats.
    """
    nu = exact_volume(rho)
    mu = [Fraction(float(m)) for m in duals]
    total = sum((Fraction(float(w)) * m for w, m in zip(kappa, mu)), Fraction(0))
    for point in exact_points(rho):
        total += nu * min(
            exact_sq_norm(tuple(x - s for x, s in zip(point, site)),
                          None if norms is None else norms[i]) - mu[i]
            for i, site in enumerate(sites)
        )
    return total


def restrict(C, plan):
    """Push a fine clustering down to X(tau) by averaging over each batch.

    The left inverse of extend, so restrict(extend(C), plan) must return C.
    It keeps cluster weights and unit column sums exactly for dyadic values.
    """
    rho, tau = plan.rho, plan.tau
    keys = C.rows * tau.n + merge_map(rho, tau)[C.cols]
    sums = np.bincount(keys, weights=C.vals, minlength=C.k * tau.n)
    keys = np.flatnonzero(sums)
    return Clustering(k=C.k, n=tau.n, rows=keys // tau.n, cols=keys % tau.n,
                      vals=sums[keys] / (rho.n // tau.n))


def argsort_extend(C_tilde, plan):
    """The lift by sorting the merge map: batch members of every coarse entry.

    The package's extend scatters each lifted entry to its rank instead;
    its rows, cols and vals must match these bit for bit.
    """
    m = merge_map(plan.rho, plan.tau)
    batch = plan.rho.n // plan.tau.n
    by_cell = np.argsort(m, kind="stable").reshape(plan.tau.n, batch)
    return Clustering(k=C_tilde.k, n=plan.rho.n, rows=np.repeat(C_tilde.rows, batch),
                      cols=by_cell[C_tilde.cols].ravel(), vals=np.repeat(C_tilde.vals, batch))


def basis_potentials(costs, owner, core):
    """Cluster potentials of a final simplex basis, rebuilt independently.

    The basis is the leaf arc (owner[j], j) of every point without a core
    arc plus the core arcs: real arc i*n + j (point j -> cluster i, cost
    costs[i, j]) and artificial arc k*n + i (cluster i -> root, cost 0).
    Asserts that these arcs span the n + k + 1 nodes as a tree, then solves
    pi[root] = 0 and pi_j = pi_i + c_ij on every basic arc by a search from
    the root, in Fractions.  Float costs round to float64 after every step,
    as float64 addition does, so the result is bit-exact on both paths.
    """
    k, n = costs.shape
    e, root = k * n, n + k
    rnd = (lambda x: x) if costs.dtype == np.int64 else (lambda x: Fraction(float(x)))
    in_core = {arc % n for arc in core if arc < e}
    arcs = [int(owner[j]) * n + j for j in range(n) if j not in in_core] + list(core)
    adj = {v: [] for v in range(root + 1)}
    for arc in arcs:
        u, v = (root, n + arc - e) if arc >= e else (n + arc // n, arc % n)
        adj[u].append((v, arc))
        adj[v].append((u, arc))
    pi = {root: Fraction(0)}
    stack = [root]
    while stack:
        u = stack.pop()
        for v, arc in adj[u]:
            if v not in pi:
                c = 0 if arc >= e else Fraction(costs.item(arc))
                pi[v] = rnd(pi[u] + c if v < n else pi[u] - c)
                stack.append(v)
    assert len(arcs) == n + k and len(pi) == root + 1, "basis is not a spanning tree"
    return [pi[n + i] for i in range(k)]


def greedy_start(costs, supply, demands):
    """The greedy start basis, one point at a time, as (owner, core).

    The reference for solver._greedy_start.  Points come in decreasing
    regret, the second-cheapest cost minus the cheapest (0 when k = 1), ties
    to the lower index.  A point goes whole to its cheapest cluster (lowest
    index among ties) when that cluster has room; otherwise it takes what is
    left of each cluster in (cost, index) order until its supply is placed.
    core holds the split arcs i*n + j of every point placed in more than one
    cluster, with their amounts.  A split point joins the trees of its
    clusters into one, which keeps the representative of its cheapest
    cluster's tree, and each tree hangs from the root by the artificial arc
    k*n + a of its representative a, at flow 0.
    """
    k, n = costs.shape
    cols = [[costs[i, j].item() for i in range(k)] for j in range(n)]
    regret = [b - a for a, b, *_ in map(sorted, cols)] if k > 1 else [0] * n
    cap = list(demands)
    rep = list(range(k))
    owner = [0] * n
    core = {}
    for j in sorted(range(n), key=lambda j: (-regret[j], j)):
        ranked = sorted(range(k), key=lambda i: (cols[j][i], i))
        need, got = supply, []
        if cap[ranked[0]] < supply:
            ranked = [i for i in ranked if cap[i] > 0]
        for i in ranked:
            take = min(cap[i], need)
            cap[i] -= take
            need -= take
            got.append((i, take))
            if need == 0:
                break
        owner[j] = got[0][0]
        if len(got) > 1:
            core.update({i * n + j: take for i, take in got})
            joined = {rep[i] for i, _ in got}
            rep = [rep[got[0][0]] if r in joined else r for r in rep]
    core.update({k * n + a: 0 for a in sorted(set(rep))})
    return owner, core


def object_extraction(problem, owner, core, pi_cl):
    """A final simplex basis's support and values, extracted with np.isin and
    object-dtype arrays of length n, as (arcs, flows, objective,
    dual_objective, duals).

    The reference for solve_assignment's extraction, which must match it bit
    for bit: on the exact path every sum is in Python integers over
    2^-unit_bits 4^-cost_bits and is rounded once through a Fraction; on the
    float path the sums are the solver's float64 ones.
    """
    k, n = problem.k, problem.n
    cols = np.arange(n)
    split = [(arc, f) for arc, f in core.items() if arc < k * n and f > 0]
    split_arcs, split_flows = np.array(split, dtype=np.int64).reshape(-1, 2).T
    leaf = np.isin(cols, split_arcs % n, invert=True)
    arcs = np.append(owner[leaf] * n + cols[leaf], split_arcs)
    flows = np.append(np.full(np.count_nonzero(leaf), problem.supply, dtype=np.int64), split_flows)
    order = np.argsort(arcs)
    arcs, flows = arcs[order], flows[order]

    costs = problem.costs.ravel()[arcs]
    unit = Fraction(1, 1 << problem.unit_bits)
    if problem.exact:
        total = np.dot(flows.astype(object), costs.astype(object))
        objective = float(Fraction(total, 1 << (problem.unit_bits + 2 * problem.cost_bits)))
        scale, dtype = Fraction(1, 1 << (2 * problem.cost_bits)), object
    else:
        objective = float(unit) * float(np.dot(flows.astype(np.float64), costs))
        scale, unit, dtype = 1.0, float(unit), np.float64
    pi_pts = pi_cl[owner] + problem.costs[owner, cols]
    pi_pts, pi_cl = pi_pts.astype(dtype), pi_cl.astype(dtype)
    demands = np.array(problem.demands, dtype=dtype)
    mu = pi_cl[0] - pi_cl
    dual = problem.supply * np.sum(pi_pts - pi_cl[0]) + np.dot(demands, mu)
    return (arcs, flows, objective, float(unit * (dual * scale)),
            tuple(float(v * scale) for v in mu))
