"""Exact weight-constrained assignment via a transportation network simplex.

The assignment LP is a balanced transportation problem: grid points supply
mass nu(r) each, clusters demand kappa_i, arcs cost ||x_j - s_i||^2_{A_i}.
All supplies and demands are scaled by a common power of two into integers,
so every basic solution the simplex visits has exactly integer flows and the
returned assignment fractions are exact dyadic rationals.

The simplex itself is primal, on the bipartite graph plus an artificial
root.  Its basis is stored the way an optimum looks, as a power diagram
plus a few split points.  A point with one basic arc is a leaf, kept only as
the index of its cluster; every other basic arc (the arcs of split points
and the artificial cluster -> root arcs) belongs to the core, a tree over
the root, the k clusters and the s split points.  That tree has k + s arcs,
the root has at least one and every split point at least two, so
s <= k - 1 (the bound of Aurenhammer, Hoffmann and Aronov, "Minkowski-type
theorems and least-squares clustering", 1998).  A pivot therefore costs one
O(kn) numpy pricing pass plus O(k) work on the core.

Entering arcs follow Dantzig's rule with a fixed deterministic tie order
(lowest cluster index, then lowest point index).  Leaving arcs are chosen
to keep the spanning tree strongly feasible, which rules out cycling and
so guarantees termination whatever the entering rule (Cunningham, "A
network simplex method", 1976; Ahuja, Magnanti and Orlin, "Network Flows",
1993, section 11.5).  When every cost is exactly representable over a
small power-of-four denominator (dyadic sites, Euclidean norm), pricing
runs in 64-bit integers and the optimum is exact.

A coarser problem is an Instance too, replace(instance, rho=tau).  Every
solve climbs a coarse-to-fine resolution ladder, as in Merigot, "A
multiscale approach to optimal transport" (2011), and Schmitzer, "A sparse
multiscale algorithm for dense optimal transport" (2016): the same instance
is solved coarser first (three exponents lower in 1-D, one elsewhere), in
one cost unit per solve, and the finer level's greedy start runs on its
costs shifted by the coarser level's potentials, which nearly fix the fine
power diagram, so few pivots remain.  The greedy start takes the points in
Vogel's order of decreasing regret, so the points a full cluster turns away
are those on a cell boundary.  Any shift and any order give a feasible
start: the ladder and the start change the pivot path, never the optimum.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .grid import Resolution, as_resolution, coords_array
from .model import Clustering, Instance, site_array, sq_dists

# Dense arc cap: beyond this, refuse and point the caller at coarsening.
MAX_ARCS = 50_000_000

# Largest power-of-two cost denominator for the exact integer mode.
MAX_COST_BITS = 26

# Relative pricing tolerance in float mode.
ENTER_TOL = 1e-11

# Ladder floor: the coarser level lowers every axis exponent above this, not
# below it, by three in 1-D (8x fewer points, as one 3-D step), else by one.
_LADDER_BASE = 2

# One debug line per ladder level: resolution, pivots, start objective and
# the level's optimum.
_log = logging.getLogger("gridcoreset")


class PivotLimitError(RuntimeError):
    """The simplex ran past its pivot cap, which only a solver bug can cause."""


@dataclass(frozen=True)
class TransportProblem:
    """Integer-scaled transportation formulation of one assignment solve."""

    resolution: Resolution
    costs: np.ndarray           # (k, n): int64 in units of 4^-cost_bits if exact, else float64
    supply: int                 # per-point supply, units of 2^-unit_bits
    demands: tuple[int, ...]    # per-cluster demand, same units
    unit_bits: int              # the common scale: 1 unit = 2^-unit_bits mass
    cost_bits: int

    @property
    def k(self) -> int:
        return self.costs.shape[0]

    @property
    def n(self) -> int:
        return self.costs.shape[1]

    @property
    def exact(self) -> bool:
        return self.costs.dtype == np.int64


@dataclass(frozen=True)
class SolveResult:
    """Optimal basic solution of one transportation solve.

    duals are the cluster potentials mu_i, normalized so mu_1 = 0; support
    arcs attain min_i (c_ij - mu_i).  dual_objective uses the matching point
    potentials, so objective - dual_objective is the duality gap.  pivots
    is the total over every level of the resolution ladder.
    """

    clustering: Clustering
    objective: float
    duals: tuple[float, ...]
    fractional_count: int
    resolution: Resolution
    dual_objective: float
    pivots: int
    exact: bool


def build_transport(instance: Instance, resolution=None) -> TransportProblem:
    """Assemble the transportation problem of the instance at a ladder level.

    resolution defaults to the instance grid; a coarser one must be
    componentwise <= rho.
    """
    rho = instance.rho
    r = as_resolution(resolution) if resolution is not None else rho
    if not r <= rho:
        raise ValueError(f"solve resolution {r.exponents} not componentwise <= rho={rho.exponents}")
    s = site_array(instance.sites, instance.k, rho.d)
    bits = _cost_bits(instance, s)
    k = instance.k
    n = r.n
    if n * k > MAX_ARCS:
        raise ValueError(
            f"dense arc set n*k = {n * k} exceeds {MAX_ARCS}; "
            "coarsen the instance first (see the coreset module)"
        )

    # Common integer scale for supplies and demands: 1 unit = 2^-L.
    L = max(instance.kappa_bits, sum(r.exponents))
    supply = 1 << (L - sum(r.exponents))
    demands = tuple(u << (L - instance.kappa_bits) for u in instance.kappa_units)

    pts = coords_array(r)
    if bits:
        scale = float(1 << bits)
        costs = sq_dists((pts * scale).astype(np.int64), (s * scale).astype(np.int64))
    else:
        costs = sq_dists(pts, s, None if instance.norms is None else instance.norms.matrices)
        if not costs.max(initial=0.0) < np.inf:  # einsum overflows to inf or NaN unraised
            raise ValueError("costs overflow float64: the sites or norm matrices are too large")

    return TransportProblem(
        resolution=r, costs=costs, supply=supply, demands=demands,
        unit_bits=L, cost_bits=bits,
    )


def _cost_bits(instance: Instance, s: np.ndarray) -> int:
    """The cost_bits of every level of a solve: costs in units of 4^-bits, or 0 for float costs.

    Exact integer costs when isotropic and every coordinate lies over
    2^bits: grid points over 2^(rho_t+1) at any r <= rho, so every level
    of a solve shares one cost unit; sites over their own (power-of-two)
    denominators.  Sites within [-4, 4] keep coordinate differences below
    5 * 2^bits, and the reduced costs then stay within int64: potentials
    are alternating cost sums along tree paths, at most 2k+4 terms, each
    at most 25 * d * 4^bits.
    """
    rho = instance.rho
    bits = max([e + 1 for e in rho.exponents]
               + [v.as_integer_ratio()[1].bit_length() - 1 for v in s.ravel().tolist()])
    if (instance.norms is None and bits <= MAX_COST_BITS and np.all(np.abs(s) <= 4)
            and (2 * instance.k + 4) * 25 * rho.d * 4**bits < 2**62):
        return bits
    return 0


def _greedy_start(cost2d: np.ndarray, supply: int, demands):
    """Cheapest-available greedy start basis as (owner, core).

    cost2d may be any (k, n) array, in practice the costs shifted by start
    potentials: the basis is feasible whatever it holds and in whatever
    order the points come.  Points are processed in decreasing regret, the
    second-cheapest cost minus the cheapest (Vogel's approximation method,
    Reinfeld and Vogel 1958), ties to the lower index, so the points a full
    cluster pushes out are those nearest another cluster.  That is the one
    sort (k = 1 has zero regret, so it keeps index order); the first
    overflow is found by selection.  A point goes whole to its cheapest
    cluster if that one has room (ties to the lowest index), and is split
    over clusters in cost order otherwise.  owner[j] is the cluster of a
    point assigned whole; core maps every split arc i*n + j to its amount.
    A split point exhausts all but at most one of its clusters, so the
    split arcs form a forest.  It joins the trees of those clusters into
    one, which keeps its cheapest cluster's representative (rep[i] is
    cluster i's), and each tree hangs from the root by the artificial arc
    k*n + a of its representative a, at flow 0.
    """
    k, n = cost2d.shape
    owner = np.argmin(cost2d, axis=0)
    cheapest = np.partition(cost2d, min(1, k - 1), axis=0)[:2]
    order = np.argsort(cheapest[0] - cheapest[-1], kind="stable")
    chosen = owner[order]

    # Every point before the first overflow goes whole to its cheapest
    # cluster.  Cluster i takes room[i] whole points, so its first overflow
    # is its room[i]-th chooser (from 0) in processing order.
    room = [c // supply for c in demands]
    over = [i for i, m in enumerate(np.bincount(chosen, minlength=k).tolist()) if m > room[i]]
    t = min((int(np.flatnonzero(chosen == i)[room[i]]) for i in over), default=n)
    cap = [c - supply * m for c, m in zip(demands, np.bincount(chosen[:t], minlength=k).tolist())]

    core: dict[int, int] = {}
    rep = list(range(k))
    tail = order[t:]
    by_cost = np.argsort(cost2d[:, tail], axis=0, kind="stable").T.tolist()
    for j, ranked in zip(tail.tolist(), by_cost):
        need = supply
        got: list[tuple[int, int]] = []
        for i in ranked:
            if cap[i] <= 0:
                continue
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


def _network_simplex(problem: TransportProblem, mu=0):
    """Primal network simplex on the leaf/core basis of the transportation graph.

    The start basis is the greedy one on the shifted costs C - mu[:, None]:
    mu = 0 is a cold start, and cluster potentials that nearly price the
    optimum (from a coarser level) give a start close to it.  Pricing, the
    leaving rule and optimality only ever see the true costs.

    Node layout: points 0..n-1, clusters n..n+k-1, artificial root n+k.
    Real arc a = i*n + j runs point j -> cluster i with cost C[i, j];
    artificial arc e+i runs cluster i -> root with cost 0 and flow fixed 0.
    The basis is a spanning tree rooted at the root, stored in two parts:

    - leaves: a point with one basic arc, kept only as owner[j], carrying
      the full supply;
    - core: every other basic arc with its flow, i.e. the arcs of split
      points and the artificial arcs.  The core is a tree over the root,
      the clusters and at most k-1 split points.

    Potentials satisfy pi[root] = 0 and zero reduced cost on basic arcs.
    The core tree (parents up, children kids) is built once and updated in
    place: a pivot reverses the parent arcs from the entering arc's end
    inside the subtree that the leaving arc cuts off up to that arc, and
    recomputes potentials top-down in that subtree only, by the same
    parent-plus-or-minus-cost recurrence, so each stays the same sum along
    its root path.  owner[j] of a split point is its core parent, and
    own[j] = C[owner[j], j] changes only with it, so every point potential
    is pi_cl[owner] + own, one vector op ahead of pricing; the cluster
    potentials pi_cl are the only ones stored.

    Returns the final basis and its duals as (owner, core, pi_cl, pivots);
    core maps every core arc, artificial and zero-flow ones included, to its
    flow.
    """
    C2 = problem.costs
    cost = C2.item                                 # Python scalar of a flat arc index
    k, n = problem.k, problem.n
    e = k * n
    root = n + k
    supply = problem.supply
    cols = np.arange(n)

    owner, core = _greedy_start(C2 - np.reshape(mu, (-1, 1)), supply, problem.demands)
    logging_on = _log.isEnabledFor(logging.DEBUG)
    start = _objective(problem, *_support(problem, owner, core)) if logging_on else None
    own = C2[owner, cols]                          # C[owner[j], j]
    pi_cl = np.zeros(k, dtype=C2.dtype)
    up, kids = {root: (-1, -1)}, defaultdict(set)

    def link(v, u, arc):
        up[v] = (u, arc)
        kids[u].add(v)

    def price(v):
        # Potential of v from its core parent u's; a split point u's is pi_cl[owner[u]] + own[u].
        u, arc = up[v]
        if v < n:
            owner[v], own[v] = u - n, cost(arc)
        else:
            pi_cl[v - n] = 0 if arc >= e else pi_cl[owner[u]] + own[u] - cost(arc)

    nbrs = defaultdict(list)
    for arc in core:
        u, v = (root, arc - e + n) if arc >= e else (n + arc // n, arc % n)
        nbrs[u].append((v, arc))
        nbrs[v].append((u, arc))
    stack = [root]
    while stack:
        u = stack.pop()
        for v, arc in nbrs[u]:
            if v not in up:
                link(v, u, arc)
                price(v)
                stack.append(v)

    def to_root(v):
        nodes, arcs = [v], []
        while v != root:
            v, arc = up[v]
            nodes.append(v)
            arcs.append(arc)
        return nodes, arcs

    def tail(arc):
        return arc % n if arc < e else n + arc - e

    tol = 0 if problem.exact else ENTER_TOL * max(1.0, float(problem.costs.max(initial=0.0)))
    rc = np.empty((k, n), dtype=C2.dtype)
    pivots = 0
    max_pivots = 1000 + 200 * (n + k) * max(4, k)
    while True:
        # Pricing: Dantzig's rule, the most negative reduced cost.
        np.subtract(pi_cl[:, None], (pi_cl[owner] + own)[None, :], out=rc)
        np.add(rc, C2, out=rc)
        flat = rc.ravel()
        a = int(np.argmin(flat))
        if not flat[a] < -tol:
            break
        pivots += 1
        if pivots > max_pivots:
            raise PivotLimitError(f"network simplex exceeded {max_pivots} pivots; "
                                  "this indicates a bug, please report it")
        i, j = divmod(a, n)
        if j not in up:                            # j's leaf arc joins the core
            leaf = int(owner[j]) * n + j
            core[leaf] = supply
            link(j, n + leaf // n, leaf)
        # Cycle of the entering arc, as (arc, node it is traversed from), from
        # the apex down to j, across a, and from cluster i back up.
        pn, pa = to_root(j)
        qn, qa = to_root(n + i)
        while len(pn) > 1 and len(qn) > 1 and pn[-2] == qn[-2]:
            del pn[-1], pa[-1], qn[-1], qa[-1]
        cycle = [*zip(reversed(pa), reversed(pn[1:])), (a, j), *zip(qa, qn)]
        core[a] = 0
        # Leaving arc: minimum residual, the last such arc from the apex (keeps
        # the tree strongly feasible, which prevents cycling).  Only arcs
        # traversed against their direction block; a degenerate pivot moves 0.
        out = min((arc for arc, node in reversed(cycle) if tail(arc) != node), key=core.get)
        delta = core[out]
        for arc, node in cycle:
            core[arc] += delta if tail(arc) == node else -delta
        del core[out]
        # Re-hang the subtree that out cuts off: reverse the parent arcs from
        # a's end inside it up to out, then re-price the subtree top-down.
        v, u, arc = (j, n + i, a) if out in pa else (n + i, j, a)
        stack = [v]
        while arc != out:
            w, up_arc = up[v]
            kids[w].discard(v)
            link(v, u, arc)
            v, u, arc = w, v, up_arc
        while stack:
            v = stack.pop()
            price(v)
            stack.extend(kids[v])
        if out < e and not kids[out % n]:          # its point is a leaf again
            w, arc = up.pop(out % n)
            kids[w].discard(out % n)
            del core[arc]

    if logging_on:
        _log.debug("level %s: %d pivots, start objective %r, optimum %r",
                   problem.resolution.exponents, pivots, start,
                   _objective(problem, *_support(problem, owner, core)))
    return owner, core, pi_cl, pivots


def _support(problem: TransportProblem, owner, core):
    """Support of a basis as (arcs, flows) in arc order: every leaf at full
    supply plus the split arcs with positive flow."""
    k, n = problem.k, problem.n
    cols = np.arange(n)
    split = [(arc, f) for arc, f in core.items() if arc < k * n and f > 0]
    split_arcs, split_flows = np.array(split, dtype=np.int64).reshape(-1, 2).T
    leaf = np.ones(n, dtype=bool)
    leaf[split_arcs % n] = False
    arcs = np.append(owner[leaf] * n + cols[leaf], split_arcs)
    flows = np.append(np.full(np.count_nonzero(leaf), problem.supply, dtype=np.int64), split_flows)
    order = np.argsort(arcs)
    return arcs[order], flows[order]


def _objective(problem: TransportProblem, arcs, flows) -> float:
    """Cost of a support over 2^-unit_bits 4^-cost_bits, rounded once: int / int
    is correctly rounded, and a float64 over a power of two is scaled exactly."""
    dtype = object if problem.exact else np.float64
    total = np.dot(flows.astype(dtype), problem.costs.ravel()[arcs].astype(dtype))
    return float(total / (1 << (problem.unit_bits + 2 * problem.cost_bits)))


def solve_assignment(instance: Instance) -> SolveResult:
    """Globally optimal basic solution of the instance's assignment LP on X(rho).

    Deterministic: fixed pivot and tie-break rules, and a ladder start that
    solves the levels below rho first (every axis exponent above _LADDER_BASE,
    which is 2, lowered by three per level in 1-D, by one otherwise), each
    built by build_transport in the one cost unit of rho and the sites; pivots
    counts all levels, and the "gridcoreset" logger gives one debug line per
    level.  When every kappa_i is an integer multiple of nu(rho), the basic
    optimum is integer; in general at most 2(k-1) fractions are fractional.
    """
    # Potentials, duals and sums past float64 raise FloatingPointError, not a warning.
    try:
        with np.errstate(over="raise", invalid="raise"):
            # The top level is built first, so missing sites or the arc cap fail
            # before any solving.  Level m lowers each exponent above _LADDER_BASE by
            # m, not below it; m steps by 3 in 1-D.  Each level starts from mu = -pi of
            # the one below: C - mu sums 2k+5 costs, within int64, in the top's unit.
            top = build_transport(instance)
            exps = top.resolution.exponents
            mu, pivots = 0, 0
            step, top_m = max(1, 3 // len(exps)), max(max(exps) - _LADDER_BASE, 0)
            for m in sorted({top_m, *range(0, top_m, step)}, reverse=True):
                level = tuple(max(e - m, min(e, _LADDER_BASE)) for e in exps)
                problem = build_transport(instance, level) if m else top
                owner, core, pi_cl, p = _network_simplex(problem, mu)
                mu, pivots = -pi_cl, pivots + p
            k, n = problem.k, problem.n
            arcs, flows = _support(problem, owner, core)
            clustering = Clustering(k=k, n=n, rows=arcs // n, cols=arcs % n,
                                    vals=flows / float(problem.supply))

            # Duals mu_i = pi_1 - pi_i and the dual objective by _objective's rule:
            # Python integers (object arrays) on the exact path, float64 otherwise.
            dtype = object if problem.exact else np.float64
            pi = pi_cl.astype(dtype)
            pi_pts = (pi_cl[owner] + problem.costs[owner, np.arange(n)]).astype(dtype)
            mu = pi[0] - pi
            dual = (problem.supply * np.sum(pi_pts - pi[0])
                    + np.dot(np.array(problem.demands, dtype=dtype), mu))
            scale = 1 << (2 * problem.cost_bits)
            objective = _objective(problem, arcs, flows)
            dual_objective = float(dual / (scale << problem.unit_bits))
            # np.dot need not raise under errstate: a BLAS may overflow to inf unflagged.
            if not (np.isfinite(objective) and np.isfinite(dual_objective)):
                raise ValueError(f"costs overflow float64: objective {objective}, "
                                 f"dual objective {dual_objective}")

            return SolveResult(
                clustering=clustering,
                objective=objective,
                duals=tuple(float(v / scale) for v in mu),
                fractional_count=clustering.fractional_count(),
                resolution=problem.resolution,
                dual_objective=dual_objective,
                pivots=pivots,
                exact=problem.exact,
            )
    except FloatingPointError as exc:
        raise ValueError(f"costs overflow float64: {exc}") from None

