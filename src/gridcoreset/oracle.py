"""Independent references: 1D closed forms, interval DP, and tiny brute force.

These deliberately avoid the solver and coreset machinery so they can serve
as oracles for it.  All 1D arithmetic runs over the integer unit
2^-(3 rho + 2): the scatter of a run of a consecutive grid points, times
the point mass, is a(a^2 - 1)/3 such units, an exact integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import coords_array, voxel_volume
from .model import Clustering, Instance, site_array, sq_dists

# DP work grows as k 4^rho, 8^rho / 2 for a full table.  At this cap a full
# table is slow: opt1d_dp(11, 2048) takes 28 s on a 2-core Xeon (numpy 2.4),
# and every power-of-two k at rho <= 10 takes 1.7-4.0 s in all as the host swings.
MAX_DP_RESOLUTION = 11

_INF = 1 << 61


def _interval_units(rho: int) -> np.ndarray:
    """Weighted scatter of a run of a consecutive points, in units 2^-(3rho+2)."""
    a = np.arange((1 << rho) + 1, dtype=np.int64)
    return a * (a * a - 1) // 3


@dataclass(frozen=True)
class Opt1DResult:
    """Optimal unconstrained k-clustering of the 1D grid X((rho,)).

    boundaries are cumulative interval ends (1-based, strictly increasing,
    ending at 2^rho); clusters are the consecutive runs between them.
    """

    rho: int
    k: int
    cost: float
    units: int                    # cost in exact integer units 2^-(3rho+2)
    boundaries: tuple[int, ...]
    centroids: tuple[float, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        prev = 0
        out = []
        for b in self.boundaries:
            out.append(b - prev)
            prev = b
        return tuple(out)


# Per-rho DP tables, extended lazily as larger k is requested.
_dp_tables: dict[int, dict] = {}


def _dp_layers(rho: int, k: int) -> dict:
    """Suffix-cost tables F[c][m] = min units for c intervals over m points.

    One min-plus convolution with the interval-cost vector per layer;
    argmin takes the first minimum, which is the shortest first interval.
    Layer c needs runs l <= n - c + 1 only: the first rows of one shared buffer.
    """
    n = 1 << rho
    if rho not in _dp_tables:  # layer 0: no points at cost 0, any other count impossible
        _dp_tables[rho] = {"F": [np.append(0, np.full(n, _INF, dtype=np.int64))], "parent": [None]}
    state = _dp_tables[rho]
    ic = _interval_units(rho)
    buf = np.empty((n, n + 1), dtype=np.int64)  # pages are touched only as rows fill
    for c in range(len(state["F"]), k + 1):
        fpad = np.concatenate([np.full(n, _INF, dtype=np.int64), state["F"][-1]])
        # hank[l - 1, m] = f_prev[m - l]: rows run l = 1 first so ties
        # resolve toward the shortest first interval.
        hank = sliding_window_view(fpad, n + 1)[n - 1:: -1][: n - c + 1]
        v = np.add(hank, ic[1: n - c + 2, None], out=buf[: n - c + 1])
        arg = np.argmin(v, axis=0)
        state["F"].append(v[arg, np.arange(n + 1)])
        state["parent"].append((arg + 1).astype(np.int16))
    return state


def opt1d_dp(rho: int, k: int) -> Opt1DResult:
    """Exact optimal k-clustering of 2^rho equispaced points by interval DP.

    Optimal clusters of collinear points are consecutive runs, so a DP over
    interval partitions searches the whole space.  Ties break toward the
    lexicographically shortest interval sequence.
    """
    rho = int(rho)
    k = int(k)
    if not 0 <= rho <= MAX_DP_RESOLUTION:
        raise ValueError(f"resolution must lie in [0, {MAX_DP_RESOLUTION}], got {rho}")
    n = 1 << rho
    if not 1 <= k <= n:
        raise ValueError(f"cluster count must lie in [1, {n}], got {k}")
    state = _dp_layers(rho, k)
    units = int(state["F"][k][n])

    sizes = []
    m = n
    for c in range(k, 0, -1):
        ell = int(state["parent"][c][m])
        sizes.append(ell)
        m -= ell
    assert m == 0

    boundaries, centroids = [], []
    start = check = 0
    ic = _interval_units(rho)
    for ell in sizes:
        boundaries.append(start + ell)
        # Mean of an equispaced run: midpoint of its first and last point.
        centroids.append((2 * start + ell) / (1 << (rho + 1)))
        check += int(ic[ell])
        start += ell
    assert check == units, "reconstructed intervals disagree with DP cost"

    cost = units / (1 << (3 * rho + 2))            # int / int is correctly rounded
    return Opt1DResult(rho=rho, k=k, cost=cost, units=units,
                       boundaries=tuple(boundaries), centroids=tuple(centroids))


def opt1d_closed(rho: int, gamma: int) -> float:
    """Closed-form optimum for 2^gamma clusters: (1/3) 4^-(rho+1) (4^(rho-gamma) - 1).

    The optimal clusters are the 2^gamma equal consecutive runs and the
    value is exactly dyadic (4^m - 1 is divisible by 3).
    """
    rho = int(rho)
    gamma = int(gamma)
    if rho < 0 or gamma < 0:
        raise ValueError("exponents must be nonnegative")
    if gamma > rho:
        raise ValueError(f"gamma = {gamma} exceeds rho = {rho}")
    g = (4 ** (rho - gamma) - 1) // 3
    return float(Fraction(g, 4 ** (rho + 1)))


def lower_bound_1d(rho: int, k: int) -> float:
    """Site-count lower bound (1/3) 4^-(rho+1) (4^(rho-1)/k^2 - 1), floored at 0.

    Valid for any k sites, constrained or not; below opt1d_dp(rho, k)
    whenever positive.
    """
    rho = int(rho)
    k = int(k)
    if k < 2:
        raise ValueError(f"the bound needs k >= 2, got {k}")
    value = Fraction(1, 3) * Fraction(1, 4 ** (rho + 1)) * (Fraction(4 ** (rho - 1), k * k) - 1)
    return float(max(value, Fraction(0)))


# Enumeration limits for the exhaustive oracle.
MAX_BRUTE_POINTS = 8
MAX_BRUTE_CLUSTERS = 3


@dataclass(frozen=True)
class BruteForceResult:
    clustering: Clustering
    cost: float


def brute_force_constrained(instance: Instance) -> BruteForceResult:
    """Exhaustive minimum over all integer weight-feasible clusterings.

    Enumerates every label vector (first lexicographic minimizer wins), so
    it is exact by construction and independent of the LP solver.  Requires
    weights that are integer multiples of the voxel volume; those give
    counts >= 1 summing to n >= k, so some label vector meets them.
    """
    rho = instance.rho
    n, k = rho.n, instance.k
    if n > MAX_BRUTE_POINTS:
        raise ValueError(f"brute force handles at most {MAX_BRUTE_POINTS} points, got {n}")
    if k > MAX_BRUTE_CLUSTERS:
        raise ValueError(f"brute force handles at most {MAX_BRUTE_CLUSTERS} clusters, got {k}")
    target = [Fraction(u, 1 << instance.kappa_bits) * n for u in instance.kappa_units]
    if any(t.denominator != 1 for t in target):
        raise ValueError("weights must be integer multiples of the voxel volume")
    s = site_array(instance.sites, k, rho.d)
    counts_needed = np.array([int(t) for t in target], dtype=np.int64)

    nu = float(voxel_volume(rho))
    cost_pt = sq_dists(coords_array(rho), s,
                       None if instance.norms is None else instance.norms.matrices)

    labels = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
    counts = (labels[:, :, None] == np.arange(k)).sum(axis=1)
    cand = labels[np.all(counts == counts_needed, axis=1)]
    costs = nu * cost_pt[cand, np.arange(n)].sum(axis=1)
    best = int(np.argmin(costs))
    return BruteForceResult(
        clustering=Clustering.from_labels(k, cand[best]),
        cost=float(costs[best]),
    )
