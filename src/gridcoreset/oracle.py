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

# DP work is k (2^rho - k + 1)^2, largest near k = 2^rho / 3.  At this cap
# opt1d_dp(11, 683) takes about 4 s on a 2-core Xeon (numpy 2.4), and every
# power-of-two k at rho <= 10 takes 1.3-1.6 s in all.
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
        return tuple(b - a for a, b in zip((0, *self.boundaries), self.boundaries))


def _dp_layers(rho: int, k: int) -> tuple[list, list]:
    """Band DP tables: F[c][i] = min units for c intervals over c + i points.

    A k-interval optimum gives its first c intervals between c and n - k + c
    points, so layer c keeps only the band i < w = n - k + 1, and no run is
    longer than w.  F[c][i] = min over l = 1..i+1 of ic[l] + F[c-1][i-l+1] is
    one min-plus convolution per layer; parent[c][i] is the first minimizing
    l, the shortest first interval.  Nothing is kept between calls, so a
    sweep over every k at one rho recomputes each table (14 s at rho 9).
    """
    w = (1 << rho) - k + 1
    ic = _interval_units(rho)
    pad = np.full(w - 1, _INF, dtype=np.int64)
    F, parent = [np.append(0, pad)], [None]       # layer 0: no points at cost 0
    buf, rows = np.empty((w, w), dtype=np.int64), np.arange(w)
    for _ in range(k):
        # Row i, column l - 1 holds F[c-1][i - l + 1]: columns run l = 1 first
        # so ties resolve toward the shortest first interval.
        hank = sliding_window_view(np.append(pad, F[-1]), w)[:, ::-1]
        v = np.add(hank, ic[1: w + 1], out=buf)
        arg = np.argmin(v, axis=1)
        F.append(v[rows, arg])
        parent.append((arg + 1).astype(np.int16))
    return F, parent


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
    F, parent = _dp_layers(rho, k)
    units = int(F[k][-1])

    sizes = []
    m = n
    for c in range(k, 0, -1):
        ell = int(parent[c][m - c])
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
