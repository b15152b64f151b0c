"""Coarse-grid coresets with an exact additive offset.

Merging each fine grid X(rho) batch into its coarse representative loses a
fixed amount of within-batch scatter that is independent of the clustering
and of the sites.  That amount, CoresetPlan.delta (delta_offset_exact as a
rational), is an exact dyadic rational, so "solve coarse, add the offset"
reproduces fine costs up to the epsilon guarantee checked by
verify_property_b.  Under per-cluster norms the lost scatter is
lift_offset; the guarantee reaches them through transfer_bound.  The
coarse problem is an Instance too: replace(instance, rho=plan.tau).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .grid import Resolution, as_int, as_resolution, batch_error_exact
from .model import Clustering, Instance, NormFamily, cost_sites
from .solver import SolveResult, solve_assignment

PROPERTY_A_TOL = 1e-10
PROPERTY_B_TOL = 1e-9


def _exact_epsilon(epsilon) -> Fraction:
    # Floats are read as their decimal literal, so epsilon=0.1 means 1/10.
    if isinstance(epsilon, float):
        return Fraction(str(epsilon))
    return Fraction(epsilon)


def coarsening_exponent(k: int, epsilon) -> int:
    """Smallest integer T with 2^(3T) >= 32 k^3 / eps^2.

    This is ceil(log2(2^(5/3) k / eps^(2/3))) computed in exact integer
    arithmetic, so power-of-two boundary cases round correctly.
    """
    if as_int(k) < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    eps = _exact_epsilon(epsilon)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    need = 32 * k**3 / eps**2
    t = 0
    while 8**t < need:
        t += 1
    return t


def delta_offset_exact(rho, tau) -> Fraction:
    """The offset as an exact rational: |X(tau)| V(tau) = sum_t (1/12)(4^-tau_t - 4^-rho_t).

    Raises ValueError unless tau <= rho componentwise.
    """
    return as_resolution(tau).n * batch_error_exact(rho, tau)


def lift_offset(plan: CoresetPlan, weights, norms: NormFamily | None = None) -> float:
    """cost_A(extend(C)) - cost_A,tau(C) for every coarse C with cluster weights w: sum_i w_i
    sum_t (A_i)_tt (4^-tau_t - 4^-rho_t)/12, so plan.delta when A = I and 0 when tau = rho."""
    if norms is None:  # exact: with A = I the float sum below can round off Delta's last bit
        return plan.delta
    v = (4.0 ** -np.array(plan.tau.exponents) - 4.0 ** -np.array(plan.rho.exponents)) / 12
    return float(np.asarray(weights) @ np.einsum("itt,t->i", norms.matrices, v))


@dataclass(frozen=True)
class CoresetPlan:
    """A chosen coarsening: source and coarse resolutions, the exact epsilon, and the offset
    delta, the scatter lost by merging X(rho) into X(tau), an exact dyadic float."""

    rho: Resolution
    tau: Resolution
    k: int
    epsilon: Fraction
    tau_star: int
    delta: float

    @property
    def delta_exact(self) -> Fraction:
        return delta_offset_exact(self.rho, self.tau)

    @property
    def clamped(self) -> bool:
        """True when some axis hit rho_t < tau_star (coreset = original set there)."""
        return any(e < self.tau_star for e in self.rho.exponents)


def make_plan(k: int, epsilon, rho, tau=None) -> CoresetPlan:
    """Plan a coarsening; tau defaults to tau_t = min(rho_t, tau_star), overrides are allowed.

    At the default the coarse grid is an epsilon-coreset for every
    weight-constrained clustering problem with at most k clusters.  An
    override below it loses that guarantee; verification still runs and
    simply reports what it finds.
    """
    rho = as_resolution(rho)
    k = as_int(k)
    epsilon = _exact_epsilon(epsilon)
    tau_star = coarsening_exponent(k, epsilon)
    tau = as_resolution(tuple(min(e, tau_star) for e in rho.exponents) if tau is None else tau)
    return CoresetPlan(
        rho=rho, tau=tau, k=k, epsilon=epsilon,
        tau_star=tau_star, delta=float(delta_offset_exact(rho, tau)),
    )


def _check_plan(instance: Instance, plan: CoresetPlan) -> None:
    if plan.rho != instance.rho:
        raise ValueError(f"plan is for rho={plan.rho.exponents}, "
                         f"the instance grid is rho={instance.rho.exponents}")


def extend(C_tilde: Clustering, plan: CoresetPlan) -> Clustering:
    """Lift a coarse clustering to X(rho): every point inherits its batch's fractions.

    The section g of the merge map: averaging the lift over each batch returns C.
    One pass per refined axis, from the last axis to the first, splits each
    index there into r consecutive ones.  When axis t is refined every later
    axis is already fine, so a run of L entries that share the cluster and
    every index up to axis t becomes r copies of itself, one after another,
    in one contiguous block of the output.  Consecutive runs of one length
    are written by one numpy broadcast, with no sort, no scatter and no pass
    per cluster.  A pass makes at most one such write per coarse entry, so
    the loop runs at most d * (coarse entries) times; on the last axis every
    run has length 1 and the pass is one write.  Layouts whose runs keep
    changing length (small batches, labels alternating in short runs) pay
    for that loop: such a (13,3) -> (12,2) lift takes about 35 ms on a
    2-core machine, where scattering every entry to its rank takes 5 ms.
    """
    rho, tau = plan.rho, plan.tau
    if C_tilde.n != tau.n:
        raise ValueError(f"clustering has {C_tilde.n} points, coarse grid has {tau.n}")
    rows, cols, vals, n = C_tilde.rows, C_tilde.cols, C_tilde.vals, tau.n
    for t in reversed(range(rho.d)):
        r, inner = 1 << (rho.exponents[t] - tau.exponents[t]), 1 << sum(rho.exponents[t + 1:])
        if r == 1:  # axis t is not refined; at tau = rho none is, and the arrays are C_tilde's
            continue
        head = cols // inner  # inner: the fine size of the later axes, all refined by now
        starts = np.flatnonzero(np.diff(rows * (n // inner) + head, prepend=-1))
        lengths = np.diff(starts, append=cols.size)
        # Copy q of a run from a lands at r*a + q*L, in column (head*r + q)*inner + cols % inner.
        base = cols + (r - 1) * inner * head
        del head
        first = np.flatnonzero(np.diff(lengths, prepend=0))  # a new length starts a chunk
        bounds = np.append(starts[first], cols.size).tolist()
        step = inner * np.arange(r)[:, None]
        new_cols, new_vals = np.empty(r * cols.size, np.int64), np.empty(r * cols.size)
        for a, b, L in zip(bounds[:-1], bounds[1:], lengths[first].tolist()):
            np.add(base[a:b].reshape(-1, 1, L), step, out=new_cols[r * a:r * b].reshape(-1, r, L))
            np.copyto(new_vals[r * a:r * b].reshape(-1, r, L), vals[a:b].reshape(-1, 1, L))
        del base
        cols, vals = new_cols, new_vals
        rows, n = np.repeat(rows, r), n * r
    for arr in (rows, cols, vals):  # read-only, so Clustering shares them
        arr.setflags(write=False)
    return Clustering(k=C_tilde.k, n=n, rows=rows, cols=cols, vals=vals)


def verify_property_a(C_tilde: Clustering, instance: Instance,
                      plan: CoresetPlan) -> tuple[float, float]:
    """(residual, lifted cost) of the exact lift identity at the instance sites;
    property A holds when the residual is at most PROPERTY_A_TOL * (1 + lifted cost).

    cost(X, extend(C), S) = cost(X(tau), C, S) + delta for every coarse
    clustering with unit column sums and every site family.  Isotropic only:
    the offset does not see the norm matrices.
    """
    _check_plan(instance, plan)
    if instance.norms is not None:
        raise ValueError("the offset identity is isotropic only")
    sites = instance.sites
    lifted = cost_sites(extend(C_tilde, plan), sites, plan.rho)
    # At tau = rho the lift has C_tilde's entries and delta is 0.0: one cost is both sides.
    rhs = (lifted if plan.tau == plan.rho else cost_sites(C_tilde, sites, plan.tau)) + plan.delta
    return abs(lifted - rhs), lifted


def verify_property_b(instance: Instance,
                      plan: CoresetPlan) -> tuple[float, SolveResult, SolveResult]:
    """(margin, fine, coarse) of the coreset cost inequality at plan.tau.

    Solves the instance (fine) and the coarse problem, the instance at
    rho = tau; the margin (1 + eps) * cost(X, S) - (cost(X(tau), S) + delta) is
    nonnegative, up to PROPERTY_B_TOL, whenever plan.tau is make_plan's default.
    At tau = rho the two problems are one: coarse is fine, the same object.
    """
    _check_plan(instance, plan)
    if instance.norms is not None:
        raise ValueError("the coreset guarantee is isotropic only")
    fine = solve_assignment(instance)
    coarse = fine if plan.tau == plan.rho else solve_assignment(replace(instance, rho=plan.tau))
    margin = (1.0 + plan.epsilon) * fine.objective - (coarse.objective + plan.delta)
    return margin, fine, coarse


@dataclass(frozen=True)
class CoarseSolve:
    """A coarse solve together with its lift back to the fine grid."""

    plan: CoresetPlan
    coarse: SolveResult
    extended: Clustering
    extended_cost: float


def solve_coarse(instance: Instance, *, plan: CoresetPlan) -> CoarseSolve:
    """Solve the coarse problem (the instance at rho = tau, Euclidean costs) and lift it.

    The lifted clustering is feasible for the fine problem; its cost under
    the instance norms (how anisotropic instances reuse the Euclidean
    machinery) is the coarse cost plus lift_offset, with no fine-grid pass.
    The plan, and with it epsilon, is the caller's choice.
    """
    _check_plan(instance, plan)
    coarse = solve_assignment(replace(instance, rho=plan.tau, norms=None))
    cost = cost_sites(coarse.clustering, instance.sites, plan.tau, instance.norms)
    return CoarseSolve(plan=plan, coarse=coarse, extended=extend(coarse.clustering, plan),
                       extended_cost=cost + lift_offset(plan, instance.kappa, instance.norms))


def transfer_bound(epsilon, norms: NormFamily) -> float:
    """Approximation factor carried from the Euclidean solve to anisotropic costs.

    The lifted optimum of the Euclidean coreset problem is a
    (1 + eps) * lambda+ / lambda- approximation under the norm family,
    because each squared norm is sandwiched by the extreme eigenvalues
    times the Euclidean one.
    """
    return (1.0 + float(epsilon)) * norms.lambda_max / norms.lambda_min


def _float_cube_root(x: Fraction) -> float:
    """x^(1/3) for x > 0 as a float, inf past float64: Decimal, unlike float, spans x's range."""
    return float((Decimal(x.numerator) / x.denominator) ** (Decimal(1) / 3))


def _cube_root(x: Fraction) -> Fraction | float:
    """x^(1/3) for x > 0: exact when rational, that is when integer Newton steps from above
    find cube roots of x's numerator and denominator both, else _float_cube_root(x)."""
    roots = []
    for n in (x.numerator, x.denominator):
        r = 1 << -(-n.bit_length() // 3)  # 2^ceil(bits/3) > n^(1/3)
        while (s := (2 * r + n // (r * r)) // 3) < r:
            r = s
        roots.append(r)
    if roots[0] ** 3 == x.numerator and roots[1] ** 3 == x.denominator:
        return Fraction(*roots)
    return _float_cube_root(x)


@dataclass(frozen=True)
class SizeReport:
    """Coreset size against the guaranteed bounds and the dense-pencil alternative."""

    axis_size: int              # 2^tau_star, points per unclamped axis
    axis_bound: float           # 2^(8/3) k / eps^(2/3)
    axis_bound_holds: bool      # checked exactly via cubes
    pencil_bound: Fraction      # k^2 / eps^(d+1)
    advantage: Fraction | float  # pencil_bound / (k / eps^(2/3))^d


def size_report(plan: CoresetPlan) -> SizeReport:
    """Sizes and bound checks for a plan; bound comparisons are exact.

    The axis bound 2^tau_star <= 2^(8/3) k / eps^(2/3) is equivalent to
    8^tau_star * eps^2 <= 2^8 k^3, which is checked in exact rationals.
    The advantage over a dense pencil grid of k^2/eps^(d+1) points, cubed
    k^(6-3d) / eps^(d+3), is reported exactly whenever it is rational, else
    as a float, inf past float64.
    """
    eps, k, d = plan.epsilon, plan.k, plan.rho.d
    axis_cubed = 256 * Fraction(k) ** 3 / eps**2
    pencil = k**2 / eps ** (d + 1)
    return SizeReport(
        axis_size=1 << plan.tau_star,
        axis_bound=_float_cube_root(axis_cubed),
        axis_bound_holds=8**plan.tau_star <= axis_cubed,
        pencil_bound=pencil,
        advantage=_cube_root(Fraction(k) ** (6 - 3 * d) / eps ** (d + 3)),
    )
