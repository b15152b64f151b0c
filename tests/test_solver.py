"""Exact transportation solves: optima, duals, integrality, degeneracy."""

import json
import logging
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcoreset import solver
from gridcoreset.cli import instance_from_dict
from gridcoreset.diagrams import check_compatibility, from_duals
from gridcoreset.grid import as_resolution, coords_array, voxel_volume
from gridcoreset.model import (
    Instance,
    NormFamily,
    cluster_weights,
    cost_sites,
)
from gridcoreset.oracle import brute_force_constrained
from gridcoreset.solver import (
    MAX_ARCS,
    build_transport,
    solve_assignment,
)

from exact_refs import (basis_potentials, clustering_entries, exact_cost, exact_dual_bound,
                        exact_volume, greedy_start, object_extraction, site_fractions,
                        to_dense)


def pair_instance(kappa):
    return Instance(k=2, rho=(1,), kappa=kappa, sites=[[0.2], [0.9]])


def test_balanced_pair_frozen():
    res = solve_assignment(pair_instance((0.5, 0.5)))
    assert abs(res.objective - 0.0125) <= 1e-15
    assert res.clustering.fractional_count() == 0
    assert to_dense(res.clustering).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert res.duals[0] == 0.0


def test_split_pair_frozen():
    res = solve_assignment(pair_instance((0.25, 0.75)))
    assert res.fractional_count == 2
    dense = to_dense(res.clustering)
    assert dense[0, 0] == 0.5 and dense[1, 0] == 0.5 and dense[1, 1] == 1.0
    assert abs(res.objective - 0.1175) <= 1e-15
    assert res.duals[0] == 0.0
    assert abs(res.duals[1] - 0.42) <= 1e-15


def test_single_cluster_direct_sum():
    rho = (2,)
    inst = Instance(k=1, rho=rho, kappa=(1.0,), sites=[[0.3]])
    res = solve_assignment(inst)
    pts = coords_array(rho)
    nu = float(voxel_volume(rho))
    direct = nu * float(np.sum((pts[:, 0] - 0.3) ** 2))
    assert abs(res.objective - direct) <= 1e-15
    assert res.clustering.fractional_count() == 0
    assert res.fractional_count == 0


def random_instance(rng, on_grid, max_exp=3, max_k=4, dyadic_sites=False):
    d = int(rng.integers(1, 3))
    exps = tuple(int(rng.integers(1, max_exp + 1)) for _ in range(d))
    n = as_resolution(exps).n
    k = int(rng.integers(2, min(max_k, n) + 1))
    bits = sum(exps) if on_grid else sum(exps) + int(rng.integers(1, 3))
    units = np.ones(k, dtype=np.int64)
    units += rng.multinomial((1 << bits) - k, np.full(k, 1.0 / k))
    kappa = tuple(int(u) / (1 << bits) for u in units)
    if dyadic_sites:
        sites = rng.integers(0, 65, size=(k, d)) / 64
    else:
        sites = rng.uniform(0.0, 1.0, size=(k, d))
    return Instance(k=k, rho=exps, kappa=kappa, sites=sites)


def reference_lp_objective(instance):
    """Same LP solved by scipy's HiGHS on an explicitly assembled tableau."""
    from scipy.optimize import linprog

    rho = instance.rho
    n, k = rho.n, instance.k
    pts = coords_array(rho)
    nu = float(voxel_volume(rho))
    c = np.empty(k * n)
    for i in range(k):
        diff = pts - instance.sites[i]
        if instance.norms is not None:
            quad = np.einsum("nd,de,ne->n", diff, instance.norms.matrices[i], diff)
        else:
            quad = np.einsum("nd,nd->n", diff, diff)
        c[i * n:(i + 1) * n] = nu * quad
    a_eq = np.zeros((n + k, k * n))
    b_eq = np.empty(n + k)
    for j in range(n):
        a_eq[j, j::n] = 1.0
        b_eq[j] = 1.0
    for i in range(k):
        a_eq[n + i, i * n:(i + 1) * n] = nu
        b_eq[n + i] = instance.kappa[i]
    out = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert out.status == 0, out.message
    return float(out.fun)


def test_matches_reference_lp():
    rng = np.random.default_rng(7)
    for trial in range(20):
        inst = random_instance(rng, on_grid=trial % 2 == 0,
                               dyadic_sites=trial % 3 == 0)
        if trial % 4 == 0:
            mats = []
            for _ in range(inst.k):
                a, b = rng.uniform(0.5, 3.0, size=2)
                c = rng.uniform(0.0, min(a, b) * 0.9) if inst.d == 2 else 0.0
                mats.append(np.array([[a, c], [c, b]])[:inst.d, :inst.d])
            inst = Instance(k=inst.k, rho=inst.rho, kappa=inst.kappa,
                            sites=inst.sites, norms=NormFamily(np.array(mats)))
        res = solve_assignment(inst)
        ref = reference_lp_objective(inst)
        assert abs(res.objective - ref) <= 1e-9 * (1 + abs(ref))


@st.composite
def degenerate_instances(draw, max_bits=6, anisotropic=False):
    """Small instances rich in ties: coincident sites, sites on grid points,
    sites outside the unit cube, dyadic or float coordinates, weights on or
    off the grid; at most 2^max_bits points, optionally a norm family."""
    d = draw(st.integers(1, 3))
    exps = []
    for _ in range(d):
        exps.append(draw(st.integers(0, min(6, max_bits - sum(exps)))))
    exps = tuple(exps)
    n = as_resolution(exps).n
    k = draw(st.integers(1, min(5, n)))
    bits = sum(exps) + draw(st.sampled_from([0, 0, 1, 3]))
    cuts = sorted(draw(st.lists(st.integers(1, max(1, (1 << bits) - 1)), min_size=k - 1,
                                max_size=k - 1, unique=True)))
    units = np.diff([0, *cuts, 1 << bits])
    dyadic = draw(st.booleans())
    sites = []
    for _ in range(k):
        kind = draw(st.sampled_from(["dup", "grid", "dyadic" if dyadic else "float"]))
        if kind == "dup" and sites:
            sites.append(list(draw(st.sampled_from(sites))))
        elif kind == "grid":
            sites.append([(2 * draw(st.integers(1, 1 << e)) - 1) / (2 << e) for e in exps])
        elif dyadic:
            den = 1 << draw(st.integers(0, 8))
            sites.append([draw(st.integers(-3 * den, 4 * den)) / den for _ in exps])
        else:
            sites.append([draw(st.floats(-3.0, 4.0)) for _ in exps])
    norms = None
    if anisotropic and draw(st.booleans()):
        # Diagonally dominant, so symmetric positive definite.
        mats = []
        for _ in range(k):
            diag = [draw(st.floats(0.25, 4.0)) for _ in exps]
            off = draw(st.floats(-0.9, 0.9)) * min(diag) / d
            mats.append(np.diag(diag) + off * (1 - np.eye(d)))
        norms = NormFamily(np.array(mats))
    inst = Instance(k=k, rho=exps, kappa=tuple(int(u) / (1 << bits) for u in units),
                    sites=sites, norms=norms)
    return inst, dyadic and norms is None


def exact_certificate(inst, res):
    """Exact primal cost of res, after asserting in Fractions that it is
    feasible and that the solver's duals certify it to within the pricing
    tolerance: the gap to the dual bound is zero on the exact path and at
    most ENTER_TOL times the largest cost otherwise.  Returns (cost, tol)."""
    rho = inst.rho.exponents
    nu = exact_volume(rho)
    entries = clustering_entries(res.clustering)
    assert all(x > 0 for _, _, x in entries)
    columns = [Fraction(0)] * inst.rho.n
    weights = [Fraction(0)] * inst.k
    for i, j, x in entries:
        columns[j] += x
        weights[i] += nu * x
    assert columns == [1] * inst.rho.n
    assert weights == [Fraction(v) for v in inst.kappa]
    sites = site_fractions(inst.sites)
    norms = None if inst.norms is None else [
        [[Fraction(float(v)) for v in row] for row in m] for m in inst.norms.matrices]
    primal = exact_cost(entries, sites, rho, norms)
    gap = primal - exact_dual_bound(rho, sites, inst.kappa, res.duals, norms)
    tol = 0 if res.exact else solver.ENTER_TOL * max(1.0, float(build_transport(inst).costs.max()))
    assert 0 <= gap <= tol, float(gap)
    if res.exact:
        assert res.objective == float(primal)
    return primal, tol


@given(degenerate_instances())
# HiGHS returns 7.5e-9 above the exact optimum here.
@example((Instance(k=5, rho=(0, 2, 1), kappa=(0.125,) * 4 + (0.5,),
                   sites=[[0.0, 2.0**-23, 0.0]] * 4 + [[0.0, 0.0, 0.0]]), True))
@settings(max_examples=150, deadline=None)
def test_degenerate_bases_match_reference_lp(case):
    inst, dyadic = case
    res = solve_assignment(inst)
    exact_certificate(inst, res)
    # HiGHS stops within its own tolerances, which can leave it above the
    # true optimum, so it only bounds the solver from above.
    ref = reference_lp_objective(inst)
    assert res.objective <= ref + 1e-9 * (1 + abs(ref))
    assert res.exact or not dyadic
    gap = res.objective - res.dual_objective
    if res.exact:
        assert gap == 0.0
    else:
        assert abs(gap) <= 1e-9 * (1 + abs(res.objective))
    report = check_compatibility(res.clustering, from_duals(inst.sites, res.duals), inst.rho)
    assert report.compatible, report.worst_violation
    assert res.fractional_count <= 2 * (inst.k - 1)
    if all((Fraction(v) * inst.rho.n).denominator == 1 for v in inst.kappa):  # on the grid
        assert res.fractional_count == 0
    assert cluster_weights(res.clustering, inst.rho).tolist() == list(inst.kappa)


def test_integer_optimum_on_grid_weights():
    rng = np.random.default_rng(11)
    for _ in range(100):
        inst = random_instance(rng, on_grid=True, max_exp=4, max_k=5)
        res = solve_assignment(inst)
        assert res.clustering.fractional_count() == 0
        assert res.fractional_count == 0


def test_fractional_count_bound():
    rng = np.random.default_rng(13)
    for _ in range(50):
        inst = random_instance(rng, on_grid=False, max_k=5)
        res = solve_assignment(inst)
        assert res.fractional_count <= 2 * (inst.k - 1)
        assert cluster_weights(res.clustering, inst.rho).tolist() == list(inst.kappa)


def test_duality_gap():
    rng = np.random.default_rng(17)
    for trial in range(30):
        inst = random_instance(rng, on_grid=trial % 2 == 0,
                               dyadic_sites=trial % 2 == 1)
        res = solve_assignment(inst)
        gap = res.objective - res.dual_objective
        assert abs(gap) <= 1e-9 * (1 + abs(res.objective))
        if res.exact:
            assert gap == 0.0
        assert res.duals[0] == 0.0


def test_constraints_hit_exactly():
    rng = np.random.default_rng(19)
    for _ in range(20):
        inst = random_instance(rng, on_grid=False)
        res = solve_assignment(inst)
        w = cluster_weights(res.clustering, inst.rho)
        assert np.max(np.abs(w - np.asarray(inst.kappa))) <= 1e-10


def test_deterministic_resolve():
    inst = random_instance(np.random.default_rng(23), on_grid=False)
    a = solve_assignment(inst)
    b = solve_assignment(inst)
    assert a.objective == b.objective
    assert a.pivots == b.pivots
    assert np.array_equal(a.clustering.rows, b.clustering.rows)
    assert np.array_equal(a.clustering.cols, b.clustering.cols)
    assert np.array_equal(a.clustering.vals, b.clustering.vals)


def test_solve_at_coarser_resolution():
    inst = Instance(k=2, rho=(3,), kappa=(0.5, 0.5), sites=[[0.2], [0.9]])
    res = solve_assignment(inst, resolution=(1,))
    assert res.resolution.exponents == (1,)
    assert res.clustering.n == 2
    direct = solve_assignment(
        Instance(k=2, rho=(1,), kappa=(0.5, 0.5), sites=[[0.2], [0.9]]))
    assert res.objective == direct.objective
    with pytest.raises(ValueError):
        solve_assignment(inst, resolution=(4,))


def test_sites_override():
    inst = Instance(k=2, rho=(2,), kappa=(0.5, 0.5), sites=[[0.1], [0.6]])
    res = solve_assignment(inst, sites=[[0.25], [0.75]])
    assert res.objective == 0.015625  # centroid-optimal balanced split
    with pytest.raises(ValueError):
        solve_assignment(Instance(k=2, rho=(2,), kappa=(0.5, 0.5)))


def _boundary_instance(k, site, norms=False):
    kappa = [Fraction(1, 32)] * (k - 1) + [Fraction(33 - k, 32)]
    sites = [[site]] + [[(i + 1) / 32] for i in range(k - 1)]
    return Instance(k=k, rho=(5,), kappa=kappa, sites=sites,
                    norms=NormFamily(np.ones((k, 1, 1))) if norms else None)


@pytest.mark.parametrize("k, site, norms, exact", [
    (2, 2.0**-26, False, True),          # MAX_COST_BITS
    (2, 4.0, False, True),               # |s| <= 4
    (2, -4.0, False, True),
    (18, 2.0**-26, False, True),         # (2k+4) 25 d 4^26 < 2^62
    (2, 2.0**-27, False, False),
    (2, 4.0 + 2.0**-20, False, False),
    (2, 0.5, True, False),               # any norm family, even the identity
    (19, 2.0**-26, False, False),        # int64 bound fails
    (19, 2.0**-20, False, True),
])
def test_exact_mode_boundary(k, site, norms, exact):
    inst = _boundary_instance(k, site, norms)
    problem = build_transport(inst)
    assert problem.exact is exact
    assert problem.costs.dtype == (np.int64 if exact else np.float64)
    for e in range(6):  # every ladder level prices in the top level's unit
        level = build_transport(inst, resolution=(e,))
        assert (level.exact, level.cost_bits) == (exact, problem.cost_bits)
    res = solve_assignment(inst)
    assert res.exact is exact
    if exact:
        assert res.objective == res.dual_objective


def test_exact_objective_without_split_arcs():
    # One cluster: every point is a leaf, so the objective is a sum of int64
    # flows times costs near 2^52 units that float64 would round.
    rng = np.random.default_rng(31)
    for m in rng.integers(0, 1 << 25, size=6):
        site = (2 * int(m) + 1) / 2**26
        inst = Instance(k=1, rho=(10,), kappa=(1.0,), sites=[[site]])
        res = solve_assignment(inst)
        assert res.exact and res.fractional_count == 0
        ref = exact_cost(clustering_entries(res.clustering), site_fractions(inst.sites), (10,))
        assert res.objective == res.dual_objective == float(ref)


def _fixture_instances():
    cases = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "solver"
                        / "cases.json").read_text())
    return [instance_from_dict(doc) for doc in cases]


def assert_basis_potentials(inst):
    # The in-place core tree against a rebuild of the final basis; a cold
    # start makes the most pivots.
    problem = build_transport(inst)
    owner, core, pi_cl, _ = solver._network_simplex(problem)
    assert basis_potentials(problem.costs, owner, core) == pi_cl.tolist()


def test_basis_potentials_on_fixtures():
    for inst in _fixture_instances():
        assert_basis_potentials(inst)


@given(degenerate_instances(max_bits=8, anisotropic=True))
@settings(max_examples=100, deadline=None)
def test_basis_potentials(case):
    assert_basis_potentials(case[0])


def assert_extraction_matches_reference(inst):
    """solve_assignment's result against object_extraction of its final
    basis, bit for bit (repr tells -0.0 from 0.0).  Returns the final level's
    problem and the reference."""
    finals = []

    def capture(problem, mu=0):
        finals.append((problem, network_simplex(problem, mu)))
        return finals[-1][1]

    network_simplex = solver._network_simplex
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_network_simplex", capture)
        res = solve_assignment(inst)
    problem, (owner, core, pi_cl, _) = finals[-1]
    ref = object_extraction(problem, owner, core, pi_cl)
    arcs, flows, *values = ref
    n = problem.n
    C = res.clustering
    assert C.rows.tolist() == (arcs // n).tolist() and C.cols.tolist() == (arcs % n).tolist()
    assert C.vals.tolist() == (flows / float(problem.supply)).tolist()
    got = [res.objective, res.dual_objective, res.duals]
    assert got == values and repr(got) == repr(values)
    return problem, ref


def test_extraction_matches_reference_on_fixtures():
    paths = {assert_extraction_matches_reference(inst)[0].exact
             for inst in _fixture_instances()}
    assert paths == {True, False}


@given(degenerate_instances(max_bits=8, anisotropic=True))
@settings(max_examples=100, deadline=None)
def test_extraction_matches_reference(case):
    assert_extraction_matches_reference(case[0])


def test_exact_extraction_past_int64():
    # The largest cost unit and sites near -4 and 4: the sums of the objective
    # and of the point potentials, in units of 2^-unit_bits 4^-cost_bits, pass
    # 2^63, where int64 sums wrap.
    inst = Instance(k=2, rho=(10,), kappa=(0.5, 0.5),
                    sites=[[-4 + 2.0**-26], [4 - 2.0**-26]])
    problem, (arcs, flows, objective, dual_objective, _) = assert_extraction_matches_reference(inst)
    assert problem.exact and problem.cost_bits == solver.MAX_COST_BITS
    costs = problem.costs.ravel()[arcs]
    numerator = sum(int(f) * int(c) for f, c in zip(flows, costs))
    assert numerator > 2**63
    assert int(np.dot(flows, costs)) != numerator
    exact = exact_cost(clustering_entries(solve_assignment(inst).clustering),
                       site_fractions(inst.sites), (10,))
    assert objective == dual_objective == float(exact)


def test_float_extraction_at_the_largest_unit():
    # kappa over 2^53, the weight cap: the float path's sums are scaled by
    # 2^-53, the smallest unit any solve divides by.
    inst = Instance(k=2, rho=(3,), kappa=(0.5 + 2**-53, 0.5 - 2**-53), sites=[[0.1], [0.7]])
    problem, _ = assert_extraction_matches_reference(inst)
    assert not problem.exact and problem.unit_bits == 53


def assert_greedy_start_matches_reference(inst):
    """The start against the one-point-at-a-time reference, cold and shifted
    by the optimal potentials, whose power diagram puts cost and regret ties
    on every cell boundary.  Returns the cases the instance covered."""
    problem = build_transport(inst)
    k, n, supply = problem.k, problem.n, problem.supply
    *_, pi_cl, _ = solver._network_simplex(problem)
    covered = {"k = 1"} if k == 1 else set()
    if min(problem.demands) < supply:
        covered.add("cluster without room")
    for mu in (np.zeros_like(pi_cl), -pi_cl):
        costs = problem.costs - mu[:, None]
        owner, core = solver._greedy_start(costs, supply, problem.demands)
        assert (owner.tolist(), core) == greedy_start(costs, supply, problem.demands)
        # Feasible: leaves and core arcs span a tree (so the split arcs form
        # a forest), every point places its supply, every cluster receives
        # its demand, and at most k - 1 points are split.
        basis_potentials(costs, owner, core)
        split = [(arc // n, arc % n, f) for arc, f in core.items() if arc < k * n]
        split_points = {j for _, j, _ in split}
        assert len(split_points) <= k - 1
        loads, placed = [0] * k, dict.fromkeys(split_points, 0)
        for j in set(range(n)) - split_points:
            loads[owner[j]] += supply
        for i, j, f in split:
            loads[i] += f
            placed[j] += f
        assert loads == list(problem.demands)
        assert set(placed.values()) <= {supply}
        if split:
            covered.add("split points")
        cheapest = np.partition(costs, min(1, k - 1), axis=0)
        regret = cheapest[min(1, k - 1)] - cheapest[0]
        if k > 1 and np.any(regret == 0):
            covered.add("cost ties")
        if k > 1 and len(np.unique(regret)) < n:
            covered.add("regret ties")
        # In processing order, the first point not placed whole in its
        # cheapest cluster is the first overflow; a later one that is was
        # placed whole from the tail.
        whole = owner == np.argmin(costs, axis=0)
        whole[list(split_points)] = False
        whole = whole[sorted(range(n), key=lambda j: (-regret[j], j))]
        first = np.argmin(whole)
        if not whole[first] and whole[first:].any():
            covered.add("tail point placed whole")
    return covered


def test_greedy_start_matches_reference_on_fixtures():
    # Fixture weights lie on the grid, so the off-grid instances add splits.
    rng = np.random.default_rng(37)
    covered = set()
    for inst in _fixture_instances() + [random_instance(rng, on_grid=False) for _ in range(30)]:
        covered |= assert_greedy_start_matches_reference(inst)
    assert covered == {"k = 1", "split points", "cost ties", "regret ties",
                       "tail point placed whole", "cluster without room"}


@given(degenerate_instances(max_bits=8, anisotropic=True))
@settings(max_examples=100, deadline=None)
def test_greedy_start_matches_reference(case):
    assert_greedy_start_matches_reference(case[0])


def solve_fine_instance(exps, k, dyadic, seed):
    """An n = 1024 instance shaped like the benchmark's solve_fine items:
    weights are the cell counts of a random power diagram on the grid, sites
    are uniform in the unit cube, dyadic ones snapped to 2^-10."""
    rng = np.random.default_rng(seed)
    pts = coords_array(as_resolution(exps))
    while True:
        centres = rng.uniform(size=(k, len(exps)))
        offsets = rng.uniform(0.0, 0.25 * k ** (-2 / len(exps)), size=(k, 1))
        power = ((pts - centres[:, None]) ** 2).sum(axis=2) + offsets
        counts = np.bincount(np.argmin(power, axis=0), minlength=k)
        if counts.all():
            break
    sites = rng.uniform(size=(k, len(exps)))
    if dyadic:
        sites = np.floor(sites * 1024) / 1024
    return Instance(k=k, rho=exps, kappa=tuple(counts / 1024), sites=sites)


# (exps, k, dyadic, seed): (pivots, objective, dual_objective), recorded
# with the regret-ordered greedy start and ladder floor 2; the pivot path
# must not move unless the start or the pivot rules change on purpose.
PINNED_SOLVES = {
    ((10,), 3, True, 0): (8, 0.0720367431640625, 0.0720367431640625),
    ((10,), 3, False, 1): (15, 0.03240334967426215, 0.03240334967426215),
    ((10,), 8, True, 2): (42, 0.010015394538640976, 0.010015394538640976),
    ((10,), 8, False, 3): (62, 0.010150895585815532, 0.010150895585815535),
    ((5, 5), 3, True, 4): (25, 0.31235381588339806, 0.31235381588339806),
    ((5, 5), 3, False, 5): (11, 0.15874391257630632, 0.1587439125763063),
    ((5, 5), 8, True, 6): (112, 0.07124368287622929, 0.07124368287622929),
    ((5, 5), 8, False, 7): (74, 0.07009523397639272, 0.07009523397639272),
    ((4, 3, 3), 3, True, 8): (11, 0.25550625193864107, 0.25550625193864107),
    ((4, 3, 3), 3, False, 9): (41, 0.3203151594596165, 0.3203151594596165),
    ((4, 3, 3), 8, True, 10): (155, 0.1264917002990842, 0.1264917002990842),
    ((4, 3, 3), 8, False, 11): (99, 0.17528057825619733, 0.17528057825619736),
}


@pytest.mark.parametrize("spec", PINNED_SOLVES, ids=str)
def test_pinned_pivot_path(spec):
    res = solve_assignment(solve_fine_instance(*spec))
    assert res.exact is spec[2]
    assert (res.pivots, res.objective, res.dual_objective) == PINNED_SOLVES[spec]


def test_ladder_levels_logged(caplog, monkeypatch):
    # One debug line per level, coarsest first; the start objective of a
    # feasible basis is never below its level's optimum, and is computed only
    # while the logger is on.
    objectives = []

    def objective(*args):
        objectives.append(solver_objective(*args))
        return objectives[-1]

    solver_objective = solver._objective
    monkeypatch.setattr(solver, "_objective", objective)
    inst = solve_fine_instance((4, 3, 3), 8, True, 10)
    with caplog.at_level(logging.INFO, logger="gridcoreset"):
        res = solve_assignment(inst)
    assert objectives == [res.objective] and not caplog.records
    with caplog.at_level(logging.DEBUG, logger="gridcoreset"):
        logged = solve_assignment(inst)
    assert (logged.pivots, logged.objective) == (res.pivots, res.objective)
    levels = [r.args for r in caplog.records if r.name == "gridcoreset"]
    assert [exps for exps, *_ in levels] == [(2, 2, 2), (3, 2, 2), (4, 3, 3)]
    assert sum(pivots for _, pivots, _, _ in levels) == res.pivots
    assert all(start >= optimum for *_, start, optimum in levels)
    assert levels[-1][-1] == res.objective
    assert len(objectives) == 2 + 2 * len(levels)


@pytest.mark.parametrize("inst, levels, bits", [
    (solve_fine_instance((4, 3, 3), 8, True, 10), [(2, 2, 2), (3, 2, 2), (4, 3, 3)], 10),
    (solve_fine_instance((4, 3, 3), 8, False, 11), [(2, 2, 2), (3, 2, 2), (4, 3, 3)], 0),
    # A site over 2^-12 sets the cost unit of every level, not the grid.
    (Instance(k=2, rho=(5,), kappa=(0.25, 0.75), sites=[[2.0**-12], [0.75]]),
     [(2,), (3,), (4,), (5,)], 12),
    (Instance(k=2, rho=(2, 1), kappa=(0.5, 0.5), sites=[[0.1, 0.2], [0.7, 0.9]]), [(2, 1)], 0),
], ids=["exact", "float", "site-unit", "one-level"])
def test_ladder_builds_every_level_through_build_transport(monkeypatch, inst, levels, bits):
    # One build_transport call per level, the top level first; the simplex
    # solves exactly those problems, coarsest first, all in the top level's
    # cost unit.  So timing build_transport times every level's build.
    built, solved = [], []
    build, simplex = solver.build_transport, solver._network_simplex

    def traced_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def traced_simplex(problem, mu=0):
        solved.append(problem)
        return simplex(problem, mu)

    monkeypatch.setattr(solver, "build_transport", traced_build)
    monkeypatch.setattr(solver, "_network_simplex", traced_simplex)
    res = solve_assignment(inst)
    assert [p.resolution.exponents for p in solved] == levels
    assert list(map(id, built)) == list(map(id, solved[-1:] + solved[:-1]))
    assert [p.cost_bits for p in solved] == [bits] * len(levels)
    assert res.exact is (bits > 0)


def _solve_with_ladder_base(inst, base):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_LADDER_BASE", base)
        return solve_assignment(inst)


def assert_ladder_matches_cold_start(inst):
    # Base 64 solves every instance cold; base 0 climbs from a single point.
    cold = _solve_with_ladder_base(inst, 64)
    ladder = _solve_with_ladder_base(inst, 0)
    assert ladder.exact is cold.exact
    cold_cost, tol = exact_certificate(inst, cold)
    ladder_cost, _ = exact_certificate(inst, ladder)
    assert abs(ladder_cost - cold_cost) <= tol
    if ladder.exact:
        assert ladder.objective == cold.objective
        assert ladder.dual_objective == cold.dual_objective == ladder.objective
    if inst.norms is None:
        report = check_compatibility(ladder.clustering, from_duals(inst.sites, ladder.duals),
                                     inst.rho)
        assert report.compatible, report.worst_violation
    assert ladder.fractional_count <= 2 * (inst.k - 1)
    assert cluster_weights(ladder.clustering, inst.rho).tolist() == list(inst.kappa)


def test_ladder_matches_cold_start_on_fixtures():
    for inst in _fixture_instances():
        assert_ladder_matches_cold_start(inst)


@given(degenerate_instances(max_bits=8, anisotropic=True))
@settings(max_examples=100, deadline=None)
def test_ladder_matches_cold_start(case):
    assert_ladder_matches_cold_start(case[0])


def test_arc_cap_refusal():
    inst = Instance(k=1, rho=(13, 13), kappa=(1.0,), sites=[[0.5, 0.5]])
    assert inst.rho.n > MAX_ARCS
    with pytest.raises(ValueError, match="coarsen"):
        build_transport(inst)


def test_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        exps = (3,) if d == 1 else (1, 2)
        n = as_resolution(exps).n
        k = int(rng.integers(2, 4))
        units = np.ones(k, dtype=np.int64)
        units += rng.multinomial(n - k, np.full(k, 1.0 / k))
        kappa = tuple(int(u) / n for u in units)
        inst = Instance(k=k, rho=exps, kappa=kappa,
                        sites=rng.uniform(0.0, 1.0, size=(k, d)))
        res = solve_assignment(inst)
        ref = brute_force_constrained(inst)
        assert abs(res.objective - ref.cost) <= 1e-10 * (1 + abs(ref.cost))


TOO_LARGE = "the sites or norm matrices are too large"


@pytest.mark.parametrize("fields, message", [
    # The kernel overflows to inf unraised; the built costs are checked.
    (dict(rho=(6,), kappa=(0.5, 0.5), sites=[[1e200], [0.5]]), TOO_LARGE),
    # inf only off the greedy start's arcs, where it would make the pricing
    # tolerance infinite and the start pass as optimal with 0 pivots.
    (dict(rho=(3, 3), kappa=(1 / 64, 63 / 64), sites=[[0.0, 0.0], [0.9, 0.9]],
          norms=np.array([1.5e308 * np.eye(2), 1e297 * np.eye(2)])), TOO_LARGE),
    # Finite costs whose sums overflow raise inside the solve.
    (dict(rho=(6,), kappa=(0.5, 0.5), sites=[[0.0], [1.0]],
          norms=np.array([[[1e308]], [[1e308]]])), "overflow encountered"),
    # Finite costs, potentials and duals (mu_2 near 1e300) whose products with
    # demands near 2^52 overflow inside np.dot: numpy reports it where the BLAS
    # flags it, and the finiteness check of both objectives otherwise.
    (dict(rho=(3,), kappa=(0.5 - 2**-53, 0.5 + 2**-53), sites=[[0.5], [1e150]]),
     "(overflow encountered in dot|objective inf)"),
], ids=["cost-overflows", "cost-overflows-off-start", "sum-overflows", "dot-overflows"])
def test_costs_past_float64_raise(fields, message):
    inst = Instance(k=2, **fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"costs overflow float64: {message}"):
            solve_assignment(inst)


def test_dual_overflow_raises(monkeypatch):
    # A final float basis whose only overflow is a dual: every point owned by
    # cluster 0, no split arcs, and mu_2 = pi_1 - pi_2 = 2e308.
    def simplex(problem, mu=0):
        k, n = problem.k, problem.n
        core = {k * n + i: 0 for i in range(k)}
        return np.zeros(n, dtype=np.int64), core, np.array([1e308, -1e308]), 0

    monkeypatch.setattr(solver, "_network_simplex", simplex)
    inst = Instance(k=2, rho=(3,), kappa=(0.5, 0.5), sites=[[0.1], [0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="costs overflow float64"):
            solve_assignment(inst)


def test_unflagged_dot_overflow_raises(monkeypatch):
    # The dot-overflows case through a dot that overflows to inf without
    # setting a floating-point flag, as a BLAS may.
    def dot(a, b):
        return sum(x * y for x, y in zip(a.tolist(), b.tolist()))

    monkeypatch.setattr(solver.np, "dot", dot)
    inst = Instance(k=2, rho=(3,), kappa=(0.5 - 2**-53, 0.5 + 2**-53), sites=[[0.5], [1e150]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="costs overflow float64: objective inf, dual objective inf"):
            solve_assignment(inst)


def test_huge_finite_costs_keep_their_value():
    inst = Instance(k=2, rho=(3,), kappa=(0.75, 0.25), sites=[[1e150], [0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_assignment(inst)
    assert (res.objective, res.dual_objective) == (7.499999999999999e+299,) * 2
