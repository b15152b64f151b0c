"""Power-diagram certificates: duals to cells, boundary ties, compatibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcoreset.diagrams import (
    BOUNDARY_TOL,
    PowerDiagram,
    _boundary_tol,
    check_compatibility,
    from_duals,
)
from gridcoreset.grid import coords_array
from gridcoreset.model import Clustering, Instance
from gridcoreset.solver import solve_assignment

from exact_refs import to_dense


def test_from_duals_negates():
    diag = from_duals([[0.2], [0.9]], [0.0, 0.1])
    assert diag.gamma.tolist() == [0.0, -0.1]
    with pytest.raises(ValueError):
        from_duals([[0.2], [0.9]], [0.0])
    with pytest.raises(ValueError, match="offsets must be finite"):
        from_duals([[0.2], [0.9]], [0.0, np.inf])


def test_cell_boundary_position():
    # gamma = -mu puts the boundary at (0.81 - 0.1 - 0.04) / 1.4.
    diag = from_duals([[0.2], [0.9]], [0.0, 0.1])
    x = 0.67 / 1.4
    pw = diag.powers([[x - 1e-6], [x], [x + 1e-6]])
    gap, tol = pw[1] - pw[0], _boundary_tol(pw)
    assert abs(gap[1]) <= tol[1]
    assert gap[0] > tol[0] and -gap[2] > tol[2]  # cell 0 left of x, cell 1 right


def test_assign_frozen():
    diag = from_duals([[0.2], [0.9]], [0.0, 0.1])
    pw = diag.powers([[0.5]])
    assert int(np.argmin(pw[:, 0])) == 1
    assert abs(pw[1, 0] - pw[0, 0]) > _boundary_tol(pw)[0]
    pw = pw.ravel()
    assert abs(pw[0] - 0.09) <= 1e-15 and abs(pw[1] - 0.06) <= 1e-15


def test_assign_site_and_midpoint():
    # Equal offsets: the 2-D bisector through the midpoint, each site in its own cell.
    diag = PowerDiagram(sites=[[0.1, 0.1], [0.9, 0.9]], gamma=[0.3, 0.3])
    pw = diag.powers([[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]])
    gap, tol = pw[1] - pw[0], _boundary_tol(pw)
    assert np.argmin(pw, axis=0).tolist() == [0, 1, 0]  # tie: lowest index wins
    assert gap[0] > tol[0] and -gap[1] > tol[1] and abs(gap[2]) <= tol[2]


def test_assign_array_form():
    diag = from_duals([[0.25], [0.75]], [0.0, 0.0])
    pw = diag.powers([[0.0], [0.5], [1.0]])
    assert np.argmin(pw, axis=0).tolist() == [0, 0, 1]
    assert (np.abs(pw[1] - pw[0]) <= _boundary_tol(pw)).tolist() == [False, True, False]


def test_split_point_lies_on_boundary():
    inst = Instance(k=2, rho=(1,), kappa=(0.25, 0.75), sites=[[0.2], [0.9]])
    res = solve_assignment(inst)
    assert res.fractional_count == 2
    diag = from_duals(inst.sites, res.duals)
    assert check_compatibility(res.clustering, diag, (1,)).compatible
    pw = diag.powers([[0.25]])
    assert abs(pw[1, 0] - pw[0, 0]) <= _boundary_tol(pw)[0]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_gauge_invariance(data):
    k = data.draw(st.integers(1, 4), label="k")
    d = data.draw(st.integers(1, 2), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    sites = rng.uniform(0.0, 1.0, size=(k, d))
    gamma = rng.uniform(-1.0, 1.0, size=k)
    shift = data.draw(st.integers(-8, 8), label="shift") / 4
    rho = (3,) * d
    base = PowerDiagram(sites=sites, gamma=gamma)
    moved = PowerDiagram(sites=sites, gamma=gamma + shift)
    own = Clustering.from_labels(k, np.argmin(base.powers(coords_array(rho)), axis=0))
    other = Clustering.from_labels(k, rng.integers(0, k, size=own.n))
    for C in (own, other):
        a, b = check_compatibility(C, base, rho), check_compatibility(C, moved, rho)
        assert a.compatible == b.compatible
        assert abs(a.worst_violation - b.worst_violation) <= 1e-12
    assert check_compatibility(own, moved, rho).compatible


def test_single_cluster_strongly_compatible():
    C = Clustering.from_labels(1, [0, 0, 0, 0])
    diag = PowerDiagram(sites=[[0.3]], gamma=[5.0])
    rep = check_compatibility(C, diag, (2,))
    assert rep.compatible
    assert rep.worst_violation == 0.0


def test_optimal_solution_is_compatible():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        exps = (4,) if d == 1 else (2, 2)
        k = int(rng.integers(2, 4))
        n = 2 ** sum(exps)
        units = np.ones(k, dtype=np.int64)
        units += rng.multinomial(n - k, np.full(k, 1.0 / k))
        inst = Instance(k=k, rho=exps, kappa=tuple(int(u) / n for u in units),
                        sites=rng.uniform(0.0, 1.0, size=(k, d)))
        res = solve_assignment(inst)
        diag = from_duals(inst.sites, res.duals)
        rep = check_compatibility(res.clustering, diag, exps)
        assert rep.compatible
        assert rep.worst_violation <= BOUNDARY_TOL


def test_compatibility_tolerance_scales_with_sites():
    # Sites scaled by 1e6 give powers near 1e12, whose rounding (~1e-4)
    # exceeds an absolute 1e-9 tie width; a swapped pair must still show.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        units = 1 + rng.multinomial(1024 - 3, [1 / 3] * 3)
        inst = Instance(k=3, rho=(5, 5), kappa=tuple(int(u) / 1024 for u in units),
                        sites=rng.uniform(0.0, 1.0, size=(3, 2)) * 1e6)
        res = solve_assignment(inst)
        diag = from_duals(inst.sites, res.duals)
        assert not res.exact
        assert check_compatibility(res.clustering, diag, (5, 5)).compatible
        labels = np.argmax(to_dense(res.clustering), axis=0)
        i0 = int(np.nonzero(labels == 0)[0][0])
        i1 = int(np.nonzero(labels == 1)[0][-1])
        labels[i0], labels[i1] = 1, 0
        swapped = Clustering.from_labels(3, labels)
        assert not check_compatibility(swapped, diag, (5, 5)).compatible


def test_boundary_flag_is_a_property_of_the_point():
    # Powers x^2 and (x - 1)^2 differ by 1 - 2x = 5e-9 here: no tie alone,
    # and a far point with powers near 1e10 in the same call changes nothing.
    diag = PowerDiagram(sites=[[0.0], [1.0]], gamma=[0.0, 0.0])
    x = 0.5 - 2.5e-9
    pw = diag.powers([[x], [1e5], [0.5]])
    tol = _boundary_tol(pw)
    assert tol[0] == _boundary_tol(diag.powers([[x]]))[0]
    assert (np.abs(pw[1] - pw[0]) <= tol).tolist() == [False, False, True]


def test_integer_optimum_is_strongly_compatible():
    rng = np.random.default_rng(43)
    for _ in range(10):
        # Perturbed sites keep the costs in generic position.
        sites = np.sort(rng.uniform(0.0, 1.0, size=(2, 1)), axis=0)
        inst = Instance(k=2, rho=(4,), kappa=(0.5, 0.5), sites=sites)
        res = solve_assignment(inst)
        assert res.clustering.fractional_count() == 0
        diag = from_duals(inst.sites, res.duals)
        rep = check_compatibility(res.clustering, diag, (4,))
        assert rep.compatible


def test_swap_breaks_compatibility():
    inst = Instance(k=2, rho=(3,), kappa=(0.5, 0.5), sites=[[0.2], [0.9]])
    res = solve_assignment(inst)
    labels = np.argmax(to_dense(res.clustering), axis=0)
    # Exchange one point from each side of the optimal split.
    i0 = int(np.nonzero(labels == 0)[0][0])
    i1 = int(np.nonzero(labels == 1)[0][-1])
    labels[i0], labels[i1] = 1, 0
    swapped = Clustering.from_labels(2, labels)
    diag = from_duals(inst.sites, res.duals)
    rep = check_compatibility(swapped, diag, (3,))
    assert not rep.compatible
    assert rep.worst_violation > BOUNDARY_TOL


def test_dimension_mismatch_errors():
    C = Clustering.from_labels(2, [0, 1])
    diag = from_duals([[0.2], [0.9]], [0.0, 0.0])
    with pytest.raises(ValueError):
        check_compatibility(C, diag, (2,))  # 4 grid points, 2-point clustering
    three = from_duals([[0.1], [0.5], [0.9]], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        check_compatibility(C, three, (1,))
