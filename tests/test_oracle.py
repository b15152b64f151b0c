"""Independent optima: 1D dynamic program, closed forms, exhaustive search."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcoreset import oracle
from gridcoreset.model import Instance, Clustering, cost_sites
from gridcoreset.oracle import (
    MAX_BRUTE_CLUSTERS,
    MAX_BRUTE_POINTS,
    MAX_DP_RESOLUTION,
    brute_force_constrained,
    lower_bound_1d,
    opt1d_closed,
    opt1d_dp,
)
from gridcoreset.solver import solve_assignment

from exact_refs import exact_points, exact_scatter, exact_volume, full_dp_layers, to_dense


def test_opt1d_frozen():
    res = opt1d_dp(4, 4)
    assert res.cost == 0.0048828125
    assert res.sizes == (4, 4, 4, 4)
    assert res.centroids == (0.125, 0.375, 0.625, 0.875)
    assert opt1d_dp(3, 2).cost == 0.01953125


def test_dp_layers_match_full_table():
    # Layer c keeps counts c..n-k+c only; every kept entry equals the full table's.
    for rho in range(9):
        n = 1 << rho
        full_F, full_parent = full_dp_layers(rho, n)
        for k in sorted({1, 3, n // 2, n} & set(range(1, n + 1))):
            F, parent = oracle._dp_layers(rho, k)
            assert len(F) == len(parent) == k + 1 and parent[0] is None
            for c in range(k + 1):
                np.testing.assert_array_equal(F[c], full_F[c][c: n - k + c + 1])
                assert F[c].dtype == np.int64
                if c:
                    np.testing.assert_array_equal(parent[c], full_parent[c][c: n - k + c + 1])
                    assert parent[c].dtype == np.int16


def _assert_balanced(rho, k):
    # The run cost a(a^2 - 1)/3 is convex, so balanced runs are optimal, and
    # the shortest-first tie rule puts the short ones first.
    q, r = divmod(2**rho, k)
    assert opt1d_dp(rho, k).sizes == (q,) * (k - r) + (q + 1,) * r


def test_opt1d_balanced_runs_every_k():
    for rho in range(8):
        for k in range(1, 2**rho + 1):
            _assert_balanced(rho, k)


@given(st.integers(8, 10), st.data())
@settings(max_examples=10, deadline=None)
def test_opt1d_balanced_runs_sampled(rho, data):
    _assert_balanced(rho, data.draw(st.integers(1, 2**rho), label="k"))


def test_opt1d_cost_rounds_once_at_the_cap():
    # At rho = 11 the unit is 2^-35; the cost is the units rounded once.
    for k in (2, 3, 5, 8):
        res = opt1d_dp(11, k)
        assert res.cost == float(Fraction(res.units, 2**35))


def test_opt1d_closed_frozen():
    assert opt1d_closed(5, 1) == float(Fraction(255, 12288))
    assert opt1d_closed(3, 3) == 0.0
    assert opt1d_closed(3, 0) == opt1d_dp(3, 1).cost


def test_lower_bound_frozen():
    assert lower_bound_1d(5, 3) == float(Fraction(247, 110592))
    assert lower_bound_1d(1, 2) == 0.0  # floored at zero


def test_opt1d_extremes():
    # k=1 is the full grid scatter; k=n is zero with singleton intervals.
    for rho in range(0, 6):
        one = opt1d_dp(rho, 1)
        _, full = exact_scatter(exact_points((rho,)), [exact_volume((rho,))] * 2**rho)
        assert Fraction(one.cost) == full
        alln = opt1d_dp(rho, 2**rho)
        assert alln.cost == 0.0
        assert alln.sizes == (1,) * 2**rho


@given(st.integers(0, 7), st.data())
@settings(max_examples=60, deadline=None)
def test_opt1d_monotone_and_bounded(rho, data):
    k = data.draw(st.integers(1, 2**rho), label="k")
    res = opt1d_dp(rho, k)
    if k > 1:
        assert res.cost <= opt1d_dp(rho, k - 1).cost
        assert lower_bound_1d(rho, k) <= res.cost + 1e-15
    assert res.units >= 0
    assert res.boundaries[-1] == 2**rho
    assert all(s >= 1 for s in res.sizes)
    assert res.cost == res.units / 8**rho / 4


@given(st.integers(0, 7), st.data())
@settings(max_examples=40, deadline=None)
def test_opt1d_matches_closed_form_at_powers_of_two(rho, data):
    gamma = data.draw(st.integers(0, rho), label="gamma")
    assert opt1d_dp(rho, 2**gamma).cost == opt1d_closed(rho, gamma)


@given(st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_opt1d_matches_its_own_intervals(rho, data):
    # Recompute the DP's claimed cost from its reported intervals and centroids.
    k = data.draw(st.integers(1, 2**rho), label="k")
    res = opt1d_dp(rho, k)
    labels = np.repeat(np.arange(k), res.sizes)
    C = Clustering.from_labels(k, labels)
    assert abs(cost_sites(C, res.centroids, (rho,)) - res.cost) <= 1e-15


def test_opt1d_tie_break_shorter_first():
    # 3 clusters over 8 points: several optimal partitions; the DP must
    # return the lexicographically earliest boundary vector.
    res = opt1d_dp(3, 3)
    best = res.units
    candidates = []
    for b1 in range(1, 7):
        for b2 in range(b1 + 1, 8):
            sizes = (b1, b2 - b1, 8 - b2)
            units = sum(s * (s * s - 1) // 3 for s in sizes)
            if units == best:
                candidates.append((b1, b2, 8))
    assert res.boundaries == min(candidates)


def test_opt1d_validation():
    with pytest.raises(ValueError):
        opt1d_dp(3, 0)
    with pytest.raises(ValueError):
        opt1d_dp(3, 9)
    with pytest.raises(ValueError):
        opt1d_dp(MAX_DP_RESOLUTION + 1, 2)
    with pytest.raises(ValueError):
        opt1d_closed(3, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        opt1d_closed(3, -1)
    with pytest.raises(ValueError):
        lower_bound_1d(3, 1)


@pytest.mark.parametrize("call", [
    lambda: opt1d_dp(4.9, 2), lambda: opt1d_dp(True, 1), lambda: opt1d_dp(4, 2.0),
    lambda: opt1d_closed(3.0, 1), lambda: opt1d_closed(3, True),
    lambda: lower_bound_1d(5, 3.5), lambda: lower_bound_1d(True, 2),
], ids=["dp-rho-float", "dp-rho-bool", "dp-k-float", "closed-rho-float", "closed-gamma-bool",
        "bound-k-float", "bound-rho-bool"])
def test_oracle_rejects_non_integers(call):
    with pytest.raises(TypeError, match="integer"):
        call()


def test_brute_force_limits():
    with pytest.raises(ValueError):
        brute_force_constrained(
            Instance(k=2, rho=(4,), kappa=(0.5, 0.5), sites=[[0.2], [0.9]]))
    with pytest.raises(ValueError):
        brute_force_constrained(
            Instance(k=4, rho=(3,), kappa=(0.25,) * 4,
                     sites=[[0.1], [0.3], [0.6], [0.9]]))
    with pytest.raises(ValueError, match="multiples of the voxel volume"):
        # 1/16 units are not multiples of nu = 1/8: no integer solution.
        brute_force_constrained(
            Instance(k=2, rho=(3,), kappa=(0.0625, 0.9375),
                     sites=[[0.2], [0.9]]))
    assert MAX_BRUTE_POINTS == 8 and MAX_BRUTE_CLUSTERS == 3


def test_brute_force_matches_solver():
    rng = np.random.default_rng(31)
    for _ in range(15):
        d = int(rng.integers(1, 3))
        exps = (3,) if d == 1 else (1, 2)
        n = 2 ** sum(exps)
        k = int(rng.integers(2, 4))
        units = np.ones(k, dtype=np.int64)
        units += rng.multinomial(n - k, np.full(k, 1.0 / k))
        inst = Instance(k=k, rho=exps, kappa=tuple(int(u) / n for u in units),
                        sites=rng.uniform(0.0, 1.0, size=(k, d)))
        brute = brute_force_constrained(inst)
        lp = solve_assignment(inst)
        assert abs(brute.cost - lp.objective) <= 1e-10 * (1 + abs(brute.cost))


def test_brute_force_symmetric_tie():
    # Mirror-symmetric instance: both labelings cost the same; the first
    # lexicographic label vector (cluster 0 on the left) must win.
    inst = Instance(k=2, rho=(2,), kappa=(0.5, 0.5), sites=[[0.25], [0.75]])
    res = brute_force_constrained(inst)
    assert to_dense(res.clustering).tolist() == [
        [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
    assert res.cost == 0.015625
