"""Coarsening plans: offsets, restriction/extension, coreset inequalities."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcoreset import coreset, solver
from gridcoreset.coreset import (
    PROPERTY_A_TOL,
    PROPERTY_B_TOL,
    CoresetPlan,
    coarsening_exponent,
    delta_offset_exact,
    extend,
    lift_offset,
    make_plan,
    size_report,
    solve_coarse,
    transfer_bound,
    verify_property_a,
    verify_property_b,
)
from gridcoreset.grid import as_resolution
from gridcoreset.model import (
    Clustering,
    Instance,
    NormFamily,
    cluster_weights,
    cost_sites,
)
from gridcoreset.solver import solve_assignment

from exact_refs import argsort_extend, exact_delta, restrict, to_dense


def test_coarsening_exponent_frozen():
    table = {
        (2, 0.5): 4, (3, 0.5): 4, (4, 0.5): 5,
        (2, 0.25): 4, (3, 0.25): 5, (4, 0.25): 5,
        (10, 0.1): 8, (100, 0.001): 15,
    }
    for (k, eps), expected in table.items():
        assert coarsening_exponent(k, eps) == expected, (k, eps)


def test_coarsening_exponent_exact_boundary():
    # 32 * 4^3 / 0.25^2 = 2^15 exactly: T=5 must not overshoot to 6.
    assert coarsening_exponent(4, 0.25) == 5
    assert coarsening_exponent(4, Fraction(1, 4)) == 5


def test_coarsening_exponent_validation():
    with pytest.raises(ValueError):
        coarsening_exponent(0, 0.5)
    with pytest.raises(ValueError):
        coarsening_exponent(2, 0.6)
    with pytest.raises(ValueError):
        coarsening_exponent(2, 0.0)


@pytest.mark.parametrize("k", [2.5, 3.0, True])
def test_coarsening_exponent_rejects_non_integer_k(k):
    with pytest.raises(TypeError):
        coarsening_exponent(k, 0.5)


def test_target_resolution_clamps_per_axis():
    assert make_plan(4, 0.5, (3, 6)).tau.exponents == (3, 5)
    assert make_plan(2, 0.5, (8,)).tau.exponents == (4,)
    assert make_plan(2, 0.5, (2,)).tau.exponents == (2,)


@pytest.mark.parametrize("k", [2.7, 2.0])
def test_make_plan_rejects_non_integer_k(k):
    with pytest.raises(TypeError):
        make_plan(k, 0.5, (8,))


def test_delta_frozen():
    assert float(delta_offset_exact((3,), (1,))) == 0.01953125
    assert float(delta_offset_exact((3, 3), (1, 1))) == 0.0390625
    assert make_plan(2, 0.5, (3, 3), tau=(1, 1)).delta == 0.0390625
    assert float(delta_offset_exact((3, 3), (3, 3))) == 0.0
    with pytest.raises(ValueError):
        delta_offset_exact((2,), (3,))


small_rho = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


@given(small_rho, st.data())
@settings(max_examples=30, deadline=None)
def test_delta_matches_brute_scatter(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    assert delta_offset_exact(rho, tau) == exact_delta(rho, tau)


@given(small_rho, st.data())
@settings(max_examples=30, deadline=None)
def test_delta_additive_and_monotone(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    per_axis = sum(
        delta_offset_exact((rt,), (tt,)) for rt, tt in zip(rho, tau))
    assert delta_offset_exact(rho, tau) == per_axis
    for t, (rt, tt) in enumerate(zip(rho, tau)):
        if tt < rt:
            finer = tau[:t] + (tt + 1,) + tau[t + 1:]
            assert delta_offset_exact(rho, finer) < delta_offset_exact(rho, tau)
    assert (delta_offset_exact(rho, tau) == 0) == (tau == rho)


def plan_for(rho, tau, k=2, eps=0.5):
    return make_plan(k, eps, rho, tau=tau)


def test_restrict_frozen_split():
    # One size-4 batch split 3:1 between two clusters.
    plan = plan_for((2,), (0,))
    C = Clustering.from_labels(2, [0, 0, 0, 1])
    coarse = restrict(C, plan)
    assert to_dense(coarse).tolist() == [[0.75], [0.25]]


def test_extend_spreads_batch():
    plan = plan_for((2,), (0,))
    C_tilde = Clustering.from_dense(np.array([[0.75], [0.25]]))
    fine = extend(C_tilde, plan)
    dense = to_dense(fine)
    assert dense.tolist() == [[0.75] * 4, [0.25] * 4]
    with pytest.raises(ValueError, match="clustering has 4 points, coarse grid has 1"):
        extend(fine, plan)


def _assert_shares_entries(lifted, C):
    # No axis is refined, so the lift is a new Clustering over C's own read-only arrays.
    assert (lifted.k, lifted.n) == (C.k, C.n)
    for field in ("rows", "cols", "vals"):
        a, b = getattr(lifted, field), getattr(C, field)
        assert np.array_equal(a, b) and np.shares_memory(a, b) and not a.flags.writeable


def test_tau_equals_rho_is_identity():
    plan = plan_for((2,), (2,))
    C = Clustering.from_labels(2, [0, 1, 1, 0])
    for op in (restrict, extend):
        out = op(C, plan)
        assert np.array_equal(to_dense(out), to_dense(C))
    _assert_shares_entries(extend(C, plan), C)


@st.composite
def random_clustering(draw, n, k, bits=4):
    # Dyadic columns: units over a power-of-two denominator, so restrict's
    # batch averages and the roundtrip stay exact in binary floating point.
    total = 1 << bits
    cols = []
    for _ in range(n):
        cuts = sorted(
            draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
        units = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        cols.append([u / total for u in units])
    dense = np.array(cols).T
    return Clustering.from_dense(dense)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple), st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_preserves_weights_exactly(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    plan = plan_for(rho, tau)
    n = as_resolution(rho).n
    k = data.draw(st.integers(1, 3), label="k")
    C = data.draw(random_clustering(n, k), label="C")
    coarse = restrict(C, plan)
    w_fine = cluster_weights(C, rho)
    w_coarse = cluster_weights(coarse, tau)
    assert np.array_equal(w_fine, w_coarse)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple), st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_extend_roundtrip(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    plan = plan_for(rho, tau)
    k = data.draw(st.integers(1, 3), label="k")
    C_tilde = data.draw(random_clustering(as_resolution(tau).n, k), label="C")
    back = restrict(extend(C_tilde, plan), plan)
    assert np.array_equal(to_dense(back), to_dense(C_tilde))
    w = cluster_weights(extend(C_tilde, plan), rho)
    assert np.array_equal(w, cluster_weights(C_tilde, tau))


def every_tau(rho):
    return itertools.product(*(range(rt + 1) for rt in rho))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple), st.data())
@settings(max_examples=30, deadline=None)
def test_extend_matches_argsort_reference(rho, data):
    k = data.draw(st.integers(1, 5), label="k")
    for tau in every_tau(rho):
        plan = plan_for(rho, tau)
        C_tilde = data.draw(random_clustering(as_resolution(tau).n, k), label="C")
        new, ref = extend(C_tilde, plan), argsort_extend(C_tilde, plan)
        for a, b in ((new.rows, ref.rows), (new.cols, ref.cols), (new.vals, ref.vals)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# (7, 7): tiny batches of 4, same layout.  (2, 9, 7): the first axis is not
# refined and the other two by different ratios, so a later pass runs at scale.
@pytest.mark.parametrize("rho, tau", [((10, 10), (5, 5)), ((15, 3, 2), (5, 3, 2)),
                                      ((7, 7), (6, 6)), ((2, 9, 7), (2, 4, 5))])
def test_extend_matches_argsort_reference_at_workload_scale(rho, tau):
    plan = plan_for(rho, tau, k=4)
    n = plan.tau.n
    rng = np.random.default_rng(sum(rho))
    dense = np.zeros((4, n))
    dense[rng.integers(0, 4, n), np.arange(n)] = 1.0
    for j in rng.choice(n, size=9, replace=False):  # split points, dyadic fractions
        dense[:, j] = rng.permutation([0.5, 0.25, 0.25, 0.0] if j % 2 else [0.75, 0.25, 0, 0])
    C_tilde = Clustering.from_dense(dense)
    assert C_tilde.fractional_count() >= 2 * 9
    new, ref = extend(C_tilde, plan), argsort_extend(C_tilde, plan)
    for a, b in ((new.rows, ref.rows), (new.cols, ref.cols), (new.vals, ref.vals)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable


# Labels in runs of 1-3: on (12,3) -> (10,2) the lift's runs then alternate
# between short lengths, so extend makes about one block write per run.
ALTERNATING = [0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1]


def block_layout(name, tau, rng, k=3):
    n = tau.n
    if name == "random":
        return Clustering.from_labels(k, rng.integers(0, k, n))
    if name == "checkerboard":
        axes = np.indices([1 << e for e in tau.exponents])
        return Clustering.from_labels(k, axes.sum(0).ravel() % k)
    if name == "alternating":
        return Clustering.from_labels(2, np.resize(ALTERNATING, n))
    # Dense and stochastic: every point split among all k clusters in 64ths.
    cuts = np.sort(np.argsort(rng.random((63, n)), axis=0)[:k - 1] + 1, axis=0)
    units = np.diff(np.vstack([np.zeros(n), cuts, np.full(n, 64)]), axis=0)
    return Clustering.from_dense(units / 64)


@pytest.mark.parametrize("rho, tau, name", [
    *(((10, 10), (4, 4), name) for name in ("random", "checkerboard", "dense")),
    *(((15, 3, 2), (4, 3, 2), name) for name in ("random", "checkerboard", "dense")),
    ((7, 7, 6), (4, 4, 4), "dense"),
    ((12, 3), (10, 2), "alternating"),
])
def test_extend_matches_argsort_reference_on_block_layouts(rho, tau, name):
    plan = plan_for(rho, tau, k=3)
    C_tilde = block_layout(name, plan.tau, np.random.default_rng(sum(rho)))
    new, ref = extend(C_tilde, plan), argsort_extend(C_tilde, plan)
    for a, b in ((new.rows, ref.rows), (new.cols, ref.cols), (new.vals, ref.vals)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable


def test_a_reshaped_output_slice_is_written_in_place():
    # extend writes each chunk through out=block, a reshape of a 1-D slice;
    # a reshape that copied would drop the write without an error.
    out = np.zeros(24, dtype=np.int64)
    block = out[6:18].reshape(-1, 3, 2)
    assert np.shares_memory(block, out)
    np.add(np.arange(4).reshape(-1, 1, 2), 10 * np.arange(3)[:, None], out=block)
    assert out[6:18].tolist() == [0, 1, 10, 11, 20, 21, 2, 3, 12, 13, 22, 23]


def test_extend_hands_its_outputs_to_the_clustering_uncopied(monkeypatch):
    passed = {}

    def spy(**fields):
        passed.update(fields)
        return Clustering(**fields)

    monkeypatch.setattr(coreset, "Clustering", spy)
    lifted = extend(Clustering.from_labels(2, [0, 1, 1, 0]), plan_for((3, 2), (1, 1)))
    assert lifted.rows is passed["rows"] and lifted.cols is passed["cols"]
    assert lifted.vals is passed["vals"]


def test_extend_peak_memory():
    # The last pass, on the first axis, writes the new columns and fractions
    # into their own arrays and repeats the rows: three fine-size arrays,
    # beside inputs r times smaller.  Clustering's check of them copies no
    # read-only input and allocates no fine-size temporary, only bool
    # comparisons of neighbours (an eighth of an array each) and one block of
    # column sums, so the peak is about 3.3.  Sort keys or an n-long sums
    # array would each add one array, and outputs left writable, which the
    # check then copies, read 7.1.
    plan = plan_for((9, 9), (4, 4), k=4)
    C_tilde = Clustering.from_labels(4, np.arange(plan.tau.n) % 4)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        extend(C_tilde, plan)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 3.75 * 8 * plan.rho.n


@st.composite
def norm_family(draw, k, d):
    # B B^T + I with dyadic B: symmetric positive definite, entries exact.
    mats = []
    for _ in range(k):
        B = np.array([[draw(st.integers(-8, 8)) / 8 for _ in range(d)] for _ in range(d)])
        mats.append(B @ B.T + np.eye(d))
    return NormFamily(np.array(mats))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple), st.booleans(),
       st.data())
@settings(max_examples=30, deadline=None)
def test_lift_offset_matches_fine_cost(rho, aniso, data):
    k = data.draw(st.integers(1, 3), label="k")
    d = len(rho)
    norms = data.draw(norm_family(k, d), label="norms") if aniso else None
    sites = np.array([[data.draw(st.floats(-1.0, 2.0), label="s") for _ in range(d)]
                      for _ in range(k)])
    for tau in every_tau(rho):
        plan = plan_for(rho, tau)
        C_tilde = data.draw(random_clustering(as_resolution(tau).n, k), label="C")
        closed = cost_sites(C_tilde, sites, tau, norms) \
            + lift_offset(plan, cluster_weights(C_tilde, tau), norms)
        direct = cost_sites(extend(C_tilde, plan), sites, rho, norms)
        if tau == rho:
            assert closed == direct
        else:
            assert abs(closed - direct) <= 1e-12 * direct


@pytest.mark.parametrize("aniso", [False, True])
def test_solve_coarse_cost_is_closed_form(aniso):
    rng = np.random.default_rng(11)
    norms = NormFamily(np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]],
                                 [[1.5, -0.25], [-0.25, 0.75]]])) if aniso else None
    inst = Instance(k=3, rho=(6, 5), kappa=(0.25, 0.25, 0.5), norms=norms)
    for tau in ((6, 5), (3, 4), (0, 0)):
        plan = plan_for((6, 5), tau, k=3)
        sites = rng.uniform(0.0, 1.0, size=(3, 2))
        out = solve_coarse(inst, sites=sites, plan=plan)
        direct = cost_sites(out.extended, sites, inst.rho, norms)
        if tau == (6, 5):
            assert out.extended_cost == direct
        else:
            assert abs(out.extended_cost - direct) <= 1e-12 * direct
        # The float per-axis spread reproduces the exact offset when A = I.
        eye = NormFamily(np.array([np.eye(2)] * 3))
        assert lift_offset(plan, inst.kappa, eye) == lift_offset(plan, inst.kappa) == plan.delta


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_property_a_exact_for_any_clustering(data):
    d = data.draw(st.integers(1, 2), label="d")
    rho = (3,) if d == 1 else (4, 4)
    tau = (1,) if d == 1 else (2, 2)
    plan = plan_for(rho, tau)
    k = data.draw(st.integers(1, 3), label="k")
    C_tilde = data.draw(random_clustering(as_resolution(tau).n, k), label="C")
    sites = np.array(
        [[data.draw(st.integers(0, 32), label="s") / 32 for _ in range(d)]
         for _ in range(k)]
    )
    inst = Instance(k=k, rho=rho, kappa=(Fraction(1, k),) * k, sites=sites) \
        if k in (1, 2, 4) else \
        Instance(k=k, rho=rho, kappa=(0.25, 0.25, 0.5), sites=sites)
    residual, lifted = verify_property_a(C_tilde, sites, inst, plan)
    lhs = cost_sites(extend(C_tilde, plan), sites, rho)
    assert lifted == lhs
    assert residual <= PROPERTY_A_TOL * (1 + lhs)


def test_property_a_rejects_anisotropic():
    norms = NormFamily(np.array([[[2.0]], [[1.0]]]))
    inst = Instance(k=2, rho=(3,), kappa=(0.5, 0.5), sites=[[0.2], [0.9]],
                    norms=norms)
    plan = plan_for((3,), (1,))
    C_tilde = Clustering.from_labels(2, [0, 1])
    with pytest.raises(ValueError):
        verify_property_a(C_tilde, inst.sites, inst, plan)
    with pytest.raises(ValueError):
        verify_property_b(inst.sites, inst, plan)


def test_plan_for_another_grid_is_rejected():
    inst = Instance(k=2, rho=(6, 6), kappa=(0.5, 0.5), sites=[[0.2, 0.3], [0.7, 0.6]])
    plan = make_plan(2, 0.5, (8, 8))
    with pytest.raises(ValueError, match="plan is for rho"):
        solve_coarse(inst, plan=plan)
    with pytest.raises(ValueError, match="plan is for rho"):
        verify_property_b(inst.sites, inst, plan)
    with pytest.raises(ValueError, match="plan is for rho"):
        verify_property_a(Clustering.from_labels(2, [0, 1] * (plan.tau.n // 2)),
                          inst.sites, inst, plan)


def test_property_b_margin_when_tau_is_rho():
    inst = Instance(k=2, rho=(4,), kappa=(0.5, 0.5), sites=[[0.3], [0.8]])
    plan = plan_for((4,), (4,))
    margin, fine, coarse = verify_property_b(inst.sites, inst, plan)
    assert fine.objective == coarse.objective == solve_assignment(inst).objective
    assert abs(margin - 0.5 * fine.objective) <= 1e-15


def _assert_same_solve(got, cold):
    assert got.objective == cold.objective
    assert repr(got.duals) == repr(cold.duals)
    assert got.dual_objective == cold.dual_objective
    assert (got.pivots, got.exact, got.fractional_count, got.resolution) == \
        (cold.pivots, cold.exact, cold.fractional_count, cold.resolution)
    for field in ("rows", "cols", "vals"):
        a, b = getattr(got.clustering, field), getattr(cold.clustering, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)


# Dyadic sites take the exact integer path; the others price in floats.
SITES_BY_PATH = {True: [[0.25, 0.5], [0.75, 0.125], [0.5, 0.875]],
                 False: [[0.21, 0.53], [0.77, 0.14], [0.48, 0.86]]}


@pytest.mark.parametrize("exact", [True, False])
def test_property_b_solves_once_when_tau_is_rho(exact):
    inst = Instance(k=3, rho=(3, 3), kappa=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    plan = make_plan(3, 0.5, inst.rho)
    assert plan.tau == plan.rho and plan.clamped
    sites = np.array(SITES_BY_PATH[exact])
    _, fine, coarse = verify_property_b(sites, inst, plan)
    assert coarse is fine and fine.exact is exact
    _assert_same_solve(fine, solve_assignment(inst, resolution=plan.tau, sites=sites))


@pytest.mark.parametrize("exact", [True, False])
def test_property_b_solves_both_when_tau_is_below_rho(exact):
    inst = Instance(k=3, rho=(5, 5), kappa=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    plan = make_plan(3, 0.5, inst.rho, tau=(3, 3))
    sites = np.array(SITES_BY_PATH[exact])
    _, fine, coarse = verify_property_b(sites, inst, plan)
    assert coarse is not fine and fine.exact is exact
    _assert_same_solve(fine, solve_assignment(inst, sites=sites))
    _assert_same_solve(coarse, solve_assignment(inst, resolution=plan.tau, sites=sites))


def test_property_b_margin_at_target():
    rng = np.random.default_rng(3)
    inst = Instance(k=2, rho=(6,), kappa=(0.5, 0.5), epsilon=0.5)
    plan = make_plan(2, 0.5, (6,))
    for _ in range(5):
        sites = rng.uniform(0.0, 1.0, size=(2, 1))
        assert verify_property_b(sites, inst, plan)[0] >= -PROPERTY_B_TOL


def test_solve_coarse_identity_at_full_resolution():
    inst = Instance(k=2, rho=(3,), kappa=(0.5, 0.5), sites=[[0.2], [0.9]])
    plan = plan_for((3,), (3,))
    out = solve_coarse(inst, plan=plan)
    fine = solve_assignment(inst)
    assert out.extended_cost == fine.objective
    assert np.array_equal(to_dense(out.extended), to_dense(fine.clustering))
    _assert_shares_entries(out.extended, out.coarse.clustering)


def test_solve_coarse_without_sites_raises_before_solving(monkeypatch):
    def simplex(*args, **kwargs):
        raise AssertionError("solved without sites")

    monkeypatch.setattr(solver, "_network_simplex", simplex)
    inst, plan = Instance(k=2, rho=(6,), kappa=(0.5, 0.5)), make_plan(2, 0.5, (6,))
    with pytest.raises(ValueError, match="no sites"):
        solve_coarse(inst, plan=plan)
    with pytest.raises(AssertionError, match="solved without sites"):  # the patch holds
        solve_coarse(inst, sites=[[0.2], [0.9]], plan=plan)


def test_solve_coarse_lift_is_feasible_and_close():
    inst = Instance(k=2, rho=(6,), kappa=(0.5, 0.5), sites=[[0.2], [0.9]])
    plan = make_plan(2, 0.5, (6,))
    out = solve_coarse(inst, plan=plan)
    w = cluster_weights(out.extended, inst.rho)
    assert np.max(np.abs(w - np.asarray(inst.kappa))) <= 1e-10
    fine = solve_assignment(inst)
    # Sandwich: lifted cost is exactly the coarse cost plus the offset, and
    # stays within (1+eps)/(1-eps) of the fine optimum at tau = tau*.
    assert abs(out.extended_cost - (out.coarse.objective + plan.delta)) \
        <= 1e-10 * (1 + out.extended_cost)
    assert out.extended_cost <= (1.5 / 0.5) * fine.objective + 1e-12


def test_transfer_bound_frozen():
    ident = NormFamily(np.array([np.eye(2)]))
    assert transfer_bound(0.5, ident) == 1.5
    skew = NormFamily(np.array([np.diag([1.0, 4.0])]))
    assert abs(transfer_bound(0.3, skew) - 5.2) <= 1e-12


def test_size_report_frozen_small():
    plan = make_plan(4, 0.5, (8,))
    rep = size_report(plan)
    assert rep.axis_size == 32
    assert rep.axis_bound_holds
    assert abs(rep.axis_bound - 40.317) <= 0.001
    assert not plan.clamped
    assert plan.tau.n == 32 and plan.rho.n == 256


def test_size_report_past_float64():
    # Each plan's report overflowed a float conversion at some step, or divided by 0.0.
    rep = size_report(make_plan(3, 1e-300, (4, 4)))
    assert rep.advantage == Fraction(10) ** 500  # the cube root of 10^1500, exactly
    assert rep.axis_bound_holds and rep.axis_bound == pytest.approx(3 * 2 ** (8 / 3) * 1e200)
    eps = Fraction("0.123456789")
    rep = size_report(make_plan(2, 0.123456789, (1,) * 40))
    assert rep.pencil_bound == 4 / eps**41
    assert rep.advantage == pytest.approx(2.0**-38 * float(eps) ** (-43 / 3), rel=1e-14)
    rep = size_report(make_plan(2, Fraction(1, 10**400), (3,)))
    assert rep.advantage == float("inf")  # 2 * 10^(1600/3): irrational, past float64
    assert rep.axis_bound == pytest.approx(2 ** (11 / 3) * 10 ** (2 / 3) * 1e266, rel=1e-14)


def test_plan_holds_epsilon_exactly():
    plan = make_plan(3, Fraction(1, 6), (10, 10))
    assert plan.epsilon == Fraction(1, 6)
    assert size_report(plan).pencil_bound == 1944  # 3^2 * 6^3, exactly
    assert make_plan(3, 0.1, (10, 10)).epsilon == Fraction(1, 10)  # a float reads as its decimal


def test_size_report_frozen_large():
    rep = size_report(make_plan(100, 0.001, (16, 16, 16)))
    assert rep.pencil_bound == Fraction(10) ** 16
    assert rep.advantage == Fraction(10) ** 4
    assert rep.axis_bound_holds


@given(st.integers(2, 50), st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_axis_bound_always_holds(k, eps_mille):
    eps = Fraction(eps_mille, 1000)
    rep = size_report(make_plan(k, eps, (1,)))
    assert rep.axis_bound_holds
    # Smallest T means T-1 fails the defining inequality whenever T > 0.
    t = coarsening_exponent(k, eps)
    if t > 0:
        assert 8 ** (t - 1) < 32 * k**3 / eps**2


def test_make_plan_validation_and_flags():
    with pytest.raises(ValueError, match="resolutions of different dimension are incomparable"):
        make_plan(2, 0.5, (3, 3), tau=(1,))
    with pytest.raises(ValueError):
        make_plan(2, 0.5, (3, 3), tau=(4, 1))
    plan = make_plan(2, 0.5, (3,))
    assert plan.clamped and plan.tau.exponents == (3,)
    assert not make_plan(2, 0.5, (8,)).clamped
    assert make_plan(2, 0.5, (8,), tau=(2,)).tau.exponents == (2,)
    assert isinstance(plan.delta_exact, Fraction)
