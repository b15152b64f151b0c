"""Instances, clusterings, weights, and cost evaluation."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcoreset.grid import as_resolution, coords_array, voxel_volume
from gridcoreset.model import (
    Clustering,
    Instance,
    NormFamily,
    cluster_weights,
    cost_sites,
    site_array,
    sq_dists,
)
from gridcoreset.solver import solve_assignment

from exact_refs import clustering_entries, exact_cost, exact_sq_norm, site_fractions


def split_clustering():
    # rho=(1): xi_11=1 on point 1, xi_12=0.5 / xi_22=0.5 on point 2.
    return Clustering.from_entries(2, 2, [(0, 0, 1.0), (0, 1, 0.5), (1, 1, 0.5)])


def test_cluster_weights_frozen():
    w = cluster_weights(split_clustering(), (1,))
    assert tuple(w) == (0.75, 0.25)


def test_cost_sites_frozen():
    C = Clustering.from_labels(1, [0, 0])
    assert cost_sites(C, [[0.5]], (1,)) == 0.0625
    norms = NormFamily(np.array([[[4.0]]]))
    assert cost_sites(C, [[0.5]], (1,), norms) == 0.25


def test_cost_sites_zero_at_own_points():
    rho = (1, 1)
    C = Clustering.from_labels(4, [0, 1, 2, 3])
    assert cost_sites(C, coords_array(rho), rho) == 0.0


def test_eigen_bounds_frozen():
    ident = NormFamily(np.array([np.eye(2), np.eye(2)]))
    assert (ident.lambda_min, ident.lambda_max) == (1.0, 1.0)
    diags = NormFamily(np.array([np.diag([1.0, 4.0]), np.diag([2.0, 3.0])]))
    assert (diags.lambda_min, diags.lambda_max) == (1.0, 4.0)
    coupled = NormFamily(np.array([[[2.0, 1.0], [1.0, 2.0]]]))
    lo, hi = coupled.lambda_min, coupled.lambda_max
    assert abs(lo - 1.0) <= 1e-12 and abs(hi - 3.0) <= 1e-12


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(k=0, rho=(1,), kappa=())
    with pytest.raises(ValueError):
        Instance(k=3, rho=(1,), kappa=(0.25, 0.25, 0.5))  # k > n
    with pytest.raises(ValueError):
        Instance(k=2, rho=(2,), kappa=(0.5, 0.25))  # sums to 0.75
    with pytest.raises(ValueError):
        Instance(k=2, rho=(2,), kappa=(1 / 3, 2 / 3))  # not dyadic
    with pytest.raises(ValueError):
        Instance(k=2, rho=(2,), kappa=(-0.5, 1.5))
    for bad in (float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError):
            Instance(k=2, rho=(2,), kappa=(bad, 0.5))
    with pytest.raises(ValueError):
        Instance(k=2, rho=(2,), kappa=(0.5, 0.5), sites=[[0.1]])  # wrong shape
    with pytest.raises(ValueError):
        Instance(k=2, rho=(2,), kappa=(0.5, 0.5), epsilon=0.6)
    with pytest.raises(ValueError):
        Instance(k=2, rho=(2,), kappa=(0.5, 0.5), epsilon=0.0)
    with pytest.raises(TypeError):
        Instance(k=2.7, rho=(2,), kappa=(0.5, 0.5))  # not truncated to 2
    with pytest.raises(TypeError):
        Instance(k=2, rho=(3.9,), kappa=(0.5, 0.5))  # not truncated to (3,)
    with pytest.raises(TypeError):
        Instance(k=2.0, rho=(2,), kappa=(0.5, 0.5))  # integral floats too


def test_weight_bits_cap_at_float64_mantissa():
    # Past 2^-53 a weight, flow or fraction would round in float64.
    tiny = Fraction(1, 2**54)
    with pytest.raises(ValueError, match="exceeds cap"):
        Instance(k=2, rho=(3,), kappa=(Fraction(1, 2) + tiny, Fraction(1, 2) - tiny))
    tiny = Fraction(1, 2**53)
    kappa = (Fraction(1, 2) + tiny, Fraction(1, 2) - tiny)
    inst = Instance(k=2, rho=(3,), kappa=kappa, sites=[[0.25], [0.75]])
    res = solve_assignment(inst)
    assert res.exact and res.fractional_count == res.clustering.fractional_count() == 2
    assert tuple(cluster_weights(res.clustering, (3,))) == inst.kappa
    assert tuple(map(Fraction, inst.kappa)) == kappa


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_instance_rejects_non_finite_sites(bad):
    with pytest.raises(ValueError, match="finite"):
        Instance(k=2, rho=(4,), kappa=(0.5, 0.5), sites=[[bad], [0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_family_rejects_non_finite_matrices(bad):
    with pytest.raises(ValueError, match="must be finite"):
        NormFamily(np.array([[[bad]], [[1.0]]]))


def test_site_array_checks():
    with pytest.raises(ValueError, match="no sites"):
        site_array(None, 2, 1)
    with pytest.raises(ValueError, match="shape"):
        site_array([[0.1, 0.2]], 2, 2)
    with pytest.raises(ValueError, match="finite"):
        site_array([[0.1, np.nan]], 1, 2)
    C = Clustering.from_labels(1, [0, 0])
    with pytest.raises(ValueError, match="finite"):
        cost_sites(C, [[np.nan]], (1,))
    # A 1-D vector is a column of k sites when d == 1, else one site.
    assert site_array([0.25, 0.75], 2, 1).tolist() == [[0.25], [0.75]]
    assert site_array([0.25, 0.75], 1, 2).tolist() == [[0.25, 0.75]]
    assert Instance(k=1, rho=(1, 1), kappa=(1.0,), sites=[0.25, 0.75]).sites.shape == (1, 2)
    # Instances keep a frozen copy; the caller's array stays writable.
    given_sites = np.array([[0.25], [0.75]])
    inst = Instance(k=2, rho=(1,), kappa=(0.5, 0.5), sites=given_sites)
    assert given_sites.flags.writeable and not inst.sites.flags.writeable


def test_kappa_on_grid_flag():
    # Multiples of nu(rho)=0.25 are on-grid; 1/8 units are not.
    assert Instance(k=2, rho=(2,), kappa=(0.25, 0.75)).kappa_on_grid
    assert not Instance(k=2, rho=(2,), kappa=(0.125, 0.875)).kappa_on_grid
    inst = Instance(k=2, rho=(2,), kappa=(0.125, 0.875))
    assert inst.kappa_units == (1, 7)
    assert inst.kappa_bits == 3


def test_clustering_validation():
    with pytest.raises(ValueError):
        Clustering.from_entries(1, 2, [(0, 0, 1.0)])  # column 1 sums to 0
    with pytest.raises(ValueError):
        Clustering.from_entries(1, 1, [(0, 0, 0.5)])  # column sum 0.5
    with pytest.raises(ValueError):
        Clustering.from_entries(1, 1, [(0, 0, 0.5), (0, 0, 0.5)])  # duplicate
    with pytest.raises(ValueError):
        Clustering.from_entries(1, 1, [(0, 0, -1.0), (0, 0, 2.0)])
    with pytest.raises(ValueError):
        Clustering.from_entries(2, 1, [(2, 0, 1.0)])  # row out of range
    with pytest.raises(ValueError, match=r"\(0, 1\]"):  # NaN fails every comparison
        Clustering(k=1, n=1, rows=[0], cols=[0], vals=[float("nan")])
    with pytest.raises(TypeError):  # float indices are not truncated
        Clustering(k=2, n=2, rows=[0.7, 1.2], cols=[0, 1.9], vals=[1, 1])
    with pytest.raises(TypeError):
        Clustering.from_labels(2, [0.0, 1.0])
    with pytest.raises(TypeError):
        Clustering(k=2, n=2.0, rows=[0, 1], cols=[0, 1], vals=[1, 1])


def sorted_entries():
    rows = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    cols = np.array([0, 2, 1, 2, 3], dtype=np.int64)
    return rows, cols, np.array([1.0, 0.5, 1.0, 0.5, 1.0])


def test_clustering_sorts_only_unsorted_input():
    rows, cols, vals = sorted_entries()
    ref = Clustering(k=3, n=4, rows=rows, cols=cols, vals=vals)
    # Sorted input is kept in read-only copies; the caller's arrays stay writable.
    assert all(a.flags.writeable and not b.flags.writeable and not np.shares_memory(a, b)
               for a, b in ((rows, ref.rows), (cols, ref.cols), (vals, ref.vals)))
    perm = np.random.default_rng(0).permutation(5)
    shuffled = Clustering(k=3, n=4, rows=rows[perm], cols=cols[perm], vals=vals[perm])
    for a, b in ((shuffled.rows, ref.rows), (shuffled.cols, ref.cols),
                 (shuffled.vals, ref.vals)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    dup = [(0, 0, 0.5), (0, 0, 0.5)]
    with pytest.raises(ValueError, match="duplicate"):
        Clustering.from_entries(1, 1, dup)  # sorted, with a duplicate
    with pytest.raises(ValueError, match="duplicate"):
        Clustering.from_entries(2, 2, [(1, 1, 1.0)] + dup)  # unsorted, with a duplicate
    empty = Clustering(k=2, n=0, rows=[], cols=[], vals=[])
    assert empty.rows.size == 0 and empty.rows.dtype == np.int64
    with pytest.raises(ValueError, match="column sums"):
        Clustering(k=2, n=3, rows=[], cols=[], vals=[])


@pytest.mark.parametrize("which, bad, match", [
    ("rows", 3, "cluster index"),
    ("cols", -1, "point index"),
    ("vals", 0.0, r"\(0, 1\]"),
    ("vals", np.nextafter(1.0, 2.0), r"\(0, 1\]"),
    ("vals", np.nan, r"\(0, 1\]"),
    ("vals", 1.0 - 2e-9, "column sums"),
])
def test_clustering_rejects_a_bad_last_entry(which, bad, match):
    entries = dict(zip(("rows", "cols", "vals"), sorted_entries()))
    entries[which][-1] = bad
    with pytest.raises(ValueError, match=match):
        Clustering(k=3, n=4, **entries)


def test_clustering_checks_the_tail():
    rows, cols, vals = sorted_entries()
    ref = Clustering(k=3, n=4, rows=rows, cols=cols, vals=vals)
    vals[-1] = 1.0 - 5e-10  # within COLUMN_SUM_TOL
    assert Clustering(k=3, n=4, rows=rows, cols=cols, vals=vals).vals[-1] == vals[-1]
    vals[-1] = 1.0
    tail = [0, 1, 2, 4, 3]  # only the last two entries out of order
    swapped = Clustering(k=3, n=4, rows=rows[tail], cols=cols[tail], vals=vals[tail])
    for a, b in ((swapped.rows, ref.rows), (swapped.cols, ref.cols), (swapped.vals, ref.vals)):
        assert np.array_equal(a, b)
    dup = [0, 1, 2, 3, 4, 4]  # the last entry repeated, still in order
    with pytest.raises(ValueError, match="duplicate"):
        Clustering(k=3, n=4, rows=rows[dup], cols=cols[dup], vals=np.append(vals[:4], [0.5, 0.5]))


def test_clustering_shares_only_read_only_arrays_that_own_their_data():
    rows, cols, vals = sorted_entries()
    for a in (rows, cols, vals):
        a.setflags(write=False)
    C = Clustering(k=3, n=4, rows=rows, cols=cols, vals=vals)
    assert C.rows is rows and C.cols is cols and C.vals is vals
    # A view, another dtype or another shape is copied (writable input: see above).
    views = (rows[:], cols.astype(np.int32), vals.reshape(1, -1))
    for a in views:
        a.setflags(write=False)
    D = Clustering(k=3, n=4, rows=views[0], cols=views[1], vals=views[2])
    for a, b in zip(views, (D.rows, D.cols, D.vals)):
        assert not np.shares_memory(a, b) and not b.flags.writeable and b.ndim == 1
    assert D.cols.dtype == np.int64


def test_clustering_copies_no_read_only_input():
    # A lift hands over read-only arrays.  The sort keys are the largest
    # temporary (one input's size); a copy of cols or vals would add another.
    k, n = 4, 1 << 16
    rows = np.arange(k * n) // n
    cols = np.arange(k * n) % n
    vals = np.full(k * n, 0.25)
    for a in (rows, cols, vals):
        a.setflags(write=False)
    tracemalloc.start()
    try:
        C = Clustering(k=k, n=n, rows=rows, cols=cols, vals=vals)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert C.rows is rows and C.cols is cols and C.vals is vals
    assert peak < 1.5 * cols.nbytes


def test_clustering_roundtrip_and_flags():
    C = split_clustering()
    dense = C.to_dense()
    assert dense.shape == (2, 2)
    assert Clustering.from_dense(dense).to_dense().tolist() == dense.tolist()
    assert C.fractional_count() == 2
    assert Clustering.from_labels(2, [0, 1]).fractional_count() == 0
    sl = C.cluster_slices()
    assert [float(np.sum(C.vals[s])) for s in sl] == [1.5, 0.5]


small_rho2 = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)


@st.composite
def random_clustering(draw, n, k):
    # Random dense column-stochastic matrix with dyadic entries.
    cols = []
    for _ in range(n):
        units = [draw(st.integers(0, 8)) for _ in range(k)]
        if sum(units) == 0:
            units[draw(st.integers(0, k - 1))] = 1
        total = sum(units)
        cols.append([Fraction(u, total) for u in units])
    dense = np.array([[float(cols[j][i]) for j in range(n)] for i in range(k)])
    return Clustering.from_dense(dense)


@given(small_rho2, st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_cost_sites_matches_exact_reference(rho, k, data):
    n = as_resolution(rho).n
    C = data.draw(random_clustering(n, k), label="C")
    d = len(rho)
    sites = np.array(
        [[data.draw(st.integers(-4, 8), label="s") / 4 for _ in range(d)]
         for _ in range(k)]
    )
    got = cost_sites(C, sites, rho)
    ref = exact_cost(clustering_entries(C), site_fractions(sites), rho)
    assert abs(got - float(ref)) <= 1e-12 * (1 + abs(got))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_sq_dists_matches_exact_reference(d, k, m, data):
    def dyadic(lo, hi, den):
        return data.draw(st.integers(lo * den, hi * den)) / den

    pts = np.array([[dyadic(0, 1, 64) for _ in range(d)] for _ in range(m)])
    sites = np.array([[dyadic(-1, 2, 16) for _ in range(d)] for _ in range(k)])
    exact_p = site_fractions(pts)
    exact_s = site_fractions(sites)

    def ref(i, j, norm=None):
        return exact_sq_norm([a - b for a, b in zip(exact_p[j], exact_s[i])], norm)

    got = sq_dists(pts, sites)
    assert got.shape == (k, m) and got.dtype == np.float64
    assert all(got[i, j] == ref(i, j) for i in range(k) for j in range(m))
    # Integer inputs stay integer and exact.
    got_int = sq_dists((pts * 64).astype(np.int64), (sites * 64).astype(np.int64))
    assert got_int.dtype == np.int64
    assert all(got_int[i, j] == 4096 * ref(i, j) for i in range(k) for j in range(m))
    # Dyadic SPD matrices: diagonally dominant with entries in 1/4 units.
    mats = []
    for _ in range(k):
        off = [[0.0] * d for _ in range(d)]
        for a in range(d):
            for b in range(a + 1, d):
                off[a][b] = off[b][a] = dyadic(-1, 1, 4)
        mats.append([[off[a][b] if a != b else 2.5 + dyadic(0, 2, 4) for b in range(d)]
                     for a in range(d)])
    mats = np.array(mats)
    got = sq_dists(pts, sites, mats)
    for i in range(k):
        norm = [[Fraction(float(x)) for x in row] for row in mats[i]]
        for j in range(m):
            exact = float(ref(i, j, norm))
            assert abs(got[i, j] - exact) <= 1e-12 * (1 + abs(exact))


@given(small_rho2, st.integers(2, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_axis_separability(rho, k, data):
    # Isotropic cost splits into per-axis 1D costs over the same weights.
    if len(rho) != 2:
        rho = (rho[0], rho[0])
    n = as_resolution(rho).n
    C = data.draw(random_clustering(n, k), label="C")
    sites = np.array(
        [[data.draw(st.integers(0, 16), label="s") / 16 for _ in range(2)]
         for _ in range(k)]
    )
    total = cost_sites(C, sites, rho)
    pts = coords_array(rho)
    nu = float(voxel_volume(rho))
    per_axis = 0.0
    for t in range(2):
        for i, j, v in zip(C.rows, C.cols, C.vals):
            per_axis += nu * v * (pts[j, t] - sites[i, t]) ** 2
    assert abs(total - per_axis) <= 1e-12 * (1 + abs(total))


@given(st.integers(2, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_norm_sandwich(k, data):
    rho = (2, 2)
    n = as_resolution(rho).n
    C = data.draw(random_clustering(n, k), label="C")
    sites = np.array(
        [[data.draw(st.integers(0, 16), label="s") / 16 for _ in range(2)]
         for _ in range(k)]
    )
    mats = []
    for _ in range(k):
        a = data.draw(st.integers(1, 4), label="a")
        b = data.draw(st.integers(1, 4), label="b")
        c = data.draw(st.integers(0, min(a, b) - 1), label="c")
        mats.append([[float(a), float(c)], [float(c), float(b)]])
    norms = NormFamily(np.array(mats))
    lo, hi = norms.lambda_min, norms.lambda_max
    iso = cost_sites(C, sites, rho)
    aniso = cost_sites(C, sites, rho, norms)
    assert lo * iso - 1e-12 <= aniso <= hi * iso + 1e-12


@given(small_rho2, st.integers(1, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_centroid_minimizes_cost(rho, k, data):
    n = as_resolution(rho).n
    C = data.draw(random_clustering(n, k), label="C")
    assume(np.all(cluster_weights(C, rho) > 0))
    dense = C.to_dense()
    best = cost_sites(C, dense @ coords_array(rho) / dense.sum(axis=1)[:, None], rho)
    d = len(rho)
    for _ in range(5):
        alt = np.array(
            [[data.draw(st.integers(-4, 8), label="alt") / 4 for _ in range(d)]
             for _ in range(k)]
        )
        assert cost_sites(C, alt, rho) >= best - 1e-12
