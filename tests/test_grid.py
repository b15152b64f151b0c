"""Grid geometry: coordinates, merge maps, batch errors, the Huygens identity."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcoreset.grid import (
    MAX_AXIS_EXPONENT,
    MAX_TOTAL_EXPONENT,
    Resolution,
    as_resolution,
    batch_error,
    batch_error_exact,
    coords_array,
    merge_map,
    voxel_volume,
)
from gridcoreset.model import sq_dists

from exact_refs import (
    batch_members,
    batch_partition,
    exact_delta,
    exact_indices,
    exact_point,
    exact_points,
    exact_scatter,
    exact_volume,
    meshgrid_coords,
)

# Small random resolutions keep brute-force references fast.
small_rho = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple)
coarser = st.tuples(small_rho, st.data())


def sub_resolution(draw, rho):
    return tuple(draw(st.integers(0, rt)) for rt in rho)


def test_voxel_volume_frozen():
    assert voxel_volume((1,)) == Fraction(1, 2)
    assert float(voxel_volume((3, 3))) == 0.015625
    assert float(voxel_volume((2, 3, 4))) == 0.001953125


def test_point_coords_frozen():
    assert coords_array((0,)).tolist() == [[0.5]]
    assert coords_array((2,))[0].tolist() == [0.125]
    assert coords_array((2,))[3].tolist() == [0.875]
    assert coords_array((1, 2))[6].tolist() == [0.75, 0.625]


def test_merge_index_frozen():
    # Flat indices: fine point 5 of 8 lies in coarse voxel 2 of 2; fine
    # (4, 3) of an 8x4 grid lies in coarse (1, 3) of a 2x4 grid.
    assert merge_map((3,), (1,))[4] == 1
    assert merge_map((3, 2), (1, 2))[3 * 4 + 2] == 0 * 4 + 2


def test_batch_of_frozen():
    assert np.flatnonzero(merge_map((3,), (1,)) == 0).tolist() == [0, 1, 2, 3]
    # Coarse voxel (2, 2) of a 2x2 grid holds fine (3..4, 3..4) of a 4x4 grid.
    assert np.flatnonzero(merge_map((2, 2), (1, 1)) == 3).tolist() == [10, 11, 14, 15]


def test_batch_centroid_frozen():
    # A batch's centroid telescopes to its coarse point.
    fine, coarse = coords_array((3,)), coords_array((1,))
    assert fine[merge_map((3,), (1,)) == 0].mean(axis=0).tolist() == coarse[0].tolist()
    fine, coarse = coords_array((2, 2)), coords_array((1, 1))
    assert fine[merge_map((2, 2), (1, 1)) == 3].mean(axis=0).tolist() == [0.75, 0.75]
    assert coarse[3].tolist() == [0.75, 0.75]


def test_batch_error_frozen():
    assert batch_error((3,), (1,)) == 0.009765625
    assert batch_error((3, 3), (1, 1)) == 0.009765625
    assert batch_error((3,), (3,)) == 0.0


def test_huygens_frozen():
    # cost to s = scatter + total weight * ||centroid - s||^2.
    pts = coords_array((1,))
    cost = float(np.dot([0.5, 0.5], sq_dists(pts, [[0.0]])[0]))
    centroid, value = exact_scatter(exact_points((1,)), [Fraction(1, 2)] * 2)
    assert (cost, value, centroid) == (0.3125, Fraction(1, 16), (Fraction(1, 2),))
    assert cost == value + 1 * centroid[0] ** 2

    pts = coords_array((3,))[merge_map((3,), (1,)) == 0]
    w = [float(voxel_volume((3,)))] * 4
    assert float(np.dot(w, sq_dists(pts, [[0.5]])[0])) == 0.041015625
    assert sum(w) == 0.5


def test_resolution_validation():
    with pytest.raises(ValueError):
        as_resolution((-1,))
    with pytest.raises(ValueError):
        as_resolution((MAX_AXIS_EXPONENT + 1,))
    with pytest.raises(ValueError):
        as_resolution((MAX_AXIS_EXPONENT,) * 3)  # total exponent over cap
    with pytest.raises(ValueError):
        as_resolution(())
    with pytest.raises(ValueError, match="different dimension"):
        as_resolution((1,)) <= as_resolution((1, 1))
    with pytest.raises(TypeError, match="expected an integer, got True"):
        Resolution((True,))  # operator.index(True) is 1
    assert as_resolution(3) == as_resolution(np.int64(3)) == as_resolution((3,))
    assert sum(as_resolution((16, 16, 16)).exponents) <= MAX_TOTAL_EXPONENT


def test_index_validation():
    with pytest.raises(ValueError):
        merge_map((2,), (3,))  # tau exceeds rho
    with pytest.raises(ValueError, match="resolutions of different dimension are incomparable"):
        merge_map((2, 2), (1,))
    with pytest.raises(ValueError):
        batch_error_exact((2,), (3,))
    with pytest.raises(ValueError, match="resolutions of different dimension are incomparable"):
        batch_error_exact((2,), (1, 1))


def test_resolution_ordering_and_str():
    assert as_resolution((1, 2)) <= as_resolution((2, 2))
    assert not (as_resolution((1, 3)) <= as_resolution((2, 2)))
    assert str(as_resolution((6, 6))) == "6x6"
    assert as_resolution((3,)).n == 8
    assert as_resolution((2, 3)).axis_points == (4, 8)


@given(small_rho)
@settings(max_examples=50, deadline=None)
def test_coords_match_exact_reference(rho):
    pts = coords_array(rho)
    shape = as_resolution(rho).axis_points
    assert pts.shape == (as_resolution(rho).n, len(rho))
    for flat, (j, exact) in enumerate(zip(exact_indices(rho), exact_points(rho))):
        assert tuple(pts[flat]) == tuple(float(x) for x in exact)
        # Flat order is numpy's row-major order of the 0-based multi-index.
        assert tuple(int(v) + 1 for v in np.unravel_index(flat, shape)) == j
        assert np.ravel_multi_index(tuple(jt - 1 for jt in j), shape) == flat


def test_coords_match_meshgrid_reference():
    # Every resolution up to total exponent 12 with d <= 3, zero axes included.
    seen = 0
    for d in (1, 2, 3):
        for rho in itertools.product(range(13), repeat=d):
            if sum(rho) > 12:
                continue
            pts, ref = coords_array(rho), meshgrid_coords(rho)
            assert pts.dtype == ref.dtype and pts.shape == ref.shape
            assert pts.flags.c_contiguous
            assert pts.tobytes() == ref.tobytes(), rho
            seen += 1
    assert seen == 13 + 91 + 455


@given(small_rho, st.data())
@settings(max_examples=50, deadline=None)
def test_merge_map_matches_interval_containment(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    mm = merge_map(rho, tau)
    seen = np.zeros(as_resolution(rho).n, dtype=bool)
    for q_flat, members in enumerate(batch_partition(rho, tau)):
        assert members, "every coarse voxel contains fine points"
        assert np.flatnonzero(mm == q_flat).tolist() == members
        seen[members] = True
    assert seen.all()


@given(st.lists(st.integers(0, 4), min_size=1, max_size=2).map(tuple), st.data())
@settings(max_examples=40, deadline=None)
def test_merge_composition(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    gamma = tuple(data.draw(st.integers(0, tt), label="gamma") for tt in tau)
    via_tau = merge_map(tau, gamma)[merge_map(rho, tau)]
    assert via_tau.tolist() == merge_map(rho, gamma).tolist()


@given(small_rho, st.data())
@settings(max_examples=30, deadline=None)
def test_batch_scatter_is_batch_error(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    q = tuple(data.draw(st.integers(1, 2**tt), label="q") for tt in tau)
    q_flat = np.ravel_multi_index(tuple(qt - 1 for qt in q), as_resolution(tau).axis_points)
    members = batch_members(rho, tau, q)
    assert np.flatnonzero(merge_map(rho, tau) == q_flat).tolist() == members
    points = exact_points(rho)
    pts = [points[m] for m in members]
    wts = [exact_volume(rho)] * len(pts)
    centroid, value = exact_scatter(pts, wts)
    assert centroid == exact_point(tau, q)
    assert value == batch_error_exact(rho, tau)
    # The float form is exact: the denominator is a power of two.
    assert float(batch_error_exact(rho, tau)) == batch_error(rho, tau)


@given(small_rho, st.data())
@settings(max_examples=30, deadline=None)
def test_batch_errors_sum_to_delta(rho, data):
    tau = tuple(data.draw(st.integers(0, rt), label="tau") for rt in rho)
    n_coarse = as_resolution(tau).n
    assert n_coarse * batch_error_exact(rho, tau) == exact_delta(rho, tau)


dyadic_weight = st.integers(1, 64).map(lambda u: u / 64)


@given(st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_huygens_matches_direct_sum(d, data):
    # The kernel's weighted cost to s splits exactly into the scatter about
    # the centroid plus total weight times ||centroid - s||^2.
    m = data.draw(st.integers(1, 6), label="m")
    pts = np.array(
        [[data.draw(st.integers(0, 256)) / 256 for _ in range(d)] for _ in range(m)]
    )
    wts = [data.draw(dyadic_weight, label="w") for _ in range(m)]
    s = [data.draw(st.integers(-256, 512)) / 256 for _ in range(d)]
    cost = float(np.dot(wts, sq_dists(pts, [s])[0]))
    direct = sum(w * float(np.sum((p - np.asarray(s)) ** 2)) for w, p in zip(wts, pts))
    assert abs(cost - direct) <= 1e-12 * (1 + abs(direct))
    fracs = [Fraction(w) for w in wts]
    centroid, scatter = exact_scatter([tuple(Fraction(x) for x in p) for p in pts], fracs)
    shift = sum(fracs) * sum((c - Fraction(x)) ** 2 for c, x in zip(centroid, s))
    assert abs(cost - float(scatter + shift)) <= 1e-12 * (1 + abs(cost))
