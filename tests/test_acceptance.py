"""Acceptance gate: nine numbered end-to-end checks, one pass/fail line each.

Each test prints `ACCEPTANCE <n> (<label>): PASS|FAIL [...]` straight to the
terminal (bypassing capture) and then asserts, so a full run always shows one
line per criterion.  The coarse-vs-fine sweep shared by checks 4, 5, and 7 is
built once as a module fixture.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gridcoreset.cli import generate_instance, instance_from_dict
from gridcoreset.coreset import (coarsening_exponent, extend, make_plan,
                                 size_report, solve_coarse)
from gridcoreset.diagrams import check_compatibility, from_duals
from gridcoreset.grid import as_resolution, batch_error, coords_array, voxel_volume, merge_map
from gridcoreset.model import Clustering, Instance, cost_sites
from gridcoreset.oracle import brute_force_constrained, opt1d_closed, opt1d_dp
from gridcoreset.solver import solve_assignment

ACCEPT_SEED = 1618

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Dyadic weight vectors used whenever a check needs some valid kappa.
KAPPAS = {
    2: (Fraction(1, 2), Fraction(1, 2)),
    3: (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    4: (Fraction(1, 4),) * 4,
}


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]",
              flush=True)


def _rng(*spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(ACCEPT_SEED, spawn_key=spawn_key))


def _random_stochastic(rng, k: int, n: int) -> Clustering:
    dense = rng.random((k, n))
    dense /= dense.sum(axis=0, keepdims=True)
    return Clustering.from_dense(dense)


def test_1_batch_scatter_closed_form(capsys):
    """Closed-form batch error equals brute scatter of every batch, all (rho, tau)."""
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for d in (1, 2, 3):
        for rho_exps in itertools.product(range(6), repeat=d):
            rho = as_resolution(rho_exps)
            pts = coords_array(rho)
            sq = pts * pts
            nu = float(voxel_volume(rho))
            for tau_exps in itertools.product(*(range(e + 1) for e in rho_exps)):
                tau = as_resolution(tau_exps)
                m = merge_map(rho, tau)
                counts = np.bincount(m, minlength=tau.n)
                scat = np.zeros(tau.n)
                for t in range(d):
                    sx = np.bincount(m, weights=pts[:, t], minlength=tau.n)
                    sxx = np.bincount(m, weights=sq[:, t], minlength=tau.n)
                    scat += sxx - sx * sx / counts
                diff = np.abs(nu * scat - batch_error(rho, tau))
                worst = max(worst, float(diff.max()))
                pairs += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 30.0
    _report(capsys, 1, "batch scatter closed form", ok,
            f"{pairs} (rho, tau) pairs, worst {worst:.2e}, {dt:.1f}s")
    assert ok, f"worst batch-error deviation {worst} over {pairs} pairs in {dt:.1f}s"


def test_2_dp_matches_closed_form(capsys):
    """Interval DP equals the power-of-two closed form with equal, centered runs."""
    t0 = time.perf_counter()
    worst = 0.0
    shapes_ok = True
    for rho in range(11):
        for gamma in range(rho + 1):
            res = opt1d_dp(rho, 1 << gamma)
            closed = opt1d_closed(rho, gamma)
            if closed > 0.0:
                worst = max(worst, abs(res.cost - closed) / closed)
            else:
                worst = max(worst, abs(res.cost))
            size = 1 << (rho - gamma)
            if set(res.sizes) != {size}:
                shapes_ok = False
            exact = tuple((2 * j + 1) / 2 ** (gamma + 1) for j in range(1 << gamma))
            if res.centroids != exact:
                shapes_ok = False
    pinned = opt1d_dp(4, 4).cost == opt1d_closed(4, 2) == 0.0048828125
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and shapes_ok and pinned and dt < 10.0
    _report(capsys, 2, "1d dp vs closed form", ok,
            f"rho<=10, worst rel {worst:.2e}, {dt:.1f}s")
    assert ok, f"worst relative gap {worst}, shapes_ok={shapes_ok}, pinned={pinned}"


def test_3_extension_cost_identity(capsys):
    """cost of the lifted clustering == coarse cost + offset, all valid tau."""
    t0 = time.perf_counter()
    worst_ratio = 0.0
    checks = 0
    for trial in range(200):
        rng = _rng(3, trial)
        d = 1 + trial % 2
        if trial < 2:
            exps = (6,) * d
        else:
            exps = tuple(int(rng.integers(0, 7)) for _ in range(d))
        rho = as_resolution(exps)
        k = int(rng.integers(2, 5))
        sites = rng.uniform(0.0, 1.0, size=(k, d))
        for tau_exps in itertools.product(*(range(e + 1) for e in exps)):
            plan = make_plan(k, 0.5, rho, tau=as_resolution(tau_exps))
            c_tilde = _random_stochastic(rng, k, plan.tau.n)
            lhs = cost_sites(extend(c_tilde, plan), sites, plan.rho)
            rhs = cost_sites(c_tilde, sites, plan.tau) + plan.delta
            worst_ratio = max(worst_ratio, abs(lhs - rhs) / (1.0 + lhs))
            checks += 1
    dt = time.perf_counter() - t0
    ok = worst_ratio <= 1e-10 and dt < 60.0
    _report(capsys, 3, "extension cost identity", ok,
            f"200 draws, {checks} (C, S, tau) checks, worst {worst_ratio:.2e}, {dt:.1f}s")
    assert ok, f"worst identity residual ratio {worst_ratio} over {checks} checks"


@dataclass(frozen=True)
class _Cell:
    epsilon: float
    delta: float
    coarse_objective: float
    extended_cost: float
    coarse_violation: float
    coarse_compatible: bool


@dataclass(frozen=True)
class _Record:
    shape: tuple[int, ...]
    k: int
    trial: int
    fine_objective: float
    fine_violation: float
    fine_compatible: bool
    cells: tuple[_Cell, ...]


@dataclass(frozen=True)
class _Sweep:
    records: tuple[_Record, ...]
    elapsed: float


@pytest.fixture(scope="module")
def sweep() -> _Sweep:
    """Fine + coarse solves for the shared sweep of checks 4, 5, and 7.

    Two shapes x k in {2,3,4} x 50 site draws; the two epsilon values reuse
    one coarse solve whenever they agree on the target resolution.
    """
    t0 = time.perf_counter()
    records = []
    for shape_idx, shape in enumerate(((8,), (6, 6))):
        rho = as_resolution(shape)
        for k in (2, 3, 4):
            inst = Instance(k=k, rho=rho, kappa=KAPPAS[k])
            for trial in range(50):
                rng = _rng(4, shape_idx, k, trial)
                sites = rng.uniform(0.0, 1.0, size=(k, rho.d))
                fine = solve_assignment(replace(inst, sites=sites))
                fine_rep = check_compatibility(
                    fine.clustering, from_duals(sites, fine.duals), rho)
                coarse_cache = {}
                cells = []
                for eps in (0.25, 0.5):
                    plan = make_plan(k, eps, rho)
                    key = plan.tau.exponents
                    if key not in coarse_cache:
                        coarse = solve_assignment(replace(inst, rho=plan.tau, sites=sites))
                        rep = check_compatibility(
                            coarse.clustering, from_duals(sites, coarse.duals), plan.tau)
                        ext = cost_sites(extend(coarse.clustering, plan), sites, rho)
                        coarse_cache[key] = (coarse.objective, rep, ext)
                    obj, rep, ext = coarse_cache[key]
                    cells.append(_Cell(
                        epsilon=eps, delta=plan.delta, coarse_objective=obj,
                        extended_cost=ext, coarse_violation=rep.worst_violation,
                        coarse_compatible=rep.compatible))
                records.append(_Record(
                    shape=shape, k=k, trial=trial, fine_objective=fine.objective,
                    fine_violation=fine_rep.worst_violation,
                    fine_compatible=fine_rep.compatible, cells=tuple(cells)))
    return _Sweep(records=tuple(records), elapsed=time.perf_counter() - t0)


def test_4_coarse_cost_within_epsilon(sweep, capsys):
    """Coarse optimum plus offset stays within (1+eps) of the fine optimum."""
    worst = np.inf
    for rec in sweep.records:
        for cell in rec.cells:
            margin = ((1.0 + cell.epsilon) * rec.fine_objective + 1e-9
                      - (cell.coarse_objective + cell.delta))
            worst = min(worst, margin)
    ok = worst >= 0.0 and sweep.elapsed < 600.0
    _report(capsys, 4, "coarse optimum within (1+eps) of fine", ok,
            f"{len(sweep.records)} trials x 2 eps, min margin {worst:.3e}, "
            f"sweep {sweep.elapsed:.0f}s")
    assert ok, f"worst margin {worst}, sweep time {sweep.elapsed:.0f}s"


def test_5_lifted_optimum_sandwich(sweep, capsys):
    """Lifting the coarse optimum costs at most (1+eps)/(1-eps) times the fine optimum."""
    worst = np.inf
    for rec in sweep.records:
        for cell in rec.cells:
            factor = (1.0 + cell.epsilon) / (1.0 - cell.epsilon)
            margin = factor * rec.fine_objective + 1e-9 - cell.extended_cost
            worst = min(worst, margin)
    ok = worst >= 0.0
    _report(capsys, 5, "lifted optimum sandwich", ok,
            f"{len(sweep.records)} trials x 2 eps, min margin {worst:.3e}")
    assert ok, f"worst sandwich margin {worst}"


def test_6_lp_matches_exhaustive_search(capsys):
    """Exact LP equals brute-force enumeration on 200 fixed small instances."""
    t0 = time.perf_counter()
    cases = json.loads((FIXTURES / "solver" / "cases.json").read_text())
    worst_diff = 0.0
    worst_gap = 0.0
    frac_ok = True
    for doc in cases:
        inst = instance_from_dict(doc)
        res = solve_assignment(inst)
        brute = brute_force_constrained(inst)
        worst_diff = max(worst_diff, abs(res.objective - brute.cost))
        worst_gap = max(worst_gap, abs(res.objective - res.dual_objective))
        if res.fractional_count > 2 * (inst.k - 1):
            frac_ok = False
    dt = time.perf_counter() - t0
    ok = (len(cases) == 200 and worst_diff <= 1e-10 and worst_gap <= 1e-9
          and frac_ok)
    _report(capsys, 6, "lp equals exhaustive search", ok,
            f"{len(cases)} instances, worst diff {worst_diff:.2e}, "
            f"worst gap {worst_gap:.2e}, {dt:.1f}s")
    assert ok, (f"diff {worst_diff}, gap {worst_gap}, "
                f"fractional bound ok: {frac_ok}")


def test_7_dual_diagrams_certify_solves(sweep, capsys):
    """Every sweep solve is compatible with the power diagram of its duals."""
    worst = 0.0
    all_ok = True
    solves = 0
    for rec in sweep.records:
        worst = max(worst, rec.fine_violation)
        all_ok &= rec.fine_compatible
        solves += 1
        for cell in rec.cells:
            worst = max(worst, cell.coarse_violation)
            all_ok &= cell.coarse_compatible
            solves += 1
    ok = all_ok and worst <= 1e-9
    _report(capsys, 7, "dual diagrams certify solves", ok,
            f"{solves} solves, worst violation {worst:.2e}")
    assert ok, f"worst compatibility violation {worst}"


def test_8_anisotropic_lift_within_eigenvalue_factor(capsys):
    """Euclidean-coreset lift of a norm-family instance obeys the eigenvalue bound."""
    t0 = time.perf_counter()
    epsilon = 0.5
    worst = np.inf
    worst_ratio = 1.0
    for i in range(50):
        rng = _rng(8, i)
        k = 2 + i % 2
        lo = float(rng.uniform(0.5, 2.0))
        ratio = float(rng.uniform(1.0, 10.0))
        inst = generate_instance((6, 6), k, seed=ACCEPT_SEED + i,
                                 anisotropy=(lo, lo * ratio), epsilon=epsilon)
        best = solve_assignment(inst)
        plan = make_plan(k, Fraction(1, 6), inst.rho)  # epsilon / 3
        lifted = solve_coarse(inst, plan=plan)
        lam = inst.norms.lambda_max / inst.norms.lambda_min
        worst_ratio = max(worst_ratio, lam)
        margin = ((1.0 + epsilon) * lam * best.objective + 1e-9
                  - lifted.extended_cost)
        worst = min(worst, margin)
    dt = time.perf_counter() - t0
    ok = worst >= 0.0 and worst_ratio <= 10.0
    _report(capsys, 8, "anisotropic lift within eigenvalue factor", ok,
            f"50 instances, max eigenratio {worst_ratio:.2f}, "
            f"min margin {worst:.3e}, {dt:.0f}s")
    assert ok, f"worst transfer margin {worst}, max eigenratio {worst_ratio}"


def test_9_size_bounds(capsys):
    """Pencil-vs-resolution size advantage and the per-axis size bound."""
    plan = make_plan(100, 0.001, (16, 16, 16))
    rep = size_report(plan)
    pinned = (rep.pencil_bound == Fraction(10) ** 16
              and rep.advantage == Fraction(10) ** 4
              and rep.axis_bound_holds)
    bound_ok = True
    rng = _rng(9)
    for _ in range(1000):
        k = max(2, int(10 ** rng.uniform(0.0, 6.0)))
        eps = float(0.5 * 10 ** rng.uniform(-6.0, 0.0))
        t = coarsening_exponent(k, eps)
        e = Fraction(str(eps))
        # 2^t <= 2^(8/3) k / eps^(2/3), cubed to stay in integers.
        if (1 << (3 * t)) * e.numerator ** 2 > 256 * k ** 3 * e.denominator ** 2:
            bound_ok = False
    ok = pinned and bound_ok
    _report(capsys, 9, "size bounds", ok,
            f"pencil {float(rep.pencil_bound):.0e}, advantage "
            f"{float(rep.advantage):.0e}, 1000 random (k, eps) pairs")
    assert ok, f"pinned={pinned}, axis bound ok={bound_ok}"
