"""Command-line surface: generate, solve, coarsen, verify, and benchmark.

Instance files are JSON; reports are CSV with a fixed header.  All
randomness flows from one 64-bit seed through named substreams (instance
generation, per-trial draws), so adding trials never changes earlier rows.
Exit codes: 0 success, 2 validation failure, 3 property violation (the
offending row goes to standard error) or a solve past the simplex pivot cap.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .coreset import (PROPERTY_A_TOL, PROPERTY_B_TOL, CoresetPlan, make_plan,
                      size_report, solve_coarse, transfer_bound, verify_property_a,
                      verify_property_b)
from .diagrams import PowerDiagram, check_compatibility, from_duals
from .grid import MAX_AXIS_EXPONENT, Resolution, _check_tau, as_int, as_resolution, coords_array
from .model import Clustering, Instance, cluster_weights
from .oracle import lower_bound_1d, opt1d_closed, opt1d_dp
from .solver import PivotLimitError, solve_assignment

# Named RNG streams (SeedSequence spawn keys).
STREAM_GEN = 0
STREAM_TRIAL = 1

CSV_FIELDS = ["instance_id", "resolution", "trial", "check", "objective", "delta",
              "bound", "margin", "quality_ratio", "speedup", "wall_time_s",
              "fractional_count", "seed"]

GEN_ATTEMPTS = 100


def _parse_axes(text: str) -> tuple[int, ...]:
    # "4,,4", "6," and "x6" hold an empty entry; int() also takes "1_0", " 4" and 5000 digits.
    parts = [p.lstrip("0") or p[-1:] for p in text.replace("x", ",").split(",")]  # "000" -> "0"
    width = len(str(MAX_AXIS_EXPONENT))  # an entry with more digits is past the cap
    if not all(p.isascii() and p.isdigit() and len(p) <= width for p in parts):
        raise ValueError(f"expected axis exponents 0-{MAX_AXIS_EXPONENT} such as 6,6 or 6x6, "
                         f"got {text!r}")
    return tuple(int(p) for p in parts)


def _kappa_from_json(values) -> list:
    """Weights as given, with [numerator, denominator] pairs as Fractions; Instance checks them."""
    out = []
    for v in values:
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ValueError(f"kappa pair must be [numerator, denominator], got {v}")
            v = Fraction(v[0], v[1])
        out.append(v)
    return out


def _check_numbers(field: str, value) -> None:
    """Raise unless value is a number or nested lists of numbers: JSON true and "0.5" are not."""
    if isinstance(value, list):
        for v in value:
            _check_numbers(field, v)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must hold numbers, not {value!r}")


def save_instance(instance: Instance, path, plan: CoresetPlan | None = None) -> None:
    doc = {
        "d": instance.d,
        "rho": list(instance.rho.exponents),
        "k": instance.k,
        "kappa": [[u, 1 << instance.kappa_bits] for u in instance.kappa_units],
        "sites": None if instance.sites is None else instance.sites.tolist(),
        "matrices": None if instance.norms is None else instance.norms.matrices.tolist(),
        "epsilon": instance.epsilon,
    }
    if plan is not None:
        doc["plan"] = {
            "rho": list(plan.rho.exponents),
            "tau": list(plan.tau.exponents),
            "tau_star": plan.tau_star,
            "delta": [plan.delta_exact.numerator, plan.delta_exact.denominator],
            "epsilon": float(plan.epsilon),
        }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def instance_from_dict(doc: dict) -> Instance:
    rho = as_resolution(doc["rho"])
    if as_int(doc.get("d", rho.d)) != rho.d:
        raise ValueError(f"d = {doc['d']} does not match rho with {rho.d} axes")
    for field in ("kappa", "sites", "matrices", "epsilon"):
        if doc.get(field) is not None:
            _check_numbers(field, doc[field])
    return Instance(k=doc["k"], rho=rho, kappa=_kappa_from_json(doc["kappa"]),
                    sites=doc.get("sites"), norms=doc.get("matrices"),
                    epsilon=doc.get("epsilon", 0.5))


def load_instance(path) -> Instance:
    """The instance in a JSON file; a malformed one raises ValueError."""
    doc = json.loads(Path(path).read_text())
    try:
        return instance_from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"malformed instance file {path}: missing key {exc}") from exc
    except (TypeError, ZeroDivisionError) as exc:  # e.g. null, a list, a kappa over 0
        raise ValueError(f"malformed instance file {path}: {exc}") from exc


def generate_instance(rho, k: int, seed: int, anisotropy=None, epsilon: float = 0.5) -> Instance:
    """Random power-diagram instance on X(rho): sites, offsets, and cell-count weights.

    Each grid point joins the cell minimizing ||x - s||^2 + gamma (lowest index on ties);
    kappa_i is that cell's point count times the voxel volume, resampled on a fresh substream
    until every cell is nonempty.  Norm eigenvalues lie in anisotropy = (lo, hi), read by float().
    """
    rho = as_resolution(rho)
    d = rho.d
    if k < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    if k > rho.n:
        raise ValueError(f"cluster count {k} exceeds point count {rho.n}")
    if anisotropy is not None:
        lo, hi = float(anisotropy[0]), float(anisotropy[1])
        if not 0 < lo <= hi:
            raise ValueError(f"anisotropy range must satisfy 0 < lo <= hi, got {lo}, {hi}")
        if hi == np.inf:
            raise ValueError(f"anisotropy range must be finite, got {lo}, {hi}")
    pts = coords_array(rho)
    for attempt in range(GEN_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(STREAM_GEN, attempt)))
        sites = rng.uniform(0.0, 1.0, size=(k, d))
        gammas = rng.uniform(0.0, 0.1, size=k)
        powers = PowerDiagram(sites, gammas).powers(pts)
        counts = np.bincount(np.argmin(powers, axis=0), minlength=k)
        if np.all(counts > 0):
            break
    else:
        raise ValueError(f"no nonempty-cell draw in {GEN_ATTEMPTS} attempts")
    kappa = [Fraction(int(c), rho.n) for c in counts]
    mats = None
    if anisotropy is not None:
        mats = np.empty((k, d, d))
        for i in range(k):
            if lo == hi:  # exactly lo * I: the rotation below would round it
                mats[i] = lo * np.eye(d)
                continue
            q, r = np.linalg.qr(rng.normal(size=(d, d)))
            q = q * np.sign(np.diag(r))
            eigs = rng.uniform(lo, hi, size=d)
            a = (q * eigs) @ q.T
            mats[i] = (a + a.T) / 2.0
    return Instance(k=k, rho=rho, kappa=kappa, sites=sites, norms=mats, epsilon=epsilon)


class _Reporter:
    """Collects report rows, one dict per check, and writes them as CSV under CSV_FIELDS."""

    def __init__(self, instance_id: str, seed: int):
        self.instance_id = instance_id
        self.seed = seed
        self.rows: list[dict] = []

    def add(self, resolution: Resolution, trial, check: str, **fields) -> dict:
        row = dict(instance_id=self.instance_id, seed=self.seed, trial=trial,
                   resolution=str(resolution), check=check, **fields)
        self.rows.append(row)
        return row

    def write(self, fh) -> None:
        writer = csv.DictWriter(fh, CSV_FIELDS)
        writer.writeheader()
        writer.writerows(self.rows)

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write(fh)
        print(f"wrote {path} ({len(self.rows)} rows)")


def _trials(inst: Instance, seed: int, trials: int):
    """(t, rng, the instance at the k sites drawn first) per trial t, on its own substream."""
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(STREAM_TRIAL, t)))
        yield t, rng, replace(inst, sites=rng.uniform(0.0, 1.0, size=(inst.k, inst.d)))


def _cmd_gen(args) -> int:
    rho = _parse_axes(args.rho)
    aniso = args.anisotropy.split(",") if args.anisotropy else None
    if aniso is not None and len(aniso) != 2:
        raise ValueError(f"--anisotropy takes lo,hi, got {args.anisotropy!r}")
    inst = generate_instance(rho, args.k, args.seed, anisotropy=aniso, epsilon=args.epsilon)
    out = args.out or f"instance_d{inst.d}_k{args.k}_seed{args.seed}.json"
    save_instance(inst, out)
    print(f"wrote {out}: d={inst.d} rho={inst.rho} k={inst.k} "
          f"kappa={[f'{v:g}' for v in inst.kappa]}")
    return 0


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.tau:  # the coarse problem, as coarsen writes it
        tau = as_resolution(_parse_axes(args.tau))
        _check_tau(inst.rho, tau)
        inst = replace(inst, rho=tau)
    t0 = time.perf_counter()
    res = solve_assignment(inst)
    dt = time.perf_counter() - t0
    print(f"resolution {res.resolution}")
    print(f"objective {res.objective!r}")
    print(f"duality_gap {res.objective - res.dual_objective!r}")
    print(f"fractional_count {res.fractional_count}")
    print(f"pivots {res.pivots}")
    print(f"exact_arithmetic {res.exact}")
    print(f"wall_time_s {dt:.6f}")
    weights = cluster_weights(res.clustering, res.resolution)
    print("weights " + " ".join(repr(float(w)) for w in weights))
    if args.out:
        doc = {"resolution": list(res.resolution.exponents), "objective": res.objective,
               "duals": list(res.duals), "fractional_count": res.fractional_count,
               "pivots": res.pivots, "exact": res.exact,
               "entries": [[int(i), int(j), float(v)] for i, j, v in
                           zip(res.clustering.rows, res.clustering.cols, res.clustering.vals)]}
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


def _load_plan(args) -> tuple[Instance, CoresetPlan]:
    """The instance file, with --epsilon in place of its own, and the plan of coarsen,
    verify and bench: at epsilon and --tau, or at epsilon/3 for an anisotropic
    instance, whose lift is certified through the eigenvalue transfer factor."""
    inst = load_instance(args.instance)
    if args.epsilon is not None:  # Instance checks it, before any division
        inst = replace(inst, epsilon=args.epsilon)
    epsilon = inst.epsilon if inst.norms is None else Fraction(str(inst.epsilon)) / 3
    tau = _parse_axes(args.tau) if args.tau else None
    return inst, make_plan(inst.k, epsilon, inst.rho, tau=tau)


def _cmd_coarsen(args) -> int:
    inst, plan = _load_plan(args)
    coarse = replace(inst, rho=plan.tau)  # the user's epsilon; the plan block holds the plan's
    out = args.out or str(Path(args.instance).with_suffix(".coarse.json"))
    rep = size_report(plan)  # before the file, so that a failure leaves none
    save_instance(coarse, out, plan=plan)
    print(f"tau {plan.tau} (tau_star {plan.tau_star}{', clamped' if plan.clamped else ''})")
    print(f"delta {plan.delta!r} = {plan.delta_exact}")
    print(f"coarse_points {plan.tau.n} of {plan.rho.n}")
    print(f"axis_size {rep.axis_size} bound {rep.axis_bound:.3f} holds {rep.axis_bound_holds}")
    print(f"wrote {out}")
    return 0


def _random_stochastic(rng, k: int, n: int) -> Clustering:
    dense = rng.random((k, n))
    dense /= dense.sum(axis=0, keepdims=True)
    return Clustering.from_dense(dense)


def _verify_isotropic(inst, plan, reporter, trials, seed) -> dict | None:
    for t, rng, trial in _trials(inst, seed, trials):
        c_tilde = _random_stochastic(rng, inst.k, plan.tau.n)
        resid, lifted = verify_property_a(c_tilde, trial, plan)
        bound = PROPERTY_A_TOL * (1.0 + lifted)
        row = reporter.add(plan.tau, t, "property_a", margin=resid, bound=bound)
        if not resid <= bound:  # NaN fails too
            return row

        margin, fine, coarse = verify_property_b(trial, plan)
        row = reporter.add(plan.tau, t, "property_b", objective=fine.objective,
                           delta=plan.delta, margin=margin,
                           bound=(1.0 + plan.epsilon) * fine.objective,
                           fractional_count=coarse.fractional_count)
        if not margin >= -PROPERTY_B_TOL:
            return row

        rep = None
        for res in (fine, coarse):
            if rep is None or res is not fine:  # at tau = rho coarse is fine: certify it once
                rep = check_compatibility(res.clustering, from_duals(trial.sites, res.duals),
                                          res.resolution)
            row = reporter.add(res.resolution, t, "compatibility",
                               margin=rep.worst_violation,
                               fractional_count=res.fractional_count)
            if not rep.compatible:
                return row
    return None


def _verify_anisotropic(inst, plan, reporter, trials, seed) -> dict | None:
    factor = transfer_bound(plan.epsilon, inst.norms)
    for t, _, trial in _trials(inst, seed, trials):
        best = solve_assignment(trial)
        lifted = solve_coarse(trial, plan=plan)
        bound = factor * best.objective
        margin = bound - lifted.extended_cost
        row = reporter.add(plan.tau, t, "transfer", objective=best.objective,
                           delta=plan.delta, bound=bound, margin=margin,
                           quality_ratio=lifted.extended_cost / best.objective
                           if best.objective > 0 else None)
        if not margin >= -PROPERTY_B_TOL:
            return row
    return None


def _cmd_verify(args) -> int:
    inst, plan = _load_plan(args)
    reporter = _Reporter(Path(args.instance).stem, args.seed)
    if inst.norms is None:
        bad = _verify_isotropic(inst, plan, reporter, args.trials, args.seed)
    else:
        bad = _verify_anisotropic(inst, plan, reporter, args.trials, args.seed)
    if args.out:
        reporter.save(args.out)
    if bad is not None:
        csv.DictWriter(sys.stderr, CSV_FIELDS, lineterminator="\n").writerow(bad)
        return 3
    checks = sorted({r["check"] for r in reporter.rows})
    print(f"verified {args.trials} trials ({', '.join(checks)}): all passed")
    return 0


def _cmd_bench(args) -> int:
    inst, plan = _load_plan(args)
    reporter = _Reporter(Path(args.instance).stem, args.seed)
    for t, _, trial in _trials(inst, args.seed, args.trials):
        t0 = time.perf_counter()
        fine = solve_assignment(trial)
        t_full = time.perf_counter() - t0
        t0 = time.perf_counter()
        lifted = solve_coarse(trial, plan=plan)
        t_coarse = time.perf_counter() - t0
        quality = lifted.extended_cost / fine.objective if fine.objective > 0 else None
        reporter.add(plan.rho, t, "bench", objective=fine.objective,
                     wall_time_s=t_full, fractional_count=fine.fractional_count)
        reporter.add(plan.tau, t, "bench", objective=lifted.coarse.objective,
                     delta=plan.delta, quality_ratio=quality,
                     speedup=t_full / t_coarse, wall_time_s=t_coarse,
                     fractional_count=lifted.coarse.fractional_count)
    if args.out:
        reporter.save(args.out)
    else:
        reporter.write(sys.stdout)
    return 0


def _cmd_oracle(args) -> int:
    res = opt1d_dp(args.rho, args.k)
    print(f"dp_cost {res.cost!r} (units {res.units})")
    print(f"boundaries {' '.join(str(b) for b in res.boundaries)}")
    print(f"centroids {' '.join(repr(c) for c in res.centroids)}")
    if args.k & (args.k - 1) == 0:
        gamma = args.k.bit_length() - 1
        print(f"closed_form {opt1d_closed(args.rho, gamma)!r}")
    if args.k >= 2:
        print(f"lower_bound {lower_bound_1d(args.rho, args.k)!r}")
    return 0


class _AtLeastOne(argparse.Action):
    """Stores an int option's value, refusing one below 1 as a usage error (exit 2)."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise argparse.ArgumentError(self, f"must be at least 1, got {value}")
        setattr(namespace, self.dest, value)


def _trial_options(p: argparse.ArgumentParser, trials: int) -> None:
    p.add_argument("--trials", type=int, default=trials, action=_AtLeastOne)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report rows as CSV")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing leaves it unchanged.  Sharing saves 1-2 ms per main call
    after the first, which counts only where one process calls main many
    times (the benchmark harness, the tests), not in a single command."""
    # instance, --epsilon and --tau of the commands that plan a coreset.
    planned = argparse.ArgumentParser(add_help=False)
    planned.add_argument("instance")
    planned.add_argument("--epsilon", type=float)
    planned.add_argument("--tau", help="override the target resolution")

    parser = argparse.ArgumentParser(
        prog="gridcoreset",
        description="Weight-constrained clustering on dyadic grids with "
                    "resolution coresets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random power-diagram instance")
    p.add_argument("--rho", required=True, help="axis exponents joined by , or x: 6,6 or 6x6")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--anisotropy", help="eigenvalue range lo,hi for random norms")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve the assignment LP exactly")
    p.add_argument("instance")
    p.add_argument("--tau", help="solve at this coarse resolution instead of rho")
    p.add_argument("--out", help="write the clustering as JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("coarsen", parents=[planned],
                       help="plan a coreset and write the coarse instance")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_coarsen)

    p = sub.add_parser("verify", parents=[planned], help="run the coreset property sweeps")
    _trial_options(p, trials=50)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", parents=[planned], help="time full vs coarse solves")
    _trial_options(p, trials=10)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="1D DP optimum, closed form, and lower bound")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PivotLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
