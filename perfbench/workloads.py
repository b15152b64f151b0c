"""The benchmark's workloads: input generation, the timed operation, its check.

Every input is generated here from the run's seed with numpy alone, so the
program under test receives only finished instances (in memory, or as
instance files for the command line).  Item i of a run uses spec
i mod len(specs) and its own seed stream, so any prefix of the item
sequence keeps the spec mix balanced and does not depend on how many items
were generated.

The checks are written against the problem, not against the package: they
recompute grid coordinates, costs, weights, power diagrams and the lifted
cost in plain numpy, so a defect in a shared helper cannot hide itself.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from gridcoreset import cli, coreset, model, solver

# Stream ids that keep the workloads' seed streams apart.
_STREAM = {"solve_fine": 0, "coreset_lift": 1, "verify_small": 2}

# Grid of at most 2^_KAPPA_BITS points on which cluster weights are drawn.
_KAPPA_BITS = 12

# Relative tolerance of the float-path certificates.
_TOL = 1e-9


@dataclass
class Item:
    """One operation's input, plus the plain arrays its check needs."""

    label: str
    exps: tuple[int, ...]
    kappa: np.ndarray                  # cluster weights as float64 (exact dyadics)
    sites: np.ndarray
    mats: np.ndarray | None = None     # per-cluster norm matrices, or None
    payload: object = None             # what the operation consumes
    extra: dict = field(default_factory=dict)


def grid_coords(exps) -> np.ndarray:
    """Cell centres (2j + 1) / 2^(e+1) of the dyadic grid, row-major, shape (n, d)."""
    axes = [(2.0 * np.arange(1 << e) + 1.0) / (1 << (e + 1)) for e in exps]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _rng(seed: int, workload: str, index: int, sub: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_STREAM[workload], index, sub)))


def _draw_kappa(rng, exps, k: int) -> tuple[np.ndarray, int]:
    """Cell counts of a random power diagram, drawn on a grid of at most 2^12 points.

    Returns (counts, bits): the weights are counts / 2^bits, dyadic and a
    multiple of the voxel volume of the full grid.
    """
    sub = list(exps)
    while sum(sub) > _KAPPA_BITS:
        sub[int(np.argmax(sub))] -= 1
    pts = grid_coords(sub)
    # Offsets up to a quarter of a typical cell's squared width, so that
    # cells vary in size but rarely vanish.
    gamma_max = 0.25 * k ** (-2.0 / len(exps))
    for _ in range(100):
        sites = rng.uniform(0.0, 1.0, size=(k, len(exps)))
        gamma = rng.uniform(0.0, gamma_max, size=k)
        power = ((pts[None, :, :] - sites[:, None, :]) ** 2).sum(axis=2) + gamma[:, None]
        counts = np.bincount(np.argmin(power, axis=0), minlength=k)
        if np.all(counts > 0):
            return counts, sum(sub)
    raise RuntimeError("no draw with every cell nonempty")


def _draw_norms(rng, k: int, d: int) -> np.ndarray:
    """k random SPD matrices with eigenvalues in [lo, lo * ratio], ratio <= 10."""
    lo = float(rng.uniform(0.5, 2.0))
    hi = lo * float(rng.uniform(1.0, 10.0))
    mats = np.empty((k, d, d))
    for i in range(k):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        q = q * np.sign(np.diag(r))
        a = (q * rng.uniform(lo, hi, size=d)) @ q.T
        mats[i] = (a + a.T) / 2.0
    return mats


def _draw(seed: int, workload: str, index: int, exps, k: int,
          dyadic: bool = False, aniso: bool = False):
    rng = _rng(seed, workload, index)
    counts, bits = _draw_kappa(rng, exps, k)
    sites = rng.uniform(0.0, 1.0, size=(k, len(exps)))
    if dyadic:
        sites = np.floor(sites * 1024.0) / 1024.0
    mats = _draw_norms(rng, k, len(exps)) if aniso else None
    kappa = [Fraction(int(c), 1 << bits) for c in counts]
    return kappa, sites, mats


def _digest(h, *parts) -> None:
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())


# -- checks --------------------------------------------------------------

def solve_problems(exps, kappa, sites, result, exact_expected: bool = False) -> list[str]:
    """Certify one Euclidean assignment solve from scratch; [] when it is optimal.

    Checks the cluster weights, the objective against a recomputed cost,
    the duality gap (exactly zero on the integer path), power-diagram
    compatibility of the support with the duals, and the 2(k-1) bound on
    fractional entries.
    """
    pts = grid_coords(exps)
    n, k = pts.shape[0], len(kappa)
    C = result.clustering
    if (C.k, C.n) != (k, n):
        return [f"clustering shape {(C.k, C.n)} != {(k, n)}"]
    problems = []
    nu = 1.0 / n
    weights = nu * np.bincount(C.rows, weights=C.vals, minlength=k)
    if np.max(np.abs(weights - kappa)) > 1e-12:
        problems.append(f"cluster weights off by {np.max(np.abs(weights - kappa)):.3e}")
    diff = pts[None, :, :] - sites[:, None, :]
    sq = (diff * diff).sum(axis=2)  # (k, n) squared distances
    scale = max(1.0, float(sq.max()))
    cost = nu * float(np.dot(C.vals, sq[C.rows, C.cols]))
    if abs(cost - result.objective) > _TOL * scale:
        problems.append(f"objective {result.objective!r} != recomputed cost {cost!r}")
    gap = result.objective - result.dual_objective
    if exact_expected and not result.exact:
        problems.append("dyadic sites did not take the exact integer path")
    if result.exact and gap != 0.0:
        problems.append(f"integer-path duality gap {gap!r} != 0")
    if abs(gap) > _TOL * scale:
        problems.append(f"duality gap {gap!r}")
    power = sq - np.asarray(result.duals, dtype=np.float64)[:, None]
    worst = float(np.max(power[C.rows, C.cols] - power.min(axis=0)[C.cols]))
    if worst > _TOL * scale:
        problems.append(f"support outside its power cell by {worst:.3e}")
    fractional = int(np.count_nonzero(C.vals < 1.0))
    if fractional > 2 * (k - 1) or fractional != result.fractional_count:
        problems.append(f"{fractional} fractional entries (reported "
                        f"{result.fractional_count}, bound {2 * (k - 1)})")
    return problems


def coarsening_exponent(k: int, epsilon: Fraction) -> int:
    """Smallest T with 8^T >= 32 k^3 / eps^2, in exact arithmetic."""
    need = 32 * Fraction(k) ** 3 / epsilon ** 2
    t = 0
    while 8 ** t < need:
        t += 1
    return t


def lift_problems(item: Item, result) -> list[str]:
    """Certify a coarse solve and its lift; [] when both are right.

    The lifted cost is recomputed in closed form from the coarse
    clustering: a batch of fine cells costs |B| times its centre's cost plus
    the within-batch spread sum_t A_tt (4^-tau_t - 4^-rho_t) / 12, which for
    isotropic costs is the property A identity cost(coarse) + Delta.
    """
    exps = item.exps
    k = len(item.kappa)
    t = coarsening_exponent(k, item.extra["plan_epsilon"])
    tau = tuple(min(e, t) for e in exps)
    if result.plan.tau.exponents != tau:
        return [f"planned tau {result.plan.tau.exponents} != {tau}"]
    problems = [f"coarse solve: {p}" for p in
                solve_problems(tau, item.kappa, item.sites, result.coarse)]
    E = result.extended
    n_fine = 1 << sum(exps)
    if (E.k, E.n) != (k, n_fine):
        return problems + [f"lifted clustering shape {(E.k, E.n)} != {(k, n_fine)}"]
    weights = np.bincount(E.rows, weights=E.vals, minlength=k) / n_fine
    if np.max(np.abs(weights - item.kappa)) > 1e-12:
        problems.append(f"lifted weights off by {np.max(np.abs(weights - item.kappa)):.3e}")
    C = result.coarse.clustering
    if E.rows.size != C.rows.size * (n_fine >> sum(tau)):
        problems.append(f"lift has {E.rows.size} entries for {C.rows.size} coarse ones")
    diff = grid_coords(tau)[C.cols] - item.sites[C.rows]
    spread = np.array([(4.0 ** -te - 4.0 ** -re) / 12.0 for re, te in zip(exps, tau)])
    if item.mats is None:
        per = (diff * diff).sum(axis=1) + spread.sum()
    else:
        A = item.mats[C.rows]
        per = (np.einsum("md,mde,me->m", diff, A, diff)
               + np.einsum("mtt,t->m", A, spread))
    expected = float(np.dot(C.vals, per)) / (1 << sum(tau))
    residual = abs(result.extended_cost - expected)
    if residual > 1e-10 * (1.0 + abs(expected)):
        what = "property A residual" if item.mats is None else "lifted cost residual"
        problems.append(f"{what} {residual:.3e}")
    return problems


VERIFY_CHECKS = ["property_a", "property_b", "compatibility", "compatibility"]


def verify_problems(code: int, csv_text: str) -> tuple[list[str], int]:
    """Exit code 0 and one isotropic trial's rows; returns (problems, data rows)."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    data = rows[1:]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not rows or rows[0][:1] != ["instance_id"]:
        problems.append("missing CSV header")
    elif [r[rows[0].index("check")] for r in data] != VERIFY_CHECKS:
        problems.append(f"{len(data)} rows, expected {len(VERIFY_CHECKS)} ({VERIFY_CHECKS})")
    return problems, len(data)


# -- workloads -----------------------------------------------------------

class Workload:
    """A named item generator with a timed operation and an untimed check."""

    name = ""
    specs: list = []

    @property
    def pass_size(self) -> int:
        """Items in one pass over every spec: the warm-up and the traced pass."""
        return len(self.specs)

    def setup(self, seed: int, count: int, workdir: Path) -> tuple[list[Item], str]:
        """Generate count items; returns them and a digest of their bytes."""
        h = hashlib.sha256()
        items = [self.make(seed, i, h, workdir) for i in range(count)]
        return items, h.hexdigest()

    def make(self, seed: int, index: int, h, workdir: Path) -> Item:
        raise NotImplementedError

    def call(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> tuple[list[str], dict[str, int]]:
        """(problems, counters observed at this boundary) for one operation."""
        raise NotImplementedError


class SolveFine(Workload):
    """Cold solve_assignment at full resolution; pivot-bound."""

    name = "solve_fine"
    specs = [(exps, k, dyadic)
             for exps in ((10,), (5, 5), (4, 3, 3))
             for k in (3, 8)
             for dyadic in (True, False)]

    def make(self, seed, index, h, workdir):
        exps, k, dyadic = self.specs[index % len(self.specs)]
        kappa, sites, _ = _draw(seed, self.name, index, exps, k, dyadic=dyadic)
        _digest(h, exps, k, kappa, sites)
        inst = model.Instance(k=k, rho=exps, kappa=kappa, sites=sites)
        return Item(label=f"{self.name}[{index}] rho={exps} k={k} dyadic={dyadic}",
                    exps=exps, kappa=np.array([float(v) for v in kappa]), sites=sites,
                    payload=inst, extra={"dyadic": dyadic})

    def call(self, item):
        return solver.solve_assignment(item.payload)

    def check(self, item, result):
        return solve_problems(item.exps, item.kappa, item.sites, result,
                              exact_expected=item.extra["dyadic"]), {}


class CoresetLift(Workload):
    """make_plan + solve_coarse on 2^20-point grids; O(n_fine) numpy work."""

    name = "coreset_lift"
    # d in {2, 3}, k in {2, 3, 4}, epsilon = 1/2; a third anisotropic, planned
    # at epsilon / 3.  Every coarse grid has at most 1024 points.
    specs = [((10, 10), 2, False), ((15, 3, 2), 2, False), ((10, 10), 2, True),
             ((10, 10), 3, False), ((15, 3, 2), 3, False), ((10, 10), 3, True),
             ((10, 10), 4, False), ((15, 3, 2), 4, False), ((15, 3, 2), 2, True)]

    def make(self, seed, index, h, workdir):
        exps, k, aniso = self.specs[index % len(self.specs)]
        kappa, sites, mats = _draw(seed, self.name, index, exps, k, aniso=aniso)
        _digest(h, exps, k, kappa, sites, mats)
        norms = None if mats is None else model.NormFamily(mats)
        inst = model.Instance(k=k, rho=exps, kappa=kappa, sites=sites, norms=norms,
                              epsilon=0.5)
        plan_epsilon = Fraction(1, 6) if aniso else Fraction(1, 2)
        return Item(label=f"{self.name}[{index}] rho={exps} k={k} aniso={aniso}",
                    exps=exps, kappa=np.array([float(v) for v in kappa]), sites=sites,
                    mats=mats, payload=inst, extra={"plan_epsilon": plan_epsilon})

    def call(self, item):
        inst = item.payload
        plan = coreset.make_plan(inst.k, item.extra["plan_epsilon"], inst.rho)
        return coreset.solve_coarse(inst, plan=plan)

    def check(self, item, result):
        return lift_problems(item, result), {}


class VerifySmall(Workload):
    """In-process `gridcoreset verify` of one trial on small instance files."""

    name = "verify_small"
    # Mirrors the acceptance sweep: small grids, k in {2, 3, 4}, both epsilons.
    specs = [(exps, k, eps)
             for eps in (0.25, 0.5)
             for k in (2, 3, 4)
             for exps in ((8,), (4, 4), (3, 3, 2), (9,), (5, 4), (3, 3, 3))]

    def setup(self, seed, count, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        return super().setup(seed, count, workdir)

    # Instance files per spec; every operation also draws its own sites.
    files_per_spec = 4

    def make(self, seed, index, h, workdir):
        n_files = self.files_per_spec * len(self.specs)
        exps, k, eps = self.specs[index % len(self.specs)]
        path = workdir / f"instance{index % n_files}.json"
        if index < n_files:
            kappa, sites, _ = _draw(seed, self.name, index, exps, k)
            doc = {"d": len(exps), "rho": list(exps), "k": k,
                   "kappa": [[f.numerator, f.denominator] for f in kappa],
                   "sites": sites.tolist(), "matrices": None, "epsilon": eps}
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            path.write_text(text)
            _digest(h, text)
        trial_seed = int(_rng(seed, self.name, index, sub=1).integers(0, 2 ** 31))
        _digest(h, trial_seed)
        return Item(label=f"{self.name}[{index}] rho={exps} k={k} eps={eps}",
                    exps=exps, kappa=np.empty(0), sites=np.empty(0),
                    payload=(str(path), trial_seed, str(workdir / "report.csv")))

    def call(self, item):
        """(exit code, standard error) of one `gridcoreset verify` trial."""
        path, trial_seed, out = item.payload
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["verify", path, "--trials", "1", "--seed", str(trial_seed),
                             "--out", out])
        return code, err.getvalue()

    def check(self, item, result):
        code, err = result
        report = Path(item.payload[2])
        problems, rows = verify_problems(code, report.read_text())
        report.unlink()  # a later operation that writes nothing must not pass
        if problems and err:
            problems.append(f"stderr: {err.strip().splitlines()[0]}")
        return problems, {"cli.rows": rows}


WORKLOADS = {w.name: w for w in (SolveFine(), CoresetLift(), VerifySmall())}
