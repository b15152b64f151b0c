"""Problem instances, fractional clusterings, and (an)isotropic cost evaluation.

Weights are handled as exact dyadic rationals encoded in float64: every
cluster weight kappa_i must have a power-of-two denominator and the family
must sum to exactly 1.  That keeps the transportation solver's integer
scaling exact and lets tests assert weight identities without tolerances.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import Resolution, as_resolution, coords_array, voxel_volume

# Largest admissible power-of-two denominator for cluster weights: the
# float64 mantissa, so every weight, supply, flow and fraction is exact.
MAX_WEIGHT_BITS = 53

COLUMN_SUM_TOL = 1e-9


def _dyadic_units(values, what: str) -> tuple[int, tuple[int, ...]]:
    """Express values as integers over a common 2^L denominator, exactly."""
    fracs = []
    for v in values:
        f = Fraction(v)
        den = f.denominator
        if den & (den - 1) != 0:
            raise ValueError(f"{what} must be dyadic rationals, got {v}")
        fracs.append(f)
    bits = max(f.denominator.bit_length() - 1 for f in fracs)
    if bits > MAX_WEIGHT_BITS:
        raise ValueError(f"{what} denominator 2^{bits} exceeds cap 2^{MAX_WEIGHT_BITS}")
    units = tuple(int(f * (1 << bits)) for f in fracs)
    return bits, units


@dataclass(frozen=True)
class NormFamily:
    """k SPD matrices defining per-cluster ellipsoidal norms, with cached extreme eigenvalues."""

    matrices: np.ndarray
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected a (k, d, d) matrix stack, got shape {mats.shape}")
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrices must be finite")
        sym_residual = float(np.max(np.abs(mats - np.transpose(mats, (0, 2, 1)))))
        if sym_residual > 1e-12:
            raise ValueError(f"matrices not symmetric: residual {sym_residual:.3e} > 1e-12")
        eigs = np.linalg.eigvalsh(mats)
        lo = float(eigs.min())
        hi = float(eigs.max())
        if lo <= 1e-12 * max(1.0, hi):
            raise ValueError(f"matrices not positive definite: min eigenvalue {lo:.3e}")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "lambda_min", lo)
        object.__setattr__(self, "lambda_max", hi)

    @property
    def k(self) -> int:
        return self.matrices.shape[0]

    @property
    def d(self) -> int:
        return self.matrices.shape[1]


def site_array(sites, k: int, d: int) -> np.ndarray:
    """Sites as a finite (k, d) float64 array; a 1-D input is a column when d == 1, else a row.

    Always a copy, so a caller that freezes the result leaves the input writable.
    """
    if sites is None:
        raise ValueError("no sites: pass sites or give the instance sites")
    s = np.array(sites, dtype=np.float64)
    if s.ndim == 1:
        s = s.reshape(-1, 1) if d == 1 else s.reshape(1, -1)
    if s.shape != (k, d):
        raise ValueError(f"sites must have shape ({k}, {d}), got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("sites must be finite")
    return s


def sq_dists(points, sites, matrices=None) -> np.ndarray:
    """(k, m) matrix of ||x_j - s_i||^2_{A_i}; A_i = matrices[i], the identity if None.

    Built one site row at a time, so no (k, m, d) temporary exists.  The
    dtype follows the inputs: int64 points and sites give exact int64 costs.
    """
    points = np.asarray(points)
    sites = np.asarray(sites)
    inputs = (points, sites) if matrices is None else (points, sites, matrices)
    out = np.empty((sites.shape[0], points.shape[0]), dtype=np.result_type(*inputs))
    for i in range(sites.shape[0]):
        diff = points - sites[i]
        if matrices is None:
            np.einsum("nd,nd->n", diff, diff, out=out[i])
        else:
            np.einsum("nd,de,ne->n", diff, matrices[i], diff, out=out[i])
    return out


@dataclass(frozen=True)
class Instance:
    """A weight-constrained clustering instance on the grid X(rho).

    kappa entries must be positive dyadic rationals summing to exactly 1.
    They are usually integer multiples of the voxel volume nu(rho); the
    relaxed dyadic form is accepted so that coarse-level instances (whose
    weights live on the finer source grid) and split examples validate too.
    kappa_on_grid records whether the strict multiple-of-nu(rho) form holds,
    which is exactly the condition for an integer optimal assignment.
    """

    k: int
    rho: Resolution
    kappa: tuple[float, ...]
    sites: np.ndarray | None = None
    norms: NormFamily | None = None
    epsilon: float = 0.5
    kappa_bits: int = field(init=False)
    kappa_units: tuple[int, ...] = field(init=False)
    kappa_on_grid: bool = field(init=False)

    def __post_init__(self):
        rho = as_resolution(self.rho)
        object.__setattr__(self, "rho", rho)
        k = operator.index(self.k)
        object.__setattr__(self, "k", k)
        if k < 1:
            raise ValueError(f"cluster count must be >= 1, got {k}")
        if k > rho.n:
            raise ValueError(f"cluster count {k} exceeds point count {rho.n}")

        if len(self.kappa) != k:
            raise ValueError(f"expected {k} cluster weights, got {len(self.kappa)}")
        if not all(0 < v <= 1 for v in self.kappa):  # NaN, infinities and huge values fail too
            raise ValueError("cluster weights must lie in (0, 1]")
        bits, units = _dyadic_units(self.kappa, "cluster weights")
        if sum(units) != (1 << bits):
            raise ValueError(
                f"cluster weights must sum to exactly 1, got {sum(units)}/2^{bits}"
            )
        # Weights on the instance grid iff every kappa_i is a multiple of nu(rho).
        excess = max(0, bits - sum(rho.exponents))
        on_grid = all(u % (1 << excess) == 0 for u in units)
        object.__setattr__(self, "kappa", tuple(u / (1 << bits) for u in units))
        object.__setattr__(self, "kappa_bits", bits)
        object.__setattr__(self, "kappa_units", units)
        object.__setattr__(self, "kappa_on_grid", on_grid)

        if self.sites is not None:
            sites = site_array(self.sites, k, rho.d)
            sites.setflags(write=False)
            object.__setattr__(self, "sites", sites)

        if self.norms is not None:
            if not isinstance(self.norms, NormFamily):
                object.__setattr__(self, "norms", NormFamily(np.asarray(self.norms)))
            if self.norms.k != k or self.norms.d != rho.d:
                raise ValueError(
                    f"norm family shape ({self.norms.k}, {self.norms.d}) does not match "
                    f"instance (k={k}, d={rho.d})"
                )

        eps = float(self.epsilon)
        if not 0.0 < eps <= 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2], got {eps}")
        object.__setattr__(self, "epsilon", eps)

    @property
    def d(self) -> int:
        return self.rho.d


def _stored(a: np.ndarray, dtype) -> np.ndarray:
    """a itself if it is a read-only 1-D array of dtype that owns its data, else a 1-D copy."""
    shared = a.ndim == 1 and a.dtype == dtype and a.flags.owndata and not a.flags.writeable
    return a if shared else a.ravel().astype(dtype)


@dataclass(frozen=True)
class Clustering:
    """Sparse fractional assignment: entries (i, j, xi_ij) with unit column sums.

    Entries are kept sorted by (cluster, point) in read-only arrays; k, n and
    the indices must be integers.  A read-only 1-D int64 (indices) or float64
    (fractions) input that owns its data is shared; others are copied.
    """

    k: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "n", operator.index(self.n))
        rows, cols, vals = (np.asarray(a) for a in (self.rows, self.cols, self.vals))
        if any(a.size and a.dtype.kind not in "iu" for a in (rows, cols)):
            raise TypeError("cluster and point indices must be integers")
        rows, cols = _stored(rows, np.int64), _stored(cols, np.int64)
        vals = _stored(vals, np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= self.k):
            raise ValueError("cluster index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n):
            raise ValueError("point index out of range")
        if vals.size and not (vals.min() > 0.0 and vals.max() <= 1.0):  # NaN fails too
            raise ValueError("assignment fractions must lie in (0, 1]")
        keys = rows * self.n
        keys += cols
        if np.any(keys[1:] <= keys[:-1]):  # strictly increasing: sorted, no duplicates
            order = np.argsort(keys)
            rows, cols, vals = rows[order], cols[order], vals[order]
            if np.any(np.diff(keys[order]) == 0):
                raise ValueError("duplicate (cluster, point) entries")
        del keys  # freed before the n-long column sums: a lower peak on a lift
        # Entries are added in order, as bincount would, but ufunc.at copies no
        # read-only input (bincount copies a lift's cols and vals).
        sums = np.zeros(self.n)
        np.add.at(sums, cols, vals)
        worst = max(sums.max() - 1.0, 1.0 - sums.min()) if self.n else 0.0
        if worst > COLUMN_SUM_TOL:
            raise ValueError(f"column sums deviate from 1 by {worst:.3e}")
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_entries(cls, k: int, n: int, entries) -> "Clustering":
        entries = list(entries)
        return cls(k=k, n=n, rows=[e[0] for e in entries], cols=[e[1] for e in entries],
                   vals=[e[2] for e in entries])

    @classmethod
    def from_labels(cls, k: int, labels) -> "Clustering":
        labels = np.asarray(labels).ravel()
        n = labels.size
        return cls(k=k, n=n, rows=labels, cols=np.arange(n, dtype=np.int64),
                   vals=np.ones(n, dtype=np.float64))

    @classmethod
    def from_dense(cls, matrix) -> "Clustering":
        mat = np.asarray(matrix, dtype=np.float64)
        rows, cols = np.nonzero(mat > 0.0)
        return cls(k=mat.shape[0], n=mat.shape[1], rows=rows, cols=cols,
                   vals=mat[rows, cols])

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self.k, self.n), dtype=np.float64)
        mat[self.rows, self.cols] = self.vals
        return mat

    def fractional_count(self) -> int:
        return int(np.count_nonzero(self.vals < 1.0))

    def cluster_slices(self) -> list[slice]:
        """Per-cluster contiguous slices into the sorted entry arrays."""
        bounds = np.searchsorted(self.rows, np.arange(self.k + 1))
        return [slice(bounds[i], bounds[i + 1]) for i in range(self.k)]


def cluster_weights(C: Clustering, rho) -> np.ndarray:
    """w_i = nu(rho) * sum_j xi_ij; sums to 1 across clusters."""
    rho = as_resolution(rho)
    if C.n != rho.n:
        raise ValueError(f"clustering has {C.n} points, grid has {rho.n}")
    nu = float(voxel_volume(rho))
    return nu * np.bincount(C.rows, weights=C.vals, minlength=C.k)


def cost_sites(C: Clustering, sites, rho, norms: NormFamily | None = None) -> float:
    """Assignment cost sum_ij xi_ij nu ||x_j - s_i||^2_{A_i}.

    Accumulated cluster by cluster in index order (double precision), so the
    result is reproducible bit for bit across runs on the same platform.
    """
    rho = as_resolution(rho)
    if C.n != rho.n:
        raise ValueError(f"clustering has {C.n} points, grid has {rho.n}")
    s = site_array(sites, C.k, rho.d)
    if norms is not None and (norms.k != C.k or norms.d != rho.d):
        raise ValueError("norm family does not match clustering dimensions")
    pts = coords_array(rho)
    nu = float(voxel_volume(rho))
    total = 0.0
    for i, sl in enumerate(C.cluster_slices()):
        if sl.start == sl.stop:
            continue
        mat = None if norms is None else norms.matrices[i:i + 1]
        total += float(C.vals[sl] @ sq_dists(pts[C.cols[sl]], s[i:i + 1], mat)[0])
    return nu * total

