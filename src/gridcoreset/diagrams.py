"""Power diagrams certifying optimality of weight-constrained assignments.

An optimal transportation solution leaves behind cluster potentials mu_i;
with cell offsets gamma_i = -mu_i, every support point of cluster i
minimizes the power distance ||x - s_i||^2 + gamma_i.  Checking that is a
direct optimality certificate independent of the solver's internals.
Offsets only matter up to a common additive constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import as_resolution, coords_array
from .model import Clustering, site_array, sq_dists

# Power differences below this times the point's largest power (at least 1) are ties.
BOUNDARY_TOL = 1e-9


def _boundary_tol(pw: np.ndarray) -> np.ndarray:
    return BOUNDARY_TOL * np.maximum(1.0, np.abs(pw).max(axis=0, initial=0.0))


@dataclass(frozen=True)
class PowerDiagram:
    """Sites plus additive cell offsets; cell i collects the points where
    ||x - s_i||^2 + gamma_i is minimal."""

    sites: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=np.float64).ravel()
        if not np.all(np.isfinite(gamma)):
            raise ValueError("offsets must be finite")
        # One site per offset; a 1-D site vector holds k sites on a line.
        d = np.shape(self.sites)[1] if np.ndim(self.sites) == 2 else 1
        sites = site_array(self.sites, gamma.size, d)
        sites.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "gamma", gamma)

    @property
    def k(self) -> int:
        return self.sites.shape[0]

    def powers(self, points) -> np.ndarray:
        """Power distances of an (m, d) point array as a (k, m) matrix."""
        out = sq_dists(np.asarray(points, dtype=np.float64), self.sites)
        out += self.gamma[:, None]
        return out


def from_duals(sites, duals) -> PowerDiagram:
    """Diagram induced by cluster potentials: gamma_i = -mu_i."""
    return PowerDiagram(sites=sites, gamma=-np.asarray(duals, dtype=np.float64))


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    worst_violation: float


def check_compatibility(C: Clustering, diagram: PowerDiagram, rho) -> CompatibilityReport:
    """Whether every support point of every cluster lies in that cluster's cell.

    The violation at a support point is its power distance to its own site
    minus the minimum over all sites; compatible means every violation is
    at most that point's _boundary_tol, so a point whose nearest cell beats
    every other by more than that lies wholly in that cell.
    """
    rho = as_resolution(rho)
    if C.n != rho.n:
        raise ValueError(f"clustering has {C.n} points, grid has {rho.n}")
    if diagram.k != C.k:
        raise ValueError(f"diagram has {diagram.k} cells, clustering has {C.k} clusters")
    pw = diagram.powers(coords_array(rho))
    excess = pw[C.rows, C.cols] - pw.min(axis=0)[C.cols]
    return CompatibilityReport(compatible=bool(np.all(excess <= _boundary_tol(pw)[C.cols])),
                               worst_violation=float(np.max(excess, initial=0.0)))
