"""Resolution coresets for weight-constrained least-squares clustering.

Points live on implicit dyadic grids in the unit cube; the assignment
problem is solved exactly as a transportation LP, coarse grids act as
coresets with an exact additive offset, and power diagrams certify
optimality.  See the README for the command-line interface.
"""

from .grid import (Resolution, as_resolution, batch_error, batch_error_exact,
                   coords_array, merge_map, voxel_volume)
from .model import (Clustering, Instance, NormFamily, cluster_weights, cost_sites,
                    site_array, sq_dists)
from .solver import SolveResult, TransportProblem, build_transport, solve_assignment
from .coreset import (CoarseSolve, CoresetPlan, SizeReport, coarsening_exponent,
                      delta_offset_exact, extend, make_plan, size_report, solve_coarse,
                      transfer_bound, verify_property_a, verify_property_b)
from .diagrams import CompatibilityReport, PowerDiagram, check_compatibility, from_duals
from .oracle import (BruteForceResult, Opt1DResult, brute_force_constrained,
                     lower_bound_1d, opt1d_closed, opt1d_dp)

__version__ = "0.1.0"

__all__ = [
    "Resolution", "as_resolution", "batch_error", "batch_error_exact",
    "coords_array", "merge_map", "voxel_volume",
    "Clustering", "Instance", "NormFamily", "cluster_weights", "cost_sites",
    "site_array", "sq_dists",
    "SolveResult", "TransportProblem", "build_transport", "solve_assignment",
    "CoarseSolve", "CoresetPlan", "SizeReport", "coarsening_exponent",
    "delta_offset_exact", "extend", "make_plan", "size_report",
    "solve_coarse", "transfer_bound", "verify_property_a", "verify_property_b",
    "CompatibilityReport", "PowerDiagram", "check_compatibility", "from_duals",
    "BruteForceResult", "Opt1DResult", "brute_force_constrained",
    "lower_bound_1d", "opt1d_closed", "opt1d_dp",
    "__version__",
]
