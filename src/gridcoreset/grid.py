"""Implicit dyadic grids on [0,1]^d: coordinates, merge maps, batch errors.

A resolution vector rho = (rho_1, ..., rho_d) defines the point set X(rho)
whose points are the centers of the 2^{rho_1} x ... x 2^{rho_d} uniform
voxels of the unit cube.  Points are never materialized unless a caller
asks for them (coords_array); merge maps work on row-major flat indices.

All coordinates, volumes and batch errors are dyadic rationals.  Their
float64 representations are exact for every exponent this package accepts,
so equality assertions downstream are legitimate.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Exponent cap keeps every dyadic quantity (coordinates, volumes, batch
# errors) exactly representable in float64 and all index math in int64.
MAX_AXIS_EXPONENT = 20
MAX_TOTAL_EXPONENT = 48


def as_int(value) -> int:
    """operator.index(value), except that a bool (a JSON true, say) raises TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class Resolution:
    """Per-axis integer exponents (rho_1, ..., rho_d); axis t has 2^{rho_t} points."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(as_int(e) for e in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) < 1:
            raise ValueError("resolution needs at least one axis")
        for e in exps:
            if e < 0:
                raise ValueError(f"axis exponent must be >= 0, got {e}")
            if e > MAX_AXIS_EXPONENT:
                raise ValueError(f"axis exponent {e} exceeds cap {MAX_AXIS_EXPONENT}")
        if sum(exps) > MAX_TOTAL_EXPONENT:
            raise ValueError(f"total exponent {sum(exps)} exceeds cap {MAX_TOTAL_EXPONENT}")

    @property
    def d(self) -> int:
        return len(self.exponents)

    @property
    def axis_points(self) -> tuple[int, ...]:
        return tuple(1 << e for e in self.exponents)

    @property
    def n(self) -> int:
        return 1 << sum(self.exponents)

    def __le__(self, other: "Resolution") -> bool:
        # componentwise comparison; used for "tau <= rho" preconditions
        if self.d != other.d:
            raise ValueError("resolutions of different dimension are incomparable")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __str__(self) -> str:
        return "x".join(str(e) for e in self.exponents)


def as_resolution(value) -> Resolution:
    """Coerce an int, iterable of ints, or Resolution to a Resolution."""
    if isinstance(value, Resolution):
        return value
    if isinstance(value, (int, np.integer)):
        return Resolution((value,))
    return Resolution(tuple(value))


def _check_tau(rho: Resolution, tau: Resolution) -> None:
    if not tau <= rho:
        raise ValueError(f"tau={tau.exponents} is not componentwise <= rho={rho.exponents}")


def voxel_volume(rho) -> Fraction:
    """Exact voxel volume nu(rho) = prod_t 2^{-rho_t}."""
    rho = as_resolution(rho)
    return Fraction(1, 1 << sum(rho.exponents))


def coords_array(rho) -> np.ndarray:
    """All n grid points as a C-contiguous (n, d) float64 array in row-major flat order;
    axis t holds the centers (j + 1/2) / 2^rho_t, exact in float64."""
    rho = as_resolution(rho)
    out = np.empty((*rho.axis_points, rho.d))
    for t, e in enumerate(rho.exponents):
        out[..., t] = ((np.arange(1 << e) + 0.5) / (1 << e)).reshape((-1,) + (1,) * (rho.d - 1 - t))
    return out.reshape(rho.n, rho.d)


def merge_map(rho, tau) -> np.ndarray:
    """Flat fine index -> flat coarse index for all n points, vectorized."""
    rho = as_resolution(rho)
    tau = as_resolution(tau)
    _check_tau(rho, tau)
    coarse = np.arange(tau.n, dtype=np.int64).reshape(tau.axis_points)
    for t, (re, te) in enumerate(zip(rho.exponents, tau.exponents)):
        coarse = np.repeat(coarse, 1 << (re - te), axis=t)
    return coarse.ravel()


def batch_error_exact(rho, tau) -> Fraction:
    """Batch error V(tau) as an exact rational: (1/12) nu(tau) sum_t (4^{-tau_t} - 4^{-rho_t})."""
    rho = as_resolution(rho)
    tau = as_resolution(tau)
    _check_tau(rho, tau)
    axis_sum = sum(
        (Fraction(1, 1 << (2 * te)) - Fraction(1, 1 << (2 * re)))
        for re, te in zip(rho.exponents, tau.exponents)
    )
    return Fraction(1, 12) * voxel_volume(tau) * axis_sum


def batch_error(rho, tau) -> float:
    """Batch error V(tau); identical for every batch, zero iff tau = rho.

    The rational value has a power-of-two denominator (4^m - 1 is divisible
    by 3), so the float conversion is exact.
    """
    return float(batch_error_exact(rho, tau))
