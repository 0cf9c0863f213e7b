"""Distances and divergences between densities on shared grids.

All quantities are quadrature evaluations on a common lattice.  KL integration
is restricted to nodes where the first argument is positive; a zero of the
second argument at such a node is an absolute-continuity violation and raises,
it is never floored away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    CHECK_SLACK,
    GridCompatibilityError,
    GridFunction,
    _lq_norm_values,
    sample_on_grid,
)

__all__ = [
    "AbsoluteContinuityError",
    "Lemma13Report",
    "lq_norm",
    "kl_divergence",
    "kl_l2_bound_check",
]


class AbsoluteContinuityError(ValueError):
    """The approximant vanishes where the target has mass; KL is undefined."""


def lq_norm(h: GridFunction, q) -> float:
    """Quadrature Lq norm; q = inf gives the max over nodes."""
    if not np.all(np.isfinite(h.values)):
        raise ValueError("grid function contains non-finite values")
    return _lq_norm_values(h.grid, h.values, q)


def kl_divergence(f: GridFunction, g: GridFunction) -> float:
    """Divergence sum of f log(f/g) over nodes where f > 0.

    Small negative quadrature residues (within -1e-9) clip to zero.
    """
    if not f.grid.same_lattice(g.grid):
        raise GridCompatibilityError("densities live on different grids")
    fv = f.values
    gv = g.values
    mask = fv > 0.0
    if np.any(gv[mask] < 1e-300):
        raise AbsoluteContinuityError(
            "approximant vanishes on a node where the target is positive"
        )
    integrand = np.zeros_like(fv)
    integrand[mask] = fv[mask] * (np.log(fv[mask]) - np.log(gv[mask]))
    value = f.grid.integrate(integrand)
    if -1e-9 <= value < 0.0:
        return 0.0
    return value


@dataclass(frozen=True)
class Lemma13Report:
    """KL versus the squared-L2-over-beta bound for lower-bounded densities."""

    kl: float
    l2_squared: float
    beta: float
    rhs: float
    passed: bool


def kl_l2_bound_check(f, g: GridFunction) -> Lemma13Report:
    """Check KL(f, g) <= ||f - g||_2^2 / beta on g's grid.

    `f` is a TargetDensity with a positive certified lower bound; `g` must be
    bounded below by a positive floor on the support.  beta is the smaller of
    the two lower bounds, since the inequality needs both densities in the
    lower-bounded class.
    """
    if f.beta_lower <= 0:
        raise ValueError("target density is not bounded below on its support")
    grid = g.grid
    if not grid.box.contains_box(f.support):
        raise ValueError("grid does not cover the target support")
    f_gf = sample_on_grid(f, grid)
    inside = f.support.grid_mask(grid)
    g_min = float(g.values[inside].min())
    if g_min <= 0:
        raise ValueError("approximant is not bounded below on the support")
    beta = min(f.beta_lower, g_min)
    kl = kl_divergence(f_gf, g)
    l2sq = lq_norm(f_gf - g, 2) ** 2
    rhs = l2sq / beta
    return Lemma13Report(kl, l2sq, beta, rhs, bool(kl <= rhs * (1.0 + CHECK_SLACK)))
