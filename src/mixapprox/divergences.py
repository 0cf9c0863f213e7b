"""Distances and divergences between densities on shared grids.

All quantities are quadrature evaluations on a common lattice.  KL integration
is restricted to nodes where the first argument is positive; a zero of the
second argument at such a node is an absolute-continuity violation and raises,
it is never floored away.
"""

from __future__ import annotations

import numpy as np

from .grids import GridCompatibilityError, GridFunction

__all__ = [
    "AbsoluteContinuityError",
    "lq_norm",
    "kl_divergence",
]


class AbsoluteContinuityError(ValueError):
    """The approximant vanishes where the target has mass; KL is undefined."""


def lq_norm(h: GridFunction, q) -> float:
    """Quadrature Lq norm; q = inf gives the max over nodes."""
    if not np.all(np.isfinite(h.values)):
        raise ValueError("grid function contains non-finite values")
    if q == np.inf:
        return float(np.max(np.abs(h.values)))
    q = float(q)
    if q < 1:
        raise ValueError("norm order must satisfy q >= 1")
    return float(h.grid.integrate(np.abs(h.values) ** q) ** (1.0 / q))


def kl_divergence(f: GridFunction, g: GridFunction) -> float:
    """Divergence sum of f log(f/g) over nodes where f > 0.

    Small negative quadrature residues (within -1e-9) clip to zero.
    """
    if not f.grid.same_lattice(g.grid):
        raise GridCompatibilityError("densities live on different grids")
    mask = f.values > 0.0
    gv = g.values[mask]
    if np.any(gv < 1e-300):
        raise AbsoluteContinuityError(
            "approximant vanishes on a node where the target is positive"
        )
    return _kl_sum(f, mask, np.log(gv))


def _kl_sum(f: GridFunction, mask: np.ndarray, log_g: np.ndarray) -> float:
    """Quadrature of f (log f - log g) over the nodes in `mask` (those where
    f > 0), given log g there in mask order; -1e-9 <= value < 0 gives 0."""
    fv = f.values
    integrand = np.zeros_like(fv)
    integrand[mask] = fv[mask] * (np.log(fv[mask]) - log_g)
    value = f.grid.integrate(integrand)
    if -1e-9 <= value < 0.0:
        return 0.0
    return value
