"""Target densities on compact boxes with certified bounds and exact samplers.

The zoo ships five product-form families spanning flat, smooth, and kinked
behaviour.  Every member carries analytically derived support bounds and a
Lipschitz certificate; samplers are exact (inverse CDF per coordinate, or
component draws for the bimodal family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .grids import SupportBox, TensorGrid, quadrature_integrate, sample_on_grid

__all__ = [
    "TargetDensity",
    "F5MembershipReport",
    "ZOO_NAMES",
    "make_target",
    "truncated_normal_density",
    "verify_f5_membership",
    "estimate_lipschitz",
    "default_points_per_axis",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


class _UnivariateBase:
    """Univariate building block: exact pdf, exact sampler, certified bounds."""

    name = "abstract"
    lo = 0.0
    hi = 1.0
    min_value = 0.0
    max_value = 1.0
    slope_bound = 0.0

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        """Inverse cdf by 80 bisection steps on [0, 1]; exact forms override it."""
        u = np.asarray(u, dtype=float)
        lo = np.zeros_like(u)
        hi = np.ones_like(u)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def sample(self, n, rng):
        return self.ppf(rng.random(n))


class _Uniform01(_UnivariateBase):
    name = "uniform-box"
    min_value = 1.0
    max_value = 1.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)

    def ppf(self, u):
        return np.asarray(u, dtype=float)


class _ClippedCosine(_UnivariateBase):
    """One period of a clipped cosine wave, 1 - cos(2 pi x) on [0, 1].

    Zero at both edges, so the zero extension is continuous on the whole line.
    """

    name = "clipped-cosine"
    min_value = 0.0
    max_value = 2.0
    slope_bound = 2.0 * math.pi

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, 1.0 - np.cos(2.0 * math.pi * x), 0.0)

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return x - np.sin(2.0 * math.pi * x) / (2.0 * math.pi)


class _Tent(_UnivariateBase):
    """Piecewise-linear tent 2 - |4x - 2| on [0, 1]; slope 4, zero at the edges."""

    name = "tent"
    min_value = 0.0
    max_value = 2.0
    slope_bound = 4.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, 2.0 - np.abs(4.0 * x - 2.0), 0.0)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))


class _TruncatedNormal(_UnivariateBase):
    """Normal(mu, sigma^2) restricted to [lo, hi] and renormalized."""

    def __init__(self, lo=-1.0, hi=1.0, mu=0.0, sigma=1.0, name="truncated-normal"):
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.a = (self.lo - self.mu) / self.sigma
        self.b = (self.hi - self.mu) / self.sigma
        self.z = float(ndtr(self.b) - ndtr(self.a))
        self.cdf_a = float(ndtr(self.a))
        # Extremes of the density over the closed interval.
        ends = _phi(np.array([self.a, self.b])) / (self.sigma * self.z)
        self.min_value = float(ends.min())
        peak = min(max(0.0, self.a), self.b)  # clamp of the mode into [a, b]
        self.max_value = float(_phi(peak) / (self.sigma * self.z))
        # sup |f'| = max |u| phi(u) / (sigma^2 z) over u in [a, b]; |u| phi(|u|)
        # increases to u = 1 and decreases beyond, so check the clamp and ends.
        cands = [abs(self.a), abs(self.b)]
        if self.a <= -1.0 <= self.b or self.a <= 1.0 <= self.b:
            cands.append(1.0)
        self.slope_bound = float(
            max(t * _phi(t) for t in cands) / (self.sigma ** 2 * self.z)
        )

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        u = (x - self.mu) / self.sigma
        return np.where(inside, _phi(u) / (self.sigma * self.z), 0.0)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return self.mu + self.sigma * ndtri(self.cdf_a + u * self.z)


class _TwoTruncatedNormals(_UnivariateBase):
    """Equal mixture of two normals truncated to [0, 1]; bimodal, bounded below.

    Default means 0.3 and 0.7 with sigma 0.12.  Both components increase on
    [0, 0.3] and the central dip at 0.5 stays far above the edge values, so
    the minimum over [0, 1] is attained at the endpoints (checked in tests
    against a dense grid).
    """

    name = "two-truncated-normals"

    def __init__(self, mus=(0.3, 0.7), sigma=0.12):
        self.components = tuple(
            _TruncatedNormal(0.0, 1.0, mu, sigma, name=f"tn-{mu}") for mu in mus
        )
        edge = self.pdf(np.array([0.0, 1.0]))
        self.min_value = float(edge.min())
        self.max_value = float(
            0.5 * sum(c.max_value for c in self.components)
        )
        self.slope_bound = float(
            0.5 * sum(c.slope_bound for c in self.components)
        )

    lo = 0.0
    hi = 1.0

    def pdf(self, x):
        return 0.5 * (self.components[0].pdf(x) + self.components[1].pdf(x))

    def sample(self, n, rng):
        pick = rng.random(n) < 0.5
        draws = np.stack([c.ppf(rng.random(n)) for c in self.components])
        return np.where(pick, draws[0], draws[1])


_ZOO = {
    "uniform-box": _Uniform01,
    "clipped-cosine": _ClippedCosine,
    "truncated-normal": _TruncatedNormal,
    "tent": _Tent,
    "two-truncated-normals": _TwoTruncatedNormals,
}
ZOO_NAMES = tuple(sorted(_ZOO))

_DEFAULT_POINTS = {1: 2049, 2: 257, 3: 65}


def default_points_per_axis(dim: int) -> int:
    return _DEFAULT_POINTS[dim]


@dataclass(frozen=True)
class TargetDensity:
    """Density on a compact box with certified bounds and an exact sampler.

    `beta_lower` may be zero for members that vanish on the support boundary
    (tent, clipped-cosine); those are valid test targets but not members of
    the lower-bounded class that the estimation results require.
    """

    name: str
    dim: int
    support: SupportBox
    beta_lower: float
    beta_upper: float
    lipschitz_exponent: float
    lipschitz_constant: float
    evaluator: object          # callable, points (..., dim) -> values
    sampler: object            # callable, (rng, n) -> points (n, dim)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
            x = x[..., None]
        return self.evaluator(x)

    def sample(self, n: int, rng) -> np.ndarray:
        return self.sampler(rng, int(n))


def _product_density(name: str, base: _UnivariateBase, dim: int) -> TargetDensity:
    support = SupportBox((base.lo,) * dim, (base.hi,) * dim)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != dim:
            raise ValueError(f"points must have last axis {dim}")
        return np.prod(base.pdf(x), axis=-1)

    def sampler(rng, n):
        cols = [base.sample(n, rng) for _ in range(dim)]
        return np.stack(cols, axis=-1)

    lip = dim * base.slope_bound * base.max_value ** (dim - 1)
    return TargetDensity(
        name=name,
        dim=dim,
        support=support,
        beta_lower=base.min_value ** dim if base.min_value > 0 else 0.0,
        beta_upper=base.max_value ** dim,
        lipschitz_exponent=1.0,
        lipschitz_constant=lip,
        evaluator=evaluator,
        sampler=sampler,
    )


def make_target(name: str, dim: int) -> TargetDensity:
    """Build a zoo density by identifier; dim is capped at 3 (tensor-grid cost)."""
    if name not in _ZOO:
        raise ValueError(f"unknown density {name!r}; expected one of {ZOO_NAMES}")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3 (tensor-grid cost guard)")
    return _product_density(name, _ZOO[name](), dim)


def truncated_normal_density(lo: float, hi: float, mu: float = 0.0,
                             sigma: float = 1.0, dim: int = 1) -> TargetDensity:
    """General truncated-normal product density on [lo, hi]^dim."""
    base = _TruncatedNormal(lo, hi, mu, sigma)
    return _product_density("truncated-normal", base, dim)


@dataclass(frozen=True)
class F5MembershipReport:
    """Measured lower bound and mass versus the declared certificates."""

    name: str
    measured_min: float
    measured_mass: float
    beta_declared: float
    mass_ok: bool
    lower_bound_ok: bool
    in_class: bool
    passed: bool


def verify_f5_membership(f: TargetDensity, grid: TensorGrid,
                         mass_tol: float = 1e-6) -> F5MembershipReport:
    """Check the declared lower bound and unit mass of a target on a grid."""
    if not grid.box.contains_box(f.support):
        raise ValueError("grid does not cover the density support")
    gf = sample_on_grid(f.pdf, grid)
    mass = quadrature_integrate(gf)
    inside = f.support.contains_points(grid.mesh())
    measured_min = float(gf.values[inside].min())
    mass_ok = abs(mass - 1.0) <= mass_tol
    lower_ok = measured_min >= f.beta_lower - 1e-12
    return F5MembershipReport(
        name=f.name,
        measured_min=measured_min,
        measured_mass=mass,
        beta_declared=f.beta_lower,
        mass_ok=mass_ok,
        lower_bound_ok=lower_ok,
        in_class=bool(f.beta_lower > 0 and mass_ok and lower_ok),
        passed=bool(mass_ok and lower_ok),
    )


def estimate_lipschitz(f: TargetDensity, grid: TensorGrid, a: float) -> float:
    """Max adjacent-pair quotient |f(x)-f(y)| / ||x-y||_inf^a over the grid.

    Only pairs with both endpoints inside the support count; the zero
    extension itself is not part of the on-support Lipschitz certificate.
    """
    if grid.points_per_axis < 64:
        raise ValueError("need at least 64 points per axis")
    if not 0.0 < a <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    vals = sample_on_grid(f.pdf, grid).values
    inside = f.support.contains_points(grid.mesh())
    best = 0.0
    for axis in range(grid.dim):
        h = grid.spacing[axis]
        sl_lo = [slice(None)] * grid.dim
        sl_hi = [slice(None)] * grid.dim
        sl_lo[axis] = slice(None, -1)
        sl_hi[axis] = slice(1, None)
        ok = inside[tuple(sl_lo)] & inside[tuple(sl_hi)]
        if not np.any(ok):
            continue
        diffs = np.abs(vals[tuple(sl_hi)] - vals[tuple(sl_lo)])[ok]
        best = max(best, float(diffs.max()) / h ** a)
    return best
