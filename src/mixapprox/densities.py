"""Target densities on compact boxes: one univariate marginal over `dim` axes.

The zoo ships five marginals spanning flat, smooth, and kinked behaviour, each
with an exact pdf and sampler and certified extremes; a target's
support and bounds are derived from its marginal's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import SupportBox, cube
from .kernels import Gaussian, Marginal, _ndtr, _ndtri

__all__ = [
    "TargetDensity",
    "ZOO_NAMES",
    "make_target",
]

_GAUSS = Gaussian()


class _TargetMarginal(Marginal):
    """A zoo marginal, on [lo, hi]; it defines `ppf` or its own `sample`."""

    def sample(self, n, rng):
        """Inverse-cdf draws, ppf(u) for u uniform on [0, 1)."""
        return self.ppf(rng.random(n))


class _Uniform01(_TargetMarginal):
    name = "uniform-box"
    lo, hi = 0.0, 1.0
    min_value = max_value = 1.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)

    def ppf(self, u):
        return np.asarray(u, dtype=float)


class _ClippedCosine(_TargetMarginal):
    """One period of a clipped cosine wave, 1 - cos(2 pi x) on [0, 1].

    Zero at both edges, so the zero extension is continuous on the whole line.
    """

    name = "clipped-cosine"
    lo, hi = 0.0, 1.0
    min_value = 0.0
    max_value = 2.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, 1.0 - np.cos(2.0 * math.pi * x), 0.0)

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return x - np.sin(2.0 * math.pi * x) / (2.0 * math.pi)

    def ppf(self, u):
        """Inverse cdf by 80 bisection steps on [0, 1]."""
        u = np.asarray(u, dtype=float)
        lo = np.zeros_like(u)
        hi = np.ones_like(u)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


class _Tent(_TargetMarginal):
    """Piecewise-linear tent 2 - |4x - 2| on [0, 1]; slope 4, zero at the edges."""

    name = "tent"
    lo, hi = 0.0, 1.0
    min_value = 0.0
    max_value = 2.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, 2.0 - np.abs(4.0 * x - 2.0), 0.0)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))


class _TruncatedNormal(_TargetMarginal):
    """Normal(mu, sigma^2) restricted to [lo, hi] and renormalized."""

    def __init__(self, lo=-1.0, hi=1.0, mu=0.0, sigma=1.0, name="truncated-normal"):
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.a = (self.lo - self.mu) / self.sigma
        self.b = (self.hi - self.mu) / self.sigma
        self.z = float(_ndtr(self.b) - _ndtr(self.a))
        self.cdf_a = float(_ndtr(self.a))
        # Extremes of the density over the closed interval.
        ends = _GAUSS.pdf(np.array([self.a, self.b])) / (self.sigma * self.z)
        self.min_value = float(ends.min())
        peak = min(max(0.0, self.a), self.b)  # clamp of the mode into [a, b]
        self.max_value = float(_GAUSS.pdf(peak) / (self.sigma * self.z))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        u = (x - self.mu) / self.sigma
        return np.where(inside, _GAUSS.pdf(u) / (self.sigma * self.z), 0.0)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return self.mu + self.sigma * _ndtri(self.cdf_a + u * self.z)


class _TwoTruncatedNormals(_TargetMarginal):
    """Equal mixture of two normals truncated to [0, 1]; bimodal, bounded below.

    Default means 0.3 and 0.7 with sigma 0.12.  Both components increase on
    [0, 0.3] and the central dip at 0.5 stays far above the edge values, so
    the minimum over [0, 1] is attained at the endpoints (checked in tests
    against a dense grid).
    """

    name = "two-truncated-normals"
    lo, hi = 0.0, 1.0

    def __init__(self, mus=(0.3, 0.7), sigma=0.12):
        self.components = tuple(
            _TruncatedNormal(0.0, 1.0, mu, sigma, name=f"tn-{mu}") for mu in mus
        )
        edge = self.pdf(np.array([0.0, 1.0]))
        self.min_value = float(edge.min())
        self.max_value = float(
            0.5 * sum(c.max_value for c in self.components)
        )

    def pdf(self, x):
        return 0.5 * (self.components[0].pdf(x) + self.components[1].pdf(x))

    def sample(self, n, rng):
        # Both components' uniforms are drawn, in order, so the stream
        # does not depend on pick; each draw inverts only its own.
        pick = rng.random(n) < 0.5
        u0, u1 = rng.random(n), rng.random(n)
        out = np.empty(n)
        out[pick] = self.components[0].ppf(u0[pick])
        out[~pick] = self.components[1].ppf(u1[~pick])
        return out


_ZOO = {
    "uniform-box": _Uniform01,
    "clipped-cosine": _ClippedCosine,
    "truncated-normal": _TruncatedNormal,
    "tent": _Tent,
    "two-truncated-normals": _TwoTruncatedNormals,
}
ZOO_NAMES = tuple(sorted(_ZOO))

@dataclass(frozen=True)
class TargetDensity:
    """Product density f(x) = prod_a g(x_a) of one marginal g over `dim` axes.

    `beta_lower` is zero for members that vanish on the support boundary
    (tent, clipped-cosine); those are valid test targets but not members of
    the lower-bounded class that the estimation results require.
    """

    marginal: Marginal
    dim: int

    @property
    def name(self) -> str:
        return self.marginal.name

    @property
    def support(self) -> SupportBox:
        return cube(self.marginal.lo, self.marginal.hi, self.dim)

    @property
    def beta_lower(self) -> float:
        return self.marginal.min_value ** self.dim

    @property
    def beta_upper(self) -> float:
        return self.marginal.max_value ** self.dim

    def sample(self, n: int, rng) -> np.ndarray:
        """n points shaped (n, dim): one marginal draw per axis, in axis order."""
        return np.stack([self.marginal.sample(int(n), rng) for _ in range(self.dim)], axis=-1)


def make_target(name: str, dim: int) -> TargetDensity:
    """Build a zoo density by identifier; dim is capped at 3 (tensor-grid cost)."""
    if name not in _ZOO:
        raise ValueError(f"unknown density {name!r}; expected one of {ZOO_NAMES}")
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3 (tensor-grid cost guard)")
    return TargetDensity(_ZOO[name](), dim)
