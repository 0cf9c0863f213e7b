"""Location-scale kernel marginals, product kernels, and dilations.

A product kernel is a p-dimensional density built from one shared univariate
marginal.  :class:`Marginal` is the base of every univariate marginal, the
kernels' here and the target zoo's in :mod:`mixapprox.densities`.  Dilating
a product kernel by an integer scale concentrates its mass at the origin,
which is certified numerically by :func:`certify_approximate_identity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import ndtr, ndtri

from .grids import _axis_weights

__all__ = [
    "Marginal",
    "ProductKernel",
    "Dilation",
    "SquaredDilation",
    "IdentityCertification",
    "MARGINAL_NAMES",
    "make_product_kernel",
    "certify_approximate_identity",
    "check_moment_condition",
    "l1_outside_mass",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class Marginal:
    """Univariate density on the line: the one base of the kernel marginals
    and the target-zoo marginals.

    A subclass defines `pdf`, and `ppf` when it keeps the default sampler.
    A kernel marginal, symmetric about 0, also has `tail_mass(delta)` (the
    mass outside [-delta, delta]), `moment(a)` (E|X|^a, math.inf when
    divergent) and `radius(tol)` (an r with tail_mass(r) <= tol).
    """

    name = "abstract"

    def log_pdf(self, x):
        """log pdf, -inf off the support."""
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))

    def sample(self, n, rng):
        """Inverse-cdf draws, ppf(u) for u uniform on [0, 1)."""
        return self.ppf(rng.random(n))


class Gaussian(Marginal):
    name = "gaussian"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x - _LOG_SQRT_2PI

    def tail_mass(self, delta):
        return 2.0 * ndtr(-np.asarray(delta, dtype=float))

    def moment(self, a):
        return float(2.0 ** (a / 2.0) * gamma_fn((a + 1.0) / 2.0) / math.sqrt(math.pi))

    def radius(self, tol):
        return float(-ndtri(min(tol, 1.0) / 2.0))

    def sample(self, n, rng):
        return rng.standard_normal(n)


class Laplace(Marginal):
    name = "laplace"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.exp(-np.abs(x))

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.abs(x) - math.log(2.0)

    def tail_mass(self, delta):
        return np.exp(-np.asarray(delta, dtype=float))

    def moment(self, a):
        return float(gamma_fn(a + 1.0))

    def radius(self, tol):
        return float(-math.log(min(tol, 1.0)))

    def sample(self, n, rng):
        return rng.laplace(0.0, 1.0, size=n)


class _CompactKernel(Marginal):
    """Base for marginals supported on [-half_width, half_width]."""

    half_width = 1.0

    def radius(self, tol):
        return self.half_width


class UniformSymmetric(_CompactKernel):
    """Unit box on [-1/2, 1/2]; boundary points take the midpoint value 1/2.

    The midpoint convention makes trapezoid convolution sums exact whenever
    the jump falls on a lattice node.
    """

    name = "uniform-symmetric"
    half_width = 0.5

    def pdf(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < 0.5, 1.0, np.where(x == 0.5, 0.5, 0.0))

    def tail_mass(self, delta):
        delta = np.asarray(delta, dtype=float)
        return np.clip(1.0 - 2.0 * delta, 0.0, 1.0)

    def moment(self, a):
        return float(0.5 ** a / (a + 1.0))

    def ppf(self, u):
        return np.asarray(u, dtype=float) - 0.5


class Triangular(_CompactKernel):
    name = "triangular"
    half_width = 1.0

    def pdf(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.maximum(1.0 - x, 0.0)

    def tail_mass(self, delta):
        delta = np.asarray(delta, dtype=float)
        return np.clip(1.0 - delta, 0.0, 1.0) ** 2

    def moment(self, a):
        return float(2.0 * (1.0 / (a + 1.0) - 1.0 / (a + 2.0)))

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 0.5, np.sqrt(2.0 * u) - 1.0, 1.0 - np.sqrt(2.0 * (1.0 - u)))


class Epanechnikov(_CompactKernel):
    name = "epanechnikov"
    half_width = 1.0

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.75 * (1.0 - x * x), 0.0)

    def tail_mass(self, delta):
        delta = np.asarray(delta, dtype=float)
        d = np.clip(delta, 0.0, 1.0)
        return 1.0 - 0.5 * (3.0 * d - d ** 3)

    def moment(self, a):
        return float(1.5 * (1.0 / (a + 1.0) - 1.0 / (a + 3.0)))

    def ppf(self, u):
        # Invert the cubic CDF through the trigonometric root.
        u = np.asarray(u, dtype=float)
        return 2.0 * np.sin(np.arcsin(2.0 * u - 1.0) / 3.0)


_MARGINALS = {
    cls.name: cls for cls in (Gaussian, Laplace, UniformSymmetric, Epanechnikov, Triangular)
}
MARGINAL_NAMES = tuple(sorted(_MARGINALS))


@dataclass(frozen=True)
class ProductKernel:
    """p-dimensional density formed as the product of one shared marginal."""

    dim: int
    marginal: Marginal

    def radius(self, tol: float) -> float:
        # Union bound over axes keeps the mass outside the cube below tol.
        return self.marginal.radius(tol / self.dim)


@dataclass(frozen=True)
class Dilation:
    """Rescaled kernel x -> k^p base(k x); mass-preserving for every k."""

    base: ProductKernel
    k: int

    def __post_init__(self):
        if int(self.k) < 1:
            raise ValueError("dilation scale k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    @property
    def dim(self) -> int:
        return self.base.dim

    def axis_pdf(self, offsets):
        return self.k * self.axis_factors([offsets])[0]

    def axis_factors(self, axis_offsets):
        """The density's per-axis factors g(k o), without k, one per offset array."""
        return [self.base.marginal.pdf(self.k * np.asarray(o, dtype=float))
                for o in axis_offsets]

    def lattice_pdf(self, axis_offsets):
        """The density k^p prod_a g(k o_a) on the lattice of one broadcastable
        offset array per axis: the factors multiplied in axis order, then
        k^p, as a point-wise product would, so with its bits, but without
        stacking the offset mesh."""
        out = reduce(np.multiply, self.axis_factors(axis_offsets))
        out *= float(self.k) ** self.dim
        return out

    def radius(self, tol: float) -> float:
        return self.base.radius(tol) / self.k


class SquaredDilation:
    """Pointwise square of a dilated product kernel; still separable.

    Not a density.  Convolving a mixing law with it gives the second moment of
    the component density under that law.
    """

    def __init__(self, dilation: Dilation):
        self._d = dilation
        self.dim = dilation.dim
        self.k = dilation.k

    def axis_pdf(self, offsets):
        return self._d.axis_pdf(offsets) ** 2


def make_product_kernel(marginal_name: str, dim: int) -> ProductKernel:
    if marginal_name not in _MARGINALS:
        raise ValueError(
            f"unknown marginal {marginal_name!r}; expected one of {MARGINAL_NAMES}"
        )
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    return ProductKernel(int(dim), _MARGINALS[marginal_name]())


def _l1_inside_mass(marginal: Marginal, p: int, s: float) -> float:
    """P(|Z_1| + ... + |Z_p| <= s) for iid symmetric marginals."""
    if s <= 0:
        return 0.0
    if p == 1:
        return float(1.0 - marginal.tail_mass(s))
    from scipy import integrate     # imported here: no study needs it at p = 1

    upper = min(s, marginal.radius(1e-14))
    val, _ = integrate.quad(
        lambda z: marginal.pdf(z) * _l1_inside_mass(marginal, p - 1, s - z),
        0.0,
        upper,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=200,
    )
    return float(min(2.0 * val, 1.0))


def l1_outside_mass(dilation: Dilation, delta: float) -> float:
    """Mass of a dilated kernel outside the l1 ball of radius delta."""
    s = float(delta) * dilation.k
    inside = _l1_inside_mass(dilation.base.marginal, dilation.dim, s)
    return float(min(max(1.0 - inside, 0.0), 1.0))


def _axis_mass(marginal: Marginal, k: int) -> float:
    """Measured per-axis mass of the dilated marginal.

    Compactly supported marginals are integrated by trapezoid on a padded
    lattice that places the support edge on an interior node, where the
    midpoint jump convention makes the sum exact.  Full-support marginals use
    Simpson on the truncation interval.
    """
    r, n_points = marginal.radius(1e-12) / k, 4097
    if isinstance(marginal, _CompactKernel):
        h = r / (n_points // 2)
        m = n_points // 2 + 8       # 8 padding nodes past each edge
        xs, rule = h * np.arange(-m, m + 1), "trapezoid"
    else:
        xs, rule = np.linspace(-r, r, n_points), "simpson"
        h = xs[1] - xs[0]
    vals = k * marginal.pdf(k * xs)
    return float(np.sum(_axis_weights(xs.size, h, rule) * vals))


@dataclass(frozen=True)
class IdentityCertification:
    """Mass, positivity, and concentration checks for a dilation family."""

    ks: tuple
    masses: tuple                 # measured mass per k
    outside: dict                 # delta -> tuple of outside-l1-ball masses per k
    mass_ok: bool
    nonnegative_ok: bool
    concentration_ok: bool        # nonincreasing along ks, final < 0.01, per delta
    passed: bool


def certify_approximate_identity(base: ProductKernel, deltas, ks) -> IdentityCertification:
    """Certify that the dilations of a product kernel by each scale in `ks`
    concentrate at the origin."""
    deltas = tuple(float(d) for d in deltas)
    ks = tuple(int(k) for k in ks)
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    if list(ks) != sorted(ks) or len(set(ks)) != len(ks):
        raise ValueError("ks must be strictly increasing")

    masses = tuple(_axis_mass(base.marginal, k) ** base.dim for k in ks)
    mass_ok = all(abs(m - 1.0) <= 1e-6 for m in masses)

    probe = np.linspace(-base.marginal.radius(1e-9), base.marginal.radius(1e-9), 33)
    lattice = np.ix_(*([probe] * base.dim))
    nonneg = not any(np.min(Dilation(base, k).lattice_pdf(lattice)) < 0 for k in ks)

    outside = {}
    concentration_ok = True
    for d in deltas:
        seq = tuple(l1_outside_mass(Dilation(base, k), d) for k in ks)
        outside[d] = seq
        if any(b > a + 1e-12 for a, b in zip(seq, seq[1:])) or seq[-1] >= 0.01:
            concentration_ok = False

    return IdentityCertification(
        ks=ks,
        masses=masses,
        outside=outside,
        mass_ok=mass_ok,
        nonnegative_ok=nonneg,
        concentration_ok=concentration_ok,
        passed=mass_ok and nonneg and concentration_ok,
    )


def check_moment_condition(kernel: ProductKernel, a: float) -> float:
    """Absolute l1-moment of order a of the unit-scale kernel, by quadrature.

    Returns math.inf when the marginal moment diverges.  Independent of the
    closed-form `marginal.moment` map, which serves as its oracle in tests.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("moment exponent must lie in (0, 1]")
    if not math.isfinite(kernel.marginal.moment(a)):
        return math.inf
    from scipy import integrate     # imported here, off the start-up path

    m = kernel.marginal
    r = m.radius(1e-13)
    if kernel.dim == 1:
        val, _ = integrate.quad(lambda x: abs(x) ** a * m.pdf(x), -r, r,
                                points=[0.0], epsabs=1e-12, limit=200)
        return float(val)
    if kernel.dim == 2:
        val, _ = integrate.dblquad(
            lambda y, x: (x + y) ** a * m.pdf(x) * m.pdf(y),
            0.0, r, 0.0, r, epsabs=1e-10,
        )
        return float(4.0 * val)
    # dim 3: tensor Simpson on the positive octant, exploiting symmetry.
    n = 129
    xs = np.linspace(0.0, r, n)
    px = m.pdf(xs) * _axis_weights(n, xs[1] - xs[0], "simpson")
    s = xs[:, None, None] + xs[None, :, None] + xs[None, None, :]
    vals = s ** a * (px[:, None, None] * px[None, :, None] * px[None, None, :])
    return float(8.0 * vals.sum())
