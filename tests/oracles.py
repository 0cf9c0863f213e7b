"""Check-only oracles: what the tests compare the package against and no
study runs.

Point-wise densities on stacked points, the node mesh, box membership,
quadrature mass, the difference of two grid functions, the n-D direct
quadrature sum that both convolution paths are checked against, the full
linear convolution by scipy.fft that the FFT paths keep the bits of, lattice
convolution with the Young inequality checks, the kernel marginals' cdfs,
samplers and closed-form l1 tails, the KL-versus-L2 check for
lower-bounded densities, class membership and Lipschitz estimates of
targets, a seedable mixture sampler, the mean lattice of a mixture
dictionary, and grid-free closed forms for the Gaussian kernel.  A method
of a package class appears here as a function of the instance.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import fft as sp_fft
from scipy.special import ndtr

from mixapprox.bounds import CHECK_SLACK
from mixapprox.densities import (
    TargetDensity,
    _ClippedCosine,
    _Tent,
    _TruncatedNormal,
    _TwoTruncatedNormals,
    _Uniform01,
)
from mixapprox.divergences import kl_divergence, lq_norm
from mixapprox.grids import (
    _BOX_TOL,
    GridCompatibilityError,
    GridFunction,
    SupportBox,
    _clip_tiny_negatives,
    _kernel_axis_offsets,
    _toeplitz,
    make_grid,
    sample_on_grid,
)


# --- grids ------------------------------------------------------------------

def grid_mesh(grid) -> np.ndarray:
    """Node coordinates shaped (*shape, dim), the oracle of per-axis forms."""
    grids = np.meshgrid(*grid.nodes, indexing="ij")
    return np.stack(grids, axis=-1)


def box_contains_points(box: SupportBox, x, tol: float = _BOX_TOL) -> np.ndarray:
    """Boolean mask over points shaped (..., dim); the oracle of grid_mask."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != box.dim:
        raise ValueError(f"points have dimension {x.shape[-1]}, box has {box.dim}")
    lo = np.asarray(box.lower) - tol
    hi = np.asarray(box.upper) + tol
    return np.all((x >= lo) & (x <= hi), axis=-1)


def box_contains_box(box: SupportBox, other: SupportBox) -> bool:
    return all(
        a <= c + _BOX_TOL and d <= b + _BOX_TOL
        for a, b, c, d in zip(box.lower, box.upper, other.lower, other.upper)
    )


def grid_mass(gf: GridFunction) -> float:
    return gf.grid.integrate(gf.values)


def grid_difference(gf: GridFunction, other) -> GridFunction:
    """gf minus another grid function on the same lattice, or minus an array."""
    if isinstance(other, GridFunction):
        if not gf.grid.same_lattice(other.grid):
            raise GridCompatibilityError("grid functions live on different lattices")
        other = other.values
    return GridFunction(gf.grid, gf.values - other)


def quadrature_integrate(h: GridFunction) -> float:
    """Tensor-product quadrature of a grid function; rejects non-finite values."""
    if not np.all(np.isfinite(h.values)):
        raise ValueError("grid function contains non-finite values")
    return h.grid.integrate(h.values)


def direct_lattice_sum(f: GridFunction, kernel, out_grid) -> GridFunction:
    """The direct quadrature sum of a grid density convolved with a Dilation
    or SquaredDilation, onto an output grid on the same lattice.

    Per axis, the kernel's ``axis_pdf`` on the n_out + n_in - 1 lattice
    offsets, viewed as the (n_out, n_in) Toeplitz matrix, contracts that
    axis of the weighted values with one tensordot: the oracle of
    ``grids.smooth`` and ``grids.convolve``.
    """
    vals = f.values * f.grid.weight_tensor()
    n_in, n_out = f.grid.points_per_axis, out_grid.points_per_axis
    for axis, offsets in enumerate(_kernel_axis_offsets(out_grid, f.grid)):
        mat = _toeplitz(kernel.axis_pdf(offsets), n_out, n_in)
        vals = np.moveaxis(np.tensordot(mat, vals, axes=([1], [axis])), 0, axis)
    return GridFunction(out_grid, _clip_tiny_negatives(vals))


def fft_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real arrays of equal rank by FFT.

    Makes the same rfftn/irfftn calls on the same next_fast_len padded shape
    as scipy.signal.fftconvolve(a, b, mode="full"), so the result is
    bit-identical to it, without importing scipy.signal.
    """
    shape = [m + n - 1 for m, n in zip(a.shape, b.shape)]
    fshape = [sp_fft.next_fast_len(s, True) for s in shape]
    axes = list(range(a.ndim))
    spec = sp_fft.rfftn(a, fshape, axes=axes) * sp_fft.rfftn(b, fshape, axes=axes)
    full = sp_fft.irfftn(spec, fshape, axes=axes)
    return full[tuple(slice(s) for s in shape)]


def grid_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Lattice convolution of two grid functions with a shared spacing.

    Both functions are treated as zero outside their boxes.  Boundary samples
    of the second argument are halved: the zero extension jumps there, and the
    midpoint value is the one that keeps trapezoid lattice sums exact.  The
    result lives on the Minkowski-sum box with trapezoid weights.
    """
    for ha, hb in zip(f.grid.spacing, g.grid.spacing):
        if abs(ha - hb) > 1e-9 * max(ha, hb):
            raise GridCompatibilityError("grid spacings differ")
    weighted = f.values * f.grid.weight_tensor()
    gvals = g.values.copy()
    for axis in range(g.grid.dim):
        edge = [slice(None)] * g.grid.dim
        edge[axis] = slice(0, 1)
        gvals[tuple(edge)] *= 0.5
        edge[axis] = slice(-1, None)
        gvals[tuple(edge)] *= 0.5
    vals = fft_full(weighted, gvals)
    lo = tuple(a + c for a, c in zip(f.grid.box.lower, g.grid.box.lower))
    hi = tuple(b + d for b, d in zip(f.grid.box.upper, g.grid.box.upper))
    n_out = f.grid.points_per_axis + g.grid.points_per_axis - 1
    out = make_grid(SupportBox(lo, hi), n_out, "trapezoid")
    return GridFunction(out, _clip_tiny_negatives(vals))


@dataclass(frozen=True)
class YoungReport:
    """Measured convolution norm versus the product-of-norms bound."""

    case: str
    q: float
    r: float
    lhs: float
    rhs: float
    passed: bool


def young_inequality_check(f: GridFunction, g: GridFunction, q, r) -> YoungReport:
    """Check the convolution norm inequalities for orders (q, r).

    Case "i" applies when q == 1 (any r); case "ii" when 1/q + 1/r == 1.
    """
    q = float(q)
    r = float(r)
    conv = grid_convolve(f, g)
    if q == 1.0:
        lhs = lq_norm(conv, r)
        rhs = lq_norm(f, 1) * lq_norm(g, r)
        case = "i"
    else:
        inv = (0.0 if q == np.inf else 1.0 / q) + (0.0 if r == np.inf else 1.0 / r)
        if abs(inv - 1.0) > 1e-12:
            raise ValueError("orders must satisfy q == 1 or 1/q + 1/r == 1")
        lhs = lq_norm(conv, np.inf)
        rhs = lq_norm(f, q) * lq_norm(g, r)
        case = "ii"
    return YoungReport(case, q, r, lhs, rhs, bool(lhs <= rhs * (1.0 + CHECK_SLACK)))


# --- kernels ----------------------------------------------------------------

def kernel_pdf(kernel, x):
    """Product kernel density at points shaped (..., dim)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != kernel.dim:
        raise ValueError(f"points must have last axis {kernel.dim}")
    return np.prod(kernel.marginal.pdf(x), axis=-1)


def kernel_log_pdf(kernel, x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != kernel.dim:
        raise ValueError(f"points must have last axis {kernel.dim}")
    return np.sum(kernel.marginal.log_pdf(x), axis=-1)


def dilation_pdf(dilation, x):
    """Dilated kernel k^p base(k x) at points shaped (..., dim)."""
    x = np.asarray(x, dtype=float)
    return float(dilation.k) ** dilation.dim * kernel_pdf(dilation.base, dilation.k * x)


def dilation_log_pdf(dilation, x):
    x = np.asarray(x, dtype=float)
    return dilation.dim * math.log(dilation.k) + kernel_log_pdf(dilation.base, dilation.k * x)


def marginal_cdf(marginal, x):
    """The cdf of a kernel marginal, in closed form."""
    x = np.asarray(x, dtype=float)
    name = marginal.name
    if name == "gaussian":
        return ndtr(x)
    if name == "laplace":
        return np.where(x < 0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))
    if name == "uniform-symmetric":
        return np.clip(x + 0.5, 0.0, 1.0)
    y = np.clip(x, -1.0, 1.0)
    if name == "triangular":
        return np.where(y < 0, 0.5 * (1.0 + y) ** 2, 1.0 - 0.5 * (1.0 - y) ** 2)
    if name == "epanechnikov":
        return 0.25 * (2.0 + 3.0 * y - y ** 3)
    raise ValueError(f"no cdf for marginal {name!r}")


def kernel_draw(marginal, shape, rng) -> np.ndarray:
    """Draws from a kernel marginal: numpy's normal and Laplace samplers, and
    the closed-form inverse cdf of uniforms on [0, 1) for the compact ones."""
    name = marginal.name
    if name == "gaussian":
        return rng.standard_normal(shape)
    if name == "laplace":
        return rng.laplace(0.0, 1.0, size=shape)
    u = rng.random(shape)
    if name == "uniform-symmetric":
        return u - 0.5
    if name == "triangular":
        return np.where(u < 0.5, np.sqrt(2.0 * u) - 1.0, 1.0 - np.sqrt(2.0 * (1.0 - u)))
    if name == "epanechnikov":
        # The cubic cdf inverted through its trigonometric root.
        return 2.0 * np.sin(np.arcsin(2.0 * u - 1.0) / 3.0)
    raise ValueError(f"no sampler for marginal {name!r}")


def l1_tail(name: str, p: int, s):
    """P(|Z_1| + ... + |Z_p| > s) for iid kernel marginals, in closed form.

    gaussian, p = 2: t (2 - t) with t = 2 Phi(-s / sqrt2), because
    |Z_1| + |Z_2| = sqrt2 max(|U|, |V|) for the normals U, V of the 45 degree
    rotation.  laplace: |Z| is Exp(1), so the sum is Gamma(p, 1), with tail
    exp(-s) sum_{j<p} s^j / j!.  uniform-symmetric: |Z| is uniform on
    [0, 1/2], so twice the sum is Irwin-Hall(p).
    """
    if name == "gaussian" and p == 2:
        t = 2.0 * ndtr(-s / math.sqrt(2.0))
        return t * (2.0 - t)
    if name == "laplace":
        return math.exp(-s) * sum(s ** j / math.factorial(j) for j in range(p))
    if name == "uniform-symmetric":
        x = 2.0 * s
        if x >= p:
            return 0.0
        return 1.0 - sum((-1) ** j * math.comb(p, j) * (x - j) ** p
                         for j in range(math.floor(x) + 1)) / math.factorial(p)
    raise ValueError(f"no closed-form l1 tail for {name!r} in p = {p}")


# --- densities --------------------------------------------------------------

def target_pdf(f: TargetDensity, x):
    """Density at points shaped (..., dim): the oracle of per-axis sampling."""
    x = np.asarray(x, dtype=float)
    if f.dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.shape[-1] != f.dim:
        raise ValueError(f"points must have last axis {f.dim}")
    return np.prod(f.marginal.pdf(x), axis=-1)


def marginal_slope_bound(m) -> float:
    """sup |g'| of a zoo marginal over its support, from its parameters."""
    if isinstance(m, _Uniform01):
        return 0.0
    if isinstance(m, _ClippedCosine):
        return 2.0 * math.pi
    if isinstance(m, _Tent):
        return 4.0
    if isinstance(m, _TwoTruncatedNormals):
        return 0.5 * sum(marginal_slope_bound(c) for c in m.components)
    if isinstance(m, _TruncatedNormal):
        # sup |g'| = max |u| phi(u) / (sigma^2 z) over u in [a, b]; |u| phi(|u|)
        # increases to u = 1 and decreases beyond, so check the clamp and ends.
        cands = [abs(m.a), abs(m.b)]
        if m.a <= -1.0 <= m.b or m.a <= 1.0 <= m.b:
            cands.append(1.0)
        return float(max(t * math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
                         for t in cands) / (m.sigma ** 2 * m.z))
    raise ValueError(f"no slope bound for marginal {m.name!r}")


def target_lipschitz_constant(f: TargetDensity) -> float:
    """Certified Lipschitz constant of the product density in the l1 norm."""
    return f.dim * marginal_slope_bound(f.marginal) * f.marginal.max_value ** (f.dim - 1)


def truncated_normal_density(lo: float, hi: float, mu: float = 0.0,
                             sigma: float = 1.0, dim: int = 1) -> TargetDensity:
    """General truncated-normal product density on [lo, hi]^dim."""
    return TargetDensity(_TruncatedNormal(lo, hi, mu, sigma), dim)


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


def verify_f5_membership(f: TargetDensity, grid) -> F5MembershipReport:
    """Check the declared lower bound and unit mass of a target on a grid."""
    if not box_contains_box(grid.box, f.support):
        raise ValueError("grid does not cover the density support")
    gf = sample_on_grid(f, grid)
    mass = quadrature_integrate(gf)
    inside = f.support.grid_mask(grid)
    measured_min = float(gf.values[inside].min())
    mass_ok = abs(mass - 1.0) <= 1e-6
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


def estimate_lipschitz(f: TargetDensity, grid, a: float) -> float:
    """Max adjacent-pair quotient |f(x)-f(y)| / ||x-y||_inf^a over the grid.

    Only pairs with both endpoints inside the support count; the zero
    extension itself is not part of the on-support Lipschitz certificate.
    """
    if grid.points_per_axis < 64:
        raise ValueError("need at least 64 points per axis")
    if not 0.0 < a <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    vals = sample_on_grid(f, grid).values
    inside = f.support.grid_mask(grid)
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


# --- divergences ------------------------------------------------------------

@dataclass(frozen=True)
class Lemma13Report:
    """KL versus the squared-L2-over-beta bound for lower-bounded densities."""

    kl: float
    l2_squared: float
    beta: float
    rhs: float
    passed: bool


def kl_l2_bound_check(f: TargetDensity, g: GridFunction) -> Lemma13Report:
    """Check KL(f, g) <= ||f - g||_2^2 / beta on g's grid.

    `f` is a TargetDensity with a positive certified lower bound; `g` must be
    bounded below by a positive floor on the support.  beta is the smaller of
    the two lower bounds, since the inequality needs both densities in the
    lower-bounded class.
    """
    if f.beta_lower <= 0:
        raise ValueError("target density is not bounded below on its support")
    grid = g.grid
    if not box_contains_box(grid.box, f.support):
        raise ValueError("grid does not cover the target support")
    f_gf = sample_on_grid(f, grid)
    inside = f.support.grid_mask(grid)
    g_min = float(g.values[inside].min())
    if g_min <= 0:
        raise ValueError("approximant is not bounded below on the support")
    beta = min(f.beta_lower, g_min)
    kl = kl_divergence(f_gf, g)
    l2sq = lq_norm(grid_difference(f_gf, g), 2) ** 2
    rhs = l2sq / beta
    return Lemma13Report(kl, l2sq, beta, rhs, bool(kl <= rhs * (1.0 + CHECK_SLACK)))


# --- mixtures ---------------------------------------------------------------

def mixture_sample(mix, seed, n: int) -> np.ndarray:
    """Draw n points reproducibly from a seed or an existing Generator: a
    component per point by its weight, then its mean plus a kernel draw / k."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    comp = rng.choice(mix.weights.size, size=n, p=mix.weights)
    return mix.means[comp] + kernel_draw(mix.kernel.marginal, (n, mix.dim), rng) / mix.k


def mean_lattice(axes) -> np.ndarray:
    """The product lattice of per-axis means, (prod of lengths, dim), C order,
    stacked from the meshgrid: the oracle of ``MixtureDictionary.means``."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# --- grid-free closed forms for the Gaussian kernel -------------------------

def gaussian_smoothing(name: str, k: int, x):
    """Closed form of a 1-D zoo target convolved with the Gaussian of scale 1/k.

    uniform-box on [0, 1]: Phi(k x) - Phi(k (x - 1)).  truncated-normal on
    [-1, 1]: phi_s(x) / z [Phi((1 - m) / tau) - Phi((-1 - m) / tau)], with
    s^2 = 1 + k^-2, m = x / s^2, tau = k^-1 / s and z = Phi(1) - Phi(-1).
    """
    x = np.asarray(x, dtype=float)
    if name == "uniform-box":
        return ndtr(k * x) - ndtr(k * (x - 1.0))
    s2 = 1.0 + k ** -2.0
    m, tau = x / s2, 1.0 / (k * np.sqrt(s2))
    phi_s = np.exp(-0.5 * x * x / s2) / np.sqrt(2.0 * np.pi * s2)
    return phi_s / (ndtr(1.0) - ndtr(-1.0)) * (ndtr((1.0 - m) / tau) - ndtr((-1.0 - m) / tau))


def gaussian_smoothing_field(name: str, k: int, grid) -> np.ndarray:
    """The product target smoothed by the product Gaussian, at the grid nodes:
    the outer product of the 1-D closed form at each axis's nodes."""
    return reduce(np.multiply.outer, [gaussian_smoothing(name, k, x) for x in grid.nodes])


def gaussian_gram(mu, lo, hi, s):
    """int_lo^hi phi_s(x - a) phi_s(x - b) dx for every pair of means a, b:
    phi_{sqrt2 s}(a - b) [Phi((hi - c) sqrt2 / s) - Phi((lo - c) sqrt2 / s)],
    c = (a + b) / 2, since the product is phi_{sqrt2 s}(a - b) times the
    N(c, s^2 / 2) density."""
    a, b = mu[:, None], mu[None, :]
    c, r = 0.5 * (a + b), math.sqrt(2.0) / s
    phi = np.exp(-0.25 * ((a - b) / s) ** 2) / (2.0 * math.sqrt(math.pi) * s)
    return phi * (ndtr((hi - c) * r) - ndtr((lo - c) * r))
