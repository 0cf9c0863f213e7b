"""Location-scale kernel marginals, product kernels, and dilations.

A product kernel is a p-dimensional density built from one shared univariate
marginal.  :class:`Marginal` is the base of every univariate marginal, the
kernels' here and the target zoo's in :mod:`mixapprox.densities`.  Dilating
a product kernel by an integer scale concentrates its mass at the origin,
which is certified numerically by :func:`certify_approximate_identity`.  Its
masses and l1 tails, and :func:`check_moment_condition`, are taken by one
composite Gauss-Legendre rule whose pieces end at the kernel's kinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

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

# The certification's composite Gauss-Legendre rule (Golub & Welsch 1969):
# 12 nodes a piece, exact for polynomials of degree 23.  These are the bits
# of numpy's leggauss(12), written out so that no run loads numpy.polynomial.
_GL_X = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192])
_GL_W = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141])

# The normal cdf and its inverse, ported from cephes ndtr.c and ndtri.c
# (Moshier 1989) as scipy.special ships them: the same coefficients, Horner
# order and branch points (two of ndtr's give the same bits and are merged),
# so the same bits (tests/test_kernels.py checks them against scipy.special).  Python floats and numpy's + - * / and sqrt
# round as C does; log and exp come from libm through math, because numpy's
# SIMD log and exp differ from libm in the last bit on some inputs.
_LIBM_LOG = np.frompyfunc(math.log, 1, 1)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189        # exp(-2)
_MAXLOG = 7.09782712893383996732e2      # log(DBL_MAX)


def _polevl(x, coefs):
    """cephes polevl: c0 x^n + ... + cn by Horner."""
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _p1evl(x, coefs):
    """cephes p1evl: x^n + c0 x^(n-1) + ... by Horner, the leading 1 implied."""
    out = x + coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _ndtr_float(a):
    """Standard normal cdf Φ(a) of one float: cephes ndtr, with its erf and
    erfc.  cephes takes 0.5 + 0.5 erf(x) for |x| < 1/sqrt 2 and 0.5 (1 - erf|x|)
    from there to |x| = 1; over that stretch both round once, after erf
    (Sterbenz), so erf serves all of |x| < 1 with the same bits."""
    x = a * 0.70710678118654752440
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * (x * _polevl(x * x, _ERF_T) / _p1evl(x * x, _ERF_U))
    if z > 1e150 or -z * z < -_MAXLOG:
        y = 0.0                         # exp(-z^2) underflows; z^2 would overflow
    elif z < 8.0:
        y = 0.5 * (math.exp(-z * z) * _polevl(z, _ERFC_P) / _p1evl(z, _ERFC_Q))
    else:
        y = 0.5 * (math.exp(-z * z) * _polevl(z, _ERFC_R) / _p1evl(z, _ERFC_S))
    return 1.0 - y if x > 0 else y


_NDTR = np.frompyfunc(_ndtr_float, 1, 1)


def _ndtr(a):
    """Standard normal cdf Φ, elementwise.  The studies take it of scalars,
    inside quadrature too, where a Python float beats numpy's per-call cost."""
    return np.asarray(_NDTR(a), dtype=float)[()]


def _ndtri(y0):
    """Inverse standard normal cdf Φ⁻¹(y0): cephes ndtri; ±inf at 0 and 1,
    nan off [0, 1].  The tails, and within them the deep fit (y < exp(-32)),
    are evaluated only where some element needs them."""
    y0 = np.asarray(y0, dtype=float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.where(y == 0.0, np.where(upper, np.inf, -np.inf), np.nan)
    mid = y > _EXP_M2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) \
        * 2.50662827463100050242e0
    tail = (y > 0.0) & ~mid
    if tail.any():
        x = np.sqrt(-2.0 * _LIBM_LOG(y[tail]).astype(float))
        x0 = x - _LIBM_LOG(x).astype(float) / x
        z = 1.0 / x
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
        deep = x >= 8.0
        if deep.any():
            zd = z[deep]
            x1[deep] = zd * _polevl(zd, _NDTRI_P2) / _p1evl(zd, _NDTRI_Q2)
        x = x0 - x1
        out[tail] = np.where(upper[tail], x, -x)
    return out[()]


class Marginal:
    """Univariate density on the line: the one base of the kernel marginals
    and the target-zoo marginals.

    A subclass defines `pdf`.  The target marginals are sampled, through
    their base in :mod:`mixapprox.densities`.  A kernel marginal, symmetric
    about 0, is never sampled; it has `tail_mass(delta)` (the mass outside
    [-delta, delta]), `moment(a)` (E|X|^a, math.inf when divergent),
    `radius(tol)` (an r with tail_mass(r) <= tol) and `piece`, the longest
    piece of the certification's quadrature rule on it.
    """

    name = "abstract"

    def log_pdf(self, x):
        """log pdf, -inf off the support."""
        with np.errstate(divide="ignore"):
            return np.log(self.pdf(x))


class Gaussian(Marginal):
    name = "gaussian"
    piece = 1.0     # 12 nodes integrate a unit piece of the pdf to rounding

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x - _LOG_SQRT_2PI

    def tail_mass(self, delta):
        return 2.0 * _ndtr(-np.asarray(delta, dtype=float))

    def moment(self, a):
        return 2.0 ** (a / 2.0) * math.gamma((a + 1.0) / 2.0) / math.sqrt(math.pi)

    def radius(self, tol):
        return float(-_ndtri(min(tol, 1.0) / 2.0))


class Laplace(Marginal):
    name = "laplace"
    piece = 4.0     # exp is smoother: radius(1e-14) = 32.2 takes 9 pieces

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.exp(-np.abs(x))

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.abs(x) - math.log(2.0)

    def tail_mass(self, delta):
        return np.exp(-np.asarray(delta, dtype=float))

    def moment(self, a):
        return math.gamma(a + 1.0)

    def radius(self, tol):
        return float(-math.log(min(tol, 1.0)))


class _CompactKernel(Marginal):
    """Base for marginals supported on [-half_width, half_width] and
    polynomial on [0, half_width], which is one exact quadrature piece."""

    half_width = piece = 1.0

    def radius(self, tol):
        return self.half_width


class UniformSymmetric(_CompactKernel):
    """Unit box on [-1/2, 1/2]; boundary points take the midpoint value 1/2.

    The midpoint convention makes trapezoid convolution sums exact whenever
    the jump falls on a lattice node.
    """

    name = "uniform-symmetric"
    half_width = piece = 0.5

    def pdf(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x < 0.5, 1.0, np.where(x == 0.5, 0.5, 0.0))

    def tail_mass(self, delta):
        delta = np.asarray(delta, dtype=float)
        return np.clip(1.0 - 2.0 * delta, 0.0, 1.0)

    def moment(self, a):
        return float(0.5 ** a / (a + 1.0))


class Triangular(_CompactKernel):
    name = "triangular"

    def pdf(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.maximum(1.0 - x, 0.0)

    def tail_mass(self, delta):
        delta = np.asarray(delta, dtype=float)
        return np.clip(1.0 - delta, 0.0, 1.0) ** 2

    def moment(self, a):
        return float(2.0 * (1.0 / (a + 1.0) - 1.0 / (a + 2.0)))


class Epanechnikov(_CompactKernel):
    name = "epanechnikov"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.75 * (1.0 - x * x), 0.0)

    def tail_mass(self, delta):
        delta = np.asarray(delta, dtype=float)
        d = np.clip(delta, 0.0, 1.0)
        return 1.0 - 0.5 * (3.0 * d - d ** 3)

    def moment(self, a):
        return float(1.5 * (1.0 / (a + 1.0) - 1.0 / (a + 3.0)))


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


def _gauss_legendre(m: Marginal, top, kinks=()):
    """Composite Gauss-Legendre nodes and weights on [0, top], for
    integrands built from the kernel marginal m.

    The pieces end at 0, top, the `kinks` inside [0, top] and the multiples
    of ``m.piece`` up to m's radius(1e-14), which top must not exceed.  For
    an array top, `kinks` has one more axis, and each entry gets its own
    rule with the same node count: the pieces past it have zero weight.
    """
    top = np.asarray(top, dtype=float)
    grid = m.piece * np.arange(math.ceil(m.radius(1e-14) / m.piece) + 1)
    ends = np.concatenate([np.broadcast_to(grid, top.shape + grid.shape),
                           np.broadcast_to(kinks, top.shape + np.shape(kinks)[-1:]),
                           top[..., None]], axis=-1)
    ends = np.sort(np.clip(ends, 0.0, top[..., None]), axis=-1)
    half = 0.5 * np.diff(ends, axis=-1)[..., None]
    nodes = ends[..., :-1, None] + half * (1.0 + _GL_X)
    weights = half * _GL_W
    return nodes.reshape(top.shape + (-1,)), weights.reshape(top.shape + (-1,))


def _l1_tail(m: Marginal, p: int, s):
    """P(|Z_1| + ... + |Z_p| > s) for iid marginals m, elementwise over s:
    tail_mass(s) + int_0^min(s, r) 2 g(z) tail_{p-1}(s - z) dz, with r the
    radius(1e-14), so the part dropped is below 1e-14.  The pieces end at
    the inner tail's kinks z = s - j * half_width (j < p) of a compact m.
    Only nodes of nonzero weight are evaluated: the Gaussian's tail_mass
    costs a Python call a value.
    """
    s = np.asarray(s, dtype=float)
    if p == 1:
        return m.tail_mass(s)
    steps = np.arange(p) if isinstance(m, _CompactKernel) else np.zeros(1)
    z, w = _gauss_legendre(m, np.minimum(s, m.radius(1e-14)), s[..., None] - m.piece * steps)
    live = w > 0.0
    inner = np.zeros(z.shape)
    inner[live] = _l1_tail(m, p - 1, (s[..., None] - z)[live])
    return m.tail_mass(s) + np.sum(2.0 * w * m.pdf(z) * inner, axis=-1)


def l1_outside_mass(dilation: Dilation, delta: float) -> float:
    """Mass of a dilated kernel outside the l1 ball of radius delta."""
    return float(_l1_tail(dilation.base.marginal, dilation.dim, float(delta) * dilation.k))


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

    # Each axis's mass: k g(k x) on [-r/k, r/k], r = radius(1e-12), by the
    # composite rule on [0, r] scaled by 1/k.
    z, w = _gauss_legendre(base.marginal, base.marginal.radius(1e-12))
    masses = tuple(float(2.0 * np.sum(w / k * Dilation(base, k).axis_pdf(z / k))) ** base.dim
                   for k in ks)
    mass_ok = all(abs(m - 1.0) <= 1e-6 for m in masses)

    probe = np.linspace(-base.marginal.radius(1e-9), base.marginal.radius(1e-9), 33)
    lattice = np.ix_(*([probe] * base.dim))
    nonneg = not any(np.min(Dilation(base, k).lattice_pdf(lattice)) < 0 for k in ks)

    outside = {d: tuple(l1_outside_mass(Dilation(base, k), d) for k in ks) for d in deltas}
    concentration_ok = all(seq[-1] < 0.01 and all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
                           for seq in outside.values())

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
    """Absolute l1-moment E(|Z_1| + ... + |Z_p|)^a of the unit-scale kernel:
    2^p times the tensor composite rule on [0, r]^p, r = radius(1e-13), with
    pieces graded toward 0 (ends at piece / 4^j) where a < 1 makes the sum's
    power kink.  The last axis is summed a node at a time.  Returns math.inf
    when the marginal moment diverges; `marginal.moment` is its oracle in
    tests.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("moment exponent must lie in (0, 1]")
    if not math.isfinite(kernel.marginal.moment(a)):
        return math.inf
    m = kernel.marginal
    grading = m.piece * 0.25 ** np.arange(1, 13) if a < 1.0 else ()
    z, w = _gauss_legendre(m, m.radius(1e-13), grading)
    v = 2.0 * w * m.pdf(z)
    sums, weights = np.zeros(1), np.ones(1)
    for _ in range(kernel.dim - 1):
        sums = np.add.outer(sums, z).ravel()
        weights = np.multiply.outer(weights, v).ravel()
    return float(sum(vj * np.sum(weights * (sums + zj) ** a) for zj, vj in zip(z, v)))
