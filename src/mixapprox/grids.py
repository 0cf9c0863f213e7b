"""Tensor-product grids, quadrature, and discrete convolution on aligned lattices.

Every integral in the package is realized as a tensor-product quadrature sum
over a :class:`TensorGrid`.  Convolution is computed either by the direct
quadrature sum (one Toeplitz pass per axis) or by FFT over the shared lattice;
the two paths must agree to 1e-9 and are tested against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import fft as sp_fft

__all__ = [
    "SupportBox",
    "TensorGrid",
    "GridFunction",
    "GridCompatibilityError",
    "YoungReport",
    "cube",
    "make_grid",
    "sample_on_grid",
    "quadrature_integrate",
    "zero_extend",
    "restrict",
    "convolve",
    "grid_convolve",
    "young_inequality_check",
]

_RULES = ("trapezoid", "simpson")

# Relative slack used by every "lhs <= rhs" quadrature comparison.
CHECK_SLACK = 1e-6

# Kernel mass :func:`convolve` may drop outside its truncation radius.
TRUNCATION_TOL = 1e-9


class GridCompatibilityError(ValueError):
    """Two grids do not share a lattice (spacing, alignment, or box mismatch)."""


@dataclass(frozen=True)
class SupportBox:
    """Axis-aligned box with finite, positive volume."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lower, dtype=float)))
        hi = tuple(float(v) for v in np.atleast_1d(np.asarray(self.upper, dtype=float)))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValueError("lower and upper must have the same length")
        for a, b in zip(lo, hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("box corners must be finite")
            if not a < b:
                raise ValueError(f"degenerate box edge [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def edge_lengths(self) -> tuple:
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    @property
    def volume(self) -> float:
        return float(np.prod(self.edge_lengths))

    def contains_box(self, other: "SupportBox", tol: float = 1e-12) -> bool:
        return all(
            a <= c + tol and d <= b + tol
            for a, b, c, d in zip(self.lower, self.upper, other.lower, other.upper)
        )

    def contains_points(self, x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Boolean mask over points shaped (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[-1]}, box has {self.dim}")
        lo = np.asarray(self.lower) - tol
        hi = np.asarray(self.upper) + tol
        return np.all((x >= lo) & (x <= hi), axis=-1)

    def widen(self, margin: float) -> "SupportBox":
        return SupportBox(
            tuple(a - margin for a in self.lower),
            tuple(b + margin for b in self.upper),
        )

    def shrink_fraction(self, fraction: float) -> "SupportBox":
        """Interior sub-box obtained by trimming `fraction` of each edge per side."""
        lo, hi = [], []
        for a, b in zip(self.lower, self.upper):
            m = fraction * (b - a)
            lo.append(a + m)
            hi.append(b - m)
        return SupportBox(tuple(lo), tuple(hi))


def cube(lo: float, hi: float, dim: int = 1) -> SupportBox:
    return SupportBox((lo,) * dim, (hi,) * dim)


def _axis_weights(n: int, h: float, rule: str) -> np.ndarray:
    if rule == "trapezoid":
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        return w
    if rule == "simpson":
        if n < 3 or n % 2 == 0:
            raise ValueError("simpson rule requires an odd number of points >= 3")
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h / 3.0)
    raise ValueError(f"unknown quadrature rule {rule!r}; expected one of {_RULES}")


@dataclass(frozen=True, eq=False)
class TensorGrid:
    """Uniform tensor-product quadrature grid over a box."""

    box: SupportBox
    points_per_axis: int
    rule: str
    nodes: tuple
    weights: tuple

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def spacing(self) -> tuple:
        return tuple(ax[1] - ax[0] for ax in self.nodes)

    def mesh(self) -> np.ndarray:
        """Node coordinates as an array shaped (*shape, dim)."""
        grids = np.meshgrid(*self.nodes, indexing="ij")
        return np.stack(grids, axis=-1)

    def weight_tensor(self) -> np.ndarray:
        return reduce(np.multiply.outer, self.weights)

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.shape}")
        out = values
        for w in reversed(self.weights):
            out = out @ w
        return float(out)

    def same_lattice(self, other: "TensorGrid", tol: float = 1e-9) -> bool:
        if self.dim != other.dim:
            return False
        for a, b in zip(self.nodes, other.nodes):
            if len(a) != len(b) or np.max(np.abs(a - b)) > tol:
                return False
        return True


def make_grid(box: SupportBox, points_per_axis: int, rule: str = "simpson") -> TensorGrid:
    if rule not in _RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}; expected one of {_RULES}")
    n = int(points_per_axis)
    if n < 2:
        raise ValueError("need at least 2 points per axis")
    nodes, weights = [], []
    for a, b in zip(box.lower, box.upper):
        ax = np.linspace(a, b, n)
        nodes.append(ax)
        weights.append(_axis_weights(n, ax[1] - ax[0], rule))
    return TensorGrid(box, n, rule, tuple(nodes), tuple(weights))


@dataclass(eq=False)
class GridFunction:
    """Function values aligned to the nodes of a tensor grid."""

    grid: TensorGrid
    values: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    @property
    def mass(self) -> float:
        return self.grid.integrate(self.values)

    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if not self.grid.same_lattice(other.grid):
                raise GridCompatibilityError("grid functions live on different lattices")
            other = other.values
        return GridFunction(self.grid, op(self.values, other))

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            return self._binary(other, np.multiply)
        return GridFunction(self.grid, self.values * float(other))

    __rmul__ = __mul__


def sample_on_grid(fn, grid: TensorGrid) -> GridFunction:
    """Evaluate a callable of points shaped (..., dim) on the grid nodes."""
    return GridFunction(grid, np.asarray(fn(grid.mesh()), dtype=float))


def quadrature_integrate(h: GridFunction) -> float:
    """Tensor-product quadrature of a grid function; rejects non-finite values."""
    if not np.all(np.isfinite(h.values)):
        raise ValueError("grid function contains non-finite values")
    return h.grid.integrate(h.values)


def _lq_norm_values(grid: TensorGrid, values: np.ndarray, q) -> float:
    """Shared norm path used by the divergence module and the Young checks."""
    if q == np.inf or q == math.inf:
        return float(np.max(np.abs(values)))
    q = float(q)
    if q < 1:
        raise ValueError("norm order must satisfy q >= 1")
    return float(grid.integrate(np.abs(values) ** q) ** (1.0 / q))


def zero_extend(density, widened: SupportBox, points_per_axis: int,
                rule: str = "simpson") -> GridFunction:
    """Sample a compactly supported density on a wider box; zero outside support.

    Nodes that land exactly on a support edge with the widened box extending
    beyond it take the jump-midpoint value (half the inside limit), which
    keeps the quadrature mass of boundary-discontinuous densities exact.
    """
    if not widened.contains_box(density.support):
        raise ValueError("widened box does not contain the density support")
    grid = make_grid(widened, points_per_axis, rule)
    gf = sample_on_grid(density.pdf, grid)
    for axis in range(grid.dim):
        nodes = grid.nodes[axis]
        tol = 1e-9 * (nodes[-1] - nodes[0])
        for support_edge, widened_edge in (
            (density.support.lower[axis], widened.lower[axis]),
            (density.support.upper[axis], widened.upper[axis]),
        ):
            if abs(support_edge - widened_edge) <= tol:
                continue  # trapezoid edge weights already treat this boundary
            hits = np.abs(nodes - support_edge) <= tol
            if np.any(hits):
                sl = [slice(None)] * grid.dim
                sl[axis] = hits
                gf.values[tuple(sl)] *= 0.5
    return gf


def restrict(gf: GridFunction, box: SupportBox, rule: str | None = None) -> GridFunction:
    """Restrict a grid function to a sub-box whose corners lie on the lattice."""
    src = gf.grid
    h = src.spacing
    counts = set()
    starts = []
    for a, lo, hi, hh in zip(src.nodes, box.lower, box.upper, h):
        i0 = (lo - a[0]) / hh
        i1 = (hi - a[0]) / hh
        if abs(i0 - round(i0)) > 1e-6 or abs(i1 - round(i1)) > 1e-6:
            raise GridCompatibilityError("sub-box corners are not on the lattice")
        i0, i1 = int(round(i0)), int(round(i1))
        if i0 < 0 or i1 >= len(a):
            raise GridCompatibilityError("sub-box exceeds the source grid")
        starts.append(i0)
        counts.add(i1 - i0 + 1)
    if len(counts) != 1:
        raise GridCompatibilityError("restriction must keep a common per-axis count")
    n = counts.pop()
    rule = rule or src.rule
    if rule == "simpson" and n % 2 == 0:
        rule = "trapezoid"
    sub = make_grid(box, n, rule)
    sl = tuple(slice(s, s + n) for s in starts)
    return GridFunction(sub, gf.values[sl], truncation_loss=gf.truncation_loss)


def _kernel_axis_offsets(out_grid: TensorGrid, in_grid: TensorGrid) -> list:
    """Per-axis offset lattices x_i - m_j for aligned out/in grids."""
    offs = []
    for ax_out, ax_in in zip(out_grid.nodes, in_grid.nodes):
        h = ax_in[1] - ax_in[0]
        lo = ax_out[0] - ax_in[-1]
        count = len(ax_out) + len(ax_in) - 1
        offs.append(lo + h * np.arange(count))
    return offs


def _default_out_grid(f: GridFunction, radius: float) -> TensorGrid:
    grid = f.grid
    ext = max(int(math.ceil(radius / h - 1e-12)) for h in grid.spacing)
    ext = max(ext, 0)
    lo = tuple(a - ext * h for a, h in zip(grid.box.lower, grid.spacing))
    hi = tuple(b + ext * h for b, h in zip(grid.box.upper, grid.spacing))
    return make_grid(SupportBox(lo, hi), grid.points_per_axis + 2 * ext, grid.rule)


def _clip_tiny_negatives(values: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(values)) if values.size else 0.0
    tiny = values < 0
    if np.any(tiny):
        floor = -1e-10 * max(scale, 1.0)
        values = np.where(tiny & (values > floor), 0.0, values)
    return values


def _toeplitz(kernel_axis: np.ndarray, n_out: int, n_in: int) -> np.ndarray:
    """(n_out, n_in) view with entry [i, j] = kernel_axis[i - j + n_in - 1].

    `kernel_axis` holds one axis of the kernel on the n_out + n_in - 1 lattice
    offsets of :func:`_kernel_axis_offsets`; the view gathers it by index
    without copying.
    """
    windows = np.lib.stride_tricks.sliding_window_view(kernel_axis[::-1], n_in)
    return windows[::-1]


def _fft_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def check_resolution(grid: TensorGrid, k) -> None:
    """Resolution guard of a dilated kernel: at least 4 nodes per 1/k length."""
    if max(grid.spacing) > 0.25 / float(k):
        raise ValueError(
            "grid too coarse for the kernel bandwidth: need >= 4 nodes per 1/k"
        )


def convolve(f: GridFunction, kernel, out_grid: TensorGrid | None = None,
             method: str = "auto") -> GridFunction:
    """Convolve a grid density with a Dilation or SquaredDilation kernel.

    The kernel is truncated where its outside mass is TRUNCATION_TOL.  The
    output grid defaults to the input grid widened by that radius, on the same
    lattice; a caller that needs only part of it (usually the input grid
    itself) passes that grid as `out_grid` and nothing else is computed.

    method: "auto" | "fft" | "direct".  The direct path is the quadrature-sum
    oracle: one ``axis_pdf`` call per axis on the n_out + n_in - 1 lattice
    offsets, gathered by index into the (n_out, n_in) Toeplitz matrix and
    contracted one axis at a time.  The fft path computes the same lattice
    sum by FFT, on the kernel's ``lattice_pdf`` over the offset lattice.
    "auto" takes fft only in dim 1 beyond 2^23 (output, input) pairs.
    """
    grid = f.grid
    p = grid.dim
    if kernel.dim != p:
        raise ValueError("kernel dimension does not match the grid")
    radius = float(kernel.radius(TRUNCATION_TOL))
    check_resolution(grid, kernel.k)

    if out_grid is None:
        out_grid = _default_out_grid(f, radius)
    else:
        for h_in, h_out in zip(grid.spacing, out_grid.spacing):
            if abs(h_in - h_out) > 1e-9 * h_in:
                raise GridCompatibilityError("output grid spacing mismatch")
        for ax_in, ax_out in zip(grid.nodes, out_grid.nodes):
            off = (ax_out[0] - ax_in[0]) / (ax_in[1] - ax_in[0])
            if abs(off - round(off)) > 1e-6:
                raise GridCompatibilityError("output grid is not lattice-aligned")

    weighted = f.values * grid.weight_tensor()
    axis_offsets = _kernel_axis_offsets(out_grid, grid)
    n_in, n_out = grid.points_per_axis, out_grid.points_per_axis

    if method == "auto":
        # Each direct pass holds an (n_out, n_in) matrix.  In dim 1 the fft
        # kernel is a vector too, and cheaper once a widened output makes that
        # matrix large; in dim > 1 it is a full lattice, which the direct path
        # never builds.
        method = "direct" if p > 1 or n_out * n_in <= 1 << 23 else "fft"

    if method == "direct":
        vals = weighted
        for axis in range(p):
            mat = _toeplitz(kernel.axis_pdf(axis_offsets[axis]), n_out, n_in)
            vals = np.moveaxis(np.tensordot(mat, vals, axes=([1], [axis])), 0, axis)
    elif method == "fft":
        full = _fft_full(weighted, kernel.lattice_pdf(np.ix_(*axis_offsets)))
        sl = tuple(slice(n_in - 1, n_in - 1 + n_out) for _ in range(p))
        vals = full[sl]
    else:
        raise ValueError(f"unknown convolution method {method!r}")

    vals = _clip_tiny_negatives(vals)
    loss = f.truncation_loss + kernel.mass_outside(radius)
    return GridFunction(out_grid, vals, truncation_loss=loss)


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
    vals = _fft_full(weighted, gvals)
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
        lhs = _lq_norm_values(conv.grid, conv.values, r)
        rhs = _lq_norm_values(f.grid, f.values, 1) * _lq_norm_values(g.grid, g.values, r)
        case = "i"
    else:
        inv = (0.0 if q == np.inf else 1.0 / q) + (0.0 if r == np.inf else 1.0 / r)
        if abs(inv - 1.0) > 1e-12:
            raise ValueError("orders must satisfy q == 1 or 1/q + 1/r == 1")
        lhs = _lq_norm_values(conv.grid, conv.values, np.inf)
        rhs = _lq_norm_values(f.grid, f.values, q) * _lq_norm_values(g.grid, g.values, r)
        case = "ii"
    return YoungReport(case, q, r, lhs, rhs, bool(lhs <= rhs * (1.0 + CHECK_SLACK)))
