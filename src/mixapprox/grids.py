"""Tensor-product grids, quadrature, and discrete convolution on aligned lattices.

Every integral in the package is realized as a tensor-product quadrature sum
over a :class:`TensorGrid`.  Every field a study smooths on its own grid is
a product target convolved with a product kernel, so :func:`smooth` builds
it as the outer product of one 1-D lattice sum per axis: a Toeplitz
contraction, one block of rows at a time, or one FFT line where that is
faster.  :func:`convolve` keeps the n-D FFT over a widened lattice, the one
path whose bits the dim > 1 mixing approximant is pinned to.  Both are
tested against the n-D direct quadrature sum of the tests' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "SupportBox",
    "TensorGrid",
    "GridFunction",
    "GridCompatibilityError",
    "cube",
    "make_grid",
    "sample_on_grid",
    "restrict",
    "smooth",
    "convolve",
]

_RULES = ("trapezoid", "simpson")

# Kernel mass :func:`convolve` may drop outside its truncation radius.
TRUNCATION_TOL = 1e-9

_BOX_TOL = 1e-12   # distance outside a box at which a point still counts as inside

# Toeplitz rows a direct 1-D sum copies and contracts at a time.  A multiple
# of 4, because OpenBLAS's GEMV takes rows in fours, so the result keeps the
# bits of one product on the whole matrix.
_BLOCK_ROWS = 256


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

    def grid_mask(self, grid: "TensorGrid") -> np.ndarray:
        """Boolean mask over the nodes of a grid: the outer AND of one mask per axis."""
        if grid.dim != self.dim:
            raise ValueError(f"grid has dimension {grid.dim}, box has {self.dim}")
        masks = [(ax >= a - _BOX_TOL) & (ax <= b + _BOX_TOL)
                 for ax, a, b in zip(grid.nodes, self.lower, self.upper)]
        return reduce(np.logical_and.outer, masks)

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
    """Trapezoid or Simpson weights of n nodes h apart (make_grid checks rule)."""
    if rule == "trapezoid":
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        return w
    if n < 3 or n % 2 == 0:
        raise ValueError("simpson rule requires an odd number of points >= 3")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


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

    def same_lattice(self, other: "TensorGrid") -> bool:
        if self.dim != other.dim:
            return False
        for a, b in zip(self.nodes, other.nodes):
            if len(a) != len(b) or np.max(np.abs(a - b)) > 1e-9:
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

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )


def sample_on_grid(f, grid: TensorGrid) -> GridFunction:
    """A product density (a target or kernel: one `marginal` over `dim` axes) on
    the grid nodes, as the outer product of the marginal at each axis's nodes."""
    if f.dim != grid.dim:
        raise ValueError(f"grid has dimension {grid.dim}, target has {f.dim}")
    return GridFunction(grid, reduce(np.multiply.outer, map(f.marginal.pdf, grid.nodes)))


def restrict(gf: GridFunction, box: SupportBox) -> GridFunction:
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
    rule = src.rule
    if rule == "simpson" and n % 2 == 0:
        rule = "trapezoid"
    sub = make_grid(box, n, rule)
    sl = tuple(slice(s, s + n) for s in starts)
    return GridFunction(sub, gf.values[sl])


def _kernel_axis_offsets(out_grid: TensorGrid, in_grid: TensorGrid) -> list:
    """Per-axis offset lattices x_i - m_j for aligned out/in grids."""
    offs = []
    for ax_out, ax_in in zip(out_grid.nodes, in_grid.nodes):
        h = ax_in[1] - ax_in[0]
        lo = ax_out[0] - ax_in[-1]
        count = len(ax_out) + len(ax_in) - 1
        offs.append(lo + h * np.arange(count))
    return offs


def _fft_lattice(grid: TensorGrid, kernel) -> tuple:
    """(ext, fs): the nodes :func:`convolve` widens the grid by on each side,
    enough to hold a Dilation's truncation radius, and the per-axis lengths
    its FFT pads to, n input nodes against the n_out + n - 1 offsets of
    n_out = n + 2 ext output nodes."""
    radius = float(kernel.radius(TRUNCATION_TOL))
    ext = max(max(int(math.ceil(radius / h - 1e-12)) for h in grid.spacing), 0)
    return ext, [_next_fast_len(3 * n + 2 * ext - 2) for n in grid.shape]


def _default_out_grid(grid: TensorGrid, ext: int) -> TensorGrid:
    """The grid widened by ext nodes on each side, on the same lattice."""
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


def _row_blocks(n: int, size: int) -> list:
    """(start, stop) of blocks of `n` rows for blockwise matrix products.

    Blocks start at multiples of `size` and the last one takes the
    remainder, so none is a single row unless n is 1 (numpy sends a one-row
    product to a dot kernel that rounds differently), and for `size` a
    multiple of 4 every row keeps its place in OpenBLAS's groups of four:
    the blocks' products have the bits of one product on all n rows.
    """
    edges = [i * size for i in range(max(n // size, 1))] + [n]
    return list(zip(edges, edges[1:]))


def _contract_rows(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec for the (n_out, n_in) Toeplitz view `mat`.

    Rows are copied and multiplied one block of _BLOCK_ROWS at a time
    (:func:`_row_blocks`), so no dense (n_out, n_in) matrix exists.
    """
    out = np.empty(mat.shape[0])
    for a, b in _row_blocks(mat.shape[0], _BLOCK_ROWS):
        np.dot(np.ascontiguousarray(mat[a:b]), vec, out=out[a:b])
    return out


def _next_fast_len(n: int) -> int:
    """The least 5-smooth integer >= n, the transform size of a real FFT of
    length n (scipy's next_fast_len(n, True))."""
    best = 1 << max(n - 1, 0).bit_length()      # a power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


# Bytes of one block of kernel rows, spectrum columns or inverted rows that
# :func:`_fft_lattice_sum` transforms at a time.
_FFT_BLOCK_BYTES = 1 << 20


def _fft_line(weighted: np.ndarray, kernel_axis: np.ndarray, size: int) -> np.ndarray:
    """The 1-D lattice sum by FFT: the full linear convolution of `weighted`
    (n nodes) with `kernel_axis` (L offsets) at the L - n + 1 output nodes
    that start at n - 1.  Padded to size, _next_fast_len(n + L - 1), it has
    the bits of scipy.signal.fftconvolve (see :func:`_fft_lattice_sum`)."""
    n = weighted.size
    spec = np.fft.rfft(weighted, size)
    spec *= np.fft.rfft(kernel_axis, size)
    out = np.fft.irfft(spec, size, norm="forward")[n - 1:kernel_axis.size]
    out *= float(1 / np.longdouble(size))
    return out


def _fft_lattice_sum(weighted: np.ndarray, kernel, axis_offsets: list,
                     fs: list) -> np.ndarray:
    """The lattice sum of :func:`convolve` by FFT, on the output nodes.

    The full linear convolution of `weighted` (n_a nodes on axis a) with the
    Dilation's lattice_pdf on `axis_offsets` (L_a offsets), at the
    L_a - n_a + 1 output nodes per axis that start at n_a - 1, padded to the
    lengths fs.  With fs_a = _next_fast_len(n_a + L_a - 1) it has the bits
    of scipy's irfftn(rfftn(a) * rfftn(b)) on that padded shape
    (scipy.signal.fftconvolve): numpy.fft makes the same per-axis
    transforms in the same order, an rfft on the last axis, then ffts on the
    leading axes in axis order, inverted by iffts on the leading axes in
    axis order and an irfft on the last axis, both unscaled, then times
    1 / (the product of the padded lengths), rounded as pocketfft rounds it.

    A transform along one axis acts line by line, so neither the spectra nor
    the kernel lattice is held whole.  The kernel is built and transformed
    along its last axis in row blocks.  Each block of spectrum columns then
    runs the leading-axis transforms, the product and the leading-axis
    inverses, which keep only the output's rows, and writes them over the
    kernel's columns it has used.  A 1-D sum is one line (:func:`_fft_line`).
    """
    p = weighted.ndim
    if p == 1:
        return _fft_line(weighted, kernel.axis_pdf(axis_offsets[0]), fs[0])
    keep = [slice(n - 1, off.size) for n, off in zip(weighted.shape, axis_offsets)]
    scale = float(1 / np.longdouble(math.prod(fs)))

    half = fs[-1] // 2 + 1
    target = np.fft.rfft(weighted, fs[-1], axis=-1)
    kern = np.empty([off.size for off in axis_offsets[:-1]] + [half], dtype=complex)
    row = 8 * math.prod(off.size for off in axis_offsets[1:])     # bytes of a kernel row
    for a, b in _row_blocks(kern.shape[0], max(_FFT_BLOCK_BYTES // row, 1)):
        block = kernel.lattice_pdf(np.ix_(axis_offsets[0][a:b], *axis_offsets[1:]))
        kern[a:b] = np.fft.rfft(block, fs[-1], axis=-1)
    del block

    inner = kern[tuple(slice(k.stop - k.start) for k in keep[:-1])]
    cols = max(_FFT_BLOCK_BYTES // (16 * math.prod(fs[:-1])), 1)
    for c0 in range(0, half, cols):
        c = slice(c0, c0 + cols)
        spec, kspec = target[..., c], kern[..., c]
        for axis in range(p - 1):
            spec = np.fft.fft(spec, fs[axis], axis=axis)
            kspec = np.fft.fft(kspec, fs[axis], axis=axis)
        spec *= kspec
        for axis in range(p - 1):
            spec = np.fft.ifft(spec, axis=axis, norm="forward")
            spec = spec[(slice(None),) * axis + (keep[axis],)]
        inner[..., c] = spec
    del spec, kspec, target

    out = np.empty(inner.shape[:-1] + (keep[-1].stop - keep[-1].start,))
    row = 8 * math.prod(out.shape[1:-1]) * fs[-1]     # bytes of an inverted row
    for a, b in _row_blocks(out.shape[0], max(_FFT_BLOCK_BYTES // row, 1)):
        out[a:b] = np.fft.irfft(inner[a:b], fs[-1], axis=-1, norm="forward")[..., keep[-1]]
    out *= scale
    return out


def check_resolution(grid: TensorGrid, k) -> None:
    """Resolution guard of a dilated kernel: at least 4 nodes per 1/k length."""
    if max(grid.spacing) > 0.25 / float(k):
        raise ValueError(
            "grid too coarse for the kernel bandwidth: need >= 4 nodes per 1/k"
        )


def smooth(f, kernel, grid: TensorGrid) -> GridFunction:
    """A product density smoothed by a separable kernel, at the grid's nodes.

    f (a target or kernel: one `marginal` over `dim` axes) and the kernel (a
    Dilation or SquaredDilation, a product of its ``axis_pdf``) both factor
    over the axes, so the lattice sum over the grid's nodes is the outer
    product of one 1-D sum per axis: the marginal times the quadrature
    weights at the axis's nodes, against ``axis_pdf`` on the 2n - 1 offsets
    between them.  Up to 2^23 (output, input) node pairs that sum contracts
    the Toeplitz view of the offsets (:func:`_contract_rows`), which takes
    n^2 multiply-adds; beyond, it is one FFT line (:func:`_fft_line`), which
    is faster there.  No n-D array but the result is built.  The 1-D mixing
    approximant's greedy fit is pinned to this rule's bits: an FFT line at
    every size moves 1-D `mix-rate` rows, L2 and KL, by up to 2.1e-8 relative.
    """
    if not f.dim == kernel.dim == grid.dim:
        raise ValueError(f"target ({f.dim}), kernel ({kernel.dim}) and grid ({grid.dim}) "
                         "dimensions differ")
    check_resolution(grid, kernel.k)
    n = grid.points_per_axis
    sums = []
    for x, w, offsets in zip(grid.nodes, grid.weights, _kernel_axis_offsets(grid, grid)):
        weighted = f.marginal.pdf(x) * w
        kernel_axis = kernel.axis_pdf(offsets)
        if n * n <= 1 << 23:
            sums.append(_contract_rows(_toeplitz(kernel_axis, n, n), weighted))
        else:
            sums.append(_fft_line(weighted, kernel_axis, _next_fast_len(3 * n - 2)))
    return GridFunction(grid, _clip_tiny_negatives(reduce(np.multiply.outer, sums)))


def convolve(f: GridFunction, kernel) -> GridFunction:
    """Convolve a grid density with a Dilation, onto its grid widened by the
    kernel's truncation radius, by FFT.

    The kernel is truncated where its outside mass is TRUNCATION_TOL; the
    output grid is the input grid widened by that radius on the same
    lattice.  The lattice sum is :func:`_fft_lattice_sum`'s, with the bits
    of scipy's whole-lattice transforms.  The studies smooth by
    :func:`smooth`; this path is kept for the dim > 1 mixing approximant,
    restricted back to its grid, whose greedy fit is pinned to these bits
    (see ``mixtures.build_mixing_approximant``).
    """
    grid = f.grid
    if kernel.dim != grid.dim:
        raise ValueError("kernel dimension does not match the grid")
    check_resolution(grid, kernel.k)
    ext, fs = _fft_lattice(grid, kernel)
    out_grid = _default_out_grid(grid, ext)
    vals = _fft_lattice_sum(f.values * grid.weight_tensor(), kernel,
                            _kernel_axis_offsets(out_grid, grid), fs)
    return GridFunction(out_grid, _clip_tiny_negatives(vals))
