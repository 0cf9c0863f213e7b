"""Finite location-scale mixtures: evaluation, EM fitting, and
greedy convex-hull approximation over a dictionary of shifted dilated kernels.

A mixture holds simplex weights, means inside a box, and one shared integer
scale.  EM is projected: means are clamped to the box after every M-step,
which preserves the update's argmax property for both supported marginals
(gaussian: weighted mean; laplace: weighted median).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .divergences import lq_norm
from .grids import (GridFunction, TensorGrid, _row_blocks, convolve, restrict, sample_on_grid,
                    smooth)
from .kernels import Dilation, ProductKernel, SquaredDilation

__all__ = [
    "MeanBox",
    "FiniteMixture",
    "MixingApproximant",
    "MixtureDictionary",
    "EMFit",
    "MLEFit",
    "GreedyFit",
    "em_fit",
    "mle_fit",
    "build_dictionary",
    "greedy_fit",
    "build_mixing_approximant",
]

EM_MARGINALS = ("gaussian", "laplace")


@dataclass(frozen=True)
class MeanBox:
    """Cube of admissible component means, [m_lower, m_upper]^dim."""

    m_lower: float
    m_upper: float
    dim: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.m_lower) and math.isfinite(self.m_upper)):
            raise ValueError("mean box must be bounded")
        # Zero width is tolerated for the degenerate probe cases of the bound
        # constants; fitting over a degenerate box is pointless but harmless.
        if self.m_lower > self.m_upper:
            raise ValueError("mean box must have nonnegative width")

    @property
    def width(self) -> float:
        return self.m_upper - self.m_lower

    def clamp(self, means: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(means, self.m_lower), self.m_upper)

    def sample(self, n: int, rng) -> np.ndarray:
        return rng.uniform(self.m_lower, self.m_upper, size=(n, self.dim))


def _component_log_pdf(kernel: ProductKernel, k: int, means: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """Log of the dilated component k^p g(k (x - m)) at every mean and point.

    x is (N, p) or, for p = 1, (N,); means is (n, p).  Returns (n, N),
    components by samples.  Every marginal, in every p, adds its log density
    one (n, N) pass per axis, in axis order, and so matches bit for bit a
    per-mean loop that sums it over the axes and adds p log k.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    p = x.shape[1]
    marg = kernel.marginal
    out = marg.log_pdf(k * (x[None, :, 0] - means[:, 0, None]))
    for axis in range(1, p):
        out += marg.log_pdf(k * (x[None, :, axis] - means[:, axis, None]))
    return p * math.log(k) + out


def _logsumexp0(a: np.ndarray):
    """Log-sum-exp over axis 0 of an (n, N) array and the column sums of
    exp(a - max), which a is left holding.  A column with no finite entry
    gives -inf."""
    mx = np.maximum.reduce(a, axis=0)
    mx[~np.isfinite(mx)] = 0.0
    np.subtract(a, mx, out=a)
    np.exp(a, out=a)
    denom = np.add.reduce(a, axis=0)
    with np.errstate(divide="ignore"):
        return mx + np.log(denom), denom


@dataclass(frozen=True, eq=False)
class FiniteMixture:
    """Bounded finite mixture of one dilated product kernel.

    Doubles as the parameter vector of the likelihood: weights, means, and the
    shared scale fully determine the density.
    """

    weights: np.ndarray
    means: np.ndarray
    k: int
    kernel: ProductKernel

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        if m.ndim == 1:
            m = m[:, None]
        if w.ndim != 1 or m.shape[0] != w.shape[0]:
            raise ValueError("weights and means must have matching leading length")
        if m.shape[1] != self.kernel.dim:
            raise ValueError("mean dimension does not match the kernel")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if int(self.k) < 1:
            raise ValueError("scale k must be a positive integer")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "k", int(self.k))

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def component_log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density of each component at each point, shaped (N, n).

        The transpose of :func:`_component_log_pdf`, the one evaluator of the
        component density.
        """
        return _component_log_pdf(self.kernel, self.k, self.means, x).T

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        joint = _component_log_pdf(self.kernel, self.k, self.means, x)
        joint += np.log(np.maximum(self.weights, 1e-300))[:, None]
        return _logsumexp0(joint)[0]

    def pdf(self, x) -> np.ndarray:
        """Density at points (N, p) or, for p = 1, (N,), through the log-sum-exp
        of :meth:`log_pdf`: the oracle of :meth:`on_grid`."""
        return np.exp(self.log_pdf(x))

    def on_grid(self, grid: TensorGrid) -> GridFunction:
        """Density at the grid nodes, k^p sum_j w_j prod_a F_a[j, i_a], from the
        per-axis factor tables F_a[j, i] = g(k (x_a,i - m_ja)), (n, n_a): one
        einsum in numpy's own loops, so no mesh, no (n, G) table and no BLAS,
        whose bits depend on its thread count.  A term of at least 1e-300
        (KL's floor) has every factor in the normal range: no log shift."""
        factors = Dilation(self.kernel, self.k).axis_factors(
            [x - m[:, None] for x, m in zip(grid.nodes, self.means.T)])
        pairs = [v for axis, f in enumerate(factors, 1) for v in (f, [0, axis])]
        values = np.einsum(self.weights, [0], *pairs, list(range(1, self.dim + 1)))
        values *= float(self.k) ** self.dim
        return GridFunction(grid, values)


@dataclass
class EMFit:
    """One projected-EM fit: its mixture, likelihood trace and bookkeeping."""
    mixture: FiniteMixture
    trace: np.ndarray           # log-likelihood after every iteration
    iterations: int
    converged: bool
    reseeds: int
    dropped: int

    @property
    def log_likelihood(self) -> float:
        return float(self.trace[-1])


def _init_means(xs: np.ndarray, n: int, box: MeanBox, rng) -> np.ndarray:
    """n initial means in the box: uniform draws from rng, or with rng None
    the sample quantiles of xs (N, p) at (i + 1/2)/n per axis.  The quantiles
    are numpy's linear ones bit for bit: sorted values at floor((N - 1) q)
    and the next index, capped at N - 1, and numpy's lerp, which takes the
    upper end for t >= 1/2.  np.quantile itself would load numpy.ma."""
    if rng is None:
        at = (len(xs) - 1) * ((np.arange(n) + 0.5) / n)
        lo = np.floor(at).astype(np.intp)
        t = (at - lo)[:, None]
        ordered = np.sort(xs, axis=0)
        a, b = ordered[lo], ordered[np.minimum(lo + 1, len(xs) - 1)]
        means = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    else:
        means = box.sample(n, rng)
    return box.clamp(means)


def _weighted_medians(x: np.ndarray, order: np.ndarray, resp: np.ndarray) -> np.ndarray:
    """Weighted medians of x under each column of resp (N, n); order sorts x.

    The sorted index is the count of cumulative weights below half the column
    total, capped at N - 1; a cumsum of nonnegative weights never decreases."""
    cw = np.cumsum(resp[order], axis=0)
    idx = np.minimum(np.count_nonzero(cw < 0.5 * cw[-1], axis=0), len(x) - 1)
    return x[order[idx]]


def em_fit(xs, n_components: int, k: int, kernel: ProductKernel, box: MeanBox,
           init_rng=None, max_iters: int = 500, tol: float = 1e-8) -> EMFit:
    """Projected EM for a fixed scale k.

    Parameters
    ----------
    xs : array (N, p) or (N,)
        Sample points.
    n_components : int
        Component count; must not exceed the sample size.
    init_rng : np.random.Generator or None
        None places initial means at sample quantiles (deterministic);
        a generator draws them uniformly in the box.

    One E-step gives every iteration's log-likelihood and the final one, the
    last trace entry.  It weighs the samples by the (n, N) log-joint R,
    normalised over the components (axis 0).  The Laplace step evaluates
    `_component_log_pdf`, takes `_logsumexp0` and then weighted medians.  The
    Gaussian step works in buffers bound once per fit (and after a drop): R is
    one GEMM of [m - c, log w - (k^2/2)|m - c|^2, -1] by [k^2 (x - c)^T; 1; s],
    centred at the mean-box midpoint c to keep the expanded square accurate
    far from the origin.  The per-sample term
    p (log k - log(2 pi)/2) - (k^2/2)|x - c|^2 that R leaves out cancels in
    the responsibilities and is added to the log-likelihood only.  The shift
    s is each sample's log-sum-exp of R from the last E-step, so the GEMM
    gives R - s, exponentiated in place and summed over the components to
    denom; s + log denom, the next shift, sums to the log-likelihood.  One
    M-step moves R little, so denom stays near 1 and no max pass is needed.
    The exact, max-shifted `_logsumexp0` (without the -1 column) is taken
    instead with no shift (the first iteration, and the one after a reseed
    or a drop) and whenever some denom is not finite or lies outside
    [1e-100, 1e100], where exp(R - s) could overflow or lose its largest
    terms to underflow.  Counts and weighted sums come from one product
    exp(R - s) @ [1/denom, (x - c)/denom].

    The trace of log-likelihood values is nondecreasing within 1e-9 between
    ordinary iterations.  A starving component (weight below 1e-12) is
    re-seeded once, then dropped and counted in `EMFit.dropped`; either
    event may reset the trace monotonicity at that single step.  So no
    weight falls below 1e-12, or 1/(10N) after a reseed: log w needs no floor.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    N = xs.shape[0]
    if N < n_components:
        raise ValueError("need at least as many samples as components")
    if kernel.marginal.name not in EM_MARGINALS:
        raise ValueError(
            f"EM requires a full-support marginal ({EM_MARGINALS}), "
            f"got {kernel.marginal.name!r}"
        )

    means = _init_means(xs, n_components, box, init_rng)
    weights = np.full(n_components, 1.0 / n_components)
    reseed_rng = init_rng if init_rng is not None else np.random.default_rng(0)
    reseeded: set = set()
    reseeds = dropped = 0
    gaussian = kernel.marginal.name == "gaussian"
    p = xs.shape[1]
    shifted = False                 # whether the shift row holds the last lse
    if gaussian:
        c = 0.5 * (box.m_lower + box.m_upper)
        xc = xs - c
        # The GEMM's sample side [k^2 (x - c)^T; 1; s], built once; the shift
        # row s holds the last E-step's per-sample lse.
        sample_rows = np.zeros((p + 2, N))
        sample_rows[:p] = (k * k) * xc.T
        sample_rows[p] = 1.0
        exact_rows, shift = sample_rows[:-1], sample_rows[-1]
        ll_dropped = (N * p * (math.log(k) - 0.5 * math.log(2.0 * math.pi))
                      - 0.5 * k * k * float(np.sum(xc * xc)))
        # Buffers of the fit: the parameter side with its -1 column, the (n, N)
        # product, the right-hand side [1/denom, (x - c)/denom], denom, log denom.
        params = np.empty((n_components, p + 2))
        params[:, p + 1] = -1.0
        work, ones = np.empty((n_components, N)), np.ones(n_components)
        rhs = np.empty((N, 1 + p))
        inv, inv_col, rhs_x = rhs[:, 0], rhs[:, :1], rhs[:, 1:]
        denom, log_denom = np.empty(N), np.empty(N)

        def bind(n):
            """The buffers' views for n components, bound again after a drop."""
            P = params[:n]
            return P, P[:, :p + 1], P[:, :p], P[:, p], work[:n], ones[:n]

        P, P_exact, mc, col, W, o = bind(n_components)
    else:
        # The Laplace M-step takes weighted medians; each axis is sorted once.
        orders = [np.argsort(xs[:, d]) for d in range(p)]

    def e_step():
        """The log-likelihood at (weights, means), the (n, N) numerators of
        the responsibilities and their column sums."""
        nonlocal shifted
        if not gaussian:
            joint = _component_log_pdf(kernel, k, means, xs)
            joint += np.log(weights)[:, None]
            lse, sums = _logsumexp0(joint)
            return float(np.add.reduce(lse)), joint, sums
        np.subtract(means, c, out=mc)
        np.add.reduce(mc * mc, axis=1, out=col)
        np.multiply(0.5 * k * k, col, out=col)
        np.subtract(np.log(weights), col, out=col)
        if shifted:
            np.matmul(P, sample_rows, out=W)
            np.exp(W, out=W)
            np.matmul(o, W, out=denom)
            shifted = 1e-100 <= np.minimum.reduce(denom) and np.maximum.reduce(denom) <= 1e100
            if shifted:
                np.add(shift, np.log(denom, out=log_denom), out=shift)
        if not shifted:
            np.matmul(P_exact, exact_rows, out=W)
            shift[:], denom[:] = _logsumexp0(W)
            shifted = True
        return float(np.add.reduce(shift)) + ll_dropped, W, denom

    trace = []
    prev = -math.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        ll, joint, sums = e_step()
        if gaussian:
            np.divide(1.0, sums, out=inv)
            np.multiply(xc, inv_col, out=rhs_x)
            moments = joint @ rhs
            counts = moments[:, 0]
        else:
            resp = np.divide(joint, sums, out=joint)
            counts = np.add.reduce(resp, axis=1)

        if np.minimum.reduce(counts) / N < 1e-12:
            starving = np.where(counts / N < 1e-12)[0]
            keep = np.ones(weights.shape[0], dtype=bool)
            for idx in starving:
                if idx in reseeded:
                    keep[idx] = False
                    dropped += 1
                else:
                    reseeded.add(int(idx))
                    reseeds += 1
                    means[idx] = box.sample(1, reseed_rng)[0]
            w = np.where(keep, np.maximum(weights, 1.0 / (10 * N)), 0.0)[keep]
            weights, means = w / w.sum(), means[keep]
            if gaussian and not keep.all():
                P, P_exact, mc, col, W, o = bind(weights.shape[0])
            trace.append(ll)
            prev = -math.inf  # restart monotonicity after the intervention
            shifted = False
            continue

        new_w = counts / N
        if gaussian:
            new_means = c + moments[:, 1:] / counts[:, None]
        else:
            new_means = np.column_stack([
                _weighted_medians(xs[:, d], order, resp.T) for d, order in enumerate(orders)
            ])
        weights, means = new_w / np.add.reduce(new_w), box.clamp(new_means)

        trace.append(ll)
        if ll - prev < tol and math.isfinite(prev):
            converged = True
            break
        prev = ll

    trace.append(e_step()[0])
    return EMFit(FiniteMixture(weights, means, k, kernel), np.asarray(trace), it, converged,
                 reseeds, dropped)


@dataclass
class MLEFit:
    """The best fit over the scale grid and restarts, and its scale k."""
    fit: EMFit
    k: int

    @property
    def mixture(self) -> FiniteMixture:
        return self.fit.mixture

    @property
    def log_likelihood(self) -> float:
        return self.fit.log_likelihood


def mle_fit(xs, n_components: int, k_grid, kernel: ProductKernel, box: MeanBox,
            restarts: int = 1, seed: int = 0, max_iters: int = 500,
            tol: float = 1e-8) -> MLEFit:
    """Best projected-EM fit over an integer scale grid and random restarts.

    Restart 0 uses the deterministic quantile initialization; later restarts
    draw initial means from streams derived from (seed, scale index, restart),
    so the result is a pure function of its arguments.
    """
    k_grid = tuple(int(k) for k in k_grid)
    if not k_grid:
        raise ValueError("k_grid must be nonempty")
    if restarts < 1:
        raise ValueError("need at least one restart")
    best = None
    for ki, k in enumerate(k_grid):
        for r in range(restarts):
            if r == 0:
                rng = None
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(ki, r))
                )
            fit = em_fit(xs, n_components, k, kernel, box,
                         init_rng=rng, max_iters=max_iters, tol=tol)
            if best is None or fit.log_likelihood > best[0].log_likelihood:
                best = (fit, k)
    return MLEFit(best[0], best[1])


@dataclass(frozen=True, eq=False)
class MixtureDictionary:
    """Finite dictionary of dilated kernels with means on the C-order
    product lattice of its per-axis means.

    Holds the axes only; :meth:`means` and :meth:`table` build the rows
    they are asked for.  :func:`greedy_fit` scores the elements per axis
    from `axes` and builds table rows only for its candidates.
    """

    kernel: ProductKernel
    k: int
    axes: tuple                 # per-axis means, one 1-D array per axis
    grid: TensorGrid

    @property
    def size(self) -> int:
        return math.prod(a.size for a in self.axes)

    def means(self, rows=slice(None)) -> np.ndarray:
        """The lattice rows (a slice, index list or index) as indexing the
        (M, p) lattice would give them, from those rows' indices only."""
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(self.size))
        index = np.unravel_index(rows, [a.size for a in self.axes])
        return np.stack([a[i] for a, i in zip(self.axes, index)], axis=-1)

    def table(self, rows=slice(None)) -> np.ndarray:
        """Element values at the grid nodes of the given rows, (r, G).

        One lattice_pdf call on the per-axis offsets x_a - mu_a, which
        broadcast into (r,) + (n,)*p; a row's bits do not depend on the rows
        evaluated with it.
        """
        p = self.kernel.dim
        mu = self.means(rows).reshape((-1,) + (1,) * p + (p,))
        offsets = [x[None] - mu[..., a] for a, x in enumerate(np.ix_(*self.grid.nodes))]
        return Dilation(self.kernel, self.k).lattice_pdf(offsets).reshape(mu.shape[0], -1)

    @property
    def values(self) -> np.ndarray:
        """The whole unweighted (M, G) table, built anew on every access."""
        return self.table()

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Element values at arbitrary points, shaped (M, N).

        Points are (N, p) or, for p = 1, (N,); evaluated by
        :func:`_component_log_pdf`, the one evaluator of the component density.
        """
        return np.exp(_component_log_pdf(self.kernel, self.k, self.means(), points))


def build_dictionary(kernel: ProductKernel, k: int, box: MeanBox,
                     means_per_axis: int, grid: TensorGrid) -> MixtureDictionary:
    """Dictionary over a means lattice of `means_per_axis` points per axis
    of the box, on the grid."""
    axes = (np.linspace(box.m_lower, box.m_upper, means_per_axis),) * kernel.dim
    return MixtureDictionary(kernel, int(k), axes, grid)


def _weighted_factors(dictionary: MixtureDictionary, weights) -> list:
    """Per axis a, (F_a w_a, the squared w_a-norms of F_a's rows), where
    F_a[j, i] = g(k (x_a,i - mu_a,j)) is the factor table of the dictionary's
    axis means (``Dilation.axis_factors``).  Filled 16 rows at a time, so F_a,
    in 1-D the whole (M, G) table, is never held beside F_a w_a."""
    dil = Dilation(dictionary.kernel, dictionary.k)
    out = []
    for x, mu, w in zip(dictionary.grid.nodes, dictionary.axes, weights):
        fw, norms = np.empty((mu.size, x.size)), np.empty(mu.size)
        for a, b in _row_blocks(mu.size, 16):
            f = dil.axis_factors([x - mu[a:b, None]])[0]
            np.multiply(f, w, out=fw[a:b])
            norms[a:b] = np.einsum("ij,ij->i", fw[a:b], f)
        out.append((fw, norms))
    return out


def _axis_product(mats, x: np.ndarray) -> np.ndarray:
    """(kron_a mats[a]) @ x.ravel() for a grid-shaped x, (M,), without the
    Kronecker product: each (m_a, n_a) matrix contracts the leading axis,
    and its new axis m_a goes last, so the result ends in C order."""
    for mat in mats:
        x = (mat @ x.reshape(mat.shape[1], -1)).T
    return x.ravel()


def _replay(dictionary: MixtureDictionary, W: np.ndarray, approx: np.ndarray,
            tol: float, exact):
    """The first index of the minimum of exact's scores over the dictionary,
    and exact's outputs there, given approx, those scores to within tol/2.

    Only the elements within tol of approx's minimum are scored exactly:
    exact(weighted, values) on the rows of their `grids._row_blocks(M, 4)`
    group, weighted as the whole table D·W would be.  The groups keep every
    row's place in OpenBLAS's groups of four, so their GEMVs and einsum
    norms have the bits of one product on the whole table at one BLAS
    thread; unlike that product's, their bits stay the same at two.  Where
    a rescored row's approx is further than tol/2 from its exact score, tol
    becomes twice that distance and the candidates are taken again.
    """
    blocks, scored = _row_blocks(dictionary.size, 4), {}
    while True:
        cands = np.flatnonzero(approx <= approx.min() + tol).tolist()
        for g in {min(i // 4, len(blocks) - 1) for i in cands if i not in scored}:
            a, b = blocks[g]
            values = dictionary.table(slice(a, b))
            outs = exact(values * W, values)
            scored.update((i, [out[i - a] for out in outs]) for i in range(a, b))
        err = max(abs(out[0] - approx[i]) for i, out in scored.items())
        if not err > tol / 2:
            break
        tol = 2.0 * err
    idx = min(cands, key=lambda i: scored[i][0])    # the first, on a tie
    return idx, scored[idx]


def _golden_section(fn, lo: float, hi: float, estimate=None) -> float:
    """Minimize a unimodal scalar function on [lo, hi], to a bracket of 1e-10.

    Two points are compared by fn's values, each computed at most once.
    With estimate(x) -> (value, radius), where fn(x) lies within radius of
    value, two points whose intervals value ± radius are disjoint are
    compared by those instead; they order the points as fn's values would,
    so the bracket and the point returned keep their bits.
    """
    values = {}

    def exact(x):
        if x not in values:
            values[x] = fn(x)
        return values[x]

    def less(x, y):
        if estimate is not None:
            (fx, rx), (fy, ry) = estimate(x), estimate(y)
            if fx + rx < fy - ry:
                return True
            if fx - rx > fy + ry:
                return False
        return exact(x) < exact(y)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while b - a > 1e-10:
        if less(c, d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def _l2_line(W: np.ndarray, e: np.ndarray, diff: np.ndarray, base: float,
             res: np.ndarray, wres: np.ndarray):
    """The squared L2 gap along a step, l -> sum(W (e + l diff)^2), as
    (its grid sum, an estimate for :func:`_golden_section`).

    The estimate is the exact quadratic Q(l) = base + 2 l B + l^2 C, with
    B = <e, diff>_W and C = <diff, diff>_W two grid sums, and the radius
    1e-12 (base + l^2 C).  Its bound: numpy's pairwise sum of G terms adds
    in a tree of depth at most h = 18 + ceil(log2(G / 128)) (28 on 257^2
    nodes), so with S = sum W |e| |diff| and u = 2^-53 the grid sum is
    within (h + 6) u (base + 2 l S + l^2 C) of Q(l), counting the roundings
    of r = e + l diff and of W r r; Q's floating evaluation from the sums
    base, B and C is within the same.  For W >= 0, Cauchy-Schwarz gives
    2 l S <= 2 l sqrt(base C) <= base + l^2 C, so the two differ by at most
    4 (h + 6) u (base + l^2 C): 1.5e-14 (base + l^2 C) on 257^2 nodes and
    2.5e-14 on 2^40, so the radius is about 40 times the bound or more.
    Both work on the buffers res and wres, which they overwrite.
    """
    np.multiply(W, diff, out=wres)
    b = float(np.sum(np.multiply(wres, e, out=res)))
    c = float(np.sum(np.multiply(wres, diff, out=res)))

    def grid_sum(l):
        # sum(W * r * r) with r = e + l * diff, in that order, in place.
        np.multiply(l, diff, out=res)
        np.add(e, res, out=res)
        np.multiply(W, res, out=wres)
        np.multiply(wres, res, out=wres)
        return float(np.sum(wres))

    def estimate(l):
        return base + 2.0 * l * b + l * l * c, 1e-12 * (base + l * l * c)

    return grid_sum, estimate


@dataclass
class GreedyFit:
    """Iterate sequence of a greedy convex-combination fit."""

    mixtures: list              # FiniteMixture per iterate, 1..max(keep)
    fields: dict                # kept iterate count -> its grid values, shaped like the grid
    gaps: np.ndarray            # squared quadrature L2 gap to the target per iterate


def greedy_fit(target: GridFunction, dictionary: MixtureDictionary,
               keep, objective: str = "l2") -> GreedyFit:
    """Greedy convex-hull approximation of a grid density.

    Each iterate adds one dictionary element with a convex step
    pi <- (1 - lambda) pi + lambda e_new; lambda comes from a golden-section
    line search on [0, 1].  For the squared-L2 objective the element is chosen
    by exact vectorized minimization over the dictionary; for KL the element
    maximizes the linearized gain, which keeps every step nonincreasing.
    The L2 search compares two points by the step's exact quadratic where
    their rounding intervals are apart, and by grid sums only where they
    overlap (:func:`_l2_line`), so lambda has the bits of a search on grid
    sums alone; the KL search evaluates the objective on the nodes where
    the target is positive.

    In dim > 1 no (M, G) table is built; in 1-D the one factor table is the
    weighted table.  The dictionary's means are the lattice of its `axes`,
    so the weighted table D·W is k^p times the Kronecker product of the
    per-axis tables F_a w_a (:func:`_weighted_factors`), and every element
    is scored by one contraction per axis.  Those scores only name the
    candidates within 1e-9 of the best, relative to it or, for L2, to the
    current objective if that is larger.  :func:`_replay` scores the candidates again from
    their table rows with the whole-table expressions and picks as np.argmin
    (np.argmax for KL) would on the whole table, so every iterate has its
    bits.  The first KL step logs 16 table rows at a time, and the chosen
    element's values come from ``dictionary.table``.

    The fit runs to the largest of the iterate counts `keep`.  It returns
    one mixture and one squared L2 gap (``lq_norm`` of the field minus the
    target, squared) per iterate, and the field on the target grid (the
    running convex combination of dictionary rows, which callers use instead
    of evaluating the mixture again) of the kept iterates only.
    """
    keep = {int(n) for n in keep}
    if not keep or min(keep) < 1:
        raise ValueError("keep must name iterate counts >= 1")
    if dictionary.size == 0:
        raise ValueError("empty dictionary")
    if objective not in ("l2", "kl"):
        raise ValueError("objective must be 'l2' or 'kl'")
    if not target.grid.same_lattice(dictionary.grid):
        raise ValueError("target and dictionary live on different grids")

    t = target.values.ravel()
    W = target.grid.weight_tensor().ravel()
    # <d, d>_W is k^2p times the outer product of the per-axis norms.
    weighted, norms = zip(*_weighted_factors(dictionary, target.grid.weights))
    scale = float(dictionary.k) ** target.grid.dim
    dd = scale ** 2 * reduce(np.multiply.outer, norms).ravel()

    def dw_dot(x):      # D·W @ x, per axis
        return scale * _axis_product(weighted, x.reshape(target.grid.shape))

    weights: dict[int, float] = {}
    v = np.zeros_like(t)
    mixtures, fields, gaps = [], {}, []

    if objective == "kl":
        mask = t > 0
        tW = t * W
        tW_mask, log_t = tW[mask], np.log(t[mask])

        def kl_obj(vals):       # vals on the nodes where t > 0
            if np.any(vals < 1e-300):
                return math.inf
            return float(np.sum(tW_mask * (log_t - np.log(vals))))
    else:
        res, wres = np.empty_like(t), np.empty_like(t)

    for step in range(1, max(keep) + 1):
        if objective == "l2":
            e = v - t
            ev, vv = float(np.sum(W * e * v)), float(np.sum(W * v * v))
            base = float(np.sum(W * e * e))

            def cand_obj(dw_e, dw_v, norms):
                b = dw_e - ev                           # <e, d - v>_W
                if step == 1:
                    c = norms                           # v = 0
                    lam_cand = np.ones_like(b)
                else:
                    c = norms - 2.0 * dw_v + vv
                    with np.errstate(divide="ignore", invalid="ignore"):
                        lam_cand = np.clip(np.where(c > 0, -b / c, 0.0), 0.0, 1.0)
                return base + 2.0 * lam_cand * b + lam_cand ** 2 * c, lam_cand

            approx, _ = cand_obj(dw_dot(e), dw_dot(v), dd)
            idx, (_, lam_cand) = _replay(
                dictionary, W, approx, 1e-9 * max(abs(approx.min()), base),
                lambda dw, d: cand_obj(dw @ e, dw @ v, np.einsum("ij,ij->i", dw, d)))
        elif step == 1:
            # <log d, t>_W for every element, 16 table rows logged in place
            # at a time: no (M, G) table, and the bits of one GEMV.
            scores = np.empty(dictionary.size)
            for start, stop in _row_blocks(dictionary.size, 16):
                block = dictionary.table(slice(start, stop))
                np.log(np.maximum(block, 1e-300, out=block), out=block)
                scores[start:stop] = block @ tW
            idx = int(np.argmax(scores))
        else:
            q = t / np.maximum(v, 1e-300)
            approx = -dw_dot(q)
            idx, _ = _replay(dictionary, W, approx, 1e-9 * abs(approx.min()),
                             lambda dw, d: (-(dw @ q),))

        d = dictionary.table([idx])[0]
        if step == 1:
            lam = 1.0
        elif objective == "l2":
            grid_sum, estimate = _l2_line(W, e, d - v, base, res, wres)
            lam = _golden_section(grid_sum, 0.0, 1.0, estimate)
            if grid_sum(lam) > grid_sum(lam_cand):
                lam = float(lam_cand)
            del grid_sum, estimate      # they hold e and d - v, two grid vectors
        else:
            v_m, d_m = v[mask], d[mask]
            lam = _golden_section(lambda l: kl_obj((1.0 - l) * v_m + l * d_m), 0.0, 1.0 - 1e-12)

        v = (1.0 - lam) * v + lam * d
        for key in list(weights):
            weights[key] *= (1.0 - lam)
        weights[idx] = weights.get(idx, 0.0) + lam

        idxs = sorted(weights)
        w = np.array([weights[i] for i in idxs])
        mix = FiniteMixture(w / w.sum(), dictionary.means(idxs),
                            dictionary.k, dictionary.kernel)
        mixtures.append(mix)
        field = v.reshape(target.grid.shape)
        if step in keep:
            fields[step] = field
        gaps.append(lq_norm(GridFunction(target.grid, field - target.values), 2) ** 2)

    return GreedyFit(mixtures, fields, np.asarray(gaps))


@dataclass(frozen=True, eq=False)
class MixingApproximant:
    """A target smoothed by one dilated kernel, realized on a grid.

    The mixing law over component means is the target density, sampled on the
    grid; the realized grid function is the convolution of the two, and the
    second moment of the component density under that law is the target
    smoothed by the squared kernel, the numerator shared by both
    integral-ratio constants.  All three live on the one grid.
    """

    target: GridFunction        # the target density sampled on the grid
    realized: GridFunction
    second_moment: GridFunction


def build_mixing_approximant(target, kernel: ProductKernel, k: int,
                             grid: TensorGrid) -> MixingApproximant:
    """Sample a target on the grid and smooth it by the dilated kernel and by
    its square onto it."""
    f_gf = sample_on_grid(target, grid)
    dil = Dilation(kernel, int(k))
    if grid.dim > 1:
        # Pinned to the widened FFT sum of convolve, whose per-axis
        # numpy.fft transforms keep the bits of scipy's on the whole padded
        # lattice.  smooth's per-axis sum differs from it only in the last
        # bits, but greedy_fit's golden-section L2 step settles its weights
        # only to rounding noise (inside the rounding radius its path
        # follows the grid sums), so those bits move the KL of the 2-D
        # greedy iterates by ~2e-6 relative, beyond the benchmark's 1e-9
        # references.  A closed-form L2 step would let this take smooth too,
        # and _fft_lattice_sum, _default_out_grid, _fft_lattice, restrict and
        # the memory budget's FFT term (harness.predicted_peak) go.
        realized = restrict(convolve(f_gf, dil), grid.box)
    else:
        # Pinned too, to smooth's size rule (the Toeplitz sum up to 2^23 node
        # pairs, one FFT line beyond): an FFT line at every size moves the
        # 1-D greedy's L2 and KL rows by up to 2.1e-8 relative.
        realized = smooth(target, dil, grid)
    return MixingApproximant(f_gf, realized, smooth(target, SquaredDilation(dil), grid))
