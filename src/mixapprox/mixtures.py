"""Finite location-scale mixtures: evaluation, sampling, EM fitting, and
greedy convex-hull approximation over a dictionary of shifted dilated kernels.

A mixture holds simplex weights, means inside a box, and one shared integer
scale.  EM is projected: means are clamped to the box after every M-step,
which preserves the update's argmax property for both supported marginals
(gaussian: weighted mean; laplace: weighted median).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import logsumexp

from .grids import GridFunction, SupportBox, TensorGrid, convolve, restrict, sample_on_grid
from .kernels import Dilation, ProductKernel, SquaredDilation, dilate

__all__ = [
    "MeanBox",
    "FiniteMixture",
    "MixingApproximant",
    "MixtureDictionary",
    "EMFit",
    "MLEFit",
    "GreedyFit",
    "mixture_eval",
    "mixture_sample",
    "log_likelihood",
    "em_fit",
    "mle_fit",
    "lattice_means",
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
        return np.clip(means, self.m_lower, self.m_upper)

    def sample(self, n: int, rng) -> np.ndarray:
        return rng.uniform(self.m_lower, self.m_upper, size=(n, self.dim))

    def as_support_box(self) -> SupportBox:
        return SupportBox((self.m_lower,) * self.dim, (self.m_upper,) * self.dim)


def _component_log_pdf(kernel: ProductKernel, k: int, means: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """Log of the dilated component k^p g(k (x - m)) at every point and mean.

    x is (N, p) or, for p = 1, (N,); means is (n, p).  Returns (N, n).  The
    marginal's log density is added one (N, n) pass per axis, in axis order.
    A Gaussian in p > 1 instead expands the squared distance, so the whole
    matrix comes from one GEMM.  Gaussian EM does not come here: `em_fit`
    builds its own centred (n, N) step; Laplace EM does.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    p = x.shape[1]
    marg = kernel.marginal
    if marg.name == "gaussian" and p > 1:
        sq = (
            np.sum(x * x, axis=1)[:, None]
            - 2.0 * (x @ means.T)
            + np.sum(means * means, axis=1)[None, :]
        )
        return p * (math.log(k) - 0.5 * math.log(2.0 * math.pi)) - 0.5 * k ** 2 * sq
    out = marg.log_pdf(k * (x[:, 0, None] - means[None, :, 0]))
    for axis in range(1, p):
        out += marg.log_pdf(k * (x[:, axis, None] - means[None, :, axis]))
    return p * math.log(k) + out


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
    def n(self) -> int:
        return int(self.weights.shape[0])

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def component_log_pdf(self, x: np.ndarray) -> np.ndarray:
        """Log density of each component at each point, shaped (N, n).

        Evaluated by :func:`_component_log_pdf`, the one evaluator of the
        component density.
        """
        return _component_log_pdf(self.kernel, self.k, self.means, x)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        comp = self.component_log_pdf(x)
        with np.errstate(divide="ignore"):
            logw = np.log(np.maximum(self.weights, 1e-300))
        return logsumexp(comp + logw[None, :], axis=1)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar_grid = x.ndim >= 2 and x.shape[-1] == self.dim
        if scalar_grid:
            lead = x.shape[:-1]
            out = np.exp(self.log_pdf(x.reshape(-1, self.dim)))
            return out.reshape(lead)
        return np.exp(self.log_pdf(x))

    def sample(self, n: int, rng) -> np.ndarray:
        comp = rng.choice(self.n, size=n, p=self.weights)
        z = self.kernel.sample(n, rng) / self.k
        if z.ndim == 1:
            z = z[:, None]
        return self.means[comp] + z


def mixture_eval(mix: FiniteMixture, x) -> np.ndarray:
    """Weighted-sum density value(s); log-sum-exp internally."""
    return mix.pdf(x)


def mixture_sample(mix: FiniteMixture, seed, n: int) -> np.ndarray:
    """Draw n points reproducibly from a seed or an existing Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return mix.sample(n, rng)


def log_likelihood(mix: FiniteMixture, xs) -> float:
    """Sum of log mixture densities; -inf when a sample escapes the support."""
    lp = mix.log_pdf(np.asarray(xs, dtype=float))
    if np.any(np.isneginf(lp)):
        return -math.inf
    return float(np.sum(lp))


@dataclass
class EMFit:
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
    if rng is None:
        qs = (np.arange(n) + 0.5) / n
        means = np.quantile(xs, qs, axis=0)
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

    Gaussian step, for every p: with c the mean-box midpoint, the log-joint
    log w_j + log k^p g(k (x_i - m_j)) is R[j, i] - (k^2/2)|x_i - c|^2 plus a
    constant, where R = (m - c) @ (k^2 (x - c))^T + (log w - (k^2/2)|m - c|^2)
    comes from one GEMM.  The per-sample term cancels in the responsibilities,
    so max, exp and sum run over the components (axis 0 of the (n, N) R), and
    it is added back to the log-likelihood only.  Counts and weighted sums
    come from one product exp(R - max) @ [1/denom, (x - c)/denom].  The
    Laplace step evaluates `_component_log_pdf` and takes weighted medians.

    The trace of log-likelihood values is nondecreasing within 1e-9 between
    ordinary iterations.  A starving component (weight below 1e-12) is
    re-seeded once, then dropped with a warning; either event may reset the
    trace monotonicity at that single step.
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
    if gaussian:
        # Centring keeps the expanded square accurate, and the fit
        # translation-invariant, on a mean box far from the origin.
        c = 0.5 * (box.m_lower + box.m_upper)
        xc = xs - c
        # k^2 (x - c)^T over a row of ones that picks up R's constant term.
        sample_rows = np.ones((p + 1, N))
        sample_rows[:p] = (k * k) * xc.T
        ll_dropped = (N * p * (math.log(k) - 0.5 * math.log(2.0 * math.pi))
                      - 0.5 * k * k * float(np.sum(xc * xc)))
        rhs = np.empty((N, 1 + p))
    else:
        # The Laplace M-step takes weighted medians; each axis is sorted once.
        orders = [np.argsort(xs[:, d]) for d in range(p)]

    trace = []
    prev = -math.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        with np.errstate(divide="ignore"):
            logw = np.log(np.maximum(weights, 1e-300))
        if gaussian:
            mc = means - c
            const = logw - 0.5 * k * k * np.sum(mc * mc, axis=1)
            joint = np.column_stack([mc, const]) @ sample_rows
            mx = joint.max(axis=0)
            joint -= mx
            np.exp(joint, out=joint)
            denom = joint.sum(axis=0)
            ll = float(np.sum(mx + np.log(denom))) + ll_dropped
            rhs[:, 0] = 1.0 / denom
            np.multiply(xc, rhs[:, :1], out=rhs[:, 1:])
            moments = joint @ rhs
            counts = moments[:, 0]
        else:
            comp = _component_log_pdf(kernel, k, means, xs)
            joint = comp + logw[None, :]
            # Inline log-sum-exp so the shifted exponentials are reused for the
            # responsibilities.
            mx = joint.max(axis=1)
            shifted = np.exp(joint - mx[:, None])
            denom = shifted.sum(axis=1)
            ll = float(np.sum(mx + np.log(denom)))
            resp = shifted / denom[:, None]
            counts = resp.sum(axis=0)

        starving = np.where(counts / N < 1e-12)[0]
        if starving.size:
            keep = np.ones(weights.shape[0], dtype=bool)
            for idx in starving:
                if idx in reseeded:
                    keep[idx] = False
                    dropped += 1
                    warnings.warn(
                        f"dropping starved mixture component {idx}", RuntimeWarning
                    )
                else:
                    reseeded.add(int(idx))
                    reseeds += 1
                    means[idx] = box.sample(1, reseed_rng)[0]
            w = np.where(keep, np.maximum(weights, 1.0 / (10 * N)), 0.0)[keep]
            weights, means = w / w.sum(), means[keep]
            trace.append(ll)
            prev = -math.inf  # restart monotonicity after the intervention
            continue

        new_w = counts / N
        if gaussian:
            new_means = c + moments[:, 1:] / counts[:, None]
        else:
            new_means = np.column_stack([
                _weighted_medians(xs[:, d], order, resp) for d, order in enumerate(orders)
            ])
        weights, means = new_w / new_w.sum(), box.clamp(new_means)

        trace.append(ll)
        if ll - prev < tol and math.isfinite(prev):
            converged = True
            break
        prev = ll

    mix = FiniteMixture(weights, means, k, kernel)
    final_ll = log_likelihood(mix, xs)
    trace.append(final_ll)
    return EMFit(mix, np.asarray(trace), it, converged, reseeds, dropped)


@dataclass
class MLEFit:
    fit: EMFit
    k: int
    scanned: list               # (k, restart, log-likelihood) triples

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
    scanned = []
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
            scanned.append((k, r, fit.log_likelihood))
            if best is None or fit.log_likelihood > best[0].log_likelihood:
                best = (fit, k)
    return MLEFit(best[0], best[1], scanned)


@dataclass(frozen=True, eq=False)
class MixtureDictionary:
    """Finite dictionary of dilated kernels with means on a lattice."""

    kernel: ProductKernel
    k: int
    means: np.ndarray           # (M, p)
    grid: TensorGrid
    values: np.ndarray | None = None    # (M, G) element values at the grid nodes

    @property
    def size(self) -> int:
        return int(self.means.shape[0])

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Element values at arbitrary points, shaped (M, N).

        Points are (N, p) or, for p = 1, (N,); evaluated by
        :func:`_component_log_pdf`, the one evaluator of the component density.
        """
        return np.exp(_component_log_pdf(self.kernel, self.k, self.means, points)).T


def check_dictionary_size(means_per_axis: int, grid: TensorGrid) -> None:
    """Size guard of the value table :func:`build_dictionary` builds for
    :func:`greedy_fit`: at most 10^4 means and 2e7 table entries."""
    size = means_per_axis ** grid.dim
    if size > 10_000:
        raise ValueError("dictionary exceeds 10^4 mean points")
    if size * np.prod(grid.shape) > 2e7:
        raise ValueError("dictionary value table would exceed the memory guard")


def lattice_means(box: MeanBox, means_per_axis: int, dim: int) -> np.ndarray:
    """Means on the box lattice with means_per_axis nodes per axis, (M, dim)."""
    axes = [np.linspace(box.m_lower, box.m_upper, means_per_axis)] * dim
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)


def build_dictionary(kernel: ProductKernel, k: int, box: MeanBox,
                     means_per_axis: int, grid: TensorGrid) -> MixtureDictionary:
    """Dictionary over a means lattice with its value table on the grid;
    capped at 10^4 elements.  The (M, G) table is one lattice_pdf call on the
    per-axis offsets x_a - mu_a, which broadcast into (m,)*p + (n,)*p."""
    check_dictionary_size(means_per_axis, grid)
    p = kernel.dim
    means = lattice_means(box, means_per_axis, p)
    mu = np.linspace(box.m_lower, box.m_upper, means_per_axis)
    lattice = np.ix_(*[mu] * p, *grid.nodes)
    offsets = [lattice[p + a] - lattice[a] for a in range(p)]
    vals = Dilation(kernel, int(k)).lattice_pdf(offsets).reshape(means.shape[0], -1)
    return MixtureDictionary(kernel, int(k), means, grid, vals)


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimize a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


@dataclass
class GreedyFit:
    """Iterate sequence of a greedy convex-combination fit."""

    mixtures: list              # FiniteMixture per iterate, 1..n_max
    fields: list                # grid values of each iterate, shaped like the grid
    objectives: np.ndarray      # objective value per iterate
    selected: list              # dictionary index added per iterate
    lambdas: list               # convex step size per iterate
    objective: str


def greedy_fit(target: GridFunction, dictionary: MixtureDictionary,
               n_max: int, objective: str = "l2") -> GreedyFit:
    """Greedy convex-hull approximation of a grid density.

    Each iterate adds one dictionary element with a convex step
    pi <- (1 - lambda) pi + lambda e_new; lambda comes from a golden-section
    line search on [0, 1].  For the squared-L2 objective the element is chosen
    by exact vectorized minimization over the dictionary; for KL the element
    maximizes the linearized gain, which keeps every step nonincreasing.

    Returns one mixture per iterate together with its field on the target
    grid (the running convex combination of dictionary rows, which callers
    use instead of evaluating the mixture again) and the objective values
    (squared L2 gap, or KL divergence, against the target).
    """
    if dictionary.size == 0:
        raise ValueError("empty dictionary")
    if dictionary.values is None:
        raise ValueError("greedy_fit needs the dictionary's value table (build_dictionary)")
    if objective not in ("l2", "kl"):
        raise ValueError("objective must be 'l2' or 'kl'")
    if not target.grid.same_lattice(dictionary.grid):
        raise ValueError("target and dictionary live on different grids")

    t = target.values.ravel()
    W = target.grid.weight_tensor().ravel()
    D = dictionary.values
    DW = D * W[None, :]
    dd = np.einsum("ij,ij->i", DW, D)      # <d, d>_W per element

    weights: dict[int, float] = {}
    v = np.zeros_like(t)
    mixtures, fields, objs, selected, lambdas = [], [], [], [], []

    if objective == "kl":
        mask = t > 0
        tW = t * W

        def kl_obj(vals):
            if np.any(vals[mask] < 1e-300):
                return math.inf
            return float(np.sum(tW[mask] * (np.log(t[mask]) - np.log(vals[mask]))))

    for step in range(1, n_max + 1):
        if objective == "l2":
            e = v - t
            b = DW @ e - float(np.sum(W * e * v))        # <e, d - v>_W
            c = dd - 2.0 * (DW @ v) + float(np.sum(W * v * v))
            if step == 1:
                lam_cand = np.ones_like(b)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    lam_cand = np.clip(np.where(c > 0, -b / c, 0.0), 0.0, 1.0)
            base = float(np.sum(W * e * e))
            cand_obj = base + 2.0 * lam_cand * b + lam_cand ** 2 * c
            idx = int(np.argmin(cand_obj))
            d = D[idx]
            if step == 1:
                lam = 1.0
            else:
                diff = d - v

                def fn(l, diff=diff, e=e):
                    r = e + l * diff
                    return float(np.sum(W * r * r))

                lam = _golden_section(fn, 0.0, 1.0)
                if fn(lam) > fn(lam_cand[idx]):
                    lam = float(lam_cand[idx])
        else:
            if step == 1:
                with np.errstate(divide="ignore"):
                    logD = np.log(np.maximum(D, 1e-300))
                scores = logD @ (t * W)
                idx = int(np.argmax(scores))
                d = D[idx]
                lam = 1.0
            else:
                grad_gain = DW @ (t / np.maximum(v, 1e-300))
                idx = int(np.argmax(grad_gain))
                d = D[idx]

                def fn(l, d=d):
                    return kl_obj((1.0 - l) * v + l * d)

                lam = _golden_section(fn, 0.0, 1.0 - 1e-12)

        v = (1.0 - lam) * v + lam * d
        for key in list(weights):
            weights[key] *= (1.0 - lam)
        weights[idx] = weights.get(idx, 0.0) + lam

        idxs = sorted(weights)
        w = np.array([weights[i] for i in idxs])
        mix = FiniteMixture(w / w.sum(), dictionary.means[idxs],
                            dictionary.k, dictionary.kernel)
        mixtures.append(mix)
        fields.append(v.reshape(target.grid.shape))
        selected.append(idx)
        lambdas.append(float(lam))
        if objective == "l2":
            r = v - t
            objs.append(float(np.sum(W * r * r)))
        else:
            objs.append(kl_obj(v))

    return GreedyFit(mixtures, fields, np.asarray(objs), selected, lambdas, objective)


@dataclass(frozen=True, eq=False)
class MixingApproximant:
    """A target smoothed by one dilated kernel, realized on a grid.

    The mixing law over component means is the target density itself; the
    realized grid function is the convolution of the two.
    """

    target: object              # TargetDensity
    kernel: ProductKernel
    k: int
    realized: GridFunction

    @cached_property
    def second_moment(self) -> GridFunction:
        """Target convolved with the squared dilated kernel, on the realized grid.

        The second moment of the component density under the mixing law, the
        numerator shared by both integral-ratio constants; built on first use.
        """
        grid = self.realized.grid
        f_gf = sample_on_grid(self.target.pdf, grid)
        return convolve(f_gf, SquaredDilation(dilate(self.kernel, self.k)), out_grid=grid)


def build_mixing_approximant(target, kernel: ProductKernel, k: int,
                             grid: TensorGrid) -> MixingApproximant:
    """Convolve a target with the dilated kernel onto the grid."""
    f_gf = sample_on_grid(target.pdf, grid)
    dil = dilate(kernel, int(k))
    if grid.dim > 1:
        # Kept on the widened FFT sum.  The exact per-axis sum differs from it
        # only in the last bits, but greedy_fit's golden-section L2 step settles
        # its weights only to rounding noise, so those bits move the KL of the
        # 2-D greedy iterates by ~1e-6 relative.  A closed-form L2 step would
        # let this take the per-axis sum too.
        realized = restrict(convolve(f_gf, dil, method="fft"), grid.box)
    else:
        realized = convolve(f_gf, dil, out_grid=grid)
    return MixingApproximant(target, kernel, int(k), realized)
