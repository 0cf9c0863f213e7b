"""Bound constants and right-hand sides for the mixture approximation and
estimation inequalities, plus covering-number machinery.

The constants fall in two groups: computable ones (the log-ratio sup A, the
factor gamma, the log-kernel Lipschitz constant B, and the two integral-ratio
constants) and certificate ones (C*, C1, C2) that are fitted from sweep
measurements and then checked for domination on held-out cells.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import CHECK_SLACK, GridCompatibilityError, GridFunction, SupportBox, TensorGrid, sample_on_grid
from .kernels import ProductKernel
from .mixtures import FiniteMixture, MeanBox, MixingApproximant, MixtureDictionary

__all__ = [
    "BoundConstants",
    "BoundReport",
    "compute_A_logratio",
    "compute_gamma",
    "estimate_B_lipschitz",
    "hull_kl_constant",
    "target_kl_constant",
    "kl_bound_two_stage",
    "mle_risk_bound",
    "mle_risk_bound_split",
    "mle_risk_concentration",
    "covering_number",
    "dudley_entropy_integral",
    "GAMMA_AT_ZERO",
]

GAMMA_AT_ZERO = 4.0 * (math.log(3.0) + 0.5)


@dataclass
class BoundConstants:
    """Evaluated constants for one (kernel, scale, mean box, domain) setup."""

    A_logratio: float = math.nan
    gamma: float = math.nan
    C_hull: float = math.nan        # integral ratio weighting the hull-KL bound
    C_target: float = math.nan      # squared-denominator ratio for the target-KL bound
    B_lipschitz: float = math.nan
    A_box: float = math.nan         # width of the mean box
    C_star: float = math.nan        # fitted certificate
    C1: float = math.nan            # fitted certificate
    C2: float = math.nan            # fitted certificate
    beta_lower: float = math.nan
    beta_upper: float = math.nan

    def validate(self):
        if math.isfinite(self.A_logratio) and math.isfinite(self.gamma):
            expect = compute_gamma(self.A_logratio)
            if abs(self.gamma - expect) > 1e-9 * max(1.0, expect):
                raise ValueError("gamma is inconsistent with the log-ratio sup")
        for name in ("A_logratio", "gamma", "C_hull", "C_target", "B_lipschitz",
                     "A_box", "C_star", "C1", "C2", "beta_lower", "beta_upper"):
            v = getattr(self, name)
            if not math.isnan(v) and v < 0:
                raise ValueError(f"constant {name} must be nonnegative, got {v}")


@dataclass(frozen=True)
class BoundReport:
    """One domination check: a measured value against an evaluated bound."""

    bound_name: str
    rhs: float
    measured: float
    dominated: bool
    inputs: dict = field(default_factory=dict)

    @staticmethod
    def check(bound_name: str, measured: float, rhs: float, **inputs) -> "BoundReport":
        return BoundReport(
            bound_name=bound_name,
            rhs=float(rhs),
            measured=float(measured),
            dominated=bool(measured <= rhs * (1.0 + CHECK_SLACK)),
            inputs=inputs,
        )


def _axis_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    return np.linspace(lo, hi, n)


def _axis_probe(marginal, k: int, box: MeanBox, domain: SupportBox,
                axis: int, n: int):
    """Probe table log g(k (x - m)) over n domain nodes by n mean nodes of one
    axis, returned with the mean nodes."""
    xs = _axis_grid(domain.lower[axis], domain.upper[axis], n)
    ms = _axis_grid(box.m_lower, box.m_upper, n)
    return marginal.log_pdf(k * (xs[:, None] - ms[None, :])), ms


def _refined_sup(probe, points_per_axis: int, what: str) -> float:
    """Probe at points_per_axis, then once refined to 2 points_per_axis - 1;
    a disagreement above 1% is warned.  An infinite coarse value is final."""
    coarse = probe(points_per_axis)
    if math.isinf(coarse):
        return math.inf
    fine = probe(2 * points_per_axis - 1)
    if abs(fine - coarse) > 0.01 * max(abs(fine), 1e-12):
        warnings.warn(
            f"{what} changed by more than 1% under refinement "
            f"({coarse:.6g} -> {fine:.6g})",
            RuntimeWarning,
        )
    return fine


def compute_A_logratio(kernel: ProductKernel, k: int, box: MeanBox,
                       domain: SupportBox, points_per_axis: int = 256) -> float:
    """Sup over mean pairs and domain points of the component log ratio.

    The ratio separates per coordinate for product kernels over boxes, so the
    sup is the sum over axes of per-axis sups.  Returns math.inf when the
    marginal vanishes inside the probed range (compact-support marginals).
    The probe grid is refined once; a persisting 1% disagreement is warned.
    """
    k = int(k)

    def total(n):
        s = 0.0
        for axis in range(kernel.dim):
            lg, _ = _axis_probe(kernel.marginal, k, box, domain, axis, n)
            spread = lg.max(axis=1) - lg.min(axis=1)
            if not np.all(np.isfinite(spread)):
                return math.inf
            s += float(spread.max())
        return s

    return _refined_sup(total, points_per_axis, "log-ratio sup")


def compute_gamma(a_logratio: float) -> float:
    """gamma = 4 (log(3 sqrt(e)) + A) = 4 (log 3 + 1/2 + A)."""
    if not math.isfinite(a_logratio):
        raise ValueError("log-ratio sup is infinite; gamma is undefined")
    if a_logratio < 0:
        raise ValueError("log-ratio sup must be nonnegative")
    return 4.0 * (math.log(3.0) + 0.5 + a_logratio)


def estimate_B_lipschitz(kernel: ProductKernel, k: int, box: MeanBox,
                         domain: SupportBox, points_per_axis: int = 128) -> float:
    """Lipschitz constant of the log component density in its mean.

    Max over probe triples (x, m1, m2) of |log g_k(x - m1) - log g_k(x - m2)|
    divided by the l1 distance of the means.  Both numerator and denominator
    are sums over axes, so the overall sup equals the worst per-axis sup.
    Only neighbouring probe means are compared: a chord's slope is a weighted
    mean of the neighbouring slopes it spans, so it never exceeds their max.
    Refined once like the log-ratio sup.  Raises on infinite log ratios
    (compact-support marginals).
    """
    k = int(k)
    if box.m_upper - box.m_lower <= 0:
        return 0.0

    def sweep(n):
        best = 0.0
        for axis in range(kernel.dim):
            lg, ms = _axis_probe(kernel.marginal, k, box, domain, axis, n)
            if np.any(np.isinf(lg)):
                raise ValueError("log ratio is infinite on the probe grid")
            slopes = np.abs(np.diff(lg, axis=1)) / np.diff(ms)
            best = max(best, float(np.max(slopes, initial=0.0)))
        return best

    return _refined_sup(sweep, points_per_axis, "log-kernel Lipschitz sup")


def _moment_ratio_fields(mixing, domain_grid: TensorGrid):
    """Numerator and denominator fields of the integral-ratio constants."""
    if isinstance(mixing, FiniteMixture):
        pts = domain_grid.mesh().reshape(-1, domain_grid.dim)
        comp = np.exp(mixing.component_log_pdf(pts))
        numer = (comp ** 2 @ mixing.weights).reshape(domain_grid.shape)
        denom = (comp @ mixing.weights).reshape(domain_grid.shape)
        return numer, denom
    if isinstance(mixing, MixingApproximant):
        if not mixing.realized.grid.same_lattice(domain_grid):
            raise GridCompatibilityError(
                "domain grid differs from the grid the mixing approximant is realized on"
            )
        return mixing.second_moment.values, mixing.realized.values
    raise TypeError("mixing must be a MixingApproximant or a FiniteMixture")


def _guard_denominator(numer: np.ndarray, denom: np.ndarray):
    bad = (denom < 1e-300) & (numer > 0)
    if np.any(bad):
        raise ValueError("mixing density vanishes inside the domain")


def hull_kl_constant(mixing, domain_grid: TensorGrid) -> float:
    """Integral over the domain of (second moment / first moment) of the
    component density under the mixing law; weights the hull-KL bound."""
    numer, denom = _moment_ratio_fields(mixing, domain_grid)
    _guard_denominator(numer, denom)
    ratio = np.where(denom > 0, numer / np.maximum(denom, 1e-300), 0.0)
    return float(domain_grid.integrate(ratio))


def target_kl_constant(mixing, target, domain_grid: TensorGrid) -> float:
    """Same ratio with a squared denominator, weighted by the target density."""
    numer, denom = _moment_ratio_fields(mixing, domain_grid)
    _guard_denominator(numer, denom)
    fv = (target.values if isinstance(target, GridFunction)
          else sample_on_grid(target.pdf, domain_grid).values)
    ratio = np.where(denom > 0, numer / np.maximum(denom, 1e-300) ** 2, 0.0)
    return float(domain_grid.integrate(ratio * fv))


def kl_bound_two_stage(epsilon: float, beta: float, C: float, n: int) -> float:
    """Smoothing term plus convex-hull term: eps/beta + C/(n beta)."""
    if epsilon < 0 or beta <= 0 or C < 0 or n < 1:
        raise ValueError("need epsilon, C >= 0, beta > 0, n >= 1")
    return epsilon / beta + C / (n * beta)


def mle_risk_bound(epsilon: float, beta: float, gamma: float, C_star: float,
                   n: int, N: int, A_box: float, B: float, p: int) -> float:
    """Expected-KL bound for the constrained MLE.

    eps/beta + gamma^2 C*^2 / n + gamma (2 n p / N) log(N A B e).
    """
    if beta <= 0 or n < 1 or N < 1 or p < 1:
        raise ValueError("need beta > 0 and positive n, N, p")
    arg = N * A_box * B * math.e
    if arg <= 1.0:
        raise ValueError("nonpositive log argument: need N * A * B * e > 1")
    return (
        epsilon / beta
        + gamma ** 2 * C_star ** 2 / n
        + gamma * (2.0 * n * p / N) * math.log(arg)
    )


def mle_risk_bound_split(epsilon: float, beta: float, C1: float, C2: float,
                         n: int, N: int) -> float:
    """Independent-rate form: eps/beta + C1/n + C2/sqrt(N)."""
    if beta <= 0 or n < 1 or N < 1 or C1 < 0 or C2 < 0:
        raise ValueError("need beta > 0, positive n and N, nonnegative constants")
    return epsilon / beta + C1 / n + C2 / math.sqrt(N)


def mle_risk_concentration(epsilon: float, beta_lower: float, beta_upper: float,
                           n: int, N: int, dudley_integral: float, t: float,
                           C_universal: float) -> float:
    """Concentration form of the expected-KL bound, valid with probability
    at least 1 - exp(-t).

    eps/bl + (8 bu^2 / (n bl^2)) (2 + log(bu/bl))
           + (1/sqrt(N)) ((bu C / bl^2) J + 8 bu / bl)
           + sqrt(t/N) 4 sqrt(2) log(bu/bl),
    with J the covering-number entropy integral.
    """
    if not 0 < beta_lower <= beta_upper:
        raise ValueError("need 0 < beta_lower <= beta_upper")
    if n < 1 or N < 1 or t < 0 or dudley_integral < 0:
        raise ValueError("need positive n, N and nonnegative t, integral")
    log_ratio = math.log(beta_upper / beta_lower)
    return (
        epsilon / beta_lower
        + (8.0 * beta_upper ** 2 / (n * beta_lower ** 2)) * (2.0 + log_ratio)
        + (1.0 / math.sqrt(N)) * (
            (beta_upper * C_universal / beta_lower ** 2) * dudley_integral
            + 8.0 * beta_upper / beta_lower
        )
        + math.sqrt(t / N) * 4.0 * math.sqrt(2.0) * log_ratio
    )


def _rms_distances(vals: np.ndarray) -> np.ndarray:
    """(M, M) empirical rms distances between the rows of an (M, N) table."""
    dist = np.empty((vals.shape[0], vals.shape[0]))
    for j, row in enumerate(vals):
        dist[j] = np.sqrt(np.mean((vals - row) ** 2, axis=1))
    return dist


def _greedy_cover(dist: np.ndarray, delta: float) -> int:
    """Greedy cover size at radius delta from a distance matrix; centers are
    taken in ascending index order and cover every element closer than delta."""
    uncovered = np.ones(dist.shape[0], dtype=bool)
    count = 0
    while np.any(uncovered):
        center = int(np.argmax(uncovered))
        uncovered &= dist[center] >= delta
        uncovered[center] = False
        count += 1
    return count


def covering_number(dictionary: MixtureDictionary, delta: float, xs) -> int:
    """Greedy cover size of the dictionary under the empirical rms distance.

    Greedy covering overestimates the minimal cover by at most the standard
    factor; the estimate is reported as-is.  Deterministic: centers are taken
    in ascending index order.
    """
    if delta <= 0:
        raise ValueError("covering radius must be positive")
    return _greedy_cover(_rms_distances(dictionary.evaluate_at(xs)), delta)


def dudley_entropy_integral(dictionary: MixtureDictionary, xs, beta_upper: float,
                            levels: int = 17) -> float:
    """Entropy integral of sqrt(log covering number) over (0, beta_upper].

    Evaluated as a trapezoid sum on a logarithmic radius grid from beta_upper
    down to beta_upper/256, plus a constant-integrand head term for the
    remaining (0, beta_upper/256] piece.  The distance matrix is computed
    once and covered at every radius.
    """
    if beta_upper <= 0:
        raise ValueError("beta_upper must be positive")
    deltas = beta_upper * np.logspace(-math.log10(256.0), 0.0, levels)
    dist = _rms_distances(dictionary.evaluate_at(xs))
    integrand = np.array([
        math.sqrt(math.log(max(_greedy_cover(dist, d), 1))) for d in deltas
    ])
    integral = float(np.trapezoid(integrand, deltas))
    integral += deltas[0] * integrand[0]
    return integral
