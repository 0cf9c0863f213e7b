"""Bound constants and right-hand sides for the mixture approximation and
estimation inequalities, plus covering-number machinery.

The constants fall in two groups: computable ones (the log-ratio sup A, the
factor gamma, the log-kernel Lipschitz constant B, and the two integral-ratio
constants) and certificate ones (C*, C1, C2) that are fitted from sweep
measurements and then checked for domination on held-out cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import CHECK_SLACK, SupportBox
from .kernels import ProductKernel
from .mixtures import MeanBox, MixingApproximant, MixtureDictionary

__all__ = [
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


def compute_A_logratio(kernel: ProductKernel, k: int, box: MeanBox,
                       domain: SupportBox) -> float:
    """Sup over mean pairs and domain points of the component log ratio
    log g(k(x - m1)) - log g(k(x - m2)), in closed form.

    The ratio separates per coordinate for product kernels over boxes, so the
    sup is the sum over axes of per-axis sups.  The closed form needs a
    symmetric, log-concave marginal g, as every shipped one is.  Then
    log g(k(x - m)) is concave in m with its peak at m = x, so at a domain
    point x the spread over the means is log g at x clamped to the mean box
    minus log g at the box end farther from x; that spread does not increase
    toward the box midpoint, so its sup over the domain is at one of the two
    domain ends.  Returns math.inf when the sum is not finite (compact-support
    marginals).
    """
    k = int(k)
    ends = np.array([box.m_lower, box.m_upper])
    total = 0.0
    for lo, hi in zip(domain.lower, domain.upper):
        xs = np.array([lo, hi])
        near = kernel.marginal.log_pdf(k * (xs - box.clamp(xs)))
        far = kernel.marginal.log_pdf(k * (xs[:, None] - ends)).min(axis=1)
        with np.errstate(invalid="ignore"):  # -inf - -inf: the sum is not finite
            total += float(np.max(near - far))
    return total if math.isfinite(total) else math.inf


def compute_gamma(a_logratio: float) -> float:
    """gamma = 4 (log(3 sqrt(e)) + A) = 4 (log 3 + 1/2 + A)."""
    if not math.isfinite(a_logratio):
        raise ValueError("log-ratio sup is infinite; gamma is undefined")
    if a_logratio < 0:
        raise ValueError("log-ratio sup must be nonnegative")
    return 4.0 * (math.log(3.0) + 0.5 + a_logratio)


def estimate_B_lipschitz(kernel: ProductKernel, k: int, box: MeanBox,
                         domain: SupportBox, points_per_axis: int = 255) -> float:
    """Lipschitz constant of the log component density in its mean.

    Max over probe triples (x, m1, m2) of |log g_k(x - m1) - log g_k(x - m2)|
    divided by the l1 distance of the means.  Both numerator and denominator
    are sums over axes, so the overall sup equals the worst per-axis sup.
    Only neighbouring probe means are compared: a chord's slope is a weighted
    mean of the neighbouring slopes it spans, so it never exceeds their max.
    One probe pass of points_per_axis domain and mean nodes per axis.  Raises
    on infinite log ratios (compact-support marginals).
    """
    k = int(k)
    if box.m_upper - box.m_lower <= 0:
        return 0.0
    best = 0.0
    ms = np.linspace(box.m_lower, box.m_upper, points_per_axis)
    for axis in range(kernel.dim):
        xs = np.linspace(domain.lower[axis], domain.upper[axis], points_per_axis)
        lg = kernel.marginal.log_pdf(k * (xs[:, None] - ms[None, :]))
        if np.any(np.isinf(lg)):
            raise ValueError("log ratio is infinite on the probe grid")
        slopes = np.abs(np.diff(lg, axis=1)) / np.diff(ms)
        best = max(best, float(np.max(slopes, initial=0.0)))
    return best


def _moment_ratio(mixing: MixingApproximant, power: int) -> np.ndarray:
    """Second moment of the component density under the mixing law over the
    power-th power of its first moment, on the law's grid; 0 where both vanish."""
    numer, denom = mixing.second_moment.values, mixing.realized.values
    if np.any((denom < 1e-300) & (numer > 0)):
        raise ValueError("mixing density vanishes inside the domain")
    return np.where(denom > 0, numer / np.maximum(denom, 1e-300) ** power, 0.0)


def hull_kl_constant(mixing: MixingApproximant) -> float:
    """Integral over the mixing law's grid of (second moment / first moment)
    of the component density under that law; weights the hull-KL bound."""
    return float(mixing.target.grid.integrate(_moment_ratio(mixing, 1)))


def target_kl_constant(mixing: MixingApproximant) -> float:
    """Same ratio with a squared denominator, weighted by the sampled target."""
    return float(mixing.target.grid.integrate(_moment_ratio(mixing, 2) * mixing.target.values))


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
    """(M, M) empirical rms distances between the rows of an (M, N) table.

    Each unordered pair once: row j against rows j and later, mirrored into
    column j.  (a - b)^2 and (b - a)^2 are the same bits, and each row's mean
    is its own reduction, so the matrix is the full loop's, bit for bit.
    """
    dist = np.empty((vals.shape[0], vals.shape[0]))
    for j, row in enumerate(vals):
        dist[j, j:] = dist[j:, j] = np.sqrt(np.mean((vals[j:] - row) ** 2, axis=1))
    return dist


def _greedy_cover(dist: np.ndarray, delta: float) -> int:
    """Greedy cover size at radius delta from a distance matrix; centers are
    taken in ascending index order and cover every element closer than delta."""
    uncovered = np.ones(dist.shape[0], dtype=bool)
    count = 0
    for center in range(dist.shape[0]):
        if uncovered[center]:
            uncovered &= dist[center] >= delta
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
