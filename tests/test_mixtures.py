"""Tests for finite mixtures: evaluation, sampling, EM, MLE, and greedy fits."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import ndtr

from mixapprox import grids, harness, mixtures
from mixapprox.bounds import hull_kl_constant, target_kl_constant
from mixapprox.config import ConfigError, parse_config_text
from mixapprox.densities import make_target
from mixapprox.grids import GridFunction, convolve, cube, make_grid, sample_on_grid
from mixapprox.kernels import MARGINAL_NAMES, Dilation, make_product_kernel
from mixapprox.mixtures import (
    FiniteMixture,
    MeanBox,
    MixingApproximant,
    MixtureDictionary,
    build_dictionary,
    build_mixing_approximant,
    em_fit,
    greedy_fit,
    log_likelihood,
    mixture_sample,
    mle_fit,
)

GAUSS = make_product_kernel("gaussian", 1)
PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def _mix(weights, means, k, kernel=GAUSS):
    return FiniteMixture(np.asarray(weights, float), np.asarray(means, float), k, kernel)


class TestFiniteMixture:
    def test_single_component_value(self):
        m = _mix([1.0], [[0.0]], 1)
        assert m.pdf(np.array([[0.0]]))[0] == pytest.approx(PHI0, abs=1e-15)

    def test_symmetry(self):
        m = _mix([0.5, 0.5], [[-0.7], [0.7]], 2)
        xs = np.linspace(0.0, 2.0, 50)[:, None]
        assert_allclose(m.pdf(xs), m.pdf(-xs), atol=1e-14)

    def test_degenerate_weight_collapses(self):
        two = _mix([1.0, 0.0], [[0.3], [0.9]], 4)
        one = _mix([1.0], [[0.3]], 4)
        xs = np.linspace(-1, 2, 64)[:, None]
        assert_allclose(two.pdf(xs), one.pdf(xs), atol=1e-14)

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            _mix([0.6, 0.6], [[0.0], [1.0]], 1)
        with pytest.raises(ValueError):
            _mix([1.5, -0.5], [[0.0], [1.0]], 1)
        with pytest.raises(ValueError):
            FiniteMixture(np.array([1.0]), np.array([[0.0]]), 0, GAUSS)

    def test_mass_over_covering_box(self):
        m = _mix([0.3, 0.7], [[0.2], [0.8]], 8)
        radius = GAUSS.radius(1e-9) / 8
        grid = make_grid(cube(0.2 - radius, 0.8 + radius, 1), 4097, "simpson")
        assert abs(m.on_grid(grid).mass - 1.0) <= 1e-5

    def test_grid_shaped_pdf(self):
        m = _mix([1.0], [[0.5, 0.5]], 2, make_product_kernel("gaussian", 2))
        grid = make_grid(cube(0.0, 1.0, 2), 33, "trapezoid")
        field = m.on_grid(grid)
        assert field.grid is grid
        assert field.values.shape == grid.shape


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", MARGINAL_NAMES)
def test_on_grid_equals_pdf_at_the_grid_points(name, p):
    # The per-axis contraction against the log-sum-exp at the flattened grid
    # points.  Means reach past the grid box, so far-out components are tiny
    # (Gaussian, Laplace) or zero (compact marginals) over parts of it.
    rng = np.random.default_rng([p, 12])
    kernel = make_product_kernel(name, p)
    means = rng.uniform(-2.0, 2.0, size=(9, p))
    weights = rng.dirichlet(np.ones(9))
    grid = make_grid(cube(-1.0, 1.0, p), {1: 129, 2: 33, 3: 17}[p], "simpson")
    mix = FiniteMixture(weights, means, 4, kernel)
    got = mix.on_grid(grid).values
    ref = mix.pdf(grid.mesh().reshape(-1, p)).reshape(grid.shape)
    live = ref >= 1e-300
    assert_allclose(got[live], ref[live], rtol=1e-12, atol=0.0)
    if name not in mixtures.EM_MARGINALS:
        assert np.array_equal(got == 0, ref == 0)
        assert np.any(ref == 0)


def test_on_grid_holds_no_mesh_or_component_table():
    # 3-D, n = 32 on 65^3: the field is 2.1 MiB, while the mesh and the
    # (n, G) log table of pdf(mesh) come to about 88 MiB.
    rng = np.random.default_rng(5)
    kernel = make_product_kernel("gaussian", 3)
    mix = FiniteMixture(rng.dirichlet(np.ones(32)), rng.uniform(-1.0, 1.0, size=(32, 3)),
                        8, kernel)
    grid = make_grid(cube(-1.0, 1.0, 3), 65, "simpson")
    tracemalloc.start()
    try:
        mix.on_grid(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", MARGINAL_NAMES)
class TestComponentEvaluator:
    """Every caller of the one component evaluator against a per-mean loop of
    Dilation.log_pdf, bit for bit for every marginal and p.  The integral-ratio
    constants, which read convolutions, meet the same loop within 1e-10."""

    @staticmethod
    def _case(name, p, k):
        rng = np.random.default_rng([p, k])
        kernel = make_product_kernel(name, p)
        means = rng.uniform(-1.0, 1.0, size=(6, p))
        x = rng.uniform(-1.5, 1.5, size=(200, p))
        dil = Dilation(kernel, k)
        ref = np.stack([dil.log_pdf(x - m) for m in means], axis=1)
        return kernel, means, x, ref

    def test_finite_mixture_component_log_pdf(self, name, p, k):
        kernel, means, x, ref = self._case(name, p, k)
        mix = FiniteMixture(np.full(6, 1.0 / 6), means, k, kernel)
        got = mix.component_log_pdf(x)
        assert got.shape == (200, 6)
        assert np.array_equal(got, ref)

    def test_dictionary_evaluate_at(self, name, p, k):
        kernel, means, x, ref = self._case(name, p, k)
        grid = make_grid(cube(-1.0, 1.0, p), 3, "simpson")
        dictionary = MixtureDictionary(kernel, k, means, grid)
        got = dictionary.evaluate_at(x)
        assert got.shape == (6, 200)
        assert np.array_equal(got, np.exp(ref).T)
        if p == 1:
            assert np.array_equal(dictionary.evaluate_at(x[:, 0]), got)

    def test_hull_kl_constant_on_finite_mixture(self, name, p, k):
        # A mixing approximant is the finite mixture over its grid nodes m_j,
        # with weights f(m_j) W_j: both constants against the per-mean loop
        # on that mixture.  9 nodes per axis keep 4 nodes per 1/k at k = 8;
        # the realized field is the exact per-axis sum, with no widened grid.
        kernel = make_product_kernel(name, p)
        dil = Dilation(kernel, k)
        grid = make_grid(cube(-0.125, 0.125, p), 9, "simpson")
        f_gf = sample_on_grid(make_target("truncated-normal", p), grid)
        mixing = MixingApproximant(f_gf, kernel, k, convolve(f_gf, dil, out_grid=grid))
        pts = grid.mesh().reshape(-1, p)
        weights = (f_gf.values * grid.weight_tensor()).ravel()
        comp = np.exp(np.stack([dil.log_pdf(pts - m) for m in pts], axis=1))
        numer, denom = comp ** 2 @ weights, comp @ weights
        ratio = np.where(denom > 0, numer / np.maximum(denom, 1e-300), 0.0)
        hull = grid.integrate(ratio.reshape(grid.shape))
        ratio = np.where(denom > 0, numer / np.maximum(denom, 1e-300) ** 2, 0.0)
        target = grid.integrate(ratio.reshape(grid.shape) * f_gf.values)
        assert_allclose(hull_kl_constant(mixing), hull, rtol=1e-10, atol=0.0)
        assert_allclose(target_kl_constant(mixing), target, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", MARGINAL_NAMES)
def test_log_pdf_equals_the_per_mean_oracle(name, p):
    # Oracle: a per-mean Dilation.log_pdf stack and a plain log-sum-exp.  The
    # points reach well past every compact component, where the mixture
    # log density is -inf.
    rng = np.random.default_rng([p, 7])
    kernel = make_product_kernel(name, p)
    means = rng.uniform(-1.0, 1.0, size=(5, p))
    weights = rng.dirichlet(np.ones(5))
    x = rng.uniform(-3.0, 3.0, size=(300, p))
    dil = Dilation(kernel, 4)
    joint = np.stack([dil.log_pdf(x - m) for m in means]) + np.log(weights)[:, None]
    with np.errstate(divide="ignore"):
        ref = np.log(np.exp(joint).sum(axis=0))
    got = FiniteMixture(weights, means, 4, kernel).log_pdf(x)
    outside = np.isneginf(ref)
    assert np.array_equal(np.isneginf(got), outside)
    assert outside.any() == (name not in mixtures.EM_MARGINALS)
    assert_allclose(got[~outside], ref[~outside], rtol=0.0, atol=1e-10)


class TestTranslationInvariance:
    """Moving the points and the means together leaves the likelihood of a
    location family unchanged, also far from the origin."""

    def test_translated_mixture(self):
        kernel = make_product_kernel("gaussian", 2)
        rng = np.random.default_rng(11)
        means = rng.uniform(0.0, 1.0, size=(6, 2))
        weights = rng.dirichlet(np.ones(6))
        x = rng.uniform(-0.2, 1.2, size=(500, 2))
        near = log_likelihood(FiniteMixture(weights, means, 16, kernel), x)
        far = log_likelihood(FiniteMixture(weights, means + 1000.0, 16, kernel), x + 1000.0)
        assert far == pytest.approx(near, rel=1e-10, abs=0.0)

    def test_em_fit_on_a_translated_box(self):
        kernel = make_product_kernel("gaussian", 2)
        xs = make_target("two-truncated-normals", 2).sample(600, np.random.default_rng(5))
        near = em_fit(xs, 4, 16, kernel, MeanBox(0.0, 1.0, 2))
        far = em_fit(xs + 1000.0, 4, 16, kernel, MeanBox(1000.0, 1001.0, 2))
        assert far.log_likelihood == pytest.approx(near.log_likelihood, rel=1e-10, abs=0.0)


class TestSampling:
    def test_clt_band(self):
        m = _mix([1.0], [[0.5]], 8)
        xs = mixture_sample(m, 2024, 100_000)
        sd = 1.0 / (8.0 * math.sqrt(xs.shape[0]))
        assert abs(xs.mean() - 0.5) <= 4 * sd

    def test_degenerate_weights(self):
        m = _mix([1.0, 0.0], [[0.25], [0.75]], 64)
        xs = mixture_sample(m, 5, 100)
        assert np.all(np.abs(xs - 0.25) < 0.5)

    def test_seed_determinism(self):
        m = _mix([0.4, 0.6], [[0.1], [0.9]], 8)
        assert np.array_equal(mixture_sample(m, 77, 500), mixture_sample(m, 77, 500))


class TestLogLikelihood:
    def test_standard_normal_point(self):
        m = _mix([1.0], [[0.0]], 1)
        ll = log_likelihood(m, np.array([[0.0]]))
        assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_duplicated_sample_doubles(self):
        m = _mix([0.5, 0.5], [[0.2], [0.8]], 4)
        xs = mixture_sample(m, 3, 200)
        assert log_likelihood(m, np.vstack([xs, xs])) == pytest.approx(
            2 * log_likelihood(m, xs), rel=1e-12)

    def test_collapsed_components(self):
        a = _mix([0.5, 0.5], [[0.4], [0.4]], 4)
        b = _mix([1.0], [[0.4]], 4)
        xs = mixture_sample(b, 9, 300)
        assert log_likelihood(a, xs) == pytest.approx(log_likelihood(b, xs), rel=1e-12)

    def test_compact_kernel_miss_gives_neg_inf(self):
        m = _mix([1.0], [[0.5]], 4, make_product_kernel("uniform-symmetric", 1))
        assert log_likelihood(m, np.array([[0.9]])) == -math.inf


class TestEmFit:
    BOX = MeanBox(0.0, 1.0, 1)

    def test_single_bump_recovery(self):
        true = _mix([1.0], [[0.5]], 8)
        for seed in range(20):
            xs = mixture_sample(true, 100 + seed, 2000)
            fit = em_fit(xs, 1, 8, GAUSS, self.BOX)
            assert abs(fit.mixture.means[0, 0] - 0.5) < 0.05

    def test_two_bump_recovery(self):
        true = _mix([0.5, 0.5], [[0.2], [0.8]], 16)
        for seed in range(10):
            xs = mixture_sample(true, 500 + seed, 2000)
            fit = em_fit(xs, 2, 16, GAUSS, self.BOX)
            means = np.sort(fit.mixture.means[:, 0])
            assert abs(means[0] - 0.2) < 0.05 and abs(means[1] - 0.8) < 0.05
            assert np.max(np.abs(fit.mixture.weights - 0.5)) < 0.1

    def test_single_component_closed_form(self):
        true = _mix([1.0], [[0.85]], 4)
        for seed in range(20):
            xs = mixture_sample(true, 900 + seed, 500)
            fit = em_fit(xs, 1, 4, GAUSS, self.BOX)
            closed = min(max(float(xs.mean()), 0.0), 1.0)
            assert abs(fit.mixture.means[0, 0] - closed) < 1e-8

    def test_trace_monotone(self):
        true = _mix([0.5, 0.5], [[0.3], [0.7]], 8)
        xs = mixture_sample(true, 31, 1500)
        fit = em_fit(xs, 3, 8, GAUSS, self.BOX)
        assert np.all(np.diff(fit.trace) >= -1e-9)

    def test_simplex_and_box_restrictions_hold(self):
        true = _mix([0.5, 0.5], [[0.05], [0.95]], 4)
        xs = mixture_sample(true, 8, 1000)
        fit = em_fit(xs, 4, 4, GAUSS, self.BOX)
        w, m = fit.mixture.weights, fit.mixture.means
        assert abs(w.sum() - 1.0) <= 1e-12 and np.all(w >= 0)
        assert np.all((m >= 0.0) & (m <= 1.0))

    def test_laplace_marginal(self):
        lap = make_product_kernel("laplace", 1)
        true = _mix([0.5, 0.5], [[0.25], [0.75]], 16, lap)
        xs = mixture_sample(true, 44, 1500)
        fit = em_fit(xs, 2, 16, lap, self.BOX)
        assert np.all(np.diff(fit.trace) >= -1e-9)
        means = np.sort(fit.mixture.means[:, 0])
        assert abs(means[0] - 0.25) < 0.07 and abs(means[1] - 0.75) < 0.07

    def test_compact_marginal_rejected(self):
        xs = np.linspace(0.1, 0.9, 100)[:, None]
        with pytest.raises(ValueError, match="full-support"):
            em_fit(xs, 2, 4, make_product_kernel("epanechnikov", 1), self.BOX)

    def test_sample_size_guard(self):
        with pytest.raises(ValueError):
            em_fit(np.array([[0.5]]), 2, 4, GAUSS, self.BOX)

    def test_starved_component_reseeded_then_dropped(self):
        # All data in a tiny cluster, huge mean box: a component seeded far
        # away starves, is reseeded once, and is dropped when it starves again.
        rng = np.random.default_rng(0)
        xs = 0.5 + 0.001 * rng.standard_normal((400, 1))
        box = MeanBox(-1e6, 1e6, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = em_fit(xs, 2, 64, GAUSS, box,
                         init_rng=np.random.default_rng(12))
        assert fit.reseeds >= 1
        assert fit.dropped == 1 and fit.mixture.n == 1


def _weighted_median(x, w):
    """Oracle: the weighted median of x under one weight column, by a sort
    and a searchsorted on its own cumulative weights."""
    order = np.argsort(x)
    cw = np.cumsum(w[order])
    idx = np.searchsorted(cw, 0.5 * cw[-1])
    return float(x[order][min(idx, len(x) - 1)])


def _laplace_em_oracle(xs, n, k, kernel, box, init_rng, max_iters=500, tol=1e-8):
    """Oracle: projected Laplace EM with a FiniteMixture per iteration and one
    weighted median per component and axis (no starving components)."""
    means = mixtures._init_means(xs, n, box, init_rng)
    mix = FiniteMixture(np.full(n, 1.0 / n), means, k, kernel)
    trace, prev = [], -math.inf
    for _ in range(max_iters):
        comp = mix.component_log_pdf(xs)
        joint = comp + np.log(np.maximum(mix.weights, 1e-300))[None, :]
        mx = joint.max(axis=1)
        shifted = np.exp(joint - mx[:, None])
        denom = shifted.sum(axis=1)
        ll = float(np.sum(mx + np.log(denom)))
        resp = shifted / denom[:, None]
        counts = resp.sum(axis=0)
        assert np.all(counts / len(xs) >= 1e-12)
        new_means = np.array([[_weighted_median(xs[:, d], resp[:, i])
                               for d in range(xs.shape[1])] for i in range(mix.n)])
        new_w = counts / len(xs)
        mix = FiniteMixture(new_w / new_w.sum(), box.clamp(new_means), k, kernel)
        trace.append(ll)
        if ll - prev < tol and math.isfinite(prev):
            break
        prev = ll
    trace.append(log_likelihood(mix, xs))
    return np.asarray(trace), mix


class TestLaplaceEmMatchesLoopOracle:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("random_init", [False, True], ids=["quantile", "random"])
    def test_trace_means_weights_equal(self, p, random_init):
        lap = make_product_kernel("laplace", p)
        box = MeanBox(0.0, 1.0, p)
        xs = make_target("two-truncated-normals", p).sample(600, np.random.default_rng(5))

        def rng():
            return np.random.default_rng(17) if random_init else None

        fit = em_fit(xs, 3, 8, lap, box, init_rng=rng(), max_iters=200)
        trace, mix = _laplace_em_oracle(xs, 3, 8, lap, box, rng(), max_iters=200)
        assert fit.reseeds == 0 and fit.iterations > 10
        assert np.array_equal(fit.trace, trace)
        assert np.array_equal(fit.mixture.means, mix.means)
        assert np.array_equal(fit.mixture.weights, mix.weights)


def _max_shift_e_step(joint):
    """Reference E-step: the plain max-shifted log-sum-exp over each row of an
    (N, n) log-joint, taken afresh every iteration.  Returns the
    log-likelihood and the (N, n) responsibilities."""
    mx = joint.max(axis=1)
    shifted = np.exp(joint - mx[:, None])
    denom = shifted.sum(axis=1)
    return float(np.sum(mx + np.log(denom))), shifted / denom[:, None]


def _gaussian_em_oracle(xs, n, k, kernel, box, init_rng, max_iters=500, tol=1e-8):
    """Oracle: projected Gaussian EM from the (N, n) component log densities,
    the max-shift E-step of `_max_shift_e_step` and a weighted mean per
    component, with the same starvation, reseed and drop rules."""
    N = xs.shape[0]
    means = mixtures._init_means(xs, n, box, init_rng)
    weights = np.full(n, 1.0 / n)
    reseed_rng = init_rng if init_rng is not None else np.random.default_rng(0)
    reseeded, reseeds, dropped = set(), 0, 0
    trace, prev, converged, it = [], -math.inf, False, 0
    for it in range(1, max_iters + 1):
        comp = mixtures._component_log_pdf(kernel, k, means, xs).T
        ll, resp = _max_shift_e_step(comp + np.log(np.maximum(weights, 1e-300))[None, :])
        counts = resp.sum(axis=0)
        starving = np.where(counts / N < 1e-12)[0]
        if starving.size:
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
            trace.append(ll)
            prev = -math.inf
            continue
        new_w = counts / N
        weights, means = new_w / new_w.sum(), box.clamp((resp.T @ xs) / counts[:, None])
        trace.append(ll)
        if ll - prev < tol and math.isfinite(prev):
            converged = True
            break
        prev = ll
    mix = FiniteMixture(weights, means, k, kernel)
    trace.append(log_likelihood(mix, xs))
    return np.asarray(trace), mix, it, converged, reseeds, dropped


class TestGaussianEmMatchesLoopOracle:
    """The centred (n, N) GEMM step of `em_fit` against the (N, n) step kept
    in `_gaussian_em_oracle`: the same iterations and events, and trace,
    weights and means within 1e-10 relative (the sums run in another order)."""

    @staticmethod
    def _check(fit, xs, n, k, kernel, box, init_rng, max_iters):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace, mix, iterations, converged, reseeds, dropped = _gaussian_em_oracle(
                xs, n, k, kernel, box, init_rng, max_iters=max_iters)
        assert (fit.iterations, fit.converged, fit.reseeds, fit.dropped) == (
            iterations, converged, reseeds, dropped)
        assert_allclose(fit.trace, trace, rtol=1e-10, atol=0.0)
        assert_allclose(fit.mixture.weights, mix.weights, rtol=1e-10, atol=0.0)
        assert_allclose(fit.mixture.means, mix.means, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("k", [1, 4, 16, 64])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("random_init", [False, True], ids=["quantile", "random"])
    def test_trace_means_weights_match(self, p, k, random_init):
        gauss = make_product_kernel("gaussian", p)
        box = MeanBox(0.0, 1.0, p)
        xs = make_target("two-truncated-normals", p).sample(600, np.random.default_rng(5))

        def rng():
            return np.random.default_rng(17) if random_init else None

        fit = em_fit(xs, 4, k, gauss, box, init_rng=rng(), max_iters=200)
        assert fit.iterations > 3
        self._check(fit, xs, 4, k, gauss, box, rng(), 200)

    def test_starved_component_reseeded(self):
        rng = np.random.default_rng(0)
        xs = 0.5 + 0.001 * rng.standard_normal((400, 1))
        box = MeanBox(-1e6, 1e6, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = em_fit(xs, 2, 64, GAUSS, box, init_rng=np.random.default_rng(12))
        assert fit.reseeds >= 1
        self._check(fit, xs, 2, 64, GAUSS, box, np.random.default_rng(12), 500)

    def test_box_far_from_the_origin(self):
        # Centring at the box midpoint keeps the expanded square accurate
        # here; uncentred, k^2 x m is ~1e8 and its rounding moves the fit.
        box = MeanBox(1000.0, 1001.0, 1)
        xs = 1000.0 + make_target("two-truncated-normals", 1).sample(
            600, np.random.default_rng(5))
        fit = em_fit(xs, 4, 16, GAUSS, box, max_iters=200)
        assert fit.iterations > 3
        self._check(fit, xs, 4, 16, GAUSS, box, None, 200)


class TestLaggedShiftMatchesMaxShift:
    """`em_fit` shifts each sample's log-sum-exp by its value from the last
    iteration, inside the GEMM; the oracle takes the plain max shift of
    `_max_shift_e_step` every iteration.  The fits must agree to rounding:
    the same iterations and convergence, traces within 1e-12 relative."""

    @staticmethod
    def _fit(xs, n, k, kernel, box, seed, monkeypatch):
        """The fit and its count of exact log-sum-exps: em_fit's fallbacks
        plus the one of the final log_likelihood."""
        lse0 = mixtures._logsumexp0
        exact = []

        def counting(a):
            exact.append(1)
            return lse0(a)

        with monkeypatch.context() as mp, warnings.catch_warnings():
            mp.setattr(mixtures, "_logsumexp0", counting)
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = em_fit(xs, n, k, kernel, box, init_rng=np.random.default_rng(seed))
        return fit, len(exact)

    @staticmethod
    def _check_against_oracle(fit, xs, n, k, kernel, box, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            trace, _, iterations, converged, reseeds, dropped = _gaussian_em_oracle(
                xs, n, k, kernel, box, np.random.default_rng(seed))
        assert (fit.iterations, fit.converged, fit.reseeds, fit.dropped) == (
            iterations, converged, reseeds, dropped)
        assert_allclose(fit.trace, trace, rtol=1e-12, atol=0.0)

    @staticmethod
    def _check_trace(fit):
        # Each reseed or drop may break monotonicity at one step only.
        assert np.all(np.isfinite(fit.trace))
        assert np.sum(np.diff(fit.trace) < -1e-9) <= fit.reseeds + fit.dropped

    @pytest.mark.parametrize("k", [4, 16, 64])
    @pytest.mark.parametrize("p", [1, 3])
    def test_ordinary_fit(self, p, k, monkeypatch):
        gauss = make_product_kernel("gaussian", p)
        box = MeanBox(0.0, 1.0, p)
        xs = make_target("two-truncated-normals", p).sample(600, np.random.default_rng(5))
        fit, exact = self._fit(xs, 4, k, gauss, box, 17, monkeypatch)
        assert fit.iterations > 10 and fit.reseeds == 0
        # The first iteration and the final likelihood are exact; at p = 3,
        # k = 64 the first M-step moves the means far enough to trip the
        # guard once.  Every other iteration takes the lagged shift.
        assert exact <= 3
        self._check_against_oracle(fit, xs, 4, k, gauss, box, 17)
        self._check_trace(fit)

    @pytest.mark.parametrize("p", [1, 3])
    def test_reseeded_fit(self, p, monkeypatch):
        # Means drawn far from the data: the distant components starve, are
        # reseeded and dropped, and every intervention restarts the shift.
        gauss = make_product_kernel("gaussian", p)
        box = MeanBox(-20.0, 20.0, p)
        xs = make_target("two-truncated-normals", p).sample(600, np.random.default_rng(5))
        fit, exact = self._fit(xs, 3, 64, gauss, box, 3, monkeypatch)
        assert fit.reseeds >= 2
        # An exact step follows every reseed or drop; here that is at least
        # one per reseed, besides the first iteration and the final likelihood.
        assert exact >= fit.reseeds + 2
        self._check_against_oracle(fit, xs, 3, 64, gauss, box, 3)
        self._check_trace(fit)

    @pytest.mark.parametrize("p", [1, 3])
    def test_first_lagged_step_trips_the_guard(self, p, monkeypatch):
        # One mean drawn far from the data at k = 64: the first M-step moves
        # it onto the sample mean, raising each sample's log-likelihood by
        # 5e4 (p = 1) to 1e6 (p = 3), far beyond log(1e100), so exp(R - s)
        # overflows and the exact step is taken again.
        gauss = make_product_kernel("gaussian", p)
        box = MeanBox(-20.0, 20.0, p)
        xs = make_target("two-truncated-normals", p).sample(600, np.random.default_rng(5))
        fit, exact = self._fit(xs, 1, 64, gauss, box, 0, monkeypatch)
        assert fit.reseeds == 0 and fit.converged
        assert exact == 3           # first iteration, the guard, final likelihood
        assert_allclose(fit.mixture.means[0], xs.mean(axis=0), rtol=1e-12)
        self._check_against_oracle(fit, xs, 1, 64, gauss, box, 0)
        self._check_trace(fit)


@st.composite
def _median_inputs(draw):
    N = draw(st.integers(1, 40))
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # Ties: values drawn from a small set.
        x = draw(arrays(float, N, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    else:
        x = draw(arrays(float, N, elements=st.floats(-1e3, 1e3)))
    resp = draw(arrays(float, (N, n), elements=st.floats(0.0, 1.0)))
    zero = draw(arrays(bool, n))
    resp[:, zero] = 0.0
    return x, resp


@settings(max_examples=300, deadline=None)
@given(_median_inputs())
def test_weighted_medians_equal_the_loop_oracle(inputs):
    x, resp = inputs
    got = mixtures._weighted_medians(x, np.argsort(x), resp)
    want = [_weighted_median(x, resp[:, i]) for i in range(resp.shape[1])]
    assert np.array_equal(got, want)


class TestMleFit:
    BOX = MeanBox(0.0, 1.0, 1)

    def test_scale_selection(self):
        true = _mix([0.5, 0.5], [[0.2], [0.8]], 8)
        hits = 0
        for seed in range(20):
            xs = mixture_sample(true, 1000 + seed, 2000)
            mf = mle_fit(xs, 2, (2, 4, 8, 16), GAUSS, self.BOX, restarts=1, seed=seed)
            hits += mf.k == 8
        assert hits >= 16   # >= 80% of trials

    def test_singleton_grid_matches_em(self):
        true = _mix([0.5, 0.5], [[0.2], [0.8]], 8)
        xs = mixture_sample(true, 3, 800)
        mf = mle_fit(xs, 2, (8,), GAUSS, self.BOX, restarts=1, seed=0)
        em = em_fit(xs, 2, 8, GAUSS, self.BOX)
        assert mf.log_likelihood == pytest.approx(em.log_likelihood, abs=1e-12)
        assert_allclose(mf.mixture.means, em.mixture.means)

    def test_more_restarts_never_worse(self):
        true = _mix([0.5, 0.5], [[0.2], [0.8]], 8)
        xs = mixture_sample(true, 55, 2000)
        l1 = mle_fit(xs, 2, (2, 4, 8, 16), GAUSS, self.BOX, restarts=1, seed=9)
        l5 = mle_fit(xs, 2, (2, 4, 8, 16), GAUSS, self.BOX, restarts=5, seed=9)
        assert l5.log_likelihood >= l1.log_likelihood - 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            mle_fit(np.zeros((10, 1)), 1, (), GAUSS, self.BOX)

    def test_deterministic_given_seed(self):
        true = _mix([0.5, 0.5], [[0.2], [0.8]], 8)
        xs = mixture_sample(true, 21, 1000)
        a = mle_fit(xs, 2, (4, 8), GAUSS, self.BOX, restarts=3, seed=5)
        b = mle_fit(xs, 2, (4, 8), GAUSS, self.BOX, restarts=3, seed=5)
        assert a.log_likelihood == b.log_likelihood
        assert np.array_equal(a.mixture.means, b.mixture.means)


class TestGreedyFit:
    def _setup(self, k=16, means=257, n_pts=2049):
        f = make_target("truncated-normal", 1)
        grid = make_grid(f.support, n_pts, "simpson")
        mixing = build_mixing_approximant(f, GAUSS, k, grid)
        box = MeanBox(-1.0, 1.0, 1)
        dictionary = build_dictionary(GAUSS, k, box, means, grid)
        return f, grid, mixing.realized, dictionary

    def test_single_element_recovery(self):
        _, grid, _, dictionary = self._setup(means=65, n_pts=1025)
        target = GridFunction(grid, dictionary.values[32].reshape(grid.shape))
        fit = greedy_fit(target, dictionary, 1)
        assert fit.objectives[0] <= 1e-10

    def test_two_element_recovery(self):
        _, grid, _, dictionary = self._setup(means=65, n_pts=1025)
        blend = 0.5 * dictionary.values[16] + 0.5 * dictionary.values[48]
        target = GridFunction(grid, blend.reshape(grid.shape))
        fit = greedy_fit(target, dictionary, 2)
        # Brute-force oracle over all two-element convex combinations with
        # the closed-form optimal step.
        W = grid.weight_tensor().ravel()
        t = target.values.ravel()
        best = math.inf
        D = dictionary.values
        first = fit.selected[0]
        d1 = D[first]
        for j in range(D.shape[0]):
            diff = D[j] - d1
            denom = float(np.sum(W * diff * diff))
            lam = 0.0 if denom == 0 else float(np.clip(
                np.sum(W * (t - d1) * diff) / denom, 0.0, 1.0))
            r = d1 + lam * diff - t
            best = min(best, float(np.sum(W * r * r)))
        assert np.sqrt(fit.objectives[1]) <= 1e-6
        assert fit.objectives[1] <= best + 1e-12

    def test_objective_monotone(self):
        _, _, fbar, dictionary = self._setup(means=129, n_pts=1025)
        fit = greedy_fit(fbar, dictionary, 24)
        assert np.all(np.diff(fit.objectives) <= 1e-12)

    def test_rate_certificate(self):
        _, _, fbar, dictionary = self._setup()
        fit = greedy_fit(fbar, dictionary, 32)
        ns = np.arange(1, 33)
        scaled = ns * fit.objectives
        assert np.max(scaled[3:]) <= 2.0 * scaled[3]

    def test_kl_objective_decreases(self):
        _, _, fbar, dictionary = self._setup(means=129, n_pts=1025)
        fit = greedy_fit(fbar, dictionary, 12, objective="kl")
        assert np.all(np.diff(fit.objectives) <= 1e-12)
        assert fit.objectives[-1] < fit.objectives[0]

    def test_iterate_mixtures_are_valid(self):
        _, grid, fbar, dictionary = self._setup(means=129, n_pts=1025)
        fit = greedy_fit(fbar, dictionary, 8)
        for i, mix in enumerate(fit.mixtures, start=1):
            assert mix.n <= i
            assert abs(mix.weights.sum() - 1.0) <= 1e-12
            radius = GAUSS.radius(1e-9) / 16
            gm = make_grid(cube(-1 - radius, 1 + radius, 1), 4097, "simpson")
            assert abs(mix.on_grid(gm).mass - 1.0) <= 1e-5

    @pytest.mark.parametrize("kernel_name, dim, objective", [
        ("gaussian", 1, "l2"), ("gaussian", 1, "kl"), ("gaussian", 2, "l2"),
        ("epanechnikov", 1, "l2"),
    ])
    def test_fields_are_the_iterate_densities(self, kernel_name, dim, objective):
        # The mix-rate study reads its gaps and KL rows from these fields
        # instead of evaluating every iterate on the grid again.
        f = make_target("truncated-normal", dim)
        points, k, means = (1025, 16, 129) if dim == 1 else (65, 4, 9)
        grid = make_grid(f.support, points, "simpson")
        fbar = build_mixing_approximant(
            f, make_product_kernel("gaussian", dim), k, grid).realized
        kernel = make_product_kernel(kernel_name, dim)
        dictionary = build_dictionary(kernel, k, MeanBox(-1.0, 1.0, dim), means, grid)
        fit = greedy_fit(fbar, dictionary, 12, objective=objective)
        assert len(fit.fields) == len(fit.mixtures) == 12
        for field, mix in zip(fit.fields, fit.mixtures):
            ref = mix.pdf(grid.mesh().reshape(-1, dim)).reshape(grid.shape)
            assert field.shape == grid.shape
            assert_allclose(field, ref, rtol=1e-12, atol=0.0)
            assert np.array_equal(field == 0, ref == 0)
        if kernel_name == "epanechnikov":
            assert np.any(fit.fields[0] == 0)

    def test_empty_dictionary_rejected(self):
        from mixapprox.mixtures import MixtureDictionary

        _, grid, fbar, dictionary = self._setup(means=65, n_pts=1025)
        empty = MixtureDictionary(GAUSS, 16, np.empty((0, 1)), grid)
        with pytest.raises(ValueError, match="empty"):
            greedy_fit(fbar, empty, 4)

    def test_unknown_objective_rejected(self):
        _, _, fbar, dictionary = self._setup(means=65, n_pts=1025)
        with pytest.raises(ValueError, match="objective"):
            greedy_fit(fbar, dictionary, 2, objective="entropy")

    def test_dictionary_size_guard(self):
        # The fit holds no (M, G) table, so 65^2 means on the 257^2 grid,
        # whose table would be 2.2 GB, run well inside the memory budget.
        cfg = parse_config_text("study = mix-rate\ndensity.name = truncated-normal\n"
                                "density.dim = 2\nk.list = 16\nn.list = 1,2,4\n"
                                "dictionary.means_per_axis = 65\n").validate()
        assert sum(harness.predicted_peak(cfg).values()) < harness.MEMORY_BUDGET / 4
        assert len(harness.run_study(cfg).rows) > 0
        # In 1-D the factor table is the whole table: 2^18 means on 2049
        # nodes, 4.3 GB, are refused before anything is built.
        cfg = parse_config_text("study = mix-rate\ndensity.name = truncated-normal\n"
                                "k.list = 16\ndictionary.means_per_axis = 262144\n").validate()
        name = "the greedy's factor tables (262144 means x 2049 nodes x 1 axes)"
        assert harness.predicted_peak(cfg)[name] == 8 * 262144 * 2049
        with pytest.raises(ConfigError, match=re.escape(name)):
            harness.run_study(cfg)

    def test_dictionary_without_axes_rejected(self):
        # The fit scores per axis, so it takes only a dictionary that keeps
        # the axes of its means lattice.
        _, grid, fbar, dictionary = self._setup(means=65, n_pts=1025)
        bare = MixtureDictionary(GAUSS, 16, dictionary.means, grid)
        with pytest.raises(ValueError, match="lattice axes"):
            greedy_fit(fbar, bare, 4)

    def test_replay_widens_past_a_wrong_score(self):
        # A per-axis score far from the exact one is seen on its rescored
        # group: the candidate window widens until it holds the exact argmin.
        _, grid, fbar, dictionary = self._setup(means=65, n_pts=1025)
        W = grid.weight_tensor().ravel()
        e = fbar.values.ravel() - 0.5
        exact = (dictionary.values * W) @ e
        approx = exact.copy()
        j = int(np.argmax(exact))
        approx[j] = exact.min() - 1.0
        idx, (score,) = mixtures._replay(dictionary, W, approx, 1e-12,
                                         lambda dw, d: (dw @ e,))
        assert idx == int(np.argmin(exact)) and score == exact.min()


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", MARGINAL_NAMES)
def test_dictionary_table_equals_the_per_mean_loop(name, p, k):
    # The per-axis table against Dilation.pdf on the grid mesh shifted by
    # each mean, the loop it replaces, bit for bit.
    kernel = make_product_kernel(name, p)
    grid = make_grid(cube(-1.0, 1.0, p), {1: 33, 2: 17, 3: 9}[p], "simpson")
    dictionary = build_dictionary(kernel, k, MeanBox(-0.8, 0.7, p), 7 - p, grid)
    mesh = grid.mesh().reshape(-1, p)
    dil = Dilation(kernel, k)
    ref = np.stack([dil.pdf(mesh - m) for m in dictionary.means])
    assert dictionary.values.shape == ref.shape
    assert np.array_equal(dictionary.values, ref)


def _gaussian_gram(mu, lo, hi, s):
    """int_lo^hi phi_s(x - a) phi_s(x - b) dx for every pair of means a, b:
    phi_{sqrt2 s}(a - b) [Phi((hi - c) sqrt2 / s) - Phi((lo - c) sqrt2 / s)],
    c = (a + b) / 2, since the product is phi_{sqrt2 s}(a - b) times the
    N(c, s^2 / 2) density."""
    a, b = mu[:, None], mu[None, :]
    c, r = 0.5 * (a + b), math.sqrt(2.0) / s
    phi = np.exp(-0.25 * ((a - b) / s) ** 2) / (2.0 * math.sqrt(math.pi) * s)
    return phi * (ndtr((hi - c) * r) - ndtr((lo - c) * r))


@pytest.mark.parametrize("dim, points, k, tol", [
    # Tolerances, relative to the largest entry, are about 4x the measured
    # Simpson error (x86-64, numpy 2): 3.5e-11, 4.0e-11, 2.0e-16 (rounding
    # only: at k = 64 the only elements that reach a box end peak there),
    # 1.8e-7, 1.1e-6 and 1.0e-8.
    (1, 1025, 4, 1.5e-10), (1, 1025, 16, 1.5e-10), (1, 1025, 64, 1e-15),
    (2, 129, 4, 7e-7), (2, 129, 8, 5e-6), (2, 257, 16, 4e-8),
])
def test_gaussian_dictionary_inner_products_match_the_closed_form(dim, points, k, tol):
    # Grid-free oracle: the components k^p g(k (x - mu)) are products of
    # phi_s, s = 1/k, so their inner products over the box are products over
    # axes of _gaussian_gram.  Checked: the fit's per-axis squared norms
    # <d, d>_W, and the table rows' Gram matrix under the quadrature weights.
    grid = make_grid(cube(-1.0, 1.0, dim), points, "simpson")
    dictionary = build_dictionary(make_product_kernel("gaussian", dim), k,
                                  MeanBox(-1.0, 1.0, dim), 9, grid)
    axis = _gaussian_gram(np.linspace(-1.0, 1.0, 9), -1.0, 1.0, 1.0 / k)
    ref = axis if dim == 1 else np.kron(axis, axis)
    scale = np.abs(ref).max()
    norms = [n for _, n in mixtures._weighted_factors(dictionary, grid.weights)]
    dd = float(k) ** (2 * dim) * (norms[0] if dim == 1 else np.outer(*norms).ravel())
    assert np.max(np.abs(dd - np.diag(ref))) <= tol * scale
    D = dictionary.values
    gram = (D * grid.weight_tensor().ravel()) @ D.T
    assert np.max(np.abs(gram - ref)) <= tol * scale


@st.composite
def _greedy_inputs(draw):
    dim = draw(st.sampled_from([1, 2]))
    values = draw(arrays(float, (33 if dim == 1 else 9,) * dim,
                         elements=st.floats(0.0, 2.0)))
    return (values, draw(st.sampled_from(["gaussian", "laplace"])),
            draw(st.sampled_from([2, 4])), draw(st.integers(2, 7)),
            draw(st.sampled_from(["l2", "kl"])))


@settings(max_examples=100, deadline=None)
@given(_greedy_inputs())
def test_greedy_objective_never_increases(inputs):
    # Any nonnegative target, not only a density, on 1-D and 2-D grids.
    values, kernel_name, k, means_per_axis, objective = inputs
    dim = values.ndim
    grid = make_grid(cube(-1.0, 1.0, dim), values.shape[0], "simpson")
    dictionary = build_dictionary(make_product_kernel(kernel_name, dim), k,
                                  MeanBox(-1.0, 1.0, dim), means_per_axis, grid)
    fit = greedy_fit(GridFunction(grid, values), dictionary, 6, objective=objective)
    assert np.all(np.diff(fit.objectives) <= 1e-12)


def _lattice_table(kernel, k, box, means_per_axis, grid):
    # The whole (M, G) table from one lattice_pdf call on the (m,)*p + (n,)*p
    # offset lattice: the reference for the slab-built table.
    p = kernel.dim
    mu = np.linspace(box.m_lower, box.m_upper, means_per_axis)
    lattice = np.ix_(*[mu] * p, *grid.nodes)
    offsets = [lattice[p + a] - lattice[a] for a in range(p)]
    return Dilation(kernel, k).lattice_pdf(offsets).reshape(means_per_axis ** p, -1)


def _greedy_table_oracle(target, D, dictionary, n_max, objective):
    """The greedy fit on a full value table D and its copy D * W, with an
    objective that allocates on every call; also counts the steps whose L2
    argmin is tied and the steps that fall back to the clipped minimiser."""
    t = target.values.ravel()
    W = target.grid.weight_tensor().ravel()
    DW = D * W[None, :]
    dd = np.einsum("ij,ij->i", DW, D)
    weights, v = {}, np.zeros_like(t)
    mixes, fields, objs, selected, lambdas = [], [], [], [], []
    ties = fallbacks = 0
    mask = t > 0
    tW = t * W

    def kl_obj(vals):
        if np.any(vals[mask] < 1e-300):
            return math.inf
        return float(np.sum(tW[mask] * (np.log(t[mask]) - np.log(vals[mask]))))

    for step in range(1, n_max + 1):
        if objective == "l2":
            e = v - t
            b = DW @ e - float(np.sum(W * e * v))
            c = dd - 2.0 * (DW @ v) + float(np.sum(W * v * v))
            if step == 1:
                lam_cand = np.ones_like(b)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    lam_cand = np.clip(np.where(c > 0, -b / c, 0.0), 0.0, 1.0)
            cand_obj = float(np.sum(W * e * e)) + 2.0 * lam_cand * b + lam_cand ** 2 * c
            idx = int(np.argmin(cand_obj))
            ties += int(np.count_nonzero(cand_obj == cand_obj[idx]) > 1)
            d = D[idx]
            if step == 1:
                lam = 1.0
            else:
                diff = d - v

                def fn(l, diff=diff, e=e):
                    r = e + l * diff
                    return float(np.sum(W * r * r))

                lam = mixtures._golden_section(fn, 0.0, 1.0)
                if fn(lam) > fn(lam_cand[idx]):
                    lam = float(lam_cand[idx])
                    fallbacks += 1
        elif step == 1:
            with np.errstate(divide="ignore"):
                logD = np.log(np.maximum(D, 1e-300))
            idx = int(np.argmax(logD @ (t * W)))
            d, lam = D[idx], 1.0
        else:
            idx = int(np.argmax(DW @ (t / np.maximum(v, 1e-300))))
            d = D[idx]

            def fn(l, d=d):
                return kl_obj((1.0 - l) * v + l * d)

            lam = mixtures._golden_section(fn, 0.0, 1.0 - 1e-12)
        v = (1.0 - lam) * v + lam * d
        for key in list(weights):
            weights[key] *= (1.0 - lam)
        weights[idx] = weights.get(idx, 0.0) + lam
        idxs = sorted(weights)
        w = np.array([weights[i] for i in idxs])
        mixes.append(FiniteMixture(w / w.sum(), dictionary.means[idxs],
                                   dictionary.k, dictionary.kernel))
        fields.append(v.reshape(target.grid.shape))
        selected.append(idx)
        lambdas.append(float(lam))
        if objective == "l2":
            r = v - t
            objs.append(float(np.sum(W * r * r)))
        else:
            objs.append(kl_obj(v))
    fit = mixtures.GreedyFit(mixes, fields, np.asarray(objs), selected, lambdas, objective)
    return fit, ties, fallbacks


class TestGreedyMatchesTableOracle:
    """greedy_fit, which scores per axis and replays its candidates' table
    rows, against the fit on a full value table and its weighted copy, bit
    for bit."""

    @pytest.mark.parametrize("kernel_name, dim, objective, n_max", [
        ("gaussian", 1, "l2", 24), ("gaussian", 1, "kl", 12),
        ("epanechnikov", 1, "l2", 16), ("gaussian", 2, "l2", 24),
        ("gaussian", 3, "l2", 10),
    ])
    def test_fit_equals_the_oracle(self, kernel_name, dim, objective, n_max):
        f = make_target("truncated-normal", dim)
        points, k, means = {1: (1025, 16, 129), 2: (65, 8, 9), 3: (17, 2, 5)}[dim]
        grid = make_grid(f.support, points, "simpson")
        fbar = build_mixing_approximant(
            f, make_product_kernel("gaussian", dim), k, grid).realized
        kernel = make_product_kernel(kernel_name, dim)
        box = MeanBox(-1.0, 1.0, dim)
        dictionary = build_dictionary(kernel, k, box, means, grid)
        D = _lattice_table(kernel, k, box, means, grid)
        assert np.array_equal(dictionary.values, D)

        fit = greedy_fit(fbar, dictionary, n_max, objective=objective)
        ref, ties, fallbacks = _greedy_table_oracle(fbar, D, dictionary, n_max, objective)
        assert fit.selected == ref.selected
        assert np.array_equal(fit.lambdas, ref.lambdas)
        assert np.array_equal(fit.objectives, ref.objectives)
        assert fit.objective == ref.objective
        assert len(fit.mixtures) == len(ref.mixtures) == n_max
        for got, want in zip(fit.mixtures, ref.mixtures):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.means, want.means)
            assert (got.k, got.kernel) == (want.k, want.kernel)
        for got, want in zip(fit.fields, ref.fields, strict=True):
            assert np.array_equal(got, want)
        if dim == 2:
            # The symmetric target on a symmetric mean lattice: the argmin
            # is tied between mirror images, and the golden section loses to
            # the clipped minimiser on some steps.
            assert ties > 0 and fallbacks > 0

    def test_high_k_late_steps_equal_the_oracle(self):
        # At k = 48 the per-axis rounding of c grows with <d, d>_W, about
        # k^p / (4 pi), while the L2 window 1e-9 max(|best|, base) shrinks
        # over 64 steps; the replay must still pick the table's element.
        f = make_target("truncated-normal", 2)
        grid = make_grid(f.support, 401, "simpson")
        kernel = make_product_kernel("gaussian", 2)
        fbar = build_mixing_approximant(f, kernel, 48, grid).realized
        dictionary = build_dictionary(kernel, 48, MeanBox(-1.0, 1.0, 2), 7, grid)
        fit = greedy_fit(fbar, dictionary, 64)
        ref, _, _ = _greedy_table_oracle(fbar, dictionary.values, dictionary, 64, "l2")
        assert fit.selected == ref.selected
        assert np.array_equal(fit.lambdas, ref.lambdas)
        assert np.array_equal(fit.objectives, ref.objectives)

    @pytest.mark.parametrize("objective", ["l2", "kl"])
    def test_fit_allocates_no_table(self, objective):
        # 17^2 means on a 129^2 grid: an (M, G) table would be M G 8 bytes,
        # 38 MB; the fit holds per-axis factor tables, a few table rows and
        # grid vectors, well under a quarter of that.
        f = make_target("truncated-normal", 2)
        grid = make_grid(f.support, 129, "simpson")
        fbar = build_mixing_approximant(f, make_product_kernel("gaussian", 2), 8, grid).realized
        tracemalloc.start()
        try:
            dictionary = build_dictionary(make_product_kernel("gaussian", 2), 8,
                                          MeanBox(-1.0, 1.0, 2), 17, grid)
            greedy_fit(fbar, dictionary, 8, objective=objective)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * dictionary.size * grid.weight_tensor().size * 8

    def test_kl_fit_scores_its_first_step_in_row_blocks(self):
        # The first KL step logs 16 table rows at a time, so it holds no
        # (M, G) table, and its blocked GEMVs pick what one product on the
        # whole logged table picks.
        f = make_target("truncated-normal", 2)
        grid = make_grid(f.support, 129, "simpson")
        kernel = make_product_kernel("gaussian", 2)
        fbar = build_mixing_approximant(f, kernel, 8, grid).realized
        tracemalloc.start()
        try:
            dictionary = build_dictionary(kernel, 8, MeanBox(-1.0, 1.0, 2), 17, grid)
            fit = greedy_fit(fbar, dictionary, 8, objective="kl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * dictionary.size * grid.weight_tensor().size * 8
        ref, _, _ = _greedy_table_oracle(fbar, dictionary.values, dictionary, 8, "kl")
        assert fit.selected == ref.selected
        assert np.array_equal(fit.objectives, ref.objectives)

    def test_kl_fit_on_a_target_with_zeros_equals_the_oracle(self):
        # The KL line search runs on the nodes where the target is positive,
        # which here are not all of them.
        f = make_target("truncated-normal", 1)
        grid = make_grid(f.support, 1025, "simpson")
        fbar = build_mixing_approximant(f, GAUSS, 16, grid).realized
        target = GridFunction(grid, np.where(np.abs(grid.nodes[0]) < 0.6, fbar.values, 0.0))
        assert 0 < np.count_nonzero(target.values) < target.values.size
        dictionary = build_dictionary(GAUSS, 16, MeanBox(-1.0, 1.0, 1), 129, grid)
        fit = greedy_fit(target, dictionary, 12, objective="kl")
        ref, _, _ = _greedy_table_oracle(target, dictionary.values, dictionary, 12, "kl")
        assert fit.selected == ref.selected
        assert np.array_equal(fit.lambdas, ref.lambdas)
        assert np.array_equal(fit.objectives, ref.objectives)
        for got, want in zip(fit.fields, ref.fields, strict=True):
            assert np.array_equal(got, want)


def _ints(lo, hi, scale):
    # Floats on a lattice: no subnormal values, whose squares would lose
    # the relative precision the screen's radius assumes.
    return st.integers(lo, hi).map(lambda i: i * scale)


@st.composite
def _l2_lines(draw):
    """W > 0, e and diff with the line's minimum at 0, at 1, inside, or
    nowhere (diff = 0, so C = 0)."""
    n = draw(st.integers(1, 40))
    W = draw(arrays(float, n, elements=_ints(1, 10_000, 1e-3)))
    diff = draw(arrays(float, n, elements=_ints(-10_000, 10_000, 1e-3)))
    noise = draw(arrays(float, n, elements=_ints(-1000, 1000, 1e-6)))
    where = draw(st.sampled_from(["0", "1", "inside", "flat"]))
    if where == "flat":
        diff[:] = 0.0
    lo, hi = {"0": (-2.0, -0.01), "1": (1.01, 3.0), "inside": (0.05, 0.95),
              "flat": (0.0, 1.0)}[where]
    s = draw(st.floats(lo, hi))
    return W, noise - s * diff, diff


def _eager_golden_section(fn, lo, hi):
    """The golden section as first written, which evaluates fn at every new
    point as it is placed: the reference for the memoized search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


@settings(max_examples=300, deadline=None)
@given(_l2_lines())
def test_screened_line_search_returns_the_plain_lambda(line):
    W, e, diff = line
    base = float(np.sum(W * e * e))
    grid_sum, estimate = mixtures._l2_line(W, e, diff, base, np.empty_like(e), np.empty_like(e))
    plain = mixtures._golden_section(grid_sum, 0.0, 1.0)
    assert plain == _eager_golden_section(grid_sum, 0.0, 1.0)
    assert mixtures._golden_section(grid_sum, 0.0, 1.0, estimate) == plain
    assert mixtures._golden_section(grid_sum, 0.0, 1.0, lambda l: (0.0, math.inf)) == plain


def _l2_calls(monkeypatch, fbar, dictionary, n_max):
    """The fit, and (grid sum, estimate, radius) at every point where the
    L2 line search evaluated its grid sum."""
    calls, line = [], mixtures._l2_line

    def recording(*args):
        grid_sum, estimate = line(*args)

        def recorded(l):
            value = grid_sum(l)
            calls.append((value, *estimate(l)))
            return value

        return recorded, estimate

    monkeypatch.setattr(mixtures, "_l2_line", recording)
    return greedy_fit(fbar, dictionary, n_max), calls


class TestScreenedL2LineSearch:
    """The golden section compares points by the line's exact quadratic and
    sums the grid only where rounding could decide."""

    @staticmethod
    def _fit_inputs(kernel_name, dim, points, k, means):
        f = make_target("truncated-normal", dim)
        grid = make_grid(f.support, points, "simpson")
        kernel = make_product_kernel(kernel_name, dim)
        fbar = build_mixing_approximant(f, kernel, k, grid).realized
        return fbar, build_dictionary(kernel, k, MeanBox(-1.0, 1.0, dim), means, grid)

    def test_mix_rate_2d_sums_the_grid_less_and_keeps_its_bits(self, monkeypatch):
        # The mix-rate-2d benchmark shape: 17^2 means on 257^2 nodes, k = 16,
        # 32 steps.  Unscreened, the fit sums the grid 1581 times, 51 a step.
        fbar, dictionary = self._fit_inputs("gaussian", 2, 257, 16, 17)
        fit, calls = _l2_calls(monkeypatch, fbar, dictionary, 32)
        assert len(calls) <= 800
        plain = mixtures._golden_section
        monkeypatch.setattr(mixtures, "_golden_section",
                            lambda fn, lo, hi, estimate=None: plain(fn, lo, hi))
        ref = greedy_fit(fbar, dictionary, 32)
        assert fit.selected == ref.selected
        assert np.array_equal(fit.lambdas, ref.lambdas)
        assert np.array_equal(fit.objectives, ref.objectives)

    @pytest.mark.parametrize("kernel_name, dim, points, k, means, n_max", [
        ("gaussian", 2, 257, 16, 17, 32), ("gaussian", 2, 401, 48, 7, 64),
        ("gaussian", 1, 2049, 16, 257, 32), ("laplace", 1, 2049, 16, 257, 32),
    ])
    def test_grid_sums_lie_well_inside_the_radius(self, monkeypatch, kernel_name, dim,
                                                  points, k, means, n_max):
        # The radius is 1e-12 (base + l^2 C), about 40 times the derived
        # rounding bound; the grid sums come within a hundredth of it.
        fbar, dictionary = self._fit_inputs(kernel_name, dim, points, k, means)
        _, calls = _l2_calls(monkeypatch, fbar, dictionary, n_max)
        assert len(calls) > 0
        for value, estimate, radius in calls:
            assert abs(value - estimate) <= radius / 100


class TestMixingApproximant:
    def test_realized_matches_direct_convolution(self):
        f = make_target("clipped-cosine", 1)
        grid = make_grid(f.support, 1025, "simpson")
        mixing = build_mixing_approximant(f, GAUSS, 32, grid)
        assert mixing.realized.grid.same_lattice(grid)
        assert mixing.k == 32
        # Away from the edges the smoothing bias is the curvature term
        # f''(x) / (2 k^2); at the peak this is about 4 pi^2 / 1024.
        mid = grid.points_per_axis // 2
        bias = 4.0 * math.pi ** 2 / (2.0 * 32 ** 2)
        assert mixing.realized.values[mid] == pytest.approx(2.0 - bias, abs=2e-3)

    def test_3d_approximant_memory(self):
        # The widened FFT kernel of the 3-D pin comes from per-axis factors;
        # a stacked 179^3 x 3 offset mesh would peak at 547 MiB here.
        f = make_target("truncated-normal", 3)
        grid = make_grid(f.support, 65, "simpson")
        tracemalloc.start()
        try:
            mixing = build_mixing_approximant(f, make_product_kernel("gaussian", 3), 8, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 480 * 2 ** 20
        assert mixing.realized.grid.same_lattice(grid)

    @staticmethod
    def _fft_term(study, dim, kernel_name, k, points=0):
        # The memory budget's terms for a config with this approximant, and
        # the one that counts its widened FFT.
        cfg = parse_config_text(
            f"study = {study}\ndensity.name = truncated-normal\ndensity.dim = {dim}\n"
            f"kernel.name = {kernel_name}\nk.list = {k}\ngrid.points_per_axis = {points}\n"
            "n.list = 4\nN.list = 1000\ndictionary.means_per_axis = 4\n").validate()
        terms = harness.predicted_peak(cfg)
        (name,) = [name for name in terms if "FFT lattice" in name]
        return cfg, terms, name

    @pytest.mark.parametrize("dim, kernel_name, k, points", [
        (2, "laplace", 4, 33), (2, "gaussian", 4, 65), (3, "gaussian", 2, 17),
    ])
    def test_size_guard_counts_the_fft_lattice(self, monkeypatch, dim, kernel_name, k, points):
        # The budget's FFT term is 32 bytes a point of the padded lattice
        # the widened FFT transforms (tracemalloc read 27.4 to 30.4).
        f = make_target("truncated-normal", dim)
        grid = make_grid(f.support, points, "simpson")
        shapes, irfftn = [], grids.sp_fft.irfftn
        monkeypatch.setattr(grids.sp_fft, "irfftn",
                            lambda x, s, **kw: shapes.append(s) or irfftn(x, s, **kw))
        build_mixing_approximant(f, make_product_kernel(kernel_name, dim), k, grid)
        _, terms, name = self._fft_term("mix-rate", dim, kernel_name, k, points)
        side = shapes[-1][0]
        assert list(shapes[-1]) == [side] * dim
        assert name == f"the smoothed target's FFT lattice ({side}^{dim} points)"
        assert terms[name] == 32 * math.prod(shapes[-1])

    @pytest.mark.parametrize("dim, kernel_name, k, side, admitted", [
        (2, "gaussian", 16, 900, True),     # the 2-D mix-rate benchmark
        (2, "gaussian", 8, 972, True),      # the 2-D bounds benchmark
        (2, "laplace", 1, 6400, True),
        (3, "gaussian", 2, 400, True),      # about 1.92 GiB
        (3, "laplace", 2, 900, False),
        (3, "laplace", 4, 576, False),
    ])
    def test_size_guard_on_the_default_grid(self, dim, kernel_name, k, side, admitted):
        # Arithmetic only: nothing the budget refuses is allocated.
        cfg, terms, name = self._fft_term("bounds", dim, kernel_name, k)
        assert name == f"the smoothed target's FFT lattice ({side}^{dim} points)"
        assert (sum(terms.values()) <= harness.MEMORY_BUDGET) == admitted
        if not admitted:
            with pytest.raises(ConfigError, match=rf"memory guard.*\({side}\^{dim} points\)"):
                harness.run_study(cfg)
