"""Tests for finite mixtures: evaluation, sampling, EM, MLE, and greedy fits."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from mixapprox import mixtures
from mixapprox.bounds import hull_kl_constant
from mixapprox.densities import make_target
from mixapprox.divergences import lq_norm
from mixapprox.grids import GridFunction, cube, make_grid, sample_on_grid
from mixapprox.kernels import MARGINAL_NAMES, Dilation, make_product_kernel
from mixapprox.mixtures import (
    FiniteMixture,
    MeanBox,
    MixtureDictionary,
    build_dictionary,
    build_mixing_approximant,
    em_fit,
    greedy_fit,
    log_likelihood,
    mixture_eval,
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
        assert mixture_eval(m, np.array([[0.0]]))[0] == pytest.approx(PHI0, abs=1e-15)

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
        gf = GridFunction(grid, m.pdf(grid.mesh()))
        assert abs(gf.mass - 1.0) <= 1e-5

    def test_grid_shaped_pdf(self):
        m = _mix([1.0], [[0.5, 0.5]], 2, make_product_kernel("gaussian", 2))
        grid = make_grid(cube(0.0, 1.0, 2), 33, "trapezoid")
        vals = m.pdf(grid.mesh())
        assert vals.shape == grid.shape


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", MARGINAL_NAMES)
class TestComponentEvaluator:
    """Every caller of the one component evaluator against a per-mean loop of
    Dilation.log_pdf: exact on the per-axis route, within 1e-10 on the
    Gaussian p > 1 route, which expands the squared distance into a GEMM."""

    @staticmethod
    def _case(name, p, k):
        rng = np.random.default_rng([p, k])
        kernel = make_product_kernel(name, p)
        means = rng.uniform(-1.0, 1.0, size=(6, p))
        x = rng.uniform(-1.5, 1.5, size=(200, p))
        dil = Dilation(kernel, k)
        ref = np.stack([dil.log_pdf(x - m) for m in means], axis=1)
        return kernel, means, x, ref

    @staticmethod
    def _check(got, ref, gemm_route, relative=False):
        # Logs compare absolutely; values, whose logs they are, relatively.
        if not gemm_route:
            assert np.array_equal(got, ref)
        elif relative:
            assert_allclose(got, ref, rtol=1e-10, atol=0.0)
        else:
            assert_allclose(got, ref, rtol=0.0, atol=1e-10)

    def test_finite_mixture_component_log_pdf(self, name, p, k):
        kernel, means, x, ref = self._case(name, p, k)
        mix = FiniteMixture(np.full(6, 1.0 / 6), means, k, kernel)
        got = mix.component_log_pdf(x)
        assert got.shape == (200, 6)
        self._check(got, ref, name == "gaussian" and p > 1)

    def test_dictionary_evaluate_at(self, name, p, k):
        kernel, means, x, ref = self._case(name, p, k)
        grid = make_grid(cube(-1.0, 1.0, p), 3, "simpson")
        dictionary = MixtureDictionary(kernel, k, means, grid, np.empty((6, 3 ** p)))
        got = dictionary.evaluate_at(x)
        assert got.shape == (6, 200)
        # No value here underflows, so a relative bound is one on the logs.
        self._check(got, np.exp(ref).T, name == "gaussian" and p > 1, relative=True)
        if p == 1:
            assert np.array_equal(dictionary.evaluate_at(x[:, 0]), got)

    def test_hull_kl_constant_on_finite_mixture(self, name, p, k):
        kernel, means, _, _ = self._case(name, p, k)
        weights = np.arange(1.0, 7.0) / 21.0
        grid = make_grid(cube(-1.0, 1.0, p), 9, "simpson")
        pts = grid.mesh().reshape(-1, p)
        dil = Dilation(kernel, k)
        comp = np.exp(np.stack([dil.log_pdf(pts - m) for m in means], axis=1))
        numer, denom = comp ** 2 @ weights, comp @ weights
        ratio = np.where(denom > 0, numer / np.maximum(denom, 1e-300), 0.0)
        ref = grid.integrate(ratio.reshape(grid.shape))
        got = hull_kl_constant(FiniteMixture(weights, means, k, kernel), grid)
        self._check(got, ref, name == "gaussian" and p > 1, relative=True)


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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = em_fit(xs, 2, 64, GAUSS, box,
                         init_rng=np.random.default_rng(12))
        if fit.dropped:
            assert any("starved" in str(w.message) for w in caught)
            assert fit.mixture.n < 2
        assert fit.reseeds >= 1


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


def _gaussian_em_oracle(xs, n, k, kernel, box, init_rng, max_iters=500, tol=1e-8):
    """Oracle: projected Gaussian EM from the (N, n) component log densities,
    a row-wise log-sum-exp, an (N, n) responsibility matrix and a weighted
    mean per component, with the same starvation, reseed and drop rules."""
    N = xs.shape[0]
    means = mixtures._init_means(xs, n, box, init_rng)
    weights = np.full(n, 1.0 / n)
    reseed_rng = init_rng if init_rng is not None else np.random.default_rng(0)
    reseeded, reseeds, dropped = set(), 0, 0
    trace, prev, converged, it = [], -math.inf, False, 0
    for it in range(1, max_iters + 1):
        comp = mixtures._component_log_pdf(kernel, k, means, xs)
        joint = comp + np.log(np.maximum(weights, 1e-300))[None, :]
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
            assert abs(GridFunction(gm, mix.pdf(gm.mesh())).mass - 1.0) <= 1e-5

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
            ref = mix.pdf(grid.mesh())
            assert field.shape == grid.shape
            assert_allclose(field, ref, rtol=1e-12, atol=0.0)
            assert np.array_equal(field == 0, ref == 0)
        if kernel_name == "epanechnikov":
            assert np.any(fit.fields[0] == 0)

    def test_empty_dictionary_rejected(self):
        from mixapprox.mixtures import MixtureDictionary

        _, grid, fbar, dictionary = self._setup(means=65, n_pts=1025)
        empty = MixtureDictionary(GAUSS, 16, np.empty((0, 1)), grid,
                                  np.empty((0, grid.points_per_axis)))
        with pytest.raises(ValueError, match="empty"):
            greedy_fit(fbar, empty, 4)

    def test_unknown_objective_rejected(self):
        _, _, fbar, dictionary = self._setup(means=65, n_pts=1025)
        with pytest.raises(ValueError, match="objective"):
            greedy_fit(fbar, dictionary, 2, objective="entropy")

    def test_dictionary_size_guard(self):
        grid = make_grid(cube(0.0, 1.0, 1), 1025, "simpson")
        with pytest.raises(ValueError, match="10"):
            build_dictionary(GAUSS, 8, MeanBox(0.0, 1.0, 1), 10_001, grid)


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
