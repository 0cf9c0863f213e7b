"""Tests for the target density zoo: certified bounds, mass, and samplers."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from mixapprox import harness
from mixapprox.densities import ZOO_NAMES, TargetDensity, make_target
from mixapprox.grids import SupportBox, cube, make_grid, sample_on_grid
from oracles import (
    box_contains_points,
    estimate_lipschitz,
    quadrature_integrate,
    target_lipschitz_constant,
    target_pdf,
    truncated_normal_density,
    verify_f5_membership,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
Z1 = 2.0 * ndtr(1.0) - 1.0


class TestMakeTarget:
    def test_zoo_names(self):
        assert set(ZOO_NAMES) == {
            "uniform-box", "clipped-cosine", "truncated-normal", "tent",
            "two-truncated-normals",
        }

    def test_uniform_box_1d(self):
        f = make_target("uniform-box", 1)
        assert target_pdf(f, np.array([0.5])) == 1.0
        assert f.beta_lower == 1.0
        assert target_lipschitz_constant(f) == 0.0

    def test_uniform_box_2d(self):
        f = make_target("uniform-box", 2)
        assert target_pdf(f, np.array([0.25, 0.75])) == 1.0
        assert target_pdf(f, np.array([1.25, 0.75])) == 0.0

    def test_truncated_normal_values(self):
        f = make_target("truncated-normal", 1)
        # Frozen against the closed form phi(x) / (2 Phi(1) - 1).
        assert target_pdf(f, np.array([0.0])) == pytest.approx(PHI0 / Z1, abs=1e-12)
        assert target_pdf(f, np.array([0.0])) == pytest.approx(0.58436857, abs=1e-8)
        edge = math.exp(-0.5) * PHI0 / Z1
        assert target_pdf(f, np.array([1.0])) == pytest.approx(edge, abs=1e-12)
        assert f.beta_lower == pytest.approx(0.35443745, abs=1e-8)

    def test_zero_extension(self):
        for name in ZOO_NAMES:
            f = make_target(name, 1)
            outside = np.array([[f.support.lower[0] - 0.25],
                                [f.support.upper[0] + 0.25]])
            assert np.all(target_pdf(f, outside) == 0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown density"):
            make_target("gaussian-bump", 1)

    def test_dim_guard(self):
        with pytest.raises(ValueError, match="dim"):
            make_target("tent", 4)

    @pytest.mark.parametrize("name", ZOO_NAMES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mass_at_default_resolution(self, name, dim):
        f = make_target(name, dim)
        grid = make_grid(f.support, harness._DEFAULT_POINTS[dim], "simpson")
        mass = quadrature_integrate(sample_on_grid(f, grid))
        assert abs(mass - 1.0) <= 1e-6, (name, dim, mass)

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_declared_bounds_certify(self, name):
        f = make_target(name, 1)
        grid = make_grid(f.support, 4097, "simpson")
        vals = sample_on_grid(f, grid).values
        assert vals.min() >= f.beta_lower - 1e-12
        assert vals.max() <= f.beta_upper + 1e-12

    def test_two_bumps_min_at_endpoints(self):
        f = make_target("two-truncated-normals", 1)
        grid = make_grid(f.support, 8193, "simpson")
        vals = sample_on_grid(f, grid).values
        assert vals.min() == pytest.approx(f.beta_lower, abs=1e-12)
        assert np.argmin(vals) in (0, vals.size - 1)

    def test_two_settable_fields(self):
        assert [fd.name for fd in fields(TargetDensity)] == ["marginal", "dim"]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", [*ZOO_NAMES, "custom"])
    def test_certificate_values(self, name, dim):
        # Hand-derived (lo, hi, min g, max g, sup |g'|) of each marginal g; a
        # truncated normal's slope peaks at |u| = 1, its extremes at the mode
        # and the end farther from it.  The custom one is N(0, 1) on [0, 2].
        def phi(t):
            return PHI0 * math.exp(-0.5 * t * t)
        bump = 0.12 * (ndtr(0.7 / 0.12) - ndtr(-0.3 / 0.12))
        custom = ndtr(2.0) - 0.5
        lo, hi, g_min, g_max, slope = {
            "uniform-box": (0.0, 1.0, 1.0, 1.0, 0.0),
            "clipped-cosine": (0.0, 1.0, 0.0, 2.0, 2.0 * math.pi),
            "tent": (0.0, 1.0, 0.0, 2.0, 4.0),
            "truncated-normal": (-1.0, 1.0, phi(1.0) / Z1, PHI0 / Z1, phi(1.0) / Z1),
            "two-truncated-normals": (0.0, 1.0, 0.5 * (phi(2.5) + phi(0.7 / 0.12)) / bump,
                                      PHI0 / bump, phi(1.0) / (0.12 * bump)),
            "custom": (0.0, 2.0, phi(2.0) / custom, PHI0 / custom, phi(1.0) / custom),
        }[name]
        if name == "custom":
            f = truncated_normal_density(0.0, 2.0, dim=dim)
        else:
            f = make_target(name, dim)
        assert f.name == ("truncated-normal" if name == "custom" else name)
        assert f.support == SupportBox((lo,) * dim, (hi,) * dim)
        # On [lo, hi]^dim the product's extremes are the marginal's to the
        # power dim, and its gradient's l1 norm is at most dim sup|g'| max^(dim-1).
        assert f.beta_lower == pytest.approx(g_min ** dim, rel=1e-12)
        assert f.beta_upper == pytest.approx(g_max ** dim, rel=1e-12)
        assert target_lipschitz_constant(f) == pytest.approx(
            dim * slope * g_max ** (dim - 1), rel=1e-12, abs=0.0)

    def test_custom_truncated_normal(self):
        f = truncated_normal_density(-8.0, 8.0)
        assert target_pdf(f, np.array([0.0])) == pytest.approx(PHI0, rel=1e-12)


class TestF5Membership:
    def test_uniform_passes(self):
        f = make_target("uniform-box", 1)
        rep = verify_f5_membership(f, make_grid(f.support, 1025, "trapezoid"))
        assert rep.passed and rep.in_class
        assert rep.measured_mass == pytest.approx(1.0, abs=1e-10)

    def test_truncated_normal_min_at_edges(self):
        f = make_target("truncated-normal", 1)
        rep = verify_f5_membership(f, make_grid(f.support, 2049, "simpson"))
        assert rep.passed and rep.in_class
        assert rep.measured_min == pytest.approx(0.35443745, abs=1e-8)

    def test_tent_outside_class(self):
        f = make_target("tent", 1)
        rep = verify_f5_membership(f, make_grid(f.support, 2049, "simpson"))
        assert rep.passed          # certificates hold (beta_lower is 0)
        assert not rep.in_class    # but the density is not bounded below

    def test_broken_scaled_density_fails(self):
        f = make_target("uniform-box", 1)

        class Scaled(type(f.marginal)):
            def pdf(self, x):
                return 0.9 * super().pdf(x)

        broken = replace(f, marginal=Scaled())
        rep = verify_f5_membership(broken, make_grid(f.support, 1025, "trapezoid"))
        assert not rep.passed
        assert rep.measured_mass == pytest.approx(0.9, abs=1e-9)

    def test_grid_mismatch_error(self):
        f = make_target("truncated-normal", 1)
        with pytest.raises(ValueError, match="cover"):
            verify_f5_membership(f, make_grid(cube(0.0, 1.0, 1), 257, "simpson"))


class TestEstimateLipschitz:
    def test_uniform_is_flat(self):
        f = make_target("uniform-box", 1)
        grid = make_grid(f.support, 1025, "trapezoid")
        assert estimate_lipschitz(f, grid, 1.0) == 0.0

    def test_tent_slope(self):
        f = make_target("tent", 1)
        grid = make_grid(f.support, 2049, "simpson")
        est = estimate_lipschitz(f, grid, 1.0)
        assert est == pytest.approx(4.0, rel=1e-9)

    def test_truncated_normal_matches_derivative_sweep(self):
        f = make_target("truncated-normal", 1)
        grid = make_grid(f.support, 2049, "simpson")
        est = estimate_lipschitz(f, grid, 1.0)
        # Dense finite-difference oracle for sup |f'| on the support.
        xs = np.linspace(-1.0, 1.0, 200_001)
        vals = target_pdf(f, xs[:, None])
        oracle = np.max(np.abs(np.diff(vals))) / (xs[1] - xs[0])
        assert est == pytest.approx(oracle, rel=1e-4)

    @pytest.mark.parametrize("name", ZOO_NAMES)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_never_exceeds_declared_constant(self, name, dim):
        f = make_target(name, dim)
        pts = 2049 if dim == 1 else 129
        grid = make_grid(f.support, pts, "simpson")
        est = estimate_lipschitz(f, grid, 1.0)
        assert est <= target_lipschitz_constant(f) * (1 + 1e-6), (name, dim)

    def test_resolution_guard(self):
        f = make_target("tent", 1)
        with pytest.raises(ValueError, match="64"):
            estimate_lipschitz(f, make_grid(f.support, 33, "trapezoid"), 1.0)


class TestSamplers:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_histogram_matches_quadrature(self, name):
        f = make_target(name, 1)
        rng = np.random.default_rng(321)
        n = 100_000
        xs = f.sample(n, rng)[:, 0]
        lo, hi = f.support.lower[0], f.support.upper[0]
        edges = np.linspace(lo, hi, 17)
        counts, _ = np.histogram(xs, bins=edges)
        for i in range(16):
            g = make_grid(cube(edges[i], edges[i + 1], 1), 257, "simpson")
            p = quadrature_integrate(sample_on_grid(f, g))
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[i] / n - p) <= 4 * se, (name, i)

    def test_dim2_first_coordinate(self):
        f = make_target("two-truncated-normals", 2)
        rng = np.random.default_rng(99)
        xs = f.sample(100_000, rng)
        assert xs.shape == (100_000, 2)
        base = make_target("two-truncated-normals", 1)
        edges = np.linspace(0.0, 1.0, 17)
        counts, _ = np.histogram(xs[:, 0], bins=edges)
        for i in range(16):
            g = make_grid(cube(edges[i], edges[i + 1], 1), 257, "simpson")
            p = quadrature_integrate(sample_on_grid(base, g))
            se = math.sqrt(max(p * (1 - p), 1e-12) / xs.shape[0])
            assert abs(counts[i] / xs.shape[0] - p) <= 4 * se, i

    @pytest.mark.parametrize("name", ["truncated-normal", "two-truncated-normals"])
    def test_truncated_normal_draws_have_the_scipy_bits(self, name):
        # The inverse-cdf draw mu + sigma ndtri(Phi(a) + u Z) and its
        # normaliser Z, bit for bit as scipy.special computes them; the
        # two-bump components reach ndtri's tails.
        marginal = make_target(name, 1).marginal
        for m in getattr(marginal, "components", (marginal,)):
            assert m.cdf_a == ndtr(m.a)
            assert m.z == ndtr(m.b) - ndtr(m.a)
            u = np.random.default_rng(8).random(200_000)
            want = m.mu + m.sigma * ndtri(m.cdf_a + u * m.z)
            got = m.sample(u.size, np.random.default_rng(8))
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name

    @pytest.mark.parametrize("n", [0, 1, 7, 250, 4000, 100_000])
    def test_two_bump_draws_equal_the_two_stack_formula(self, n):
        # The sampler inverts only the uniform each draw keeps; ndtri acts
        # element by element, so it keeps the bits and the random stream of
        # inverting both uniforms and picking with np.where.
        m = make_target("two-truncated-normals", 1).marginal
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pick = rng.random(n) < 0.5
            draws = np.stack([c.ppf(rng.random(n)) for c in m.components])
            want = np.where(pick, draws[0], draws[1])
            got_rng = np.random.default_rng(seed)
            got = m.sample(n, got_rng)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert got_rng.random() == rng.random()

    def test_deterministic_given_seed(self):
        f = make_target("clipped-cosine", 1)
        a = f.sample(500, np.random.default_rng(7))
        b = f.sample(500, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_samples_inside_support(self):
        for name in ZOO_NAMES:
            f = make_target(name, 2)
            xs = f.sample(2_000, np.random.default_rng(5))
            assert np.all(box_contains_points(f.support, xs))
