"""Tests for norms, total variation, KL divergence, the KL-L2 bound, and the
empirical rms distance of the covering numbers."""

import math
from functools import partial

import numpy as np
import pytest

from mixapprox.bounds import _rms_distances
from mixapprox.divergences import AbsoluteContinuityError, kl_divergence, lq_norm
from mixapprox.grids import GridFunction, cube, make_grid, sample_on_grid
from mixapprox.densities import make_target
from oracles import grid_difference, grid_mass, kl_l2_bound_check, target_pdf


def _uniform_gf(grid):
    return GridFunction(grid, np.ones(grid.shape))


class TestLqNorm:
    def test_uniform_values(self):
        grid = make_grid(cube(0.0, 1.0, 1), 1025, "trapezoid")
        u = _uniform_gf(grid)
        assert lq_norm(u, 2) == pytest.approx(1.0, abs=1e-12)
        assert lq_norm(u, np.inf) == 1.0

    def test_tent_l2(self):
        f = make_target("tent", 1)
        grid = make_grid(f.support, 2049, "simpson")
        gf = sample_on_grid(f, grid)
        assert lq_norm(gf, 2) == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-9)

    def test_order_below_one_rejected(self):
        grid = make_grid(cube(0.0, 1.0, 1), 65, "trapezoid")
        with pytest.raises(ValueError):
            lq_norm(_uniform_gf(grid), 0.5)


class TestTvDistance:
    """Total variation is half the L1 distance: lq_norm(grid_difference(f, g), 1) = 2 TV."""

    def test_identical_is_zero(self):
        grid = make_grid(cube(0.0, 1.0, 1), 257, "simpson")
        u = _uniform_gf(grid)
        assert lq_norm(grid_difference(u, u), 1) == 0.0

    def test_disjoint_boxes(self):
        grid = make_grid(cube(0.0, 3.0, 1), 3073, "trapezoid")
        x = grid.nodes[0]
        f = GridFunction(grid, np.where(x <= 1.0, 1.0, 0.0))
        g = GridFunction(grid, np.where(x >= 2.0, 1.0, 0.0))
        assert lq_norm(grid_difference(f, g), 1) == pytest.approx(2.0, abs=2e-3)

    def test_half_shifted_boxes(self):
        grid = make_grid(cube(0.0, 1.5, 1), 1537, "trapezoid")
        x = grid.nodes[0]
        f = GridFunction(grid, np.where(x <= 1.0, 1.0, 0.0))
        g = GridFunction(grid, np.where(x >= 0.5, 1.0, 0.0))
        # Interior jumps cost half a cell each on the lattice; frozen value.
        h = grid.spacing[0]
        assert lq_norm(grid_difference(f, g), 1) == pytest.approx(1.0 - h, abs=1e-12)
        assert lq_norm(grid_difference(f, g), 1) == pytest.approx(1.0, abs=1e-3)

    def test_grid_mismatch(self):
        a = _uniform_gf(make_grid(cube(0.0, 1.0, 1), 65, "trapezoid"))
        b = _uniform_gf(make_grid(cube(0.0, 2.0, 1), 65, "trapezoid"))
        with pytest.raises(ValueError):
            lq_norm(grid_difference(a, b), 1)


class TestKlDivergence:
    def test_identical_is_zero(self):
        f = make_target("truncated-normal", 1)
        grid = make_grid(f.support, 1025, "simpson")
        gf = sample_on_grid(f, grid)
        assert kl_divergence(gf, gf) == 0.0

    def test_uniform_vs_linear_closed_form(self):
        # Avoid the zero of 2x at the origin with a left-trimmed box; the
        # closed form of the trimmed integral is (1 - log 2) - a + a log(2a).
        a = 1e-4
        grid = make_grid(cube(a, 1.0, 1), 65537, "simpson")
        u = _uniform_gf(grid)
        lin = GridFunction(grid, 2.0 * grid.nodes[0])
        expected = (1.0 - math.log(2.0)) - a + a * math.log(2.0 * a)
        assert kl_divergence(u, lin) == pytest.approx(expected, abs=1e-8)
        assert kl_divergence(u, lin) == pytest.approx(0.30685, abs=1e-3)

    def test_constant_ratio(self):
        grid = make_grid(cube(0.0, 1.0, 1), 2049, "simpson")
        u = _uniform_gf(grid)
        half = GridFunction(grid, np.full(grid.shape, 0.5))
        assert kl_divergence(u, half) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_absolute_continuity_violation(self):
        grid = make_grid(cube(0.0, 1.0, 1), 257, "simpson")
        u = _uniform_gf(grid)
        g = GridFunction(grid, np.where(grid.nodes[0] > 0.5, 2.0, 0.0))
        with pytest.raises(AbsoluteContinuityError):
            kl_divergence(u, g)

    def test_nonnegative_on_density_pairs(self):
        rng = np.random.default_rng(17)
        grid = make_grid(cube(0.0, 1.0, 1), 1025, "simpson")
        x = grid.nodes[0]
        for _ in range(25):
            f = GridFunction(grid, 1.0 + rng.uniform(-0.4, 0.4) * np.sin(2 * np.pi * x))
            g = GridFunction(grid, 1.0 + rng.uniform(-0.4, 0.4) * np.cos(2 * np.pi * x)
                             * np.sin(np.pi * x) ** 2 * 2)
            g = GridFunction(grid, g.values / grid_mass(g))
            assert kl_divergence(f, g) >= -1e-9

    def test_refinement_stability(self):
        f = make_target("clipped-cosine", 1)
        g = make_target("truncated-normal", 1)
        coarse = make_grid(cube(0.0, 1.0, 1), 1025, "simpson")
        fine = make_grid(cube(0.0, 1.0, 1), 2049, "simpson")
        vals = {}
        for tag, grid in (("coarse", coarse), ("fine", fine)):
            fg = sample_on_grid(f, grid)
            gg = GridFunction(grid, g.marginal.pdf(2.0 * grid.nodes[0] - 1.0) * 2.0)
            vals[tag] = (
                kl_divergence(fg, gg),
                lq_norm(grid_difference(fg, gg), 1),
                lq_norm(grid_difference(fg, gg), 2),
            )
        for a, b in zip(vals["coarse"], vals["fine"]):
            assert abs(a - b) < 1e-4


def _rms_distance(f, g, xs):
    """Empirical rms distance of two densities, as one entry of the table the
    covering numbers read: two rows, one per density."""
    return _rms_distances(np.stack([f(xs), g(xs)]))[0, 1]


class TestEmpiricalDistance:
    def test_identical(self):
        f = make_target("tent", 1)
        xs = np.linspace(0.1, 0.9, 33)[:, None]
        assert _rms_distance(partial(target_pdf, f), partial(target_pdf, f), xs) == 0.0

    def test_constant_gap(self):
        xs = np.linspace(0.0, 1.0, 10)[:, None]
        d = _rms_distance(lambda x: np.ones(x.shape[0]),
                          lambda x: np.full(x.shape[0], 0.5), xs)
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_recomputation(self):
        f = make_target("uniform-box", 1)
        g = make_target("tent", 1)
        xs = np.linspace(0.0, 1.0, 128)[:, None]
        d = _rms_distance(partial(target_pdf, f), partial(target_pdf, g), xs)
        oracle = math.sqrt(np.mean((target_pdf(f, xs) - target_pdf(g, xs)) ** 2))
        assert d == pytest.approx(oracle, abs=1e-12)


class TestKlL2Bound:
    def test_identical_pair(self):
        f = make_target("uniform-box", 1)
        grid = make_grid(f.support, 1025, "simpson")
        rep = kl_l2_bound_check(f, sample_on_grid(f, grid))
        assert rep.passed
        assert rep.kl == 0.0 and rep.rhs == 0.0

    def test_linear_perturbation(self):
        f = make_target("uniform-box", 1)
        grid = make_grid(f.support, 2049, "simpson")
        g = GridFunction(grid, 0.8 + 0.4 * grid.nodes[0])
        rep = kl_l2_bound_check(f, g)
        assert rep.passed
        assert rep.beta == pytest.approx(0.8, abs=1e-12)
        # Oracle: integral of (0.2 - 0.4 x)^2 over the unit box is 0.04 / 3.
        assert rep.l2_squared == pytest.approx(0.04 / 3.0, abs=1e-10)

    def test_rejects_unbounded_target(self):
        f = make_target("tent", 1)
        grid = make_grid(f.support, 1025, "simpson")
        with pytest.raises(ValueError, match="bounded below"):
            kl_l2_bound_check(f, sample_on_grid(f, grid))

    def test_randomized_pairs_never_violate(self):
        rng = np.random.default_rng(5150)
        f = make_target("uniform-box", 1)
        grid = make_grid(f.support, 1025, "simpson")
        x = grid.nodes[0]
        for _ in range(30):
            v = np.ones_like(x)
            for j in range(1, 4):
                v = v + rng.uniform(-0.2, 0.2) * np.sin(2 * np.pi * j * x)
            rep = kl_l2_bound_check(f, GridFunction(grid, v))
            assert rep.passed
