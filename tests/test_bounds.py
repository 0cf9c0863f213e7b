"""Tests for bound constants, right-hand sides, and covering numbers."""

import math

import numpy as np
import pytest

from mixapprox.bounds import (
    GAMMA_AT_ZERO,
    BoundReport,
    compute_A_logratio,
    compute_gamma,
    covering_number,
    dudley_entropy_integral,
    estimate_B_lipschitz,
    hull_kl_constant,
    kl_bound_two_stage,
    mle_risk_bound,
    mle_risk_bound_split,
    mle_risk_concentration,
    target_kl_constant,
)
from mixapprox.densities import make_target
from mixapprox import bounds, mixtures
from mixapprox.grids import GridFunction, SupportBox, convolve, cube, make_grid
from mixapprox.kernels import MARGINAL_NAMES, Dilation, make_product_kernel
from mixapprox.mixtures import (
    FiniteMixture,
    MeanBox,
    MixingApproximant,
    MixtureDictionary,
    build_dictionary,
    build_mixing_approximant,
)

GAUSS = make_product_kernel("gaussian", 1)
UNIT_BOX = MeanBox(0.0, 1.0, 1)
UNIT_DOMAIN = cube(0.0, 1.0, 1)


class TestLogRatioSup:
    def test_degenerate_box(self):
        assert compute_A_logratio(GAUSS, 1, MeanBox(0.5, 0.5, 1), UNIT_DOMAIN) == 0.0

    def test_gaussian_unit_setup(self):
        # Per coordinate the sup of ((x-m2)^2 - (x-m1)^2)/2 over the unit
        # box is attained at the corners and equals 1/2.
        a = compute_A_logratio(GAUSS, 1, UNIT_BOX, UNIT_DOMAIN)
        assert a == pytest.approx(0.5, abs=1e-12)

    def test_scales_with_k_squared(self):
        a = compute_A_logratio(GAUSS, 4, UNIT_BOX, UNIT_DOMAIN)
        assert a == pytest.approx(8.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_narrow_domain_in_the_unit_box(self, k):
        # From x = 0.4 the nearest mean is x itself and the farthest is 1, so
        # the sup is (0.6 k)^2 / 2; the domain end 0.6 gives the same.
        a = compute_A_logratio(GAUSS, k, UNIT_BOX, cube(0.4, 0.6, 1))
        assert a == pytest.approx(0.18 * k * k, rel=1e-14)

    def test_separates_over_axes(self):
        k2 = make_product_kernel("gaussian", 2)
        a = compute_A_logratio(k2, 1, MeanBox(0.0, 1.0, 2), cube(0.0, 1.0, 2))
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_compact_marginal_flags_infinite(self):
        uni = make_product_kernel("uniform-symmetric", 1)
        assert compute_A_logratio(uni, 1, UNIT_BOX, UNIT_DOMAIN) == math.inf


def _probe_table(marginal, k, box, domain, axis, n):
    """Probe table log g(k (x - m)) over n domain nodes by n mean nodes of one
    axis, returned with the mean nodes."""
    xs = np.linspace(domain.lower[axis], domain.upper[axis], n)
    ms = np.linspace(box.m_lower, box.m_upper, n)
    return marginal.log_pdf(k * (xs[:, None] - ms[None, :])), ms


def _probe_A(kernel, k, box, domain, n):
    """Oracle: the dense probe the closed form replaced.  Per axis, the spread
    of log g(k(x - m)) over n mean nodes at each of n domain nodes, maxed over
    the domain nodes and summed over the axes; inf when a spread is not finite."""
    total = 0.0
    for axis in range(kernel.dim):
        lg, _ = _probe_table(kernel.marginal, k, box, domain, axis, n)
        with np.errstate(invalid="ignore"):
            spread = lg.max(axis=1) - lg.min(axis=1)
        if not np.all(np.isfinite(spread)):
            return math.inf
        total += float(spread.max())
    return total


# (domain, mean box) per axis: the box equal to the domain, inside it, and
# wider than it, on the unit interval and on a narrower one, where k = 1
# keeps the compact marginals' log ratios finite.
A_CASES = {
    "equal": ((0.0, 1.0), (0.0, 1.0)),
    "equal-narrow": ((0.3, 0.7), (0.3, 0.7)),
    "inside": ((0.0, 1.0), (0.2, 0.7)),
    "inside-narrow": ((0.3, 0.7), (0.4, 0.55)),
    "wider": ((0.0, 1.0), (-3.0, 4.0)),
    "wider-one-end": ((0.3, 0.7), (0.3, 1.2)),
}


class TestLogRatioSupMatchesProbeOracle:
    @pytest.mark.parametrize("case", sorted(A_CASES))
    @pytest.mark.parametrize("k", [1, 4, 16])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("marginal", MARGINAL_NAMES)
    def test_closed_form_against_the_probe(self, marginal, p, k, case):
        (lo, hi), (m_lo, m_hi) = A_CASES[case]
        kernel = make_product_kernel(marginal, p)
        box, domain = MeanBox(m_lo, m_hi, p), cube(lo, hi, p)
        closed = compute_A_logratio(kernel, k, box, domain)
        coarse, fine = (_probe_A(kernel, k, box, domain, n) for n in (65, 257))
        if (lo, hi) == (m_lo, m_hi) or math.isinf(closed):
            # Both probes hold the extreme pairs of every axis as nodes.
            assert closed == coarse == fine
            return
        # The probe misses the mean nearest a domain end unless it is a box
        # end, so it can only fall short of the sup, less as it is refined.
        tol = 4 * math.ulp(closed)
        assert closed >= fine - tol
        assert closed - fine <= max(closed - coarse, 0.0) + tol


class TestGamma:
    def test_value_at_zero(self):
        assert compute_gamma(0.0) == pytest.approx(6.39445, abs=1e-3)
        assert compute_gamma(0.0) == pytest.approx(GAMMA_AT_ZERO, abs=0)

    def test_arithmetic(self):
        assert compute_gamma(0.5) == pytest.approx(GAMMA_AT_ZERO + 2.0, abs=1e-12)
        assert compute_gamma(1.0) == pytest.approx(GAMMA_AT_ZERO + 4.0, abs=1e-12)

    def test_rejects_infinite_and_negative(self):
        with pytest.raises(ValueError):
            compute_gamma(math.inf)
        with pytest.raises(ValueError):
            compute_gamma(-0.1)

    def test_lower_bound(self):
        for a in (0.0, 0.3, 2.0, 100.0):
            assert compute_gamma(a) >= GAMMA_AT_ZERO


class TestLipschitzLogConstant:
    def test_gaussian_unit_setup(self):
        # sup |x - (m1+m2)/2| over the unit box is 1; the probe grid
        # approaches it from below at rate 1/points.
        b = estimate_B_lipschitz(GAUSS, 1, UNIT_BOX, UNIT_DOMAIN, points_per_axis=256)
        assert b == pytest.approx(1.0, abs=1e-2)
        assert b <= 1.0

    def test_degenerate_box(self):
        assert estimate_B_lipschitz(GAUSS, 1, MeanBox(0.3, 0.3, 1), UNIT_DOMAIN) == 0.0

    def test_laplace_scales_linearly_in_k(self):
        lap = make_product_kernel("laplace", 1)
        for k in (1, 4, 16):
            b = estimate_B_lipschitz(lap, k, UNIT_BOX, UNIT_DOMAIN)
            assert b == pytest.approx(float(k), rel=1e-9)

    def test_compact_marginal_raises(self):
        uni = make_product_kernel("uniform-symmetric", 1)
        with pytest.raises(ValueError, match="infinite"):
            estimate_B_lipschitz(uni, 1, UNIT_BOX, UNIT_DOMAIN)


def _all_pairs_B(kernel, k, box, domain, n):
    """Oracle: the Lipschitz sweep over every pair of probe means, per row of
    the probe table, at n probe points per axis."""
    best = 0.0
    for axis in range(kernel.dim):
        lg, ms = _probe_table(kernel.marginal, k, box, domain, axis, n)
        dm = np.abs(ms[:, None] - ms[None, :])
        np.fill_diagonal(dm, np.inf)
        for row in lg:
            quot = np.abs(row[:, None] - row[None, :]) / dm
            best = max(best, float(quot.max()))
    return best


class TestLipschitzMatchesAllPairsOracle:
    # Neighbouring chords bound every chord, so the sweep over neighbouring
    # means only must give the all-pairs value bit for bit.
    @pytest.mark.parametrize("marginal", ["gaussian", "laplace"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 4, 16, 32])
    @pytest.mark.parametrize("box_lo, box_hi", [(0.0, 1.0), (0.2, 0.7)])
    def test_equal_to_all_pairs(self, marginal, p, k, box_lo, box_hi):
        kernel = make_product_kernel(marginal, p)
        box = MeanBox(box_lo, box_hi, p)
        domain = SupportBox((0.0, -0.5, 0.2)[:p], (1.0, 1.5, 0.6)[:p])
        points = 24
        got = estimate_B_lipschitz(kernel, k, box, domain, points_per_axis=2 * points - 1)
        assert got == _all_pairs_B(kernel, k, box, domain, 2 * points - 1)

    def test_equal_at_the_default_resolution(self):
        lap = make_product_kernel("laplace", 1)
        box = MeanBox(0.1, 0.6, 1)
        assert (estimate_B_lipschitz(lap, 8, box, UNIT_DOMAIN)
                == _all_pairs_B(lap, 8, box, UNIT_DOMAIN, 2 * 128 - 1))


# Two targets, two scales and p = 1, 2 for the integral-ratio constants.
RATIO_CASES = [(name, p, k) for name in ("uniform-box", "truncated-normal")
               for p in (1, 2) for k in (4, 8)]


def _ratio_case(name, p, k):
    f = make_target(name, p)
    grid = make_grid(f.support, {1: 1025, 2: 129}[p], "simpson")
    return f, grid, build_mixing_approximant(f, make_product_kernel("gaussian", p), k, grid)


def _point_mass_mixing():
    # All of the mixing law's mass on the node 0.5 of a wide grid.
    grid = make_grid(cube(-2.0, 3.0, 1), 2049, "simpson")
    spike = np.zeros(grid.shape)
    spike[1024] = 1.0 / grid.weights[0][1024]
    target = GridFunction(grid, spike)
    return MixingApproximant(target, GAUSS, 4,
                             convolve(target, Dilation(GAUSS, 4), out_grid=grid))


class TestIntegralRatioConstants:
    def test_point_mass_hull_constant_is_kernel_mass(self):
        # With a one-point mixing law the ratio collapses to the component
        # density, so the constant is its mass over the domain.
        assert hull_kl_constant(_point_mass_mixing()) == pytest.approx(1.0, abs=1e-9)

    def test_point_mass_target_constant_is_one(self):
        assert target_kl_constant(_point_mass_mixing()) == pytest.approx(1.0, abs=1e-9)

    def test_target_constant_at_least_one(self):
        # Jensen: the squared-denominator ratio is >= 1 pointwise, and the
        # weight is a unit-mass density over the domain.
        for case in RATIO_CASES:
            _, _, mixing = _ratio_case(*case)
            assert target_kl_constant(mixing) >= 1.0 - 1e-9, case

    def test_quadrature_matches_mc_oracle(self):
        # Monte Carlo over means drawn from the target: the component
        # density's first and second moments at every grid node.  The product
        # kernel factors per axis, so both sums over the draws are one
        # contraction of the per-axis factor tables.
        for name, p, k in RATIO_CASES:
            f, grid, mixing = _ratio_case(name, p, k)
            rng = np.random.default_rng([p, k, 0])
            draws = 40_000
            ms = f.sample(draws, rng).reshape(draws, p)
            factors = [k * np.exp(-0.5 * (k * (x[None, :] - ms[:, a, None])) ** 2)
                       / math.sqrt(2 * math.pi) for a, x in enumerate(grid.nodes)]
            spec = ",".join("c" + "ij"[a] for a in range(p)) + "->" + "ij"[:p]
            numer = np.einsum(spec, *[g ** 2 for g in factors])
            denom = np.einsum(spec, *factors)
            mc_ch = grid.integrate(numer / denom)
            mc_ct = grid.integrate(numer / denom ** 2 * draws * mixing.target.values)
            assert hull_kl_constant(mixing) == pytest.approx(mc_ch, rel=0.01), (name, p, k)
            assert target_kl_constant(mixing) == pytest.approx(mc_ct, rel=0.01), (name, p, k)

    def test_smoothed_fields_built_once_on_the_realized_grid(self, monkeypatch):
        # Both constants share the mixing approximant's realized field and
        # its squared-kernel numerator; only the numerator needs a convolution.
        f = make_target("truncated-normal", 1)
        grid = make_grid(f.support, 513, "simpson")
        mixing = build_mixing_approximant(f, GAUSS, 4, grid)
        calls = []
        real_convolve = mixtures.convolve
        monkeypatch.setattr(mixtures, "convolve",
                            lambda *a, **kw: calls.append(1) or real_convolve(*a, **kw))
        hull_kl_constant(mixing)
        target_kl_constant(mixing)
        assert len(calls) == 1
        assert mixing.second_moment.grid.same_lattice(grid)

    def test_symmetric_mixing_gives_symmetric_ratio(self):
        mix = FiniteMixture(np.array([0.5, 0.5]), np.array([[0.3], [0.7]]), 8, GAUSS)
        grid = make_grid(cube(0.0, 1.0, 1), 513, "simpson")
        pts = grid.mesh().reshape(-1, 1)
        z = 8.0 * (pts[None, :, :] - mix.means[:, None, :])
        comp = 8.0 * np.exp(-0.5 * z[..., 0] ** 2) / math.sqrt(2 * math.pi)
        ratio = (mix.weights @ comp ** 2) / (mix.weights @ comp)
        assert np.max(np.abs(ratio - ratio[::-1])) < 1e-9


class TestBoundFormulas:
    def test_two_stage_values(self):
        assert kl_bound_two_stage(0.01, 1.0, 2.0, 10) == pytest.approx(0.21, abs=1e-12)
        # n -> infinity leaves the smoothing term.
        assert kl_bound_two_stage(0.01, 1.0, 2.0, 10**9) == pytest.approx(0.01, abs=1e-8)
        # beta = 2 halves both terms.
        assert kl_bound_two_stage(0.01, 2.0, 2.0, 10) == pytest.approx(0.105, abs=1e-12)

    def test_mle_risk_bound_frozen_value(self):
        v = mle_risk_bound(0.01, 1.0, 6.39445, 1.0, 10, 1000, 1.0, 1.0, 1)
        # Frozen from exact arithmetic of the three-term sum.
        assert v == pytest.approx(5.110213995123747, abs=1e-9)
        assert v == pytest.approx(5.1102, abs=1e-3)

    def test_mle_risk_bound_limits(self):
        base = mle_risk_bound(0.01, 1.0, 6.39445, 1.0, 10, 10**12, 1.0, 1.0, 1)
        assert base == pytest.approx(0.01 + 6.39445 ** 2 / 10, rel=1e-3)
        v1 = mle_risk_bound(0.0, 1.0, 2.0, 0.0, 5, 100, 1.0, 1.0, 1)
        v2 = mle_risk_bound(0.0, 1.0, 2.0, 0.0, 5, 100, 1.0, 1.0, 2)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_mle_risk_bound_log_guard(self):
        with pytest.raises(ValueError, match="log"):
            mle_risk_bound(0.01, 1.0, 6.39445, 1.0, 10, 1, 0.1, 0.1, 1)

    def test_split_form(self):
        assert mle_risk_bound_split(0.01, 1.0, 1.0, 1.0, 100, 10_000) == pytest.approx(
            0.03, abs=1e-14)
        big = mle_risk_bound_split(0.01, 1.0, 1.0, 1.0, 10**9, 10**12)
        assert big == pytest.approx(0.01, abs=1e-5)
        # The component term ignores N.
        a = mle_risk_bound_split(0.0, 1.0, 3.0, 0.0, 6, 100)
        b = mle_risk_bound_split(0.0, 1.0, 3.0, 0.0, 6, 10_000)
        assert a == b == pytest.approx(0.5, abs=1e-14)

    def test_concentration_form(self):
        v = mle_risk_concentration(0.01, 1.0, 1.0, 16, 10**4, 0.0, 1.0, 1.0)
        assert v == pytest.approx(1.09, abs=1e-12)
        # Equal bounds kill both log terms; doubling t scales only the last
        # term, which is zero here.
        assert mle_risk_concentration(0.01, 1.0, 1.0, 16, 10**4, 0.0, 2.0, 1.0) == v

    def test_concentration_t_scaling(self):
        lo, hi = 0.5, 2.0
        v1 = mle_risk_concentration(0.0, lo, hi, 16, 100, 0.0, 1.0, 1.0)
        v2 = mle_risk_concentration(0.0, lo, hi, 16, 100, 0.0, 2.0, 1.0)
        tail1 = v1 - mle_risk_concentration(0.0, lo, hi, 16, 100, 0.0, 0.0, 1.0)
        tail2 = v2 - mle_risk_concentration(0.0, lo, hi, 16, 100, 0.0, 0.0, 1.0)
        assert tail2 == pytest.approx(math.sqrt(2.0) * tail1, rel=1e-12)

    def test_concentration_validation(self):
        with pytest.raises(ValueError):
            mle_risk_concentration(0.01, 2.0, 1.0, 16, 100, 0.0, 1.0, 1.0)


class TestCoveringNumber:
    def _dictionary(self, means=33):
        grid = make_grid(cube(0.0, 1.0, 1), 257, "simpson")
        return build_dictionary(GAUSS, 8, UNIT_BOX, means, grid)

    def test_radius_beyond_diameter(self):
        d = self._dictionary()
        xs = np.linspace(0.1, 0.9, 25)
        assert covering_number(d, 1e6, xs) == 1

    def test_single_element(self):
        grid = make_grid(cube(0.0, 1.0, 1), 257, "simpson")
        d = build_dictionary(GAUSS, 8, MeanBox(0.5, 0.5, 1), 1, grid)
        assert covering_number(d, 1e-9, np.linspace(0, 1, 10)) == 1

    def test_tiny_radius_counts_all(self):
        d = self._dictionary(means=17)
        xs = np.linspace(0.0, 1.0, 40)
        # Distinct means give distinct empirical profiles at these points.
        assert covering_number(d, 1e-9, xs) == 17

    def test_nonincreasing_in_radius(self):
        d = self._dictionary()
        xs = np.linspace(0.0, 1.0, 40)
        counts = [covering_number(d, r, xs) for r in (0.01, 0.05, 0.2, 1.0, 5.0)]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_positive_radius_required(self):
        d = self._dictionary(means=5)
        with pytest.raises(ValueError):
            covering_number(d, 0.0, np.linspace(0, 1, 5))

    def test_dudley_integral_positive_and_stable(self):
        d = self._dictionary()
        xs = np.linspace(0.0, 1.0, 40)
        j1 = dudley_entropy_integral(d, xs, 2.0)
        j2 = dudley_entropy_integral(d, xs, 2.0, levels=33)
        assert j1 > 0
        assert j1 == pytest.approx(j2, rel=0.1)


def _per_center_cover(vals: np.ndarray, delta: float) -> int:
    """The greedy cover as first written: one distance pass per center over
    the rows still uncovered.  Kept as the oracle of the one-matrix cover."""
    uncovered = np.ones(vals.shape[0], dtype=bool)
    count = 0
    while np.any(uncovered):
        center = int(np.argmax(uncovered))
        d = np.sqrt(np.mean((vals[uncovered] - vals[center]) ** 2, axis=1))
        idx = np.where(uncovered)[0]
        uncovered[idx] = d >= delta
        uncovered[center] = False
        count += 1
    return count


class TestCoveringMatchesPerCenterOracle:
    @pytest.mark.parametrize("dim, size", [(1, 60), (2, 90)])
    def test_counts_and_integral(self, dim, size):
        rng = np.random.default_rng(11 + dim)
        kernel = make_product_kernel("gaussian", dim)
        means = rng.uniform(0.0, 1.0, size=(size, dim))
        # A mean lattice only: the covering numbers need no value table.
        d = MixtureDictionary(kernel, 8, means, make_grid(cube(0.0, 1.0, dim), 3))
        xs = rng.uniform(0.0, 1.0, size=(120, dim))
        vals = d.evaluate_at(xs)
        beta_upper = float(np.max(vals))
        radii = beta_upper * np.logspace(-math.log10(256.0), 0.0, 17)
        counts = [covering_number(d, r, xs) for r in radii]
        assert counts == [_per_center_cover(vals, r) for r in radii]
        assert counts[0] > counts[-1]
        integrand = np.sqrt(np.log(np.maximum(counts, 1)))
        oracle = float(np.trapezoid(integrand, radii)) + radii[0] * integrand[0]
        assert dudley_entropy_integral(d, xs, beta_upper) == oracle


def _full_loop_distances(vals: np.ndarray) -> np.ndarray:
    """The rms distance matrix over every ordered pair, as first written."""
    dist = np.empty((vals.shape[0], vals.shape[0]))
    for j, row in enumerate(vals):
        dist[j] = np.sqrt(np.mean((vals - row) ** 2, axis=1))
    return dist


def _argmax_cover(dist: np.ndarray, delta: float) -> int:
    """The greedy cover as first written: the next center is found by
    np.any and np.argmax over the uncovered mask."""
    uncovered = np.ones(dist.shape[0], dtype=bool)
    count = 0
    while np.any(uncovered):
        center = int(np.argmax(uncovered))
        uncovered &= dist[center] >= delta
        uncovered[center] = False
        count += 1
    return count


class TestDistancesAndCoverMatchTheirLoops:
    @pytest.mark.parametrize("rows, cols", [(1, 5), (2, 1), (40, 33), (289, 512)])
    def test_distances_equal_the_full_loop(self, rows, cols):
        # Each pair computed once and mirrored: the full loop's bits, also
        # between duplicate rows, whose distance is an exact 0.
        rng = np.random.default_rng(rows)
        vals = rng.normal(size=(rows, cols)) * rng.uniform(0.1, 10.0, size=(rows, 1))
        if rows > 2:
            vals[rows // 2] = vals[0]
            vals[-1] = vals[1]
        dist = bounds._rms_distances(vals)
        assert dist.tobytes() == _full_loop_distances(vals).tobytes()
        if rows > 2:
            assert dist[0, rows // 2] == dist[rows // 2, 0] == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_cover_equals_the_argmax_loop(self, seed):
        # Distances on a lattice of quarters, so many equal delta exactly:
        # an element at exactly delta from a center stays uncovered.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 60))
        dist = rng.integers(0, 6, size=(m, m)) / 4.0
        dist = np.minimum(dist, dist.T)
        np.fill_diagonal(dist, 0.0)
        for delta in (0.25, 0.5, 0.75, 1.0, 1.25, 2.0):
            assert bounds._greedy_cover(dist, delta) == _argmax_cover(dist, delta)


class TestBoundConstants:
    def test_report_check(self):
        rep = BoundReport.check("demo", measured=1.0, rhs=1.0, n=3)
        assert rep.dominated
        rep2 = BoundReport.check("demo", measured=1.1, rhs=1.0)
        assert not rep2.dominated
