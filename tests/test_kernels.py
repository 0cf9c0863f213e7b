"""Tests for kernel marginals, product kernels, dilations, and certification."""

import math
import time
import warnings
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import ndtr, ndtri

from mixapprox import densities, kernels
from mixapprox.kernels import (
    MARGINAL_NAMES,
    Dilation,
    Marginal,
    SquaredDilation,
    certify_approximate_identity,
    check_moment_condition,
    l1_outside_mass,
    make_product_kernel,
)
from oracles import dilation_pdf, kernel_draw, kernel_log_pdf, kernel_pdf, l1_tail, marginal_cdf

ALL = list(MARGINAL_NAMES)


def _all_marginals():
    """(label, instance, probe points) for every kernel and zoo marginal."""
    out = [(name, cls(), np.linspace(-2.0, 2.0, 4001))
           for name, cls in kernels._MARGINALS.items()]
    out += [(name, cls(), np.linspace(-1.5, 1.5, 3001))
            for name, cls in densities._ZOO.items()]
    return out


class TestMarginalBase:
    """The defaults that every kernel and target-zoo marginal shares."""

    def test_every_marginal_is_a_marginal(self):
        assert len(kernels._MARGINALS) == len(densities._ZOO) == 5
        for cls in (*kernels._MARGINALS.values(), *densities._ZOO.values()):
            assert issubclass(cls, Marginal)

    @pytest.mark.parametrize("label, m, xs", [
        c for c in _all_marginals() if type(c[1]).log_pdf is Marginal.log_pdf])
    def test_default_log_pdf_is_log_of_pdf(self, label, m, xs):
        v = m.pdf(xs)
        pos = v > 0
        assert pos.any() and (~pos).any()
        got = m.log_pdf(xs)
        assert np.array_equal(got[pos], np.log(v[pos]))
        assert np.all(got[~pos] == -np.inf)

    @pytest.mark.parametrize("name", ["gaussian", "laplace"])
    def test_closed_form_log_pdf_matches_log_of_pdf(self, name):
        m = kernels._MARGINALS[name]()
        xs = np.linspace(-60.0, 60.0, 12001)
        v = m.pdf(xs)
        ok = v > 1e-300
        assert_allclose(m.log_pdf(xs)[ok], np.log(v[ok]), rtol=1e-12, atol=0)

    def test_default_sample_is_ppf_of_uniforms(self):
        # Only targets are sampled; the kernels' draws are tests' oracles.
        defaults = [(name, cls()) for name, cls in densities._ZOO.items()
                    if cls.sample is densities._TargetMarginal.sample]
        assert {"uniform-box", "clipped-cosine", "tent", "truncated-normal"} == \
            {l for l, _ in defaults}
        for label, m in defaults:
            got = m.sample(500, np.random.default_rng(19))
            want = m.ppf(np.random.default_rng(19).random(500))
            assert np.array_equal(got, want), label

    def test_kernel_marginals_have_no_sampler(self):
        # A kernel marginal has no ppf, so an inherited inverse-cdf sampler
        # could only fail; tests draw kernels through oracles.kernel_draw.
        assert not hasattr(Marginal, "sample")
        for name in ALL:
            assert not hasattr(make_product_kernel(name, 1).marginal, "sample"), name


class TestMarginals:
    def test_registry(self):
        assert set(ALL) == {
            "gaussian", "laplace", "uniform-symmetric", "epanechnikov", "triangular",
        }
        with pytest.raises(ValueError):
            make_product_kernel("cauchy", 1)

    @pytest.mark.parametrize("name", ALL)
    def test_unit_mass_by_quadrature(self, name):
        m = make_product_kernel(name, 1).marginal
        r = m.radius(1e-13)
        val, _ = integrate.quad(m.pdf, -r, r, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name", ALL)
    def test_cdf_matches_pdf(self, name):
        m = make_product_kernel(name, 1).marginal
        r = m.radius(1e-13)
        for x in (-0.7, -0.2, 0.0, 0.4, 0.9):
            val, _ = integrate.quad(m.pdf, -r, x, limit=200)
            assert marginal_cdf(m, x) == pytest.approx(val, abs=1e-8)

    @pytest.mark.parametrize("name", ALL)
    def test_tail_mass_closed_form(self, name):
        m = make_product_kernel(name, 1).marginal
        r = m.radius(1e-13)
        for d in (0.1, 0.4, 0.8, 1.5):
            val, _ = integrate.quad(m.pdf, d, max(r, d), limit=200)
            assert m.tail_mass(d) == pytest.approx(2 * val, abs=1e-9)

    @pytest.mark.parametrize("name", ALL)
    def test_tail_mass_monotone_to_zero(self, name):
        m = make_product_kernel(name, 1).marginal
        ds = np.linspace(0.05, 25.0, 60)
        tm = np.asarray(m.tail_mass(ds), dtype=float)
        assert np.all(np.diff(tm) <= 1e-15)
        assert tm[-1] < 1e-9

    @pytest.mark.parametrize("name", ALL)
    def test_radius_certifies_tail(self, name):
        m = make_product_kernel(name, 1).marginal
        for tol in (1e-3, 1e-9, 1e-12):
            assert m.tail_mass(m.radius(tol)) <= tol * (1 + 1e-9)

    @pytest.mark.parametrize("name", ALL)
    def test_sampler_matches_cdf(self, name):
        m = make_product_kernel(name, 1).marginal
        rng = np.random.default_rng(11)
        xs = kernel_draw(m, 200_000, rng)
        for q in (-0.5, 0.0, 0.5):
            p = marginal_cdf(m, q)
            se = math.sqrt(p * (1 - p) / xs.size)
            assert abs(np.mean(xs <= q) - p) < 5 * se + 1e-12

    def test_specific_values(self):
        gauss = make_product_kernel("gaussian", 1).marginal
        assert gauss.pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)
        lap = make_product_kernel("laplace", 1).marginal
        assert lap.pdf(0.0) == pytest.approx(0.5, abs=1e-15)
        uni = make_product_kernel("uniform-symmetric", 1).marginal
        assert uni.pdf(0.0) == 1.0
        assert uni.pdf(0.6) == 0.0
        assert uni.pdf(0.5) == 0.5   # jump midpoint at the support edge


def _bit_mismatches(got, want) -> int:
    """Entries whose bits differ; any nan matches any nan (the sign of a nan
    is not a value)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return int(np.sum(np.isnan(got) != nan)
               + np.sum(got[~nan].view(np.int64) != want[~nan].view(np.int64)))


def _ulps_around(points, n):
    """The n doubles below and the n above each positive point, and the point."""
    k = np.arange(1, n + 1)
    return np.concatenate([np.concatenate([p - np.spacing(np.nextafter(p, 0.0)) * k, [p],
                                           p + np.spacing(p) * k]) for p in points])


def test_gauss_legendre_rule_is_numpys_leggauss():
    # The rule is written out so that no run loads numpy.polynomial.
    x, w = np.polynomial.legendre.leggauss(12)
    assert _bit_mismatches(kernels._GL_X, x) == 0 and kernels._GL_X.shape == (12,)
    assert _bit_mismatches(kernels._GL_W, w) == 0 and kernels._GL_W.shape == (12,)


class TestNormalCdfPort:
    """kernels._ndtr and _ndtri, the cephes port, keep scipy.special's bits."""

    def test_ndtri_has_the_scipy_bits(self):
        rng = np.random.default_rng(20240801)
        e2 = math.exp(-2.0)
        low_tail = np.exp(-rng.uniform(2.0, 32.0, 200_000))      # x < 8
        deep_tail = np.exp(-rng.uniform(32.0, 744.0, 150_000))   # x >= 8
        ys = np.concatenate([
            rng.uniform(e2, 1.0 - e2, 400_000),                  # centre
            low_tail, 1.0 - low_tail, deep_tail,
            1.0 - 10.0 ** rng.uniform(-15.9, -13.9, 50_000),     # x >= 8, upper side
            10.0 ** rng.uniform(-323.3, -308.0, 20_000),         # subnormal
            _ulps_around([e2, 1.0 - e2, math.exp(-32.0)], 2_000),
            [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, 2.0 ** -53, 0.5],
            [-0.5, 1.5, -np.inf, np.inf, np.nan],
        ])
        assert ys.size > 1_000_000
        assert _bit_mismatches(kernels._ndtri(ys), ndtri(ys)) == 0

    def test_ndtr_has_the_scipy_bits(self):
        # cephes ndtr switches from erf to erfc at |a| = 1, erfc from 1 - erf
        # to its P/Q fit at |a| = sqrt 2 and to R/S at |a| = 8 sqrt 2, and
        # erfc is 0 once exp(-a^2 / 2) would underflow, |a| > sqrt(2 MAXLOG).
        rng = np.random.default_rng(20240802)
        switches = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                    math.sqrt(2.0 * 7.09782712893383996732e2), 38.5]
        xs = np.concatenate([
            rng.normal(0.0, 3.0, 100_000), rng.uniform(-40.0, 40.0, 100_000),
            _ulps_around(switches, 2_000),
            [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan],
        ])
        xs = np.concatenate([xs, -xs])
        assert xs.size > 300_000
        with np.errstate(invalid="ignore"):     # the nan in gives a nan out
            got = kernels._ndtr(xs)
        assert _bit_mismatches(got, ndtr(xs)) == 0

    @pytest.mark.parametrize("a", [1e154, 2e154, 1e200, 1e308, np.inf])
    def test_ndtr_of_a_huge_argument_is_exact_and_quiet(self, a):
        # Past |a| ~ 1.9e154, a^2 / 2 overflows; the port returns 0 and 1
        # there without squaring, so numpy has no overflow to warn about.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels._ndtr(np.array([-a, a]))
            assert (kernels._ndtr(-a), kernels._ndtr(a)) == (0.0, 1.0)
        assert _bit_mismatches(got, ndtr(np.array([-a, a]))) == 0

    def test_scalars_give_numpy_scalars(self):
        assert type(kernels._ndtr(0.3)) is np.float64
        assert type(kernels._ndtri(0.3)) is np.float64
        assert kernels._ndtr(-1.0) == ndtr(-1.0)
        assert kernels._ndtri(1e-20) == ndtri(1e-20)


class TestMomentMaps:
    @pytest.mark.parametrize("name,expected", [
        ("gaussian", math.sqrt(2 / math.pi)),
        ("laplace", 1.0),
        ("uniform-symmetric", 0.25),
        ("triangular", 1.0 / 3.0),
        ("epanechnikov", 3.0 / 8.0),
    ])
    def test_first_absolute_moment(self, name, expected):
        m = make_product_kernel(name, 1).marginal
        assert m.moment(1.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name", MARGINAL_NAMES)
    def test_every_kernel_meets_the_moment_hypothesis(self, name):
        # The convolution-rate bound for a Lipschitz target needs a finite
        # first l1 moment of the kernel; no study checks it at run time.
        moment = make_product_kernel(name, 1).marginal.moment(1.0)
        assert math.isfinite(moment)
        assert check_moment_condition(make_product_kernel(name, 1), 1.0) == pytest.approx(
            moment, rel=1e-10)

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
    def test_closed_form_agrees_with_quadrature(self, name, a):
        kernel = make_product_kernel(name, 1)
        assert check_moment_condition(kernel, a) == pytest.approx(
            kernel.marginal.moment(a), rel=1e-7)

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("p", [2, 3])
    def test_first_l1_moment_is_p_marginal_moments(self, name, p):
        # E(|Z_1| + ... + |Z_p|) = p E|Z|: the tensor rule in every dim.
        val = check_moment_condition(make_product_kernel(name, p), 1.0)
        assert val == pytest.approx(p * make_product_kernel(name, 1).marginal.moment(1.0),
                                    rel=1e-10)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
    def test_laplace_l1_moment_is_gamma(self, p, a):
        # |Z| is Exp(1), so the l1 norm is Gamma(p, 1), with E S^a = G(p + a) / G(p).
        val = check_moment_condition(make_product_kernel("laplace", p), a)
        assert val == pytest.approx(math.gamma(p + a) / math.gamma(p), rel=1e-10)

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("a", [0.3, 0.5])
    def test_fractional_2d_moment_matches_dblquad(self, name, a):
        # Adaptive quadrature on the positive quadrant, [0, r]^2 with r the
        # radius(1e-13) the package truncates at, times 4.
        m = make_product_kernel(name, 1).marginal
        r = m.radius(1e-13)
        ref, _ = integrate.dblquad(lambda y, x: (x + y) ** a * m.pdf(x) * m.pdf(y),
                                   0.0, r, 0.0, r, epsabs=1e-14, epsrel=1e-12)
        val = check_moment_condition(make_product_kernel(name, 2), a)
        assert val == pytest.approx(4.0 * ref, rel=1e-9)

    def test_exponent_domain(self):
        kernel = make_product_kernel("gaussian", 1)
        with pytest.raises(ValueError):
            check_moment_condition(kernel, 0.0)
        with pytest.raises(ValueError):
            check_moment_condition(kernel, 1.5)


class TestProductKernel:
    def test_gaussian_2d_origin(self):
        k = make_product_kernel("gaussian", 2)
        assert kernel_pdf(k, np.zeros(2)) == pytest.approx(1 / (2 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("name", ALL)
    def test_product_structure(self, name):
        k = make_product_kernel(name, 3)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(50, 3))
        expected = np.prod(k.marginal.pdf(pts), axis=1)
        assert_allclose(kernel_pdf(k, pts), expected, atol=1e-15)

    @pytest.mark.parametrize("name", ["gaussian", "laplace", "epanechnikov"])
    def test_log_pdf_matches_log_of_pdf(self, name):
        k = make_product_kernel(name, 2)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.9, 0.9, size=(200, 2))
        v = kernel_pdf(k, pts)
        ok = v > 1e-300
        assert np.max(np.abs(kernel_log_pdf(k, pts)[ok] - np.log(v[ok]))) < 1e-9


class TestDilation:
    def test_scaling_value(self):
        d = Dilation(make_product_kernel("gaussian", 1), 2)
        assert dilation_pdf(d, np.zeros(1)) == pytest.approx(2 / math.sqrt(2 * math.pi),
                                                             abs=1e-12)

    def test_k1_identity(self):
        for name in ALL:
            k = make_product_kernel(name, 1)
            d = Dilation(k, 1)
            xs = np.linspace(-2, 2, 41)[:, None]
            assert_allclose(dilation_pdf(d, xs), kernel_pdf(k, xs), atol=1e-15)

    def test_uniform_k4_support(self):
        d = Dilation(make_product_kernel("uniform-symmetric", 1), 4)
        assert dilation_pdf(d, np.array([0.0])) == pytest.approx(4.0)
        assert dilation_pdf(d, np.array([0.2])) == 0.0
        assert dilation_pdf(d, np.array([0.1])) == pytest.approx(4.0)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            Dilation(make_product_kernel("gaussian", 1), 0)

    @pytest.mark.parametrize("name", ALL)
    def test_formula_consistency_at_random_probes(self, name):
        kernel = make_product_kernel(name, 2)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(100, 2))
        for k in (2, 5, 16):
            d = Dilation(kernel, k)
            assert_allclose(dilation_pdf(d, pts), k ** 2 * kernel_pdf(kernel, k * pts),
                            atol=1e-13)

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_mass_preserved(self, name, dim):
        cert = certify_approximate_identity(
            make_product_kernel(name, dim), deltas=(0.5,), ks=(1, 2, 4, 8, 16, 32))
        for mass in cert.masses:
            assert abs(mass - 1.0) <= 1e-6


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ALL)
class TestLatticePdf:
    """lattice_pdf against the point-wise dilation_pdf on the stacked offset
    mesh it replaces, bit for bit.  Each axis has its own length and step, so a transposed axis shows;
    the steps are multiples of 1/32, so compact supports end on a node."""

    @staticmethod
    def _case(name, p, k):
        axes = [(a + 1) / 32.0 * np.arange(-(12 + 2 * a), 13 + 2 * a) for a in range(p)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        d = Dilation(make_product_kernel(name, p), k)
        return d, np.ix_(*axes), dilation_pdf(d, mesh)

    def test_dilation(self, name, p, k):
        d, lattice, ref = self._case(name, p, k)
        got = d.lattice_pdf(lattice)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    def test_squared_dilation(self, name, p, k):
        # The squared kernel's per-axis factors, multiplied out, are the
        # square of the point-wise density.
        d, lattice, ref = self._case(name, p, k)
        got = reduce(np.multiply, [SquaredDilation(d).axis_pdf(o) for o in lattice])
        assert_allclose(got, ref ** 2, rtol=1e-14, atol=0.0)


class TestL1Tail:
    def test_1d_gaussian_closed_form(self):
        d = Dilation(make_product_kernel("gaussian", 1), 1)
        assert l1_outside_mass(d, 0.5) == pytest.approx(2 * ndtr(-0.5), abs=1e-12)

    def test_uniform_within_support(self):
        d = Dilation(make_product_kernel("uniform-symmetric", 1), 2)
        assert l1_outside_mass(d, 0.5) == 0.0

    def test_2d_gaussian_vs_mc(self):
        kernel = make_product_kernel("gaussian", 2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((400_000, 2))
        for k, d in ((1, 0.5), (2, 0.5), (2, 1.0)):
            est = np.mean(np.abs(z / k).sum(axis=1) > d)
            val = l1_outside_mass(Dilation(kernel, k), d)
            se = math.sqrt(max(est * (1 - est), 1e-8) / z.shape[0])
            assert abs(val - est) < 5 * se + 1e-6

    @pytest.mark.parametrize("name, p", [("gaussian", 2), ("laplace", 2), ("laplace", 3),
                                         ("uniform-symmetric", 2), ("uniform-symmetric", 3)])
    def test_closed_form_tails(self, name, p):
        kernel = make_product_kernel(name, p)
        for delta in (0.25, 0.5, 1.0):
            for k in range(1, 33):
                got = l1_outside_mass(Dilation(kernel, k), delta)
                assert abs(got - l1_tail(name, p, delta * k)) <= 1e-13, (delta, k)

    @pytest.mark.parametrize("name", ["uniform-symmetric", "triangular", "epanechnikov"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_compact_tail_is_zero_past_the_support(self, name, p):
        # The dilation by k lives in the l1 ball of radius p * half_width / k.
        kernel = make_product_kernel(name, p)
        edge = p * kernel.marginal.half_width
        for delta in (0.25, 0.5, 1.0):
            for k in range(1, 33):
                got = l1_outside_mass(Dilation(kernel, k), delta)
                if delta * k >= edge:
                    assert got == 0.0, (delta, k)
                else:
                    assert got > 0.0, (delta, k)

    def test_2d_laplace_gamma_tail(self):
        # Sum of two iid absolute-laplace variables is Gamma(2, 1).
        d = Dilation(make_product_kernel("laplace", 2), 4)
        s = 4 * 0.5
        assert l1_outside_mass(d, 0.5) == pytest.approx(math.exp(-s) * (1 + s), rel=1e-8)


class TestCertification:
    def test_gaussian_family(self):
        cert = certify_approximate_identity(
            make_product_kernel("gaussian", 1), deltas=(0.5,), ks=(1, 2, 4, 8, 16))
        assert cert.passed
        seq = cert.outside[0.5]
        assert seq[0] == pytest.approx(2 * ndtr(-0.5), abs=1e-12)
        assert all(b < a for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 1e-6

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mass_is_one_minus_the_truncated_tail(self, name, dim):
        # Each axis integrates the dilated marginal over [-r/k, r/k], with
        # r = radius(1e-12); the compact kernels' pieces make that exact.
        m = make_product_kernel(name, 1).marginal
        axis = 1.0 - float(m.tail_mass(m.radius(1e-12)))
        cert = certify_approximate_identity(make_product_kernel(name, dim), deltas=(0.5,),
                                            ks=(1, 2, 3, 4, 8, 16, 32))
        for mass in cert.masses:
            assert abs(mass - axis ** dim) <= dim * 1e-14

    @pytest.mark.parametrize("name", ALL)
    def test_3d_certification_is_quick_and_silent(self, name, capfd):
        # At the shipped deltas and ks.  Every 3-D family concentrates but
        # the Laplace, whose l1 norm is Gamma(3, 1): at delta = 0.25 and
        # k = 32 it keeps exp(-8) (1 + 8 + 32) = 0.0138 >= 0.01 outside.
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = certify_approximate_identity(make_product_kernel(name, 3),
                                                (0.25, 0.5, 1.0), (1, 2, 4, 8, 16, 32))
        assert time.perf_counter() - start < 2.0
        assert capfd.readouterr() == ("", "")
        assert cert.mass_ok and cert.nonnegative_ok
        assert cert.passed == (name != "laplace")

    def test_compact_kernel_exact_zero(self):
        cert = certify_approximate_identity(
            make_product_kernel("uniform-symmetric", 1), deltas=(0.5,), ks=(1, 2, 4))
        # Support of the k=2 dilation is inside [-0.25, 0.25].
        assert cert.outside[0.5][1] == 0.0

    def test_argument_validation(self):
        kernel = make_product_kernel("gaussian", 1)
        with pytest.raises(ValueError):
            certify_approximate_identity(kernel, deltas=(-0.5,), ks=(1, 2))
        with pytest.raises(ValueError):
            certify_approximate_identity(kernel, deltas=(0.5,), ks=(4, 2))
