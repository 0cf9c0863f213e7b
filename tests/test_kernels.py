"""Tests for kernel marginals, product kernels, dilations, and certification."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import ndtr

from mixapprox.kernels import (
    MARGINAL_NAMES,
    SquaredDilation,
    certify_approximate_identity,
    check_moment_condition,
    dilate,
    l1_outside_mass,
    make_product_kernel,
)

ALL = list(MARGINAL_NAMES)


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
            assert m.cdf(x) == pytest.approx(val, abs=1e-8)

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
        xs = m.sample(200_000, rng)
        for q in (-0.5, 0.0, 0.5):
            p = m.cdf(q)
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

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
    def test_closed_form_agrees_with_quadrature(self, name, a):
        kernel = make_product_kernel(name, 1)
        assert check_moment_condition(kernel, a) == pytest.approx(
            kernel.marginal.moment(a), rel=1e-7)

    def test_2d_gaussian_finite(self):
        val = check_moment_condition(make_product_kernel("gaussian", 2), 1.0)
        # l1 moment of the 2d standard normal is twice the univariate one.
        assert val == pytest.approx(2 * math.sqrt(2 / math.pi), rel=1e-6)

    def test_3d_finite(self):
        val = check_moment_condition(make_product_kernel("gaussian", 3), 1.0)
        assert val == pytest.approx(3 * math.sqrt(2 / math.pi), rel=1e-4)

    def test_exponent_domain(self):
        kernel = make_product_kernel("gaussian", 1)
        with pytest.raises(ValueError):
            check_moment_condition(kernel, 0.0)
        with pytest.raises(ValueError):
            check_moment_condition(kernel, 1.5)


class TestProductKernel:
    def test_gaussian_2d_origin(self):
        k = make_product_kernel("gaussian", 2)
        assert k.pdf(np.zeros(2)) == pytest.approx(1 / (2 * math.pi), abs=1e-15)

    @pytest.mark.parametrize("name", ALL)
    def test_product_structure(self, name):
        k = make_product_kernel(name, 3)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(50, 3))
        expected = np.prod(k.marginal.pdf(pts), axis=1)
        assert_allclose(k.pdf(pts), expected, atol=1e-15)

    @pytest.mark.parametrize("name", ["gaussian", "laplace", "epanechnikov"])
    def test_log_pdf_matches_log_of_pdf(self, name):
        k = make_product_kernel(name, 2)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.9, 0.9, size=(200, 2))
        v = k.pdf(pts)
        ok = v > 1e-300
        assert np.max(np.abs(k.log_pdf(pts)[ok] - np.log(v[ok]))) < 1e-9


class TestDilation:
    def test_scaling_value(self):
        d = dilate(make_product_kernel("gaussian", 1), 2)
        assert d.pdf(np.zeros(1)) == pytest.approx(2 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_k1_identity(self):
        for name in ALL:
            k = make_product_kernel(name, 1)
            d = dilate(k, 1)
            xs = np.linspace(-2, 2, 41)[:, None]
            assert_allclose(d.pdf(xs), k.pdf(xs), atol=1e-15)

    def test_uniform_k4_support(self):
        d = dilate(make_product_kernel("uniform-symmetric", 1), 4)
        assert d.pdf(np.array([0.0])) == pytest.approx(4.0)
        assert d.pdf(np.array([0.2])) == 0.0
        assert d.pdf(np.array([0.1])) == pytest.approx(4.0)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            dilate(make_product_kernel("gaussian", 1), 0)

    @pytest.mark.parametrize("name", ALL)
    def test_formula_consistency_at_random_probes(self, name):
        kernel = make_product_kernel(name, 2)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(100, 2))
        for k in (2, 5, 16):
            d = dilate(kernel, k)
            assert_allclose(d.pdf(pts), k ** 2 * kernel.pdf(k * pts), atol=1e-13)

    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_mass_preserved(self, name, dim):
        cert = certify_approximate_identity(
            make_product_kernel(name, dim), deltas=(0.5,), ks=(1, 2, 4, 8, 16, 32))
        for mass in cert.masses:
            assert abs(mass - 1.0) <= 1e-6

    def test_limit_point(self):
        d = dilate(make_product_kernel("gaussian", 1), 3)
        assert d.limit_point == math.inf


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ALL)
class TestLatticePdf:
    """lattice_pdf against pdf on the stacked offset mesh it replaces, bit for
    bit.  Each axis has its own length and step, so a transposed axis shows;
    the steps are multiples of 1/32, so compact supports end on a node."""

    @staticmethod
    def _case(name, p, k):
        axes = [(a + 1) / 32.0 * np.arange(-(12 + 2 * a), 13 + 2 * a) for a in range(p)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        d = dilate(make_product_kernel(name, p), k)
        return d, np.ix_(*axes), d.pdf(mesh)

    def test_dilation(self, name, p, k):
        d, lattice, ref = self._case(name, p, k)
        got = d.lattice_pdf(lattice)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    def test_squared_dilation(self, name, p, k):
        d, lattice, ref = self._case(name, p, k)
        assert np.array_equal(SquaredDilation(d).lattice_pdf(lattice), ref ** 2)


class TestL1Tail:
    def test_1d_gaussian_closed_form(self):
        d = dilate(make_product_kernel("gaussian", 1), 1)
        assert l1_outside_mass(d, 0.5) == pytest.approx(2 * ndtr(-0.5), abs=1e-12)

    def test_uniform_within_support(self):
        d = dilate(make_product_kernel("uniform-symmetric", 1), 2)
        assert l1_outside_mass(d, 0.5) == 0.0

    def test_2d_gaussian_vs_mc(self):
        kernel = make_product_kernel("gaussian", 2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((400_000, 2))
        for k, d in ((1, 0.5), (2, 0.5), (2, 1.0)):
            est = np.mean(np.abs(z / k).sum(axis=1) > d)
            val = l1_outside_mass(dilate(kernel, k), d)
            se = math.sqrt(max(est * (1 - est), 1e-8) / z.shape[0])
            assert abs(val - est) < 5 * se + 1e-6

    def test_2d_laplace_gamma_tail(self):
        # Sum of two iid absolute-laplace variables is Gamma(2, 1).
        d = dilate(make_product_kernel("laplace", 2), 4)
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

    def test_accepts_dilation_argument(self):
        d = dilate(make_product_kernel("gaussian", 1), 4)
        cert = certify_approximate_identity(d, deltas=(0.25, 0.5), ks=(1, 2, 4, 8, 16, 32))
        assert cert.kernel_name == "gaussian"
        assert cert.passed

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
