"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Two sub-criteria fail by design of the gate itself (documented in
the assertion messages and kept faithful rather than loosened): the interior
sup-norm slope of the hard-truncated normal decays at second order, and the
greedy run-certificate domination fails for the spiky small-n iterates.
"""

import time
from dataclasses import dataclass

import numpy as np

from mixapprox.bounds import compute_gamma
from mixapprox.config import ExperimentConfig
from mixapprox.densities import TargetDensity, make_target
from mixapprox.grids import (
    GridFunction,
    SupportBox,
    convolve,
    cube,
    make_grid,
    restrict,
    sample_on_grid,
)
from mixapprox.harness import emit_report, run_conv_rate, run_mix_rate, run_study
from mixapprox.kernels import Dilation, certify_approximate_identity, make_product_kernel
from mixapprox.mixtures import MeanBox, em_fit, FiniteMixture
from oracles import (
    kl_l2_bound_check,
    mixture_sample,
    truncated_normal_density,
    young_inequality_check,
)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {name} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_1_approximate_identity():
    """Mass, positivity, and strict concentration for both full-support kernels."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("gaussian", "laplace"):
        for dim in (1, 2):
            cert = certify_approximate_identity(
                make_product_kernel(name, dim), deltas=(0.5,), ks=(1, 2, 4, 8, 16, 32))
            seq = cert.outside[0.5]
            strict = all(b < a for a, b in zip(seq, seq[1:]))
            small = seq[-1] < 1e-3
            ok &= cert.mass_ok and cert.nonnegative_ok and strict and small
            details.append(f"{name}/p{dim}: final={seq[-1]:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(1, "approximate-identity certification", ok,
            f"[{'; '.join(details)}; {elapsed:.1f}s]")


def test_criterion_2_convolution_oracle():
    """Gaussian variance addition node-wise; box-box triangle at 2049 points."""
    t0 = time.perf_counter()

    f = truncated_normal_density(-8.0, 8.0)
    grid = make_grid(f.support, 2049, "trapezoid")
    fg = sample_on_grid(f, grid)
    out = restrict(convolve(fg, Dilation(make_product_kernel("gaussian", 1), 2)),
                   f.support)
    expected = np.exp(-grid.nodes[0] ** 2 / 2.5) / np.sqrt(2.5 * np.pi)
    gauss_err = float(np.max(np.abs(out.values - expected)))

    u = make_target("uniform-box", 1)
    ugrid = make_grid(u.support, 2049, "trapezoid")
    ug = sample_on_grid(u, ugrid)
    tri_out = convolve(ug, Dilation(make_product_kernel("uniform-symmetric", 1), 1))
    x = tri_out.grid.nodes[0]
    tri = np.clip(np.minimum(x + 0.5, 1.5 - x), 0.0, 1.0)
    box_l1 = float(tri_out.grid.integrate(np.abs(tri_out.values - tri)))
    # Node-wise the lattice sum is exact away from the three nodes where a
    # kernel jump coincides with the support boundary (peak and corners).
    node_err = np.abs(tri_out.values - tri)
    node_err[[0, np.argmin(np.abs(x - 0.5)), node_err.size - 1]] = 0.0
    box_node = float(node_err.max())

    elapsed = time.perf_counter() - t0
    ok = gauss_err < 1e-6 and box_l1 < 1e-6 and box_node < 1e-6 and elapsed < 10.0
    _report(2, "convolution oracle", ok,
            f"[gauss={gauss_err:.2e}; box L1={box_l1:.2e}; "
            f"box nodes={box_node:.2e}; {elapsed:.1f}s]")


def _trig_density(grid, rng, amp=0.15):
    a, b = grid.box.lower[0], grid.box.upper[0]
    L = b - a
    x = grid.nodes[0]
    v = np.ones_like(x)
    for j in range(1, 4):
        v = v + rng.uniform(-amp, amp) * np.sin(2 * np.pi * j * (x - a) / L)
    return GridFunction(grid, v / L)


def test_criterion_3_young_inequalities():
    """Both convolution-norm inequalities over 50 randomized density pairs."""
    rng = np.random.default_rng(31415)
    h = 1.0 / 512.0
    orders = [(1, 1), (1, 2), (1, np.inf), (2, 2), (1.5, 3), (3, 1.5), (4, 4 / 3)]
    failures = []
    for trial in range(50):
        na, nb = rng.integers(257, 1025, size=2)
        ga = make_grid(SupportBox((0.0,), ((na - 1) * h,)), int(na), "trapezoid")
        gb = make_grid(SupportBox((0.0,), ((nb - 1) * h,)), int(nb), "trapezoid")
        fa, fb = _trig_density(ga, rng), _trig_density(gb, rng)
        q, r = orders[trial % len(orders)]
        rep = young_inequality_check(fa, fb, q, r)
        if not rep.passed:
            failures.append((trial, q, r))
    _report(3, "norm inequalities on 50 random pairs", not failures,
            f"[failures={failures}]")


def _conv_rate_check(density_name):
    cfg = ExperimentConfig(study="conv-rate", density_name=density_name,
                           k_list=(2, 4, 8, 16, 32)).validate()
    res = run_conv_rate(cfg)
    rep = res.rate_reports[0]
    sups = [v for _, v, _ in rep.points]
    monotone = all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    return rep.fitted_slope, monotone


def test_criterion_4a_lipschitz_rate_tent():
    t0 = time.perf_counter()
    slope, monotone = _conv_rate_check("tent")
    elapsed = time.perf_counter() - t0
    ok = -1.3 <= slope <= -0.7 and monotone and elapsed < 60.0
    _report("4a", "first-order rate for the tent target", ok,
            f"[slope={slope:.3f}; monotone={monotone}; {elapsed:.1f}s]")


def test_criterion_4b_lipschitz_rate_truncated_normal():
    # Known red: the hard-truncated normal is smooth inside its box, so its
    # interior sup error decays at second order, while the boundary
    # discontinuity pins the full-box sup near a constant.  The measured
    # interior slope is -2.298: the jumps' edge layer is the interior sup up
    # to k = 8 and f''/(2k^2) from k = 16, and the grid-free closed form
    # fits the same -2.298 (test_grids.py::TestConvergenceRealization::
    # test_truncated_normal_interior_error_is_second_order).  No sup variant
    # lands in the stated first-order band; the gate is kept as stated
    # instead of being loosened.
    t0 = time.perf_counter()
    slope, monotone = _conv_rate_check("truncated-normal")
    elapsed = time.perf_counter() - t0
    ok = -1.3 <= slope <= -0.7 and monotone and elapsed < 60.0
    _report("4b", "first-order rate for the truncated-normal target", ok,
            f"[slope={slope:.3f}; monotone={monotone}; {elapsed:.1f}s]")


class _RandomTrig:
    """Marginal 1 + sum_j c_j sin(2 pi j x) on [0, 1], |c_j| <= 0.15."""

    name = "random-trig"
    lo = 0.0
    hi = 1.0

    def __init__(self, coefs):
        self.coefs = coefs
        self.min_value = 1.0 - float(np.sum(np.abs(coefs)))
        self.max_value = 2.0 - self.min_value

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        v = np.ones_like(x)
        for j, c in enumerate(self.coefs, start=1):
            v = v + c * np.sin(2 * np.pi * j * x)
        return np.where((x >= 0.0) & (x <= 1.0), v, 0.0)


def _random_f5_target(rng):
    return TargetDensity(_RandomTrig(rng.uniform(-0.15, 0.15, size=3)), 1)


def test_criterion_5_kl_l2_domination():
    """KL never exceeds the squared-L2-over-beta bound on 100 random pairs."""
    rng = np.random.default_rng(2718)
    grid = make_grid(cube(0.0, 1.0, 1), 1025, "simpson")
    x = grid.nodes[0]
    violations = 0
    for _ in range(100):
        f = _random_f5_target(rng)
        v = np.ones_like(x)
        for j in range(1, 4):
            v = v + rng.uniform(-0.15, 0.15) * np.sin(2 * np.pi * j * x)
        rep = kl_l2_bound_check(f, GridFunction(grid, v))
        violations += not rep.passed
    _report(5, "KL dominated by squared-L2 over beta (100 pairs)",
            violations == 0, f"[violations={violations}]")


@dataclass
class _GreedyRun:
    grid: object
    f_gf: object
    fbar: object
    gaps: np.ndarray
    kl_hull: np.ndarray
    kl_target: np.ndarray
    kl_smooth: float
    beta: float
    c_hull: float
    c_target: float
    gamma: float


_RUN_CACHE = {}


def _greedy_run():
    if "run" in _RUN_CACHE:
        return _RUN_CACHE["run"]
    cfg = ExperimentConfig(study="mix-rate", density_name="truncated-normal",
                           k_list=(16,), n_list=tuple(range(1, 33)),
                           means_per_axis=257).validate()
    res = run_mix_rate(cfg)
    by_metric = {}
    for row in res.rows:
        if row.axis == "n":
            by_metric.setdefault(row.metric, {})[row.axis_value] = row.value
        if row.axis == "run":
            by_metric.setdefault("run", {})[row.metric] = row.value
    run_vals = by_metric["run"]
    ns = np.arange(1, 33)
    run = _GreedyRun(
        grid=None, f_gf=None, fbar=None,
        gaps=np.array([by_metric["gap2"][n] for n in ns]),
        kl_hull=np.array([by_metric["kl_hull"][n] for n in ns]),
        kl_target=np.array([by_metric["kl_target"][n] for n in ns]),
        kl_smooth=run_vals["kl_smooth"],
        beta=run_vals["beta"],
        c_hull=run_vals["C_hull"],
        c_target=run_vals["C_target"],
        gamma=run_vals["gamma"],
    )
    _RUN_CACHE["run"] = run
    return run


def test_criterion_6a_greedy_rate_certificate():
    t0 = time.perf_counter()
    run = _greedy_run()
    elapsed = time.perf_counter() - t0
    ns = np.arange(1, 33)
    monotone = bool(np.all(np.diff(run.gaps) <= 1e-12))
    scaled = ns * run.gaps
    bounded = bool(np.max(scaled[3:]) <= 2.0 * scaled[3])
    ok = monotone and bounded and elapsed < 300.0
    _report("6a", "greedy squared-L2 rate certificate", ok,
            f"[monotone={monotone}; max n*gap={np.max(scaled[3:]):.3f} "
            f"<= {2 * scaled[3]:.3f}; {elapsed:.1f}s]")


def test_criterion_6b_two_stage_domination_all_n():
    # Known red at small n: the squared-L2 run certificate cannot control the
    # divergence to a one- or few-spike iterate, whose density all but
    # vanishes over most of the box (the KL-to-L2 comparison needs densities
    # bounded below, which those iterates are not).  The checks fail at
    # n = 1..5 and pass from n = 6 onward.  The gate says "for all n" and is
    # kept as stated.
    run = _greedy_run()
    ns = np.arange(1, 33)
    C_hat = float(np.max(ns * run.gaps))
    eps_hat = run.beta * run.kl_smooth
    rhs = eps_hat / run.beta + C_hat / (ns * run.beta)
    violated = [int(n) for n, kl, r in zip(ns, run.kl_target, rhs)
                if kl > r * (1 + 1e-6)]
    _report("6b", "two-stage KL domination with run certificates, all n",
            not violated, f"[violations at n={violated}]")


def test_criterion_7_hull_kl_domination():
    run = _greedy_run()
    ns = np.arange(1, 33)
    hull_ok = bool(np.all(run.kl_hull <= run.c_hull * run.gamma / ns * (1 + 1e-6)))
    target_ok = bool(np.all(
        run.kl_target <= (run.kl_smooth + run.c_target * run.gamma / ns) * (1 + 1e-6)))
    gamma_ok = abs(compute_gamma(0.0) - 6.39445) <= 1e-3
    _report(7, "hull KL bounds dominate every iterate", hull_ok and target_ok and gamma_ok,
            f"[hull={hull_ok}; target={target_ok}; gamma(0)={compute_gamma(0.0):.5f}]")


def test_criterion_8_mle_risk_trend():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        study="mle-risk", density_name="two-truncated-normals",
        n_list=(8,), N_list=(250, 1000, 4000), replications=20,
        fit_k_grid=(4, 8, 16), fit_restarts=1,
        heldout_n=8, heldout_N=2000, seed=20240801,
    ).validate()
    res = run_study(cfg)
    means = {}
    for row in res.rows:
        if row.metric == "kl_mean@schedule-sqrt":
            means[row.axis_value] = row.value
    series = [means[N] for N in (250, 1000, 4000)]
    decreasing = all(b < a for a, b in zip(series, series[1:]))
    dominated = {b.bound_name: b.dominated for b in res.bound_reports}
    elapsed = time.perf_counter() - t0
    ok = (decreasing and dominated["mle-risk-split"]
          and dominated["mle-risk-likelihood"] and elapsed < 600.0)
    _report(8, "MLE risk decreases along the sqrt schedule", ok,
            f"[means={[round(v, 5) for v in series]}; heldout={dominated}; "
            f"{elapsed:.0f}s]")


def test_criterion_9_em_contract():
    kernel = make_product_kernel("gaussian", 1)
    box = MeanBox(0.0, 1.0, 1)
    true = FiniteMixture(np.array([1.0]), np.array([[0.85]]), 4, kernel)
    worst_gap = 0.0
    monotone = True
    for seed in range(20):
        xs = mixture_sample(true, 5000 + seed, 600)
        fit = em_fit(xs, 1, 4, kernel, box)
        monotone &= bool(np.all(np.diff(fit.trace) >= -1e-9))
        closed = min(max(float(xs.mean()), 0.0), 1.0)
        worst_gap = max(worst_gap, abs(fit.mixture.means[0, 0] - closed))
    # A few multi-component traces as well.
    two = FiniteMixture(np.array([0.5, 0.5]), np.array([[0.25], [0.75]]), 8, kernel)
    for seed in range(5):
        xs = mixture_sample(two, 700 + seed, 1200)
        fit = em_fit(xs, 3, 8, kernel, box)
        monotone &= bool(np.all(np.diff(fit.trace) >= -1e-9))
    ok = monotone and worst_gap < 1e-8
    _report(9, "EM traces monotone; closed-form single-component match", ok,
            f"[worst gap={worst_gap:.2e}; monotone={monotone}]")


def test_criterion_10_determinism(tmp_path):
    cfgs = [
        ExperimentConfig(study="conv-rate", density_name="tent",
                         k_list=(2, 4, 8), seed=42).validate(),
        ExperimentConfig(study="check-identity", kernel_name="laplace",
                         k_list=(1, 2, 4, 8, 16, 32), deltas=(0.5,),
                         seed=42).validate(),
        ExperimentConfig(study="mle-risk", density_name="two-truncated-normals",
                         n_list=(2,), N_list=(200,), replications=3,
                         fit_k_grid=(8,), fit_restarts=2, heldout_n=3,
                         heldout_N=150, grid_points_per_axis=1025,
                         seed=42).validate(),
    ]
    identical = True
    for i, cfg in enumerate(cfgs):
        a, b = tmp_path / f"{i}a.csv", tmp_path / f"{i}b.csv"
        emit_report(run_study(cfg), a, "csv")
        emit_report(run_study(cfg), b, "csv")
        identical &= a.read_bytes() == b.read_bytes()
    _report(10, "byte-identical reports for identical config and seed", identical)
