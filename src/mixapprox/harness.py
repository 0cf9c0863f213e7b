"""Study runner: convolution rates, greedy mixture rates, MLE risk sweeps,
bound-constant evaluation, and approximate-identity certification.

Every study is a pure function of (config, seed).  Replication r of cell c
draws from a stream derived from (seed, c, r), so results do not depend on
execution order.  Reports serialize to CSV or JSON with canonical row order
and shortest round-trip float formatting; identical inputs give identical
bytes.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import nnls

from . import bounds as bnd
from .config import ConfigError, ExperimentConfig
from .densities import default_points_per_axis, make_target
from .divergences import AbsoluteContinuityError, kl_divergence, lq_norm
from .grids import GridFunction, check_resolution, make_grid, convolve, sample_on_grid
from .kernels import certify_approximate_identity, dilate, make_product_kernel
from .mixtures import (
    MeanBox,
    MixtureDictionary,
    build_dictionary,
    build_mixing_approximant,
    check_dictionary_size,
    greedy_fit,
    lattice_means,
    mle_fit,
)

__all__ = [
    "Row",
    "SlopeFit",
    "RateReport",
    "StudyResult",
    "fit_loglog_slope",
    "run_conv_rate",
    "run_mix_rate",
    "run_mle_risk",
    "run_bounds",
    "run_check_identity",
    "run_study",
    "emit_report",
]

CSV_HEADER = "study,axis,axis_value,replication,seed,metric,value"


@dataclass(frozen=True)
class Row:
    study: str
    axis: str
    axis_value: object          # int, float, or ""
    replication: object         # int or ""
    seed: object                # int or ""
    metric: str
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        for name in ("axis_value", "replication", "seed"):
            v = getattr(self, name)
            if isinstance(v, (np.integer,)):
                object.__setattr__(self, name, int(v))
            elif isinstance(v, (np.floating,)):
                object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    ci_halfwidth: object        # float or None when dof is insufficient
    n_points: int


@dataclass
class RateReport:
    study: str
    axis: str
    points: list                # (axis_value, mean, stderr) sorted by axis
    fitted_slope: object = None
    fitted_intercept: object = None
    slope_ci_halfwidth: object = None


@dataclass
class StudyResult:
    study: str
    rows: list = field(default_factory=list)
    rate_reports: list = field(default_factory=list)
    bound_reports: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def all_dominated(self) -> bool:
        return all(r.dominated for r in self.bound_reports)


def fit_loglog_slope(points) -> SlopeFit:
    """Least squares of log y on log x; ci is twice the slope standard error."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points for a slope fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit needs positive coordinates")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    dof = len(pts) - 2
    ci = None
    if dof > 0:
        rss = float(res[0]) if res.size else float(np.sum((ly - A @ coef) ** 2))
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        if sxx > 0:
            ci = 2.0 * math.sqrt(max(rss, 0.0) / dof / sxx)
    return SlopeFit(slope, intercept, ci, len(pts))


def _study_grid(cfg: ExperimentConfig, support):
    pts = cfg.grid_points_per_axis or default_points_per_axis(cfg.density_dim)
    return make_grid(support, pts, cfg.grid_rule)


def _mean_box(cfg: ExperimentConfig, support) -> MeanBox:
    if cfg.fit_mean_box:
        lo, hi = cfg.fit_mean_box
        return MeanBox(lo, hi, cfg.density_dim)
    return MeanBox(min(support.lower), max(support.upper), cfg.density_dim)


def _config_guard(check, *args) -> None:
    """Run a library input guard up front; its ValueError is a ConfigError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _rate_report(study: str, axis: str, points) -> RateReport:
    """Rate report over (axis value, mean, stderr) points, with the log-log
    slope fitted when there are at least 2 points and every mean is positive."""
    rep = RateReport(study, axis, points)
    if len(points) >= 2 and all(v > 0 for _, v, _ in points):
        fit = fit_loglog_slope([(x, v) for x, v, _ in points])
        rep.fitted_slope, rep.fitted_intercept = fit.slope, fit.intercept
        rep.slope_ci_halfwidth = fit.ci_halfwidth
    return rep


def _slope_rows(study: str, rep: RateReport) -> list:
    rows = []
    if rep.fitted_slope is not None:
        rows.append(Row(study, rep.axis, "", "", "", "fitted_slope", rep.fitted_slope))
        rows.append(Row(study, rep.axis, "", "", "", "fitted_intercept", rep.fitted_intercept))
        if rep.slope_ci_halfwidth is not None:
            rows.append(Row(study, rep.axis, "", "", "", "slope_ci_halfwidth",
                            rep.slope_ci_halfwidth))
    return rows


def run_conv_rate(cfg: ExperimentConfig) -> StudyResult:
    """Convolution error against the target for each dilation scale.

    Records sup error over the support, sup over the interior sub-box
    (trimming `interior.margin` of each edge per side; boundary effects of the
    zero extension concentrate outside it), and L1/L2 errors.  The slope is
    fitted on the interior sup, the only sup variant that decays for targets
    that jump at the support boundary.
    """
    f = make_target(cfg.density_name, cfg.density_dim)
    kernel = make_product_kernel(cfg.kernel_name, cfg.density_dim)
    if not math.isfinite(kernel.marginal.moment(f.lipschitz_exponent)):
        raise ConfigError(
            f"kernel {cfg.kernel_name!r} fails the moment hypothesis: the rate "
            f"bound needs a finite l1 moment of order {f.lipschitz_exponent}"
        )
    grid = _study_grid(cfg, f.support)
    _config_guard(check_resolution, grid, max(cfg.k_list))
    f_gf = sample_on_grid(f.pdf, grid)
    interior = f.support.shrink_fraction(cfg.interior_margin)
    inner = interior.contains_points(grid.mesh())

    result = StudyResult("conv-rate")
    sup_int_points = []
    for k in cfg.k_list:
        out = convolve(f_gf, dilate(kernel, k), out_grid=grid)
        diff = out.values - f_gf.values
        metrics = {
            "sup": float(np.max(np.abs(diff))),
            "sup_interior": float(np.max(np.abs(diff[inner]))),
            "l1": lq_norm(GridFunction(grid, diff), 1),
            "l2": lq_norm(GridFunction(grid, diff), 2),
        }
        for name, value in metrics.items():
            result.rows.append(Row("conv-rate", "k", k, "", cfg.seed, name, value))
        sup_int_points.append((k, metrics["sup_interior"], 0.0))

    rep = _rate_report("conv-rate", "k", sup_int_points)
    result.rate_reports.append(rep)
    result.rows.extend(_slope_rows("conv-rate", rep))
    return result


def run_mix_rate(cfg: ExperimentConfig) -> StudyResult:
    """Two-stage mixture approximation study.

    Stage 1 smooths the target by the dilated kernel at the first configured
    scale and records the smoothing budget eps_hat = beta * KL(f, fbar).
    Stage 2 runs the greedy convex-hull fit against fbar and records, per
    component count, the squared L2 gap and the KL divergences to fbar and to
    the target, plus domination checks with the evaluated constants.  When
    the log-ratio sup is infinite (compact marginals) the bounds stage is
    skipped with a note and the rate stage still runs.
    """
    f = make_target(cfg.density_name, cfg.density_dim)
    if f.beta_lower <= 0:
        raise ConfigError(
            f"density {cfg.density_name!r} is not bounded below; the mixture "
            "study needs a lower-bounded target"
        )
    kernel = make_product_kernel(cfg.kernel_name, cfg.density_dim)
    k = int(cfg.k_list[0])
    grid = _study_grid(cfg, f.support)
    _config_guard(check_resolution, grid, k)
    _config_guard(check_dictionary_size, cfg.means_per_axis, grid)
    f_gf = sample_on_grid(f.pdf, grid)

    mixing = build_mixing_approximant(f, kernel, k, grid)
    fbar = mixing.realized
    inside = f.support.contains_points(grid.mesh())
    beta = min(f.beta_lower, float(fbar.values[inside].min()))
    kl_smooth = kl_divergence(f_gf, fbar)
    eps_hat = beta * kl_smooth

    box = _mean_box(cfg, f.support)
    dictionary = build_dictionary(kernel, k, box, cfg.means_per_axis, grid)
    n_max = max(cfg.n_list)
    greedy = greedy_fit(fbar, dictionary, n_max, objective=cfg.objective)

    result = StudyResult("mix-rate")
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "eps_hat", eps_hat))
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "kl_smooth", kl_smooth))
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "beta", beta))

    ns = np.arange(1, n_max + 1)
    gaps = np.array([
        lq_norm(GridFunction(grid, field - fbar.values), 2) ** 2
        for field in greedy.fields
    ])
    C_hat = float(np.max(ns * gaps))
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "C_hat", C_hat))

    a_log = bnd.compute_A_logratio(kernel, k, box, f.support)
    constants_ok = math.isfinite(a_log)
    if constants_ok:
        gamma = bnd.compute_gamma(a_log)
        c_hull = bnd.hull_kl_constant(mixing, grid)
        c_target = bnd.target_kl_constant(mixing, f_gf, grid)
        for name, value in (("A_logratio", a_log), ("gamma", gamma),
                            ("C_hull", c_hull), ("C_target", c_target)):
            result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, name, value))
    else:
        result.notes.append(
            "log-ratio sup is infinite for this kernel; domination stage skipped"
        )

    gap_points = []
    for n in cfg.n_list:
        mix_gf = GridFunction(grid, greedy.fields[n - 1])
        gap2 = float(gaps[n - 1])
        try:
            kl_hull = kl_divergence(fbar, mix_gf)
            kl_target = kl_divergence(f_gf, mix_gf)
        except AbsoluteContinuityError:
            # Compact kernels leave uncovered support at small n; the
            # divergence to such an iterate is infinite by definition.
            kl_hull = kl_target = math.inf
        for name, value in (("gap2", gap2), ("kl_hull", kl_hull),
                            ("kl_target", kl_target)):
            result.rows.append(Row("mix-rate", "n", n, "", cfg.seed, name, value))
        gap_points.append((n, gap2, 0.0))

        result.bound_reports.append(bnd.BoundReport.check(
            "two-stage-kl", kl_target,
            bnd.kl_bound_two_stage(eps_hat, beta, C_hat, n), n=n, k=k,
        ))
        if constants_ok:
            result.bound_reports.append(bnd.BoundReport.check(
                "hull-kl", kl_hull, c_hull * gamma / n, n=n, k=k,
            ))
            result.bound_reports.append(bnd.BoundReport.check(
                "target-kl", kl_target, kl_smooth + c_target * gamma / n, n=n, k=k,
            ))

    rep = _rate_report("mix-rate", "n", gap_points)
    result.rate_reports.append(rep)
    result.rows.extend(_slope_rows("mix-rate", rep))
    for br in result.bound_reports:
        result.rows.append(Row("mix-rate", "n", br.inputs.get("n", ""), "", cfg.seed,
                               f"dominated[{br.bound_name}]", float(br.dominated)))
    return result


def _sqrt_schedule(N: int) -> int:
    return int(math.ceil(math.sqrt(N)))


def _sqrt_log_schedule(N: int) -> int:
    return int(math.ceil(math.sqrt(N / math.log(N))))


def run_mle_risk(cfg: ExperimentConfig) -> StudyResult:
    """Replicated maximum-likelihood risk sweep.

    Cells are the union of the configured n x N product, the two component
    schedules (n = ceil(sqrt(N)) and n = ceil(sqrt(N / log N))) along N, and
    one held-out cell.  Each replication draws a fresh sample, fits the
    mixture by restarted EM over the scale grid, and measures the divergence
    to the truth by quadrature.  Certificates for the risk bounds are fitted
    on all cells except the held-out one and then checked there.
    """
    f = make_target(cfg.density_name, cfg.density_dim)
    if f.beta_lower <= 0:
        raise ConfigError("mle-risk needs a lower-bounded target density")
    kernel = make_product_kernel(cfg.kernel_name, cfg.density_dim)
    grid = _study_grid(cfg, f.support)
    for k in cfg.fit_k_grid:
        _config_guard(check_resolution, grid, k)
    f_gf = sample_on_grid(f.pdf, grid)
    mesh = grid.mesh()
    box = _mean_box(cfg, f.support)

    N_max = max(cfg.N_list)
    cell_list = sorted(
        {(n, N) for N in cfg.N_list for n in cfg.n_list}
        | {(sched(N), N) for N in cfg.N_list for sched in (_sqrt_schedule, _sqrt_log_schedule)}
        | {(cfg.heldout_n, cfg.heldout_N)}
    )

    result = StudyResult("mle-risk")
    means: dict = {}
    errs: dict = {}
    chosen_k: dict = {}
    for ci, (n, N) in enumerate(cell_list):
        kls = []
        for r in range(cfg.replications):
            stream = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(ci, r))
            rng = np.random.default_rng(stream)
            rep_seed = int(stream.generate_state(1)[0])
            fitted = mle_fit(f.sample(N, rng), n, cfg.fit_k_grid, kernel, box,
                             restarts=cfg.fit_restarts, seed=rep_seed,
                             max_iters=cfg.fit_max_iters, tol=cfg.fit_tol)
            chosen_k[fitted.k] = chosen_k.get(fitted.k, 0) + 1
            mix_gf = GridFunction(grid, fitted.mixture.pdf(mesh))
            kl = kl_divergence(f_gf, mix_gf)
            kls.append(kl)
            result.rows.append(Row("mle-risk", "N", N, r, rep_seed, f"kl@n{n}", kl))
        kls = np.asarray(kls)
        means[(n, N)] = float(kls.mean())
        errs[(n, N)] = float(kls.std(ddof=1) / math.sqrt(len(kls))) if len(kls) > 1 else 0.0
        result.rows.append(Row("mle-risk", "N", N, "", cfg.seed, f"kl_mean@n{n}", means[(n, N)]))
        result.rows.append(Row("mle-risk", "N", N, "", cfg.seed, f"kl_stderr@n{n}", errs[(n, N)]))

    # Series (a): risk versus N along both component schedules.
    for tag, sched in (("schedule-sqrt", _sqrt_schedule),
                       ("schedule-sqrt-log", _sqrt_log_schedule)):
        pts = [(N, means[(sched(N), N)], errs[(sched(N), N)]) for N in sorted(cfg.N_list)]
        result.rate_reports.append(_rate_report("mle-risk", "N", pts))
        for N, m, s in pts:
            result.rows.append(Row("mle-risk", "N", N, "", cfg.seed, f"kl_mean@{tag}", m))

    # Series (b): risk versus n at the largest N.
    pts_n = [(n, means[(n, N_max)], errs[(n, N_max)]) for n in sorted(cfg.n_list)]
    result.rate_reports.append(RateReport("mle-risk", "n", pts_n))
    for n, m, s in pts_n:
        result.rows.append(Row("mle-risk", "n", n, "", cfg.seed, "kl_mean@Nmax", m))

    # Certificates: smoothing budget from the convolution stage, then fitted
    # constants dominating every training cell, checked on the held-out cell.
    kl_by_k = {}
    for k in cfg.fit_k_grid:
        fbar = convolve(f_gf, dilate(kernel, k), out_grid=grid)
        kl_by_k[k] = kl_divergence(f_gf, fbar)
    beta = f.beta_lower
    eps_hat = beta * min(kl_by_k.values())
    result.rows.append(Row("mle-risk", "run", "", "", cfg.seed, "eps_hat", eps_hat))

    heldout = (cfg.heldout_n, cfg.heldout_N)
    train = [cell for cell in cell_list if cell != heldout]
    resid = np.array([max(means[c] - eps_hat / beta, 0.0) for c in train])
    design = np.array([[1.0 / c[0], 1.0 / math.sqrt(c[1])] for c in train])
    coef, _ = nnls(design, resid)
    C1, C2 = float(coef[0]), float(coef[1])
    # Inflate so the certificate dominates every training cell.
    scale = 1.0
    for i, c in enumerate(train):
        pred = design[i] @ np.array([C1, C2])
        if resid[i] > 0 and pred > 0:
            scale = max(scale, resid[i] / pred)
    if any(resid > 0) and (C1 == 0.0 and C2 == 0.0):
        C2 = float(max(resid[i] * math.sqrt(c[1]) for i, c in enumerate(train)))
    else:
        C1, C2 = C1 * scale, C2 * scale

    k_star = max(chosen_k, key=lambda k: (chosen_k[k], k))
    a_log = bnd.compute_A_logratio(kernel, k_star, box, f.support)
    gamma = bnd.compute_gamma(a_log)
    B = bnd.estimate_B_lipschitz(kernel, k_star, box, f.support)
    A_box = box.width
    p = cfg.density_dim
    c_star_sq = 0.0
    for c in train:
        n, N = c
        stat = gamma * (2.0 * n * p / N) * math.log(N * A_box * B * math.e)
        c_star_sq = max(c_star_sq, (means[c] - eps_hat / beta - stat) * n / gamma ** 2)
    C_star = math.sqrt(max(c_star_sq, 0.0))

    n_h, N_h = heldout
    try:  # B comes from the selected k, so validation cannot catch N A B e <= 1
        rhs = bnd.mle_risk_bound(eps_hat, beta, gamma, C_star, n_h, N_h, A_box, B, p)
    except ValueError as exc:
        rhs = None
        result.notes.append(f"likelihood-form risk bound not applicable: {exc}")
    # C_star is the constant of the likelihood form; without it, no row.
    c_star_row = (("C_star", C_star),) if rhs is not None else ()
    for name, value in (("C1", C1), ("C2", C2), *c_star_row,
                        ("gamma", gamma), ("B_lipschitz", B), ("k_star", float(k_star))):
        result.rows.append(Row("mle-risk", "run", "", "", cfg.seed, name, value))

    result.bound_reports.append(bnd.BoundReport.check(
        "mle-risk-split", means[heldout],
        bnd.mle_risk_bound_split(eps_hat, beta, C1, C2, n_h, N_h),
        n=n_h, N=N_h,
    ))
    if rhs is not None:
        result.bound_reports.append(bnd.BoundReport.check(
            "mle-risk-likelihood", means[heldout], rhs, n=n_h, N=N_h))
    for br in result.bound_reports:
        result.rows.append(Row("mle-risk", "N", br.inputs["N"], "", cfg.seed,
                               f"dominated[{br.bound_name}]@n{br.inputs['n']}",
                               float(br.dominated)))
    return result


# Budget of the covering numbers in `bounds`: their M x M distance matrix
# takes M^2 N work over N <= 512 sample points.  At most 1089 = 33^2 means in
# all and 129 per axis: 129, 33 and 10 per axis in 1-D, 2-D and 3-D.
_BOUNDS_MEANS = 1089


def run_bounds(cfg: ExperimentConfig) -> StudyResult:
    """Evaluate every bound constant and right-hand side for one setup.

    The covering-number dictionary is capped by the budget above; it is a
    mean lattice only, with no value table on the grid.
    """
    f = make_target(cfg.density_name, cfg.density_dim)
    kernel = make_product_kernel(cfg.kernel_name, cfg.density_dim)
    k = int(cfg.k_list[0])
    grid = _study_grid(cfg, f.support)
    box = _mean_box(cfg, f.support)
    per_axis = min(cfg.means_per_axis, 129, int(_BOUNDS_MEANS ** (1 / grid.dim) + 1e-9))
    means = lattice_means(box, per_axis, grid.dim)
    result = StudyResult("bounds")

    consts = bnd.BoundConstants(beta_lower=f.beta_lower, beta_upper=f.beta_upper,
                                A_box=box.width)
    consts.A_logratio = bnd.compute_A_logratio(kernel, k, box, f.support)
    if math.isfinite(consts.A_logratio):
        consts.gamma = bnd.compute_gamma(consts.A_logratio)
        _config_guard(check_resolution, grid, k)
        mixing = build_mixing_approximant(f, kernel, k, grid)
        consts.C_hull = bnd.hull_kl_constant(mixing, grid)
        consts.C_target = bnd.target_kl_constant(
            mixing, sample_on_grid(f.pdf, grid), grid)
        try:
            consts.B_lipschitz = bnd.estimate_B_lipschitz(kernel, k, box, f.support)
        except ValueError as exc:
            result.notes.append(f"log-kernel Lipschitz constant unavailable: {exc}")
    else:
        result.notes.append("log-ratio sup infinite; gamma-family constants skipped")
    consts.validate()

    for name in ("A_logratio", "gamma", "C_hull", "C_target", "B_lipschitz",
                 "A_box", "beta_lower", "beta_upper"):
        value = getattr(consts, name)
        if not math.isnan(value):
            result.rows.append(Row("bounds", "run", "", "", cfg.seed, name, value))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    xs = f.sample(min(max(cfg.N_list), 512), rng)
    dictionary = MixtureDictionary(kernel, k, means, grid)
    dudley = bnd.dudley_entropy_integral(dictionary, xs, f.beta_upper)
    result.rows.append(Row("bounds", "run", "", "", cfg.seed, "dudley_integral", dudley))

    if f.beta_lower > 0:
        for n in cfg.n_list:
            for N in cfg.N_list:
                rhs = bnd.mle_risk_concentration(
                    cfg.epsilon, f.beta_lower, f.beta_upper, n, N, dudley,
                    t=1.0, C_universal=1.0)
                result.rows.append(Row("bounds", "N", N, "", cfg.seed,
                                       f"concentration_rhs@n{n}", rhs))
    return result


def run_check_identity(cfg: ExperimentConfig) -> StudyResult:
    """Approximate-identity certification rows for the configured kernel."""
    kernel = make_product_kernel(cfg.kernel_name, cfg.density_dim)
    cert = certify_approximate_identity(kernel, cfg.deltas, cfg.k_list)
    result = StudyResult("check-identity")
    for k, mass in zip(cert.ks, cert.masses):
        result.rows.append(Row("check-identity", "k", k, "", cfg.seed, "mass", mass))
    for d, seq in sorted(cert.outside.items()):
        for k, value in zip(cert.ks, seq):
            result.rows.append(Row("check-identity", "k", k, "", cfg.seed,
                                   f"outside_mass@delta{d}", value))
    for name, flag in (("mass_ok", cert.mass_ok),
                       ("nonnegative_ok", cert.nonnegative_ok),
                       ("concentration_ok", cert.concentration_ok),
                       ("passed", cert.passed)):
        result.rows.append(Row("check-identity", "run", "", "", cfg.seed, name, float(flag)))
    if not cert.passed:
        result.notes.append("approximate-identity certification failed")
    return result


_RUNNERS = {
    "conv-rate": run_conv_rate,
    "mix-rate": run_mix_rate,
    "mle-risk": run_mle_risk,
    "bounds": run_bounds,
    "check-identity": run_check_identity,
}


def run_study(cfg: ExperimentConfig) -> StudyResult:
    cfg.validate()
    return _RUNNERS[cfg.study](cfg)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return repr(float(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _sorted_rows(rows) -> list:
    return sorted(rows, key=lambda r: (
        r.study, r.axis, str(r.axis_value), str(r.replication), r.metric))


def emit_report(result: StudyResult, path, fmt: str = "csv") -> None:
    """Serialize a study result; identical results give identical bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = _sorted_rows(result.rows)
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in rows:
            buf.write(",".join([
                r.study, r.axis, _fmt(r.axis_value), _fmt(r.replication),
                _fmt(r.seed), r.metric, _fmt(r.value),
            ]) + "\n")
        path.write_text(buf.getvalue())
    elif fmt == "json":
        payload = {
            "study": result.study,
            "rows": [
                {
                    "study": r.study, "axis": r.axis, "axis_value": r.axis_value,
                    "replication": r.replication, "seed": r.seed,
                    "metric": r.metric, "value": r.value,
                }
                for r in rows
            ],
            "slopes": [
                {
                    "study": rep.study, "axis": rep.axis,
                    "points": [list(p) for p in rep.points],
                    "fitted_slope": rep.fitted_slope,
                    "fitted_intercept": rep.fitted_intercept,
                    "slope_ci_halfwidth": rep.slope_ci_halfwidth,
                }
                for rep in result.rate_reports
            ],
            "bounds": [
                {
                    "bound_name": br.bound_name, "rhs": br.rhs,
                    "measured": br.measured, "dominated": br.dominated,
                    "inputs": {k: br.inputs[k] for k in sorted(br.inputs)},
                }
                for br in result.bound_reports
            ],
            "notes": list(result.notes),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
