"""Study runner: convolution rates, greedy mixture rates, MLE risk sweeps,
bound-constant evaluation, and approximate-identity certification.

Every study is a pure function of (config, seed).  Replication r of cell c
draws from a stream derived from (seed, c, r), so results do not depend on
execution order.  Reports serialize to CSV or JSON with canonical row order
and shortest round-trip float formatting; identical inputs give identical
bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bounds as bnd
from .config import ConfigError, ExperimentConfig
from .densities import make_target
from .divergences import AbsoluteContinuityError, _kl_sum, kl_divergence, lq_norm
from .grids import (GridFunction, _fft_lattice, check_resolution, make_grid, sample_on_grid,
                    smooth)
from .kernels import Dilation, certify_approximate_identity, make_product_kernel
from .mixtures import (
    FiniteMixture,
    MeanBox,
    build_dictionary,
    build_mixing_approximant,
    greedy_fit,
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


@dataclass(frozen=True)
class Row:
    """One line of a report: a metric's value at one point of a study's axis."""
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


CSV_HEADER = ",".join(f.name for f in fields(Row))


@dataclass(frozen=True)
class SlopeFit:
    """A least-squares line through log-log points; the half-width is twice
    the slope's standard error."""
    slope: float
    intercept: float
    ci_halfwidth: object        # float or None when dof is insufficient


@dataclass
class RateReport:
    """A study's mean errors along one axis, with the fitted log-log slope."""
    study: str
    axis: str
    points: list                # (axis_value, mean, stderr) sorted by axis
    fitted_slope: object = None
    fitted_intercept: object = None
    slope_ci_halfwidth: object = None


@dataclass
class StudyResult:
    """Everything one study reports: rows, rates, bound checks and notes."""
    study: str
    rows: list = field(default_factory=list)
    rate_reports: list = field(default_factory=list)
    bound_reports: list = field(default_factory=list)
    notes: list = field(default_factory=list)


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
    return SlopeFit(slope, intercept, ci)


_DEFAULT_POINTS = {1: 2049, 2: 257, 3: 65}     # study grid nodes per axis, by dimension


def _grid_points(cfg: ExperimentConfig) -> int:
    return cfg.grid_points_per_axis or _DEFAULT_POINTS[cfg.density_dim]


def _note_first_k(result: StudyResult, cfg: ExperimentConfig) -> None:
    """Note that a study smoothing at one scale uses only k.list's first entry."""
    if len(cfg.k_list) > 1:
        result.notes.append(f"{cfg.study} smooths at k = {cfg.k_list[0]}, the first "
                            f"of k.list's {len(cfg.k_list)} entries; the others are unused")


def _study_inputs(cfg: ExperimentConfig) -> tuple:
    """The target, kernel, grid and mean box of a study, built once, after the
    checks that its config meets the hypotheses the study's bounds rest on.

    Each failure is a ConfigError: `mix-rate` and `mle-risk` need a target
    bounded below; the grid must resolve the kernel (``check_resolution``) at
    the study's finest scale, in `bounds` only where its log-ratio sup is
    finite (elsewhere it smooths nothing on the grid); and an `mle-risk` fits
    its certificates on the cells besides the held-out one.  Each study reads
    only the scale list that `validate` requires it to have.
    """
    f = make_target(cfg.density_name, cfg.density_dim)
    kernel = make_product_kernel(cfg.kernel_name, cfg.density_dim)
    grid = make_grid(f.support, _grid_points(cfg), cfg.grid_rule)
    lo, hi = cfg.fit_mean_box or (min(f.support.lower), max(f.support.upper))
    box = MeanBox(lo, hi, cfg.density_dim)
    study = cfg.study
    if study in ("mix-rate", "mle-risk") and f.beta_lower <= 0:
        raise ConfigError(f"density {cfg.density_name!r} is not bounded below; the "
                          f"{study} study needs a lower-bounded target")
    k = (max(cfg.fit_k_grid) if study == "mle-risk" else
         max(cfg.k_list) if study == "conv-rate" else cfg.k_list[0])
    if study != "bounds" or math.isfinite(bnd.compute_A_logratio(kernel, k, box, f.support)):
        try:
            check_resolution(grid, k)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if study == "mle-risk" and _mle_cells(cfg) == [(cfg.heldout_n, cfg.heldout_N)]:
        raise ConfigError("mle-risk fits its certificates on the cells besides the held-out "
                          "one, and n.list x N.list and the schedules give none")
    return f, kernel, grid, box


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
    f, kernel, grid, _ = _study_inputs(cfg)
    f_gf = sample_on_grid(f, grid)
    interior = f.support.shrink_fraction(cfg.interior_margin)
    inner = interior.grid_mask(grid)
    if not inner.any():
        raise ConfigError("interior.margin leaves no grid node inside the interior sub-box")

    result = StudyResult("conv-rate")
    sup_int_points = []
    for k in cfg.k_list:
        diff = smooth(f, Dilation(kernel, k), grid).values - f_gf.values
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
    f, kernel, grid, box = _study_inputs(cfg)
    k = int(cfg.k_list[0])
    mixing = build_mixing_approximant(f, kernel, k, grid)
    f_gf, fbar = mixing.target, mixing.realized
    beta = min(f.beta_lower, float(fbar.values.min()))
    kl_smooth = kl_divergence(f_gf, fbar)
    eps_hat = beta * kl_smooth

    dictionary = build_dictionary(kernel, k, box, cfg.means_per_axis, grid)
    greedy = greedy_fit(fbar, dictionary, cfg.n_list, objective=cfg.objective)

    result = StudyResult("mix-rate")
    _note_first_k(result, cfg)
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "eps_hat", eps_hat))
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "kl_smooth", kl_smooth))
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "beta", beta))

    gaps = greedy.gaps
    C_hat = float(np.max(np.arange(1, gaps.size + 1) * gaps))
    result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, "C_hat", C_hat))

    a_log = bnd.compute_A_logratio(kernel, k, box, f.support)
    constants_ok = math.isfinite(a_log)
    if constants_ok:
        gamma = bnd.compute_gamma(a_log)
        c_hull = bnd.hull_kl_constant(mixing)
        c_target = bnd.target_kl_constant(mixing)
        for name, value in (("A_logratio", a_log), ("gamma", gamma),
                            ("C_hull", c_hull), ("C_target", c_target)):
            result.rows.append(Row("mix-rate", "run", "", "", cfg.seed, name, value))
    else:
        result.notes.append(
            "log-ratio sup is infinite for this kernel; domination stage skipped"
        )

    gap_points = []
    for n in cfg.n_list:
        mix_gf = GridFunction(grid, greedy.fields[n])
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


def _mle_cells(cfg: ExperimentConfig) -> list:
    """The sorted (n, N) cells of an mle-risk sweep (see run_mle_risk)."""
    return sorted(
        {(n, N) for N in cfg.N_list for n in cfg.n_list}
        | {(sched(N), N) for N in cfg.N_list for sched in (_sqrt_schedule, _sqrt_log_schedule)}
        | {(cfg.heldout_n, cfg.heldout_N)}
    )


def _nnls_2col(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a x - b| over x >= 0 for a two-column a, by its active sets.

    The unconstrained least-squares fit, if both of its coefficients are
    nonnegative; otherwise the optimum lies on a face x_j = 0, so it is the
    better of the two one-column fits clipped at 0, or (0, 0) when both clip.
    """
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    if np.all(x >= 0.0):
        return x
    best, best_res = np.zeros(2), float(b @ b)
    for j in range(2):
        col = a[:, j]
        t = max(float(col @ b) / float(col @ col), 0.0)
        res = float(np.sum((t * col - b) ** 2))
        if res < best_res:
            best, best_res = np.zeros(2), res
            best[j] = t
    return best


def _log_pdf_kl(f_gf: GridFunction, mixture: FiniteMixture, g: GridFunction) -> float:
    """KL(f, mixture) with log g from the log of g, the mixture on the grid,
    and, at the nodes of f's support where g is below 1e-300, from the
    log-sum-exp of ``FiniteMixture.log_pdf``, at nodes gathered per axis
    from np.nonzero (no mesh).  A Gaussian or Laplace mixture is positive
    everywhere, so its log density is finite where its grid values underflow.
    Where none underflows this is ``kl_divergence(f, g)``, bit for bit."""
    grid, mask = f_gf.grid, f_gf.values > 0.0
    with np.errstate(divide="ignore"):
        log_g = np.log(g.values)
    nodes = np.nonzero(mask & (g.values < 1e-300))
    log_g[nodes] = mixture.log_pdf(np.stack([x[i] for x, i in zip(grid.nodes, nodes)], axis=-1))
    return _kl_sum(f_gf, mask, log_g[mask])


def run_mle_risk(cfg: ExperimentConfig) -> StudyResult:
    """Replicated maximum-likelihood risk sweep.

    Cells are the union of the configured n x N product, the two component
    schedules (n = ceil(sqrt(N)) and n = ceil(sqrt(N / log N))) along N, and
    one held-out cell.  Each replication draws a fresh sample, fits the
    mixture by restarted EM over the scale grid, and measures the divergence
    to the truth by quadrature.  Certificates for the risk bounds are fitted
    on all cells except the held-out one and then checked there.
    """
    f, kernel, grid, box = _study_inputs(cfg)
    f_gf = sample_on_grid(f, grid)

    N_max = max(cfg.N_list)
    cell_list = _mle_cells(cfg)

    result = StudyResult("mle-risk")
    means: dict = {}
    errs: dict = {}
    chosen_k: dict = {}
    unconverged = 0
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
            unconverged += not fitted.fit.converged
            if fitted.fit.dropped:
                result.notes.append(f"best fit at n={n}, N={N}, replication {r} dropped "
                                    f"{fitted.fit.dropped} starved mixture component(s)")
            kl = _log_pdf_kl(f_gf, fitted.mixture, fitted.mixture.on_grid(grid))
            kls.append(kl)
            result.rows.append(Row("mle-risk", "N", N, r, rep_seed, f"kl@n{n}", kl))
        kls = np.asarray(kls)
        means[(n, N)] = float(kls.mean())
        errs[(n, N)] = float(kls.std(ddof=1) / math.sqrt(len(kls))) if len(kls) > 1 else 0.0
        result.rows.append(Row("mle-risk", "N", N, "", cfg.seed, f"kl_mean@n{n}", means[(n, N)]))
        result.rows.append(Row("mle-risk", "N", N, "", cfg.seed, f"kl_stderr@n{n}", errs[(n, N)]))

    if unconverged:
        result.notes.append(
            f"{unconverged} of {len(cell_list) * cfg.replications} reported best fits "
            f"stopped at fit.max_iters = {cfg.fit_max_iters} without converging")

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
        kl_by_k[k] = kl_divergence(f_gf, smooth(f, Dilation(kernel, k), grid))
    beta = f.beta_lower
    eps_hat = beta * min(kl_by_k.values())
    result.rows.append(Row("mle-risk", "run", "", "", cfg.seed, "eps_hat", eps_hat))

    heldout = (cfg.heldout_n, cfg.heldout_N)
    train = [cell for cell in cell_list if cell != heldout]
    resid = np.array([max(means[c] - eps_hat / beta, 0.0) for c in train])
    design = np.array([[1.0 / c[0], 1.0 / math.sqrt(c[1])] for c in train])
    coef = _nnls_2col(design, resid)
    C1, C2 = float(coef[0]), float(coef[1])
    # Inflate so the certificate dominates every training cell.
    scale = 1.0
    for i, c in enumerate(train):
        pred = design[i] @ np.array([C1, C2])
        if resid[i] > 0 and pred > 0:
            scale = max(scale, resid[i] / pred)
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


def _bounds_lattice(cfg: ExperimentConfig) -> tuple:
    """Means per axis (at most 129, and 1089 = 33^2 in all) and samples (at most
    512) of the covering numbers in `bounds`, whose distances take M^2 N work."""
    return (min(cfg.means_per_axis, 129, int(1089 ** (1 / cfg.density_dim) + 1e-9)),
            min(max(cfg.N_list), 512))


def run_bounds(cfg: ExperimentConfig) -> StudyResult:
    """Evaluate every bound constant and right-hand side for one setup.

    The covering-number dictionary is capped by `_bounds_lattice`; only its
    values at the samples are evaluated, never a table on the grid.
    """
    f, kernel, grid, box = _study_inputs(cfg)
    k = int(cfg.k_list[0])
    per_axis, n_samples = _bounds_lattice(cfg)
    result = StudyResult("bounds")
    _note_first_k(result, cfg)

    consts = {"A_logratio": bnd.compute_A_logratio(kernel, k, box, f.support)}
    if math.isfinite(consts["A_logratio"]):
        consts["gamma"] = bnd.compute_gamma(consts["A_logratio"])
        mixing = build_mixing_approximant(f, kernel, k, grid)
        consts["C_hull"] = bnd.hull_kl_constant(mixing)
        consts["C_target"] = bnd.target_kl_constant(mixing)
        try:
            consts["B_lipschitz"] = bnd.estimate_B_lipschitz(kernel, k, box, f.support)
        except ValueError as exc:
            result.notes.append(f"log-kernel Lipschitz constant unavailable: {exc}")
    else:
        result.notes.append("log-ratio sup infinite; gamma-family constants skipped")
    consts.update(A_box=box.width, beta_lower=f.beta_lower, beta_upper=f.beta_upper)
    for name, value in consts.items():
        result.rows.append(Row("bounds", "run", "", "", cfg.seed, name, value))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    xs = f.sample(n_samples, rng)
    dictionary = build_dictionary(kernel, k, box, per_axis, grid)
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


MEMORY_BUDGET = 2 << 30     # bytes: a study predicted above it exits 2 up front


def predicted_peak(cfg: ExperimentConfig) -> dict:
    """Bytes of each large array family the study of a validated config holds,
    by a label that names its shape.  Factors measured by tracemalloc (x86-64,
    numpy 2.4): grid fields and quadrature temporaries, 57 B a node in 3-D and
    more in 1-D, where convolution takes the FFT past 2^23 node pairs; the
    widened FFT of the smoothed target, 5.4 to 8.6 B a padded point in 3-D
    and 14.1 to 15.1 B in 2-D on 257^2 nodes or more; the greedy's score
    vectors, about ten M-long doubles, at most 72 to 74 B a mean in 2-D and
    3-D (the whole peak over M, for 1.7e6 to 2e6 means on 17^p nodes) and
    52 to 54 B under KL; the greedy's table row blocks and step vectors
    beside its iterate fields, 121 to 251 B a node; its iterate mixtures,
    8 (p + 1) B a component (of at most min(s, M) at step s) and 364 to 382
    B an iterate; EM's (n, N) log-joint, the one such array of Gaussian EM and
    five of Laplace EM (component-density temporaries, the medians' sorted
    copies), beside (4 p + 9) N doubles: the samples, centred and not, and
    EM's sample-side buffers and the exact step's temporaries."""
    study, dim, pts = cfg.study, cfg.density_dim, _grid_points(cfg)
    nodes = pts ** dim
    terms = {} if study == "check-identity" else {
        f"the grid fields on {pts}^{dim} nodes": (64 if dim > 1 else 192) * nodes}
    if study in ("mix-rate", "bounds") and dim > 1:
        grid = make_grid(make_target(cfg.density_name, dim).support, pts, cfg.grid_rule)
        dil = Dilation(make_product_kernel(cfg.kernel_name, dim), cfg.k_list[0])
        _, fs = _fft_lattice(grid, dil)
        terms[f"the smoothed target's FFT lattice ({fs[0]}^{dim} points)"] = 16 * math.prod(fs)
    if study == "mix-rate":
        m, n_max, kept = cfg.means_per_axis, max(cfg.n_list), len(set(cfg.n_list))
        terms[f"the greedy's score vectors over {m ** dim} means"] = 80 * m ** dim
        terms[f"the greedy's factor tables ({m} means x {pts} nodes x {dim} axes)"] = (
            8 * m * pts * dim)
        terms[f"the greedy's table row blocks and step vectors on {nodes} nodes"] = 256 * nodes
        terms[f"the greedy's {kept} kept iterate fields"] = 8 * kept * nodes
        # The fit keeps every iterate's mixture; step s adds at most one of
        # the M = m^p elements, so it has at most min(s, M) components.
        r = min(n_max, m ** dim)
        components = r * (r + 1) // 2 + (n_max - r) * m ** dim
        terms[f"the greedy's {n_max} iterate mixtures (up to {r} components each)"] = (
            8 * (dim + 1) * components + 400 * n_max)
    elif study == "mle-risk":
        cells = _mle_cells(cfg)
        joints = 1 if cfg.kernel_name == "gaussian" else 5
        n, N = max(cells, key=lambda c: c[1] * (joints * c[0] + 4 * dim + 9))
        terms[f"EM's log-joint at n = {n}, N = {N}"] = 8 * N * (joints * n + 4 * dim + 9)
        n = max(cells)[0]
        terms[f"the factor tables of the {n}-component fits"] = 32 * n * pts * dim
    elif study == "bounds":   # values, two temporaries and the distances
        per_axis, n_samples = _bounds_lattice(cfg)
        size = per_axis ** dim
        terms[f"the covering matrices of {size} means"] = 8 * size * (size + 3 * n_samples)
    return terms


def run_study(cfg: ExperimentConfig) -> StudyResult:
    terms = predicted_peak(cfg.validate())
    if sum(terms.values()) > MEMORY_BUDGET:
        name = max(terms, key=terms.get)
        raise ConfigError(
            f"a predicted peak of {sum(terms.values()) / 2 ** 30:.1f} GiB would exceed the "
            f"memory guard of 2 GiB; its largest term is {name}, {terms[name] / 2 ** 30:.1f} GiB")
    return _RUNNERS[cfg.study](cfg)


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _json_safe(v):
    """A report value with every non-finite float as its CSV token, a JSON
    string ("inf", "-inf", "nan"), so the report is standard JSON."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    if isinstance(v, dict):
        return {key: _json_safe(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _sorted_rows(rows) -> list:
    return sorted(rows, key=lambda r: (
        r.study, r.axis, str(r.axis_value), str(r.replication), r.metric))


def emit_report(result: StudyResult, path, fmt: str = "csv") -> None:
    """Serialize a study result; identical results give identical bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = _sorted_rows(result.rows)
    if fmt == "csv":
        lines = [CSV_HEADER, *(",".join(map(_fmt, astuple(r))) for r in rows)]
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "study": result.study,
            "rows": [asdict(r) for r in rows],
            "slopes": [asdict(rep) for rep in result.rate_reports],
            "bounds": [asdict(br) for br in result.bound_reports],
            "notes": result.notes,
        }
        text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
        path.write_text(text + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
