"""Tests for the study harness, config parsing, reports, and the CLI."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mixapprox.cli import main as cli_main
from mixapprox.config import ConfigError, ExperimentConfig, load_config, parse_config_text
from mixapprox.harness import (
    CSV_HEADER,
    Row,
    StudyResult,
    emit_report,
    fit_loglog_slope,
    run_check_identity,
    run_conv_rate,
    run_mix_rate,
    run_study,
)


class TestSlopeFit:
    def test_exact_inverse_law(self):
        fit = fit_loglog_slope([(x, 1.0 / x) for x in (1, 2, 4, 8)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.ci_halfwidth == pytest.approx(0.0, abs=1e-10)

    def test_constant(self):
        fit = fit_loglog_slope([(x, 3.7) for x in (1, 2, 4, 8)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_inverse_square(self):
        fit = fit_loglog_slope([(x, 1.0 / x ** 2) for x in (1, 3, 9, 27)])
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)

    def test_two_points_no_ci(self):
        fit = fit_loglog_slope([(1, 1.0), (2, 0.5)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.ci_halfwidth is None

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(1, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(1, 1.0), (2, -0.5)])


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config_text("""
            # comment
            study = conv-rate
            density.name = tent
            k.list = 2, 4, 8
            seed = 7
        """)
        assert cfg.study == "conv-rate"
        assert cfg.k_list == (2, 4, 8)
        assert cfg.seed == 7
        assert cfg.grid_rule == "simpson"      # default
        assert cfg.replications == 20          # default

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("studyy = conv-rate")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("density.dim = two")

    def test_unknown_study(self):
        with pytest.raises(ConfigError, match="unknown study"):
            parse_config_text("study = warp-rate")

    def test_empty_required_list(self):
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config_text("study = conv-rate\nk.list = ")

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("study = check-identity\nkernel.name = laplace\nseed = 3\n")
        cfg = load_config(p)
        assert cfg.kernel_name == "laplace"


class TestEmitReport:
    def _result(self):
        res = StudyResult("demo")
        res.rows = [
            Row("demo", "k", 2, "", 1, "sup", 0.5),
            Row("demo", "k", 1, 0, 1, "sup", 1.0),
        ]
        return res

    def test_csv_schema_and_order(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(self._result(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("demo,k,1,0,1,sup,")
        assert lines[2].startswith("demo,k,2,,1,sup,")

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(StudyResult("demo"), path, "csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_json_mirrors_rows(self, tmp_path):
        p_csv = tmp_path / "r.csv"
        p_json = tmp_path / "r.json"
        emit_report(self._result(), p_csv, "csv")
        emit_report(self._result(), p_json, "json")
        payload = json.loads(p_json.read_text())
        csv_rows = p_csv.read_text().splitlines()[1:]
        assert len(payload["rows"]) == len(csv_rows)
        metrics = sorted((r["axis_value"], r["value"]) for r in payload["rows"])
        assert metrics == [(1, 1.0), (2, 0.5)]

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(self._result(), a, "csv")
        emit_report(self._result(), b, "csv")
        assert a.read_bytes() == b.read_bytes()


class TestConvRateStudy:
    def test_tent_slope_band(self):
        cfg = ExperimentConfig(study="conv-rate", density_name="tent",
                               k_list=(2, 4, 8, 16, 32)).validate()
        res = run_conv_rate(cfg)
        rep = res.rate_reports[0]
        assert -1.3 <= rep.fitted_slope <= -0.7
        sups = [v for _, v, _ in rep.points]
        assert all(b <= a for a, b in zip(sups, sups[1:]))

    def test_uniform_box_splits_interior(self):
        cfg = ExperimentConfig(study="conv-rate", density_name="uniform-box",
                               k_list=(4, 8, 16, 32)).validate()
        res = run_conv_rate(cfg)
        by_metric = {}
        for row in res.rows:
            if row.axis == "k":
                by_metric.setdefault(row.metric, []).append((row.axis_value, row.value))
        full = dict(by_metric["sup"])
        inner = dict(by_metric["sup_interior"])
        # The edge discontinuity pins the full-box sup near f(edge)/2 while
        # the interior sup decays.
        assert inner[32] < inner[4]
        assert full[32] > 0.4
        assert inner[32] < 0.01

    def test_3d_default_grid_fits_in_memory(self):
        # The 3-D default grid (65^3) convolves per axis onto the study grid;
        # a widened p-dimensional kernel mesh there would take gigabytes.
        cfg = ExperimentConfig(study="conv-rate", density_name="tent", density_dim=3,
                               k_list=(2, 4)).validate()
        tracemalloc.start()
        try:
            res = run_conv_rate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2 ** 20
        sups = [v for _, v, _ in res.rate_reports[0].points]
        assert len(sups) == 2 and sups[1] < sups[0]

    def test_single_k_gives_null_slope(self):
        cfg = ExperimentConfig(study="conv-rate", density_name="tent",
                               k_list=(8,)).validate()
        res = run_conv_rate(cfg)
        assert res.rate_reports[0].fitted_slope is None

    def test_monotone_for_every_density_kernel_pair(self):
        # Errors are nonincreasing in k for all shipped pairs and norms.
        # Compactly supported kernels are swept over k <= 16: past that the
        # lattice cannot resolve their kinks at the 2049-point defaults and a
        # discretization floor of order (k h)^2 buries the true decay.
        from mixapprox.densities import ZOO_NAMES

        bands = {
            "gaussian": (4, 8, 16, 32),
            "laplace": (4, 8, 16, 32),
            "epanechnikov": (2, 4, 8, 16),
            "triangular": (2, 4, 8, 16),
            "uniform-symmetric": (2, 4, 8, 16),
        }
        for density in ZOO_NAMES:
            for kernel, ks in bands.items():
                cfg = ExperimentConfig(
                    study="conv-rate", density_name=density, kernel_name=kernel,
                    k_list=ks, grid_points_per_axis=2049,
                ).validate()
                res = run_conv_rate(cfg)
                series = {}
                for row in res.rows:
                    if row.axis == "k" and row.metric in ("l1", "l2", "sup_interior"):
                        series.setdefault(row.metric, []).append(
                            (row.axis_value, row.value))
                for metric, pts in series.items():
                    vals = [v for _, v in sorted(pts)]
                    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:])), (
                        density, kernel, metric, vals)


class TestMixRateStudy:
    def test_domination_reports_present(self):
        cfg = ExperimentConfig(study="mix-rate", density_name="truncated-normal",
                               k_list=(16,), n_list=(8, 16, 32),
                               means_per_axis=129).validate()
        res = run_mix_rate(cfg)
        names = {b.bound_name for b in res.bound_reports}
        assert names == {"two-stage-kl", "hull-kl", "target-kl"}
        # The loose hull constants dominate at every recorded n.
        assert all(b.dominated for b in res.bound_reports
                   if b.bound_name in ("hull-kl", "target-kl"))

    def test_compact_kernel_skips_bounds_stage(self):
        cfg = ExperimentConfig(study="mix-rate", density_name="uniform-box",
                               kernel_name="triangular", k_list=(16,),
                               n_list=(2, 4), means_per_axis=65,
                               grid_points_per_axis=1025).validate()
        res = run_mix_rate(cfg)
        assert any("infinite" in note for note in res.notes)
        assert {b.bound_name for b in res.bound_reports} == {"two-stage-kl"}
        gap_rows = [r for r in res.rows if r.metric == "gap2"]
        assert len(gap_rows) == 2

    def test_unbounded_target_rejected(self):
        cfg = ExperimentConfig(study="mix-rate", density_name="tent",
                               k_list=(16,), n_list=(2,)).validate()
        with pytest.raises(ConfigError, match="bounded below"):
            run_mix_rate(cfg)


class TestCheckIdentityStudy:
    def test_rows_and_pass_flag(self):
        cfg = ExperimentConfig(study="check-identity", kernel_name="gaussian",
                               k_list=(1, 2, 4, 8, 16, 32),
                               deltas=(0.5,)).validate()
        res = run_check_identity(cfg)
        flags = {r.metric: r.value for r in res.rows if r.axis == "run"}
        assert flags["passed"] == 1.0
        outside = sorted((r.axis_value, r.value) for r in res.rows
                         if r.metric.startswith("outside_mass"))
        vals = [v for _, v in outside]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestCli:
    def _write(self, tmp_path, text):
        p = tmp_path / "study.cfg"
        p.write_text(text)
        return p

    def test_conv_rate_end_to_end(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "study = conv-rate\ndensity.name = tent\n"
                                    "k.list = 4,8\nseed = 5\n")
        out = tmp_path / "res.csv"
        code = cli_main(["conv-rate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_seed_override_changes_seed_column(self, tmp_path):
        cfg = self._write(tmp_path, "study = conv-rate\ndensity.name = tent\n"
                                    "k.list = 4,8\nseed = 5\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["conv-rate", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli_main(["conv-rate", "--config", str(cfg), "--out", str(b),
                         "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "study = conv-rate\nk.list = \n")
        assert cli_main(["conv-rate", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("study, text, message", [
        ("mix-rate", "density.name = truncated-normal\ndensity.dim = 2\n"
                     "k.list = 16\ndictionary.means_per_axis = 33\n",
         "memory guard"),
        ("conv-rate", "density.name = tent\ndensity.dim = 3\n"
                      "grid.points_per_axis = 33\nk.list = 4,16\n",
         "too coarse"),
        # A small sweep, so that a missing guard fails fast after the fits.
        ("mle-risk", "density.name = truncated-normal\n"
                     "grid.points_per_axis = 33\nfit.k_grid = 4,8,16\n"
                     "n.list = 2\nN.list = 100\nreplications = 1\n"
                     "heldout.n = 2\nheldout.N = 100\n",
         "too coarse"),
    ], ids=["dictionary-table", "conv-rate-resolution", "mle-risk-resolution"])
    def test_guard_is_a_config_error(self, tmp_path, capsys, study, text, message):
        # Configs that pass validate() but trip a library input guard exit 2
        # before any expensive stage, not with a traceback.
        cfg = self._write(tmp_path, f"study = {study}\n{text}")
        out = tmp_path / "res.csv"
        assert cli_main([study, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") and message in line
                   for line in err.splitlines())
        assert not out.exists()

    @pytest.mark.parametrize("study, text, message", [
        ("mle-risk", "density.name = truncated-normal\nfit.k_grid =\n", "fit_k_grid"),
        ("mle-risk", "density.name = truncated-normal\nfit.k_grid = 0,4\n", "fit.k_grid"),
        ("mix-rate", "density.name = truncated-normal\ndictionary.means_per_axis = 0\n",
         "means_per_axis"),
        ("conv-rate", "density.name = tent2\n", "density.name"),
        ("conv-rate", "kernel.name = gauss\n", "kernel.name"),
        ("mle-risk", "density.name = truncated-normal\nkernel.name = epanechnikov\n",
         "kernel.name"),
        ("mle-risk", "density.name = truncated-normal\nn.list = 2,300\nN.list = 250,1000\n",
         "n <= N"),
        ("mle-risk", "density.name = truncated-normal\nheldout.n = 50\nheldout.N = 40\n",
         "heldout.n"),
        ("mle-risk", "density.name = truncated-normal\nn.list = 1\nN.list = 1,250\n",
         "N.list"),
        ("conv-rate", "interior.margin = 0.5\n", "interior.margin"),
        ("conv-rate", "interior.margin = -0.1\n", "interior.margin"),
        ("mle-risk", "density.name = truncated-normal\nfit.mean_box = 0.25\n", "fit.mean_box"),
        ("mle-risk", "density.name = truncated-normal\nfit.mean_box = 0.75,0.25\n",
         "fit.mean_box"),
        ("mle-risk", "density.name = truncated-normal\nfit.mean_box = 0.5,0.5\n",
         "fit.mean_box"),
        ("check-identity", "deltas.list = 0.5,0\n", "deltas.list"),
        ("conv-rate", "grid.points_per_axis = 1\n", "grid.points_per_axis"),
        ("conv-rate", "grid.points_per_axis = 1024\n", "grid.points_per_axis"),
        ("bounds", "density.name = truncated-normal\nepsilon = -0.01\n", "epsilon"),
    ], ids=["empty-k-grid", "k-grid-below-1", "means-per-axis-below-1",
            "unknown-density", "unknown-kernel", "mle-risk-compact-kernel",
            "mle-risk-n-above-N", "mle-risk-heldout-n-above-N", "mle-risk-N-of-1",
            "interior-margin-half", "interior-margin-negative", "mean-box-one-number",
            "mean-box-reversed", "mle-risk-mean-box-zero-width", "delta-zero", "one-grid-point", "even-points-simpson",
            "negative-epsilon"])
    def test_invalid_input_is_a_config_error(self, tmp_path, capsys, study, text, message):
        cfg = self._write(tmp_path, f"study = {study}\n{text}")
        out = tmp_path / "res.csv"
        assert cli_main([study, "--config", str(cfg), "--out", str(out)]) == 2
        assert any(line.startswith("error: ") and message in line
                   for line in capsys.readouterr().err.splitlines())
        assert not out.exists()

    def test_truncation_tolerance_key_is_unknown(self, tmp_path, capsys):
        # Every study convolves onto its own grid, where a tail tolerance
        # would set only an unread loss figure, so there is no such key.
        cfg = self._write(tmp_path, "study = conv-rate\ngrid.truncation_tolerance = 1e-3\n")
        out = tmp_path / "res.csv"
        assert cli_main(["conv-rate", "--config", str(cfg), "--out", str(out)]) == 2
        assert any(line.startswith("error: ") and "unknown key" in line
                   for line in capsys.readouterr().err.splitlines())
        assert not out.exists()

    def test_study_override_is_applied_before_validation(self, tmp_path):
        # The file's study would reject this kernel; the command line's accepts it.
        cfg = self._write(tmp_path, "study = mle-risk\ndensity.name = truncated-normal\n"
                                    "kernel.name = epanechnikov\nk.list = 4,8\n")
        out = tmp_path / "res.csv"
        assert cli_main(["conv-rate", "--config", str(cfg), "--out", str(out)]) == 0
        assert ",sup_interior," in out.read_text()

    def test_inapplicable_likelihood_bound_is_a_note(self, tmp_path, capsys):
        # A narrow mean box makes N A B e <= 1 at the selected scale, which
        # only shows after the fits: the likelihood-form bound is skipped
        # with a note, and the split-form bound is still checked.
        cfg = self._write(tmp_path, "study = mle-risk\ndensity.name = truncated-normal\n"
                                    "fit.mean_box = 0.5,0.5000001\nN.list = 50,100\n"
                                    "replications = 2\nfit.k_grid = 4\n")
        out = tmp_path / "res.csv"
        assert cli_main(["mle-risk", "--config", str(cfg), "--out", str(out)]) == 0
        assert any(line.startswith("note: ") and "not applicable" in line
                   for line in capsys.readouterr().err.splitlines())
        text = out.read_text()
        assert "dominated[mle-risk-split]" in text
        assert "dominated[mle-risk-likelihood]" not in text
        # C_star is fitted for the likelihood form only, so it is left out too.
        assert ",C_star," not in text
        assert ",C1," in text

    def test_2d_bounds_on_the_default_dictionary(self, tmp_path):
        # The covering-number budget caps the default 257 means per axis at
        # 33 in 2-D, so the study runs instead of tripping a size guard.
        cfg = self._write(tmp_path, "study = bounds\ndensity.name = truncated-normal\n"
                                    "density.dim = 2\nk.list = 8\n")
        out = tmp_path / "bounds.csv"
        assert cli_main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert ",dudley_integral," in out.read_text()

    def test_2d_studies_do_not_import_scipy_signal(self, tmp_path):
        # The FFT path calls scipy.fft directly; scipy.signal costs ~0.85 s to
        # import.  A fresh interpreter shows what the 2-D studies load.
        mix = self._write(tmp_path, "study = mix-rate\ndensity.name = truncated-normal\n"
                                    "density.dim = 2\ngrid.points_per_axis = 65\n"
                                    "k.list = 4\nn.list = 1,2\n"
                                    "dictionary.means_per_axis = 5\n")
        bounds = tmp_path / "bounds.cfg"
        bounds.write_text("study = bounds\ndensity.name = truncated-normal\n"
                          "density.dim = 2\ngrid.points_per_axis = 65\nk.list = 4\n"
                          "N.list = 100\ndictionary.means_per_axis = 5\n")
        script = (
            "import sys\n"
            "from mixapprox.cli import main\n"
            f"assert main(['mix-rate', '--config', {str(mix)!r}, '--out', {str(tmp_path / 'm.csv')!r}]) == 0\n"
            f"assert main(['bounds', '--config', {str(bounds)!r}, '--out', {str(tmp_path / 'b.csv')!r}]) == 0\n"
            "print('scipy.signal' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_strict_domination_failure_exit_code(self, tmp_path, capsys):
        # Small-n greedy iterates violate the run-certificate domination, so
        # strict mode exits 3 (see the acceptance notes for the analysis).
        cfg = self._write(tmp_path, "study = mix-rate\n"
                                    "density.name = truncated-normal\n"
                                    "k.list = 16\nn.list = 1,2\n"
                                    "dictionary.means_per_axis = 129\n")
        out = tmp_path / "mix.csv"
        code = cli_main(["mix-rate", "--config", str(cfg), "--out", str(out),
                         "--strict"])
        assert code == 3
        err = capsys.readouterr().err
        assert "domination failed" in err

    def test_json_format_override(self, tmp_path):
        cfg = self._write(tmp_path, "study = check-identity\n"
                                    "kernel.name = gaussian\n"
                                    "k.list = 1,2,4,8,16,32\n")
        out = tmp_path / "ident.json"
        assert cli_main(["check-identity", "--config", str(cfg), "--out", str(out),
                         "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["study"] == "check-identity"


class TestMleRiskStudySmall:
    def test_small_sweep_structure(self):
        cfg = ExperimentConfig(
            study="mle-risk", density_name="two-truncated-normals",
            n_list=(1, 2), N_list=(100, 400), replications=3,
            fit_k_grid=(4, 8), fit_restarts=1, heldout_n=3, heldout_N=200,
            grid_points_per_axis=1025, seed=7,
        ).validate()
        res = run_study(cfg)
        metrics = {r.metric for r in res.rows}
        assert any(m.startswith("kl_mean@schedule-sqrt") for m in metrics)
        assert "kl_mean@Nmax" in metrics
        assert {"C1", "C2", "C_star", "eps_hat"} <= metrics
        names = {b.bound_name for b in res.bound_reports}
        assert names == {"mle-risk-split", "mle-risk-likelihood"}
        kl_rows = [r for r in res.rows if r.metric.startswith("kl@")]
        assert all(r.value >= 0 for r in kl_rows)

    def test_determinism(self, tmp_path):
        cfg = ExperimentConfig(
            study="mle-risk", density_name="two-truncated-normals",
            n_list=(1, 2), N_list=(100,), replications=2,
            fit_k_grid=(4,), fit_restarts=1, heldout_n=2, heldout_N=150,
            grid_points_per_axis=1025, seed=11,
        ).validate()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(run_study(cfg), a, "csv")
        emit_report(run_study(cfg), b, "csv")
        assert a.read_bytes() == b.read_bytes()


class TestBoundsStudy:
    def test_constants_rows(self):
        cfg = ExperimentConfig(
            study="bounds", density_name="truncated-normal", k_list=(8,),
            n_list=(4, 16), N_list=(1000,), grid_points_per_axis=1025,
            means_per_axis=65,
        ).validate()
        res = run_study(cfg)
        metrics = {r.metric for r in res.rows}
        assert {"A_logratio", "gamma", "C_hull", "C_target", "dudley_integral",
                "beta_lower", "beta_upper"} <= metrics
        rhs_rows = [r for r in res.rows if r.metric.startswith("concentration_rhs")]
        assert len(rhs_rows) == 2
        assert all(r.value > 0 for r in rhs_rows)
