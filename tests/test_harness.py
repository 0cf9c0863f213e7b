"""Tests for the study harness, config parsing, reports, and the CLI."""

import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixapprox import harness
from mixapprox.cli import main as cli_main
from mixapprox.config import (STUDIES, ConfigError, ExperimentConfig, load_config,
                              parse_config_text)
from mixapprox.densities import ZOO_NAMES, make_target
from mixapprox.divergences import kl_divergence
from mixapprox.grids import GridFunction, make_grid, sample_on_grid, smooth
from mixapprox.harness import (
    CSV_HEADER,
    Row,
    StudyResult,
    _nnls_2col,
    emit_report,
    fit_loglog_slope,
    run_check_identity,
    run_conv_rate,
    run_mix_rate,
    run_study,
)
from mixapprox.kernels import MARGINAL_NAMES, Dilation, make_product_kernel
from mixapprox.mixtures import FiniteMixture


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

    @pytest.mark.parametrize("line", [
        "density.dim = two", "strict = ture", "strict = 2", "strict = on", "strict = ",
    ])
    def test_bad_value(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"line 2: bad value for '{key}'"):
            parse_config_text(f"study = check-identity\n{line}")

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

    def test_every_key_parses_its_default_back(self):
        # One `key = value` line per field, the value a rendering of the
        # field's default; the keys are distinct, and each parser inverts it.
        def render(value):
            return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

        declared = fields(ExperimentConfig)
        assert len({f.metadata["key"] for f in declared}) == len(declared)
        text = "\n".join(f"{f.metadata['key']} = {render(f.default)}" for f in declared)
        assert parse_config_text(text) == ExperimentConfig()

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("true", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("False", False), ("NO", False),
    ])
    def test_strict_values(self, raw, value):
        assert parse_config_text(f"study = check-identity\nstrict = {raw}").strict is value


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

    def test_json_writes_non_finite_values_as_csv_tokens(self, tmp_path):
        res = StudyResult("demo")
        res.rows = [Row("demo", "n", n, "", 1, "kl", v)
                    for n, v in enumerate((math.inf, -math.inf, math.nan, 0.25))]
        path = tmp_path / "r.json"
        emit_report(res, path, "json")

        def reject(token):
            raise ValueError(f"bare {token} in a JSON report")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert [r["value"] for r in payload["rows"]] == ["inf", "-inf", "nan", 0.25]

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
        # The 3-D default grid (65^3) is smoothed as an outer product of 1-D
        # sums; a widened p-dimensional kernel mesh there would take gigabytes.
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

    def test_1d_direct_convolution_holds_no_dense_matrix(self):
        # The direct 1-D sum contracts 256-row blocks of the Toeplitz matrix;
        # the dense (2049, 2049) matrix alone would take 32 MiB.
        f = make_target("two-truncated-normals", 1)
        grid = make_grid(f.support, 2049, "simpson")
        kernel = Dilation(make_product_kernel("gaussian", 1), 8)
        tracemalloc.start()
        try:
            out = smooth(f, kernel, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert out.grid is grid

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

    @pytest.mark.parametrize("study", ["mix-rate", "bounds"])
    @pytest.mark.parametrize("k_list, notes", [
        ((8, 16), ["{} smooths at k = 8, the first of k.list's 2 entries; "
                   "the others are unused"]),
        ((16,), []),
    ])
    def test_unused_scales_are_a_note(self, study, k_list, notes):
        # Both studies smooth at k.list[0] alone; a longer list says so once.
        cfg = ExperimentConfig(study=study, density_name="truncated-normal", k_list=k_list,
                               n_list=(2,), N_list=(100,), means_per_axis=33,
                               grid_points_per_axis=513).validate()
        assert [n for n in run_study(cfg).notes if "k.list" in n] == \
            [n.format(study) for n in notes]


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

    def test_builds_no_grid(self, monkeypatch):
        # The memory guard predicts no grid term for check-identity, so
        # grid.points_per_axis must not size anything it allocates.
        def no_grid(*args):
            raise AssertionError("check-identity built a grid")
        monkeypatch.setattr(harness, "make_grid", no_grid)
        cfg = ExperimentConfig(study="check-identity", kernel_name="gaussian", density_dim=3,
                               grid_points_per_axis=10 ** 9 + 1, k_list=(1, 2))
        assert harness.run_study(cfg).rows


@st.composite
def _tiny_configs(draw):
    """(study, config text) of any study, small enough to run in a fraction
    of a second: at most 17 nodes and 5 means per axis, N <= 20 and 20 EM
    iterations.  Many are invalid or violate a hypothesis, and exit 2.  A
    list the study does not need may be empty, as `validate` allows."""
    study = draw(st.sampled_from(STUDIES))
    needs = {"conv-rate": "k", "check-identity": "k", "mix-rate": "kn",
             "mle-risk": "nNf", "bounds": "knN"}[study]

    def ints(key, lo, hi, **kw):
        return ",".join(map(str, draw(st.lists(st.integers(lo, hi), min_size=key in needs,
                                               max_size=3, **kw))))
    rule = draw(st.sampled_from(["simpson", "trapezoid"]))
    odd = rule == "simpson"
    lines = {
        "density.name": draw(st.sampled_from(ZOO_NAMES)),
        "density.dim": draw(st.integers(1, 3)),
        "kernel.name": draw(st.sampled_from(MARGINAL_NAMES)),
        "grid.rule": rule,
        "grid.points_per_axis": draw(st.just(17) | (st.integers(1, 8).map(lambda h: 2 * h + 1)
                                                    if odd else st.integers(2, 17))),
        "k.list": ints("k", 1, 4, unique=True),
        "n.list": ints("n", 1, 6),
        "N.list": ints("N", 1, 20),
        "replications": draw(st.integers(1, 2)),
        "interior.margin": draw(st.sampled_from([0.0, 0.1, 0.3, 0.45])),
        "objective": draw(st.sampled_from(["l2", "kl"])),
        "dictionary.means_per_axis": draw(st.integers(1, 5)),
        "fit.k_grid": ints("f", 1, 3),
        "fit.max_iters": draw(st.integers(1, 20)),
        "heldout.n": draw(st.integers(1, 6)),
        "heldout.N": draw(st.integers(1, 20)),
    }
    box = draw(st.none() | st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2).map(sorted))
    if box:
        lines["fit.mean_box"] = ",".join(map(repr, box))
    return (study, "".join(f"{key} = {value}\n" for key, value in lines.items()))


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
        # 2^18 means on the 2049 1-D nodes: greedy's factor table, in 1-D the
        # whole weighted (M, G) table, would be 4.3 GB.
        ("mix-rate", "density.name = truncated-normal\n"
                     "k.list = 16\ndictionary.means_per_axis = 262144\n",
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
        # 3-D Laplace at k = 2 on the default 65^3 grid: the smoothed target's
        # widened FFT would pad to 900^3 points, about 22 GiB.
        ("mix-rate", "density.name = truncated-normal\ndensity.dim = 3\n"
                     "kernel.name = laplace\nk.list = 2\ndictionary.means_per_axis = 4\n",
         "900^3 points"),
        ("bounds", "density.name = truncated-normal\ndensity.dim = 3\n"
                   "kernel.name = laplace\nk.list = 2\nn.list = 4\nN.list = 1000\n",
         "900^3 points"),
        # Trimming 45% per side of the tent's [0, 1] keeps [0.45, 0.55],
        # between the nodes 0.4 and 0.6, so the interior sup has no node.
        ("conv-rate", "density.name = tent\ngrid.points_per_axis = 6\n"
                      "grid.rule = trapezoid\nk.list = 1\ninterior.margin = 0.45\n",
         "no grid node"),
        # 1025^3 nodes: the mesh of conv-rate's interior mask alone is 25.8 GB.
        ("conv-rate", "density.name = tent\ndensity.dim = 3\n"
                      "grid.points_per_axis = 1025\nk.list = 4\n",
         "1025^3 nodes"),
        # Both schedules give n = 2 at N = 4, so every cell is the held-out
        # one and no cell is left to fit the certificates on.
        ("mle-risk", "density.name = uniform-box\nn.list = 2\nN.list = 4\n"
                     "heldout.n = 2\nheldout.N = 4\n",
         "besides the held-out"),
        ("mle-risk", "density.name = tent\nn.list = 2\nN.list = 100\n", "bounded below"),
    ], ids=["dictionary-table", "conv-rate-resolution", "mle-risk-resolution",
            "mix-rate-approximant-fft", "bounds-approximant-fft", "conv-rate-empty-interior",
            "conv-rate-grid-size", "mle-risk-heldout-only", "mle-risk-not-bounded-below"])
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

    @pytest.mark.parametrize("study, text", [
        ("mle-risk", "density.name = truncated-normal\nk.list =\nfit.k_grid = 2\n"
                     "grid.points_per_axis = 65\nn.list = 2\nN.list = 20\n"
                     "replications = 1\nheldout.n = 2\nheldout.N = 20\n"),
        ("conv-rate", "density.name = tent\nfit.k_grid =\nk.list = 2\n"
                      "grid.points_per_axis = 65\n"),
        ("mix-rate", "density.name = truncated-normal\nfit.k_grid =\nk.list = 2\n"
                     "grid.points_per_axis = 65\nn.list = 2\n"
                     "dictionary.means_per_axis = 5\n"),
        ("bounds", "density.name = truncated-normal\nfit.k_grid =\nk.list = 2\n"
                   "grid.points_per_axis = 65\nn.list = 2\nN.list = 20\n"),
        ("check-identity", "fit.k_grid =\n"),
    ], ids=["mle-risk-no-k-list", "conv-rate-no-k-grid", "mix-rate-no-k-grid",
            "bounds-no-k-grid", "check-identity-no-k-grid"])
    def test_unneeded_scale_list_may_be_empty(self, tmp_path, study, text):
        # validate() lets a study leave empty a scale list it does not use.
        cfg = self._write(tmp_path, f"study = {study}\n{text}")
        out = tmp_path / "res.csv"
        assert cli_main([study, "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().startswith(CSV_HEADER)

    @settings(max_examples=50, deadline=None)
    @given(_tiny_configs())
    @example(("mle-risk", "density.name = uniform-box\nn.list = 2\nN.list = 4\n"
                          "heldout.n = 2\nheldout.N = 4\n"))
    def test_every_tiny_config_runs_or_exits_2(self, config):
        # A config runs (exit 0, a report) or is refused as a ConfigError
        # (exit 2, no report); no config raises.
        study, text = config
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "study.cfg", Path(tmp) / "res.csv"
            cfg.write_text(f"study = {study}\n{text}")
            code = cli_main([study, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2)
            assert out.exists() == (code == 0)

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
        ("mle-risk", "density.name = truncated-normal\nfit.restarts = 0\n", "fit.restarts"),
        ("mle-risk", "density.name = truncated-normal\nfit.max_iters = 0\n", "fit.max_iters"),
        ("mle-risk", "density.name = truncated-normal\nfit.tol = nan\n", "fit.tol"),
        ("mle-risk", "density.name = truncated-normal\nfit.tol = -1\n", "fit.tol"),
        ("check-identity", "k.list = 4,2\n", "strictly increasing k.list"),
        ("check-identity", "k.list = 2,2\n", "strictly increasing k.list"),
        ("bounds", "density.name = truncated-normal\nseed = -1\n", "seed"),
    ], ids=["empty-k-grid", "k-grid-below-1", "means-per-axis-below-1",
            "unknown-density", "unknown-kernel", "mle-risk-compact-kernel",
            "mle-risk-n-above-N", "mle-risk-heldout-n-above-N", "mle-risk-N-of-1",
            "interior-margin-half", "interior-margin-negative", "mean-box-one-number",
            "mean-box-reversed", "mle-risk-mean-box-zero-width", "delta-zero", "one-grid-point", "even-points-simpson",
            "negative-epsilon", "no-restarts", "no-em-iterations", "fit-tol-nan",
            "fit-tol-negative",
            "check-identity-k-decreasing", "check-identity-k-repeated", "negative-seed"])
    def test_invalid_input_is_a_config_error(self, tmp_path, capsys, study, text, message):
        cfg = self._write(tmp_path, f"study = {study}\n{text}")
        out = tmp_path / "res.csv"
        assert cli_main([study, "--config", str(cfg), "--out", str(out)]) == 2
        assert any(line.startswith("error: ") and message in line
                   for line in capsys.readouterr().err.splitlines())
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"study = conv-rate\nk.list = 4\xff\n"],
                             ids=["missing", "not-utf-8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "study.cfg"
        if content is not None:
            cfg.write_bytes(content)
        out = tmp_path / "res.csv"
        assert cli_main(["conv-rate", "--config", str(cfg), "--out", str(out)]) == 2
        assert any(line.startswith("error: cannot read config file")
                   for line in capsys.readouterr().err.splitlines())
        assert not out.exists()

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "study = mle-risk\ndensity.name = truncated-normal\n")
        out = tmp_path / "res.csv"
        assert cli_main(["mle-risk", "--config", str(cfg), "--out", str(out),
                         "--seed", "-5"]) == 2
        assert any(line.startswith("error: ") and "seed" in line
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

    def test_fit_that_underflows_on_the_grid_has_a_finite_kl(self, tmp_path, capsys):
        # At k = 128 a one-component Gaussian fit is below 1e-300 on part of
        # the target's support; its log density there comes from the
        # mixture's log-sum-exp, so the KL is large but finite.
        cfg = self._write(tmp_path, "study = mle-risk\ndensity.name = two-truncated-normals\n"
                                    "kernel.name = gaussian\nn.list = 1\nN.list = 50,100\n"
                                    "replications = 2\nfit.k_grid = 128\nheldout.n = 1\n"
                                    "heldout.N = 60\n")
        out = tmp_path / "res.csv"
        assert cli_main(["mle-risk", "--config", str(cfg), "--out", str(out)]) == 0
        kls = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()
               if ",kl@n1," in line]
        assert len(kls) == 6 and all(100.0 < v < 1000.0 for v in kls)

    def test_2d_bounds_on_the_default_dictionary(self, tmp_path):
        # The covering-number budget caps the default 257 means per axis at
        # 33 in 2-D, so the study runs instead of tripping a size guard.
        cfg = self._write(tmp_path, "study = bounds\ndensity.name = truncated-normal\n"
                                    "density.dim = 2\nk.list = 8\n")
        out = tmp_path / "bounds.csv"
        assert cli_main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        assert ",dudley_integral," in out.read_text()

    def test_studies_load_no_scipy_and_no_new_numpy_module(self, tmp_path):
        # Importing the package loads no scipy, and the numpy submodules that
        # numpy 2 loads lazily and the studies use (numpy.fft, numpy.random)
        # load with it, so no study pays an import in its own time.  Neither
        # numpy.ma nor numpy.polynomial loads at all, before or after the
        # studies.  A fresh interpreter shows what a 1-D mle-risk (EM, and the
        # normal cdf's inverse in the two-bump sampler's tails), the 2-D
        # mix-rate and bounds (the FFT approximant) and a 2-D and a 3-D
        # check-identity (the l1 tails and masses) load.
        mle = self._write(tmp_path, "study = mle-risk\ndensity.name = two-truncated-normals\n"
                                    "n.list = 4\nN.list = 200\nreplications = 1\n"
                                    "fit.k_grid = 4\nheldout.n = 4\nheldout.N = 200\n")
        mix = tmp_path / "mix.cfg"
        mix.write_text("study = mix-rate\ndensity.name = truncated-normal\n"
                       "density.dim = 2\ngrid.points_per_axis = 65\n"
                       "k.list = 4\nn.list = 1,2\ndictionary.means_per_axis = 5\n")
        bounds = tmp_path / "bounds.cfg"
        bounds.write_text("study = bounds\ndensity.name = truncated-normal\n"
                          "density.dim = 2\ngrid.points_per_axis = 65\nk.list = 4\n"
                          "N.list = 100\ndictionary.means_per_axis = 5\n")
        identity = []
        for dim, kernel in ((2, "gaussian"), (3, "uniform-symmetric")):
            identity.append(tmp_path / f"identity{dim}.cfg")
            identity[-1].write_text(f"study = check-identity\nkernel.name = {kernel}\n"
                                    f"density.dim = {dim}\nk.list = 1,2,4,8\n"
                                    "deltas.list = 0.25,0.5,1.0\n")
        runs = [[study, "--config", str(cfg), "--out", str(tmp_path / f"{cfg.stem}.csv")]
                for study, cfg in (("mle-risk", mle), ("mix-rate", mix), ("bounds", bounds),
                                   *(("check-identity", c) for c in identity))]
        script = (
            "import sys\n"
            "from mixapprox.cli import main\n"
            "def loaded():\n"
            "    return {m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')}\n"
            "def unused():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial']))\n"
            "at_import = loaded()\n"
            "scipy = sorted(m for m in at_import if m.startswith('scipy'))\n"
            "unused_at_import = unused()\n"
            f"for argv in {runs!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "print(unused_at_import, unused(), scipy, sorted(loaded() - at_import))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[] [] [] []"

    @pytest.mark.parametrize("dim", [1, 3])
    def test_check_identity_at_a_huge_delta_is_quiet(self, tmp_path, capsys, dim):
        # The Gaussian's l1 tail beyond delta = 1e300 is 0.  The normal
        # cdf's argument is far past where its square overflows, and
        # nothing may warn.
        cfg = self._write(tmp_path, "study = check-identity\nkernel.name = gaussian\n"
                                    f"density.dim = {dim}\nk.list = 1,2\ndeltas.list = 1e300\n")
        out = tmp_path / "ident.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["check-identity", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        tails = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()
                 if ",outside_mass" in line]
        assert tails and all(v == 0.0 for v in tails)

    @pytest.mark.parametrize("setting, option", [("", ["--strict"]), ("strict = true\n", [])])
    def test_strict_domination_failure_exit_code(self, tmp_path, capsys, setting, option):
        # Small-n greedy iterates violate the run-certificate domination, so
        # strict mode, set by the option or by the config, exits 3 (see the
        # acceptance notes for the analysis).
        cfg = self._write(tmp_path, "study = mix-rate\n"
                                    "density.name = truncated-normal\n"
                                    "k.list = 16\nn.list = 1,2\n"
                                    f"dictionary.means_per_axis = 129\n{setting}")
        out = tmp_path / "mix.csv"
        code = cli_main(["mix-rate", "--config", str(cfg), "--out", str(out), *option])
        assert code == 3
        err = capsys.readouterr().err
        assert "domination failed" in err

    def test_misspelt_strict_value_exits_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "study = check-identity\nstrict = ture\nk.list = 1,2\n")
        out = tmp_path / "ident.csv"
        assert cli_main(["check-identity", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: line 2: bad value for 'strict'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_path_exits_2(self, tmp_path, capsys, monkeypatch):
        # The report's parent directory is a regular file, and that is found
        # before the study runs.
        def no_study(cfg):
            raise AssertionError("the study ran before the out path was checked")

        monkeypatch.setattr("mixapprox.cli.run_study", no_study)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = self._write(tmp_path, "study = check-identity\nk.list = 1,2\n")
        out = blocker / "ident.csv"
        assert cli_main(["check-identity", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write report {str(out)!r}" in err
        assert "Traceback" not in err

    def test_json_report_is_standard_json(self, tmp_path, capsys):
        # A uniform-symmetric dictionary leaves the target's edges uncovered,
        # so KL rows are infinite.  JSON carries the CSV's tokens as strings.
        cfg = self._write(tmp_path, "study = mix-rate\ndensity.name = truncated-normal\n"
                                    "kernel.name = uniform-symmetric\nk.list = 8\n"
                                    "n.list = 1,2,4\ndictionary.means_per_axis = 65\n")
        paths = {fmt: tmp_path / f"mix.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in paths.items():
            assert cli_main(["mix-rate", "--config", str(cfg), "--out", str(path),
                             "--format", fmt]) == 0

        def reject(token):
            raise ValueError(f"bare {token} in a JSON report")

        payload = json.loads(paths["json"].read_text(), parse_constant=reject)
        csv_values = [line.rsplit(",", 1)[1]
                      for line in paths["csv"].read_text().splitlines()[1:]]
        json_values = [r["value"] for r in payload["rows"]]
        assert "inf" in json_values
        assert csv_values == [v if isinstance(v, str) else repr(v) for v in json_values]

    def test_out_and_format_replace_the_file_values(self, tmp_path, capsys):
        in_file = tmp_path / "from-file.csv"
        cfg = self._write(tmp_path, "study = check-identity\nkernel.name = gaussian\n"
                                    f"k.list = 1,2,4,8,16,32\nout.path = {in_file}\n"
                                    "out.format = csv\n")
        assert cli_main(["check-identity", "--config", str(cfg)]) == 0
        assert in_file.read_text().startswith(CSV_HEADER)
        in_file.unlink()
        out = tmp_path / "from-options.json"
        assert cli_main(["check-identity", "--config", str(cfg), "--out", str(out),
                         "--format", "json"]) == 0
        assert json.loads(out.read_text())["study"] == "check-identity"
        assert not in_file.exists()
        assert capsys.readouterr().out.splitlines() == [str(in_file), str(out)]


# Small studies for the BLAS thread-count check, named <study>-<dim>d.
_THREAD_STUDIES = {
    "mle-risk-1d": "density.name = two-truncated-normals\nn.list = 4\nN.list = 100,200\n"
                   "replications = 2\nfit.k_grid = 4,8\nheldout.n = 4\nheldout.N = 150\n",
    "mle-risk-3d": "density.name = two-truncated-normals\ndensity.dim = 3\n"
                   "grid.points_per_axis = 33\nn.list = 4\nN.list = 100,200\n"
                   "replications = 2\nfit.k_grid = 4,8\nheldout.n = 4\nheldout.N = 150\n",
    "mix-rate-2d": "density.name = truncated-normal\ndensity.dim = 2\n"
                   "grid.points_per_axis = 65\nk.list = 4\nn.list = 1,2,4\n"
                   "dictionary.means_per_axis = 5\n",
    "conv-rate-1d": "density.name = tent\nk.list = 4,8,16\n",
    "bounds-2d": "density.name = truncated-normal\ndensity.dim = 2\n"
                 "grid.points_per_axis = 65\nk.list = 4\nN.list = 100\n"
                 "dictionary.means_per_axis = 5\n",
    "check-identity-1d": "kernel.name = gaussian\nk.list = 1,2,4,8,16\n",
    "mix-rate-kl": "density.name = truncated-normal\nk.list = 16\nn.list = 1,2,4\n"
                   "objective = kl\n",
}


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The same studies in two children, at 1 and at 2 OpenBLAS threads, write
    # the same bytes.  A KL sum absorbs a last-bit change at a few grid nodes,
    # so the children also write one mixture field on a 257^2 grid at n = 23,
    # where a GEMM (einsum with optimize=True) rounds its last column
    # differently at 2 threads than at 1.
    for name, text in _THREAD_STUDIES.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from mixapprox.cli import main\n"
        "from mixapprox.grids import cube, make_grid\n"
        "from mixapprox.kernels import make_product_kernel\n"
        "from mixapprox.mixtures import FiniteMixture\n"
        "cfgs, out = sys.argv[1:3]\n"
        "for name in sys.argv[3:]:\n"
        "    assert main([name.rsplit('-', 1)[0], '--config', f'{cfgs}/{name}.cfg',\n"
        "                 '--out', f'{out}/{name}.csv']) == 0\n"
        "rng = np.random.default_rng(23)\n"
        "mix = FiniteMixture(rng.dirichlet(np.ones(23)), rng.uniform(0, 1, (23, 2)), 16,\n"
        "                    make_product_kernel('gaussian', 2))\n"
        "field = mix.on_grid(make_grid(cube(0.0, 1.0, 2), 257, 'simpson')).values\n"
        "open(f'{out}/field.bin', 'wb').write(field.tobytes())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    children = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        children[out] = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path), str(out), *_THREAD_STUDIES],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    errors = [child.communicate(timeout=300)[1] for child in children.values()]
    for child, err in zip(children.values(), errors):
        assert child.returncode == 0, err
    one, two = children
    for name in (*(f"{name}.csv" for name in _THREAD_STUDIES), "field.bin"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


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

    @pytest.mark.parametrize("p, points", [(1, 1025), (2, 65)])
    def test_log_pdf_kl_equals_kl_divergence(self, p, points):
        # Where no grid value underflows, both apply: log g from the mixture's
        # log-sum-exp at every support node (given grid values of 0 there)
        # against the log of its grid values.
        f = make_target("two-truncated-normals", p)
        grid = make_grid(f.support, points, "simpson")
        f_gf = sample_on_grid(f, grid)
        rng = np.random.default_rng(p)
        mix = FiniteMixture(rng.dirichlet(np.ones(5)), rng.uniform(0.0, 1.0, size=(5, p)), 4,
                            make_product_kernel("gaussian", p))
        g = mix.on_grid(grid)
        ref = kl_divergence(f_gf, g)
        got = harness._log_pdf_kl(f_gf, mix, GridFunction(grid, np.zeros(grid.shape)))
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert harness._log_pdf_kl(f_gf, mix, g) == ref

    def test_dropped_component_is_a_note(self, monkeypatch):
        # EM only counts a dropped starved component (EMFit.dropped); the
        # study names each reported best fit that dropped one in a note.
        real_mle_fit = harness.mle_fit

        def mle_fit(xs, n_components, *args, **kwargs):
            fitted = real_mle_fit(xs, n_components, *args, **kwargs)
            fitted.fit.dropped = int(n_components == 2)
            return fitted

        monkeypatch.setattr(harness, "mle_fit", mle_fit)
        cfg = ExperimentConfig(
            study="mle-risk", density_name="two-truncated-normals",
            n_list=(1, 2), N_list=(100,), replications=2,
            fit_k_grid=(4,), fit_restarts=1, heldout_n=2, heldout_N=150,
            grid_points_per_axis=1025, seed=11,
        ).validate()
        notes = [note for note in run_study(cfg).notes if "starved" in note]
        assert notes == [
            f"best fit at n=2, N={N}, replication {r} dropped 1 starved mixture "
            "component(s)" for N in (100, 150) for r in (0, 1)
        ]


    @pytest.mark.parametrize("max_iters, notes", [
        (1, ["10 of 10 reported best fits stopped at fit.max_iters = 1 without converging"]),
        (500, []),
    ])
    def test_unconverged_best_fits_are_a_note(self, tmp_path, max_iters, notes):
        # Five cells of two replications: one note in all when a reported
        # best fit ran out of EM iterations, and none when every fit converged.
        cfg = ExperimentConfig(
            study="mle-risk", density_name="two-truncated-normals",
            n_list=(1, 2), N_list=(100,), replications=2,
            fit_k_grid=(4,), fit_restarts=1, heldout_n=2, heldout_N=150,
            grid_points_per_axis=1025, seed=11, fit_max_iters=max_iters,
        ).validate()
        result = run_study(cfg)
        assert [note for note in result.notes if "converging" in note] == notes
        emit_report(result, tmp_path / "res.json", "json")
        emit_report(result, tmp_path / "res.csv", "csv")
        assert json.loads((tmp_path / "res.json").read_text())["notes"] == result.notes
        assert "converging" not in (tmp_path / "res.csv").read_text()


_MLE = "n.list = 64\nN.list = 4000,20000\nfit.k_grid = 4\nheldout.n = 8\nheldout.N = 1000\n"

# Studies in dims 1 to 3 whose predicted peaks span the budget's terms, each
# at most 256 MiB: name -> config text (study, then its settings).
_PEAK_CASES = {
    "conv-rate-1d": "conv-rate\ndensity.name = tent\nk.list = 4,16\n",
    "conv-rate-1d-fft": "conv-rate\ndensity.name = tent\ngrid.points_per_axis = 262145\n"
                        "k.list = 4,16\n",
    "conv-rate-2d": "conv-rate\ndensity.name = tent\ndensity.dim = 2\nk.list = 4,16\n",
    "conv-rate-3d": "conv-rate\ndensity.name = tent\ndensity.dim = 3\n"
                    "grid.points_per_axis = 129\nk.list = 8\n",
    "mix-rate-1d-l2": "mix-rate\ndensity.name = truncated-normal\nk.list = 16\n"
                      "n.list = 1,8,32\n",
    "mix-rate-1d-kl": "mix-rate\ndensity.name = truncated-normal\nk.list = 16\nn.list = 1,8\n"
                      "dictionary.means_per_axis = 129\nobjective = kl\n",
    "mix-rate-2d-l2": "mix-rate\ndensity.name = truncated-normal\ndensity.dim = 2\n"
                      "k.list = 16\nn.list = 1,4\ndictionary.means_per_axis = 17\n",
    "mix-rate-2d-kl": "mix-rate\ndensity.name = truncated-normal\ndensity.dim = 2\n"
                      "k.list = 16\nn.list = 1,4\ndictionary.means_per_axis = 17\n"
                      "objective = kl\n",
    "mix-rate-2d-iterates": "mix-rate\ndensity.name = truncated-normal\ndensity.dim = 2\n"
                            "grid.points_per_axis = 129\nk.list = 8\nn.list = 1,200\n"
                            "dictionary.means_per_axis = 5\n",
    # Far more means than nodes: the greedy's score vectors.
    "mix-rate-2d-means": "mix-rate\ndensity.name = truncated-normal\ndensity.dim = 2\n"
                         "grid.points_per_axis = 33\nk.list = 4\nn.list = 1,8\n"
                         "dictionary.means_per_axis = 600\n",
    "mix-rate-3d-means": "mix-rate\ndensity.name = truncated-normal\ndensity.dim = 3\n"
                         "grid.points_per_axis = 17\nk.list = 2\nn.list = 1,8\n"
                         "dictionary.means_per_axis = 70\n",
    "mix-rate-3d": "mix-rate\ndensity.name = truncated-normal\ndensity.dim = 3\n"
                   "grid.points_per_axis = 33\nk.list = 4\nn.list = 1,4\n"
                   "dictionary.means_per_axis = 4\n",
    "mle-risk-1d-gaussian": f"mle-risk\ndensity.name = truncated-normal\n{_MLE}"
                            "fit.max_iters = 20\n",
    "mle-risk-1d-laplace": f"mle-risk\ndensity.name = truncated-normal\n{_MLE}"
                           "kernel.name = laplace\nfit.max_iters = 5\n",
    "mle-risk-1d-heldout": "mle-risk\ndensity.name = truncated-normal\nn.list = 1\n"
                           "N.list = 100\nfit.k_grid = 4\nfit.max_iters = 5\nheldout.n = 1\n"
                           "heldout.N = 1000000\n",
    "mle-risk-1d-fft": "mle-risk\ndensity.name = truncated-normal\n"
                       "grid.points_per_axis = 262145\nn.list = 2\nN.list = 100\n"
                       "fit.k_grid = 4\nfit.max_iters = 5\nheldout.n = 1\nheldout.N = 100\n",
    "mle-risk-3d-gaussian": f"mle-risk\ndensity.name = truncated-normal\ndensity.dim = 3\n"
                            f"grid.points_per_axis = 33\n{_MLE}fit.max_iters = 20\n",
    "mle-risk-3d-laplace": "mle-risk\ndensity.name = truncated-normal\ndensity.dim = 3\n"
                           "grid.points_per_axis = 33\nkernel.name = laplace\nn.list = 8\n"
                           "N.list = 2000,8000\nfit.k_grid = 4\nfit.max_iters = 3\n",
    "bounds-1d": "bounds\ndensity.name = truncated-normal\nk.list = 8\nn.list = 4\n"
                 "N.list = 1000\n",
    "bounds-2d": "bounds\ndensity.name = truncated-normal\ndensity.dim = 2\nk.list = 8\n"
                 "n.list = 4\nN.list = 200\ndictionary.means_per_axis = 9\n",
    "bounds-3d": "bounds\ndensity.name = truncated-normal\ndensity.dim = 3\n"
                 "grid.points_per_axis = 33\nk.list = 4\nn.list = 4\nN.list = 200\n"
                 "dictionary.means_per_axis = 5\n",
}


def _shipped_and_benchmark_texts() -> dict:
    """Every shipped config and benchmark study: its path or label -> text."""
    root = Path(__file__).resolve().parents[1]
    bench = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    texts = {f"configs/{path.name}": path.read_text()
             for path in sorted((root / "configs").glob("*.cfg"))}
    texts.update((f"perfbench/{label}", bench["config_text"](text, bench["DEFAULT_SEED"]))
                 for studies in bench["WORKLOADS"].values() for label, text in studies)
    return texts


# The padded side of the smoothed target's FFT lattice in each case that has
# one, as the budget predicted it before the widening had one owner in
# grids; no other case and no shipped config has an FFT term.
_FFT_SIDES = {
    "mix-rate-2d-l2": 900, "mix-rate-2d-kl": 900, "mix-rate-2d-iterates": 486,
    "mix-rate-2d-means": 150, "mix-rate-3d-means": 108, "mix-rate-3d": 150,
    "bounds-2d": 972, "bounds-3d": 150,
    "perfbench/mix-rate-2d": 900, "perfbench/bounds-2d": 972,
}


class TestMemoryBudget:
    @pytest.mark.parametrize("name", _PEAK_CASES)
    def test_prediction_bounds_the_measured_peak(self, name):
        # The prediction covers the tracemalloc peak up to the interpreter's
        # small arrays, and is not loose by more than 3x where it is large.
        cfg = parse_config_text(f"study = {_PEAK_CASES[name]}replications = 1\nseed = 7\n")
        predicted = sum(harness.predicted_peak(cfg.validate()).values())
        assert predicted <= 256 * 2 ** 20
        tracemalloc.start()
        try:
            run_study(cfg)
            _, measured = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert measured <= predicted + 16 * 2 ** 20, (measured, predicted)
        if predicted > 64 * 2 ** 20:
            assert predicted <= 3 * measured, (measured, predicted)

    @pytest.mark.parametrize("study, text, term", [
        # EM's (n, N) log-joint alone would be 298 GiB.
        ("mle-risk", "n.list = 4000\nN.list = 10000000\n",
         "EM's log-joint at n = 4000, N = 10000000"),
        # 10^7 iterate mixtures of up to 289 components: 68 GiB.
        ("mix-rate", "density.dim = 2\nk.list = 16\nn.list = 1,10000000\n"
                     "dictionary.means_per_axis = 17\n",
         "the greedy's 10000000 iterate mixtures (up to 289 components each)"),
        # 30000^2 means: the greedy's score vectors alone would be 72 GB.
        ("mix-rate", "density.dim = 2\nk.list = 16\ndictionary.means_per_axis = 30000\n",
         "the greedy's score vectors over 900000000 means"),
    ], ids=["mle-risk-em", "mix-rate-iterates", "mix-rate-means"])
    def test_unguarded_gaps_exit_2_at_once(self, tmp_path, capsys, study, text, term):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"study = {study}\ndensity.name = truncated-normal\n{text}")
        out = tmp_path / "res.csv"
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = cli_main([study, "--config", str(cfg), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert code == 2 and peak < 2 ** 20 and not out.exists()
        err = capsys.readouterr().err
        assert f"its largest term is {term}," in err and "memory guard" in err

    def test_shipped_and_benchmark_configs_stay_well_inside(self):
        # Every shipped config and benchmark study is predicted at most a
        # quarter of the budget, so a change to a term's factor cannot
        # silently refuse one of them.
        texts = _shipped_and_benchmark_texts()
        assert len(texts) >= 14
        for text in texts.values():
            cfg = parse_config_text(text).validate()
            assert sum(harness.predicted_peak(cfg).values()) <= harness.MEMORY_BUDGET / 4, text

    def test_fft_terms_are_unchanged(self):
        texts = {name: f"study = {text}" for name, text in _PEAK_CASES.items()}
        texts.update(_shipped_and_benchmark_texts())
        assert _FFT_SIDES.keys() <= texts.keys()
        for name, text in texts.items():
            cfg = parse_config_text(text).validate()
            terms = {label: size for label, size in harness.predicted_peak(cfg).items()
                     if "FFT" in label}
            want, dim = {}, cfg.density_dim
            if name in _FFT_SIDES:
                side = _FFT_SIDES[name]
                want[f"the smoothed target's FFT lattice ({side}^{dim} points)"] = 16 * side ** dim
            assert terms == want, name


class TestNnls2Col:
    """The closed-form two-column NNLS behind C1 and C2 against scipy's
    iterative solver."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scipy(self, seed):
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 12))
        a = rng.uniform(0.05, 1.0, size=(m, 2))
        if seed % 4 == 1:       # both columns positively correlated with b
            b = a @ rng.uniform(0.1, 2.0, size=2) + 0.01 * rng.standard_normal(m)
        elif seed % 4 == 2:     # one constraint active
            b = a @ np.array([rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)])
        elif seed % 4 == 3:     # both active: b points away from both columns
            b = -rng.uniform(0.1, 1.0, size=m)
        else:
            b = rng.standard_normal(m)
        want, _ = nnls(a, b)
        got = _nnls_2col(a, b)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_active_sets_are_all_reached(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert np.all(_nnls_2col(a, a @ [2.0, 3.0]) == pytest.approx([2.0, 3.0], abs=1e-14))
        assert _nnls_2col(a, a @ [2.0, -3.0])[1] == 0.0
        assert _nnls_2col(a, a @ [-2.0, 3.0])[0] == 0.0
        assert np.all(_nnls_2col(a, -np.ones(3)) == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda m: st.tuples(
        arrays(float, (m, 2), elements=st.floats(1e-6, 1.0)),
        arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(1e-30, 1e3))))))
    def test_positive_design_and_residuals_give_a_nonzero_fit(self, design_and_b):
        # run_mle_risk's design entries 1/n and 1/sqrt(N) are positive and its
        # residuals nonnegative, so some column correlates with b > 0.
        a, b = design_and_b
        assume(np.any(b > 0))
        assert np.any(_nnls_2col(a, b) > 0.0)


def test_cli_import_loads_no_scipy():
    # The normal cdf and its inverse are ported into kernels.py, the
    # certification integrates by its own Gauss-Legendre nodes, and C1, C2
    # come from a closed form, so the start-up path loads no scipy module.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = ("import sys, mixapprox.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


def test_benchmark_traced_names_resolve():
    # The benchmark's traced runs wrap these by name; a rename or a move in
    # the package must fail here, not silently in `--trace 1`.
    import importlib
    import runpy

    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
    for name in (*spans["TRACED"], *spans["UNTRACED"]):
        module_name, _, path = name.partition(".")
        owner = importlib.import_module(f"mixapprox.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_public_names_resolve():
    # Every name a module exports exists, and every name the package imports
    # from a module is one that module exports.
    import ast
    import importlib
    import pkgutil

    import mixapprox

    for info in pkgutil.iter_modules(mixapprox.__path__):
        module = importlib.import_module(f"mixapprox.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
    tree = ast.parse(Path(mixapprox.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"mixapprox.{node.module}").__all__
        for alias in node.names:
            assert alias.name in exported, f"{node.module}.{alias.name}"


def test_benchmark_counters_read_real_results():
    # The traced runs count dictionary entries and greedy steps from the
    # results these return; a renamed or removed attribute must fail here,
    # not only in `--trace 1`.
    import runpy

    from mixapprox.densities import make_target
    from mixapprox.grids import make_grid
    from mixapprox.kernels import make_product_kernel
    from mixapprox.mixtures import MeanBox, build_dictionary, build_mixing_approximant, greedy_fit

    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
    f = make_target("truncated-normal", 1)
    grid = make_grid(f.support, 257, "simpson")
    kernel = make_product_kernel("gaussian", 1)
    fbar = build_mixing_approximant(f, kernel, 8, grid).realized
    dictionary = build_dictionary(kernel, 8, MeanBox(-1.0, 1.0, 1), 17, grid)
    fit = greedy_fit(fbar, dictionary, [3])
    counts = {}
    spans["_count_dictionary"](counts, (), {}, dictionary)
    spans["_count_greedy"](counts, (), {}, fit)
    assert counts == {"entries": 17 * 257, "steps": 3}
