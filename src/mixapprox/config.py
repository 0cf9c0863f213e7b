"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, `#` comments.  Keys
use dotted names (`density.name`, `grid.points_per_axis`, ...); list values
are comma separated.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .densities import ZOO_NAMES
from .kernels import MARGINAL_NAMES
from .mixtures import EM_MARGINALS

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "load_config"]

STUDIES = ("conv-rate", "mix-rate", "mle-risk", "bounds", "check-identity")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def _int_list(raw: str):
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _float_list(raw: str):
    return tuple(float(v.strip()) for v in raw.split(",") if v.strip())


@dataclass(frozen=True)
class ExperimentConfig:
    study: str = "conv-rate"
    density_name: str = "tent"
    density_dim: int = 1
    kernel_name: str = "gaussian"
    grid_points_per_axis: int = 0          # 0: per-dim default
    grid_rule: str = "simpson"
    k_list: tuple = (2, 4, 8, 16, 32)
    n_list: tuple = (1, 2, 4, 8, 16, 32)
    N_list: tuple = (250, 1000, 4000)
    deltas: tuple = (0.25, 0.5, 1.0)
    replications: int = 20
    epsilon: float = 0.01
    seed: int = 20240801
    out_path: str = ""
    out_format: str = "csv"
    strict: bool = False
    interior_margin: float = 0.1
    objective: str = "l2"
    means_per_axis: int = 257
    fit_k_grid: tuple = (4, 8, 16)
    fit_restarts: int = 1
    fit_max_iters: int = 500
    fit_tol: float = 1e-8
    fit_mean_box: tuple = ()               # empty: density support
    heldout_n: int = 8
    heldout_N: int = 2000

    def validate(self) -> "ExperimentConfig":
        pts, box, mle = self.grid_points_per_axis, self.fit_mean_box, self.study == "mle-risk"
        for bad, message in (
            (self.study not in STUDIES,
             f"unknown study {self.study!r}; expected one of {STUDIES}"),
            (self.density_dim not in (1, 2, 3), "density.dim must be 1, 2, or 3"),
            (self.density_name not in ZOO_NAMES,
             f"unknown density.name {self.density_name!r}; expected one of {ZOO_NAMES}"),
            (self.kernel_name not in MARGINAL_NAMES,
             f"unknown kernel.name {self.kernel_name!r}; expected one of {MARGINAL_NAMES}"),
            (self.out_format not in ("csv", "json"), "out.format must be csv or json"),
            (self.grid_rule not in ("trapezoid", "simpson"),
             "grid.rule must be trapezoid or simpson"),
            (pts != 0 and (pts < 2 or self.grid_rule == "simpson" and pts % 2 == 0),
             "grid.points_per_axis must be 0 (the default) or >= 2, and odd under simpson"),
            (self.seed < 0, "seed must be a nonnegative integer"),
            (self.replications < 1, "replications must be >= 1"),
            (self.objective not in ("l2", "kl"), "objective must be l2 or kl"),
            (not 0.0 <= self.interior_margin < 0.5, "interior.margin must lie in [0, 0.5)"),
            (not all(d > 0 for d in self.deltas), "deltas.list entries must be positive"),
            (self.study == "check-identity"
             and any(b <= a for a, b in zip(self.k_list, self.k_list[1:])),
             "check-identity needs a strictly increasing k.list"),
            (not self.epsilon >= 0, "epsilon must be >= 0"),
            (any(v < 1 for v in (*self.k_list, *self.n_list, *self.N_list)),
             "k.list, n.list and N.list entries must be positive integers"),
            (any(k < 1 for k in self.fit_k_grid), "fit.k_grid entries must be positive integers"),
            (self.means_per_axis < 1, "dictionary.means_per_axis must be >= 1"),
            (self.fit_restarts < 1, "fit.restarts must be >= 1"),
            (self.fit_max_iters < 1, "fit.max_iters must be >= 1"),
            (not (math.isfinite(self.fit_tol) and self.fit_tol >= 0),
             "fit.tol must be a finite number >= 0"),
            (box and not (len(box) == 2 and all(map(math.isfinite, box)) and box[0] <= box[1]),
             "fit.mean_box must be two finite numbers lo, hi with lo <= hi"),
            # mle-risk fits by EM; the sqrt-log schedule divides by log N, and the
            # likelihood bound takes log(N A B e), with A the width of the mean box.
            (mle and self.kernel_name not in EM_MARGINALS,
             f"mle-risk fits by EM, which needs kernel.name in {EM_MARGINALS}"),
            (mle and any(N < 2 for N in self.N_list), "N.list entries must be >= 2 for mle-risk"),
            (mle and any(n > N for n in self.n_list for N in self.N_list),
             "mle-risk needs n <= N in every cell of n.list x N.list"),
            (mle and not 1 <= self.heldout_n <= self.heldout_N,
             "mle-risk needs 1 <= heldout.n <= heldout.N"),
            (mle and len(box) == 2 and box[0] == box[1],
             "mle-risk needs a fit.mean_box of positive width"),
        ):
            if bad:
                raise ConfigError(message)
        needs = {
            "conv-rate": ("k_list",),
            "check-identity": ("k_list", "deltas"),
            "mix-rate": ("k_list", "n_list"),
            "mle-risk": ("n_list", "N_list", "fit_k_grid"),
            "bounds": ("k_list", "n_list", "N_list"),
        }[self.study]
        for name in needs:
            if not getattr(self, name):
                raise ConfigError(f"study {self.study!r} needs a nonempty {name}")
        return self


_KEYS = {
    "study": ("study", str),
    "density.name": ("density_name", str),
    "density.dim": ("density_dim", int),
    "kernel.name": ("kernel_name", str),
    "grid.points_per_axis": ("grid_points_per_axis", int),
    "grid.rule": ("grid_rule", str),
    "k.list": ("k_list", _int_list),
    "n.list": ("n_list", _int_list),
    "N.list": ("N_list", _int_list),
    "deltas.list": ("deltas", _float_list),
    "replications": ("replications", int),
    "epsilon": ("epsilon", float),
    "seed": ("seed", int),
    "out.path": ("out_path", str),
    "out.format": ("out_format", str),
    "strict": ("strict", lambda v: v.lower() in ("1", "true", "yes")),
    "interior.margin": ("interior_margin", float),
    "objective": ("objective", str),
    "dictionary.means_per_axis": ("means_per_axis", int),
    "fit.k_grid": ("fit_k_grid", _int_list),
    "fit.restarts": ("fit_restarts", int),
    "fit.max_iters": ("fit_max_iters", int),
    "fit.tol": ("fit_tol", float),
    "fit.mean_box": ("fit_mean_box", _float_list),
    "heldout.n": ("heldout_n", int),
    "heldout.N": ("heldout_N", int),
}


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """The config in `text`, with `overrides` (ExperimentConfig field names)
    replacing its values before validation."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, conv = _KEYS[key]
        try:
            values[attr] = conv(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**{**values, **overrides}).validate()


def load_config(path, **overrides) -> ExperimentConfig:
    """The config file at `path`, with `overrides` applied before validation;
    a file that cannot be read as text is a ConfigError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    return parse_config_text(text, **overrides)
