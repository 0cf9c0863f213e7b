"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, `#` comments.  Keys
use dotted names (`density.name`, `grid.points_per_axis`, ...); list values
are comma separated, and `strict` takes 1/0, true/false or yes/no in any case.
Unknown keys and unparsable values are rejected so typos fail loudly.

Each `ExperimentConfig` field declares its key and its parser, and the key
table is derived from the fields, so a new setting is one line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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


def _flag(raw: str) -> bool:
    value = raw.lower()
    if value not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"expected 1, 0, true, false, yes or no, got {raw!r}")
    return value in ("1", "true", "yes")


def _key(key: str, parse, default):
    """A config field read from the file's `key` line by `parse`."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one study run, one field per config key."""
    study: str = _key("study", str, "conv-rate")
    density_name: str = _key("density.name", str, "tent")
    density_dim: int = _key("density.dim", int, 1)
    kernel_name: str = _key("kernel.name", str, "gaussian")
    grid_points_per_axis: int = _key("grid.points_per_axis", int, 0)   # 0: per-dim default
    grid_rule: str = _key("grid.rule", str, "simpson")
    k_list: tuple = _key("k.list", _int_list, (2, 4, 8, 16, 32))
    n_list: tuple = _key("n.list", _int_list, (1, 2, 4, 8, 16, 32))
    N_list: tuple = _key("N.list", _int_list, (250, 1000, 4000))
    deltas: tuple = _key("deltas.list", _float_list, (0.25, 0.5, 1.0))
    replications: int = _key("replications", int, 20)
    epsilon: float = _key("epsilon", float, 0.01)
    seed: int = _key("seed", int, 20240801)
    out_path: str = _key("out.path", str, "")
    out_format: str = _key("out.format", str, "csv")
    strict: bool = _key("strict", _flag, False)
    interior_margin: float = _key("interior.margin", float, 0.1)
    objective: str = _key("objective", str, "l2")
    means_per_axis: int = _key("dictionary.means_per_axis", int, 257)
    fit_k_grid: tuple = _key("fit.k_grid", _int_list, (4, 8, 16))
    fit_restarts: int = _key("fit.restarts", int, 1)
    fit_max_iters: int = _key("fit.max_iters", int, 500)
    fit_tol: float = _key("fit.tol", float, 1e-8)
    fit_mean_box: tuple = _key("fit.mean_box", _float_list, ())   # empty: density support
    heldout_n: int = _key("heldout.n", int, 8)
    heldout_N: int = _key("heldout.N", int, 2000)

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


_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


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
        f = _KEYS[key]
        try:
            values[f.name] = f.metadata["parse"](val)
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
