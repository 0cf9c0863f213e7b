"""Command line entry point.

    mixapprox <study> --config <file> [--seed S] [--out PATH]
              [--format csv|json] [--strict]

Exit codes: 0 success, 2 configuration error or a report that cannot be
written, 3 domination-check failure under --strict (the option or the
config's `strict` setting).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .config import STUDIES, ConfigError, load_config
from .harness import emit_report, run_study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixapprox",
        description="Mixture approximation studies and bound checks.",
    )
    parser.add_argument("study", choices=STUDIES, help="study to run")
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", dest="out_path", metavar="OUT", default=None,
                        help="override output path")
    parser.add_argument("--format", dest="out_format", choices=("csv", "json"), default=None,
                        help="override output format")
    parser.add_argument("--strict", action="store_const", const=True, default=None,
                        help="exit 3 when any domination check fails")
    return parser


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    # Every option but --config is named after the config field it overrides.
    args = vars(build_parser().parse_args(argv))
    config_path = args.pop("config")
    overrides = {name: value for name, value in args.items() if value is not None}
    try:
        cfg = load_config(config_path, **overrides)
    except ConfigError as exc:
        return _error(exc)

    # The report's directory is made and checked before the study runs,
    # which can take minutes.
    out_path = cfg.out_path or f"{cfg.study}.{cfg.out_format}"
    out_dir = Path(out_path).parent
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if not os.access(out_dir, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(out_dir))
    except OSError as exc:
        return _error(f"cannot write report {out_path!r}: {exc}")
    try:
        result = run_study(cfg)
    except ConfigError as exc:
        return _error(exc)
    try:
        emit_report(result, out_path, cfg.out_format)
    except OSError as exc:
        return _error(f"cannot write report {out_path!r}: {exc}")
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    failed = [b for b in result.bound_reports if not b.dominated]
    if failed:
        for b in failed:
            print(f"domination failed: {b.bound_name} measured={b.measured:.6g} "
                  f"rhs={b.rhs:.6g} {b.inputs}", file=sys.stderr)
        if cfg.strict:
            return 3
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
