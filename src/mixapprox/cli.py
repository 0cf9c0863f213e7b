"""Command line entry point.

    mixapprox <study> --config <file> [--seed S] [--out PATH]
              [--format csv|json] [--strict]

Exit codes: 0 success, 2 configuration error, 3 domination-check failure
under --strict.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import STUDIES, ConfigError, _parse_unvalidated
from .harness import emit_report, run_study


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixapprox",
        description="Mixture approximation studies and bound checks.",
    )
    parser.add_argument("study", choices=STUDIES, help="study to run")
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override output format")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 when any domination check fails")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _parse_unvalidated(Path(args.config).read_text())
        overrides = {"study": args.study}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_path"] = args.out
        if args.format is not None:
            overrides["out_format"] = args.format
        if args.strict:
            overrides["strict"] = True
        cfg = replace(cfg, **overrides).validate()
        result = run_study(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_path = cfg.out_path or f"{cfg.study}.{cfg.out_format}"
    emit_report(result, out_path, cfg.out_format)
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
