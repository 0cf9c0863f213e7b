"""Record the reference values the benchmark checks reports against.

    python3 perfbench/record.py [--seeds 0-10,20240801]

Runs one untraced pass of every workload per seed and writes
`perfbench/reference.json`:

- ``studies[label].keys``: the report's row set (every column but value
  and seed); it must not depend on the seed.
- ``studies[label].values``: rows of quadrature-only studies whose value is
  the same at every recorded seed.
- ``seeds[seed][label]``: the seed-dependent rows of quadrature studies
  (``values``) and the log-likelihood of every best fit ``mle_fit`` returned,
  in call order (``best_ll``).

Re-record only when a change is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import run
from workloads import QUADRATURE_STUDIES, WORKLOADS


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=f"0-10,{run.DEFAULT_SEED}")
    seeds = parse_seeds(parser.parse_args().seeds)

    rows: dict = {}      # label -> seed -> {key: value}
    fits: dict = {}      # seed -> label -> [best-fit log-likelihoods]
    study_of: dict = {}
    for seed in seeds:
        for workload in WORKLOADS:
            studies = run.prepare(workload, seed)
            result = run.run_pass(run.with_reports(studies, "pass0"), "pass", "pass0",
                                  time.perf_counter() + 600.0)
            for (label, study, _, report), res in zip(result["studies"], result["results"]):
                if res["error"]:
                    raise SystemExit(f"seed {seed} {label}: {res['error']}")
                study_of[label] = study
                rows.setdefault(label, {})[seed] = run.read_report(Path(report))
                if res["mle_fits"]:
                    fits.setdefault(seed, {})[label] = [f[0] for f in res["mle_fits"]]
            best = [f for res in result["results"] for f in res["mle_fits"]]
            print(f"seed {seed} {workload}: {result['wall_s']:.2f} s, "
                  f"{sum(f[1] for f in best)}/{len(best)} best fits converged", flush=True)

    reference = {"studies": {}, "seeds": {str(s): {} for s in seeds}}
    for label, by_seed in rows.items():
        key_sets = {tuple(sorted(r)) for r in by_seed.values()}
        if len(key_sets) != 1:
            raise SystemExit(f"{label}: the row set depends on the seed")
        keys = sorted(key_sets.pop())
        fixed, varying = {}, []
        if study_of[label] in QUADRATURE_STUDIES:
            for key in keys:
                values = {repr(r[key]) for r in by_seed.values()}
                if len(values) == 1:
                    fixed[key] = by_seed[seeds[0]][key]
                else:
                    varying.append(key)
        reference["studies"][label] = {"keys": keys, "values": fixed}
        for seed in seeds:
            entry = {}
            if varying:
                entry["values"] = {key: by_seed[seed][key] for key in varying}
            if label in fits.get(seed, {}):
                entry["best_ll"] = fits[seed][label]
            if entry:
                reference["seeds"][str(seed)][label] = entry
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
