"""mixapprox benchmark driver.

    python3 perfbench/run.py --workload estimate-1d|reduce-2d|smooth-nd|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
`src/`.  Each pass runs the workload's studies through `mixapprox.cli.main`
in a fresh child process, one pass at a time.  `--trace 0` repeats passes
for about `--seconds` and reports the end-to-end metrics; `--trace 1` runs
one untraced and one traced pass and reports the per-layer metrics.  Every
report is checked (see README.md); the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, QUADRATURE_STUDIES, WORKLOADS, config_text, study_of  # noqa: E402

BLAS_THREADS = 1        # single-threaded baseline; see README.md for the evidence
SETUP_PROBES = 3        # extra set-up-only children per run, for the setup_s median
DEADLINE_S = 165.0      # whole run, so the benchmark ends within 180 s
REL_TOL = 1e-9          # quadrature studies against the stored references
LL_REL_TOL = 1e-6       # best-fit log-likelihood may not fall further below its reference
WORK = HERE / ".work"

# Metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- children

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # Set-up compiles the package from source on every run, whatever the
    # caller's setting, so setup_s does not depend on a bytecode cache.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(plan: dict, tag: str, deadline: float) -> dict:
    """Start child.py on a plan, wait for it and return its events and usage."""
    plan_path, events_path = WORK / f"{tag}.plan.json", WORK / f"{tag}.events.jsonl"
    plan_path.write_text(json.dumps(plan))
    with open(WORK / f"{tag}.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path), str(events_path)],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    events = []
    if events_path.exists():
        events = [json.loads(line) for line in events_path.read_text().splitlines() if line]
    return {"t0": t0, "code": proc.returncode, "usage": usage, "events": events}


def probe(studies: list, tag: str, deadline: float) -> dict:
    """Set-up time of a child that stops at its first study call."""
    res = run_child({"mode": "probe", "start": 0, "studies": studies}, tag, deadline)
    hit = [e for e in res["events"] if e["event"] == "probe"]
    if res["code"] != 0 or not hit:
        log = (WORK / f"{tag}.log").read_text()[-2000:]
        raise RuntimeError(f"set-up probe failed (exit {res['code']}):\n{log}")
    return {"setup_s": hit[0]["t"] - res["t0"], "env": hit[0].get("env")}


def run_pass(studies: list, mode: str, tag: str, deadline: float) -> dict:
    """One pass over the studies; a child that dies fails only its current study."""
    results, wall, cpu, rss, setup, trace, window = {}, 0.0, 0.0, 0.0, None, None, None
    start = 0
    while start < len(studies):
        if time.perf_counter() >= deadline:
            for i in range(start, len(studies)):
                results[i] = {"error": "not started: run deadline reached", "mle_fits": []}
            break
        res = run_child({"mode": mode, "start": start, "studies": studies},
                        f"{tag}.{start}", deadline)
        ends = {e["i"]: e for e in res["events"] if e["event"] == "end"}
        begins = [e for e in res["events"] if e["event"] == "begin"]
        done = [e for e in res["events"] if e["event"] == "done"]
        for i, e in ends.items():
            results[i] = {"error": e["error"], "mle_fits": e["mle_fits"]}
        if done:
            d = done[0]
            if setup is None and start == 0:
                setup = d["t_start"] - res["t0"]
            wall += d["t_end"] - d["t_start"]
            cpu += d["cpu_s"]
            rss = max(rss, d["rss_mb"])
            trace, window = d["trace"], (d["t_start"], d["t_end"])
            break
        # The child died: charge the study it was running and go on after it.
        # Its rusage peak also counts this process's resident set at exec.
        rss = max(rss, res["usage"].ru_maxrss / 1024.0)
        last = begins[-1]["i"] if begins else start
        how = f"killed by signal {-res['code']}" if res["code"] < 0 else f"exited with {res['code']}"
        results[last] = {"error": f"child {how} during the study", "mle_fits": []}
        if begins:
            wall += time.perf_counter() - begins[0]["t"]
        cpu += res["usage"].ru_utime + res["usage"].ru_stime
        start = last + 1
    return {"studies": studies, "results": [results[i] for i in range(len(studies))],
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "setup_s": setup,
            "trace": trace, "window": window}


# ---------------------------------------------------------------- checks

def read_report(path: Path) -> dict:
    """Report rows keyed by everything but the seed column."""
    rows = {}
    lines = path.read_text().splitlines()
    for line in lines[1:]:
        _, axis, axis_value, replication, _, metric, value = line.split(",")
        rows["|".join((axis, axis_value, replication, metric))] = float(value)
    return rows


def close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=REL_TOL, abs_tol=1e-15)


def check_study(label: str, study: str, report: Path, fits: list, seed: int,
                reference: dict) -> str | None:
    """None when the report passes every stored check, else the reason."""
    ref = reference["studies"][label]
    at_seed = reference["seeds"].get(str(seed), {}).get(label, {})
    rows = read_report(report)
    if sorted(rows) != ref["keys"]:
        return "report row set differs from the reference"
    if study in QUADRATURE_STUDIES:
        expected = dict(ref["values"], **at_seed.get("values", {}))
        for key, value in rows.items():
            if key in expected and not close(value, expected[key]):
                return f"{key} = {value!r}, reference {expected[key]!r}"
            if key not in expected and not math.isfinite(value):
                return f"{key} = {value!r} is not finite"
    elif not all(math.isfinite(v) for v in rows.values()):
        return "report holds a non-finite value"
    best = at_seed.get("best_ll")
    if best is not None:
        if len(best) != len(fits):
            return f"{len(fits)} best fits, reference has {len(best)}"
        for (ll, _, _), ref_ll in zip(fits, best):
            if ll < ref_ll - LL_REL_TOL * max(1.0, abs(ref_ll)):
                return f"best-fit log-likelihood {ll!r} below reference {ref_ll!r}"
    return None


def check_passes(studies: list, passes: list, seed: int, reference: dict) -> list:
    """Per study attempt, None or the reason it failed; reports must repeat."""
    failures = []
    first_bytes: dict = {}
    for p in passes:
        for (label, study, _, report), res in zip(p["studies"], p["results"]):
            error = res["error"]
            path = Path(report)
            if error is None:
                error = check_study(label, study, path, res["mle_fits"], seed, reference)
            if error is None:
                data = path.read_bytes()
                if first_bytes.setdefault(label, data) != data:
                    error = "report bytes differ from an earlier pass"
            failures.append(f"{label}: {error}" if error else None)
    return failures


# ---------------------------------------------------------------- metrics

def percentile(values: list, q: float) -> float:
    """Linear-interpolated quantile q of the values."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ten_beyond_quantile(n: int) -> float:
    """Highest quantile with at least ten of n samples beyond it, floored at
    the median: below 20 samples no higher quantile qualifies."""
    return max(0.5, 1.0 - 10.0 / n)


def end_to_end(passes: list, setups: list, failures: list) -> dict:
    walls = [p["wall_s"] for p in passes]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_s_hi": percentile(walls, ten_beyond_quantile(len(walls))),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": 1.0 - sum(f is not None for f in failures) / len(failures),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["end_to_end"]}


def per_layer(trace: dict, window: tuple, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced pass's span tree and counts."""
    names, spans = trace["names"], trace["spans"]
    inner = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            inner[parent] += t1 - t0
    agg = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
    covered = 0.0
    for (name_id, t0, t1, _), child_s in zip(spans, inner):
        a = agg[names[name_id]]
        a["calls"] += 1
        a["self_s"] += (t1 - t0) - child_s
        a["total_s"] += t1 - t0
        if t0 >= window[0]:
            covered += (t1 - t0) - child_s
    for name, counts in trace["counts"].items():
        agg[name].update(counts)

    def ratio(num, den):
        return num / den if den else 0.0

    em, conv = agg["mixtures.em_fit"], agg["grids.convolve"]
    fits = agg["mixtures.mle_fit"].get("fits", [])
    traced_wall = window[1] - window[0]
    derived = {
        "mixtures.em_fit.converged_ratio": ratio(em.get("converged", 0), em["calls"]),
        "mixtures.em_fit.ms_per_iter": ratio(1e3 * em["total_s"], em.get("iterations", 0)),
        "mixtures.mle_fit.converged_ratio": ratio(sum(f[1] for f in fits), len(fits)),
        "mixtures.mle_fit.k_at_grid_edge_ratio": ratio(sum(f[2] for f in fits), len(fits)),
        "grids.convolve.useful_ratio": ratio(conv.get("in_points", 0), conv.get("out_points", 0)),
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
        "trace.coverage_ratio": ratio(covered, traced_wall),
    }
    out = {}
    for m in SPEC["per_layer"]:
        name, _, measure = m["name"].rpartition(".")
        value = derived[m["name"]] if m["name"] in derived else agg[name].get(measure, 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


# ---------------------------------------------------------------- driver

def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "blas_threads": BLAS_THREADS}


def prepare(workload: str, seed: int) -> list:
    """Write the workload's configs; return [label, study, config, report] rows."""
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "configs").mkdir(parents=True)
    studies = []
    for label, text in WORKLOADS[workload]:
        path = WORK / "configs" / f"{label}.cfg"
        path.write_text(config_text(text, seed))
        studies.append([label, study_of(text), str(path), ""])
    return studies


def with_reports(studies: list, tag: str) -> list:
    return [[label, study, cfg, str(WORK / tag / f"{label}.csv")]
            for label, study, cfg, _ in studies]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    studies = prepare(workload, seed)
    reference = json.loads((HERE / "reference.json").read_text())
    # Untimed warm-up: fills the OS file cache.
    env = probe(studies, "warmup", deadline)["env"]
    setups = [probe(studies, f"probe{i}", deadline)["setup_s"] for i in range(SETUP_PROBES)]

    passes = []
    began = time.perf_counter()
    if trace:
        passes.append(run_pass(with_reports(studies, "pass0"), "pass", "pass0", deadline))
        passes.append(run_pass(with_reports(studies, "pass1"), "traced", "pass1", deadline))
    else:
        # Repeat passes while the next one is expected to end within --seconds.
        while True:
            tag = f"pass{len(passes)}"
            passes.append(run_pass(with_reports(studies, tag), "pass", tag, deadline))
            elapsed = time.perf_counter() - began
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
            if time.perf_counter() > deadline - 2 * elapsed / len(passes):
                break
    setups += [p["setup_s"] for p in passes if p["setup_s"] is not None]
    failures = check_passes(studies, passes, seed, reference)

    if trace:
        traced = passes[1]
        if traced["trace"] is None:
            raise RuntimeError("the traced pass did not finish")
        metrics = per_layer(traced["trace"], traced["window"], passes[0]["wall_s"])
    else:
        metrics = end_to_end(passes, setups, failures)
    return {"workload": workload, "seed": seed, "passes": len(passes), "env": dict(machine(), **env),
            "failures": failures, "metrics": metrics,
            "fits": [f for p in passes[:1] for r in p["results"] for f in r["mle_fits"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixapprox" / "__init__.py").is_file():
        print(f"error: no mixapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        runs.append(run)
        print_summary(run)
    attempted = sum(len(r["failures"]) for r in runs)
    failed = sum(f is not None for r in runs for f in r["failures"])
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_summary(run: dict) -> None:
    print(f"# {run['workload']} seed={run['seed']} passes={run['passes']}")
    print(f"# env {json.dumps(run['env'])}")
    for failure in run["failures"]:
        if failure:
            print(f"# FAILED {failure}")
    fails = sum(f is not None for f in run["failures"])
    fits = run["fits"]
    print(f"# fail_ratio={fails}/{len(run['failures'])} "
          f"mle_converged_ratio={sum(f[1] for f in fits)}/{len(fits)}")
    for name, m in run["metrics"].items():
        print(f"{run['workload']:12s} {name:48s} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
