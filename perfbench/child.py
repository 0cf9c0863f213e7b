"""One benchmark pass in a fresh process: run each study through the CLI.

    python3 child.py PLAN.json EVENTS.jsonl

PLAN holds ``mode`` ("pass", "traced" or "probe"), ``start`` (index of the
first study to run) and ``studies`` ([label, study, config path, report
path] per study).  Progress goes to EVENTS as one JSON object per line,
flushed before and after each study, so the driver can tell which study a
killed process was running.  A probe stops at the first study call: it
measures set-up alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


class _Probe(Exception):
    pass


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """High-water resident set of this process since exec, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(plan_path: str, events_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    mode = plan["mode"]

    from mixapprox import cli
    from spans import TRACED, UNTRACED, Recorder

    recorder = Recorder()
    recorder.install(TRACED if mode == "traced" else UNTRACED)

    start_marks = []
    run_study = cli.run_study

    def first_call_marker(cfg):
        if not start_marks:
            start_marks.append((time.perf_counter(), _cpu()))
            if mode == "probe":
                raise _Probe
        return run_study(cfg)

    cli.run_study = first_call_marker

    with open(events_path, "a") as events:
        def emit(**event):
            events.write(json.dumps(event) + "\n")
            events.flush()

        for i in range(plan["start"], len(plan["studies"])):
            label, study, config_path, report_path = plan["studies"][i]
            emit(event="begin", i=i, t=time.perf_counter())
            fits_before = len(recorder.mle_fits)
            error = None
            try:
                code = cli.main([study, "--config", config_path, "--out", report_path])
                if code != 0:
                    error = f"exit code {code}"
            except _Probe:
                emit(event="probe", t=start_marks[0][0], env=_environment())
                return 0
            except Exception as exc:  # the driver counts the study as failed and goes on
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            emit(event="end", i=i, t=time.perf_counter(), error=error,
                 mle_fits=recorder.mle_fits[fits_before:])

        t_end, cpu_end = time.perf_counter(), _cpu()
        t_start, cpu_start = start_marks[0] if start_marks else (t_end, cpu_end)
        emit(event="done", t_start=t_start, t_end=t_end, cpu_s=cpu_end - cpu_start,
             rss_mb=_peak_rss_mb(), trace=recorder.dump() if mode == "traced" else None)
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
