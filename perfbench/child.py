"""One benchmark run, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py MODE WORKLOAD SEED WORKDIR SPAWNED_AT [SPANS]

MODE is ``run`` (set up, then run the jobs through ``atrs.cli.main`` with
``--json``), ``setup`` (set up only) or ``trace`` (set up and run the jobs
through the library with spans, written to SPANS at the end).  SEED fixes
the job order.  SPAWNED_AT
is the CLOCK_MONOTONIC reading taken by the parent just before it started
this process, so set-up time includes interpreter start and imports.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import atrs
from atrs import cli

import probes
from expected import verdict
from jobs import WORKLOADS


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _emit_inputs(workload, work: str) -> None:
    """Write the workload's input files with ``atrs uncurry --emit``."""
    for source, emit, out in workload.emits:
        code, text = _cli(["uncurry", source, "--emit", emit])
        if code != 0:
            raise RuntimeError(f"atrs uncurry {source} --emit {emit} exited {code}")
        with open(os.path.join(work, out), "w", encoding="utf-8") as handle:
            handle.write(text)


def _run_cli(workload, seed: int, work: str, spawned: float) -> dict:
    _emit_inputs(workload, work)
    at_start = probes.state_at_start()
    setup_s = _monotonic() - spawned
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outputs = []
    for task in workload.ordered_tasks(seed):
        for job in task:
            began, cpu_began = time.perf_counter(), time.process_time()
            try:
                code, text = _cli(job.argv(work))
                error = None
            except Exception as e:  # a crash is a failed job, not a lost run
                code, text, error = None, "", f"{type(e).__name__}: {e}"
            times = (time.perf_counter() - began, time.process_time() - cpu_began)
            if job.saves is not None and code == 0:
                tmi = json.loads(text)["data"]["tmi"]
                with open(os.path.join(work, job.saves), "w",
                          encoding="utf-8") as handle:
                    handle.write(tmi)
            outputs.append((job, code, text, error, times))
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    jobs = []
    for job, code, text, error, (job_wall, job_cpu) in outputs:
        got = None
        if error is None:
            try:
                got = verdict(job.command, json.loads(text))
            except (ValueError, KeyError, TypeError) as e:
                error = f"unreadable report: {type(e).__name__}: {e}"
        jobs.append({"key": job.key, "exit": code, "verdict": got, "error": error,
                     "wall_s": job_wall, "cpu_s": job_cpu})
    return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
            "peak_rss_mb": _peak_rss_mb(), "at_start": at_start, "jobs": jobs}


def _run_traced(workload, seed: int, work: str, spawned: float,
                spans_path: str) -> dict:
    from replay import Replay
    from spans import Tracer, self_times

    tracer = Tracer(f"{workload.name}:seed{seed}:pid{os.getpid()}")
    replay = Replay(tracer, work)
    with tracer.span("setup"):
        for source, emit, out in workload.emits:
            replay.emit(source, emit, out)
    at_start = probes.state_at_start()
    setup_s = _monotonic() - spawned
    wall0, cpu0 = time.perf_counter(), time.process_time()
    jobs = []
    for task in workload.ordered_tasks(seed):
        for job in task:
            try:
                got, error = replay.run(job), None
            except Exception as e:  # a crash is a failed job, not a lost run
                got, error = None, f"{type(e).__name__}: {e}"
            jobs.append({"key": job.key, "exit": None, "verdict": got,
                         "error": error})
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    tracer.write(spans_path)
    counters = {
        "complexity.terms_enumerated": {"value": replay.terms_enumerated},
        "oracles.instances_checked": {"value": replay.instances_checked},
        "rewriting.terms_explored": probes.terms_explored(replay.searches),
        "rewriting.step_cache_hits": probes.step_cache_hits(),
        "rewriting.step_cache_misses": probes.step_cache_misses(),
        "terms.interned": probes.interned(),
    }
    return {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
            "peak_rss_mb": _peak_rss_mb(), "at_start": at_start, "jobs": jobs,
            "self_s": self_times(tracer.spans), "counters": counters}


def main(argv: list[str]) -> int:
    mode, name, seed, work, spawned = argv[:5]
    if not os.path.realpath(atrs.__file__).startswith(
            os.path.realpath("src") + os.sep):
        print(f"error: atrs imported from {atrs.__file__}, not from ./src",
              file=sys.stderr)
        return 2
    workload, seed, spawned = WORKLOADS[name], int(seed), float(spawned)
    if mode == "setup":
        _emit_inputs(workload, work)
        result = {"setup_s": _monotonic() - spawned}
    elif mode == "run":
        result = _run_cli(workload, seed, work, spawned)
    else:
        result = _run_traced(workload, seed, work, spawned, argv[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
