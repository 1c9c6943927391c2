"""Benchmark of the atrs command line on four exact-answer workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload idc-doubling --seed 1 --seconds 30 --trace 0

Every repetition of a workload is a fresh interpreter with PYTHONPATH=src
that sets up its inputs and then runs the workload's jobs through
``atrs.cli.main`` with ``--json``, one after another; repetitions follow
each other, never two at once, until --seconds are spent.  A fresh process
matters: the step tables and term intern tables of atrs are never cleared,
so a warm process would measure a program no user runs.  Every verdict is
compared with the hand-written answers in ``expected.py``.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
repetitions with traced replays (``replay.py``) and prints per-layer self
times, counters and the tracing overhead; the replay must reach the same
verdicts.  ``--workload all`` does both for every workload.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 0 only if every verdict was
right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from expected import EXIT_CODE, mismatch
from jobs import INPUTS, WORKLOADS

WORK_ROOT = ".perfbench_work"
#: Each measurement (one workload, traced or not) ends within this many
#: seconds of its start, whatever its children do.
DEADLINE_S = 170
#: Set-up time is the median of at least this many fresh interpreters.
SETUP_SAMPLES = 9
#: A fresh interpreter holds the terms it parsed and no more before its
#: first job; more means state leaked in from somewhere.
FRESH_INTERNED_LIMIT = 100

LAYER_TIMES = ("parsing.parse", "uncurrying.transform", "complexity.enum",
               "rewriting.height", "rewriting.relative", "tmi.search",
               "tmi.check", "oracles.verify", "cli.report")
COUNTERS = ("complexity.terms_enumerated", "rewriting.terms_explored",
            "rewriting.step_cache_hits", "rewriting.step_cache_misses",
            "terms.interned", "oracles.instances_checked")


class Runner:
    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH="src",
                        PYTHONHASHSEED=str(seed % 2**32))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, mode: str, workload: str,
              spans: str | None = None) -> dict | None:
        """Start one child, wait for it, and return its report (None if it
        crashed or ran out of time)."""
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
        argv = [sys.executable, "perfbench/child.py", mode, workload,
                str(self.seed), work]
        try:
            argv.append(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
            proc = subprocess.run(
                argv + ([spans] if spans else []), env=self.env, text=True,
                capture_output=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} run of {workload} hit the deadline")
            return None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.problems.append(f"{mode} run of {workload} exited "
                                 f"{proc.returncode}: {' | '.join(tail)}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def judge(self, workload: str, report: dict | None,
              reference: dict | None = None) -> bool:
        """Count the run's jobs and its failures: wrong or undecided
        verdicts, crashes, a state that was not fresh, and (for a traced
        run) any verdict that differs from the untraced run's."""
        keys = [job.key for task in WORKLOADS[workload].tasks for job in task]
        self.attempted += len(keys)
        if report is None:
            self.failed += len(keys)
            return False
        stale = _stale(report["at_start"])
        if stale:
            self.problems.append(f"{workload}: not a fresh process: {stale}")
            self.failed += len(keys)
            return False
        untraced = {j["key"]: j["verdict"] for j in (reference or {}).get("jobs", ())}
        bad = 0
        for job in report["jobs"]:
            why = job["error"] or mismatch(job["key"], job["verdict"])
            if why is None and job["exit"] is not None \
                    and job["exit"] != EXIT_CODE[job["verdict"]["status"]]:
                why = f"exit code {job['exit']} for status {job['verdict']['status']}"
            if why is None and reference is not None \
                    and untraced.get(job["key"]) != job["verdict"]:
                why = "traced verdict differs from the untraced run"
            if why is not None:
                self.problems.append(f"{job['key']}: {why}")
                bad += 1
        bad += len(keys) - len(report["jobs"])
        self.failed += bad
        return bad == 0


def _stale(at_start: dict) -> str | None:
    interned = at_start["terms.interned"]["value"]
    tables = at_start["step_tables"]["value"]
    if interned is not None and interned >= FRESH_INTERNED_LIMIT:
        return f"{interned} terms interned before the first job"
    if tables is not None and tables != 0:
        return f"{tables} step-table entries before the first job"
    return None


def _summary(values: list[float]) -> dict:
    return {"value": statistics.median(values), "samples": len(values),
            "median": statistics.median(values), "min": min(values),
            "max": max(values)}


def _quiet_time(reports: list[dict], field: str) -> dict:
    """The run's time on a quiet host: each job's fastest time over the
    repetitions, summed over the jobs.  Every repetition runs the same jobs
    in the same order, so the sum is what one repetition would take if each
    of its jobs met a quiet stretch."""
    per_job = zip(*([job[field] for job in r["jobs"]] for r in reports))
    whole = [r[field] for r in reports]
    return dict(_summary(whole), value=sum(min(times) for times in per_job))


def measure(runner: Runner, workload: str, seconds: int) -> tuple[dict, int]:
    """Untraced repetitions for `seconds`; end-to-end metrics.  Returns the
    metrics and the number of repetitions."""
    good, reps, start = [], 0, time.monotonic()
    while True:
        began = time.monotonic()
        report = runner.spawn("run", workload)
        reps += 1
        if runner.judge(workload, report):
            good.append(report)
        now = time.monotonic()
        if report is None or now - start + (now - began) > seconds:
            break
    setups = [r["setup_s"] for r in good]
    while good and len(setups) < SETUP_SAMPLES:
        report = runner.spawn("setup", workload)
        if report is None:
            break
        setups.append(report["setup_s"])
    if not good:
        return {}, reps
    # Other tenants of the shared host slow this process by up to 80% for
    # stretches of seconds to minutes and never speed it up.  A short job
    # meets a quiet stretch far more often than a whole repetition does, so
    # the fastest time of each job is the steadiest estimate of what the
    # program costs.  Memory is unaffected.
    return {
        "wall_s": dict(_quiet_time(good, "wall_s"), unit="s"),
        "cpu_s": dict(_quiet_time(good, "cpu_s"), unit="s"),
        "setup_s": dict(_summary(setups), unit="s"),
        "peak_rss_mb": dict(_summary([r["peak_rss_mb"] for r in good]),
                            unit="MiB"),
    }, reps


def _counter(readings: list[dict]) -> dict:
    missing = [r for r in readings if r["value"] is None]
    if missing:
        return {"value": None, "unit": "count", "reason": missing[0]["reason"]}
    return dict(_summary([r["value"] for r in readings]), unit="count")


def measure_traced(runner: Runner, workload: str, seconds: int) -> tuple[dict, int]:
    """Untraced and traced repetitions in turn for `seconds`; per-layer
    metrics.  Returns the metrics and the number of pairs."""
    spans = os.path.join(WORK_ROOT, f"spans-{workload}-seed{runner.seed}.json")
    pairs, reps, start = [], 0, time.monotonic()
    while True:
        began = time.monotonic()
        plain = runner.spawn("run", workload)
        plain_ok = runner.judge(workload, plain)
        traced = runner.spawn("trace", workload, spans) if plain_ok else None
        reps += 1
        if plain_ok and runner.judge(workload, traced, reference=plain):
            pairs.append((plain, traced))
        now = time.monotonic()
        if not plain_ok or traced is None or now - start + (now - began) > seconds:
            break
    if not pairs:
        return {}, reps
    metrics = {
        f"{layer}_s": dict(_summary([t["self_s"].get(layer, 0.0) for _, t in pairs]),
                           unit="s")
        for layer in LAYER_TIMES
    }
    for name in COUNTERS:
        metrics[name] = _counter([t["counters"][name] for _, t in pairs])
    metrics["terms.interned_at_start"] = _counter(
        [t["at_start"]["terms.interned"] for _, t in pairs])
    plain_wall = min(p["wall_s"] for p, _ in pairs)
    traced_wall = min(t["wall_s"] for _, t in pairs)
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    return metrics, reps


def _print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        if m["value"] is None:
            print(f"    {name:34} null  ({m['reason']})")
            continue
        spread = ""
        if "samples" in m:
            spread = (f"  n={m['samples']} median {m['median']:.6g} "
                      f"min {m['min']:.6g} max {m['max']:.6g}")
        print(f"    {name:34} {m['value']:.6g} {m['unit']}{spread}")


def _print_tasks(workload: str, seed: int) -> None:
    for i in WORKLOADS[workload].task_order(seed):
        keys = ", ".join(job.key for job in WORKLOADS[workload].tasks[i])
        print(f"  task {i}: {keys}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [path for path in INPUTS if not os.path.isfile(path)]
    if missing:
        print(f"error: run from the root of an atrs checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    everything = args.workload == "all"
    runner = Runner(args.seed)
    modes = [("end to end, untraced repetitions", measure),
             ("per layer, traced replays paired with untraced repetitions",
              measure_traced)]
    if not everything:
        modes = [modes[args.trace]]
    result: dict = {}
    for name in sorted(WORKLOADS) if everything else [args.workload]:
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds}")
        _print_tasks(name, args.seed)
        for title, measure_fn in modes:
            runner.deadline = time.monotonic() + DEADLINE_S
            metrics, reps = measure_fn(runner, name, args.seconds)
            print(f"  {title}: {reps}")
            _print_metrics(metrics)
            prefix = f"{name}." if everything else ""
            for key, m in metrics.items():
                result[prefix + key] = {k: m[k] for k in ("value", "unit", "reason")
                                        if k in m}
    for problem in runner.problems:
        print(f"FAILED {problem}")
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"failed_ratio {ratio:.6g} ({runner.failed} of {runner.attempted} jobs)")
    correct = runner.attempted > 0 and runner.failed == 0 and not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
