#!/usr/bin/env python3
"""Benchmark of the perturbpred command-line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload cv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/selftest.py                    # the benchmark's own checks

One run imports perturbpred from ``src/`` and builds its workload's inputs
from ``--seed`` several times (``setup_s`` is the median).  It then runs the
workload's command list through ``perturbpred.cli.main`` in a closed loop
with one client: once to warm up, then again and again until ``--seconds``
have passed since the warm-up began (and at least twice).  After every
list, outside the timing, each command's outputs are checked against an
oracle (see workloads.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  List times
are given in units of a reference clock (refclock.py) that runs beside the
lists, because the host's speed drifts; the raw seconds are printed too.
``--trace 1`` alternates untraced and traced lists and reports the per-layer
metrics of tracing.py, plus the tracing overhead: traced minus untraced list
wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
from refclock import RefClock, steal_seconds
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 15  # set-up takes 0.04-0.5 s; the median of many steadies it
MIN_LISTS = 2

# (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = (("wall_ref", "ref"), ("cpu_ref", "ref"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here."""


def fresh_import():
    """Import perturbpred from src/ anew, dropping any earlier import."""
    init = os.path.join(SRC, "perturbpred", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no perturbpred sources at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "perturbpred" or n.startswith("perturbpred.")]:
        del sys.modules[name]
    cli = importlib.import_module("perturbpred.cli")
    if not os.path.samefile(sys.modules["perturbpred"].__file__, init):
        raise BenchError(f"perturbpred imported from {sys.modules['perturbpred'].__file__}")
    return cli


def call_cli(argv):
    """One CLI command through the currently imported perturbpred.cli.main."""
    try:
        return sys.modules["perturbpred.cli"].main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SettingsLog(logging.Handler):
    """Collects the --jobs value each cv command resolved, from the CLI's log."""

    def __init__(self):
        super().__init__()
        self.jobs = set()

    def emit(self, record):
        if record.msg.startswith("command %s settings") and record.args[0] == "cv":
            self.jobs.add(json.loads(record.args[1])["jobs"])


class Runner:
    """Runs command lists, checks their outputs and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.quality = []  # one combined figure per list whose checks all passed

    def run_list(self, commands, tracer=None):
        """Run every command once; return (start, wall seconds, CPU seconds,
        steal seconds)."""
        if tracer is not None:
            tracer.install()
        try:
            steal0 = steal_seconds()
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            codes = [call_cli(cmd.argv) for cmd in commands]
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            steal = steal_seconds() - steal0
        finally:
            if tracer is not None:
                tracer.uninstall()
        figures = []
        for cmd, code in zip(commands, codes):
            self.attempted += 1
            try:
                if code != 0:
                    raise RuntimeError(f"exited with code {code}")
                figures.append(cmd.check())
            except Exception as exc:
                self.failed += 1
                print(f"FAILED {cmd.label}: {exc}", file=sys.stderr)
        if self.workload.quality and len(figures) == len(commands):
            self.quality.append(self.workload.combine(figures))
        return t0, wall, cpu, steal


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def _tail_note(samples, unit):
    tail = tail_percentile(samples)
    if tail is None:
        return "no percentile has 10 lists above it (needs 11)"
    return f"p{tail[0]:.0f} {tail[1]:.4g} {unit}"


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(jobs):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the layout of numpy's build report varies by version
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "cv_jobs_resolved": sorted(jobs),
        "commit": _git_commit(),
    }


def set_up(workload, seed, base):
    """Build the inputs SETUP_REPEATS times, each after a fresh import.

    Returns the last set-up's command list and every set-up's duration.
    """
    times = []
    for k in range(SETUP_REPEATS):
        work = os.path.join(base, f"setup-{k}")
        t0 = time.perf_counter()
        fresh_import()
        commands = workload.setup(call_cli, seed, work)
        times.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(work)
    return commands, times


def simulate_seconds(workload, seed, base):
    """Time in the simulate layer during one traced set-up."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup(call_cli, seed, os.path.join(base, "setup-traced"))
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.take())["simulate.s"]


def measure(runner, commands, seconds, trace):
    """Warm up, then time lists until ``seconds`` have passed since the warm-up
    began.  Without ``trace`` the reference clock runs throughout; with it
    each untraced list is followed by a traced one.

    Returns (untraced walls, untraced CPU times, the untraced lists in
    reference units or None, traced walls, per-layer metrics of each traced
    list).
    """
    clock = None if trace else RefClock()
    deadline = time.perf_counter() + seconds
    starts, walls, cpus, steals, traced_walls, layers = [], [], [], [], [], []
    if clock:
        clock.start()
    try:
        runner.run_list(commands)  # warm-up: checked, inside the run, but not timed
        while True:
            start, wall, cpu, steal = runner.run_list(commands)
            starts.append(start)
            walls.append(wall)
            cpus.append(cpu)
            steals.append(steal)
            if trace:
                tracer = tracing.Tracer()
                _, wall, _, _ = runner.run_list(commands, tracer)
                traced_walls.append(wall)
                layers.append(tracing.layer_metrics(tracer.take()))
            if time.perf_counter() >= deadline and len(walls) >= MIN_LISTS:
                break
    finally:
        if clock:
            clock.stop()
    if not clock:
        return walls, cpus, None, traced_walls, layers
    readings = [clock.reading(t0, t0 + w, w, c, st)
                for t0, w, c, st in zip(starts, walls, cpus, steals)]
    return walls, cpus, readings, traced_walls, layers


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    settings = SettingsLog()
    logging.getLogger("perturbpred").addHandler(settings)
    base = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    try:
        commands, setup_times = set_up(workload, seed, base)
        simulate_s = simulate_seconds(workload, seed, base) if trace else 0.0
        runner = Runner(workload)
        walls, cpus, readings, traced_walls, layers = measure(runner, commands, seconds, trace)
    finally:
        logging.getLogger("perturbpred").removeHandler(settings)
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    print(f"perfbench {name}: seed {seed}, {len(walls)} timed lists of {len(commands)} "
          f"command(s) after 1 warm-up, closed loop, 1 client, trace {int(trace)}")
    if trace:
        metrics = {}
        for metric, unit, _ in tracing.PER_LAYER:
            if metric == "trace.overhead_s":
                value = statistics.median(traced_walls) - statistics.median(walls)
            elif metric == "simulate.s":
                value = simulate_s
            else:
                value = statistics.median(sample[metric] for sample in layers)
            metrics[metric] = {"value": value, "unit": unit}
            print(f"  {metric:28s} {value:<14.6g} {unit}")
        print(f"  (median of {len(layers)} traced lists; untraced wall_s "
              f"{statistics.median(walls):.4g} s, traced {statistics.median(traced_walls):.4g} s)")
    else:
        ref_walls = [r.wall for r in readings]
        rows = (
            ("wall_ref", statistics.median(ref_walls),
             f"median of {len(walls)} lists; {_tail_note(ref_walls, 'ref')}"),
            ("cpu_ref", statistics.median(r.cpu for r in readings),
             f"median of {len(cpus)} lists, user+sys of the process and children"),
            ("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "ru_maxrss of this process"),
            ("setup_s", statistics.median(setup_times),
             f"median of {len(setup_times)} set-ups (import + inputs)"),
        )
        units = dict(END_TO_END)
        metrics = {m: {"value": value, "unit": units[m]} for m, value, _ in rows}
        for m, value, note in rows:
            print(f"  {m:14s} {value:<12.6g} {units[m]:4s} {note}")
        print(f"  {'ref':14s} {statistics.median(r.wall_unit for r in readings) * 1e6:<12.6g} "
              f"us   median wall time of one reference unit; CPU "
              f"{statistics.median(r.cpu_unit for r in readings) * 1e6:.6g} us")
        print(f"  {'wall_s':14s} {statistics.median(walls):<12.6g} s    (printed only) "
              f"median of {len(walls)} lists; {_tail_note(walls, 's')}")
        print(f"  {'cpu_s':14s} {statistics.median(cpus):<12.6g} s    (printed only) "
              f"median of {len(cpus)} lists")
        print(f"  {'steal_s':14s} {statistics.median(r.steal for r in readings):<12.6g} s    "
              f"(printed only) median of {len(readings)} lists, left out of wall_ref")
        print("  wall_s of each list: " + " ".join(f"{w:.4g}" for w in walls))
        print("  wall_ref of each list: " + " ".join(f"{w:.4g}" for w in ref_walls))
        if workload.quality:
            q = statistics.median(runner.quality) if runner.quality else float("nan")
            print(f"  {workload.quality:14s} {q:<12.10g} 1    (printed only: "
                  f"{len(runner.quality)} lists with every check passed)")
    print(f"  {'failed_frac':14s} {runner.failed / runner.attempted:<12.6g} 1    "
          f"{runner.failed} of {runner.attempted} commands failed")
    print("env " + json.dumps(environment(settings.jobs), sort_keys=True))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(args):
    """Every workload in a process of its own, so each peak RSS is its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {name} exited {proc.returncode} without a result")
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:
        # no result line: the run is void
        traceback.print_exc()
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
