"""A reference clock: fixed kernels timed again and again while lists run.

The benchmark's CPUs are shared with other work on the same host, so the
same command list can take 1.6 s in one minute and 3.1 s in the next, and
its CPU time mostly swings with it: the cores run slower.  A list's time
therefore says as much about the host as about the program.

``RefClock`` interrupts the main thread every ``PERIOD`` seconds (SIGALRM)
and runs one of two small kernels of the benchmark's own, alternating: one
does small numpy linear algebra and interpreter arithmetic, the other parses
and formats numbers as CSV code does.  The kernels never change with the
program, so their duration at a moment measures how fast the host runs at
that moment.  A list's time in reference units is its time, less the
kernels run inside it, divided by the kernels' duration around it; a slower
host lengthens both and the ratio stays.  The host also stops this machine's
CPUs now and then (steal time in /proc/stat); a list's wall time is counted
less that, because the trimmed kernel durations leave such pauses out.

Samples are kept for the whole run, checks included, so a list shorter than
a few periods borrows the samples nearest in time.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD = 0.025  # seconds between samples; each kernel takes about 0.6 ms
MIN_SAMPLES = 12  # per kernel and list, taking the nearest in time if needed
TRIM = 0.1  # share of samples dropped at each end before averaging

_A = np.eye(5) * 2.0 + 0.1
_B = np.ones((5, 5))
_LINE = ",".join(["cond_1"] + ["%.17g" % (k / 7.0) for k in range(15)])
_STRIDED = np.arange(32768, dtype=float)


def _kernel_linalg():
    acc = 0.0
    for _ in range(40):
        acc += float((np.linalg.inv(_A) @ _B).sum())
        acc += sum(i * 0.5 for i in range(30))
    return acc


def _kernel_text():
    acc = 0.0
    rows = {}
    for k in range(40):
        parts = _LINE.split(",")
        values = [float(v) for v in parts[1:]]
        rows[parts[0] + str(k)] = values
        acc += sum(values) + len(",".join("%.17g" % v for v in values[:5]))
    return acc + float(_STRIDED[::7].sum())


KERNELS = (_kernel_linalg, _kernel_text)


@dataclass(frozen=True)
class Sample:
    start: float  # perf_counter at the kernel's start
    kernel: int  # index into KERNELS
    wall: float  # seconds
    cpu: float  # CPU seconds of the main thread


@dataclass(frozen=True)
class Reading:
    """One list in reference units."""

    wall: float  # list wall time less kernels and steal, in units of ``wall_unit``
    cpu: float  # list CPU time less the kernels inside it, in units of ``cpu_unit``
    wall_unit: float  # seconds the kernels took around the list
    cpu_unit: float  # CPU seconds the kernels took around the list
    steal: float  # seconds of steal time left out of ``wall``


def steal_seconds():
    """Seconds the host has so far kept this machine's CPUs from running, or 0
    where the system does not say."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()  # cpu user nice system idle iowait irq softirq steal
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _trimmed_mean(values):
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])


class RefClock:
    """Samples the kernels on SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []
        self._tick = 0
        self._previous = None

    def _on_alarm(self, signum, frame):
        kernel = self._tick % len(KERNELS)
        self._tick += 1
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        KERNELS[kernel]()
        t1 = time.perf_counter()
        self.samples.append(Sample(t0, kernel, t1 - t0, time.thread_time() - cpu0))

    def start(self):
        for kernel in KERNELS:  # first calls pay for imports and caches
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reading(self, t0, t1, wall, cpu, steal):
        """A list timed from perf_counter ``t0`` to ``t1``, which took ``wall``
        seconds, ``cpu`` CPU seconds and ``steal`` seconds of steal time,
        kernels included, in reference units."""
        def distance(s):
            return 0.0 if t0 <= s.start < t1 else min(abs(s.start - t0), abs(s.start - t1))

        inside = [s for s in self.samples if distance(s) == 0.0]
        wall_units, cpu_units = [], []
        for kernel in range(len(KERNELS)):
            mine = sorted((s for s in self.samples if s.kernel == kernel), key=distance)
            if len(mine) < MIN_SAMPLES:
                raise RuntimeError(f"the reference clock has {len(mine)} samples of kernel "
                                   f"{kernel}, fewer than {MIN_SAMPLES}")
            n_inside = sum(1 for s in mine if distance(s) == 0.0)
            near = mine[:max(n_inside, MIN_SAMPLES)]
            wall_units.append(_trimmed_mean([s.wall for s in near]))
            cpu_units.append(_trimmed_mean([s.cpu for s in near]))
        # geometric mean: each kernel weighs the same whatever its length
        wall_unit = statistics.geometric_mean(wall_units)
        cpu_unit = statistics.geometric_mean(cpu_units)
        return Reading(wall=(wall - steal - sum(s.wall for s in inside)) / wall_unit,
                       cpu=(cpu - sum(s.cpu for s in inside)) / cpu_unit,
                       wall_unit=wall_unit, cpu_unit=cpu_unit, steal=steal)
