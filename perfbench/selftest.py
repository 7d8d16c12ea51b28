#!/usr/bin/env python3
"""Self-tests of the benchmark.

Run from the repository root (takes about a minute and a half):

    python3 perfbench/selftest.py

They check that traced runs repeat their counts exactly, that tracing
leaves every output byte-identical, that the counts match their
definitions, that the reference clock converts list times as described,
and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import CV_REPS, WORKLOADS  # noqa: E402

WORK = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
N_DRUGS = 15  # drugs in the simulated fixtures, one LODO fold each

COUNTS = [name for name, unit, _ in tracing.PER_LAYER if unit == "count"]


def _snapshot(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def traced_twice(name, seed=3):
    """One untraced then two traced lists of a workload.

    Returns (runner, per-layer metrics of each traced list, outputs after the
    untraced list, outputs after the traced ones).
    """
    work = os.path.join(WORK, name)
    run.fresh_import()
    commands = WORKLOADS[name].setup(run.call_cli, seed, work)
    runner = run.Runner(WORKLOADS[name])
    runner.run_list(commands)
    untraced = _snapshot(work)
    layers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        runner.run_list(commands, tracer)
        layers.append(tracing.layer_metrics(tracer.take()))
    return runner, layers, untraced, _snapshot(work)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        os.rmdir(run.WORK_ROOT)
    except OSError:
        pass  # a benchmark run still uses it


class TracedWorkloads(unittest.TestCase):
    def check_common(self, runner, layers, untraced, traced):
        self.assertEqual(runner.failed, 0)
        first, second = layers
        self.assertEqual({k: first[k] for k in COUNTS}, {k: second[k] for k in COUNTS})
        self.assertEqual(sorted(untraced), sorted(traced))
        for path in untraced:
            self.assertEqual(untraced[path], traced[path], path)
        return first

    def test_cv(self):
        m = self.check_common(*traced_twice("cv"))
        folds = CV_REPS * 2 + N_DRUGS * 2
        self.assertEqual(m["validate.folds"], folds)
        self.assertEqual(m["validate.fold_fits"], 2 * folds)  # the scatter pass refits
        self.assertEqual(m["validate.fold_fits_per_fold"], 2.0)
        self.assertEqual(m["cli.commands"], 4)
        self.assertEqual(m["fit.fits"], m["validate.fold_fits"])
        self.assertEqual(m["linear.predict_calls"], m["validate.fold_fits"])
        self.assertEqual(m["fit.warm_start_calls"], 2 * (CV_REPS + N_DRUGS))
        self.assertEqual(m["fit.converged_frac"], 1.0)
        # conditions + responses per command, targets for the causal ones
        self.assertEqual(m["io.load_calls"], 4 * 2 + 2)
        self.assertEqual(m["io.load_rows"], 4 * (105 + 105) + 2 * 5)
        self.assertEqual(m["ode.solves"], 0)
        self.assertLessEqual(m["validate.eval_self_s"], m["validate.eval_s"])

    def test_lasso_fit(self):
        m = self.check_common(*traced_twice("lasso-fit"))
        self.assertEqual(m["fit.fits"], 2)
        self.assertEqual(m["fit.warm_start_calls"], 2)
        self.assertGreaterEqual(m["fit.loss_grad_calls"], m["fit.iterations"])
        self.assertEqual(m["validate.folds"], 0)

    def test_fit_ode(self):
        m = self.check_common(*traced_twice("fit-ode"))
        self.assertEqual(m["fit.fits"], 1)
        self.assertEqual(m["ode.unconverged"], 0)
        self.assertEqual(m["ode.solves_per_fit_iter"], m["ode.solves"] / m["fit.iterations"])
        self.assertGreater(m["ode.rk4_steps"], m["ode.solves"])
        self.assertGreater(m["ode.solve_s"], 0.9 * m["fit.s"])

    def test_predict_screen(self):
        m = self.check_common(*traced_twice("predict-screen"))
        self.assertEqual(m["io.save_rows"], 4943)
        self.assertEqual(m["io.load_rows"], 4943 + 5 + 5)  # screen, W, targets
        self.assertEqual(m["linear.predict_calls"], 1)


class TracerMechanics(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        run.fresh_import()
        tracer = tracing.Tracer()
        tracer.install()
        fit = sys.modules["perturbpred.fit"]
        self.assertTrue(hasattr(fit.steady_state, "__wrapped__"))
        tracer.uninstall()
        for name, module in sys.modules.items():
            if name.startswith("perturbpred"):
                for attr, obj in vars(module).items():
                    self.assertFalse(hasattr(obj, "__wrapped__"), f"{name}.{attr}")

    def test_nested_spans_count_once(self):
        run.fresh_import()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            path = os.path.join(WORK, "nested.csv")
            os.makedirs(WORK, exist_ok=True)
            io = sys.modules["perturbpred.io"]
            io.save_matrix_csv(path, [[1.0, 2.0], [3.0, 4.0]])
            io.load_condition_matrix(path)  # calls load_matrix_csv inside
        finally:
            tracer.uninstall()
        m = tracing.layer_metrics(tracer.take())
        self.assertEqual((m["io.load_calls"], m["io.load_rows"]), (1, 2))
        self.assertEqual((m["io.save_calls"], m["io.save_rows"]), (1, 2))

    def test_tail_percentile(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        self.assertEqual(run.tail_percentile(list(range(20))), (50.0, 9))


class ReferenceClock(unittest.TestCase):
    def test_reading_subtracts_kernels_and_steal_and_borrows_near_samples(self):
        clock = refclock.RefClock()
        # kernel 0 takes 1 ms and kernel 1 takes 4 ms, so a unit is 2 ms;
        # one far-off kernel-0 sample of 50 ms is trimmed away
        clock.samples = [refclock.Sample(0.1 * k, k % 2, 0.001 * (1 + 3 * (k % 2)), 0.001)
                         for k in range(40)]
        clock.samples[10] = refclock.Sample(1.0, 0, 0.05, 0.001)
        reading = clock.reading(1.0, 1.2, wall=0.6, cpu=0.5, steal=0.02)
        # inside the list: the samples started at 1.0 (50 ms) and 1.1 (4 ms)
        self.assertAlmostEqual(reading.wall_unit, 0.002)
        self.assertAlmostEqual(reading.wall, (0.6 - 0.02 - 0.054) / 0.002)
        self.assertAlmostEqual(reading.cpu_unit, 0.001)
        self.assertAlmostEqual(reading.cpu, (0.5 - 0.002) / 0.001)

    def test_clock_samples_while_running_and_restores_the_handler(self):
        clock = refclock.RefClock()
        clock.start()
        try:
            end = time.perf_counter() + 20 * refclock.MIN_SAMPLES * refclock.PERIOD
            while time.perf_counter() < end:
                pass
        finally:
            clock.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        counts = [sum(1 for s in clock.samples if s.kernel == k) for k in range(2)]
        self.assertGreaterEqual(min(counts), refclock.MIN_SAMPLES)
        self.assertGreater(clock.reading(end - 1.0, end, 1.0, 1.0, 0.0).wall, 0.0)
        self.assertGreaterEqual(refclock.steal_seconds(), 0.0)


class Contract(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cv",
                               "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracing.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
