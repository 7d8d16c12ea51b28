"""Per-layer tracing of perturbpred from outside the package.

A ``Tracer`` replaces every public function of the layer modules (and the
``fit_predict`` method of each model family in ``validate``) with a wrapper
that records a span: name, layer, start, end, the span that caused it and a
few facts about the result.  A function is replaced at its defining module
and at every perturbpred module that imported it by name, so calls such as
``cli -> steady_state`` or ``io.load_condition_matrix -> load_matrix_csv``
are all seen.  Spans live in memory; ``layer_metrics`` reduces one command
list's spans to the per-layer numbers and the spans are then dropped.

Spans started on a worker thread with nothing open on that thread take the
innermost open span of the main thread as parent: in perturbpred only the
main thread starts workers (the cv fold pool), and it waits inside the
span that started them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "io", "validate", "fit", "linear", "ode", "simulate")

IO_LOADS = {"io.load_matrix_csv", "io.load_condition_matrix", "io.load_response_matrix"}
FITS = {"fit.fit_regression", "fit.fit_regression_lodo", "fit.fit_causal_linear",
        "fit.fit_causal_ode"}
EVALS = {"validate.averaged_random_fold_eval", "validate.lodo_eval"}
PREDICTS = {"linear.predict_regression", "linear.predict_causal_linear",
            "linear.predict_causal_dag"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("io.load_calls", "count", "lower"),
    ("io.load_rows", "count", "lower"),
    ("io.load_s", "s", "lower"),
    ("io.load_us_per_row", "us", "lower"),
    ("io.save_calls", "count", "lower"),
    ("io.save_rows", "count", "lower"),
    ("io.save_s", "s", "lower"),
    ("io.report_s", "s", "lower"),
    ("validate.folds", "count", "lower"),
    ("validate.fold_fits", "count", "lower"),
    ("validate.fold_fits_per_fold", "ratio", "lower"),
    ("validate.eval_s", "s", "lower"),
    ("validate.eval_self_s", "s", "lower"),
    ("validate.fold_concurrency", "ratio", "higher"),
    ("fit.fits", "count", "lower"),
    ("fit.s", "s", "lower"),
    ("fit.converged_frac", "ratio", "higher"),
    ("fit.iterations", "count", "lower"),
    ("fit.ms_per_iter", "ms", "lower"),
    ("fit.loss_grad_calls", "count", "lower"),
    ("fit.loss_grad_s", "s", "lower"),
    ("fit.loss_grad_per_iter", "ratio", "lower"),
    ("fit.warm_start_calls", "count", "lower"),
    ("fit.warm_start_s", "s", "lower"),
    ("linear.predict_calls", "count", "lower"),
    ("linear.predict_s", "s", "lower"),
    ("ode.solves", "count", "lower"),
    ("ode.solve_s", "s", "lower"),
    ("ode.rk4_steps", "count", "lower"),
    ("ode.us_per_step", "us", "lower"),
    ("ode.unconverged", "count", "lower"),
    ("ode.solves_per_fit_iter", "ratio", "lower"),
    ("simulate.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


def _rows(result):
    values = result[0]
    return int(np.shape(getattr(values, "values", values))[0])


def _fit_report(result):
    report = result[1]
    return (int(report.iterations), bool(report.converged))


def _steady_state(result, args, kwargs, signature):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return (int(round(result.t_reached / bound.arguments["dt"])), bool(result.converged))


def _saved_rows(args, kwargs):
    values = args[1] if len(args) > 1 else kwargs["values"]
    return int(np.shape(values)[0])


def _info(name, args, kwargs, result, signature):
    """The facts a span keeps about its call, for the metrics below."""
    if name in IO_LOADS:
        return _rows(result)
    if name == "io.save_matrix_csv":
        return _saved_rows(args, kwargs)
    if name in FITS:
        return _fit_report(result)
    if name == "ode.steady_state":
        return _steady_state(result, args, kwargs, signature)
    if name == "validate.make_random_folds":
        return result.repetitions
    if name == "validate.make_lodo_splits":
        return len(result)
    return None


class Tracer:
    """Installs span-recording wrappers into the loaded perturbpred modules."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = None
        self._patched = []  # (owner, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, name, layer, fn):
        signature = inspect.signature(fn) if name == "ode.steady_state" else None
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span = Span(name, layer, parent)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _info(name, args, kwargs, result, signature)
            return result

        return traced

    def install(self):
        """Wrap every public function of the layer modules where it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "perturbpred" or n.startswith("perturbpred."))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"perturbpred.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    method = vars(obj).get("fit_predict")
                    if inspect.isfunction(method):
                        traced = self._wrap(f"{layer}.fit_predict", layer, method)
                        self._patch(obj, "fit_predict", method, traced)
        for module in package:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# reduction


def _has_ancestor(span, names):
    parent = span.parent
    while parent is not None:
        if parent.name in names:
            return True
        parent = parent.parent
    return False


def _outermost(spans, names):
    return [s for s in spans if s.name in names and not _has_ancestor(s, names)]


def _duration(spans):
    return sum(s.end - s.start for s in spans)


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(roots, children):
    """Time in roots not covered by descendants from another layer.

    Descends through spans of the root's own layer; the first span of any
    other layer on each path covers its whole interval.
    """
    total = 0.0
    for root in roots:
        covered = []
        todo = list(children.get(root, ()))
        while todo:
            span = todo.pop()
            if span.layer == root.layer:
                todo.extend(children.get(span, ()))
            else:
                covered.append((max(span.start, root.start), min(span.end, root.end)))
        total += (root.end - root.start) - _union_length(covered)
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer numbers of one command list (every metric of PER_LAYER but
    ``trace.overhead_s``, which compares runs)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    m = {}
    mains = _outermost(spans, {"cli.main"})
    m["cli.commands"] = len(mains)
    m["cli.self_s"] = _self_time(mains, children)

    loads = _outermost(spans, IO_LOADS)
    m["io.load_calls"] = len(loads)
    m["io.load_rows"] = sum(s.info or 0 for s in loads)
    m["io.load_s"] = _duration(loads)
    m["io.load_us_per_row"] = _ratio(m["io.load_s"] * 1e6, m["io.load_rows"])
    saves = named("io.save_matrix_csv")
    m["io.save_calls"] = len(saves)
    m["io.save_rows"] = sum(s.info or 0 for s in saves)
    m["io.save_s"] = _duration(saves)
    m["io.report_s"] = _duration(named("io.write_json_report"))

    evals = _outermost(spans, EVALS)
    fold_fits = named("validate.fit_predict")
    plans = named("validate.make_random_folds") + named("validate.make_lodo_splits")
    m["validate.folds"] = sum(s.info or 0 for s in plans)
    m["validate.fold_fits"] = len(fold_fits)
    m["validate.fold_fits_per_fold"] = _ratio(len(fold_fits), m["validate.folds"])
    m["validate.eval_s"] = _duration(evals)
    m["validate.eval_self_s"] = _self_time(evals, children)
    in_eval = [s for s in fold_fits if _has_ancestor(s, EVALS)]
    m["validate.fold_concurrency"] = _ratio(_duration(in_eval), m["validate.eval_s"])

    # a fit that raised has no report and counts as unconverged
    fits = _outermost(spans, FITS)
    reports = [s.info or (0, False) for s in fits]
    iterations = sum(r[0] for r in reports)
    loss_grads = named("fit.causal_loss_and_gradient")
    warm = named("fit.least_squares_w_init")
    m["fit.fits"] = len(fits)
    m["fit.s"] = _duration(fits)
    m["fit.converged_frac"] = _ratio(sum(r[1] for r in reports), len(fits))
    m["fit.iterations"] = iterations
    m["fit.ms_per_iter"] = _ratio(m["fit.s"] * 1e3, iterations)
    m["fit.loss_grad_calls"] = len(loss_grads)
    m["fit.loss_grad_s"] = _duration(loss_grads)
    m["fit.loss_grad_per_iter"] = _ratio(len(loss_grads), iterations)
    m["fit.warm_start_calls"] = len(warm)
    m["fit.warm_start_s"] = _duration(warm)

    predicts = _outermost(spans, PREDICTS)
    m["linear.predict_calls"] = len(predicts)
    m["linear.predict_s"] = _duration(predicts)

    # a solve that raised (diverged) has no result and counts as unconverged
    solves = named("ode.steady_state")
    results = [s.info for s in solves if s.info is not None]
    ode_iterations = sum(r[0] for s, r in zip(fits, reports) if s.name == "fit.fit_causal_ode")
    m["ode.solves"] = len(solves)
    m["ode.solve_s"] = _duration(solves)
    m["ode.rk4_steps"] = sum(r[0] for r in results)
    m["ode.us_per_step"] = _ratio(m["ode.solve_s"] * 1e6, m["ode.rk4_steps"])
    m["ode.unconverged"] = len(solves) - sum(r[1] for r in results)
    m["ode.solves_per_fit_iter"] = _ratio(len(solves), ode_iterations)

    sims = _outermost(spans, {s.name for s in spans if s.layer == "simulate"})
    m["simulate.s"] = _duration(sims)
    return m
