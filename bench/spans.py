"""Span tracing of the hiprox layers from outside the package.

``Tracer.install`` replaces the public functions and methods of each
``src/hiprox`` module with wrappers that record one span per call: solve id,
parent span, name, start and end (``perf_counter_ns``). Module-level functions
are patched where they are used, because the package binds them with
``from ... import``. Spans stay in memory until ``save``; counts and self
times (a span minus its children) are also accumulated as calls return, so
per-layer metrics need no pass over the spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from hiprox import (acceptance, bregman, inner, metric, oracles, outer, problems,
                    scalar_families, simple_terms)

# kinds of wrapper; all but PLAIN also update one counter
PLAIN, SCALAR, SCALING, CHECK, STEP = range(5)
ROUTES = ("univariate", "secular", "prox_newton", "ball_kkt")


def _public_methods(cls, skip=()):
    return [name for name, value in vars(cls).items()
            if callable(value) and not name.startswith("_") and name not in skip]


def _targets():
    """(owner, attribute, span name, kind) for every wrapped callable."""
    out = []

    def methods(layer, classes, kind=PLAIN, only=None, skip=()):
        for cls in classes:
            for name in (only or _public_methods(cls, skip)):
                if name in vars(cls):
                    out.append((cls, name, "%s.%s.%s" % (layer, cls.__name__, name), kind))

    def functions(layer, where, names, kind=PLAIN):
        for name in names:
            for module in where:
                out.append((module, name, "%s.%s" % (layer, name), kind))

    methods("scalar_families", (scalar_families.Linear, scalar_families.Quartic,
                                scalar_families.NegLog, scalar_families.Logistic,
                                scalar_families.Power), SCALAR, only=("value", "derivative"))
    methods("oracles", (oracles.SmoothOracle, oracles.SeparableObjective,
                        oracles.QuadraticObjective),
            skip=("residuals", "check_domain", "m_bound", "reset_counters"))
    functions("oracles", (outer,), ("psi_prox_euclid",))
    methods("bregman", (bregman.ScalingFunction,), SCALING,
            only=("value", "gradient", "hessian_form", "hessian_matrix"))
    methods("bregman", (bregman.RegularizedObjective,))
    methods("metric", (metric.MetricSpace, metric.PowerProx), skip=("euclidean",))
    methods("inner", (inner.StepSolver,), STEP, only=("step",))
    functions("inner", (outer,), ("inner_solve",))
    functions("univariate", (inner,), ("minimize_composite_1d",))
    methods("simple_terms", (simple_terms.SimpleTerm, simple_terms.ZeroTerm,
                             simple_terms.L1Term, simple_terms.Abs1d, simple_terms.NonnegTerm,
                             simple_terms.BoxTerm, simple_terms.BallTerm))
    functions("acceptance", (inner, outer), ("check_acceptable",), CHECK)
    functions("outer", (outer,), ("biopt_run", "aihopp_run", "coefficients",
                                  "estimating_update", "psi_argmin", "bound_evaluator",
                                  "inner_prox_provider"))
    methods("outer", (outer.EstimatingState,), only=("value",))
    functions("problems", (problems,), ("get_problem", "newton_reference",
                                        "box_newton_reference", "trs_reference"))
    return out


class Tracer:
    """Records spans while installed; ``take_pass`` returns and resets the tallies."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.solve = -1
        self._cols = {"solve": array("i"), "parent": array("i"), "name": array("i"),
                      "start": array("q"), "end": array("q")}
        self._stack = []
        self._saved = []
        self._step_ids = {route: self._id("inner.step.%s" % route) for route in ROUTES}
        self._reset_tallies()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _reset_tallies(self):
        self.calls = {}
        self.self_ns = {}
        self.raised = {}
        self.accepted = 0
        self.anchor_evals = 0
        self.step_ns = []
        self._scaling_depth = 0

    def _wrap(self, fn, nid, kind):
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        cols = self._cols
        solve_col, parent_col, name_col = cols["solve"], cols["parent"], cols["name"]
        start_col, end_col = cols["start"], cols["end"]
        step_ids = self._step_ids

        def wrapper(*args, **kwargs):
            sid = step_ids[args[0].route] if kind == STEP else nid
            if kind == SCALAR and tracer._scaling_depth:
                tracer.anchor_evals += 1
            elif kind == SCALING:
                tracer._scaling_depth += 1
            idx = len(start_col)
            frame = [idx, 0]
            solve_col.append(tracer.solve)
            parent_col.append(stack[-1][0] if stack else -1)
            name_col.append(sid)
            end_col.append(0)
            stack.append(frame)
            start = clock()
            start_col.append(start)
            try:
                result = fn(*args, **kwargs)
            except Exception:  # not the benchmark's own time-limit signal
                tracer.raised[sid] = tracer.raised.get(sid, 0) + 1
                raise
            finally:
                end = clock()
                end_col[idx] = end
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.calls[sid] = tracer.calls.get(sid, 0) + 1
                tracer.self_ns[sid] = tracer.self_ns.get(sid, 0) + dur - frame[1]
                if kind == SCALING:
                    tracer._scaling_depth -= 1
                elif kind == STEP:
                    tracer.step_ns.append(dur)
            if kind == CHECK and result.accepted:
                tracer.accepted += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner, attr, name, kind in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self._id(name), kind))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_solve(self, solve_id):
        """Start the spans of a new solve.

        A solve stopped by a signal may leave frames on the stack, or a span
        row half appended; the stack starts empty and the columns are cut to
        their common length.
        """
        self.solve = solve_id
        self._stack.clear()
        self._scaling_depth = 0
        self._align()

    def _align(self):
        rows = min(len(col) for col in self._cols.values())
        for col in self._cols.values():
            del col[rows:]

    def root(self, name, fn, *args, **kwargs):
        """Call fn inside a span of its own."""
        return self._wrap(fn, self._id(name), PLAIN)(*args, **kwargs)

    def take_pass(self):
        """Per-layer tallies since the last call, keyed by span name."""
        out = {
            "calls": {self.names[i]: c for i, c in self.calls.items()},
            "self_s": {self.names[i]: ns * 1e-9 for i, ns in self.self_ns.items()},
            "raised": {self.names[i]: c for i, c in self.raised.items()},
            "accepted": self.accepted,
            "anchor_evals": self.anchor_evals,
            "step_ms": [ns * 1e-6 for ns in self.step_ns],
        }
        self._reset_tallies()
        return out

    def save(self, path):
        """Write every span and the name table as a compressed npz."""
        self._align()
        arrays = {key: np.frombuffer(col, dtype=col.typecode) if len(col) else np.zeros(0)
                  for key, col in self._cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **arrays)


def layer_metrics(tally, fallbacks, scalar_evals, build_s, overhead_frac):
    """The per-layer metrics of one traced pass."""
    calls, self_s = tally["calls"], tally["self_s"]

    def count(prefix, suffix=""):
        return sum(c for n, c in calls.items() if n.startswith(prefix) and n.endswith(suffix))

    def seconds(prefix):
        return sum((s for n, s in self_s.items() if n.startswith(prefix)), 0.0)

    solves = calls.get("inner.inner_solve", 0)
    steps = count("inner.step.")
    checks = calls.get("acceptance.check_acceptable", 0)
    step_ms = tally["step_ms"] or [0.0]
    out = {
        "scalar_families.self_s": (seconds("scalar_families."), "s"),
        "oracles.calls": (count("oracles."), "count"),
        "oracles.self_s": (seconds("oracles."), "s"),
        "bregman.scaling.calls": (count("bregman.ScalingFunction."), "count"),
        "bregman.scaling.self_s": (seconds("bregman.ScalingFunction."), "s"),
        "bregman.regularized.self_s": (seconds("bregman.RegularizedObjective."), "s"),
        "bregman.anchor_scalar_evals": (tally["anchor_evals"], "count"),
        "metric.power.calls": (count("metric.PowerProx."), "count"),
        "metric.self_s": (seconds("metric."), "s"),
        "inner.solves": (solves, "count"),
        "inner.steps": (steps, "count"),
        "inner.steps_per_solve": (steps / solves if solves else 0.0, "ratio"),
        "inner.step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "inner.step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "inner.failures": (tally["raised"].get("inner.inner_solve", 0), "count"),
        "simple_terms.coordinate_min.calls": (count("simple_terms.", ".coordinate_min"), "count"),
        "simple_terms.prox.calls": (count("simple_terms.", ".prox"), "count"),
        "simple_terms.self_s": (seconds("simple_terms."), "s"),
        "univariate.calls": (count("univariate."), "count"),
        "univariate.self_s": (seconds("univariate."), "s"),
        "acceptance.checks": (checks, "count"),
        "acceptance.self_s": (seconds("acceptance."), "s"),
        "acceptance.accept_ratio": (tally["accepted"] / checks if checks else 0.0, "ratio"),
        "outer.steps": (calls.get("outer.coefficients", 0), "count"),
        "outer.self_s": (seconds("outer."), "s"),
        "outer.psi_argmin.calls": (calls.get("outer.psi_argmin", 0), "count"),
        "outer.psi_argmin.self_s": (self_s.get("outer.psi_argmin", 0.0), "s"),
        "outer.fallbacks": (fallbacks, "count"),
        "problems.build_s": (build_s, "s"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
    for route in ROUTES:
        out["inner.step.%s.calls" % route] = (calls.get("inner.step." + route, 0), "count")
        out["inner.step.%s.self_s" % route] = (self_s.get("inner.step." + route, 0.0), "s")
    for order in (0, 1, 2, 4):
        out["oracles.scalar_evals.o%d" % order] = (scalar_evals.get(str(order), 0), "count")
    return out
