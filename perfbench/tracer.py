"""Spans around mfsoc's public functions, installed from outside the library.

Every public function named in ``TARGETS`` is replaced by a timing wrapper
at each place its name is bound inside the ``mfsoc`` package, so calls made
between library modules (``mfsoc.cli.solve_are``, ``mfsoc.simulator.agent_rng``
and so on) are recorded as well as the benchmark's own calls.  Spans stay in
memory as (name, start, end, parent, error) and are written out once, when
the run ends.  A name missing from the library is reported as absent rather
than failing: its metrics read 0 and are named as absent, so the tracer keeps
working as functions are merged or deleted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# module -> public functions wrapped, with the per-layer metrics each feeds
TARGETS = {
    "model": ["agent_rng"],
    "linalg": ["integrate_ode"],
    "riccati": ["solve_are", "solve_stochastic_are", "solve_finite_limit", "solve_finite_N"],
    "synthesis": ["build_law", "build_centralized_law"],
    "simulator": ["simulate_population"],
    "social": ["expected_social_cost", "gap_curve", "gap_curve_exact",
               "centralized_cost", "asymptotic_value"],
    "stability": ["stability_report", "theorem_verdicts", "check_stabilizable"],
    "cli": ["main"],
}

# (metric, kind, span name): "s" is inclusive time, "self_s" excludes
# wrapped children, "calls" counts spans
SPAN_METRICS = [
    ("social.expected_social_cost.s", "s", "social.expected_social_cost"),
    ("social.expected_social_cost.calls", "calls", "social.expected_social_cost"),
    ("social.gap_curve.self_s", "self_s", "social.gap_curve"),
    ("social.gap_curve_exact.self_s", "self_s", "social.gap_curve_exact"),
    ("social.centralized_cost.self_s", "self_s", "social.centralized_cost"),
    ("social.asymptotic_value.s", "s", "social.asymptotic_value"),
    ("riccati.solve_are.s", "s", "riccati.solve_are"),
    ("riccati.solve_are.calls", "calls", "riccati.solve_are"),
    ("riccati.solve_stochastic_are.s", "s", "riccati.solve_stochastic_are"),
    ("riccati.solve_stochastic_are.calls", "calls", "riccati.solve_stochastic_are"),
    ("riccati.solve_finite_limit.s", "s", "riccati.solve_finite_limit"),
    ("riccati.solve_finite_N.s", "s", "riccati.solve_finite_N"),
    ("riccati.solve_finite_N.calls", "calls", "riccati.solve_finite_N"),
    ("linalg.integrate_ode.s", "s", "linalg.integrate_ode"),
    ("linalg.integrate_ode.calls", "calls", "linalg.integrate_ode"),
    ("synthesis.build_law.s", "s", "synthesis.build_law"),
    ("synthesis.build_centralized_law.s", "s", "synthesis.build_centralized_law"),
    ("simulator.simulate_population.self_s", "self_s", "simulator.simulate_population"),
    ("simulator.simulate_population.calls", "calls", "simulator.simulate_population"),
    ("model.agent_rng.s", "s", "model.agent_rng"),
    ("model.agent_rng.calls", "calls", "model.agent_rng"),
    ("stability.stability_report.self_s", "self_s", "stability.stability_report"),
    ("stability.theorem_verdicts.self_s", "self_s", "stability.theorem_verdicts"),
    ("stability.check_stabilizable.s", "s", "stability.check_stabilizable"),
    ("stability.check_stabilizable.calls", "calls", "stability.check_stabilizable"),
    ("cli.main.self_s", "self_s", "cli.main"),
]

# counters accumulated by the call hooks below, with the span they need
COUNTERS = {
    "social.moment_rk4_steps": "social.expected_social_cost",
    "linalg.integrate_ode.steps": "linalg.integrate_ode",
    "synthesis.law_knots": "synthesis.build_law",
    "simulator.agent_steps": "simulator.simulate_population",
    "simulator.agent_streams": "simulator.simulate_population",
}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _moment_steps(fn, args, kwargs, result, counts):
    a = _bound(fn, args, kwargs)
    counts["social.moment_rk4_steps"] += max(1, int(round(float(a["spec"].horizon) / a["step"])))


def _ode_steps(fn, args, kwargs, result, counts):
    counts["linalg.integrate_ode.steps"] += len(result[0]) - 1


def _law_knots(fn, args, kwargs, result, counts):
    counts["synthesis.law_knots"] += len(result.grid)


def _agent_steps(fn, args, kwargs, result, counts):
    a = _bound(fn, args, kwargs)
    spec, cfg = a["spec"], a["cfg"]
    N = spec.N if a["N"] is None else int(a["N"])
    steps = max(1, int(round(cfg.horizon_for(spec) / cfg.dt)))
    counts["simulator.agent_streams"] += cfg.replications * N
    counts["simulator.agent_steps"] += cfg.replications * N * steps


HOOKS = {
    "social.expected_social_cost": _moment_steps,
    "linalg.integrate_ode": _ode_steps,
    "synthesis.build_law": _law_knots,
    "simulator.simulate_population": _agent_steps,
}


class Tracer:
    """In-memory span recorder; ``install`` swaps the wrappers in."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, exception class]
        self._stack = []
        self.counts = defaultdict(int)
        self.absent = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result, counts)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding inside the loaded mfsoc modules."""
        for mod_name in TARGETS:
            try:
                importlib.import_module(f"mfsoc.{mod_name}")
            except ImportError:
                pass
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "mfsoc" or k.startswith("mfsoc."))]
        for mod_name, names in TARGETS.items():
            home = sys.modules.get(f"mfsoc.{mod_name}")
            for fn_name in names:
                orig = getattr(home, fn_name, None)
                if not callable(orig):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def _errors_leaving_riccati(self):
        """Solver errors raised out of the riccati layer to a caller outside it."""
        solver_error = getattr(sys.modules.get("mfsoc.riccati"), "SolverError", None)
        if solver_error is None:
            return 0
        n = 0
        for name, _, _, parent, err in self.spans:
            if (name.startswith("riccati.") and err is not None and issubclass(err, solver_error)
                    and (parent < 0 or not self.spans[parent][0].startswith("riccati."))):
                n += 1
        return n

    def summary(self):
        """Per-layer metrics as {name: (value, unit)}; absent functions give 0."""
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for name, t0, t1, parent, _ in self.spans:
            dur = t1 - t0
            calls[name] += 1
            self_time[name] += dur
            if parent >= 0:
                self_time[self.spans[parent][0]] -= dur
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:   # outermost span of its name: recursion is not double counted
                inclusive[name] += dur
        out = {}
        for metric, kind, span in SPAN_METRICS:
            if kind == "calls":
                out[metric] = (calls[span], "count")
            elif kind == "s":
                out[metric] = (inclusive[span], "s")
            else:
                out[metric] = (self_time[span], "s")
        for metric in COUNTERS:
            out[metric] = (self.counts[metric], "count")
        out["riccati.solver_errors"] = (self._errors_leaving_riccati(), "count")
        steps = self.counts["simulator.agent_steps"]
        sim = out["simulator.simulate_population.self_s"][0]
        out["simulator.ns_per_agent_step"] = (1e9 * sim / steps if steps else 0.0, "ns")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def absent_metrics(self):
        """Metrics whose function is missing from mfsoc; ``summary`` gives them 0."""
        absent = set(self.absent)
        names = [m for m, _, span in SPAN_METRICS if span in absent]
        names += [m for m, span in COUNTERS.items() if span in absent]
        if "riccati.solve_are" in absent:
            names.append("riccati.solver_errors")
        if "simulator.simulate_population" in absent:
            names.append("simulator.ns_per_agent_step")
        return names

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, err) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent,
                                     "error": err and err.__name__}) + "\n")
