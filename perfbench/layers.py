"""Traced mode: per-name call counts and times at crflow's layer boundaries.

Wrappers are installed on public functions and methods of `src/crflow` from
here; the program's files are not touched.  A hot leaf such as
`RadialGrid.ddbar` (about a million calls on the bundled suite) is kept as a
count and a total per (name, caller), never as one span per call, so the
traced run needs about the memory of the untraced one.  The caller is the
nearest enclosing wrapped name.

A function that one module imports by name from another is wrapped under each
name its callers use (`run_torus_flow` in `flow` and `scenarios`, `cfl_bound`
in `flow` and `radial`, `run_scenario` in `scenarios` and `cli`).
"""
from __future__ import annotations

import os
import sys
import time

import numpy as np

import checks

perf_counter = time.perf_counter


class Tracer:
    """Call counts and seconds per (name, caller), plus named counters and
    maxima that the `on_call` hooks fill from arguments and results."""

    def __init__(self):
        self.stats = {}          # (name, caller) -> [calls, seconds]
        self.counters = {}       # name -> number
        self.maxima = {}         # name -> number
        self._stack = [None]

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    def wrap(self, owner, attr, name, label=None, on_call=None):
        """Replace `owner.attr` by a timing wrapper recorded under `name`.

        `label(args, kwargs, result)` gives a more specific name to record
        under (its callees still see `name` as their caller);
        `on_call(args, kwargs, result)` runs after each call that returns.
        A missing attribute is reported and skipped, so a later refactor that
        removes a name does not stop the benchmark; the metrics built on it
        then read 0.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"perfbench: {getattr(owner, '__name__', owner)}.{attr} "
                  "not found; not traced", file=sys.stderr)
            return
        stats, stack = self.stats, self._stack

        def traced(*args, **kwargs):
            caller = stack[-1]
            stack.append(name)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                key = (name if label is None else label(args, kwargs, result), caller)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)

    # -- queries ------------------------------------------------------------

    def calls(self, name, callers=None):
        return sum(c for (n, p), (c, _) in self.stats.items()
                   if n == name and (callers is None or p in callers))

    def seconds(self, name, callers=None, exclude_callers=()):
        return sum(s for (n, p), (_, s) in self.stats.items()
                   if n == name and (callers is None or p in callers)
                   and p not in exclude_callers)


def per_call(seconds, calls, scale):
    return seconds / calls * scale if calls else 0.0


# ---------------------------------------------------------------------------
# the layers
# ---------------------------------------------------------------------------

RADIAL_DRIVERS = ("radial.run_radial_flow", "radial.run_normalized_radial")
ESTIMATES_CHECKS = ("scalar_lower_bound_check", "trace_barrier_check",
                    "potential_monotonicity_check", "ke_convergence_check",
                    "scalar_evolution_residual_radial",
                    "scalar_evolution_residual_torus", "trace_identity_on_run")
ARTIFACT_WRITERS = ("artifacts.write_run_csv", "artifacts.write_json")


def _radial_accuracy(tracer, run):
    """Accuracy of a radial run whose exact solution is known: an
    unnormalized run from Poincare data with Dirichlet ghosts is the
    homothety; a normalized run with Dirichlet ghosts ends at the KE profile."""
    r = run.grid.r
    if run.boundary is None or not run.frames:
        return
    poincare = (1.0 - r**2) ** -2
    if not run.normalized:
        if np.max(np.abs(run.frames[0].lam / poincare - 1.0)) < 1e-14:
            errs = checks.homothety_errors(r, [f.time for f in run.frames],
                                           [f.lam for f in run.frames])
            tracer.peak("radial.homothety_max_rel_err", max(errs))
    else:
        err = float(np.max(np.abs(run.frames[-1].lam / (2.0 * poincare) - 1.0)))
        tracer.peak("radial.ke_max_err", err)


def install(tracer, crflow_modules):
    """Wrap the layer boundaries of crflow; `crflow_modules` maps short
    module names (radial, flow, ...) to the imported modules."""
    m = crflow_modules
    w = tracer.wrap

    # scenarios
    def scenario_label(args, kwargs, report):
        if report is None:
            return "scenarios.run_scenario"
        return f"scenarios.{report['scenario']}.wall_s"

    w(m["scenarios"], "run_scenario", "scenarios.run_scenario", label=scenario_label)
    w(m["cli"], "run_scenario", "scenarios.run_scenario", label=scenario_label)
    w(m["scenarios"], "load_config", "scenarios.load_config")

    # radial
    def radial_run_done(args, kwargs, run):
        tracer.add("radial.steps", run.steps_taken)
        _radial_accuracy(tracer, run)

    for attr in ("run_radial_flow", "run_normalized_radial"):
        w(m["radial"], attr, f"radial.{attr}", on_call=radial_run_done)
    w(m["radial"], "radial_rhs", "radial.radial_rhs")
    w(m["radial"], "cfl_bound", "flow.cfl_bound")
    w(m["radial"].RadialGrid, "ddbar", "radial.ddbar")
    w(m["radial"].RadialRun, "diagnostics_rows", "radial.diagnostics_rows")
    w(m["radial"].RadialRun, "ke_residual", "estimates.ke_residual")

    # estimates
    for attr in ESTIMATES_CHECKS:
        w(m["estimates"], attr, "estimates.check")

    # artifacts; timing.json holds a wall time, whose length varies from run
    # to run, so it stays out of the byte count
    def count_bytes(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        text = args[1] if len(args) > 1 else kwargs["text"]
        if os.path.basename(path) != "timing.json":
            tracer.add("artifacts.bytes", len(text.encode()))

    w(m["artifacts"], "write_run_csv", "artifacts.write_run_csv")
    w(m["artifacts"], "write_json", "artifacts.write_json")
    w(m["artifacts"], "atomic_write_text", "artifacts.atomic_write_text",
      on_call=count_bytes)

    # flow
    def torus_label(args, kwargs, result):
        return f"flow.run_torus_flow.{kwargs.get('mode', 'metric')}"

    def torus_done(args, kwargs, result):
        tracer.add("flow.steps", result[0].step_count)

    for mod in (m["flow"], m["scenarios"]):
        w(mod, "run_torus_flow", "flow.run_torus_flow", label=torus_label,
          on_call=torus_done)
    w(m["flow"], "cfl_for_state", "flow.cfl_for_state")
    w(m["flow"], "cfl_bound", "flow.cfl_bound")

    # curvature
    w(m["curvature"], "hsc_max", "curvature.hsc_max")
    w(m["curvature"], "nabla_bar_torsion_norm", "curvature.nabla_bar_torsion_norm")
    w(m["curvature"], "chern_curvature", "curvature.chern_curvature")

    # cutoff
    w(m["cutoff"], "frakF_properties_check", "cutoff.frakF_properties_check")
    w(m["cutoff"], "conformal_completion", "cutoff.conformal_completion")
    w(m["cutoff"].FrakF, "derivative", "cutoff.FrakF.derivative")
    w(m["cutoff"], "quad", "cutoff.quad")
    w(m["cutoff"], "phi_eval", "cutoff.phi_eval")

    # traces, metrics
    w(m["traces"], "royden_check", "traces.royden_check")
    w(m["metrics"].MetricProvider, "d2", "metrics.d2")


def layer_metrics(tracer, scenario_names):
    """Every per-layer metric built from one traced round; a layer that the
    workload does not reach reads 0."""
    t = tracer
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    # radial
    steps = t.counters.get("radial.steps", 0)
    flow_s = sum(t.seconds(d) for d in RADIAL_DRIVERS)
    rhs_calls = t.calls("radial.radial_rhs", RADIAL_DRIVERS)
    rhs_us = per_call(t.seconds("radial.radial_rhs", RADIAL_DRIVERS), rhs_calls, 1e6)
    step_us = per_call(flow_s, steps, 1e6)
    put("radial.steps", steps, "count")
    put("radial.rhs_calls", rhs_calls, "count")
    put("radial.cfl_calls", t.calls("flow.cfl_bound", RADIAL_DRIVERS), "count")
    put("radial.flow_s", flow_s, "s")
    put("radial.step_us", step_us, "us")
    put("radial.rhs_us", rhs_us, "us")
    put("radial.ddbar_us", per_call(t.seconds("radial.ddbar"), t.calls("radial.ddbar"),
                                    1e6), "us")
    put("radial.step_overhead_us", step_us - 4.0 * rhs_us if steps else 0.0, "us")
    put("radial.diagnostics_rows_calls", t.calls("radial.diagnostics_rows"), "count")
    put("radial.homothety_max_rel_err", t.maxima.get("radial.homothety_max_rel_err", 0.0),
        "1")
    put("radial.ke_max_err", t.maxima.get("radial.ke_max_err", 0.0), "1")

    # scenarios
    for name in scenario_names:
        put(f"scenarios.{name}.wall_s", t.seconds(f"scenarios.{name}.wall_s"), "s")
    put("scenarios.load_config_ms", per_call(t.seconds("scenarios.load_config"),
                                             t.calls("scenarios.load_config"), 1e3), "ms")

    # estimates
    put("estimates.checks_s", t.seconds("estimates.check"), "s")
    put("estimates.ke_residual_calls", t.calls("estimates.ke_residual"), "count")

    # artifacts: outermost writes only
    write_s = (sum(t.seconds(n) for n in ARTIFACT_WRITERS)
               + t.seconds("artifacts.atomic_write_text", exclude_callers=ARTIFACT_WRITERS))
    put("artifacts.write_s", write_s, "s")
    put("artifacts.bytes", t.counters.get("artifacts.bytes", 0), "B")

    # flow
    metric_s = t.seconds("flow.run_torus_flow.metric")
    potential_s = t.seconds("flow.run_torus_flow.potential")
    fsteps = t.counters.get("flow.steps", 0)
    put("flow.steps", fsteps, "count")
    put("flow.step_us", per_call(metric_s + potential_s, fsteps, 1e6), "us")
    put("flow.metric_s", metric_s, "s")
    put("flow.potential_s", potential_s, "s")
    put("flow.cfl_s", t.seconds("flow.cfl_for_state"), "s")

    # curvature
    for short in ("hsc_max", "nabla_bar_torsion_norm"):
        name = f"curvature.{short}"
        calls = t.calls(name)
        put(f"{name}_ms", per_call(t.seconds(name), calls, 1e3), "ms")
        put(f"{name}_calls", calls, "count")
    put("curvature.chern_curvature_calls", t.calls("curvature.chern_curvature"), "count")

    # cutoff
    put("cutoff.frakF_sweep_s", t.seconds("cutoff.frakF_properties_check"), "s")
    put("cutoff.completion_s", t.seconds("cutoff.conformal_completion"), "s")
    put("cutoff.derivative_calls", t.calls("cutoff.FrakF.derivative"), "count")
    put("cutoff.quad_calls", t.calls("cutoff.quad"), "count")
    put("cutoff.phi_eval_calls", t.calls("cutoff.phi_eval"), "count")

    # traces, metrics
    put("traces.royden_check_us", per_call(t.seconds("traces.royden_check"),
                                           t.calls("traces.royden_check"), 1e6), "us")
    put("metrics.d2_calls", t.calls("metrics.d2"), "count")
    return out


# ---------------------------------------------------------------------------
# standalone loops of the radial operator
# ---------------------------------------------------------------------------

def _median_us(fn, calls, batches=5):
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls * 1e6)
    return float(np.median(times))


def radial_loops(radial, calls=2000):
    """us per `ddbar` call at the suite's and criterion 05's grid sizes, and
    per right-hand side at 512 nodes (order 6, Dirichlet ghosts)."""
    out = {}
    rhs_us = None
    for nodes, r_max in ((96, 0.85), (128, 0.95), (512, 0.8)):
        grid = radial.RadialGrid(r_max, nodes, 6)
        u = np.log(radial.poincare_lambda(grid.r))
        ghosts = np.log(radial.poincare_lambda(grid.outer_ghost_radii()))
        out[f"radial.ddbar_us.n{nodes}"] = {
            "value": _median_us(lambda: grid.ddbar(u, ghosts), calls), "unit": "us"}
        if nodes == 512:
            lam = radial.homothety_lambda(grid.r, 0.1)
            blog = lambda r, t: np.log(radial.homothety_lambda(r, t))
            rhs_us = _median_us(lambda: radial.radial_rhs(grid, lam, 0.1, blog), calls)
    out["radial.rhs_us.n512"] = {"value": rhs_us, "unit": "us"}
    return out
