"""One benchmark process: import crflow, build a workload, time its rounds.

Started by `run.py`, which passes the monotonic time at which it started this
process (`--t0`), so that `setup_s` counts the interpreter's start, the import
of crflow (with numpy, scipy and click) and the building of the inputs.

Untraced: whole rounds, at least one, while the next round is expected to
end within `--seconds` of the first one's start; `wall_s` is the median
round.  Traced: one untraced round, then the wrappers of
`layers.py` are installed and one traced round runs; the per-layer metrics
come from the traced round, and `trace.overhead_s` is the difference of the
two rounds' wall times.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
import traceback

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CRFLOW_MODULES = ("scenarios", "cli", "radial", "flow", "estimates", "artifacts",
                  "curvature", "cutoff", "traces", "metrics")


class Crflow:
    """The crflow modules, imported from this checkout's `src`."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        sys.path.insert(0, src)
        for name in CRFLOW_MODULES:
            setattr(self, name, importlib.import_module(f"crflow.{name}"))
        where = os.path.dirname(self.radial.__file__)
        if os.path.commonpath([where, src]) != src:
            raise ImportError(f"crflow was imported from {where}, not from {src}")

    def modules(self):
        return {name: getattr(self, name) for name in CRFLOW_MODULES}


def timed_round(workload):
    """One round: (wall seconds, failed ops, problems).  An exception from
    the program fails every operation of the round."""
    t0 = time.perf_counter()
    try:
        outputs = workload.run()
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, workload.ops, []
    wall = time.perf_counter() - t0
    failed, problems = workload.check(outputs)
    return wall, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    cr = Crflow()
    scratch = os.path.join(ROOT, ".perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](cr, args.seed, scratch)
    setup_s = time.monotonic() - args.t0

    walls, attempted, failed, problems = [], 0, 0, []

    def one_round():
        nonlocal attempted, failed
        wall, f, p = timed_round(workload)
        walls.append(wall)
        attempted += workload.ops
        failed += f
        problems.extend(p)
        return wall

    if args.trace:
        metrics = layers.radial_loops(cr.radial)
        untraced = one_round()
        tracer = layers.Tracer()
        layers.install(tracer, cr.modules())
        traced = one_round()
        names = [c["scenario_name"] for c in workloads.bundled_configs(cr)[1]]
        metrics.update(layers.layer_metrics(tracer, names))
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    else:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
            one_round()
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    try:
        os.rmdir(scratch)
    except OSError:
        pass
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
