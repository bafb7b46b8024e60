"""crflow's benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: suite, homothety-512, torus,
pointwise (see perfbench/README.md).  This launcher imports only the standard
library.  It starts `worker.py` in a new interpreter, with BLAS threads capped
at the number of usable cores, and times it from outside: `setup_s` runs from
the moment the worker is started, and `peak_rss_mb` is the worker's peak
resident set as the kernel reports it for waited-for children.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under `--trace 0` and the per-layer metrics under
`--trace 1`.  Without `src/crflow` in the checkout it exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "homothety-512", "torus", "pointwise")
TIMEOUT_S = 170


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crflow", "__init__.py")):
        print(f"perfbench: no src/crflow under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # write nothing outside the checkout
    env.pop("PYTHONPATH", None)            # crflow comes from this checkout's src
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss is in KiB on Linux
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
