"""Declarative scenario configs, run orchestration, and artifact emission.

A scenario is one JSON document; `run_scenario` executes its flow, evaluates
its checks, and writes `run.csv` + `report.json` (deterministic bytes for a
fixed config and seed) plus `timing.json` (wall time; excluded from the
determinism guarantee).  `verify_all` runs a manifest of scenarios and
aggregates a master verification table.
"""
from __future__ import annotations

import copy
import json
import math
import os
import time

import numpy as np

from . import artifacts, estimates, radial as RD
from .errors import ConfigError, FlowBreakdownError, ManifestError
from .flow import run_torus_flow, scalar_curvature_periodic

KINDS = ("radial", "two-phase-normalized", "radial-normalized", "torus")

# flow.initial -> datum, the one place a datum is defined, a being
# flow.perturbation_amplitude.  Radial: (lam0(r, a), its exact unnormalized
# flow lam(r, t), the least r_max at which that flow gives exact ghosts: the
# perturbed datum's is Poincare's, off its bump, which ends at r = 0.8; the
# radius at which that flow is singular, math.inf if it is nowhere).
# Torus: lam0(X, Y, L, a) on the box grid.
RADIAL_DATA = {
    "poincare": (lambda r, a: RD.poincare_lambda(r), RD.homothety_lambda, 0.0,
                 1.0),
    "perturbed-poincare": (RD.perturbed_poincare_lambda, RD.homothety_lambda,
                           0.8, 1.0),
    "hyperbolic-ke": (lambda r, a: RD.ke_lambda(r),
                      lambda r, t: RD.homothety_lambda(r, t + 0.5), 0.0, 1.0),
    "fubini-cap": (lambda r, a: RD.fubini_cap_lambda(r), RD.fubini_cap_lambda,
                   0.0, math.inf),
    "flat": (lambda r, a: np.ones_like(r), lambda r, t: np.ones_like(r), 0.0,
             math.inf),
}
TORUS_DATA = {
    "flat": lambda X, Y, L, a: np.ones_like(X),
    "bumpy": lambda X, Y, L, a: np.exp(a * np.cos(2 * np.pi * X / L)
                                       * np.cos(2 * np.pi * Y / L)),
}

# metrics.h -> (lam_h(r), the kinds it fits), the one place the reference
# metric h = lam_h |dz|^2 is defined: the trace barrier, the trace identity
# and the CSV's sup_lambda = tr_g h all read it.  The torus is flat, and
# fits the flat h only.
_RADIAL = ("radial", "two-phase-normalized", "radial-normalized")
H_METRICS = {
    "euclidean": (lambda r: np.ones_like(r), KINDS),
    "poincare-disk": (RD.poincare_lambda, _RADIAL),
    "hyperbolic-ke": (RD.ke_lambda, _RADIAL),
}

# flow.boundary -> (cfg -> the field lam(r, t) that a radial run's ghosts
# take), the one place a ghost field is defined and the one place it is
# declared steady: the run's exact flow, the KE profile, which does not
# depend on time and so is a `radial.Steady` that a run evaluates once, or
# None, to extrapolate.  Phase 2 of a two-phase run takes the KE ghosts.
GHOSTS = {
    "exact-homothety": lambda cfg: _exact_flow(cfg),
    "exact-ke": lambda cfg: RD.Steady(RD.ke_lambda),
    "extrapolate": lambda cfg: None,
}
BOUNDARIES = tuple(GHOSTS)

DEFAULTS = {
    "seed": 0,
    "metrics": {"h": "poincare-disk"},
    "flow": {
        "order": 4,
        "frame_dt": None,
        "boundary": "extrapolate",
        "initial": "poincare",
        "perturbation_amplitude": 0.1,
        "phase1_t": 1.0,
        "t_max": None,
        "s_max": None,
        "min_eig_floor": 1e-10,
    },
    "barrier": {"alpha": 1.0, "beta": 0.0, "kappa0": 1.0, "c1": 1.0,
                "c2": 1.0},
    "tolerances": {
        "tracking": 1e-6,
        "tracking_interior": 0.85,
        "stationarity": 1e-12,
        "scalar_lower_bound": 1e-2,
        "monotonicity_prime": 1e-8,
        "monotonicity_slack_per_ds": 1e-6,
        "ke_residual": 1e-3,
        "ke_error": 1e-3,
        "equivalence": 1e-8,
        "scalar_evolution": 1e-2,
        "trace_identity": 1e-4,
    },
}


# the chart fields, each with a value of its type (not merged, unlike DEFAULTS)
CHART_KEYS = {"complex_dimension": 1, "topology": "radial-disk",
              "grid_resolution": 8, "r_max": 0.5, "box_length": 1.0}


def _fits(value, default):
    """Whether `value` has the type that its default declares: a string, a
    list of strings, an integer, a number for a float, and a number or null
    for None; a bool is not a number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(isinstance(c, str)
                                               for c in value)
    if isinstance(default, str):
        return isinstance(value, str)
    if value is None or isinstance(value, bool):
        return value is default
    return isinstance(value, int if isinstance(default, int) else (int, float))


def _shape_errors(raw):
    """(unknown, mistyped) violations: one per key that no default, chart
    field or top-level field names (a misspelt `flow.frame_dt` would run at its
    default), one per section that is not an object or value unfit for its
    default's type, and one per number that is not finite: `json.load` reads
    NaN and +-Infinity, which would run a flow forever, pass any tolerance
    and make report.json non-strict JSON."""
    top = {**DEFAULTS, "chart": CHART_KEYS, "scenario_name": "", "kind": "",
           "output": "", "checks": []}
    unknown, mistyped = [], []

    def walk(section, fields, prefix):
        for k, v in section.items():
            path = f"{prefix}{k}"
            if k not in fields:
                unknown.append(f"unknown key {path!r}")
            elif isinstance(fields[k], dict):
                if isinstance(v, dict):
                    walk(v, fields[k], path + ".")
                else:
                    mistyped.append(f"{path} must be an object, got {v!r}")
            elif not _fits(v, fields[k]):
                mistyped.append(f"{path} has the wrong type: {v!r} "
                                f"(default {fields[k]!r})")
            elif isinstance(v, float) and not math.isfinite(v):
                mistyped.append(f"{path} must be a finite number, got {v!r}")
    walk(raw, top, "")
    return unknown, mistyped


def load_config(source) -> dict:
    """Parse + validate a scenario config (path or dict); returns the merged
    config with every default made explicit.  Raises ConfigError, and
    nothing else, listing all violations; a value of the wrong type, or a
    number that is not finite, stops it before the values are checked."""
    if isinstance(source, str):
        try:
            with open(source) as f:
                raw = json.load(f)
        except (OSError, ValueError) as e:
            raise ConfigError([f"cannot read {source!r}: {e}"]) from None
    else:
        raw = copy.deepcopy(source)
    if not isinstance(raw, dict):
        raise ConfigError([f"config must be an object, got {raw!r}"])
    errs, mistyped = _shape_errors(raw)
    if mistyped:
        raise ConfigError(errs + mistyped)
    cfg = copy.deepcopy(DEFAULTS)
    for key, value in raw.items():      # an object is a section by now
        cfg[key] = ({**cfg.get(key, {}), **value} if isinstance(value, dict)
                    else value)

    if not cfg.get("scenario_name"):
        errs.append("scenario_name missing or empty")
    kind, fl, chart = cfg.get("kind"), cfg["flow"], cfg.get("chart", {})
    if kind not in KINDS:
        errs.append(f"kind must be one of {KINDS}, got {kind!r}")
    if not chart.get("grid_resolution", 0) >= 8:
        errs.append("chart.grid_resolution must be an integer >= 8")
    data = TORUS_DATA if kind == "torus" else RADIAL_DATA
    if kind in KINDS and fl["initial"] not in data:
        errs.append(f"flow.initial for {kind} must be one of {tuple(data)}, "
                    f"got {fl['initial']!r}")
    # the horizons a kind runs to
    horizons = {"two-phase-normalized": ("phase1_t", "s_max"),
                "radial-normalized": ("s_max",)}.get(kind, ("t_max",))
    errs.extend(f"{kind} needs flow.{key} > 0" for key in horizons
                if kind in KINDS and not (fl[key] or 0) > 0)
    if not (fl["frame_dt"] or 1) > 0:       # null and 0 take the default
        errs.append("flow.frame_dt must be > 0 or null")
    if kind == "torus" and not chart.get("box_length", 0) > 0:
        errs.append("torus chart needs box_length > 0")
    if kind in KINDS and kind != "torus":
        rmax, nodes = chart.get("r_max", 0), chart.get("grid_resolution", 0)
        if not 0 < rmax < 1:
            errs.append("radial chart needs r_max in (0, 1)")
        elif (fl["boundary"] == "exact-homothety" and fl["initial"] in data
              and rmax < data[fl["initial"]][2]):
            errs.append(f"exact-homothety ghosts of {fl['initial']} need "
                        f"r_max >= {data[fl['initial']][2]}")
        elif (nodes >= 8 and fl["boundary"] in BOUNDARIES
              and fl["initial"] in data and fl["order"] in (4, 6)):
            errs.extend(_ghost_errors(cfg))
        first = 0.5 * (rmax / nodes) if nodes >= 8 else 0.0   # as RadialGrid
        if 0 < rmax < 1 and cfg["tolerances"]["tracking_interior"] < first:
            errs.append(f"tolerances.tracking_interior must be >= the first "
                        f"node r = {first!r}: below it the tracking check "
                        f"reads no node")
    if chart.get("complex_dimension", 1) != 1:
        errs.append("chart.complex_dimension must be 1: every flow is n = 1")
    want = "periodic-box" if kind == "torus" else "radial-disk"
    if kind in KINDS and chart.get("topology", want) != want:
        errs.append(f"{kind} needs chart.topology {want!r}, "
                    f"got {chart['topology']!r}")
    if fl["boundary"] not in BOUNDARIES:
        errs.append(f"flow.boundary must be one of {BOUNDARIES}")
    if fl["order"] not in (4, 6):
        errs.append("flow.order must be 4 or 6")
    bar = cfg["barrier"]
    errs.extend(f"barrier.{e}" for e in
                estimates.BarrierConfig.violations(bar["alpha"], bar["beta"]))
    h = cfg["metrics"]["h"]
    if h not in H_METRICS:
        errs.append(f"metrics.h must be one of {tuple(H_METRICS)}, got {h!r}")
    elif kind in KINDS and kind not in H_METRICS[h][1]:
        errs.append(f"metrics.h {h!r} does not fit kind {kind!r}: it fits "
                    f"{', '.join(H_METRICS[h][1])}")
    for c in cfg.get("checks", []):
        if c not in CHECKS:
            errs.append(f"unknown check {c!r}")
        elif kind in KINDS and kind not in CHECKS[c][0]:
            errs.append(f"check {c!r} does not fit kind {kind!r}: it runs on "
                        f"{', '.join(CHECKS[c][0])}")
    if errs:
        raise ConfigError(errs)
    return cfg


def _outer_ghost(rmax, nodes, order):
    """The outermost ghost radius of a radial grid, placed as `RadialGrid`
    places it: r_max (1 + (order/2 - 1/2) / nodes)."""
    return rmax + (order // 2 - 0.5) * (rmax / nodes)


def _ghost_errors(cfg):
    """[] if a radial config's outer ghosts lie below the radius at which
    the field they take is singular, else the one violation, naming the
    least grid_resolution that fits.  The exact flows of the Poincare data
    and the KE profile (the exact-ke ghosts, and phase 2's in a two-phase
    run with given ghosts) blow up at r = 1; past it they come back finite
    but wrong."""
    fl, chart = cfg["flow"], cfg["chart"]
    if fl["boundary"] == "extrapolate":
        return []
    singular = RADIAL_DATA["hyperbolic-ke"][3]      # the KE profile's
    if fl["boundary"] == "exact-homothety":
        own = RADIAL_DATA[fl["initial"]][3]
        singular = (min(own, singular) if cfg["kind"] == "two-phase-normalized"
                    else own)
    rmax, nodes, order = chart["r_max"], chart["grid_resolution"], fl["order"]
    if _outer_ghost(rmax, nodes, order) < singular:
        return []
    # the outer ghost falls as N grows: double N until it fits, then bisect
    # (stepping N by one would not end where r_max is an ulp below 1)
    lo, least = nodes, 2 * nodes
    while _outer_ghost(rmax, least, order) >= singular:
        lo, least = least, 2 * least
    while least - lo > 1:
        mid = (lo + least) // 2
        if _outer_ghost(rmax, mid, order) >= singular:
            lo = mid
        else:
            least = mid
    return [f"the outermost {fl['boundary']} ghost sits at r = "
            f"{_outer_ghost(rmax, nodes, order)!r}, at or past r = "
            f"{singular!r}, where its field is singular: "
            f"chart.grid_resolution must be >= {least} at r_max {rmax!r} "
            f"and order {order}"]


def _exact_flow(cfg):
    """The exact flow lam(r, t) of a radial config's first run: its datum's
    unnormalized flow, or, on a radial-normalized run, e^-s lam(r, e^s - 1),
    the exact normalized flow of any datum."""
    exact = RADIAL_DATA[cfg["flow"]["initial"]][1]
    if cfg["kind"] == "radial-normalized":
        return lambda r, s: np.exp(-s) * exact(r, np.expm1(s))
    return exact


def _radial_datum(cfg):
    """lam0(r) of a radial config's datum, and the field lam(r, t) its
    ghosts take: the run's exact flow, the KE profile, or None to
    extrapolate."""
    fl = cfg["flow"]
    profile = RADIAL_DATA[fl["initial"]][0]
    return ((lambda r: profile(r, fl["perturbation_amplitude"])),
            GHOSTS[fl["boundary"]](cfg))


class ScenarioResult:
    def __init__(self, cfg):
        self.cfg = cfg
        self.run = None
        self.torus_frames = None
        self.phase1 = None
        self.checks = []
        self.broken = False
        self.breakdown = None

    @property
    def passed(self):
        return (not self.broken) and all(c.satisfied for c in self.checks)


def _torus_datum(cfg):
    """lam0 of a torus config's datum on its N x N box grid."""
    res = cfg["chart"]["grid_resolution"]
    L = cfg["chart"]["box_length"]
    x = np.arange(res) * (L / res)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return TORUS_DATA[cfg["flow"]["initial"]](
        X, Y, L, cfg["flow"]["perturbation_amplitude"])


def _execute_flow(cfg, result: ScenarioResult):
    fl = cfg["flow"]
    res = cfg["chart"]["grid_resolution"]
    kind = cfg["kind"]
    if kind == "torus":
        L = cfg["chart"]["box_length"]
        _, result.torus_frames = run_torus_flow(
            _torus_datum(cfg), L, fl["t_max"], frame_dt=fl["frame_dt"])
        return
    rmax = cfg["chart"]["r_max"]
    init, bnd = _radial_datum(cfg)
    common = dict(nodes=res, order=fl["order"],
                  h_reference=H_METRICS[cfg["metrics"]["h"]][0],
                  min_eig_floor=fl["min_eig_floor"])
    if kind == "radial":
        result.run = RD.run_radial_flow(init, rmax, fl["t_max"], boundary=bnd,
                                        frame_dt=fl["frame_dt"], **common)
    elif kind == "radial-normalized":
        result.run = RD.run_normalized_radial(
            init, rmax, fl["s_max"], boundary=bnd, frame_ds=fl["frame_dt"],
            **common)
    else:  # two-phase-normalized, phase 2 from phase 1's last frame
        phase1 = result.phase1 = RD.run_radial_flow(
            init, rmax, fl["phase1_t"], boundary=bnd,
            frame_dt=fl["phase1_t"] / 20.0, **common)
        if not phase1.broken:
            bnd2 = GHOSTS["exact-ke"](cfg) if bnd is not None else None
            result.run = RD.run_normalized_radial(
                phase1.frames[-1].lam, rmax, fl["s_max"], boundary=bnd2,
                frame_ds=fl["frame_dt"], **common)
    for run in (result.phase1, result.run):
        if run is not None and run.broken:
            result.broken, result.breakdown = True, run.breakdown


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _chk_tracking(cfg, result):
    tol = cfg["tolerances"]["tracking"]
    interior = cfg["tolerances"]["tracking_interior"]
    run = result.phase1 or result.run
    flow = _exact_flow(cfg)
    mask = run.grid.r <= interior
    worst, where = 0.0, None
    for fr in run.frames:
        exact = flow(run.grid.r, fr.time)
        rel = np.abs(fr.lam - exact)[mask] / exact[mask]
        i = int(np.argmax(rel))
        if rel[i] > worst:
            worst, where = float(rel[i]), ("t", fr.time, "r",
                                           float(run.grid.r[mask][i]))
    return estimates._report("exact-homothety-tracking", tol - worst, where,
                             0.0, len(run.frames), max_rel_error=worst,
                             tolerance_level=tol)


def _chk_stationarity(cfg, result):
    tol = cfg["tolerances"]["stationarity"]
    drift = max(float(np.max(np.abs(lam - 1.0))) + float(np.max(np.abs(psi)))
                for _, lam, psi in result.torus_frames)
    return estimates._report("flat-stationarity", tol - drift, ("final",),
                             0.0, len(result.torus_frames), drift=drift)


def _chk_scalar_lower(cfg, result):
    tol = cfg["tolerances"]["scalar_lower_bound"]
    reports = [estimates.scalar_lower_bound_check(run, tol)
               for run in (result.phase1, result.run)
               if run is not None and not run.normalized]
    if reports:
        return min(reports, key=lambda r: r.worst_slack)
    # torus variant
    h = cfg["chart"]["box_length"] / result.torus_frames[0][1].shape[0]
    worst, where = np.inf, None
    for t, lam, _ in result.torus_frames:
        R = scalar_curvature_periodic(lam, h)
        m = float(np.min(t * R + 1.0))
        if m < worst:
            worst, where = m, ("t", t)
    return estimates._report("scalar-lower-bound", worst, where, tol,
                             len(result.torus_frames))


def _chk_barrier(cfg, result):
    bc = estimates.BarrierConfig(n=1, **cfg["barrier"])
    run = result.phase1 or result.run
    return estimates.trace_barrier_check(run, bc)


def _chk_monotonicity(cfg, result):
    tol = cfg["tolerances"]
    return estimates.potential_monotonicity_check(
        result.run, tol["monotonicity_prime"], tol["monotonicity_slack_per_ds"])


def _chk_ke(cfg, result, expect=False):
    tol = cfg["tolerances"]
    exact = RD.ke_lambda if not expect else None
    return estimates.ke_convergence_check(
        result.run, exact, tol["ke_residual"], tol["ke_error"],
        expect_divergence=expect)


def _chk_scalar_evolution(cfg, result):
    tol = cfg["tolerances"]["scalar_evolution"]
    if result.torus_frames is not None:
        return estimates.scalar_evolution_residual_torus(
            result.torus_frames, cfg["chart"]["box_length"], tol)
    run = result.phase1 or result.run
    return estimates.scalar_evolution_residual_radial(run, tolerance=tol)


def _chk_equivalence(cfg, result):
    """Metric-form vs potential-form torus runs from identical data."""
    tol = cfg["tolerances"]["equivalence"]
    lam_m = result.torus_frames[-1][1]
    state_p, _ = run_torus_flow(_torus_datum(cfg), cfg["chart"]["box_length"],
                                result.torus_frames[-1][0], mode="potential")
    diff = float(np.max(np.abs(state_p.omega_t - lam_m)))
    return estimates._report("potential-equivalence", tol - diff, ("final",),
                             0.0, lam_m.size, sup_difference=diff,
                             tolerance_level=tol)


def _chk_trace_identity(cfg, result):
    tol = cfg["tolerances"]["trace_identity"]
    out = estimates.trace_identity_on_run(result.phase1 or result.run)
    worst = out["max_residual"]
    return estimates._report("trace-identity", tol - worst, ("max",), 0.0,
                             len(out["frames"]), max_residual=worst,
                             relative_residual=out["relative_residual"],
                             tolerance_level=tol)


# check -> (the kinds whose runs it reads, its function): the estimates along
# the unnormalized flow need an unnormalized radial run (a two-phase run's
# first phase) or the torus, and the potential and KE checks a normalized run
_UNNORMALIZED = ("radial", "two-phase-normalized")
_NORMALIZED = ("two-phase-normalized", "radial-normalized")
CHECKS = {
    "exact-homothety-tracking": (_RADIAL, _chk_tracking),
    "flat-stationarity": (("torus",), _chk_stationarity),
    "scalar-lower-bound": (_UNNORMALIZED + ("torus",), _chk_scalar_lower),
    "trace-barrier": (_UNNORMALIZED, _chk_barrier),
    "potential-monotonicity": (_NORMALIZED, _chk_monotonicity),
    "ke-convergence": (_NORMALIZED, lambda c, r: _chk_ke(c, r, False)),
    "ke-expected-divergence": (_NORMALIZED, lambda c, r: _chk_ke(c, r, True)),
    "scalar-evolution": (_UNNORMALIZED + ("torus",), _chk_scalar_evolution),
    "potential-equivalence": (("torus",), _chk_equivalence),
    "trace-identity": (_UNNORMALIZED, _chk_trace_identity),
}


# ---------------------------------------------------------------------------
# run + report
# ---------------------------------------------------------------------------

def _csv_rows(result: ScenarioResult):
    rows = []
    if result.torus_frames is not None:
        L_h = (result.cfg["chart"]["box_length"]
               / result.torus_frames[0][1].shape[0])
        for i, (t, lam, _) in enumerate(result.torus_frames):
            R = scalar_curvature_periodic(lam, L_h)
            rows.append({"step": i, "time": t,     # tr_g h, h the flat metric
                         "sup_lambda": float(np.max(1.0 / lam)),
                         "inf_tR": float(np.min(t * R)),
                         "ke_residual": "",
                         "min_eig": float(np.min(lam)),
                         "phi_prime_min": "", "phi_prime_max": ""})
        return rows
    for run in (result.phase1, result.run):
        if run is None:
            continue
        rows.extend(run.diagnostics_rows())
    return rows


def run_scenario(config, output_dir=None) -> dict:
    """Execute one scenario; returns the report dict (also written to disk
    when `output_dir` or the config's `output` is set)."""
    cfg = load_config(config)
    t0 = time.time()
    result = ScenarioResult(cfg)
    try:
        _execute_flow(cfg, result)
    except FlowBreakdownError as e:
        result.broken, result.breakdown = True, str(e)
    if not result.broken:
        for name in cfg.get("checks", []):
            report = CHECKS[name][1](cfg, result)
            report.name = name      # each report is named after its check
            result.checks.append(report)
    wall = time.time() - t0
    rows = _csv_rows(result)

    report = {
        "schema_version": artifacts.SCHEMA_VERSION,
        "scenario": cfg["scenario_name"],
        "config": cfg,
        "frames_written": len(rows),
        "broken": result.broken,
        "breakdown": result.breakdown,
        "checks": [c.to_json() for c in result.checks],
        "pass": result.passed,
    }
    errs = artifacts.validate_schema(report, artifacts.REPORT_SCHEMA)
    if errs:
        raise RuntimeError(f"report failed its own schema: {errs}")

    out = output_dir or cfg.get("output")
    if out:
        d = os.path.join(out, cfg["scenario_name"])
        artifacts.write_run_csv(os.path.join(d, "run.csv"), rows)
        artifacts.write_json(os.path.join(d, "report.json"), report)
        artifacts.write_json(os.path.join(d, "timing.json"),
                             {"wall_time_s": wall})
    return report


def verify_all(manifest_path, output_dir) -> tuple:
    """Run every scenario in a manifest; returns (exit_code, table).

    Exit codes: 0 all pass, 1 check failure, 2 config error, 3 breakdown.
    A scenario that raises yields an "(error)" row: exit code 3 for a
    FlowBreakdownError (a check's own re-run broke down), 1 otherwise; the
    remaining scenarios still run.
    """
    if not os.path.exists(manifest_path):
        raise ManifestError(f"manifest {manifest_path!r} not found")
    with open(manifest_path) as f:
        manifest = json.load(f)
    entries = manifest.get("scenarios", [])
    base = os.path.dirname(os.path.abspath(manifest_path))
    table = []
    worst = 0
    if not entries:
        print("warning: empty manifest, nothing to verify")
    for entry in entries:
        path = entry if os.path.isabs(entry) else os.path.join(base, entry)
        if not os.path.exists(path):
            raise ManifestError(f"scenario config {path!r} not found")
        try:
            report = run_scenario(path, output_dir)
        except ConfigError as e:
            table.append({"scenario": entry, "check": "(config)",
                          "slack": None, "pass": False, "detail": str(e)})
            worst = max(worst, 2)
            continue
        except Exception as e:
            table.append({"scenario": entry, "check": "(error)",
                          "slack": None, "pass": False,
                          "detail": f"{type(e).__name__}: {e}"})
            worst = max(worst, 3 if isinstance(e, FlowBreakdownError) else 1)
            continue
        if report["broken"]:
            table.append({"scenario": report["scenario"], "check": "(flow)",
                          "slack": None, "pass": False,
                          "detail": report["breakdown"]})
            worst = max(worst, 3)
        for c in report["checks"]:
            table.append({"scenario": report["scenario"], "check": c["name"],
                          "slack": c["worst_slack"], "pass": c["satisfied"]})
            if not c["satisfied"]:
                worst = max(worst, 1)
    master = {"schema_version": artifacts.SCHEMA_VERSION, "rows": table,
              "pass": worst == 0}
    errs = artifacts.validate_schema(master, artifacts.TABLE_SCHEMA)
    if errs:
        raise RuntimeError(f"master table failed its own schema: {errs}")
    if output_dir:
        artifacts.write_json(os.path.join(output_dir, "master_table.json"),
                             master)
        lines = ["scenario,check,slack,pass"]
        for row in table:
            lines.append(f"{row['scenario']},{row['check']},"
                         f"{artifacts.fmt(row['slack'])},{artifacts.fmt(row['pass'])}")
        artifacts.atomic_write_text(os.path.join(output_dir, "master_table.csv"),
                                    "\n".join(lines) + "\n")
    return worst, master


def bundled_scenario_dir():
    return os.path.join(os.path.dirname(__file__), "scenarios")


def bundled_manifest():
    return os.path.join(bundled_scenario_dir(), "suite.json")
