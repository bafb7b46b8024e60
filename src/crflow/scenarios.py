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
import os
import time

import numpy as np

from . import artifacts, estimates, radial as RD
from .errors import ConfigError, FlowBreakdownError, ManifestError
from .flow import ddbar_periodic, run_torus_flow
from .metrics import resolve_metric

KINDS = ("radial", "two-phase-normalized", "radial-normalized", "torus")

INITIALS = ("poincare", "perturbed-poincare", "hyperbolic-ke", "flat", "bumpy",
            "fubini-cap")

BOUNDARIES = ("exact-homothety", "exact-ke", "extrapolate")

CHECKS = ("exact-homothety-tracking", "flat-stationarity", "scalar-lower-bound",
          "trace-barrier", "potential-monotonicity", "ke-convergence",
          "ke-expected-divergence", "scalar-evolution", "potential-equivalence",
          "trace-identity")

DEFAULTS = {
    "seed": 0,
    "metrics": {"g0": "poincare-disk", "h": "poincare-disk"},
    "flow": {
        "safety": 1.0,
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
    "barrier": {"alpha": 1.0, "beta": 0.0, "k": 0.0, "kappa0": 1.0,
                "c1": 1.0, "c2": 1.0},
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


CHART_KEYS = ("complex_dimension", "topology", "grid_resolution", "r_max",
              "box_length")


def _unknown_keys(raw):
    """One violation per key that no default, chart field or top-level
    field names, e.g. a misspelt `flow.safety` that would silently run at
    its default."""
    sections = {k: v for k, v in DEFAULTS.items() if isinstance(v, dict)}
    sections["chart"] = dict.fromkeys(CHART_KEYS)
    known = {"scenario_name", "kind", "checks", "output", *sections, *DEFAULTS}
    errs = []
    for key, value in raw.items():
        if key not in known:
            errs.append(f"unknown key {key!r}")
        elif key in sections and isinstance(value, dict):
            errs.extend(f"unknown key '{key}.{k}'" for k in value
                        if k not in sections[key])
    return errs


def _merge(dst, src):
    for k, v in src.items():
        if isinstance(v, dict) and isinstance(dst.get(k), dict):
            _merge(dst[k], v)
        else:
            dst[k] = v
    return dst


def load_config(source) -> dict:
    """Parse + validate a scenario config (path or dict); returns the merged
    config with every default made explicit.  Raises ConfigError listing all
    violations."""
    if isinstance(source, str):
        with open(source) as f:
            raw = json.load(f)
    else:
        raw = copy.deepcopy(source)
    cfg = copy.deepcopy(DEFAULTS)
    _merge(cfg, raw)

    errs = _unknown_keys(raw)
    name = cfg.get("scenario_name")
    if not isinstance(name, str) or not name:
        errs.append("scenario_name missing or empty")
    kind = cfg.get("kind")
    if kind not in KINDS:
        errs.append(f"kind must be one of {KINDS}, got {kind!r}")
    for slot in ("g0", "h"):
        key = cfg["metrics"].get(slot)
        try:
            if key is not None:
                resolve_metric(key)
        except KeyError:
            errs.append(f"metrics.{slot}: unknown catalog key {key!r}")
    chart = cfg.get("chart", {})
    res = chart.get("grid_resolution")
    if not isinstance(res, int) or res < 8:
        errs.append("chart.grid_resolution must be an integer >= 8")
    fl = cfg["flow"]
    if kind == "torus":
        if not chart.get("box_length"):
            errs.append("torus chart needs box_length > 0")
        if not fl.get("t_max"):
            errs.append("torus flow needs t_max > 0")
    elif kind in ("radial", "two-phase-normalized", "radial-normalized"):
        rmax = chart.get("r_max")
        if not (isinstance(rmax, (int, float)) and 0 < rmax < 1):
            errs.append("radial chart needs r_max in (0, 1)")
        if kind == "radial" and not fl.get("t_max"):
            errs.append("radial flow needs t_max > 0")
        if kind != "radial" and not fl.get("s_max"):
            errs.append(f"{kind} needs s_max > 0")
    if chart.get("complex_dimension", 1) != 1:
        errs.append("chart.complex_dimension must be 1: every flow is n = 1")
    topology = chart.get("topology")
    if kind in KINDS and topology is not None:
        want = "periodic-box" if kind == "torus" else "radial-disk"
        if topology != want:
            errs.append(f"{kind} needs chart.topology {want!r}, "
                        f"got {topology!r}")
    safety = fl.get("safety")
    if not (isinstance(safety, (int, float)) and 0 < safety <= 1):
        errs.append("flow.safety must lie in (0, 1]: cfl_bound caps larger "
                    "values at h^2 min lambda")
    if fl.get("boundary") not in BOUNDARIES:
        errs.append(f"flow.boundary must be one of {BOUNDARIES}")
    if fl.get("initial") not in INITIALS:
        errs.append(f"flow.initial must be one of {INITIALS}")
    if fl.get("order") not in (4, 6):
        errs.append("flow.order must be 4 or 6")
    for c in cfg.get("checks", []):
        if c not in CHECKS:
            errs.append(f"unknown check {c!r}")
    horizon = fl.get("t_max") or fl.get("s_max")
    if horizon is not None and horizon <= 0:
        errs.append("horizon must be > 0")
    if errs:
        raise ConfigError(errs)
    return cfg


def _initial_field(cfg):
    fl = cfg["flow"]
    amp = fl["perturbation_amplitude"]
    return {
        "poincare": lambda r: RD.poincare_lambda(r),
        "hyperbolic-ke": RD.ke_lambda,
        "perturbed-poincare": lambda r: RD.perturbed_poincare_lambda(r, amp),
        "flat": lambda r: np.ones_like(r),
        "bumpy": None,  # torus-only, built on the box grid
        "fubini-cap": lambda r: 1.0 / (1.0 + r**2) ** 2,
    }[fl["initial"]]


def _boundary_field(cfg):
    b = cfg["flow"]["boundary"]
    if b == "extrapolate":
        return None
    if b == "exact-homothety":
        if cfg["flow"]["initial"] == "fubini-cap":
            # positively curved cap: the exact homothety shrinks
            return lambda r, t: (1.0 - 2.0 * t) / (1.0 + r**2) ** 2
        return lambda r, t: RD.homothety_lambda(r, t)
    return lambda r, t: RD.ke_lambda(r)


def _h_lambda(cfg):
    key = cfg["metrics"]["h"]
    if key == "euclidean":
        return lambda r: np.ones_like(r)
    if key in ("poincare-disk", "hyperbolic-ke"):
        factor = 2.0 if key == "hyperbolic-ke" else 1.0
        return lambda r: RD.poincare_lambda(r, factor)
    raise ConfigError([f"h metric {key!r} has no radial profile"])


class ScenarioResult:
    def __init__(self, cfg):
        self.cfg = cfg
        self.run = None
        self.torus_frames = None
        self.torus_state = None
        self.phase1 = None
        self.checks = []
        self.broken = False
        self.breakdown = None

    @property
    def passed(self):
        return (not self.broken) and all(c.satisfied for c in self.checks)


def _torus_datum(cfg):
    """lam0 on the torus config's N x N box grid: the bumpy
    exp(a cos(2 pi x/L) cos(2 pi y/L)), else flat."""
    fl = cfg["flow"]
    res = cfg["chart"]["grid_resolution"]
    L = cfg["chart"]["box_length"]
    if fl["initial"] != "bumpy":
        return np.ones((res, res))
    x = np.arange(res) * (L / res)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.exp(fl["perturbation_amplitude"] * np.cos(2 * np.pi * X / L)
                  * np.cos(2 * np.pi * Y / L))


def _execute_flow(cfg, result: ScenarioResult):
    fl = cfg["flow"]
    res = cfg["chart"]["grid_resolution"]
    kind = cfg["kind"]
    if kind == "torus":
        L = cfg["chart"]["box_length"]
        state, frames = run_torus_flow(_torus_datum(cfg), L, fl["t_max"],
                                       safety=fl["safety"],
                                       frame_dt=fl["frame_dt"])
        result.torus_state, result.torus_frames = state, frames
        return
    rmax = cfg["chart"]["r_max"]
    init = _initial_field(cfg)
    bnd = _boundary_field(cfg)
    href = _h_lambda(cfg)
    if kind == "radial":
        result.run = RD.run_radial_flow(
            init, rmax, fl["t_max"], nodes=res, boundary=bnd,
            safety=fl["safety"], order=fl["order"], frame_dt=fl["frame_dt"],
            h_reference=href, min_eig_floor=fl["min_eig_floor"])
    elif kind == "radial-normalized":
        result.run = RD.run_normalized_radial(
            init, rmax, fl["s_max"], nodes=res, boundary=bnd,
            safety=fl["safety"], order=fl["order"], frame_ds=fl["frame_dt"],
            h_reference=href, min_eig_floor=fl["min_eig_floor"])
    else:  # two-phase-normalized
        phase1 = RD.run_radial_flow(
            init, rmax, fl["phase1_t"], nodes=res, boundary=bnd,
            safety=fl["safety"], order=fl["order"],
            frame_dt=fl["phase1_t"] / 20.0, h_reference=href,
            min_eig_floor=fl["min_eig_floor"])
        result.phase1 = phase1
        if phase1.broken:
            result.broken, result.breakdown = True, phase1.breakdown
            return
        bnd2 = (lambda r, s: RD.ke_lambda(r)) if bnd is not None else None
        result.run = RD.run_normalized_radial(
            phase1.frames[-1].lam, rmax, fl["s_max"], nodes=res, boundary=bnd2,
            safety=fl["safety"], order=fl["order"], frame_ds=fl["frame_dt"],
            h_reference=href, min_eig_floor=fl["min_eig_floor"])
    if result.run is not None and result.run.broken:
        result.broken, result.breakdown = True, result.run.breakdown


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _chk_tracking(cfg, result):
    tol = cfg["tolerances"]["tracking"]
    interior = cfg["tolerances"]["tracking_interior"]
    run = result.phase1 or result.run
    mask = run.grid.r <= interior
    worst, where = 0.0, None
    for fr in run.frames:
        exact = RD.homothety_lambda(run.grid.r, fr.time)
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
    if result.run is not None or result.phase1 is not None:
        reports = []
        for run in (result.phase1, result.run):
            if run is None or run.normalized:
                continue
            reports.append(estimates.scalar_lower_bound_check(run, tol))
        if reports:
            worst = min(reports, key=lambda r: r.worst_slack)
            return worst
    # torus variant
    h = cfg["chart"]["box_length"] / result.torus_frames[0][1].shape[0]
    worst, where = np.inf, None
    for t, lam, _ in result.torus_frames:
        R = -ddbar_periodic(np.log(lam), h) / lam
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
                                result.torus_frames[-1][0], mode="potential",
                                safety=cfg["flow"]["safety"])
    diff = float(np.max(np.abs(state_p.omega_t - lam_m)))
    return estimates._report("potential-equivalence", tol - diff, ("final",),
                             0.0, lam_m.size, sup_difference=diff,
                             tolerance_level=tol)


def _chk_trace_identity(cfg, result):
    tol = cfg["tolerances"]["trace_identity"]
    run = result.phase1 or result.run
    h_kind = "poincare" if cfg["metrics"]["h"] in ("poincare-disk",
                                                   "hyperbolic-ke") else "euclidean"
    out = estimates.trace_identity_on_run(run, h_kind)
    worst = out["max_residual"]
    return estimates._report("trace-identity", tol - worst, ("max",), 0.0,
                             len(out["frames"]), max_residual=worst,
                             tolerance_level=tol, h_kind=h_kind)


_CHECK_FNS = {
    "exact-homothety-tracking": _chk_tracking,
    "flat-stationarity": _chk_stationarity,
    "scalar-lower-bound": _chk_scalar_lower,
    "trace-barrier": _chk_barrier,
    "potential-monotonicity": _chk_monotonicity,
    "ke-convergence": lambda c, r: _chk_ke(c, r, False),
    "ke-expected-divergence": lambda c, r: _chk_ke(c, r, True),
    "scalar-evolution": _chk_scalar_evolution,
    "potential-equivalence": _chk_equivalence,
    "trace-identity": _chk_trace_identity,
}


# ---------------------------------------------------------------------------
# run + report
# ---------------------------------------------------------------------------

def _csv_rows(result: ScenarioResult):
    rows = []
    if result.torus_frames is not None:
        lam0 = result.torus_frames[0][1]
        L_h = result.torus_state.h
        for i, (t, lam, _) in enumerate(result.torus_frames):
            R = -ddbar_periodic(np.log(lam), L_h) / lam
            rows.append({"step": i, "time": t,
                         "sup_lambda": float(np.max(lam0 / lam)),
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
            result.checks.append(_CHECK_FNS[name](cfg, result))
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
