"""Output checks of the benchmark, independent of the program under test.

Every check compares program output against a closed form, a conserved
quantity or an integral built here; none reads a saved copy of earlier
output.  Each returns a list of problems (empty when the output is correct),
so a caller can count failures and report them.

Only numpy is imported: nothing here calls into crflow.
"""
from __future__ import annotations

import csv
import math

import numpy as np

# closed-form agreement of the bundled suite's CSV columns; they hold today to
# about 3e-9 relative, and a frame scaled by 1 + 1e-6 must fail
SUITE_REL_TOL = 1e-7
# t R on the homothety phase holds to about 4e-9 absolute (R's own stencil
# error, times t); 3e-8 still rejects a frame scaled by 1 + 1e-6 once
# |t R| >= 0.03
INF_TR_ABS_TOL = 3e-8
# criterion 05's tolerance on the 512-node homothety
HOMOTHETY_REL_TOL = 1e-8
# torus: sum(lam) is conserved (c1(T^2) = 0) and the two forms agree
AREA_REL_TOL = 1e-12
FORMS_ABS_TOL = 1e-8
SYMMETRY_REL_TOL = 1e-12
# pointwise kernels
HSC_ABS_TOL = 1e-8
ROYDEN_SLACK_FLOOR = -1e-8
FRAKF_ABS_TOL = 1e-10
GAUSS_LEGENDRE_NODES = 24   # per smooth piece of phi; exact to rounding here


# ---------------------------------------------------------------------------
# the bundled suite
# ---------------------------------------------------------------------------

def read_csv_rows(path):
    """run.csv as a list of dicts; empty cells stay '' and numbers are floats."""
    with open(path, newline="") as f:
        return [{k: (float(v) if v != "" else "") for k, v in row.items()}
                for row in csv.DictReader(f)]


def frame_count(horizon, frame_dt):
    """Frames of a run that captures t = 0, frame_dt, ..., horizon."""
    return int(round(horizon / frame_dt)) + 1


def expected_rows(cfg):
    """Row count of a scenario's run.csv, from its horizon and frame step.

    Returns (phase-1 rows, total rows); phase 1 is the unnormalized phase of
    a two-phase run (frames every phase1_t/20) and 0 otherwise.
    """
    fl = cfg["flow"]
    kind = cfg["kind"]
    if kind == "torus":
        return 0, frame_count(fl["t_max"], fl.get("frame_dt") or fl["t_max"] / 20.0)
    if kind == "radial":
        return 0, frame_count(fl["t_max"], fl.get("frame_dt") or fl["t_max"] / 50.0)
    phase2 = frame_count(fl["s_max"], fl.get("frame_dt") or fl["s_max"] / 50.0)
    if kind == "radial-normalized":
        return 0, phase2
    return 21, 21 + phase2


def _rel(value, exact):
    return abs(value - exact) / abs(exact)


def check_scenario_rows(cfg, rows):
    """Check one scenario's run.csv rows against closed forms.

    `cfg` is the scenario's JSON document (defaults may be missing: the
    bundled configs state every field that enters here).
    """
    name = cfg["scenario_name"]
    fl = cfg["flow"]
    kind = cfg["kind"]
    problems = []
    n1, total = expected_rows(cfg)
    if len(rows) != total:
        return [f"{name}: {len(rows)} rows, expected {total}"]
    initial = fl.get("initial", "poincare")
    boundary = fl.get("boundary", "extrapolate")
    if kind == "torus":
        if initial == "flat":
            for row in rows:
                if abs(row["min_eig"] - 1.0) > SUITE_REL_TOL:
                    problems.append(f"{name}: min_eig {row['min_eig']!r} != 1 "
                                    f"at t={row['time']!r}")
        return problems
    h = cfg["chart"]["r_max"] / cfg["chart"]["grid_resolution"]
    inner = (1.0 - (h / 2.0) ** 2) ** -2   # Poincare factor at r = h/2
    if kind == "two-phase-normalized" and initial == "poincare" \
            and boundary == "exact-homothety":
        # phase 1 is the homothety lam = (1 + 2t)(1 - r^2)^-2: its minimum
        # sits at the innermost node and t R = -2t/(1 + 2t) everywhere
        for row in rows[:n1]:
            t = row["time"]
            if _rel(row["min_eig"], (1.0 + 2.0 * t) * inner) > SUITE_REL_TOL:
                problems.append(f"{name}: phase-1 min_eig {row['min_eig']!r} "
                                f"off the homothety at t={t!r}")
            if abs(row["inf_tR"] + 2.0 * t / (1.0 + 2.0 * t)) > INF_TR_ABS_TOL:
                problems.append(f"{name}: phase-1 inf_tR {row['inf_tR']!r} "
                                f"!= -2t/(1+2t) at t={t!r}")
        # phase 2 holds KE ghosts and converges to the KE profile
        # 2 (1 - r^2)^-2 (the perturbed disk, still 5e-7 away at s = 12, is
        # left to the program's own ke-convergence verdict)
        if "ke-convergence" in cfg.get("checks", []) \
                and _rel(rows[-1]["min_eig"], 2.0 * inner) > SUITE_REL_TOL:
            problems.append(f"{name}: final min_eig {rows[-1]['min_eig']!r} "
                            f"!= KE value {2.0 * inner!r}")
    if kind == "radial-normalized" and initial == "flat":
        # d_s lam = -lam on flat data: lam = e^-s at every node
        for row in rows:
            s = row["time"]
            if _rel(row["min_eig"], math.exp(-s)) > SUITE_REL_TOL:
                problems.append(f"{name}: min_eig {row['min_eig']!r} != e^-s "
                                f"at s={s!r}")
    return problems


def check_master(code, master):
    """The program's own verdict: exit code 0 and every table row passing."""
    problems = []
    if code != 0:
        problems.append(f"verify_all exit code {code}")
    for row in master["rows"]:
        if not row["pass"]:
            problems.append(f"master row fails: {row['scenario']} :: {row['check']}")
    return problems


# ---------------------------------------------------------------------------
# 512-node homothety
# ---------------------------------------------------------------------------

def homothety_exact(r, t):
    return (1.0 + 2.0 * t) / (1.0 - r**2) ** 2


def homothety_errors(r, times, lams):
    """Sup relative error against (1 + 2t)(1 - r^2)^-2, one per frame."""
    return [float(np.max(np.abs(lam / homothety_exact(r, t) - 1.0)))
            for t, lam in zip(times, lams)]


def check_homothety(r, times, lams, expected_times):
    problems = []
    if len(times) != len(expected_times) or not np.allclose(
            times, expected_times, rtol=0.0, atol=1e-12):
        problems.append(f"frame times {list(times)} != {list(expected_times)}")
    for t, err in zip(times, homothety_errors(r, times, lams)):
        if not err <= HOMOTHETY_REL_TOL:
            problems.append(f"homothety sup rel error {err:.3e} > "
                            f"{HOMOTHETY_REL_TOL:g} at t={t!r}")
    return problems


# ---------------------------------------------------------------------------
# torus flows
# ---------------------------------------------------------------------------

def check_torus(frames_metric, frames_potential, t_end):
    """Area conservation in both forms, agreement of the final metrics, and
    the datum's x <-> y symmetry, which the 9-point stencil keeps."""
    problems = []
    for form, frames in (("metric", frames_metric), ("potential", frames_potential)):
        if abs(frames[-1][0] - t_end) > 1e-12:
            problems.append(f"{form} form ends at t={frames[-1][0]!r}, not {t_end!r}")
        area0 = float(np.sum(frames[0][1]))
        for t, lam, _ in frames:
            drift = abs(float(np.sum(lam)) - area0) / area0
            if not drift <= AREA_REL_TOL:
                problems.append(f"{form} form: area drift {drift:.3e} at t={t!r}")
            asym = float(np.max(np.abs(lam - lam.T)) / np.max(np.abs(lam)))
            if not asym <= SYMMETRY_REL_TOL:
                problems.append(f"{form} form: x<->y asymmetry {asym:.3e} at t={t!r}")
    diff = float(np.max(np.abs(frames_metric[-1][1] - frames_potential[-1][1])))
    if not diff <= FORMS_ABS_TOL:
        problems.append(f"metric and potential forms differ by {diff:.3e}")
    return problems


# ---------------------------------------------------------------------------
# pointwise kernels
# ---------------------------------------------------------------------------

def _smoothstep_integral(x):
    """int_0^x S for the degree-7 smoothstep S(y) = 35y^4 - 84y^5 + 70y^6 - 20y^7."""
    return x**5 * (7.0 - 14.0 * x + 10.0 * x**2 - 2.5 * x**3)


def switch_phi(s, start, width):
    """The cutoff switch: 0 before `start`, 1 after `start + width`, two
    degree-7 smoothstep halves in between (max slope 2/width)."""
    v = (np.asarray(s, dtype=float) - start) / width
    out = np.where(v >= 1.0, 1.0, 0.0)
    left = (v > 0.0) & (v <= 0.5)
    right = (v > 0.5) & (v < 1.0)
    out = np.where(left, _smoothstep_integral(2.0 * np.clip(v, 0.0, 0.5)), out)
    out = np.where(right, 1.0 - _smoothstep_integral(2.0 * (1.0 - np.clip(v, 0.5, 1.0))),
                   out)
    return out


def ramp_prime(s, tau):
    """f'(s) = 2u / (tau (1 - u^2)) with u = (s - 1 + tau)/tau, 0 for u <= 0."""
    u = (np.asarray(s, dtype=float) - 1.0 + tau) / tau
    return np.where(u > 0.0, 2.0 * u / (tau * (1.0 - u * u)), 0.0)


def frakF_gauss_legendre(s, tau):
    """frakF(s) = int phi f' over the switch window [a, s], with a fixed-order
    Gauss-Legendre rule on each smooth piece (split at the window midpoint)."""
    a = 1.0 - tau + tau**2
    width = tau**2
    mid = a + width / 2.0
    x, w = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_NODES)

    def integrate(lo, hi):
        if hi <= lo:
            return 0.0
        pts = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        return 0.5 * (hi - lo) * float(np.sum(w * switch_phi(pts, a, width)
                                              * ramp_prime(pts, tau)))

    out = []
    for si in np.atleast_1d(s):
        si = float(si)
        out.append(integrate(a, min(si, mid)) + integrate(mid, si))
    return np.array(out)


def check_frakF(s, values, tau):
    """Zero on [0, phi_start], non-decreasing, and equal in the switch window
    to the Gauss-Legendre integral above."""
    problems = []
    s = np.asarray(s)
    values = np.asarray(values)
    a = 1.0 - tau + tau**2
    b = a + tau**2
    before = s <= a
    if np.any(values[before] != 0.0):
        problems.append(f"frakF nonzero on [0, phi_start]: max "
                        f"{float(np.max(np.abs(values[before]))):.3e}")
    steps = np.diff(values)
    if np.any(steps < 0.0):
        problems.append(f"frakF decreases by {float(-steps.min()):.3e}")
    window = (s > a) & (s < b)
    if not np.any(window):
        problems.append("sweep has no point in the switch window")
    else:
        ref = frakF_gauss_legendre(s[window], tau)
        err = float(np.max(np.abs(values[window] - ref)))
        if not err <= FRAKF_ABS_TOL:
            problems.append(f"frakF in the switch window off Gauss-Legendre by {err:.3e}")
    return problems


def check_hsc(kappas):
    """The Bergman ball has constant holomorphic sectional curvature -2."""
    return [f"hsc_max {k!r} != -2" for k in kappas if not abs(k + 2.0) <= HSC_ABS_TOL]


def check_royden(slacks):
    worst = min(slacks)
    return ([] if worst >= ROYDEN_SLACK_FLOOR
            else [f"Royden slack {worst:.3e} < {ROYDEN_SLACK_FLOOR:g}"])


def check_finite_positive(name, values):
    return [f"{name} {v!r} not finite and positive" for v in values
            if not (math.isfinite(v) and v > 0.0)]
