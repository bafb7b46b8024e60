"""Estimate checks run against completed flows and pointwise geometry.

Every check emits an `EstimateReport`; `satisfied` always means
`worst_slack >= -tolerance_used`.  Checks are read-only consumers of run
frames and are deterministic given (scenario, config, seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .curvature import ricci_from
from .errors import InputsNotKEError
from .metrics import MetricProvider
from .radial import RadialRun


@dataclass
class EstimateReport:
    name: str
    satisfied: bool
    worst_slack: float
    worst_location: tuple
    tolerance_used: float
    samples: int
    extra: dict = dc_field(default_factory=dict)

    def to_json(self):
        def clean(v):
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, np.ndarray):
                return [clean(x) for x in v.tolist()]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [clean(x) for x in v]
            return v
        return {
            "name": self.name,
            "satisfied": bool(self.satisfied),
            "worst_slack": float(self.worst_slack),
            "worst_location": clean(self.worst_location),
            "tolerance_used": float(self.tolerance_used),
            "samples": int(self.samples),
            "extra": clean(self.extra),
        }


def _report(name, slack, location, tol, samples, **extra):
    return EstimateReport(name, bool(slack >= -tol), float(slack),
                          location, tol, samples, dict(extra))


def _uniform_triples(times):
    """The frames k whose neighbours k - 1 and k + 1 lie at equal gaps, where
    a centered difference in time is second order: a short last gap (a
    horizon that is not a multiple of the frame step) is skipped."""
    ks = [k for k in range(1, len(times) - 1)
          if abs((times[k + 1] - times[k]) - (times[k] - times[k - 1]))
          <= 1e-12 * (times[k + 1] - times[k - 1])]
    if not ks:
        raise ValueError("need at least three frames at equal gaps")
    return ks


# ---------------------------------------------------------------------------
# barrier configuration (existence-time constants)
# ---------------------------------------------------------------------------

@dataclass
class BarrierConfig:
    n: int
    alpha: float            # metric equivalence constant, >= 1
    beta: float = 0.0       # torsion/derivative bound
    kappa0: float = 0.0     # combined curvature-torsion bound
    c1: float = 1.0
    c2: float = 1.0
    s_frak: Optional[float] = None

    def __post_init__(self):
        errs = self.violations(self.alpha, self.beta)
        if errs:
            raise ValueError("; ".join(errs))
        if self.s_frak is None:
            self.s_frak = self.kappa0 + self.c2 * self.beta * (1.0 + self.beta)

    @staticmethod
    def violations(alpha, beta):
        """The rule on the constants, as `load_config` reads it too."""
        return [f"{name} must be >= {low:g}, got {value!r}" for name, value, low
                in (("alpha", alpha, 1.0), ("beta", beta, 0.0)) if value < low]

    @property
    def predicted_existence_time(self):
        return 1.5 * self.barrier_domain_end

    @property
    def barrier_domain_end(self):
        """v(t) is finite exactly on [0, this); where c1 S = 0, v is the
        constant n alpha + 1 and this is inf."""
        rate = 3.0 * self.c1 * (self.n * self.alpha + 1.0) ** 3 * self.s_frak
        return 1.0 / rate if rate else math.inf

    def v(self, t, c1=None):
        c1 = self.c1 if c1 is None else c1
        base = (self.n * self.alpha + 1.0) ** -3 - 3.0 * c1 * self.s_frak * t
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):
            out = np.where(base > 0, np.abs(base) ** (-1.0 / 3.0), np.inf)
        return out if out.ndim else float(out)


def trace_barrier_check(run: RadialRun, config: BarrierConfig,
                        tolerance=1e-9) -> EstimateReport:
    """sup-grid Lambda(t) <= v(t) - 1 per frame, plus barrier calibration.

    Because the dimensional constant c1 is not pinned, the check also reports
    the smallest c1 for which the barrier dominates every frame (frames past
    the barrier's blow-up time are marked out-of-domain, not failures).
    Where S = 0, c1 does not enter v, and the calibrated c1 is 0.
    """
    if run.h_reference is None:
        raise ValueError("run has no h reference for the trace monitor")
    lam_h = run.h_reference(run.grid.r)
    worst, where = np.inf, None
    c1_req = 0.0
    in_domain = 0
    na1 = (config.n * config.alpha + 1.0)
    for fr in run.frames:
        sup_lam = float(np.max(lam_h / fr.lam))
        vt = config.v(fr.time)
        if np.isfinite(vt):
            in_domain += 1
            slack = (vt - 1.0) - sup_lam
            if slack < worst:
                worst, where = slack, ("t", fr.time)
        if fr.time > 0 and config.s_frak:
            # smallest c1 with v(t) - 1 >= sup_lam at this frame
            need = (na1**-3 - (sup_lam + 1.0) ** -3) / (3.0 * config.s_frak * fr.time)
            c1_req = max(c1_req, need)
    return _report("trace-barrier", worst, where, tolerance, in_domain,
                   calibrated_c1=c1_req, frames_total=len(run.frames),
                   frames_in_domain=in_domain)


# ---------------------------------------------------------------------------
# scalar curvature checks
# ---------------------------------------------------------------------------

def scalar_lower_bound_check(run: RadialRun, tolerance=1e-2) -> EstimateReport:
    """t R(x, t) >= -n on every frame (n = 1 radial runs)."""
    worst, where = np.inf, None
    count = 0
    for fr in run.frames:
        R = run.scalar_field(fr)
        tr = fr.time * R + 1.0
        count += len(tr)
        i = int(np.argmin(tr))
        if tr[i] < worst:
            worst, where = float(tr[i]), ("t", fr.time, "r", float(run.grid.r[i]))
    return _report("scalar-lower-bound", worst, where, tolerance, count)


def pointwise_ricci_cauchy_schwarz(G, Ric) -> float:
    """|Ric|^2 - R^2/n for one Hermitian pair (pointwise algebra; slack >= 0)."""
    G = np.asarray(G, dtype=complex)
    Ric = np.asarray(Ric, dtype=complex)
    n = G.shape[0]
    M = np.linalg.inv(G) @ Ric
    ric_sq = float(np.trace(M @ M).real)
    R = float(np.trace(M).real)
    return ric_sq - R * R / n


def scalar_evolution_residual_radial(run: RadialRun, interior=0.9,
                                     tolerance=None) -> EstimateReport:
    """Residual of (d_t - Delta) R = |Ric|^2 from consecutive frames (n = 1).

    For n = 1, |Ric|^2 = R^2 pointwise; d_t R is centered-differenced across
    frames, Delta R = ddbar(R)/lam on the run's stencils.  The residual is
    O(frame_dt^2 + grid_step^order); `tolerance` defaults to a generous
    multiple measured at the run's resolution.
    """
    frames = run.frames
    mask = run.grid.r <= interior * run.grid.r_max
    worst, where = 0.0, None
    count = 0
    for k in _uniform_triples([fr.time for fr in frames]):
        fm, f0, fp = frames[k - 1], frames[k], frames[k + 1]
        dtp = fp.time - fm.time
        Rm = run.scalar_field(fm)
        R0 = run.scalar_field(f0)
        Rp = run.scalar_field(fp)
        dtR = (Rp - Rm) / dtp
        lapR = run.grid.ddbar(R0) / f0.lam
        resid = dtR - lapR - R0**2
        r = np.abs(resid[mask])
        count += int(mask.sum())
        i = int(np.argmax(r))
        if r[i] > worst:
            worst = float(r[i])
            where = ("t", f0.time, "r", float(run.grid.r[mask][i]))
    if tolerance is None:
        tolerance = 1e-3
    return _report("scalar-evolution-residual", tolerance - worst, where,
                   0.0, count, max_residual=worst, tolerance_level=tolerance)


# ---------------------------------------------------------------------------
# normalized flow checks
# ---------------------------------------------------------------------------

def potential_monotonicity_check(run: RadialRun, tol_prime=1e-8,
                                 slack_per_ds=1e-6) -> EstimateReport:
    """phi' <= 0 and (phi' + phi) non-increasing along a normalized run."""
    if not run.normalized:
        raise ValueError("monotonicity check needs a normalized run")
    worst, where = np.inf, None
    count = 0
    prev_v, prev_s = None, None
    tol_used = tol_prime
    for fr in run.frames:
        count += len(fr.phi_prime)
        m = float(np.max(fr.phi_prime))
        if tol_prime - m < worst:
            worst, where = tol_prime - m, ("s", fr.time, "phi_prime", m)
        v = fr.phi_prime + fr.phi
        if prev_v is not None:
            ds = fr.time - prev_s
            tol = tol_prime + slack_per_ds * ds
            tol_used = max(tol_used, tol)
            inc = float(np.max(v - prev_v))
            if tol - inc < worst:
                worst, where = tol - inc, ("s", fr.time, "increase", inc)
        prev_v, prev_s = v, fr.time
    return _report("potential-monotonicity", worst, where, 0.0, count,
                   tolerance_level=tol_used)


def ke_convergence_check(run: RadialRun, exact_lambda: Optional[Callable] = None,
                         residual_threshold=1e-3, error_threshold=1e-3,
                         interior=0.9, expect_divergence=False) -> EstimateReport:
    """Normalized-flow convergence to the Kahler-Einstein fixed point.

    Final ke_residual and sup-error against the exact KE profile must fall
    below their thresholds, with the residual non-increasing over the final
    half of the run.  With `expect_divergence` the check passes exactly when
    convergence fails (Ricci-flat scenarios: the normalized metric decays).
    """
    if run.broken:
        return EstimateReport("ke-convergence", False, -np.inf,
                              ("breakdown", run.breakdown), 0.0, 0,
                              {"not_applicable": True})
    res = [run.ke_residual(fr) for fr in run.frames]
    final = res[-1]
    tail = res[len(res) // 2:]
    mono = all(tail[i + 1] <= tail[i] + 1e-12 for i in range(len(tail) - 1))
    err = None
    if exact_lambda is not None:
        mask = run.grid.r <= interior
        fr = run.frames[-1]
        err = float(np.max(np.abs(fr.lam - exact_lambda(run.grid.r))[mask]))
    converged = final <= residual_threshold and mono and \
        (err is None or err <= error_threshold)
    if expect_divergence:
        slack = final - residual_threshold  # pass iff residual stays large
        return _report("ke-convergence-expected-divergence", slack,
                       ("s", run.frames[-1].time), 0.0, len(res),
                       final_residual=final, classified="expected-divergence"
                       if slack >= 0 else "unexpected-convergence")
    slack = min(residual_threshold - final,
                (error_threshold - err) if err is not None else np.inf)
    if not mono:
        slack = min(slack, -1.0)
    return _report("ke-convergence", slack, ("s", run.frames[-1].time), 0.0,
                   len(res), final_residual=final, final_error=err,
                   monotone_tail=mono, converged=converged)


def scalar_evolution_residual_torus(frames, box_length, tolerance=None,
                                    independent_ops=False) -> EstimateReport:
    """Identity residual of (d_t - Delta) R = |Ric|^2 on torus frames (n = 1).

    `frames` are (t, lam, psi) triples at uniform spacing; time differencing
    is centered.  With the run's own 9-point stencil the semi-discrete system
    satisfies the identity exactly (only the d/dt chain rule enters for
    n = 1), so the residual measures time discretization alone.  With
    `independent_ops` the scalar curvature and Laplacian are measured by the
    4th-order stencil instead, exposing the run's O(h^2) solution error: that
    is the route for grid-convergence studies.
    """
    from .flow import ddbar_periodic, ddbar_periodic_4th
    h = box_length / frames[0][1].shape[0]
    op = ddbar_periodic_4th if independent_ops else ddbar_periodic

    def scal(lam):
        return -op(np.log(lam), h) / lam

    worst, where = 0.0, None
    count = 0
    for k in _uniform_triples([fr[0] for fr in frames]):
        tm, lm, _ = frames[k - 1]
        t0, l0, _ = frames[k]
        tp, lp, _ = frames[k + 1]
        Rm, R0, Rp = scal(lm), scal(l0), scal(lp)
        dtR = (Rp - Rm) / (tp - tm)
        lapR = op(R0, h) / l0
        resid = np.abs(dtR - lapR - R0**2)
        count += resid.size
        i = np.unravel_index(int(np.argmax(resid)), resid.shape)
        if resid[i] > worst:
            worst, where = float(resid[i]), ("t", t0, "node", tuple(int(x) for x in i))
    if tolerance is None:
        tolerance = 1e-2
    return _report("scalar-evolution-residual-torus", tolerance - worst, where,
                   0.0, count, max_residual=worst, tolerance_level=tolerance)


# ---------------------------------------------------------------------------
# uniqueness diagnostic
# ---------------------------------------------------------------------------

@dataclass
class UniquenessDiag:
    F_field: np.ndarray
    sup_F: float
    inf_F: float
    points: np.ndarray


def _ke_residual_pointwise(w: MetricProvider, z) -> float:
    G = w.matrix(z)
    Ric = ricci_from(G, w.d1(z), w.d2(z))
    M = np.linalg.inv(G) @ (Ric + G)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def uniqueness_F_check(omega1: MetricProvider, omega2: MetricProvider,
                       points, ke_tol=1e-8) -> UniquenessDiag:
    """F = (1/n) log(omega2^n / omega1^n) for two claimed KE metrics.

    Both inputs must satisfy Ric = -omega to `ke_tol` (g-relative) at every
    sample point; otherwise `InputsNotKEError` is raised.  For genuinely KE
    pairs the field vanishes; swapping the inputs negates F exactly.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    n = omega1.n
    vals = []
    for z in points:
        r1 = _ke_residual_pointwise(omega1, z)
        r2 = _ke_residual_pointwise(omega2, z)
        if r1 > ke_tol or r2 > ke_tol:
            raise InputsNotKEError(
                f"|Ric + omega|/omega = {max(r1, r2):.3e} at {z} exceeds {ke_tol:g}")
        d1 = float(np.linalg.det(omega1.matrix(z)).real)
        d2 = float(np.linalg.det(omega2.matrix(z)).real)
        # log-difference form keeps the swap antisymmetry exact in floats
        vals.append((math.log(d2) - math.log(d1)) / n)
    F = np.array(vals)
    return UniquenessDiag(F, float(F.max()), float(F.min()), points)


# ---------------------------------------------------------------------------
# trace evolution identity on run frames (radial, n = 1)
# ---------------------------------------------------------------------------

def trace_identity_on_run(run: RadialRun, interior=0.85) -> dict:
    """Heat residual of the trace evolution from consecutive frames.

    For n = 1 the torsion terms vanish and the identity reduces to

        (d_t - Delta) Lambda = -(h/lam^2) |Psi|^2 + hatR_1111 / lam^2

    with Lambda = tr_g h, Psi the connection difference and hatR the
    curvature of h = lam_h |dz|^2, the run's `h_reference`.  Lambda, its time
    derivative (centered frame differencing) and its Laplacian (the run's
    radial stencils) are computed independently of the right side, whose
    d log lam_h and hatR_1111 = -lam_h ddbar(log lam_h) come from the same
    stencils, with exact ghosts from the profile.  Returns max |residual|
    over interior nodes and interior frames, and that maximum relative to
    sup Lambda over the same nodes and frames: the residual scales with
    lam_h, the relative one does not.
    """
    if run.h_reference is None:
        raise ValueError("run has no h reference for the trace identity")
    frames, grid = run.frames, run.grid
    mask = grid.r <= interior * grid.r_max
    lam_h = run.h_reference(grid.r)
    log_h = np.log(lam_h)
    log_h_ghosts = np.log(run.h_reference(grid.outer_ghost_radii()))
    dlog_h = grid.d1(log_h, log_h_ghosts)
    Rhat1111 = -lam_h * grid.ddbar(log_h, log_h_ghosts)

    worst = sup_L = 0.0
    rows = []
    for k in _uniform_triples([fr.time for fr in frames]):
        fm, f0, fp = frames[k - 1], frames[k], frames[k + 1]
        dtp = fp.time - fm.time
        Lm = lam_h / fm.lam
        L0 = lam_h / f0.lam
        Lp = lam_h / fp.lam
        dtL = (Lp - Lm) / dtp
        lapL = grid.ddbar(L0) / f0.lam
        # |Psi|^2 = (dlog_h - dlog_lam)^2 / 4 for radial profiles
        u = np.log(f0.lam)
        dlog_lam = grid.d1(u, run.log_ghosts_at(f0.time))
        psi_sq = (dlog_h - dlog_lam) ** 2 / 4.0
        term_I = -(lam_h / f0.lam**2) * psi_sq
        term_III = Rhat1111 / f0.lam**2
        resid = dtL - lapL - (term_I + term_III)
        m = float(np.max(np.abs(resid[mask])))
        rows.append({"t": f0.time, "max_residual": m})
        worst = max(worst, m)
        sup_L = max(sup_L, float(np.max(L0[mask])))
    return {"max_residual": worst, "relative_residual": worst / sup_L,
            "frames": rows}
