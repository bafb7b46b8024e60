"""Radial (U(1)-invariant, n = 1) reduction of the flow on disk charts.

For rotationally invariant g = lam(r) |dz|^2,

    ddbar u = (u_rr + u_r / r) / 4,

so the Chern-Ricci flow is d_t lam = ddbar log lam and the normalized flow
d_s lam = ddbar log lam - lam.  The grid is cell-centered (r_i = (i+1/2) h),
which avoids the coordinate-singular node at r = 0; regularity lam'(0) = 0 is
imposed through even-mirror ghosts across the origin.  The outer boundary is
either Dirichlet data from a supplied field (exact Kahler-Einstein values or
an exact homothety, for convergence runs) or cubic extrapolation from the
interior (for identity checks).  A ghost field that does not depend on time
is given as a `Steady` profile, which a run evaluates once (the KE ghosts of
a normalized run); any other field is evaluated once per stage time.

Stencils are 4th or 6th order (two or three ghost cells per side).  ddbar
and d1 are each one operator per outer closure, built by one fold of the
origin mirror and the outer closure into per-node stencil weights and kept
once, as one LAPACK band array of [A B] (A on the nodes, B on the outer
ghosts).  BLAS `dgbmv` applies that array to (u - u[0], ghosts - u[0]), so
the operators are exactly 0.0 on constants: the extrapolated closure grows
round-off about 1e6-fold (2-norm of exp((e^3 - 1) A), 64 nodes) over a flat
normalized run to s = 3.  The radial metric flows step through
`flow.sdirk4`, implicit and L-stable, whichever the closure, each in the
variable in which its model solution is polynomial in time: the
unnormalized flow in lam (the homothety is linear in t), the normalized
flow in v = log lam alone (flat data has v' = -1), its potential phi
integrated from v's accepted steps by `flow.potential_integrator`, outside
the Newton loop and the error control.  Both factor one banded matrix
diag(d) - hg A through its row-scaled twin (`RadialGrid.band_solver`), which
`dgbtrf` factors from the first m columns of the same ddbar array; the
extrapolated block has A 1 = 0, which keeps a uniform state bitwise
uniform.  Their right-hand sides and solves write into `out` or into
arrays kept per run, and `band_solver`'s solves run LAPACK in place.
scipy.linalg, which holds `dgbmv`, `dgbtrf` and `dgbtrs`, is imported when
the first `RadialGrid` is built, not with this module: `import crflow`
loads numpy and no scipy module, and so does a torus run.  The explicit
step would stay at h^2 min lam however smooth the solution: 141,967 steps
for the 512-node homothety to t = 0.5, where SDIRK4 takes 12 (frames every
0.05), and 96,500 for the flat normalized run to s = 3, where it takes 38.
Only the potential form steps through `flow.rk4` under `cfl_bound`.
Positivity is guarded with `flow.require_positive`.

Exact references on the disk (checked symbolically):
    homothety      lam(r, t) = (1 + 2t) (1 - r^2)^-2      (Ric = -2 g at t=0)
    KE fixed point lam_KE(r) = 2 (1 - r^2)^-2             (Ric = -g)
    potential      psi(t) = [(1+2t) log(1+2t) - 2t]/2      (homothety run)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .flow import (cfl_bound, potential_integrator, require_positive,
                   rk4, sdirk4)

# scipy's banded BLAS/LAPACK, bound at the first `RadialGrid`
dgbmv = dgbtrf = dgbtrs = None


def _load_band_lapack():
    """Import `dgbmv`, `dgbtrf` and `dgbtrs` once: scipy.linalg's import
    costs about a quarter of a second and 26 MB of resident memory, which a
    process that builds no radial grid does not need."""
    global dgbmv, dgbtrf, dgbtrs
    if dgbmv is None:
        from scipy.linalg.blas import dgbmv
        from scipy.linalg.lapack import dgbtrf, dgbtrs


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------


def poincare_lambda(r, factor=1.0):
    return factor / (1.0 - np.asarray(r) ** 2) ** 2


def homothety_lambda(r, t):
    return (1.0 + 2.0 * t) * poincare_lambda(r)


def ke_lambda(r):
    return poincare_lambda(r, 2.0)


def fubini_cap_lambda(r, t=0.0):
    """The shrinking Fubini-Study cap (1 - 2t)(1 + r^2)^-2: Ric = 2 g at
    t = 0, so the flow is exact and ends at t = 1/2."""
    return (1.0 - 2.0 * t) / (1.0 + np.asarray(r) ** 2) ** 2


def homothety_psi(t, n=1):
    """Potential of the ball's homothety from the Bergman potential
    -log(1 - |z|^2) in complex dimension n: psi(0) = 0 and
    d_t psi = n log(1 + (n + 1) t), the log of the volume ratio."""
    a = 1.0 + (n + 1) * t
    return n / (n + 1) * (a * np.log(a) - (n + 1) * t)


def perturbed_poincare_lambda(r, amplitude=0.1, support=0.8):
    """(1 + a * bump(r)) * poincare; bump is the C-infinity mollifier."""
    r = np.asarray(r, dtype=float)
    bump = np.zeros_like(r)
    inside = r < support
    x = (r[inside] / support) ** 2
    bump[inside] = np.exp(1.0 - 1.0 / (1.0 - x))
    return (1.0 + amplitude * bump) * poincare_lambda(r)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

class RadialGrid:
    """Cell-centered radial grid with 4th/6th-order stencils and ghosts."""

    def __init__(self, r_max: float, nodes: int, order: int = 4):
        if order not in (4, 6):
            raise ValueError("radial stencil order must be 4 or 6")
        _load_band_lapack()
        self.r_max = float(r_max)
        self.m = m = int(nodes)
        self.order = order
        self.ng = ng = order // 2  # ghost cells per side
        self.h = self.r_max / self.m
        self.r = (np.arange(self.m) + 0.5) * self.h
        self._rg_outer = self.r_max + (np.arange(self.ng) + 0.5) * self.h
        if order == 4:
            w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
            w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
        else:
            w1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
            w2 = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        self._lo = lo = max(ng, 3)  # lower bandwidth; extrapolation reads u[m - 4]
        fused = 0.25 * (w2 / self.h**2 + w1 / (self.h * self.r[:, None]))
        # (given, extrapolated) band arrays of ddbar and of d1; the first m
        # columns of ddbar's are its Jacobian in u, as the u - u[0] shift
        # cancels
        self._ddbar = tuple(map(self._band, self._fold(fused)))
        self._d1 = tuple(map(self._band, self._fold(
            np.broadcast_to(w1 / self.h, fused.shape))))
        self._x = np.zeros(m + ng)
        self._xu, self._xg = self._x[:m], self._x[m:]   # (u, outer) slots
        # the row of A that each band entry lies in, for row scaling
        self._band_rows = np.clip(np.arange(m) + np.arange(-ng, lo + 1)[:, None],
                                  0, m - 1)

    def _fold(self, weights):
        """Per-node stencil weights on the padded vector g, weights[i, j] for
        g[i + j], moved onto x = (u, outer ghosts) through the closures: the
        even mirror g[p] = u[ng - 1 - p] across r = 0, then either the given
        ghosts or cubic extrapolation, one ghost at a time.

        Returns the per-node weights (given, extrapolated), each m x (lo + 1
        + ng) with [i, b] weighing x[i + b - lo]: the interior block with the
        closure folded in, and, for given ghosts, the ng x ng block coupling
        them to the last ng rows."""
        m, ng, lo = self.m, self.ng, self._lo
        given = np.zeros((m, lo + 1 + ng))
        given[:, lo - ng:] = weights
        for i in range(ng):         # even mirror: g[p] = u[ng - 1 - p], p < ng
            for p in range(i, ng):
                given[i, lo - i + ng - 1 - p] += given[i, lo - i + p - ng]
                given[i, lo - i + p - ng] = 0.0
        forms = np.eye(4 + ng, 4)   # ghost k = forms[4 + k] @ u[m - 4:m]
        for k in range(ng):
            forms[4 + k] = np.array([-1.0, 4.0, -6.0, 4.0]) @ forms[k:k + 4]
        extrapolated = given.copy()
        for i in range(m - ng, m):
            row = extrapolated[i, lo + m - 4 - i:]      # from x[m - 4]
            for k in range(i + ng - m + 1):             # the ghosts row i reads
                row[:4] += row[4 + k] * forms[4 + k]
                row[4 + k] = 0.0
        return given, extrapolated

    def _band(self, weights):
        """`_fold`'s per-node weights as [A B], m x (m + ng), in LAPACK's band
        storage: [A B][i, j] at [ng + i - j, j], lower bandwidth lo and upper
        ng, Fortran-ordered for `dgbmv` and `dgbtrf`."""
        m, ng, lo = self.m, self.ng, self._lo
        band = np.zeros((lo + ng + 1, m + ng), order="F")
        for d in range(-lo, ng + 1):                # diagonal j - i = d
            band[ng - d, max(d, 0):m + d] = weights[max(-d, 0):, lo + d]
        return band

    def _apply(self, bands, u, outer):
        """[A B] @ (u - u[0], outer - u[0]) for a (given, extrapolated) pair:
        the rows of [A B] sum to zero, so the shift changes only rounding, and
        a constant gives exactly 0.0.  Extrapolating, B is zero and the ghost
        slots are zeroed, never stale."""
        u0 = u[0]
        np.subtract(u, u0, out=self._xu)
        if outer is None:
            band = bands[1]
            self._xg.fill(0.0)
        else:
            band = bands[0]
            np.subtract(outer, u0, out=self._xg)
        return dgbmv(self.m, self.m + self.ng, self._lo, self.ng, 1.0, band,
                     self._x)

    def d1(self, u, outer=None):
        """u_r, with the closures of `ddbar`."""
        return self._apply(self._d1, u, outer)

    def ddbar(self, u, outer=None):
        """(u_rr + u_r/r)/4 with the even-mirror origin closure; outer ghosts
        given or extrapolated."""
        return self._apply(self._ddbar, u, outer)

    def band_solver(self, d, hg, given):
        """`solve(p)` = N^-1 p from one banded LU of N = I - hg diag(1/d) A,
        A the m x m block of the given (or extrapolated) ddbar: the row-scaled
        twin of diag(d) - hg A, the SDIRK4 matrix of both radial forms.  The
        extrapolated block has A 1 = 0, so N 1 = 1 and the solve is
        p[0] + N^-1 (p - p[0]): a uniform p comes out bitwise uniform.
        `solve` overwrites p, a contiguous float row, with the result that it
        returns."""
        m, lo, ng = self.m, self._lo, self.ng
        band = self._ddbar[0 if given else 1]
        lu = np.empty((2 * lo + ng + 1, m), order="F")  # lo rows of fill-in
        np.multiply(band[:, :m], np.take(-hg / d, self._band_rows),
                    out=lu[lo:])
        lu[lo + ng] += 1.0
        _, piv, _ = dgbtrf(lu, lo, ng, overwrite_ab=1)
        if given:
            return lambda p: dgbtrs(lu, lo, ng, p, piv, overwrite_b=1)[0]

        def solve(p):
            p0 = p[0]
            np.subtract(p, p0, out=p)
            x = dgbtrs(lu, lo, ng, p, piv, overwrite_b=1)[0]
            np.add(x, p0, out=x)
            return x
        return solve

    def outer_ghost_radii(self):
        return self._rg_outer

    def location(self, i):
        """Where node i is, as a breakdown reports it."""
        return ("r", float(self.r[i]))


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

class Steady:
    """A field lam(r, t) = profile(r) that does not depend on t, such as the
    KE profile as a normalized run's ghosts: a run evaluates it once."""

    def __init__(self, profile):
        self.profile = profile

    def __call__(self, r, t):
        return self.profile(r)


def _once_per_time(field_fn, r, post=lambda v: v):
    """t -> post(field_fn(r, t)): a field's ghost values at one grid's ghost
    radii r, post (such as np.log) applied; None for every t when field_fn is
    None, which extrapolates.  A `Steady` field is evaluated once, any other
    once per distinct t: the Newton iterates of an SDIRK4 stage share its
    time, two of RK4's stages share t + dt/2, and t + dt is the next step's
    t."""
    if field_fn is None:
        return lambda t: None
    if isinstance(field_fn, Steady):
        values = post(field_fn.profile(r))
        return lambda t: values
    last = [None, None]

    def at(t):
        if last[0] != t:
            last[0], last[1] = t, post(field_fn(r, t))
        return last[1]
    return at


def radial_rhs(grid: RadialGrid, lam, t, boundary_log=None, normalized=False):
    """d_t lam at the nodes; `boundary_log(r, t)` supplies log-lam ghosts."""
    u = np.log(lam)
    dd = grid.ddbar(u, None if boundary_log is None
                    else boundary_log(grid.outer_ghost_radii(), t))
    return dd - lam if normalized else dd


# ---------------------------------------------------------------------------
# full runs with frames
# ---------------------------------------------------------------------------

@dataclass
class Frame:
    step: int
    time: float
    lam: np.ndarray
    phi: Optional[np.ndarray] = None          # normalized potential
    phi_prime: Optional[np.ndarray] = None


@dataclass
class RadialRun:
    grid: RadialGrid
    normalized: bool
    frames: List[Frame] = field(default_factory=list)
    broken: bool = False
    breakdown: Optional[str] = None
    h_reference: Optional[Callable] = None    # lam_h(r) for the trace monitor
    boundary: Optional[Callable] = None       # lam(r, t) ghost field, or Steady
    steps_taken: int = 0

    def __post_init__(self):
        # log_ghosts_at(t): the log-lam ghost values at time t, None to
        # extrapolate, the one ghost lookup that the stepper and every
        # consumer read; it closes over the boundary, not the run, so a run
        # is no reference cycle and is freed as soon as it is dropped
        self.log_ghosts_at = _once_per_time(
            self.boundary, self.grid.outer_ghost_radii(), np.log)

    def ke_residual(self, fr: Frame) -> float:
        """sup |Ric(g) + g|_g with the run's own discrete operator and ghosts."""
        dd = self.grid.ddbar(np.log(fr.lam), self.log_ghosts_at(fr.time))
        resid = dd - fr.lam
        return float(np.max(np.abs(resid / fr.lam)))

    def scalar_field(self, fr: Frame):
        """Chern scalar R = -ddbar(log lam)/lam on the nodes."""
        dd = self.grid.ddbar(np.log(fr.lam), self.log_ghosts_at(fr.time))
        return -dd / fr.lam

    def diagnostics_rows(self):
        """Per-frame monitor row: the run CSV contract."""
        rows = []
        lam_h = None
        if self.h_reference is not None:
            lam_h = self.h_reference(self.grid.r)
        for fr in self.frames:
            R = self.scalar_field(fr)
            row = {
                "step": fr.step,
                "time": fr.time,
                "sup_lambda": float(np.max(lam_h / fr.lam)) if lam_h is not None else "",
                "inf_tR": float(np.min(fr.time * R)),
                "min_eig": float(np.min(fr.lam)),
            }
            if self.normalized:
                row["ke_residual"] = self.ke_residual(fr)
                row["phi_prime_min"] = float(np.min(fr.phi_prime))
                row["phi_prime_max"] = float(np.max(fr.phi_prime))
            else:
                row["ke_residual"] = ""
                row["phi_prime_min"] = ""
                row["phi_prime_max"] = ""
            rows.append(row)
        return rows


def run_radial_flow(lam0, r_max, t_end, *, nodes=256, boundary=None,
                    safety=None, frame_dt=None, h_reference=None,
                    order=4, min_eig_floor=1e-10) -> RadialRun:
    """Unnormalized radial flow from lam0 (array or callable of r).

    `boundary(r, t)` gives exact Dirichlet ghost values; None extrapolates.
    Frames are captured every `frame_dt` of flow time (default: 50 per run).
    The run steps lam through `flow.sdirk4` on a banded LU of
    diag(lam) - hg A, A the block of the run's closure, as
    (I - hg A diag(1/lam))^-1 r = lam (diag(lam) - hg A)^-1 r: a homothety
    is linear in t, so steps in lam are as long as the frames allow.
    `safety` is accepted and unused, as no radial metric run has a CFL step;
    it stays only because perfbench's `homothety-512` workload passes it.
    """
    grid = RadialGrid(r_max, nodes, order)
    lam00 = lam0(grid.r) if callable(lam0) else np.asarray(lam0, float).copy()
    run = RadialRun(grid=grid, normalized=False, h_reference=h_reference,
                    boundary=boundary)
    ghosts_at, given = run.log_ghosts_at, boundary is not None
    u, w = np.empty(grid.m), np.empty(grid.m)   # log lam; the solve's work

    def rhs(tt, v, out):
        out[:] = grid.ddbar(np.log(v, out=u), ghosts_at(tt))

    def factor(tt, lam, hg):
        solve_in_place = grid.band_solver(lam, hg, given)

        def solve(r):
            x = solve_in_place(np.divide(r, lam, out=w))
            return np.multiply(x, lam, out=x)
        return solve

    def frame(step, tt, v):
        run.frames.append(Frame(step, tt, v.copy()))

    def check(tt, v):
        require_positive(v, tt, min_eig_floor, grid.location)

    _, run.steps_taken, _, err = sdirk4(lam00, t_end, rhs, factor, check,
                                        frame_dt=frame_dt or t_end / 50.0,
                                        frame=frame)
    if err is not None:
        run.broken, run.breakdown = True, str(err)
    return run


def run_normalized_radial(lam0, r_max, s_end, *, nodes=128, boundary=None,
                          frame_ds=None, h_reference=None,
                          order=4, min_eig_floor=1e-10) -> RadialRun:
    """Normalized flow d_s lam = ddbar log lam - lam, with the potential pair.

    phi solves d_s phi = log(lam/lam(0)) - phi pointwise, so phi' is available
    in closed form at every frame; `boundary(r, s)` supplies Dirichlet ghosts
    for the metric (typically the exact KE profile, s-independent), and None
    extrapolates.

    The run steps v = log lam alone through `flow.sdirk4`, as

        d_s v = ddbar(v) e^-v - 1,

    in which flat data is linear in s (v' = -1), so the step is exact there
    and the extrapolated closure keeps a flat run bitwise uniform.  Its
    Newton matrix is the banded diag(d) - hg A with d = lam + hg ddbar(v),
    the full Jacobian, diagonal term included, row-scaled by 1/lam.  phi,
    which never feeds back into lam, is integrated from v's accepted steps
    by `flow.potential_integrator` with decay 1 and forcing g = v - v(0),
    g' = d_s v: exact on flat data, where g = -s, and of order 4 like the
    stepper, and neither a Newton iteration nor the step size waits on it.
    """
    grid = RadialGrid(r_max, nodes, order)
    lam_init = lam0(grid.r) if callable(lam0) else np.array(lam0, float)
    v_init = np.log(lam_init)
    run = RadialRun(grid=grid, normalized=True, h_reference=h_reference,
                    boundary=boundary)
    ghosts_at, given = run.log_ghosts_at, boundary is not None
    w = np.empty(grid.m)                        # the solve's work array

    def rhs(ss, v, out):
        np.exp(np.negative(v, out=out), out=out)
        out *= grid.ddbar(v, ghosts_at(ss))
        out -= 1.0

    def factor(ss, v, hg):
        """I - hg J, J = diag(e^-v) (A - diag(ddbar v)): it is
        diag(1/lam) (diag(d) - hg A), so its solve is `band_solver`'s after
        the row scale lam / d."""
        lam = np.exp(v)
        d = lam + hg * grid.ddbar(v, ghosts_at(ss))
        solve_v = grid.band_solver(d, hg, given)
        scale = lam / d
        return lambda r: solve_v(np.multiply(scale, r, out=w))

    def drive(ss, v):           # (v - v(0), d_s v) at an accepted state
        dv = np.empty(grid.m)
        rhs(ss, v, dv)
        return v - v_init, dv

    phi = np.zeros(grid.m)
    advance_phi = potential_integrator(phi, 1.0, drive)

    def frame(step, ss, v):
        # the first frame is lam0 as given, not exp(log(lam0)), so that a
        # second phase starts on the first one's last frame bit for bit
        lam = np.exp(v) if step else lam_init.copy()
        run.frames.append(Frame(step, ss, lam, phi=phi.copy(),
                                phi_prime=np.log(lam / lam_init) - phi))

    def check(ss, v):
        require_positive(np.exp(v), ss, min_eig_floor, grid.location)
        advance_phi(ss, v)

    _, run.steps_taken, _, err = sdirk4(v_init, s_end, rhs, factor, check,
                                        frame_dt=frame_ds or s_end / 50.0,
                                        frame=frame)
    if err is not None:
        run.broken, run.breakdown = True, str(err)
    return run


def run_radial_potential_flow(lam0, r_max, t_end, *, nodes=256, boundary_psi=None,
                              boundary_lam=None, order=4):
    """Potential-form radial flow; returns (grid, psi, lam_reconstructed, t).

    d_t psi = log((lam0 - t Ric0 + ddbar psi)/lam0); the reconstruction
    lam = lam0 - t Ric0 + ddbar psi is the returned metric.  Boundary ghosts
    for psi come from `boundary_psi(r, t)` (exact values) or extrapolation.
    Raises FlowBreakdownError when the reconstruction leaves the positive
    cone or turns non-finite.
    """
    grid = RadialGrid(r_max, nodes, order)
    lam00 = lam0(grid.r) if callable(lam0) else np.asarray(lam0, float).copy()
    ric0 = -grid.ddbar(np.log(lam00), None if boundary_lam is None else
                       np.log(boundary_lam(grid.outer_ghost_radii(), 0.0)))
    psi_ghosts = _once_per_time(boundary_psi, grid.outer_ghost_radii())

    def reconstruct(p, tt):
        return lam00 - tt * ric0 + grid.ddbar(p, psi_ghosts(tt))

    def rhs(tt, v, out):
        np.log(np.divide(reconstruct(v[0], tt), lam00, out=out[0]), out=out[0])

    def cfl(tt, v):
        return cfl_bound(float(reconstruct(v[0], tt).min()), 2.0, grid.h, 1.0)

    y, _, t, err = rk4(
        np.zeros((1, grid.m)), t_end, rhs, cfl,
        lambda tt, v: require_positive(reconstruct(v[0], tt), tt, 0.0,
                                       grid.location))
    if err is not None:
        raise err
    return grid, y[0], reconstruct(y[0], t), t


# ---------------------------------------------------------------------------
# normalization of an unnormalized run
# ---------------------------------------------------------------------------

@dataclass
class NormalizedFlowState:
    """Snapshot of the normalized flow at time s: g~(s) = e^-s g(e^s)."""
    s: float
    g_tilde: np.ndarray
    phi_tilde: np.ndarray
    phi_tilde_prime: np.ndarray
    ke_residual: float


def normalize(run: RadialRun, s: float) -> NormalizedFlowState:
    """Transform an unnormalized run into the normalized state at time s.

    Needs frames covering t in [1, e^s]; the potential

        phi~(s) = e^-s * int_0^s e^tau log(omega~^n(tau)/omega~^n(0)) dtau

    is accumulated by trapezoid over the run's frames in tau = log t.  Raises
    when s is beyond the computed horizon or the run never reached t = 1.
    """
    if run.normalized:
        raise ValueError("run is already normalized")
    t_target = float(np.exp(s))
    times = np.array([f.time for f in run.frames])
    if times[-1] < t_target - 1e-12 or times[-1] < 1.0 - 1e-12:
        raise ValueError(f"normalize needs frames up to t = e^s = {t_target:.6g}; "
                         f"run reaches t = {times[-1]:.6g}")

    def lam_at(t):
        k = int(np.searchsorted(times, t))
        k = min(max(k, 1), len(times) - 1)
        t0, t1 = times[k - 1], times[k]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1 - w) * run.frames[k - 1].lam + w * run.frames[k].lam

    lam1 = lam_at(1.0)
    taus = np.linspace(0.0, s, max(9, int(np.ceil(s / 0.02)) + 1))
    integrand = []
    for tau in taus:
        lam_t = lam_at(float(np.exp(tau)))
        v = np.log(np.exp(-tau) * lam_t / lam1)      # log(omega~(tau)/omega~(0))
        integrand.append(np.exp(tau) * v)
    phi = np.exp(-s) * np.trapezoid(np.array(integrand), taus, axis=0)

    g_tilde = np.exp(-s) * lam_at(t_target)
    phi_prime = np.log(g_tilde / lam1) - phi
    ghosts = run.log_ghosts_at(t_target)        # log g~ = log lam - s
    resid = run.grid.ddbar(np.log(g_tilde),
                           None if ghosts is None else ghosts - s) - g_tilde
    ke = float(np.max(np.abs(resid / g_tilde)))
    return NormalizedFlowState(s, g_tilde, phi, phi_prime, ke)
