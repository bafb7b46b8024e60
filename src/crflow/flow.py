"""Flow integration on a periodic 2-D grid (n = 1 torus) and a masked disk.

The evolving object is the scalar metric density lam(x, y) > 0 of
g = lam |dz|^2 on a chart with z = x + iy.  The Chern-Ricci flow reads

    d_t lam = ddbar log lam,        ddbar u = (u_xx + u_yy)/4,

and its potential form, with Ric0 = -ddbar log lam0,

    d_t psi = log((lam0 - t Ric0 + ddbar psi)/lam0),   psi(0) = 0,
    lam(t)  = lam0 - t Ric0 + ddbar psi.

Space discretization is the 9-point second-order stencil; time stepping is
explicit RK4 under the `cfl_bound` limiter.  Hermitian symmetry is exact in
this representation (lam kept as a real array); positivity is checked after
every accepted step and breakdown raises `FlowBreakdownError` with the
offending location.

Full-grid runs are n = 1 only (the laboratory's higher-n scenarios are
radial or pointwise); constructing a torus flow with n >= 2 data raises.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FlowBreakdownError

def rk4_step(t, y, dt, rhs):
    """One RK4 step for a tuple-of-arrays state."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, tuple(a + 0.5 * dt * b for a, b in zip(y, k1)))
    k3 = rhs(t + 0.5 * dt, tuple(a + 0.5 * dt * b for a, b in zip(y, k2)))
    k4 = rhs(t + dt, tuple(a + dt * b for a, b in zip(y, k3)))
    return tuple(a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def laplacian_9pt(u, h):
    """Periodic 9-point Laplacian, second order, square spacing."""
    c = np.roll
    cross = c(u, 1, 0) + c(u, -1, 0) + c(u, 1, 1) + c(u, -1, 1)
    diag = (c(c(u, 1, 0), 1, 1) + c(c(u, 1, 0), -1, 1)
            + c(c(u, -1, 0), 1, 1) + c(c(u, -1, 0), -1, 1))
    return (4.0 * cross + diag - 20.0 * u) / (6.0 * h * h)


def ddbar_periodic(u, h):
    return 0.25 * laplacian_9pt(u, h)


def ddbar_periodic_4th(u, h):
    """4th-order periodic ddbar; the independent measuring stick for
    residuals of runs advanced with the 2nd-order stencil."""
    c = np.roll
    acc = -60.0 * u
    for ax in (0, 1):
        acc = acc + (-c(u, 2, ax) + 16.0 * c(u, 1, ax)
                     + 16.0 * c(u, -1, ax) - c(u, -2, ax))
    return acc / (48.0 * h * h)


@dataclass
class FlowState:
    """Snapshot of a torus flow; carries both metric and potential data.

    The reconstruction identity lam = lam0 - t*ric0 + ddbar psi is an
    invariant (to discretization tolerance) checked by `reconstruction_residual`.
    """
    t: float
    h: float                       # grid spacing
    omega0: np.ndarray             # lam0 samples
    ric0: np.ndarray               # Ric(lam0) samples
    psi: np.ndarray
    omega_t: np.ndarray            # current lam samples
    step_count: int = 0
    diagnostics: deque = field(default_factory=lambda: deque(maxlen=32))

    def reconstruction_residual(self) -> float:
        rec = self.omega0 - self.t * self.ric0 + ddbar_periodic(self.psi, self.h)
        return float(np.max(np.abs(rec - self.omega_t)))

    def record(self):
        lam = self.omega_t
        ric = -ddbar_periodic(np.log(lam), self.h)
        scal = ric / lam
        self.diagnostics.append({
            "t": self.t,
            "min_lam": float(lam.min()),
            "max_lam": float(lam.max()),
            "min_scalar": float(scal.min()),
            "max_scalar": float(scal.max()),
        })


def torus_state(lam0: np.ndarray, box_length: float) -> FlowState:
    lam0 = np.asarray(lam0, dtype=float)
    if lam0.ndim != 2 or lam0.shape[0] != lam0.shape[1]:
        raise ValueError("torus flow needs square n=1 grid data (N, N)")
    h = box_length / lam0.shape[0]
    ric0 = -ddbar_periodic(np.log(lam0), h)
    return FlowState(t=0.0, h=h, omega0=lam0, ric0=ric0,
                     psi=np.zeros_like(lam0), omega_t=lam0.copy())


def cfl_bound(min_eig: float, ric_scale: float, grid_step: float,
              safety: float = 0.2, stability_coeff: float = 1.0) -> float:
    """Largest admissible explicit step.

    The configured bound safety * h^2 * min_eig / max(1, ric_scale) is
    additionally capped by the parabolic stability limit
    stability_coeff * h^2 * min_eig (the diffusivity of d_t lam = ddbar log lam
    is 1/(4 lam); RK4's real-axis stability gives coefficient ~1.4 on these
    stencils, 1.0 keeps margin).
    """
    base = safety * grid_step**2 * min_eig / max(1.0, ric_scale)
    return min(base, stability_coeff * grid_step**2 * min_eig)


def cfl_for_state(state: FlowState, safety: float = 0.2) -> float:
    lam = state.omega_t
    ric = -ddbar_periodic(np.log(lam), state.h)
    ric_scale = float(np.max(np.abs(ric / lam)))
    return cfl_bound(float(lam.min()), ric_scale, state.h, safety)


def _check_positive(lam, t, threshold=1e-12):
    m = float(lam.min())
    if not np.isfinite(m) or m <= threshold:
        idx = np.unravel_index(np.nanargmin(lam), lam.shape)
        raise FlowBreakdownError(t, tuple(int(i) for i in idx),
                                 f"min metric value {m:.3e}")


def flow_step_metric(state: FlowState, dt: float) -> FlowState:
    """Advance lam (and psi alongside) by one RK4 step of the metric flow."""
    h, lam0 = state.h, state.omega0

    def rhs(t, y):
        lam, _psi = y
        _check_positive(lam, t)
        return (ddbar_periodic(np.log(lam), h), np.log(lam / lam0))

    lam, psi = rk4_step(state.t, (state.omega_t, state.psi), dt, rhs)
    state.t += dt
    _check_positive(lam, state.t)
    state.omega_t, state.psi = lam, psi
    state.step_count += 1
    return state


def flow_step_potential(state: FlowState, dt: float) -> FlowState:
    """Advance psi by one RK4 step of the parabolic Monge-Ampere equation."""
    h, lam0, ric0 = state.h, state.omega0, state.ric0

    def rhs(t, y):
        (psi,) = y
        rec = lam0 - t * ric0 + ddbar_periodic(psi, h)
        _check_positive(rec, t)
        return (np.log(rec / lam0),)

    (psi,) = rk4_step(state.t, (state.psi,), dt, rhs)
    state.t += dt
    rec = lam0 - state.t * ric0 + ddbar_periodic(psi, h)
    _check_positive(rec, state.t)
    state.psi = psi
    state.omega_t = rec
    state.step_count += 1
    return state


def run_torus_flow(lam0, box_length, t_end, *, mode="metric", safety=0.2,
                   frame_dt=None, record=True):
    """Integrate to t_end, returning (state, frames).

    Frames are (t, lam, psi) triples captured at uniform `frame_dt` targets
    (default t_end/20); steps are clipped so frames land exactly on target.
    """
    state = torus_state(np.asarray(lam0, dtype=float), box_length)
    step = flow_step_metric if mode == "metric" else flow_step_potential
    frame_dt = frame_dt or t_end / 20.0
    frames = []
    next_frame = 0.0
    while True:
        if state.t >= next_frame - 1e-15 or state.t >= t_end - 1e-15:
            if record:
                state.record()
            frames.append((state.t, state.omega_t.copy(), state.psi.copy()))
            next_frame += frame_dt
        if state.t >= t_end - 1e-15:
            break
        dt = min(cfl_for_state(state, safety), t_end - state.t,
                 next_frame - state.t if next_frame > state.t else t_end - state.t)
        step(state, dt)
    return state, frames


# ---------------------------------------------------------------------------
# masked 2-D disk flow (cross-validation target for the radial reduction)
# ---------------------------------------------------------------------------

@dataclass
class DiskGrid:
    """Cartesian grid covering the disk |z| <= r_max with a Dirichlet ring."""
    r_max: float
    N: int

    def __post_init__(self):
        a = self.r_max
        x = np.linspace(-a, a, self.N)
        self.h = x[1] - x[0]
        self.X, self.Y = np.meshgrid(x, x, indexing="ij")
        self.R = np.sqrt(self.X**2 + self.Y**2)
        self.interior = self.R <= self.r_max - 2.5 * self.h
        self.band = (~self.interior) & (self.R <= self.r_max + 2.5 * self.h)

    def laplacian(self, u):
        """4th-order per-axis second differences: the cross-validation target
        must resolve well below the radial run's own accuracy."""
        out = np.zeros_like(u)
        c = u
        out[2:-2, 2:-2] = (
            (-c[:-4, 2:-2] + 16 * c[1:-3, 2:-2] - 30 * c[2:-2, 2:-2]
             + 16 * c[3:-1, 2:-2] - c[4:, 2:-2])
            + (-c[2:-2, :-4] + 16 * c[2:-2, 1:-3] - 30 * c[2:-2, 2:-2]
               + 16 * c[2:-2, 3:-1] - c[2:-2, 4:])
        ) / (12.0 * self.h**2)
        return out


def run_disk2d_flow(grid: DiskGrid, lam0_fn: Callable, boundary_fn: Callable,
                    t_end: float, *, normalized=False, safety=0.5):
    """Flow on the masked disk; `boundary_fn(R_array, t)` supplies band values.

    `lam0_fn(R_array)` seeds radially symmetric initial data (the use case is
    cross-validation against the 1-D radial reduction).
    """
    lam = lam0_fn(grid.R)
    lam[grid.band] = boundary_fn(grid.R[grid.band], 0.0)
    t = 0.0

    def rhs_field(tt, lam_now):
        u = np.log(lam_now)
        dd = 0.25 * grid.laplacian(u)
        out = dd - lam_now if normalized else dd
        out[~grid.interior] = 0.0
        return out

    while t < t_end - 1e-15:
        lam_in = lam[grid.interior]
        dt = min(cfl_bound(float(lam_in.min()), 2.0, grid.h, safety),
                 t_end - t)
        k1 = rhs_field(t, lam)
        y2 = lam + 0.5 * dt * k1
        y2[grid.band] = boundary_fn(grid.R[grid.band], t + 0.5 * dt)
        k2 = rhs_field(t + 0.5 * dt, y2)
        y3 = lam + 0.5 * dt * k2
        y3[grid.band] = boundary_fn(grid.R[grid.band], t + 0.5 * dt)
        k3 = rhs_field(t + 0.5 * dt, y3)
        y4 = lam + dt * k3
        y4[grid.band] = boundary_fn(grid.R[grid.band], t + dt)
        k4 = rhs_field(t + dt, y4)
        lam = lam + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        lam[grid.band] = boundary_fn(grid.R[grid.band], t)
        if float(lam[grid.interior].min()) <= 0:
            idx = np.unravel_index(np.argmin(np.where(grid.interior, lam, np.inf)),
                                   lam.shape)
            raise FlowBreakdownError(t, tuple(int(i) for i in idx))
    return lam, t
