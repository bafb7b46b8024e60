"""The time steppers and positivity guard, and the flows on a periodic 2-D
grid (n = 1 torus) and a masked disk.

The evolving object is the scalar metric density lam(x, y) > 0 of
g = lam |dz|^2 on a chart with z = x + iy.  The Chern-Ricci flow reads

    d_t lam = ddbar log lam,        ddbar u = (u_xx + u_yy)/4,

and its potential form, with Ric0 = -ddbar log lam0,

    d_t psi = log((lam0 - t Ric0 + ddbar psi)/lam0),   psi(0) = 0,
    lam(t)  = lam0 - t Ric0 + ddbar psi.

Space discretization is the 9-point second-order stencil, `ddbar_periodic`,
built from slices of one wrap-padded copy of the field.  There are two
steppers, on one loop (`_march`), the package's only time loop, that owns
frames, breakdown and the step count: `sdirk4`, an L-stable implicit SDIRK4
with its own error control, steps both torus forms and every radial metric
flow, where accuracy allows steps far above the explicit limit; `rk4`,
explicit RK4 under a step limit (`cfl_bound` for the flows), steps the
masked disk, the radial potential form and the Chen oracle's Riccati ODEs,
where SDIRK4 measures slower (see `rk4`).
`sdirk4` allocates its work arrays once per run and forms every stage sum,
Newton residual and size in place, in the floating-point order of the
formulas, so a step costs calls rather than temporaries and its frames are
those of the textbook loop bit for bit; its closures may hand back work
arrays of their own likewise.  The
torus runs solve their Newton systems with the constant-coefficient twin
I - (hg/c) ddbar_periodic, diagonal in Fourier space, by one numpy.fft
rfft2/irfft2 pair (`periodic_solver`).
`require_positive` is the one positivity guard: it refuses NaN, +-inf and
values at or below a floor, and breakdown raises `FlowBreakdownError` with
the offending location.  Hermitian symmetry is exact in this representation
(lam kept as a real array).

Full-grid runs are n = 1 only (the laboratory's higher-n scenarios are
radial or pointwise); constructing a torus flow with n >= 2 data raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FlowBreakdownError


def require_positive(v, t, floor, where):
    """Breakdown when the metric leaves the positive cone (or stalls at it):
    collapse toward zero is surfaced, never smoothed or crawled past.

    Raises on NaN, on +-inf and on any value <= floor: a NaN makes min() NaN,
    so both comparisons below fail closed.  The offending node is a
    non-finite one if there is any, else the minimum; it is reported as
    `where(i)`, i its flat index in v."""
    if not (v.min() > floor and v.max() < np.inf):
        bad = int(np.argmin(np.where(np.isfinite(v), v, -np.inf)))
        raise FlowBreakdownError(t, where(bad),
                                 f"lam={v.flat[bad]:.3e} <= floor {floor:g}")


def _node(i, shape):
    """Grid index of flat index i, as a breakdown reports it."""
    return tuple(int(j) for j in np.unravel_index(i, shape))


def _march(y, t_end, advance, check, frame_dt, frame):
    """The loop both steppers share: frames, the step count and breakdown.

    `advance(t, y, step, limit)` returns a candidate (new, dt) with
    dt <= limit, the distance to the next frame or t_end, so every frame lands
    exactly on its time.  `check(t, y)` raises FlowBreakdownError on the
    initial state and on each candidate, which is accepted only if it passes.
    A candidate that fails is retried with the step cut by 4, so a breakdown
    is placed to within 1e-8 (1 + t) of its time whatever the step size: the
    failure of a step below that is the breakdown.  `frame(step, t, y)` runs
    at t = 0, every `frame_dt`, at t_end, and at a broken run's last accepted
    state if that is no frame yet.  Returns (y, steps, t, error) at the last
    accepted state; error is the breakdown that stopped the run.
    """
    t, step, next_frame, framed = 0.0, 0, 0.0, 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            check(t, y)
            while True:
                if frame is not None and (t >= next_frame - 1e-14
                                          or t >= t_end - 1e-14):
                    frame(step, t, y)
                    framed = step
                    next_frame += frame_dt
                if t >= t_end - 1e-14:
                    break
                limit = min(t_end - t,
                            next_frame - t if next_frame > t else t_end - t)
                while True:
                    new, dt = advance(t, y, step, limit)
                    try:
                        check(t + dt, new)
                        break
                    except FlowBreakdownError:
                        if dt < 1e-8 * (1.0 + t):
                            raise
                        limit = dt / 4
                y, t, step = new, t + dt, step + 1
        except FlowBreakdownError as e:
            if frame is not None and step > framed:
                frame(step, t, y)
            return y, step, t, e
    return y, step, t, None


def rk4(y, t_end, rhs, cfl, check, *, frame_dt=None, frame=None):
    """Explicit RK4 from t = 0 to t_end on the state array y.

    `rhs(t, y, out)` writes dy/dt into out (and may set boundary values of
    y, as the masked disk does with its band).  `cfl(t, y)`, the step limit, is
    recomputed every step.  `check(t, y)` raises
    FlowBreakdownError on the initial and each accepted state; stages go
    unchecked, as a negative stage turns into NaN, which fails the check.
    Frames, the return value and breakdown are `_march`'s.

    It steps three things, each of which SDIRK4 steps slower (2-core
    x86-64 VM): the masked disk (`run_disk2d_flow`), 0.9 s on the perturbed
    datum at N = 193, where SDIRK4 took 37.4 s with a sparse LU Newton
    matrix and 8.1 s with the torus's FFT twin; the radial potential form
    (`radial.run_radial_potential_flow`), 0.46 s, where SDIRK4 needs 4,607
    steps (1.5-2.0 s) to meet the same bound on lam; and the Chen oracle
    (`chen`), all of whose cases share one explicit step.
    """
    k = np.empty((4,) + y.shape)

    def advance(t, y, step, limit):
        dt = min(cfl(t, y), limit)
        rhs(t, y, k[0])
        rhs(t + dt / 2, y + dt / 2 * k[0], k[1])
        rhs(t + dt / 2, y + dt / 2 * k[1], k[2])
        rhs(t + dt, y + dt * k[2], k[3])
        return y + dt / 6 * (k[0] + 2 * k[1] + 2 * k[2] + k[3]), dt

    return _march(y, t_end, advance, check, frame_dt, frame)


# sdirk4's local error tolerance, relative to 1 + |y| per component
rtol = 1e-10

# Hairer & Wanner, Solving ODEs II, Table 6.5: the L-stable, stiffly accurate
# SDIRK of order 4 (gamma = 1/4), and b - bhat of its order-3 embedding
_GAMMA = 0.25
_SDIRK_A = ((), (1 / 2,), (17 / 50, -1 / 25),
            (371 / 1360, -137 / 2720, 15 / 544),
            (25 / 24, -49 / 48, 125 / 16, -85 / 12))
_SDIRK_C = (1 / 4, 3 / 4, 11 / 20, 1 / 2, 1.0)
_SDIRK_E = (-3 / 16, -27 / 32, 25 / 32, 0.0, 1 / 4)


def sdirk4(y, t_end, rhs, factor, check, *, frame_dt=None, frame=None,
           measure=lambda d: d):
    """L-stable implicit SDIRK4 from t = 0 to t_end on the state array y.

    `rhs(t, y, out)` writes dy/dt into out, as for `rk4`; a state outside
    its domain (lam <= 0 where the state is lam) must come out non-finite,
    as the log in the flows' right-hand sides makes it.  `factor(t, y, hg)`
    factors I - hg J at the step's start state, J the Jacobian of rhs, or an
    approximation of it, and returns `solve(r)`, which gives
    (I - hg J)^-1 r.  `solve` may return a work array of its own that stays
    valid until its next call, and it must not keep r, which the stepper
    overwrites.  The five stages of a step share that factorization and are
    solved by simplified Newton.  The step size is controlled on the
    embedded order-3 error, filtered through the same solve, at `rtol`.
    Newton increments and the error are sized as `measure(increment)`,
    which broadcasts to y's shape: the identity, or the linear map to the
    quantity whose accuracy counts, as the torus potential form measures
    psi's increments on lam.  The first step is Hairer's 1e-2 |y| / |y'|,
    or 1e-6 where either size is below 1e-5, as on a zero state.  A step
    whose Newton iteration turns non-finite or stalls is cut by 4 and
    retried, so such an iterate is never accepted; a step that falls below
    1e-14 (1 + t) is a breakdown.  Frames, `check`, the return value and
    breakdown are `_march`'s, as for `rk4`.

    The work arrays are allocated once per run and every quantity is formed
    in place, in the floating-point order of the textbook formulas: the
    stage sums a_i1 hk_1 + a_i2 hk_2 + ... left to right, then y plus that
    sum; the residual z + (gamma dt) f - stage; sizes max(|d| / sc).  Only
    each attempt's stage array is new, as an accepted step returns it as
    the next state.
    """
    hk = np.empty((5,) + y.shape)       # h times each stage's derivative
    f, z, r, acc, sc, buf = (np.empty_like(y) for _ in range(6))
    h = None

    def size(v):
        np.abs(v, out=buf)
        np.divide(buf, sc, out=buf)
        return float(np.maximum.reduce(buf, axis=None))

    def combine(coefs):
        """sum(c_j hk_j) over the nonzero c_j, left to right, into acc."""
        terms = [(hk[j], c) for j, c in enumerate(coefs) if c]
        np.multiply(*terms[0], out=acc)
        for v, c in terms[1:]:
            np.multiply(v, c, out=r)
            np.add(acc, r, out=acc)
        return acc

    def attempt(t, y, dt):
        """(new, error size) of one step, or None if Newton fails."""
        hg = _GAMMA * dt
        solve = factor(t, y, hg)
        stage = np.empty_like(y)        # the next state if the step holds
        for i, (a, c) in enumerate(zip(_SDIRK_A, _SDIRK_C)):
            if i:
                np.add(y, combine(a), out=z)
                np.multiply(hk[i - 1], _GAMMA, out=stage)
                stage += z
            else:
                z[...] = y
                stage[...] = y
            prev = None
            for _ in range(7):
                rhs(t + c * dt, stage, f)
                np.multiply(f, hg, out=r)
                np.add(r, z, out=r)
                np.subtract(r, stage, out=r)
                d = solve(r)
                stage += d
                dn = size(measure(d))
                if not dn < np.inf:
                    return None
                if prev is not None:
                    rate = dn / prev
                    if rate >= 1.0:
                        return None
                    if rate / (1.0 - rate) * dn <= 1e-2:
                        break
                elif dn <= 1e-4:    # negligible at once, as on a fixed point
                    break
                prev = dn
            else:
                return None
            np.subtract(stage, z, out=hk[i])
            hk[i] /= _GAMMA
        return stage, size(measure(solve(combine(_SDIRK_E))))

    def advance(t, y, step, limit):
        nonlocal h
        np.abs(y, out=sc)
        np.add(sc, 1.0, out=sc)
        np.multiply(sc, rtol, out=sc)
        if h is None:       # Hairer's initial step, floored on a zero state
            rhs(t, y, f)
            yn, fn = size(y), size(f)
            if fn == 0.0:
                h = limit
            elif yn < 1e-5 or fn < 1e-5:
                h = min(limit, 1e-6)
            else:
                h = min(limit, 1e-2 * yn / fn)
        while True:
            dt = min(h, limit)
            if dt < 1e-14 * (1.0 + t):
                raise FlowBreakdownError(t, ("dt", dt), "step size underflow")
            out = attempt(t, y, dt)
            if out is None:
                h = dt / 4
                continue
            new, err = out
            if err <= 1.0:
                grow = min(5.0, 0.9 * err ** -0.25) if err > 0.0 else 5.0
                # a step cut short to land on a frame keeps the larger size
                h = max(h, dt * grow) if dt < h else dt * grow
                return new, dt
            h = dt * max(0.2, 0.9 * err ** -0.25) if err < np.inf else dt / 4

    return _march(y, t_end, advance, check, frame_dt, frame)


def _wrap_pad(u, k):
    """The n0 x n1 periodic field u with k wrapped nodes added on each side."""
    n0, n1 = u.shape
    p = np.empty((n0 + 2 * k, n1 + 2 * k))
    p[k:-k, k:-k] = u
    p[:k, k:-k] = u[-k:]
    p[-k:, k:-k] = u[:k]
    p[:, :k] = p[:, -2 * k:-k]
    p[:, -k:] = p[:, k:2 * k]
    return p


def ddbar_periodic(u, h):
    """ddbar = (u_xx + u_yy)/4 by the periodic 9-point stencil, second order,
    square spacing h: (4 (N + S + W + E) + NW + NE + SW + SE - 20 u) / (24 h^2),
    built from slices of one wrap-padded copy of u."""
    p = _wrap_pad(u, 1)
    s = p[:-2] + p[2:]                  # north + south, on the padded columns
    out = s[:, 1:-1] + p[1:-1, :-2]
    out += p[1:-1, 2:]
    out *= 4.0
    out += s[:, :-2]
    out += s[:, 2:]
    out -= 20.0 * u
    out *= 1.0 / (24.0 * h * h)
    return out


def scalar_curvature_periodic(lam, h):
    """Chern scalar R = -ddbar(log lam)/lam on the periodic grid."""
    return -ddbar_periodic(np.log(lam), h) / lam


def ddbar_periodic_4th(u, h):
    """4th-order periodic ddbar, the 5-point second difference along each
    axis; the independent measuring stick for residuals of runs advanced
    with the 2nd-order stencil."""
    p = _wrap_pad(u, 2)
    mid = slice(2, -2)
    out = p[1:-3, mid] + p[3:-1, mid] + p[mid, 1:-3] + p[mid, 3:-1]
    out *= 16.0
    out -= p[:-4, mid] + p[4:, mid] + p[mid, :-4] + p[mid, 4:]
    out -= 60.0 * u
    out *= 1.0 / (48.0 * h * h)
    return out


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

    def reconstruction_residual(self) -> float:
        rec = self.omega0 - self.t * self.ric0 + ddbar_periodic(self.psi, self.h)
        return float(np.max(np.abs(rec - self.omega_t)))


def cfl_bound(min_eig: float, ric_scale: float, grid_step: float,
              safety: float = 0.2) -> float:
    """Largest admissible explicit step, for the flows that `rk4` steps.

    The configured bound safety * h^2 * min_eig / max(1, ric_scale) is
    additionally capped by the parabolic stability limit h^2 * min_eig (the
    diffusivity of d_t lam = ddbar log lam is 1/(4 lam); RK4's real-axis
    stability gives coefficient ~1.4 on these stencils, 1.0 keeps margin).
    """
    base = safety * grid_step**2 * min_eig / max(1.0, ric_scale)
    return min(base, grid_step**2 * min_eig)


def periodic_symbol(n, h):
    """The symbol of ddbar_periodic on the n x n grid, spacing h, at the
    rfft2 frequencies (p, q), p < n and q <= n // 2:
    (8 cos p + 8 cos q + 4 cos p cos q - 20) / (24 h^2), angles 2 pi k / n."""
    cos = np.cos(2.0 * np.pi * np.arange(n) / n)
    cp, cq = cos[:, None], cos[:n // 2 + 1]
    return (8.0 * cp + 8.0 * cq + 4.0 * cp * cq - 20.0) / (24.0 * h * h)


def periodic_solver(n, h):
    """`solver(lam, hg)` for the torus flows' Newton systems on the n x n grid.

    It returns the solve of I - (hg/c) ddbar_periodic, 1/c the midpoint of
    1/lam's range: the constant-coefficient twin of both forms' I - hg J.
    That matrix is diagonal in Fourier space, where ddbar_periodic has the
    symbol `periodic_symbol`, so a solve is one numpy.fft rfft2/irfft2 pair
    over the last two axes, with the reciprocal of the diagonal taken once
    per factor.
    """
    symbol = periodic_symbol(n, h)

    def solver(lam, hg):
        inv = 1.0 / (1.0 - 0.5 * hg * (1.0 / lam.min() + 1.0 / lam.max())
                     * symbol)

        def solve(r):
            f = np.fft.rfft2(r)
            f *= inv
            return np.fft.irfft2(f, s=(n, n))
        return solve
    return solver


def run_torus_flow(lam0, box_length, t_end, *, mode="metric", frame_dt=None):
    """Integrate to t_end, returning (state, frames).

    The "metric" mode advances (lam, psi) together, psi by
    d_t psi = log(lam/lam0); the "potential" mode advances psi alone and
    reconstructs lam.  Both step through `sdirk4`, whose Newton systems are
    solved with `periodic_solver`: in the metric form for the lam row, with
    the psi row eliminated exactly (x_psi = r_psi + hg x_lam / lam); in the
    potential form with c from the reconstruction's range, its increments
    and error measured on lam, as ddbar of psi's.  Frames are (t, lam, psi)
    triples captured at uniform `frame_dt` targets (default t_end/20); steps
    are clipped so frames land exactly on target.  Raises
    FlowBreakdownError when lam falls to 1e-12 or turns non-finite, and
    ValueError for any other mode.
    """
    if mode not in ("metric", "potential"):
        raise ValueError(f"torus flow mode must be 'metric' or 'potential', "
                         f"got {mode!r}")
    lam0 = np.asarray(lam0, dtype=float)
    if lam0.ndim != 2 or lam0.shape[0] != lam0.shape[1]:
        raise ValueError("torus flow needs square n=1 grid data (N, N)")
    h = box_length / lam0.shape[0]
    node = lambda i: _node(i, lam0.shape)
    require_positive(lam0, 0.0, 1e-12, node)    # before Ric0 takes its log
    ric0 = -ddbar_periodic(np.log(lam0), h)
    state = FlowState(t=0.0, h=h, omega0=lam0, ric0=ric0,
                      psi=np.zeros_like(lam0), omega_t=lam0)
    solver = periodic_solver(lam0.shape[0], h)

    if mode == "metric":
        y = np.stack([lam0, state.psi])
        measure = lambda d: d       # lam and psi, each as it is

        def rhs(t, v, out):
            out[0] = ddbar_periodic(np.log(v[0]), h)
            np.log(np.divide(v[0], lam0, out=out[1]), out=out[1])

        def factor(t, v, hg):
            """I - hg J, J = [[ddbar(./lam), 0], [diag(1/lam), 0]]."""
            solve_lam = solver(v[0], hg)

            def solve(r):
                out = np.empty_like(r)
                out[0] = solve_lam(r[0])
                out[1] = r[1] + hg * out[0] / v[0]
                return out
            return solve

        def accept(t, v):
            require_positive(v[0], t, 1e-12, node)
            state.t, state.omega_t, state.psi = t, v[0], v[1]
    else:
        y = state.psi[None]

        def reconstruct(psi, t):
            return lam0 - t * ric0 + ddbar_periodic(psi, h)

        def rhs(t, v, out):
            np.log(np.divide(reconstruct(v[0], t), lam0, out=out[0]), out=out[0])

        def factor(t, v, hg):
            """I - hg J, J = diag(1/lam) ddbar, lam the reconstruction that
            `accept` kept of the step's start state."""
            return solver(state.omega_t, hg)

        def measure(d):     # psi's increment, on lam and relative to 1 + lam
            return ddbar_periodic(d[0], h) / (1.0 + state.omega_t)

        def accept(t, v):
            rec = reconstruct(v[0], t)
            require_positive(rec, t, 1e-12, node)
            state.t, state.omega_t, state.psi = t, rec, v[0]

    # a frame copies lam and psi in one allocation: two apart leave the heap
    # with holes that the stacked stage arrays cannot reuse (+3 MB peak RSS
    # on a 128 x 128 metric-form run)
    frames = []
    _, state.step_count, _, err = sdirk4(
        y, t_end, rhs, factor, accept,
        frame_dt=frame_dt or t_end / 20.0,
        frame=lambda step, t, v: frames.append(
            (t, *np.stack([state.omega_t, state.psi]))),
        measure=measure)
    if err is not None:
        raise err
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
                    t_end: float, *, normalized=False):
    """Flow on the masked disk; `boundary_fn(R_array, t)` supplies band values.

    `lam0_fn(R_array)` seeds radially symmetric initial data (the use case is
    cross-validation against the 1-D radial reduction).  Each stage writes
    the band at its own time; returns (lam, t).  Raises FlowBreakdownError
    when an interior value falls to 0 or turns non-finite.
    """
    band_R = grid.R[grid.band]
    outside = ~grid.interior
    interior_nodes = np.flatnonzero(grid.interior)
    node = lambda i: _node(interior_nodes[i], grid.R.shape)

    def rhs(t, v, out):
        v[grid.band] = boundary_fn(band_R, t)
        dd = 0.25 * grid.laplacian(np.log(v))
        out[...] = dd - v if normalized else dd
        out[outside] = 0.0

    lam, _, t, err = rk4(
        lam0_fn(grid.R), t_end, rhs,
        lambda t, v: cfl_bound(float(v[grid.interior].min()), 2.0, grid.h, 0.5),
        lambda t, v: require_positive(v[grid.interior], t, 0.0, node))
    if err is not None:
        raise err
    lam[grid.band] = boundary_fn(band_R, t)
    return lam, t
