import os
import warnings
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from crflow import flow as FL
from crflow import radial as RD
from crflow import scenarios as SC
from crflow.errors import FlowBreakdownError
from crflow.flow import (_GAMMA, _SDIRK_A, _SDIRK_C, _SDIRK_E, _march, rtol)
from crflow.flow import (DiskGrid, cfl_bound, ddbar_periodic, ddbar_periodic_4th,
                         hermite_weights, periodic_solver, periodic_symbol,
                         potential_integrator, require_positive, rk4,
                         run_disk2d_flow, run_torus_flow,
                         scalar_curvature_periodic, sdirk4)


def bumpy_lam0(N, L=1.0, amp=0.05):
    x = np.arange(N) * (L / N)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.exp(amp * np.cos(2 * np.pi * X / L) * np.cos(2 * np.pi * Y / L))


def test_flat_torus_stationary():
    """lam = 1 is a fixed point, and psi, integrated from lam's steps,
    stays exactly 0 at every frame."""
    state, frames = run_torus_flow(np.ones((16, 16)), 1.0, 0.01)
    assert np.abs(state.omega_t - 1.0).max() == 0.0
    assert np.abs(state.psi).max() == 0.0
    assert len(frames) == 21
    assert all(np.all(lam == 1.0) and np.all(psi == 0.0)
               for _, lam, psi in frames)


def test_torus_reconstruction_identity():
    """omega(t) = omega0 - t Ric0 + ddbar psi holds along the metric flow."""
    state, _ = run_torus_flow(bumpy_lam0(32), 1.0, 0.004)
    assert state.reconstruction_residual() < 1e-8


def test_torus_positivity_and_diagnostics():
    state, frames = run_torus_flow(bumpy_lam0(32), 1.0, 0.003)
    assert all(lam.min() > 0 for _, lam, _ in frames)


def test_metric_vs_potential_equivalence():
    """The metric form's psi, integrated from lam's accepted steps, matches
    the potential form's stepped psi to 1e-12 at every frame."""
    lam0 = bumpy_lam0(32)
    sm, fm = run_torus_flow(lam0, 1.0, 0.004, mode="metric")
    sp, fp = run_torus_flow(lam0, 1.0, 0.004, mode="potential")
    assert np.abs(sm.omega_t - sp.omega_t).max() < 1e-9
    assert np.abs(sm.psi - sp.psi).max() < 1e-9
    assert [f[0] for f in fm] == [f[0] for f in fp]
    assert max(np.max(np.abs(a[2] - b[2])) for a, b in zip(fm, fp)) <= 1e-12


# a cubic forcing g(t) = sum c_k t^k
_CUBIC = (0.3, -1.7, 2.9, -4.1)


def _cubic(t):
    c0, c1, c2, c3 = _CUBIC
    return c0 + t * (c1 + t * (c2 + t * c3))


def _cubic_prime(t):
    _, c1, c2, c3 = _CUBIC
    return c1 + t * (2 * c2 + t * 3 * c3)


def _exact_exp_integral(t0, t1):
    """int_t0^t1 e^-(t1 - s) g(s) ds for the cubic g, exactly, as a
    Fraction: the series of e^-x about 0 (40 terms, for t1 - t0 <= 1) on
    each monomial of g expanded about t0."""
    a, d = Fraction(t0), Fraction(t1) - Fraction(t0)
    total = Fraction(0)
    for k in range(4):          # (a + u)^k = sum C(k, i) a^(k - i) u^i
        coef = Fraction(_CUBIC[k])
        for i in range(k + 1):
            c = coef * comb(k, i) * a ** (k - i)
            total += c * sum((-1) ** j * d ** (j + i + 1)
                             * Fraction(factorial(i), factorial(j + i + 1))
                             for j in range(40))
    return total


@pytest.mark.parametrize("dt", [1e-8, 1e-4, 0.25, 1.0])
def test_hermite_weights_exact_on_a_cubic_forcing(dt):
    """dt (W00 g_0 + W01 g_1) + dt^2 (W10 g'_0 + W11 g'_1) with decay 1 is
    int_0^dt e^-(dt - s) g(s) ds for cubic g to rounding, from dt = 1e-8
    (where the closed form through the cubic's particular solution is
    9.8e-9 off) to dt = 1."""
    w00, w01, w10, w11 = hermite_weights(1.0, dt)
    got = (dt * (w00 * _cubic(0.0) + w01 * _cubic(dt))
           + dt * dt * (w10 * _cubic_prime(0.0) + w11 * _cubic_prime(dt)))
    scale = dt * sum(abs(c) for c in _CUBIC)
    assert abs(Fraction(got) - _exact_exp_integral(0.0, dt)) <= 4e-16 * scale


def test_hermite_weights_at_zero_decay_are_corrected_trapezoid():
    for decay, dt in ((0.0, 1e-8), (0.0, 0.3), (0.0, 1e6), (1.0, 0.0)):
        assert hermite_weights(decay, dt) == (0.5, 0.5, 1 / 12, -1 / 12)


def test_potential_integrator_exact_on_a_cubic_forcing():
    """p' = g - p from p(0) = 0 over uneven steps: p equals
    int_0^t e^-(t - s) g(s) ds at every step's end, to rounding."""
    p = np.zeros(1)
    advance = potential_integrator(
        p, 1.0, lambda t, y: (np.array([_cubic(t)]),
                              np.array([_cubic_prime(t)])))
    advance(0.0, None)
    assert p[0] == 0.0
    t = 0.0
    for dt in (1e-6, 0.01, 0.3, 0.05, 0.7):
        t += dt
        advance(t, None)
        want = _exact_exp_integral(0.0, t)
        assert abs(Fraction(float(p[0])) - want) <= 1e-15


def test_torus_area_preserved():
    """The n=1 flow preserves the total area (integral of ddbar log lam = 0
    on a periodic chart); the bumpy metric relaxes toward the flat one."""
    lam0 = bumpy_lam0(32, amp=0.08)
    state, _ = run_torus_flow(lam0, 1.0, 0.01)
    assert state.omega_t.mean() == pytest.approx(lam0.mean(), rel=1e-10)
    assert state.omega_t.std() < lam0.std()


def test_cfl_bound_flat_and_scaling():
    assert cfl_bound(1.0, 1.0, 0.1, safety=0.2) == pytest.approx(0.2 * 0.01)
    # doubling resolution quarters dt_max
    a = cfl_bound(1.0, 1.0, 0.1, safety=0.2)
    b = cfl_bound(1.0, 1.0, 0.05, safety=0.2)
    assert a / b == pytest.approx(4.0)
    # stability cap engages for large safety
    assert cfl_bound(1.0, 1.0, 0.1, safety=50.0) == pytest.approx(0.01)


def test_flow_step_rejects_positivity_loss():
    """A datum at the 1e-12 floor breaks down at t = 0 in both forms, at its
    node."""
    lam0 = np.ones((16, 16))
    lam0[3, 5] = 1e-14
    for mode in ("metric", "potential"):
        with pytest.raises(FlowBreakdownError) as exc:
            run_torus_flow(lam0, 1.0, 1e-3, mode=mode)
        assert exc.value.time == 0.0
        assert exc.value.where == (3, 5)


def test_potential_step_rejects_nonpositive_reconstruction():
    """The potential form guards its reconstruction lam0 - t Ric0 + ddbar psi:
    a zero, negative, NaN or infinite node (whose Ric0 is non-finite) raises
    at t = 0, at or next to that node."""
    for bad in (0.0, -1.0, np.nan, np.inf):
        lam0 = bumpy_lam0(16, amp=0.02)
        lam0[3, 5] = bad
        with pytest.raises(FlowBreakdownError) as exc, \
                np.errstate(divide="ignore", invalid="ignore"):
            run_torus_flow(lam0, 1.0, 1e-3, mode="potential")
        i, j = exc.value.where
        assert exc.value.time == 0.0
        assert abs(i - 3) <= 1 and abs(j - 5) <= 1


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("mode", ["metric", "potential"])
def test_torus_datum_off_the_cone_raises_without_warning(bad, mode):
    """The datum is guarded before Ric0 takes its log, so a bad node raises
    FlowBreakdownError at t = 0, at that node, and numpy warns of nothing."""
    lam0 = bumpy_lam0(16, amp=0.02)
    lam0[3, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowBreakdownError) as exc:
            run_torus_flow(lam0, 1.0, 1e-3, mode=mode)
    assert exc.value.time == 0.0
    assert exc.value.where == (3, 5)


def test_torus_flow_rejects_an_unknown_mode():
    """A misspelt mode is an error, not a silent potential-form run."""
    with pytest.raises(ValueError, match="metrik"):
        run_torus_flow(bumpy_lam0(8), 1.0, 1e-3, mode="metrik")


@pytest.mark.parametrize("floor, frame_times", [
    (0.5, [0.0, 0.1, 0.2, 0.3, 0.4]),   # breaks between frames: one more
    (1.0 - 1e-12, [0.0]),               # the first step fails: none more
])
def test_broken_run_frames_its_last_accepted_state_once(floor, frame_times):
    """lam' = -1 from 1 crosses the floor; `_march` ends the frames on the
    last accepted state, and records no state twice."""
    frames = []
    y, steps, t, err = rk4(
        np.ones(1), 1.0, lambda t, v, out: out.fill(-1.0),
        lambda t, v: 0.01, lambda t, v: require_positive(v, t, floor, int),
        frame_dt=0.1, frame=lambda step, t, v: frames.append((step, t, v[0])))
    assert isinstance(err, FlowBreakdownError)
    assert frames[-1] == (steps, t, y[0])
    assert y[0] > floor and abs(y[0] - floor) < 1e-7
    assert [s for s, _, _ in frames] == sorted({s for s, _, _ in frames})
    got = [ft for _, ft, _ in frames]
    assert got[:len(frame_times)] == pytest.approx(frame_times, abs=1e-12)
    assert len(got) == len(frame_times) + (t > frame_times[-1] + 1e-12)


@pytest.mark.parametrize("name, steps", [("bumpy-torus", 20),
                                         ("flat-torus-stationary", 10)])
def test_torus_steps_pinned(name, steps):
    """Step counts of the bundled torus scenarios, in both forms: SDIRK4
    takes one step a frame."""
    cfg = SC.load_config(os.path.join(SC.bundled_scenario_dir(), name + ".json"))
    fl = cfg["flow"]
    for mode in ("metric", "potential"):
        state, frames = run_torus_flow(
            SC._torus_datum(cfg), cfg["chart"]["box_length"], fl["t_max"],
            mode=mode, frame_dt=fl["frame_dt"])
        assert state.step_count == steps
        assert state.t == frames[-1][0] == pytest.approx(fl["t_max"], abs=1e-15)



@pytest.mark.parametrize("n", [16, 17])
def test_periodic_solver_inverts_the_constant_coefficient_matrix(n):
    """The FFT solve is (I - (hg/c) ddbar_periodic)^-1, 1/c the midpoint of
    1/lam's range, on random fields: a wrong symbol fails this by far."""
    rng = np.random.default_rng(n)
    h, hg = 1.0 / n, 3e-3
    lam = np.exp(rng.uniform(-1.0, 1.0, (n, n)))
    k = 0.5 * hg * (1.0 / lam.min() + 1.0 / lam.max())
    solve = periodic_solver(n, h)(lam, hg)
    for shape in ((n, n), (1, n, n)):     # the potential form's state is 3-D
        r = rng.standard_normal(shape)
        x = solve(r)
        assert x.shape == shape
        x, r = x.reshape(n, n), r.reshape(n, n)
        assert np.max(np.abs(x - k * ddbar_periodic(x, h) - r)) < 1e-12


def _rk4_torus_frames(lam0, t_end, frame_dt, mode):
    """The torus flow stepped by `flow.rk4` under `cfl_bound` at safety 0.2,
    the step the torus flows took before SDIRK4: a reference in lam."""
    n = lam0.shape[0]
    h = 1.0 / n
    ric0 = -ddbar_periodic(np.log(lam0), h)
    frames = []
    if mode == "metric":
        def lam(t, v):
            return v[0]

        def rhs(t, v, out):
            out[0] = ddbar_periodic(np.log(v[0]), h)
            out[1] = np.log(v[0] / lam0)
        y = np.stack([lam0, np.zeros_like(lam0)])
    else:
        def lam(t, v):
            return lam0 - t * ric0 + ddbar_periodic(v[0], h)

        def rhs(t, v, out):
            out[0] = np.log(lam(t, v) / lam0)
        y = np.zeros((1, n, n))

    def cfl(t, v):
        lt = lam(t, v)
        return cfl_bound(float(lt.min()),
                         float(np.max(np.abs(scalar_curvature_periodic(lt, h)))),
                         h, 0.2)

    _, _, _, err = rk4(y, t_end, rhs, cfl, lambda t, v: None,
                       frame_dt=frame_dt,
                       frame=lambda step, t, v: frames.append((t, lam(t, v))))
    assert err is None
    return frames


@pytest.mark.parametrize("amp, t_end", [(0.05, 4e-3), (0.5, 1e-3)])
@pytest.mark.parametrize("mode", ["metric", "potential"])
def test_torus_sdirk4_frames_match_rk4(amp, t_end, mode):
    """SDIRK4 frames of both torus forms agree with the RK4 + cfl_bound
    reference to 1e-9 relative in lam, on bumpy data of amplitude 0.05 and
    0.5 (lam_max / lam_min = 1.1 and 2.7)."""
    lam0 = bumpy_lam0(32, amp=amp)
    _, frames = run_torus_flow(lam0, 1.0, t_end, mode=mode,
                               frame_dt=t_end / 10)
    ref = _rk4_torus_frames(lam0, t_end, t_end / 10, mode)
    assert [t for t, _, _ in frames] == pytest.approx([t for t, _ in ref],
                                                      abs=1e-15)
    rel = max(np.max(np.abs(lam - r) / r)
              for (_, lam, _), (_, r) in zip(frames, ref))
    assert rel <= 1e-9


def test_torus_forms_agree_on_rough_data():
    """On amplitude 0.5 the potential form, whose error is measured on lam,
    agrees with the metric form to 1e-10 in lam at every frame."""
    lam0 = bumpy_lam0(32, amp=0.5)
    _, fm = run_torus_flow(lam0, 1.0, 2e-3, mode="metric")
    _, fp = run_torus_flow(lam0, 1.0, 2e-3, mode="potential")
    assert [f[0] for f in fm] == [f[0] for f in fp]
    assert max(np.max(np.abs(a[1] - b[1])) for a, b in zip(fm, fp)) <= 1e-10


def test_disk2d_steps_pinned():
    """Four band evaluations per step (one per stage) and one reset after the
    last: 47 steps on the 49-node grid to t = 0.01."""
    times = []

    def boundary(R, t):
        times.append(t)
        return RD.homothety_lambda(R, t)

    _, t = run_disk2d_flow(DiskGrid(0.7, 49), RD.poincare_lambda, boundary, 0.01)
    assert len(times) == 4 * 47 + 1
    assert times[0] == 0.0 and times[-1] == t == 0.01


def test_sdirk4_cuts_non_finite_iterates_and_underflows():
    """y' = -y, with a right-hand side that turns NaN from t = 0.3 on, as a
    flow's does once a Newton iterate leaves the positive cone: every state
    checked is finite and on e^-t, steps are cut short of 0.3, and the run
    ends there in a step-size underflow."""
    def rhs(t, y, out):
        out[:] = -y if t < 0.3 else np.nan

    checked = []

    def check(t, y):
        checked.append(y[0])
        require_positive(y, t, 0.0, lambda i: i)

    y, steps, t, err = sdirk4(np.array([1.0]), 1.0, rhs,
                              lambda t, y, hg: lambda r: r / (1.0 + hg), check,
                              frame_dt=0.5, frame=lambda step, t, y: None)
    assert np.all(np.isfinite(checked))
    assert 0.3 - 1e-12 < t < 0.3 and steps > 0
    assert abs(y[0] / np.exp(-t) - 1.0) < 1e-10
    assert isinstance(err, FlowBreakdownError) and "underflow" in str(err)


def test_sdirk4_starts_from_a_zero_state():
    """y' = 1 - y from y = 0: the first step is Hairer's floor 1e-6, not
    1e-2 |y| / |y'| = 0, and the run reaches t = 1 on 1 - e^-1."""
    y, steps, t, err = sdirk4(np.zeros(1), 1.0,
                              lambda t, y, out: np.subtract(1.0, y, out=out),
                              lambda t, y, hg: lambda r: r / (1.0 + hg),
                              lambda t, y: None)
    assert err is None and t == 1.0 and steps > 0
    assert abs(y[0] - (1.0 - np.exp(-1.0))) <= 1e-9


def _sdirk4_reference(y, t_end, rhs, factor, check, *, frame_dt=None,
                      frame=None, measure=lambda d: d):
    """`sdirk4` as it was written before its work arrays: every stage sum,
    residual and size a fresh temporary.  The reference that the buffered
    stepper must reproduce bit for bit."""
    hk = np.empty((5,) + y.shape)       # h times each stage's derivative
    f = np.empty_like(y)
    h = None

    def size(v, sc):
        return float(np.max(np.abs(v) / sc))

    def attempt(t, y, dt, sc):
        """(new, error size) of one step, or None if Newton fails."""
        solve = factor(t, y, _GAMMA * dt)
        for i, (a, c) in enumerate(zip(_SDIRK_A, _SDIRK_C)):
            z = y + sum(aj * hk[j] for j, aj in enumerate(a))
            stage = z + _GAMMA * hk[i - 1] if i else y.copy()
            prev = None
            for _ in range(7):
                rhs(t + c * dt, stage, f)
                d = solve(z + _GAMMA * dt * f - stage)
                stage += d
                dn = size(measure(d), sc)
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
            hk[i] = (stage - z) / _GAMMA
        err = solve(sum(e * hk[i] for i, e in enumerate(_SDIRK_E) if e))
        return stage, size(measure(err), sc)

    def advance(t, y, step, limit):
        nonlocal h
        sc = rtol * (1.0 + np.abs(y))
        if h is None:       # Hairer's initial step, floored on a zero state
            rhs(t, y, f)
            yn, fn = size(y, sc), size(f, sc)
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
            out = attempt(t, y, dt, sc)
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


def _outcome(run):
    """(steps, frames) of a run, each frame a tuple of arrays and times: a
    radial run's (step, time, lam, phi, phi'), a torus run's (t, lam, psi)."""
    if isinstance(run, RD.RadialRun):
        return run.steps_taken, [(fr.step, fr.time, fr.lam, fr.phi,
                                  fr.phi_prime) for fr in run.frames]
    return run[0].step_count, run[1]


@pytest.mark.parametrize("make", [
    pytest.param(lambda: RD.run_normalized_radial(
        lambda r: RD.perturbed_poincare_lambda(r, 0.2), 0.8, 1.5, nodes=48,
        order=6, boundary=RD.Steady(RD.ke_lambda), frame_ds=0.25),
        id="normalized-ke"),
    pytest.param(lambda: RD.run_normalized_radial(
        RD.poincare_lambda, 0.8, 1.0, nodes=48, frame_ds=0.25,
        boundary=lambda r, s: np.exp(-s) * RD.homothety_lambda(r, np.expm1(s))),
        id="normalized-exact-homothety"),
    pytest.param(lambda: RD.run_radial_flow(
        lambda r: RD.perturbed_poincare_lambda(r, 0.2), 0.8, 0.3, nodes=48,
        frame_dt=0.05), id="unnormalized-extrapolated"),
    pytest.param(lambda: run_torus_flow(bumpy_lam0(32), 1.0, 0.004,
                                        mode="potential"),
                 id="torus-potential"),
])
def test_sdirk4_is_its_reference_loop_bit_for_bit(make, monkeypatch):
    """The buffered `sdirk4` gives every frame and the step count of the
    loop that forms each stage sum, residual and size as a new array: the
    same floating-point operations in the same order, on the same
    closures, with time-dependent and steady ghosts, given and extrapolated
    closures, and the torus potential form with its lam measure."""
    steps, frames = _outcome(make())
    monkeypatch.setattr(RD, "sdirk4", _sdirk4_reference)
    monkeypatch.setattr(FL, "sdirk4", _sdirk4_reference)
    ref_steps, ref_frames = _outcome(make())
    assert steps == ref_steps > 0
    assert len(frames) == len(ref_frames) > 2
    for got, want in zip(frames, ref_frames):
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

def test_disk2d_flow_refuses_nan():
    """A NaN interior node is a breakdown at t = 0, not a silent NaN run."""
    grid = DiskGrid(0.7, 33)

    def lam0(R):
        lam = RD.poincare_lambda(R)
        lam[16, 16] = np.nan
        return lam

    with pytest.raises(FlowBreakdownError) as exc:
        run_disk2d_flow(grid, lam0, lambda R, t: RD.homothety_lambda(R, t), 0.01)
    assert exc.value.time == 0.0
    assert exc.value.where == (16, 16)


def test_positively_curved_cap_shrinks_and_breaks_down():
    """Fubini-Study-like cap lam = (1+r^2)^-2 has Ric = +2g; the flow is the
    exact homothety lam(t) = (1-2t) lam0, so det g shrinks where Ric > 0 and
    positivity fails at t = 1/2 (surfaced as an explicit breakdown)."""
    fs = boundary = RD.fubini_cap_lambda
    run = RD.run_radial_flow(fs, 0.8, 0.2, nodes=32, boundary=boundary)
    assert not run.broken
    mid = run.frames[len(run.frames) // 2]
    assert np.all(mid.lam < run.frames[0].lam)   # d_t det g < 0
    exact = (1.0 - 2.0 * mid.time) * fs(run.grid.r)
    assert np.abs(mid.lam - exact).max() < 1e-6
    run2 = RD.run_radial_flow(fs, 0.8, 0.45, nodes=32, boundary=boundary,
                              min_eig_floor=0.05)
    assert run2.broken
    assert "floor" in run2.breakdown


def test_ddbar_periodic_second_order():
    N1, N2 = 32, 64
    errs = []
    for N in (N1, N2):
        x = np.arange(N) / N
        X, Y = np.meshgrid(x, x, indexing="ij")
        u = np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y)
        exact = -0.25 * ((2 * np.pi) ** 2 + (4 * np.pi) ** 2) * u
        errs.append(np.abs(ddbar_periodic(u, 1.0 / N) - exact).max())
    assert errs[0] / errs[1] > 3.5



def _ddbar_9pt_roll(u, h):
    """The 9-point periodic ddbar written with np.roll: the reference for
    the wrap-padded kernel."""
    c = np.roll
    cross = c(u, 1, 0) + c(u, -1, 0) + c(u, 1, 1) + c(u, -1, 1)
    diag = (c(c(u, 1, 0), 1, 1) + c(c(u, 1, 0), -1, 1)
            + c(c(u, -1, 0), 1, 1) + c(c(u, -1, 0), -1, 1))
    return 0.25 * (4.0 * cross + diag - 20.0 * u) / (6.0 * h * h)


def _ddbar_4th_roll(u, h):
    """The 4th-order periodic ddbar written with np.roll."""
    c = np.roll
    acc = -60.0 * u
    for ax in (0, 1):
        acc = acc + (-c(u, 2, ax) + 16.0 * c(u, 1, ax)
                     + 16.0 * c(u, -1, ax) - c(u, -2, ax))
    return acc / (48.0 * h * h)


@pytest.mark.parametrize("n", [8, 9, 16, 33])
def test_periodic_kernels_equal_their_roll_formulas(n):
    """Both wrap-padded kernels are their np.roll formulas up to the order
    of summation, on random fields, odd n and the smallest pad included."""
    rng = np.random.default_rng(n)
    h = 1.0 / n
    for _ in range(3):
        u = rng.standard_normal((n, n))
        tol = 64 * np.finfo(float).eps * np.max(np.abs(u)) / h**2
        for kernel, ref in ((ddbar_periodic, _ddbar_9pt_roll),
                            (ddbar_periodic_4th, _ddbar_4th_roll)):
            out = kernel(u, h)
            assert out.shape == u.shape
            assert np.max(np.abs(out - ref(u, h))) <= tol


@pytest.mark.parametrize("n", [16, 17])
def test_ddbar_periodic_has_the_solver_symbol(n):
    """ddbar_periodic of each Fourier mode cos(2 pi (p i + q j) / n) is that
    mode times the symbol `periodic_solver` divides by: kernel and solve are
    one stencil."""
    h = 0.3 / n
    symbol = periodic_symbol(n, h)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for p, q in ((0, 1), (1, 0), (1, 1), (2, 3), (n // 2, n // 2),
                 (n - 1, 2), (5, n // 2)):
        mode = np.cos(2.0 * np.pi * (p * i + q * j) / n)
        out = ddbar_periodic(mode, h)
        scale = np.max(np.abs(symbol[p, q] * mode))
        assert np.max(np.abs(out - symbol[p, q] * mode)) <= 1e-12 * scale

def test_radial_vs_disk2d_homothety():
    """1-D reduction against the masked 2-D grid on the exact homothety."""
    t_end = 0.01
    run = RD.run_radial_flow(RD.poincare_lambda, 0.7, t_end, nodes=128, order=6,
                             boundary=lambda r, t: RD.homothety_lambda(r, t))
    grid = DiskGrid(0.7, 193)
    lam2d, t2d = run_disk2d_flow(grid, RD.poincare_lambda,
                                 lambda R, t: RD.homothety_lambda(R, t), t_end)
    exact = RD.homothety_lambda(grid.R, t2d)
    sel = grid.interior
    assert (np.abs(lam2d[sel] - exact[sel]) / exact[sel]).max() < 1e-8
    fr = run.frames[-1]
    exact_r = RD.homothety_lambda(run.grid.r, fr.time)
    assert (np.abs(fr.lam - exact_r) / exact_r).max() < 1e-8


@pytest.mark.slow
def test_radial_vs_disk2d_perturbed_consistency():
    """Symmetric perturbed data: the radial reduction and the 2-D grid agree
    to 1e-6 after matched refinement (cubic transfer between the grids)."""
    from scipy.interpolate import CubicSpline
    t_end = 0.005
    amp = 0.05

    def lam0(r):
        return RD.perturbed_poincare_lambda(r, amp, support=0.5)

    def boundary(r, t):
        return RD.homothety_lambda(r, t)

    diffs = []
    for nodes, N2 in ((64, 97), (128, 193)):
        run = RD.run_radial_flow(lam0, 0.7, t_end, nodes=nodes, order=4,
                                 boundary=boundary)
        grid = DiskGrid(0.7, N2)
        lam2d, _ = run_disk2d_flow(grid, lam0, boundary, t_end)
        fr = run.frames[-1]
        interp = CubicSpline(run.grid.r, fr.lam)(grid.R[grid.interior])
        diffs.append(np.abs(lam2d[grid.interior] - interp).max())
    assert diffs[1] < diffs[0] / 2.5
    assert diffs[1] < 1e-6
