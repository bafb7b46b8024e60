import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crflow import radial as RD
from crflow.errors import FlowBreakdownError
from crflow.flow import cfl_bound, require_positive, rk4


def test_homothety_tracking_coarse():
    run = RD.run_radial_flow(RD.poincare_lambda, 0.7, 0.1, nodes=128, order=6,
                             boundary=lambda r, t: RD.homothety_lambda(r, t))
    fr = run.frames[-1]
    exact = RD.homothety_lambda(run.grid.r, fr.time)
    assert np.abs(fr.lam / exact - 1.0).max() < 1e-9


def test_flat_profile_stationary():
    run = RD.run_radial_flow(lambda r: np.ones_like(r), 0.8, 0.05, nodes=64)
    assert np.abs(run.frames[-1].lam - 1.0).max() < 1e-12


def test_potential_run_matches_closed_form():
    """psi for the homothety equals [(1+2t)(log(1+2t)-1)+1]/2, uniformly in
    space (symbolic-oracle value)."""
    grid, psi, lam_rec, t = RD.run_radial_potential_flow(
        RD.poincare_lambda, 0.7, 0.08, nodes=128,
        boundary_psi=lambda r, tt: np.full_like(r, RD.homothety_psi(tt)),
        boundary_lam=lambda r, tt: RD.homothety_lambda(r, tt))
    assert np.abs(psi - RD.homothety_psi(t)).max() < 1e-6
    exact = RD.homothety_lambda(grid.r, t)
    assert np.abs(lam_rec / exact - 1.0).max() < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_homothety_psi_is_the_balls_potential(n):
    """psi(0) = 0, and psi' = n log(1 + (n + 1) t) by central differences."""
    assert RD.homothety_psi(0.0, n) == 0.0
    d = 1e-5
    for t in (0.05, 0.3, 1.0):
        fd = (RD.homothety_psi(t + d, n) - RD.homothety_psi(t - d, n)) / (2 * d)
        assert abs(fd - n * np.log(1.0 + (n + 1) * t)) < 1e-8


def test_potential_vs_metric_form_agree():
    lam0 = lambda r: RD.perturbed_poincare_lambda(r, 0.05, support=0.5)
    bl = lambda r, t: RD.homothety_lambda(r, t)
    run = RD.run_radial_flow(lam0, 0.7, 0.02, nodes=96, boundary=bl)
    grid, psi, lam_rec, t = RD.run_radial_potential_flow(
        lam0, 0.7, 0.02, nodes=96, boundary_lam=bl, boundary_psi=None)
    # psi ghosts are extrapolated (psi is unknown outside); compare away
    # from the outer ring
    mask = grid.r <= 0.6
    fr = run.frames[-1]
    assert abs(fr.time - t) < 1e-12
    assert np.abs((lam_rec - fr.lam)[mask]).max() < 1e-7


def test_one_step_run_matches_homothety():
    """One SDIRK4 step of dt = h^2/2 through `run_radial_flow` with exact
    Dirichlet ghosts lands on the homothety."""
    grid = RD.RadialGrid(0.7, 64)
    dt = 0.5 * grid.h**2
    run = RD.run_radial_flow(RD.poincare_lambda, 0.7, dt, nodes=64, frame_dt=dt,
                             boundary=lambda r, t: RD.homothety_lambda(r, t))
    assert run.steps_taken == 1
    fr = run.frames[-1]
    assert fr.time == dt
    exact = RD.homothety_lambda(run.grid.r, dt)
    assert np.abs(fr.lam / exact - 1.0).max() < 1e-9


def test_origin_regularity_even_mirror():
    """ddbar of an even smooth profile is accurate through r = 0."""
    grid = RD.RadialGrid(0.5, 64, order=4)
    u = np.cos(grid.r**2)
    # ddbar u = (u'' + u'/r)/4 with u = cos(r^2):
    # u' = -2r sin(r^2), u'' = -2 sin(r^2) - 4r^2 cos(r^2)
    exact = 0.25 * (-4.0 * np.sin(grid.r**2) - 4.0 * grid.r**2 * np.cos(grid.r**2))
    err = np.abs(grid.ddbar(u, np.cos(grid.outer_ghost_radii()**2)) - exact)
    assert err.max() < 1e-7


# central first- and second-derivative weights, written out independently
# of the program
_W1 = {4: np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0,
       6: np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0}
_W2 = {4: np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0,
       6: np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0}


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("nodes", [96, 512])
@pytest.mark.parametrize("outer", ["given", "extrapolated"])
def test_fused_ddbar_matches_two_stencil_formula(order, nodes, outer):
    """The folded operators reproduce 0.25 (S(w2)/h^2 + S(w1)/(h r)) and
    S(w1)/h, S(w) the stencil sum on the padded vector g: u with even-mirror
    ghosts across r = 0 and outer ghosts given or cubically extrapolated."""
    grid = RD.RadialGrid(0.9, nodes, order)
    m, ng = grid.m, order // 2
    u = np.log(RD.perturbed_poincare_lambda(grid.r, 0.1))
    ghosts = None
    if outer == "given":
        ghosts = np.log(RD.poincare_lambda(grid.outer_ghost_radii()))
    g = np.concatenate([u[:ng][::-1], u, np.zeros(ng)])
    for k in range(ng):
        p = ng + m + k
        g[p] = ghosts[k] if outer == "given" else \
            4.0 * g[p - 1] - 6.0 * g[p - 2] + 4.0 * g[p - 3] - g[p - 4]

    def S(w):
        return sum(w[j] * g[j:j + m] for j in range(len(w)))

    ref = 0.25 * (S(_W2[order]) / grid.h**2 + S(_W1[order]) / (grid.h * grid.r))
    np.testing.assert_allclose(grid.ddbar(u, ghosts), ref, rtol=1e-10, atol=0)
    np.testing.assert_allclose(grid.d1(u, ghosts), S(_W1[order]) / grid.h,
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("nodes", [64, 96, 128, 256, 512])
@pytest.mark.parametrize("outer", ["given", "extrapolated"])
def test_ddbar_of_constant_is_exactly_zero(order, nodes, outer):
    """The shift by u[0] makes the folded operators, ddbar and d1, exact on
    constants, so a flat profile picks up no round-off that the closure
    could amplify."""
    grid = RD.RadialGrid(0.9, nodes, order)
    for op in (grid.ddbar, grid.d1):
        for c in (1.0, -3.7, np.log(0.123), 1e6):
            ghosts = np.full(grid.ng, c) if outer == "given" else None
            assert np.all(op(np.full(nodes, c), ghosts) == 0.0)


def test_flat_normalized_run_is_uniform_and_exact():
    """d_s lam = -lam on flat data with extrapolated ghosts: every frame is
    bitwise uniform and matches e^-s to 1e-12 relative."""
    run = RD.run_normalized_radial(lambda r: np.ones_like(r), 0.9, 1.0,
                                   nodes=64, frame_ds=0.1)
    assert len(run.frames) == 11
    for fr in run.frames:
        assert np.all(fr.lam == fr.lam[0])
        assert abs(fr.lam[0] / np.exp(-fr.time) - 1.0) <= 1e-12


def test_steps_taken_pinned():
    """Pinned step counts of small runs, all through SDIRK4's error control,
    with steps cut to land on frame times: one step per frame on the
    homothety with given ghosts, more where the extrapolated closure's
    error sets the step, and the normalized runs in log lam."""
    run = RD.run_radial_flow(RD.poincare_lambda, 0.7, 0.02, nodes=48, order=6,
                             boundary=lambda r, t: RD.homothety_lambda(r, t))
    assert run.steps_taken == 50
    xrun = RD.run_radial_flow(RD.poincare_lambda, 0.7, 0.02, nodes=48, order=6)
    assert xrun.steps_taken == 56
    lam0 = lambda r: 3.0 * RD.poincare_lambda(r)
    nrun = RD.run_normalized_radial(lam0, 0.8, 0.5, nodes=48,
                                    boundary=lambda r, s: RD.ke_lambda(r))
    assert nrun.steps_taken == 374
    xrun = RD.run_normalized_radial(lam0, 0.8, 0.5, nodes=48)
    assert xrun.steps_taken == 99


def _rk4_reference(grid, lam_init, s_end, frame_ds, boundary_log,
                   normalized):
    """RK4 frames (s, state) of the lam-form system built from `radial_rhs`,
    the state (lam,) or (lam, phi), at half the parabolic step limit."""
    def rhs(s, v, out):
        out[0] = RD.radial_rhs(grid, v[0], s, boundary_log, normalized)
        if normalized:
            out[1] = np.log(v[0] / lam_init) - v[1]

    ref = []
    rk4(np.stack([lam_init, np.zeros(grid.m)][:1 + normalized]), s_end, rhs,
        lambda s, v: cfl_bound(float(v[0].min()), 1.0, grid.h, 0.5),
        lambda s, v: None, frame_dt=frame_ds,
        frame=lambda step, s, v: ref.append((s, v.copy())))
    return ref


@pytest.mark.parametrize("order, nodes", [(4, 48), (6, 64)])
def test_sdirk4_unnormalized_frames_match_rk4(order, nodes):
    """A given-ghost unnormalized run (SDIRK4) from perturbed Poincare data
    against RK4 on the same semi-discrete system, built here from
    `radial_rhs`: frame times equal, lam within 1e-10 relative."""
    lam0 = lambda r: RD.perturbed_poincare_lambda(r, 0.3, support=0.6)
    bnd = lambda r, t: RD.homothety_lambda(r, t)
    run = RD.run_radial_flow(lam0, 0.8, 0.2, nodes=nodes, order=order,
                             boundary=bnd, frame_dt=0.01)
    grid = RD.RadialGrid(0.8, nodes, order)
    ref = _rk4_reference(grid, lam0(grid.r), 0.2, 0.01,
                         lambda r, t: np.log(bnd(r, t)), False)
    assert [fr.time for fr in run.frames] == [t for t, _ in ref]
    for fr, (_, v) in zip(run.frames, ref):
        assert np.abs(fr.lam / v[0] - 1.0).max() <= 1e-10


def test_breakdown_time_is_resolved():
    """The cap (1 + r^2)^-2 shrinks as (1 - 2t) (1 + r^2)^-2 and crosses the
    floor 0.05 at t = (1 - 0.05/min lam0)/2.  Both steppers place the
    breakdown there to 1e-6, however long their steps: SDIRK4 through
    `run_radial_flow`, RK4 on the same system built from `radial_rhs`."""
    cap = RD.fubini_cap_lambda
    run = RD.run_radial_flow(cap, 0.8, 0.45, nodes=32, min_eig_floor=0.05,
                             boundary=cap)
    crossing = (1.0 - 0.05 / cap(run.grid.r).min()) / 2.0
    assert run.broken and "floor" in run.breakdown
    assert abs(run.frames[-1].time - crossing) < 1e-6
    grid = run.grid
    blog = lambda r, t: np.log(cap(r, t))

    def rhs(t, v, out):
        out[:] = RD.radial_rhs(grid, v, t, blog)

    _, _, t, err = rk4(
        cap(grid.r), 0.45, rhs,
        lambda t, v: cfl_bound(float(v.min()), 2.0, grid.h, 1.0),
        lambda t, v: require_positive(v, t, 0.05, grid.location))
    assert isinstance(err, FlowBreakdownError)
    assert abs(t - crossing) < 1e-6 and abs(err.time - crossing) < 1e-6


def test_cap_flow_reaches_singular_time():
    """On a floor of 1e-10 the cap flows to its singular time t = 1/2, where
    lam -> 0 everywhere; SDIRK4 gets there in under 1,000 steps, where
    RK4's step h^2 min lam shrinks with lam."""
    cap = RD.fubini_cap_lambda
    run = RD.run_radial_flow(cap, 0.8, 0.6, nodes=32, min_eig_floor=1e-10,
                             boundary=cap)
    assert run.broken and "floor" in run.breakdown
    assert abs(run.frames[-1].time - 0.5) < 1e-6
    assert run.steps_taken < 1000


@pytest.mark.parametrize("order, nodes", [(4, 48), (6, 64)])
def test_sdirk4_frames_match_rk4(order, nodes):
    """A KE-ghost normalized run (SDIRK4) against RK4 on the same
    semi-discrete system, built here from `radial_rhs`: frame times equal,
    lam within 1e-10 relative and phi within 1e-9 absolute."""
    lam0 = lambda r: RD.perturbed_poincare_lambda(r, 0.3, support=0.6)
    ke = lambda r, s: RD.ke_lambda(r)
    run = RD.run_normalized_radial(lam0, 0.8, 1.0, nodes=nodes, order=order,
                                   boundary=ke, frame_ds=0.05)
    grid = RD.RadialGrid(0.8, nodes, order)
    ref = _rk4_reference(grid, lam0(grid.r), 1.0, 0.05,
                         lambda r, s: np.log(ke(r, s)), True)
    assert [fr.time for fr in run.frames] == [s for s, _ in ref]
    for fr, (_, v) in zip(run.frames, ref):
        assert np.abs(fr.lam / v[0] - 1.0).max() <= 1e-10
        assert np.abs(fr.phi - v[1]).max() <= 1e-9


@pytest.mark.parametrize("order, nodes", [(4, 48), (6, 64)])
@pytest.mark.parametrize("normalized", [False, True])
def test_sdirk4_extrapolated_frames_match_rk4(order, nodes, normalized):
    """Extrapolated-ghost runs (SDIRK4, the normalized one in log lam) from
    perturbed Poincare data against RK4 on the same semi-discrete system:
    frame times equal, lam within 1e-10 relative and phi within 1e-9
    absolute."""
    lam0 = lambda r: RD.perturbed_poincare_lambda(r, 0.3, support=0.6)
    grid = RD.RadialGrid(0.8, nodes, order)
    if normalized:
        run = RD.run_normalized_radial(lam0, 0.8, 0.5, nodes=nodes,
                                       order=order, frame_ds=0.05)
        ref = _rk4_reference(grid, lam0(grid.r), 0.5, 0.05, None, True)
    else:
        run = RD.run_radial_flow(lam0, 0.8, 0.2, nodes=nodes, order=order,
                                 frame_dt=0.01)
        ref = _rk4_reference(grid, lam0(grid.r), 0.2, 0.01, None, False)
    assert [fr.time for fr in run.frames] == [s for s, _ in ref]
    for fr, (_, v) in zip(run.frames, ref):
        assert np.abs(fr.lam / v[0] - 1.0).max() <= 1e-10
        if normalized:
            assert np.abs(fr.phi - v[1]).max() <= 1e-9


def test_ke_ghost_normalized_run_breaks_down_at_floor():
    """3 x Poincare decays toward the KE profile 2 (1 - r^2)^-2, through a
    floor of 2.5 at the origin: the implicit path reports the breakdown."""
    run = RD.run_normalized_radial(lambda r: 3.0 * RD.poincare_lambda(r), 0.8,
                                   1.0, nodes=48, min_eig_floor=2.5,
                                   boundary=lambda r, s: RD.ke_lambda(r))
    assert run.broken and "<= floor 2.5" in run.breakdown
    last = run.frames[-1]
    assert last.lam.min() > 2.5
    # the last accepted state is the last frame, with its potential pair
    assert last.step == run.steps_taken and last.phi is not None
    assert np.array_equal(last.phi_prime, np.log(last.lam / run.frames[0].lam)
                          - last.phi)
    steps = [fr.step for fr in run.frames]
    assert steps == sorted(set(steps))


def _dense(band, m, ng):
    """[A B] rebuilt from its band storage, [A B][i, j] at [ng + i - j, j]."""
    dense = np.zeros((m, band.shape[1]))
    for k in range(band.shape[0]):
        d = ng - k                                  # diagonal j - i
        cols = np.arange(max(d, 0), min(m + d, band.shape[1]))
        dense[cols - d, cols] = band[k, cols]
    return dense


def test_band_is_the_given_closure_block():
    """ddbar keeps one band array per closure, holding that closure's [A B]:
    `_band` places `_fold`'s per-node weights, and `ddbar` applies them.  The
    given block has no entries beyond ng off the diagonal; the extrapolated
    one, with no ghost columns, has a last row that reaches u[m - 4] and rows
    that sum to zero (A 1 = 0) to rounding.  `band_solver(d, hg, given)`
    solves N x = p in place (here on a copy of p), N = I - hg diag(1/d) A
    with A from ddbar of unit vectors, to a normwise backward error
    |N x - p| / (|N| |x| + |p|) of at most 1e-14 in the max norm."""
    rng = np.random.default_rng(5)
    for order, nodes in ((4, 40), (6, 40), (6, 128)):
        grid = RD.RadialGrid(0.9, nodes, order)
        ng, lo = grid.ng, max(grid.ng, 3)
        weights = rng.standard_normal((nodes, lo + 1 + ng))
        placed = np.zeros((nodes, nodes + ng))
        for i in range(nodes):                # [i, b] weighs x[i + b - lo]
            for b in range(max(lo - i, 0), lo + 1 + ng):
                placed[i, i + b - lo] = weights[i, b]
        assert np.array_equal(_dense(grid._band(weights), nodes, ng), placed)
        d = RD.poincare_lambda(grid.r) * (1.0 + 0.5 * rng.random(nodes))
        for band, outer in zip(grid._ddbar, (np.zeros(ng), None)):
            dense = _dense(band, nodes, ng)
            # exact from column 1 on, where u[0] = 0; to rounding in column 0
            A = np.stack([grid.ddbar(e, outer) for e in np.eye(nodes)], axis=1)
            assert np.array_equal(A[:, 1:], dense[:, 1:nodes])
            if outer is not None:             # u = 0: ddbar is B exactly
                for k in range(ng):
                    assert np.array_equal(
                        grid.ddbar(np.zeros(nodes), np.eye(ng)[k]),
                        dense[:, nodes + k])
            for hg in (1e-4, 1e-2, 1.0):
                N = np.eye(nodes) - hg * A / d[:, None]
                solve = grid.band_solver(d, hg, outer is not None)
                for p in (rng.standard_normal(nodes), np.ones(nodes)):
                    x = solve(p.copy())
                    assert np.abs(N @ x - p).max() <= 1e-14 * (
                        np.abs(N).sum(axis=1).max() * np.abs(x).max()
                        + np.abs(p).max())
        given_band, extrapolated_band = grid._ddbar
        assert not given_band[2 * ng + 1:].any()
        assert extrapolated_band[ng + 3, nodes - 4] != 0.0
        assert not extrapolated_band[:, nodes:].any()
        A = _dense(extrapolated_band, nodes, ng)[:, :nodes]
        rows = np.abs(A).sum(axis=1)
        assert np.abs(A.sum(axis=1)).max() <= 1e-15 * rows.max()


@settings(max_examples=200, deadline=None)
@given(order=st.sampled_from([4, 6]), nodes=st.integers(8, 600),
       r_max=st.floats(0.05, 0.99))
def test_stencils_are_exact_on_even_polynomials(order, nodes, r_max):
    """ddbar(r^2k) = k^2 r^(2k-2) and d1(r^2k) = 2k r^(2k-1) to 8 eps/h^2,
    for 2k up to the stencil order with given ghosts r_out^2k, and for k <= 1
    with the cubic extrapolation."""
    grid = RD.RadialGrid(r_max, nodes, order)
    r, r_out = grid.r, grid.outer_ghost_radii()
    tol = 8.0 * np.finfo(float).eps / grid.h**2
    for k in range(order // 2 + 1):
        for outer in (r_out ** (2 * k), None):
            if outer is None and k > 1:
                continue
            assert np.abs(grid.ddbar(r ** (2 * k), outer)
                          - k * k * r ** (2 * k - 2)).max() <= tol
            assert np.abs(grid.d1(r ** (2 * k), outer)
                          - 2 * k * r ** (2 * k - 1)).max() <= tol


def test_breakdown_frame_is_last_accepted_state():
    run = RD.run_radial_flow(RD.fubini_cap_lambda, 0.8, 0.45, nodes=16,
                             min_eig_floor=0.05, boundary=RD.fubini_cap_lambda)
    assert run.broken and "floor" in run.breakdown
    last = run.frames[-1]
    assert last.step == run.steps_taken
    assert last.lam.min() > 0.05
    steps = [fr.step for fr in run.frames]
    assert steps == sorted(set(steps))


def test_potential_flow_refuses_nan():
    lam0 = RD.poincare_lambda(RD.RadialGrid(0.7, 32).r)
    lam0[7] = np.nan
    with pytest.raises(FlowBreakdownError) as exc:
        RD.run_radial_potential_flow(lam0, 0.7, 0.01, nodes=32)
    assert exc.value.time == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-10, "all-nan"])
def test_require_positive_raises_on_nonfinite_and_floor(bad):
    grid = RD.RadialGrid(0.8, 32)
    v = RD.poincare_lambda(grid.r)
    if bad == "all-nan":
        v[:] = np.nan
    else:
        v[5] = bad
    with pytest.raises(FlowBreakdownError) as exc:
        require_positive(v, 0.25, 1e-10, grid.location)
    assert exc.value.time == 0.25
    assert exc.value.where == ("r", float(grid.r[0 if bad == "all-nan" else 5]))


def test_require_positive_accepts_positive_finite_profile():
    grid = RD.RadialGrid(0.8, 32)
    v = RD.poincare_lambda(grid.r)
    v[5] = 1.5e-10
    require_positive(v, 0.0, 1e-10, grid.location)


@pytest.mark.parametrize("bnd", ["trajectory", "ke"])
def test_normalized_two_phase_monotonicities(bnd):
    """Two-phase run: phi' <= 0 and phi' + phi non-increasing (the normalized
    clock starts at the unnormalized t = 1).  Checked both with the exact
    trajectory boundary and with the KE Dirichlet data of convergence runs."""
    p1 = RD.run_radial_flow(RD.poincare_lambda, 0.9, 1.0, nodes=96, order=6,
                            boundary=lambda r, t: RD.homothety_lambda(r, t))
    if bnd == "trajectory":
        b2 = lambda r, s: (2.0 + np.exp(-s)) * RD.poincare_lambda(r)
    else:
        b2 = lambda r, s: RD.ke_lambda(r)
    run = RD.run_normalized_radial(p1.frames[-1].lam, 0.9, 4.0, nodes=96,
                                   order=6, boundary=b2)
    prev = None
    for fr in run.frames:
        assert fr.phi_prime.max() <= 1e-8
        v = fr.phi_prime + fr.phi
        if prev is not None:
            assert (v - prev).max() <= 1e-8
        prev = v
    if bnd == "trajectory":
        # closed form: lam_tilde(s) = (2 + e^-s) * poincare
        fr = run.frames[-1]
        exact = (2.0 + np.exp(-fr.time)) * RD.poincare_lambda(run.grid.r)
        assert np.abs(fr.lam - exact)[run.grid.r <= 0.8].max() < 1e-4


def test_normalize_identity_e_tphi1():
    """omega~(s) = e^-s omega~(0) - (1 - e^-s) Ric(omega~(0)) + ddbar phi~."""
    p1 = RD.run_radial_flow(
        lambda r: RD.perturbed_poincare_lambda(r, 0.05, support=0.5), 0.9, 1.0,
        nodes=96, order=4, boundary=lambda r, t: RD.homothety_lambda(r, t))
    lam1 = p1.frames[-1].lam
    run = RD.run_normalized_radial(lam1, 0.9, 2.0, nodes=96,
                                   boundary=lambda r, s: RD.ke_lambda(r))
    grid = run.grid
    ric0 = -grid.ddbar(np.log(lam1), np.log(RD.homothety_lambda(
        grid.outer_ghost_radii(), 1.0)))
    for fr in run.frames[1:]:
        s = fr.time
        # phi ghosts: phi is unknown outside; compare interior only
        rec = np.exp(-s) * lam1 - (1 - np.exp(-s)) * ric0 + grid.ddbar(fr.phi)
        mask = grid.r <= 0.75
        assert np.abs((rec - fr.lam)[mask]).max() < 5e-3


def test_normalized_run_s0_frame():
    run = RD.run_normalized_radial(RD.ke_lambda, 0.9, 0.5, nodes=32,
                                   boundary=lambda r, s: RD.ke_lambda(r))
    fr0 = run.frames[0]
    assert fr0.time == 0.0
    assert np.abs(fr0.phi).max() == 0.0
    assert np.abs(fr0.phi_prime).max() == 0.0


def test_run_diagnostics_rows_contract():
    run = RD.run_normalized_radial(RD.ke_lambda, 0.8, 0.3, nodes=64,
                                   boundary=lambda r, s: RD.ke_lambda(r),
                                   h_reference=RD.poincare_lambda)
    rows = run.diagnostics_rows()
    keys = {"step", "time", "sup_lambda", "inf_tR", "ke_residual", "min_eig",
            "phi_prime_min", "phi_prime_max"}
    assert all(keys <= set(r) for r in rows)
    assert rows[0]["sup_lambda"] == pytest.approx(0.5, rel=1e-12)
    assert all(r["ke_residual"] < 1e-4 for r in rows)


def test_phi_evolution_residual_independent_differencing():
    """phi' stored along the run must match centered differencing of phi
    across frames (the potential-evolution relation, independently checked)."""
    run = RD.run_normalized_radial(
        lambda r: 3.0 * RD.poincare_lambda(r), 0.9, 1.0, nodes=48,
        boundary=lambda r, s: (2.0 + np.exp(-s)) * RD.poincare_lambda(r),
        frame_ds=0.02)
    frames = run.frames
    worst = 0.0
    for k in range(1, len(frames) - 1):
        ds = frames[k + 1].time - frames[k - 1].time
        fd = (frames[k + 1].phi - frames[k - 1].phi) / ds
        worst = max(worst, float(np.abs(fd - frames[k].phi_prime).max()))
    assert worst < 5e-4  # O(frame_ds^2)


@pytest.fixture(scope="module")
def homothety_run_past_t1():
    return RD.run_radial_flow(
        RD.poincare_lambda, 0.85, float(np.exp(1.2)), nodes=96, order=6,
        boundary=lambda r, t: RD.homothety_lambda(r, t), frame_dt=0.01)


def test_normalize_op_closed_form(homothety_run_past_t1):
    """g~(s) = e^-s (1 + 2 e^s) g0 = (2 + e^-s) g0 for the homothety, with
    ke_residual exactly e^-s/(2 + e^-s) and phi' <= 0."""
    run = homothety_run_past_t1
    lamp = RD.poincare_lambda(run.grid.r)
    for s in (0.0, 0.5, 1.2):
        st = RD.normalize(run, s)
        exact = (2.0 + np.exp(-s)) * lamp
        assert np.abs(st.g_tilde - exact).max() < 1e-5
        assert st.ke_residual == pytest.approx(
            np.exp(-s) / (2.0 + np.exp(-s)), rel=1e-4)
        assert st.phi_tilde_prime.max() <= 1e-8
    st0 = RD.normalize(run, 0.0)
    assert np.abs(st0.phi_tilde).max() == 0.0       # s = 0: phi~ = 0, g~ = g(1)
    assert np.abs(st0.g_tilde - 3.0 * lamp).max() < 1e-5


def test_normalize_op_identity_e_tphi1(homothety_run_past_t1):
    """omega~(s) = e^-s omega~(0) - (1 - e^-s) Ric(omega~(0)) + ddbar phi~."""
    run = homothety_run_past_t1
    grid = run.grid
    lamp = RD.poincare_lambda(grid.r)
    lam1 = 3.0 * lamp
    ric0 = -grid.ddbar(np.log(lam1),
                       np.log(3.0 * RD.poincare_lambda(grid.outer_ghost_radii())))
    st = RD.normalize(run, 1.0)
    es = np.exp(-1.0)
    rec = es * lam1 - (1.0 - es) * ric0 + grid.ddbar(st.phi_tilde)
    mask = grid.r <= 0.7
    assert np.abs((rec - st.g_tilde)[mask]).max() < 1e-3


def test_normalize_op_cross_checks_direct_integration(homothety_run_past_t1):
    run = homothety_run_past_t1
    lamp = RD.poincare_lambda(run.grid.r)
    nrun = RD.run_normalized_radial(
        3.0 * lamp, 0.85, 1.2, nodes=96, order=6, frame_ds=0.1,
        boundary=lambda r, ss: (2.0 + np.exp(-ss)) * RD.poincare_lambda(r))
    st = RD.normalize(run, 1.2)
    fr = [f for f in nrun.frames if abs(f.time - 1.2) < 1e-9][0]
    assert np.abs(st.phi_tilde - fr.phi).max() < 1e-4
    assert np.abs(st.g_tilde - fr.lam).max() < 1e-4


def test_normalize_op_horizon_error(homothety_run_past_t1):
    with pytest.raises(ValueError):
        RD.normalize(homothety_run_past_t1, 5.0)
    run_n = RD.run_normalized_radial(RD.ke_lambda, 0.8, 0.2, nodes=32)
    with pytest.raises(ValueError):
        RD.normalize(run_n, 0.1)


def test_a_run_is_freed_when_dropped():
    """A run holds no reference cycle (its ghost field closes over the
    boundary, not the run), so it is freed without the cyclic collector;
    a loop of runs would otherwise pile up frames and grids between
    collections."""
    gc.disable()
    try:
        run = RD.run_radial_flow(RD.poincare_lambda, 0.8, 0.05, nodes=32,
                                 boundary=RD.homothety_lambda)
        grid = weakref.ref(run.grid)
        del run
        assert grid() is None
    finally:
        gc.enable()
