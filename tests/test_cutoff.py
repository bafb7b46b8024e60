import numpy as np
import pytest

from crflow import cutoff as CO
from crflow import metrics as M
from crflow.errors import DomainError


def test_f_zero_region_and_value():
    assert CO.f_eval(0.0, 0.1) == 0.0
    assert CO.f_eval(0.9, 0.1) == 0.0
    # tau = 0.1, s = 1 - tau + tau/2: f = -log(1 - 1/4) = log(4/3)
    assert CO.f_eval(0.95, 0.1) == pytest.approx(np.log(4.0 / 3.0), rel=1e-14)


def test_f_monotone_and_diverges():
    tau = 0.05
    s = np.linspace(0.0, 1.0 - 1e-9, 4000)
    f = CO.f_eval(s, tau)
    assert np.all(np.diff(f) >= -1e-14)
    assert CO.f_eval(1.0 - 1e-9, tau) > 15.0


def test_f_domain_error():
    with pytest.raises(DomainError):
        CO.f_eval(1.0, 0.1)
    with pytest.raises(ValueError):
        CO.f_eval(0.5, 0.2)  # tau outside (0, 1/8)


@pytest.mark.parametrize("s", [1.05, -0.1])
def test_derivatives_domain_error(s):
    """f^(k) and frakF^(k) refuse s outside [0, 1), as f and frakF do; past
    s = 1 they would return finite wrong numbers (tau = 0.1: frakF'(1.05)
    would read -24.0)."""
    F = CO.FrakF(CO.CutoffSpec(tau=0.1))
    for k in range(1, 5):
        with pytest.raises(DomainError):
            CO.f_derivatives(s, 0.1, k)
        with pytest.raises(DomainError):
            F.derivative(s, k)
        with pytest.raises(DomainError):
            F.derivative(np.array([0.5, s]), k)


def test_f_derivatives_match_fd():
    tau = 0.1
    for s in (0.93, 0.96, 0.985):
        h = 1e-6
        fd1 = (CO.f_eval(s + h, tau) - CO.f_eval(s - h, tau)) / (2 * h)
        assert CO.f_derivatives(s, tau, 1) == pytest.approx(fd1, rel=1e-7)
        fd2 = (CO.f_eval(s + h, tau) - 2 * CO.f_eval(s, tau)
               + CO.f_eval(s - h, tau)) / h**2
        assert CO.f_derivatives(s, tau, 2) == pytest.approx(fd2, rel=1e-5)


@pytest.mark.parametrize("tau", [0.02, 0.05, 0.1])
def test_phi_support_plateau_slope(tau):
    spec = CO.CutoffSpec(tau=tau)
    s = np.linspace(0.0, 1.0 - 1e-9, 30000)
    phi = CO.phi_eval(s, spec)
    dphi = CO.phi_eval(s, spec, 1)
    assert np.all(phi[s <= 1 - tau + tau**2] == 0.0)
    assert np.all(phi[s >= 1 - tau + 2 * tau**2] == 1.0)
    assert dphi.min() >= 0.0
    assert dphi.max() <= 2.0 / tau**2 + 1e-9


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        CO.CutoffSpec(tau=0.2)
    with pytest.raises(ValueError):
        CO.CutoffSpec(tau=0.1, mollifier_width=0.02)  # > tau^2


def test_frakF_zero_region_exact():
    spec = CO.CutoffSpec(tau=0.1)
    F = CO.FrakF(spec)
    s = np.linspace(0.0, spec.phi_start, 64)
    assert np.all(F.value(s) == 0.0)


def test_frakF_plateau_fundamental_theorem():
    """On the plateau phi = 1, frakF(s) - frakF(s1) = f(s) - f(s1); the direct
    quadrature agrees to 1e-10."""
    from scipy.integrate import quad
    spec = CO.CutoffSpec(tau=0.1)
    F = CO.FrakF(spec)
    s1 = spec.phi_end
    for s in (0.93, 0.96, 0.99):
        lhs = F.value(s) - F.value(s1)
        rhs = CO.f_eval(s, 0.1) - CO.f_eval(s1, 0.1)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        direct, _ = quad(lambda x: CO.phi_eval(x, spec) *
                         CO.f_derivatives(x, 0.1, 1), 0.0, s, limit=400,
                         points=[spec.phi_start, spec.phi_end])
        assert F.value(s) == pytest.approx(direct, abs=1e-10)


def test_frakF_derivative_nonneg_and_matches():
    spec = CO.CutoffSpec(tau=0.05)
    F = CO.FrakF(spec)
    s = np.linspace(0.0, 1 - 1e-6, 2000)
    d1 = np.array([F.derivative(float(x), 1) for x in s])
    assert np.all(d1 >= 0.0)
    for x in (0.9521, 0.9545, 0.97):
        h = 1e-7
        fd = (F.value(x + h) - F.value(x - h)) / (2 * h)
        assert F.derivative(x, 1) == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("tau", [0.02, 0.05, 0.1])
def test_frakF_derivatives_match_mpmath(tau):
    """frakF^(k) = (phi f')^(k-1) for k = 1..4 against mpmath's 50-digit
    numerical derivative of phi f', written out here: before the switch, in
    each half of the window, on the plateau and near s_hi.  Array and scalar
    calls agree."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    spec = CO.CutoffSpec(tau=tau)
    F = CO.FrakF(spec)
    a, w = mp.mpf(spec.phi_start), mp.mpf(spec.mollifier_width)
    t = mp.mpf(tau)

    def P(x):
        return x**5 * (7 - 14 * x + 10 * x**2 - mp.mpf(5) / 2 * x**3)

    def phi_fprime(s):
        v = (s - a) / w
        phi = 0 if v <= 0 else (P(2 * v) if v <= 0.5 else
                                (1 - P(2 * (1 - v)) if v < 1 else 1))
        u = (s - 1 + t) / t
        return 0 if u <= 0 else phi * 2 * u / (t * (1 - u * u))

    pts = np.array([1.0 - 1.5 * tau, spec.phi_start - 0.3 * tau**2,
                    spec.phi_start + 0.25 * tau**2, spec.phi_start + 0.7 * tau**2,
                    1.0 - tau / 2.0, 1.0 - tau / 64.0])
    for k in range(1, 5):
        exact = np.array([float(mp.diff(phi_fprime, mp.mpf(float(x)), k - 1))
                          for x in pts])
        got = F.derivative(pts, k)
        np.testing.assert_allclose(got, exact, rtol=1e-10, atol=0)
        assert all(F.derivative(float(x), k) == g for x, g in zip(pts, got))


@pytest.mark.parametrize("spec", [CO.CutoffSpec(tau=0.02),
                                  CO.CutoffSpec(tau=0.05),
                                  CO.CutoffSpec(tau=0.1),
                                  CO.CutoffSpec(tau=0.1, mollifier_width=2**-8)],
                         ids=["tau0.02", "tau0.05", "tau0.1", "tau0.1-w2^-8"])
def test_quadrature_integrand_is_phi_times_f_prime_bit_for_bit(spec):
    """The float integrand that quad calls equals the array product
    phi_eval(s) * f_derivatives(s, tau, 1) in every bit: on a dense grid
    across and around the switch window, and on the 17 floats nearest each
    of v = (s - phi_start)/width = 0, 1/2 and 1.  v = 0 is hit exactly in
    every spec.  A width below tau^2 that is a power of two divides
    exactly, so there v = 1/2 and v = 1 are hit exactly too."""
    a, w = spec.phi_start, spec.mollifier_width
    s = [np.linspace(a - 0.25 * w, a + 1.25 * w, 30001)]
    hit = []
    for target in (0.0, 0.5, 1.0):
        near = [a + target * w]
        for _ in range(8):
            near = [np.nextafter(near[0], -1.0), *near, np.nextafter(near[-1], 2.0)]
        near = np.array(near)
        hit.append(bool(np.any((near - a) / w == target)))
        s.append(near)
    s = np.concatenate(s)
    assert hit[0]
    if spec.mollifier_width < spec.tau**2:
        assert hit == [True, True, True]
    ref = CO.phi_eval(s, spec) * CO.f_derivatives(s, spec.tau, 1)
    F = CO.FrakF(spec)
    got = np.array([F._integrand(float(x)) for x in s])
    assert np.array_equal(got, ref)
    assert np.any(ref == 0.0) and np.any((ref > 0) & (CO.phi_eval(s, spec) < 1))


@pytest.mark.parametrize("tau", [0.02, 0.05, 0.1])
def test_frakF_properties_check(tau):
    spec = CO.CutoffSpec(tau=tau)
    rep = CO.frakF_properties_check(spec, 4, sweep_points=1500)
    assert rep.satisfied
    sup = rep.extra["sup_weighted_derivatives"]
    assert all(np.isfinite(v) for v in sup.values())
    assert rep.extra["ratio_lower_ok"]
    assert rep.extra["c3_calibrated"] > 0


def test_frakF_ratio_constants_stable_under_refinement():
    spec = CO.CutoffSpec(tau=0.05)
    a = CO.frakF_properties_check(spec, 2, sweep_points=1200)
    b = CO.frakF_properties_check(spec, 2, sweep_points=2400)
    for key in ("c2_calibrated", "c3_calibrated"):
        assert abs(a.extra[key] - b.extra[key]) / abs(b.extra[key]) < 0.10


# ---------------------------------------------------------------------------
# conformal completion
# ---------------------------------------------------------------------------

def _completion_setup(rho_i=2.5, tau=0.1):
    g0 = M.conformal_metric(M.euclidean(2), M.radial_quadratic_field(0.15))
    h = M.euclidean(2)
    spec = CO.CompletionSpec(rho=M.rho_one_plus_sq(), rho_i=rho_i,
                             cutoff=CO.CutoffSpec(tau=tau))
    return g0, h, spec


def _ring_points(radii, per_ring, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for rad in radii:
        for _ in range(per_ring):
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pts.append(w / np.linalg.norm(w) * rad)
    return np.array(pts)


def test_completion_identity_region():
    """F = 0 where rho <= (1 - tau + tau^2) rho_i: transformed tensors equal
    the originals exactly."""
    g0, h, spec = _completion_setup()
    g0i, hi, _ = CO.conformal_completion(g0, h, spec, _ring_points([0.5], 2),
                                         kappa0=0.0, hsc_samples=128)
    z = np.array([0.4 + 0.1j, 0.2 - 0.2j])
    assert np.abs(g0i.matrix(z) - g0.matrix(z)).max() == 0.0
    assert np.abs(g0i.d1(z) - g0.d1(z)).max() == 0.0
    assert np.abs(hi.d2(z) - h.d2(z)).max() == 0.0


def test_completion_torsion_two_paths():
    """Transformed torsion against the conformal law, inside the active band."""
    from crflow.curvature import torsion_from
    g0, h, spec = _completion_setup()
    F = spec.factor()
    g0i = M.conformal_metric(g0, F)
    for z in _ring_points([1.15, 1.19], 2, seed=4):
        T_direct = torsion_from(g0i.d1(z))
        e = np.exp(2 * F.value(z))
        Fd = F.grad(z)
        G = g0.matrix(z)
        T_law = 2 * e * (np.einsum('p,kq->pkq', Fd, G)
                         - np.einsum('k,pq->pkq', Fd, G)) \
            + e * torsion_from(g0.d1(z))
        assert np.abs(T_direct - T_law).max() < 1e-10


def test_completion_bounds_and_stability():
    """Bounds (i)-(iv) hold with a finite calibrated c, stable < 10% when the
    sample grid is refined x2."""
    g0, h, spec = _completion_setup()
    radii = [0.5, 0.9, 1.12, 1.16, 1.19]
    reps = []
    for per_ring in (2, 4):
        pts = _ring_points(radii, per_ring, seed=1)
        _, _, rep = CO.conformal_completion(g0, h, spec, pts, kappa0=0.0,
                                            hsc_samples=256)
        assert rep.satisfied
        assert np.isfinite(rep.extra["c_calibrated"])
        reps.append(rep.extra["c_calibrated"])
    assert abs(reps[0] - reps[1]) / reps[1] < 0.10


def test_completion_factor_domain_error():
    g0, h, spec = _completion_setup()
    with pytest.raises(DomainError):
        spec.factor().value(np.array([1.3 + 0j, 0.6 + 0j]))  # rho >= rho_i

