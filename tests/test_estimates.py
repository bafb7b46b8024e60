import numpy as np
import pytest

from crflow import estimates as ES
from crflow import metrics as M
from crflow import radial as RD
from crflow.errors import InputsNotKEError


@pytest.fixture(scope="module")
def homothety_run():
    return RD.run_radial_flow(RD.poincare_lambda, 0.8, 0.4, nodes=96, order=6,
                              boundary=lambda r, t: RD.homothety_lambda(r, t),
                              h_reference=RD.poincare_lambda, frame_dt=0.005)


@pytest.fixture(scope="module")
def normalized_run():
    p1 = RD.run_radial_flow(RD.poincare_lambda, 0.9, 1.0, nodes=64, order=6,
                            boundary=lambda r, t: RD.homothety_lambda(r, t))
    return RD.run_normalized_radial(
        p1.frames[-1].lam, 0.9, 6.0, nodes=64, order=6,
        boundary=lambda r, s: RD.ke_lambda(r), h_reference=RD.poincare_lambda)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def test_barrier_config_invariants():
    bc = ES.BarrierConfig(n=1, alpha=2.0, beta=0.5, kappa0=1.0, c2=1.0)
    assert bc.s_frak == pytest.approx(1.0 + 0.5 * 1.5)
    # v finite exactly on [0, 1/(3 c1 (n alpha + 1)^3 s))
    t_star = bc.barrier_domain_end
    assert np.isfinite(bc.v(t_star * 0.999))
    assert bc.v(t_star * 1.001) == np.inf
    # v(0) = n alpha + 1; dv/dt = c1 s v^4
    assert bc.v(0.0) == pytest.approx(3.0)
    h = 1e-7
    dv = (bc.v(h) - bc.v(0.0)) / h
    assert dv == pytest.approx(bc.c1 * bc.s_frak * 3.0**4, rel=1e-4)
    assert bc.predicted_existence_time == pytest.approx(1.0 / (2 * 27 * bc.s_frak))
    with pytest.raises(ValueError):
        ES.BarrierConfig(n=1, alpha=0.5)
    # where c1 S = 0 (S = 0 or c1 = 0), v is n alpha + 1 on [0, inf)
    for kappa0, c1 in ((0.0, 1.0), (1.0, 0.0)):
        bc = ES.BarrierConfig(n=1, alpha=2.0, kappa0=kappa0, c1=c1)
        assert bc.barrier_domain_end == bc.predicted_existence_time == np.inf
        assert bc.v(np.array([0.0, 1.0, 1e9])).tolist() == [3.0, 3.0, 3.0]


@pytest.mark.parametrize("kappa0", [-1.0, 0.0, 1.0])
def test_barrier_domain_end_is_where_v_blows_up(kappa0):
    """v is finite on [0, barrier_domain_end) and infinite past it, for
    S < 0, S = 0 and S > 0 (n = 1, alpha = 1, beta = 0, so S = kappa0):
    where S <= 0 the domain is all of [0, inf), and v decreases (S < 0) or
    stays n alpha + 1 = 2 (S = 0)."""
    bc = ES.BarrierConfig(n=1, alpha=1.0, kappa0=kappa0)
    assert bc.s_frak == kappa0
    end = bc.barrier_domain_end
    assert end > 0.0
    assert bc.predicted_existence_time == 1.5 * end
    if kappa0 > 0:
        assert end == pytest.approx(1.0 / (3.0 * 8.0 * kappa0))
        assert np.isfinite(bc.v(end * 0.999)) and bc.v(end * 1.001) == np.inf
    else:
        assert end == np.inf
        v = bc.v(np.array([0.0, 1.0, 1e3, 1e9]))
        assert np.all(np.isfinite(v)) and v[0] == 2.0
        assert np.all(np.diff(v) < 0) if kappa0 < 0 else np.all(v == 2.0)


def test_trace_barrier_on_homothety(homothety_run):
    """Lambda(t) = 1/(1+2t) decays, so the barrier holds with slack from t=0
    and any c1 >= 0 keeps it; frames past blow-up are out-of-domain."""
    bc = ES.BarrierConfig(n=1, alpha=1.0, kappa0=0.5, c1=1.0)
    rep = ES.trace_barrier_check(homothety_run, bc)
    assert rep.satisfied
    assert rep.extra["calibrated_c1"] <= 1e-12
    assert rep.extra["frames_in_domain"] <= rep.extra["frames_total"]


def test_trace_barrier_frames_beyond_domain_not_failures(homothety_run):
    bc = ES.BarrierConfig(n=1, alpha=1.0, kappa0=50.0, c1=1.0)  # tiny domain
    rep = ES.trace_barrier_check(homothety_run, bc)
    assert rep.extra["frames_in_domain"] < rep.extra["frames_total"]
    assert rep.satisfied


# ---------------------------------------------------------------------------
# scalar curvature bounds and evolution
# ---------------------------------------------------------------------------

def test_scalar_lower_bound_homothety_closed_form(homothety_run):
    """R(t) = -2/(1+2t): t R = -2t/(1+2t) > -1 with slack 1/(1+2t)."""
    rep = ES.scalar_lower_bound_check(homothety_run)
    assert rep.satisfied
    t_last = homothety_run.frames[-1].time
    assert rep.worst_slack == pytest.approx(1.0 / (1.0 + 2 * t_last), abs=1e-6)


def test_ricci_cauchy_schwarz_equality_einstein():
    G = np.eye(3, dtype=complex)
    Ric = -2.0 * G
    assert ES.pointwise_ricci_cauchy_schwarz(G, Ric) == pytest.approx(0.0, abs=1e-14)


def test_ricci_cauchy_schwarz_random_matrices():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        for _ in range(200):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            G = A @ A.conj().T + n * np.eye(n)
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Ric = (B + B.conj().T) / 2
            assert ES.pointwise_ricci_cauchy_schwarz(G, Ric) >= -1e-10


def test_ricci_cauchy_schwarz_strict_for_distinct_eigenvalues():
    G = np.eye(2, dtype=complex)
    Ric = np.diag([1.0, 3.0]).astype(complex)
    assert ES.pointwise_ricci_cauchy_schwarz(G, Ric) == pytest.approx(2.0)


def test_scalar_evolution_residual_radial(homothety_run):
    rep = ES.scalar_evolution_residual_radial(homothety_run, tolerance=1e-3)
    assert rep.satisfied
    assert rep.extra["max_residual"] < 1e-3


# ---------------------------------------------------------------------------
# normalized-flow checks
# ---------------------------------------------------------------------------

def test_potential_monotonicity(normalized_run):
    rep = ES.potential_monotonicity_check(normalized_run)
    assert rep.satisfied


def test_ke_convergence(normalized_run):
    rep = ES.ke_convergence_check(normalized_run, RD.ke_lambda,
                                  residual_threshold=1e-2, error_threshold=2e-2,
                                  interior=0.8)
    assert rep.satisfied
    assert rep.extra["monotone_tail"]


def test_ke_expected_divergence():
    run = RD.run_normalized_radial(lambda r: np.ones_like(r), 0.9, 2.0, nodes=32)
    rep = ES.ke_convergence_check(run, expect_divergence=True)
    assert rep.satisfied
    assert rep.extra["classified"] == "expected-divergence"


def test_ke_check_broken_run_not_applicable():
    run = RD.run_radial_flow(RD.fubini_cap_lambda, 0.8, 0.45, nodes=32,
                             min_eig_floor=0.05, boundary=RD.fubini_cap_lambda)
    assert run.broken
    rep = ES.ke_convergence_check(run)
    assert not rep.satisfied
    assert rep.extra.get("not_applicable")


# ---------------------------------------------------------------------------
# uniqueness diagnostic
# ---------------------------------------------------------------------------

def _ke_disk():
    return M.poincare_disk(2.0)


def _disk_points(k=10, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    z *= rng.uniform(0.05, 0.7, k) / np.abs(z)
    return z[:, None]


def test_uniqueness_identical_inputs():
    w = _ke_disk()
    diag = ES.uniqueness_F_check(w, w, _disk_points())
    assert diag.sup_F == 0.0 and diag.inf_F == 0.0


def test_uniqueness_mobius_pullback_pair():
    w1 = _ke_disk()
    w2 = M.mobius_pullback(w1, 0.3)
    diag = ES.uniqueness_F_check(w1, w2, _disk_points())
    assert max(abs(diag.sup_F), abs(diag.inf_F)) < 1e-10


def test_uniqueness_antisymmetry():
    w1 = _ke_disk()
    w2 = M.mobius_pullback(w1, 0.2 + 0.1j)
    pts = _disk_points()
    d12 = ES.uniqueness_F_check(w1, w2, pts)
    d21 = ES.uniqueness_F_check(w2, w1, pts)
    assert np.array_equal(d12.F_field, -d21.F_field)


def test_uniqueness_rejects_wrong_normalization():
    """omega2 = 2 omega1: Ric(2 omega1) = -omega1 != -2 omega1."""
    w1 = _ke_disk()
    w2 = M.scaled(w1, 2.0)
    with pytest.raises(InputsNotKEError):
        ES.uniqueness_F_check(w1, w2, _disk_points())


def test_uniqueness_rejects_non_ke_input():
    w1 = _ke_disk()
    w2 = M.poincare_disk(1.0)  # Ric = -2 g, not -g
    with pytest.raises(InputsNotKEError):
        ES.uniqueness_F_check(w1, w2, _disk_points())


# ---------------------------------------------------------------------------
# trace identity on runs
# ---------------------------------------------------------------------------

def test_trace_identity_on_run_both_h():
    run = RD.run_radial_flow(RD.poincare_lambda, 0.8, 0.003, nodes=128,
                             order=4, frame_dt=1e-4,
                             boundary=lambda r, t: RD.homothety_lambda(r, t))
    for h in (RD.poincare_lambda, lambda r: np.ones_like(r)):
        run.h_reference = h
        out = ES.trace_identity_on_run(run)
        assert out["max_residual"] < 1e-4


def test_uniform_triples_skip_an_unequal_gap():
    """The one rule of the three frame-differencing checks: a centered
    difference only where both gaps are equal, and an error if none is."""
    times = [0.0, 0.003, 0.006, 0.009, 0.012, 0.015, 0.018, 0.02]
    assert ES._uniform_triples(times) == [1, 2, 3, 4, 5]
    for bad in ([0.0, 0.1], [0.0, 0.1, 0.3]):
        with pytest.raises(ValueError, match="at equal gaps"):
            ES._uniform_triples(bad)


def test_report_json_shape(homothety_run):
    rep = ES.scalar_lower_bound_check(homothety_run)
    js = rep.to_json()
    assert set(js) == {"name", "satisfied", "worst_slack", "worst_location",
                       "tolerance_used", "samples", "extra"}
    import json
    json.dumps(js)  # serializable


def test_trace_barrier_calibration_stable_under_refinement():
    """On the shrinking cap (Lambda grows), the smallest barrier constant c1
    is nontrivial and stable under grid refinement."""
    fs = RD.fubini_cap_lambda
    bc = ES.BarrierConfig(n=1, alpha=1.0, kappa0=1.0, c1=1.0)
    c1s = []
    for nodes in (48, 96):
        run = RD.run_radial_flow(fs, 0.8, 0.3, nodes=nodes, frame_dt=0.02,
                                 boundary=fs, h_reference=fs)
        rep = ES.trace_barrier_check(run, bc)
        c1s.append(rep.extra["calibrated_c1"])
    assert c1s[0] > 0.01
    assert abs(c1s[0] - c1s[1]) / c1s[1] < 0.10
