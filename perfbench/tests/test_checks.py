"""Each output check of the benchmark accepts correct output and rejects a
corrupted copy of it (a frame scaled by 1 + 1e-6, a frame missing, a
symmetry broken).

    python3 -m pytest perfbench/tests -q
"""
import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402
from crflow import cutoff as CO  # noqa: E402
from crflow import radial as RD  # noqa: E402
from crflow import scenarios as SC  # noqa: E402
from crflow.flow import run_torus_flow  # noqa: E402

SCALE = 1.0 + 1e-6


def bundled(name):
    with open(os.path.join(SC.bundled_scenario_dir(), f"{name}.json")) as f:
        return json.load(f)


def run_rows(cfg, tmp_path):
    SC.run_scenario(cfg, str(tmp_path))
    return checks.read_csv_rows(tmp_path / cfg["scenario_name"] / "run.csv")


def scaled(rows, i, column="min_eig"):
    out = copy.deepcopy(rows)
    out[i][column] *= SCALE
    return out


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_frame_counts_of_the_bundled_scenarios():
    assert checks.expected_rows(bundled("flat-disk-normalized")) == (0, 31)
    assert checks.expected_rows(bundled("poincare-homothety")) == (21, 21 + 73)
    assert checks.expected_rows(bundled("perturbed-hyperbolic-disk")) == (21, 21 + 49)
    assert checks.expected_rows(bundled("bumpy-torus")) == (0, 21)
    assert checks.expected_rows(bundled("flat-torus-stationary")) == (0, 11)


def test_homothety_phase_rejects_scaled_frame_and_missing_row(tmp_path):
    cfg = bundled("poincare-homothety")
    cfg["flow"]["phase1_t"] = 0.1
    cfg["flow"]["s_max"] = 0.25
    cfg["checks"] = []          # not converged at s = 0.25: no KE clause
    rows = run_rows(cfg, tmp_path)
    assert checks.check_scenario_rows(cfg, rows) == []
    assert checks.check_scenario_rows(cfg, scaled(rows, 7))
    assert checks.check_scenario_rows(cfg, scaled(rows, 20, "inf_tR"))
    assert checks.check_scenario_rows(cfg, rows[:-1])


def test_flat_normalized_rejects_scaled_frame(tmp_path):
    cfg = bundled("flat-disk-normalized")
    cfg["chart"]["grid_resolution"] = 16
    cfg["flow"]["s_max"] = 0.3
    rows = run_rows(cfg, tmp_path)
    assert checks.check_scenario_rows(cfg, rows) == []
    assert checks.check_scenario_rows(cfg, scaled(rows, 2))


def test_flat_torus_rejects_scaled_frame(tmp_path):
    cfg = bundled("flat-torus-stationary")
    rows = run_rows(cfg, tmp_path)
    assert checks.check_scenario_rows(cfg, rows) == []
    assert checks.check_scenario_rows(cfg, scaled(rows, 5))


def test_ke_final_value_rejects_scaled_frame():
    # rows that follow the closed forms exactly: the homothety on phase 1,
    # an approach to the KE profile on phase 2
    cfg = bundled("poincare-homothety")
    h = cfg["chart"]["r_max"] / cfg["chart"]["grid_resolution"]
    inner = (1.0 - (h / 2.0) ** 2) ** -2
    n1, total = checks.expected_rows(cfg)
    rows = []
    for k in range(n1):
        t = k / 20.0
        rows.append({"time": t, "min_eig": (1 + 2 * t) * inner,
                     "inf_tR": -2 * t / (1 + 2 * t)})
    for k in range(total - n1):
        s = 0.25 * k
        rows.append({"time": s, "min_eig": (2.0 + math.exp(-s)) * inner})
    assert checks.check_scenario_rows(cfg, rows) == []
    problems = checks.check_scenario_rows(cfg, scaled(rows, total - 1))
    assert any("KE value" in p for p in problems)


def test_master_verdict():
    ok = {"rows": [{"scenario": "a", "check": "c", "pass": True}]}
    assert checks.check_master(0, ok) == []
    assert checks.check_master(1, ok)
    bad = {"rows": [{"scenario": "a", "check": "c", "pass": False}]}
    assert checks.check_master(0, bad)


# ---------------------------------------------------------------------------
# homothety
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def homothety_frames():
    run = RD.run_radial_flow(RD.poincare_lambda, 0.8, 0.02, nodes=128, order=6,
                             frame_dt=0.005,
                             boundary=lambda r, t: RD.homothety_lambda(r, t))
    r = (np.arange(128) + 0.5) * (0.8 / 128)
    return r, [f.time for f in run.frames], [f.lam for f in run.frames]


def test_homothety_accepts_the_flow(homothety_frames):
    r, times, lams = homothety_frames
    assert checks.check_homothety(r, times, lams, [0.0, 0.005, 0.01, 0.015, 0.02]) == []


def test_homothety_rejects_scaled_frame(homothety_frames):
    r, times, lams = homothety_frames
    bad = list(lams)
    bad[3] = bad[3] * SCALE
    assert checks.check_homothety(r, times, bad, times)


def test_homothety_rejects_missing_frame(homothety_frames):
    r, times, lams = homothety_frames
    assert checks.check_homothety(r, times[:-1], lams[:-1], times)


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def torus_frames():
    lam0 = workloads.symmetric_datum(np.random.default_rng(3), 32)
    _, fm = run_torus_flow(lam0, 1.0, 0.002, mode="metric")
    _, fp = run_torus_flow(lam0, 1.0, 0.002, mode="potential")
    return fm, fp


def test_symmetric_datum_is_symmetric_with_unit_minimum():
    lam0 = workloads.symmetric_datum(np.random.default_rng(5), 64)
    assert np.array_equal(lam0, lam0.T)
    assert lam0.min() == 1.0


def test_torus_accepts_the_flows(torus_frames):
    assert checks.check_torus(*torus_frames, 0.002) == []


def _scale_frame(frames, i):
    out = list(frames)
    t, lam, psi = out[i]
    out[i] = (t, lam * SCALE, psi)
    return out


def test_torus_rejects_scaled_frame(torus_frames):
    fm, fp = torus_frames
    assert checks.check_torus(_scale_frame(fm, 4), fp, 0.002)
    assert checks.check_torus(fm, _scale_frame(fp, 4), 0.002)


def test_torus_rejects_disagreeing_forms(torus_frames):
    fm, fp = torus_frames
    t, lam, psi = fp[-1]
    moved = lam.copy()
    moved[3, 5] += 1e-6          # area and the two forms' agreement
    moved[5, 3] += 1e-6          # (kept symmetric)
    moved[0, 0] -= 2e-6
    assert checks.check_torus(fm, fp[:-1] + [(t, moved, psi)], 0.002)


def test_torus_rejects_broken_symmetry(torus_frames):
    fm, fp = torus_frames
    t, lam, psi = fm[2]
    moved = lam.copy()
    moved[3, 5] += 1e-6
    moved[5, 3] -= 1e-6          # area unchanged, symmetry broken
    problems = checks.check_torus(fm[:2] + [(t, moved, psi)] + fm[3:], fp, 0.002)
    assert any("asymmetry" in p for p in problems)


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frak_sweep():
    tau = 0.05
    s = np.linspace(0.0, 1.0 - tau / 64.0, 4000)
    return tau, s, CO.FrakF(CO.CutoffSpec(tau=tau)).value(s)


def test_switch_and_ramp_match_the_closed_forms():
    spec = CO.CutoffSpec(tau=0.07)
    s = np.linspace(0.9, 0.99, 997)
    assert np.max(np.abs(checks.switch_phi(s, spec.phi_start, spec.mollifier_width)
                         - CO.phi_eval(s, spec))) < 1e-14
    assert max(abs(checks.ramp_prime(x, 0.07) - CO.f_derivatives(x, 0.07, 1))
               for x in s) < 1e-12


def test_gauss_legendre_frakF_at_the_window_end():
    # past the window frakF continues as f(s) - f(b) from its window value
    tau = 0.05
    spec = CO.CutoffSpec(tau=tau)
    full = checks.frakF_gauss_legendre([spec.phi_end], tau)[0]
    assert math.isclose(full, CO.FrakF(spec).value(spec.phi_end), rel_tol=1e-12)


def test_frakF_accepts_the_sweep(frak_sweep):
    tau, s, vals = frak_sweep
    assert checks.check_frakF(s, vals, tau) == []


def test_frakF_rejects_scaled_window(frak_sweep):
    tau, s, vals = frak_sweep
    a = 1.0 - tau + tau**2
    window = (s > a) & (s < a + tau**2)
    bad = np.where(window, vals * SCALE, vals)
    assert checks.check_frakF(s, bad, tau)


def test_frakF_rejects_nonzero_start_and_decrease(frak_sweep):
    tau, s, vals = frak_sweep
    bad = vals.copy()
    bad[10] = 1e-15
    assert checks.check_frakF(s, bad, tau)
    bad = vals.copy()
    bad[-5] = bad[-6] * (1.0 - 1e-6)
    assert checks.check_frakF(s, bad, tau)


def test_hsc_royden_and_norm_checks():
    assert checks.check_hsc([-2.0, -2.0 + 1e-12]) == []
    assert checks.check_hsc([-2.0, -2.0 * SCALE])
    assert checks.check_royden([0.3, -1e-9]) == []
    assert checks.check_royden([0.3, -1e-6])
    assert checks.check_finite_positive("norm", [1.0, 0.2]) == []
    assert checks.check_finite_positive("norm", [1.0, float("nan")])
