import numpy as np
import pytest

from crflow import chen, flow
from crflow.chen import (chen_bound, chen_ode_oracle, chen_sweep,
                         riccati_closed_form)


def test_beta_zero_closed_form():
    """q = q0/(1 + q0 t); sup t q < 1 = bound for alpha = 1."""
    res = chen_ode_oracle(1.0, 0.0, 2.0, 5.0)
    assert res.bound == pytest.approx(1.0)
    assert res.sup_tq < 1.0
    t = np.linspace(0, 2, 50)
    assert np.abs(riccati_closed_form(1.0, 0.0, 5.0, t)
                  - 5.0 / (1 + 5.0 * t)).max() < 1e-14


def test_bound_value_golden_ratio():
    """alpha = beta = T = 1: bound = (1 + sqrt 5)/2."""
    assert chen_bound(1.0, 1.0, 1.0) == pytest.approx((1 + np.sqrt(5)) / 2)
    for q0 in (0.1, 1.0, 10.0, 1000.0):
        res = chen_ode_oracle(1.0, 1.0, 1.0, q0)
        assert res.slack >= -1e-6


def test_integrator_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.uniform(0.2, 5.0)
        b = rng.uniform(0.0, 5.0)
        q0 = rng.uniform(0.05, 50.0)
        T = rng.uniform(0.2, 2.0)
        t = np.linspace(1e-4, T, 400)
        exact = np.max(t * riccati_closed_form(a, b, q0, t))
        res = chen_ode_oracle(a, b, T, q0)
        assert res.sup_tq == pytest.approx(exact, rel=1e-5, abs=1e-7)


def test_large_q0_stiff_transient():
    res = chen_ode_oracle(10.0, 10.0, 1.0, 1e3)
    assert np.isfinite(res.sup_tq)
    assert res.slack >= -1e-6


def test_sweep_property():
    slack, worst, count = chen_sweep(
        np.array([0.5, 2.0]), np.array([0.0, 3.0]), np.array([0.5, 1.5]),
        np.array([0.1, 10.0]))
    assert count == 16
    assert slack >= -1e-6


def test_input_validation():
    with pytest.raises(ValueError):
        chen_ode_oracle(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        chen_ode_oracle(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        chen_ode_oracle(1.0, 1.0, 0.0, 1.0)
    for q0 in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            chen_ode_oracle(1.0, 1.0, 1.0, q0)
    with pytest.raises(ValueError):
        chen_sweep(np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0]),
                   np.array([1.0]))


def test_oracle_and_sweep_step_through_flow_rk4(monkeypatch):
    """Both entry points integrate through `flow.rk4`, once per call, all
    cases on one clock s = t/T that ends at 1."""
    ends = []

    def counted(y, t_end, rhs, cfl, check, **kw):
        out = flow.rk4(y, t_end, rhs, cfl, check, **kw)
        ends.append((t_end, out[2], out[3]))
        return out
    monkeypatch.setattr(chen, "rk4", counted)
    assert chen_ode_oracle(1.0, 1.0, 1.0, 10.0).slack >= -1e-6
    assert chen_sweep(np.array([0.5, 2.0]), np.array([0.0, 3.0]),
                      np.array([0.5, 1.5]), np.array([0.1, 10.0]))[0] >= -1e-6
    assert len(ends) == 2
    for t_end, t, err in ends:
        assert t_end == 1.0 and t == pytest.approx(1.0) and err is None
