import numpy as np
import pytest

from crflow import metrics as M
from crflow.curvature import chern_curvature, kahler_identity_residual
from crflow.errors import DegenerateMetricError, DerivativeOrderError, DomainError


def test_hermitian_and_positive_definite_catalog():
    rng = np.random.default_rng(0)
    for key in ("euclidean", "poincare-disk", "bergman-ball", "torsion-example-1",
                "conformal:euclidean-c2:radial-quadratic:0.2"):
        g = M.resolve_metric(key)
        for _ in range(20):
            z = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
            z *= 0.3 / max(1.0, np.linalg.norm(z))
            G = g.matrix(z)
            assert np.abs(G - G.conj().T).max() < 1e-14, key
            assert np.linalg.eigvalsh(G).min() > 0, key


def test_analytic_d1_d2_match_fd():
    rng = np.random.default_rng(1)
    for key in ("poincare-disk", "bergman-ball", "torsion-example-1"):
        g = M.resolve_metric(key)
        gfd = M.with_fd_backend(g, order=4, step=1e-3)
        z = (rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)) * 0.2
        assert np.abs(g.d1(z) - gfd.d1(z)).max() < 1e-9
        assert np.abs(g.d2(z) - gfd.d2(z)).max() < 1e-7


@pytest.mark.parametrize("order,factor", [(2, 2**1.5), (4, 2**3.5)])
def test_fd_convergence_order(order, factor):
    """Halving the step cuts the curvature error by >= 2^(order - 0.5)."""
    g = M.poincare_disk()
    pt = np.array([0.4 + 0.1j])
    exact = chern_curvature(g, pt).curvature[0, 0, 0, 0]
    errs = []
    for step in (4e-3, 2e-3):
        gfd = M.with_fd_backend(g, order=order, step=step)
        errs.append(abs(chern_curvature(gfd, pt).curvature[0, 0, 0, 0] - exact))
    assert errs[0] / errs[1] >= factor


def test_fd_max_order_fail_fast():
    g = M.with_fd_backend(M.torsion_example(), order=4, step=1e-2, max_order=2)
    with pytest.raises(DerivativeOrderError):
        kahler_identity_residual(g, np.array([0.1 + 0j, 0.0j]))
    # explicit opt-in allows it
    g3 = M.with_fd_backend(M.torsion_example(), order=4, step=1e-2, max_order=3)
    assert kahler_identity_residual(g3, np.array([0.1 + 0j, 0.0j])) < 1e-5


def test_degenerate_metric_error():
    g = M.scaled(M.euclidean(2), 1.0)
    g.matrix_fn = lambda z: np.diag([1.0, 1e-15]).astype(complex)
    with pytest.raises(DegenerateMetricError):
        g.inverse_up(np.zeros(2, dtype=complex))


def test_point_outside_chart():
    g = M.poincare_disk()
    with pytest.raises(DomainError):
        g.matrix(np.array([1.2 + 0j]))
    with pytest.raises(DomainError):
        g.d1([1.2])
    with pytest.raises(DomainError):
        g.d2([1.2])


def test_catalog_unknown_key():
    with pytest.raises(KeyError):
        M.resolve_metric("no-such-metric")

