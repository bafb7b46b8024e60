import numpy as np
import pytest

from crflow.charts import ChartDomain


def test_validation():
    with pytest.raises(ValueError):
        ChartDomain(0, "radial-disk")
    with pytest.raises(ValueError):
        ChartDomain(1, "klein-bottle")
    with pytest.raises(ValueError):
        ChartDomain(1, "radial-disk", ((0.0, 1.2),))  # range inside [0,1)
    with pytest.raises(ValueError):
        ChartDomain(1, "radial-plane", ((1.0, 1.0),))
    with pytest.raises(ValueError):
        ChartDomain(1, "periodic-box")   # the torus flow needs no chart


def test_contains():
    disk = ChartDomain(1, "radial-disk")
    assert disk.contains(np.array([0.5 + 0.3j]))
    assert not disk.contains(np.array([1.0 + 0.2j]))
    assert not disk.contains(np.array([2.0 + 0j]))
    plane = ChartDomain(2, "radial-plane")
    assert plane.contains(np.array([3.0 + 0j, 4.0 + 0j]))


def test_contains_honours_coordinate_bounds():
    """Radial charts contain exactly lo <= |z| < hi."""
    ring = ChartDomain(1, "radial-disk", ((0.2, 0.5),))
    assert ring.contains(np.array([0.2 + 0j]))
    assert ring.contains(np.array([0.3 + 0.3j]))
    assert not ring.contains(np.array([0.1j]))
    assert not ring.contains(np.array([0.5 + 0j]))
    assert not ring.contains(np.array([0.9 + 0j]))
    plane = ChartDomain(2, "radial-plane", ((0.0, 10.0),))
    assert plane.contains(np.array([3.0 + 0j, 4.0 + 0j]))
    assert not plane.contains(np.array([6.0 + 0j, 8.0 + 0j]))
    assert not plane.contains(np.array([20.0 + 0j, 0j]))
