"""Coordinate charts on which metrics and flows live.

A chart is a single coordinate patch of C^n with one of three topologies:

* ``periodic-box``  -- fundamental domain [0, L)^{2n} in real coordinates,
  index arithmetic wraps modulo the resolution;
* ``radial-disk``   -- rotationally invariant scenarios on lo <= |z| < hi
  inside the unit disk, by default all of it;
* ``radial-plane``  -- rotationally invariant scenarios on lo <= |z| < hi,
  by default all of C^n.

No atlases: every scenario lives on exactly one chart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TOPOLOGIES = ("periodic-box", "radial-disk", "radial-plane")


@dataclass(frozen=True)
class ChartDomain:
    complex_dimension: int
    topology: str
    coordinate_bounds: tuple = None

    def __post_init__(self):
        if self.complex_dimension < 1:
            raise ValueError("complex_dimension must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        bounds = self.coordinate_bounds
        if bounds is None:
            bounds = self._default_bounds()
            object.__setattr__(self, "coordinate_bounds", bounds)
        for lo, hi in bounds:
            if not hi > lo:
                raise ValueError("coordinate bounds must be nonempty intervals")
        if self.topology == "radial-disk":
            lo, hi = bounds[0]
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError("radial-disk needs radial range inside [0, 1)")

    def _default_bounds(self):
        if self.topology == "periodic-box":
            return tuple((0.0, 1.0) for _ in range(2 * self.complex_dimension))
        if self.topology == "radial-disk":
            return ((0.0, 1.0),)
        return ((0.0, math.inf),)

    @property
    def n(self) -> int:
        return self.complex_dimension

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n,):
            return False
        if self.topology == "periodic-box":
            return True  # identified modulo the box
        lo, hi = self.coordinate_bounds[0]
        return lo <= float(np.sqrt(np.sum(np.abs(z) ** 2))) < hi

    def require(self, z):
        if not self.contains(z):
            raise DomainError(f"point {z} outside chart {self.topology}")
