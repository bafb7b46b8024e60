"""Coordinate charts on which metrics and flows live.

A chart is a single coordinate patch of C^n with one of two topologies:

* ``radial-disk``   -- rotationally invariant scenarios on lo <= |z| < hi
  inside the unit disk, by default all of it;
* ``radial-plane``  -- rotationally invariant scenarios on lo <= |z| < hi,
  by default all of C^n.

No atlases: every metric lives on exactly one chart.  The torus flow needs
no chart: it takes its box from the scenario's ``chart.box_length``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOPOLOGIES = ("radial-disk", "radial-plane")


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
        if self.coordinate_bounds is None:
            object.__setattr__(self, "coordinate_bounds", (
                (0.0, 1.0 if self.topology == "radial-disk" else math.inf),))
        lo, hi = self.coordinate_bounds[0]
        if not hi > lo:
            raise ValueError("coordinate bounds must be a nonempty interval")
        if self.topology == "radial-disk" and not (0.0 <= lo and hi <= 1.0):
            raise ValueError("radial-disk needs radial range inside [0, 1)")

    @property
    def n(self) -> int:
        return self.complex_dimension

    def contains(self, z) -> bool:
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n,):
            return False
        lo, hi = self.coordinate_bounds[0]
        return lo <= float(np.sqrt(np.sum(np.abs(z) ** 2))) < hi
