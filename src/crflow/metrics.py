"""Hermitian metric providers on a chart, with derivative access.

A provider answers, at any chart point z:

* ``matrix(z)``  -- the n x n Hermitian matrix g_{i jbar},
* ``d1(z)``      -- D1[a, i, j] = d_a g_{i jbar},
* ``d2(z)``      -- D2[a, b, i, j] = d_a dbar_b g_{i jbar}.

Anti-holomorphic first derivatives follow from Hermitian symmetry
(dbar_a g_{i jbar} = conj(d_a g_{j ibar})), and nothing in the package needs
pure-holomorphic second derivatives, so (matrix, d1, d2) is the complete
derivative interface.

A provider is one ``MetricProvider``: a chart, a label and the closures for
these three, either closed forms or, through ``with_fd_backend``, central
finite differences of the matrix closure.  Each public call checks that z
lies in the chart; ``scaled``, ``conformal_metric`` and ``mobius_pullback``
compose the base's raw closures, so a composite checks each point once.

``max_order`` is the declared derivative *depth*: 1 = connection/torsion,
2 = curvature, 3 = derivatives of torsion (covariant derivatives of a
first-order object).  Finite-difference providers default to depth 2 and
must be constructed with ``max_order=3`` explicitly, so torsion-derivative
operations fail fast instead of silently running on noisy data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .charts import ChartDomain
from .errors import DegenerateMetricError, DerivativeOrderError, DomainError

DEGENERACY_THRESHOLD = 1e-12


def inverse_up(G, point=None):
    """Gu[i, j] = g^{i jbar} of the matrix G; DegenerateMetricError (naming
    `point`) when its smallest eigenvalue is at or below
    DEGENERACY_THRESHOLD."""
    w = np.linalg.eigvalsh(G)
    if w.min() <= DEGENERACY_THRESHOLD:
        raise DegenerateMetricError(point, float(w.min()))
    return np.linalg.inv(G).T


# ---------------------------------------------------------------------------
# scalar fields (conformal factors, exhaustion functions)
# ---------------------------------------------------------------------------

@dataclass
class ScalarField:
    """Real scalar field with derivative closures.

    value(z) -> float, grad(z) -> (n,) [F_a], hess(z) -> (n, n) [F_{a bbar}].
    """
    value: Callable
    grad: Callable
    hess: Callable
    label: str = "scalar"


def constant_field(c: float) -> ScalarField:
    return ScalarField(
        value=lambda z: c,
        grad=lambda z: np.zeros(len(z), dtype=complex),
        hess=lambda z: np.zeros((len(z), len(z)), dtype=complex),
        label=f"constant:{c:g}",
    )


def radial_quadratic_field(a: float) -> ScalarField:
    """F = a * |z|^2; F_a = a zbar_a, F_{a bbar} = a delta_ab."""
    return ScalarField(
        value=lambda z: a * float(np.sum(np.abs(z) ** 2)),
        grad=lambda z: a * np.conj(np.asarray(z, dtype=complex)),
        hess=lambda z: a * np.eye(len(z), dtype=complex),
        label=f"radial-quadratic:{a:g}",
    )


def rho_one_plus_sq() -> ScalarField:
    """Exhaustion rho = 1 + |z|^2 (>= 1 everywhere)."""
    f = radial_quadratic_field(1.0)
    return ScalarField(
        value=lambda z: 1.0 + f.value(z),
        grad=f.grad,
        hess=f.hess,
        label="rho:1+|z|^2",
    )


# ---------------------------------------------------------------------------
# provider
# ---------------------------------------------------------------------------

class MetricProvider:
    """A metric on a chart: the closures for g, d1 g and d2 g, the declared
    derivative depth, and the chart's domain check on every public call.

    ``max_order`` defaults to 0, 1 or 3 as ``d1`` and ``d2`` are given.
    """

    def __init__(self, chart: ChartDomain, label: str, matrix: Callable,
                 d1: Optional[Callable] = None, d2: Optional[Callable] = None,
                 max_order: Optional[int] = None):
        self.chart = chart
        self.label = label
        self.matrix_fn = matrix
        self.d1_fn = d1
        self.d2_fn = d2
        if max_order is None:
            max_order = 0 if d1 is None else 1 if d2 is None else 3
        self.max_order = max_order

    @property
    def n(self) -> int:
        return self.chart.n

    def require_order(self, k: int, what: str = "operation"):
        if self.max_order < k:
            raise DerivativeOrderError(
                f"{what} needs derivative depth {k}, metric "
                f"{self.label!r} declares {self.max_order}"
            )

    def _point(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if not self.chart.contains(z):
            raise DomainError(f"{z} outside chart of {self.label!r}")
        return z

    def matrix(self, z) -> np.ndarray:
        return np.asarray(self.matrix_fn(self._point(z)), dtype=complex)

    def d1(self, z) -> np.ndarray:
        self.require_order(1, "first derivatives")
        return np.asarray(self.d1_fn(self._point(z)), dtype=complex)

    def d2(self, z) -> np.ndarray:
        self.require_order(2, "second derivatives")
        return np.asarray(self.d2_fn(self._point(z)), dtype=complex)

    def inverse_up(self, z) -> np.ndarray:
        """Gu[i, j] = g^{i jbar}, guarding against degeneracy."""
        return inverse_up(self.matrix(z), z)

    def __repr__(self):
        return (f"MetricProvider({self.label!r}, n={self.n}, "
                f"max_order={self.max_order})")


def with_fd_backend(provider: MetricProvider, order=4, step=1e-3,
                    max_order=2) -> MetricProvider:
    """Same metric, derivatives by central finite differences of order 2 or
    4 (for convergence studies)."""
    if order not in (2, 4):
        raise ValueError("FD order must be 2 or 4")
    mat = provider.matrix_fn
    return MetricProvider(
        provider.chart, f"{provider.label}|fd{order}@{step:g}", mat,
        lambda z: fd.holomorphic_derivative(mat, z, step, order),
        lambda z: fd.mixed_second_derivative(mat, z, step, order),
        max_order=max_order)


# ---------------------------------------------------------------------------
# concrete metrics
# ---------------------------------------------------------------------------

def euclidean(n=1, chart: Optional[ChartDomain] = None) -> MetricProvider:
    chart = chart or ChartDomain(n, "radial-plane")
    eye = np.eye(n, dtype=complex)
    z0 = np.zeros((n, n, n), dtype=complex)
    z1 = np.zeros((n, n, n, n), dtype=complex)
    return MetricProvider(chart, "euclidean", lambda z: eye, lambda z: z0,
                          lambda z: z1)


def poincare_disk(factor=1.0, chart: Optional[ChartDomain] = None,
                  label=None) -> MetricProvider:
    """lambda = factor * (1 - |z|^2)^(-2) on the unit disk (n = 1).

    factor=1 is the flow's usual initial metric; factor=2 is the
    Kahler-Einstein fixed point of the normalized flow (Ric = -g).
    """
    chart = chart or ChartDomain(1, "radial-disk")
    c = float(factor)

    def mat(z):
        u = 1.0 - abs(z[0]) ** 2
        return np.array([[c / u**2]], dtype=complex)

    def d1(z):
        zz = z[0]
        u = 1.0 - abs(zz) ** 2
        return np.array([[[2.0 * c * np.conj(zz) / u**3]]], dtype=complex)

    def d2(z):
        zz = z[0]
        u = 1.0 - abs(zz) ** 2
        val = 2.0 * c / u**3 + 6.0 * c * abs(zz) ** 2 / u**4
        return np.array([[[[val]]]], dtype=complex)

    name = label or ("poincare-disk" if c == 1.0 else f"poincare-disk:{c:g}")
    return MetricProvider(chart, name, mat, d1, d2)


def bergman_ball(n=2, chart: Optional[ChartDomain] = None) -> MetricProvider:
    """g = ddbar(-log(1 - |z|^2)) on the unit ball of C^n.

    Closed forms (checked symbolically):
      g_{i jbar}  = delta_ij/(1-rho) + zbar_i z_j/(1-rho)^2
      d_a g       = delta_ij zbar_a/(1-rho)^2 + delta_aj zbar_i/(1-rho)^2
                    + 2 zbar_a zbar_i z_j/(1-rho)^3
      d_a dbar_b g as below, rho = |z|^2.
    """
    chart = chart or ChartDomain(n, "radial-disk")
    eye = np.eye(n)

    def mat(z):
        z = np.asarray(z, dtype=complex)
        rho = float(np.sum(np.abs(z) ** 2))
        u = 1.0 - rho
        return eye / u + np.outer(np.conj(z), z) / u**2

    def d1(z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        u = 1.0 - float(np.sum(np.abs(z) ** 2))
        out = (np.einsum('ij,a->aij', eye, zb) / u**2
               + np.einsum('aj,i->aij', eye, zb) / u**2
               + 2.0 * np.einsum('a,i,j->aij', zb, zb, z) / u**3)
        return out

    def d2(z):
        z = np.asarray(z, dtype=complex)
        zb = np.conj(z)
        u = 1.0 - float(np.sum(np.abs(z) ** 2))
        e2, e3, e4 = 1.0 / u**2, 1.0 / u**3, 1.0 / u**4
        out = (np.einsum('ij,ab->abij', eye, eye) * e2
               + 2.0 * np.einsum('ij,a,b->abij', eye, zb, z) * e3
               + np.einsum('aj,ib->abij', eye, eye) * e2
               + 2.0 * np.einsum('aj,i,b->abij', eye, zb, z) * e3
               + 2.0 * np.einsum('ab,i,j->abij', eye, zb, z) * e3
               + 2.0 * np.einsum('ib,a,j->abij', eye, zb, z) * e3
               + 6.0 * np.einsum('a,i,j,b->abij', zb, zb, z, z) * e4)
        return out

    return MetricProvider(chart, f"bergman-ball-n{n}", mat, d1, d2)


def torsion_example(chart: Optional[ChartDomain] = None) -> MetricProvider:
    """Non-Kahler metric on C^2: g_{1 1bar} = 1, g_{2 2bar} = 1 + |z_1|^2."""
    chart = chart or ChartDomain(2, "radial-plane")

    def mat(z):
        return np.array([[1.0, 0.0], [0.0, 1.0 + abs(z[0]) ** 2]], dtype=complex)

    def d1(z):
        out = np.zeros((2, 2, 2), dtype=complex)
        out[0, 1, 1] = np.conj(z[0])
        return out

    def d2(z):
        out = np.zeros((2, 2, 2, 2), dtype=complex)
        out[0, 0, 1, 1] = 1.0
        return out

    return MetricProvider(chart, "torsion-example-1", mat, d1, d2)


def scaled(provider: MetricProvider, c: float) -> MetricProvider:
    """c * g with derivatives scaled alike."""
    if c <= 0:
        raise ValueError("scale must be positive")
    m, d1, d2 = provider.matrix_fn, provider.d1_fn, provider.d2_fn
    return MetricProvider(provider.chart, f"scaled:{c:g}:{provider.label}",
                          lambda z: c * m(z), lambda z: c * d1(z),
                          lambda z: c * d2(z), max_order=provider.max_order)


def conformal_metric(provider: MetricProvider, factor: ScalarField,
                     label=None) -> MetricProvider:
    """e^{2F} g with derivative closures assembled by the product/chain rule."""
    gm, gd1, gd2 = provider.matrix_fn, provider.d1_fn, provider.d2_fn

    def mat(z):
        return np.exp(2.0 * factor.value(z)) * gm(z)

    def d1(z):
        e = np.exp(2.0 * factor.value(z))
        Fd = factor.grad(z)
        return e * (2.0 * np.einsum('a,ij->aij', Fd, gm(z)) + gd1(z))

    def d2(z):
        e = np.exp(2.0 * factor.value(z))
        Fd = factor.grad(z)
        Fb = np.conj(Fd)
        Fdd = factor.hess(z)
        g = gm(z)
        D1 = gd1(z)
        dbar_g = np.conj(D1).transpose(0, 2, 1)  # dbar_b g_{i jbar}
        return e * (np.einsum('ab,ij->abij', 2.0 * Fdd + 4.0 * np.einsum('a,b->ab', Fd, Fb), g)
                    + 2.0 * np.einsum('a,bij->abij', Fd, dbar_g)
                    + 2.0 * np.einsum('b,aij->abij', Fb, D1)
                    + gd2(z))

    return MetricProvider(provider.chart,
                          label or f"conformal:{provider.label}:{factor.label}",
                          mat, d1, d2, max_order=provider.max_order)


def mobius_pullback(provider: MetricProvider, a: complex) -> MetricProvider:
    """Pullback of an n=1 disk metric under phi(z) = (z - a)/(1 - conj(a) z).

    ghat(z) = g(phi(z)) |phi'(z)|^2, with chain-rule derivative closures.
    """
    if provider.n != 1:
        raise ValueError("mobius pullback implemented for n = 1")
    a = complex(a)
    ab = np.conj(a)
    gm, gd1, gd2 = provider.matrix_fn, provider.d1_fn, provider.d2_fn

    def phi(z):
        return (z - a) / (1.0 - ab * z)

    def dphi(z):
        return (1.0 - ab * a) / (1.0 - ab * z) ** 2

    def d2phi(z):
        return 2.0 * ab * (1.0 - ab * a) / (1.0 - ab * z) ** 3

    def mat(z):
        w = phi(z[0])
        p = dphi(z[0])
        return gm(np.array([w])) * (p * np.conj(p))

    def d1(z):
        w, p, pp = phi(z[0]), dphi(z[0]), d2phi(z[0])
        g = gm(np.array([w]))[0, 0]
        gz = gd1(np.array([w]))[0, 0, 0]
        # d_z [ g(phi) phi' conj(phi') ] ; conj(phi') is anti-holomorphic in z
        val = gz * p * p * np.conj(p) + g * pp * np.conj(p)
        return np.array([[[val]]], dtype=complex)

    def d2(z):
        w, p, pp = phi(z[0]), dphi(z[0]), d2phi(z[0])
        pt = np.array([w])
        g = gm(pt)[0, 0]
        gz = gd1(pt)[0, 0, 0]
        gzb = np.conj(gz)
        gzzb = gd2(pt)[0, 0, 0, 0]
        # dbar_z of d1: dbar acts on g-args via conj(phi) and on conj(phi') factors
        val = (gzzb * p * np.conj(p) * p * np.conj(p)
               + gz * p * p * np.conj(pp)
               + gzb * np.conj(p) * np.conj(p) * pp
               + g * pp * np.conj(pp))
        return np.array([[[[val]]]], dtype=complex)

    return MetricProvider(provider.chart, f"mobius:{a:g}:{provider.label}",
                          mat, d1, d2, max_order=provider.max_order)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_FACTORS = {
    "constant": lambda arg: constant_field(float(arg)),
    "radial-quadratic": lambda arg: radial_quadratic_field(float(arg)),
}


def _conformal_from_key(key):
    parts = key.split(":")
    if len(parts) < 3:
        raise KeyError(f"conformal key {key!r} needs conformal:<base>:<factor>[:arg]")
    base = resolve_metric(parts[1])
    fname = parts[2]
    if fname not in _FACTORS:
        raise KeyError(f"unknown conformal factor {fname!r}")
    arg = parts[3] if len(parts) > 3 else "1"
    return conformal_metric(base, _FACTORS[fname](arg))


CATALOG = {
    "euclidean": lambda: euclidean(1),
    "euclidean-c2": lambda: euclidean(2),
    "poincare-disk": lambda: poincare_disk(1.0),
    "hyperbolic-ke": lambda: poincare_disk(2.0, label="hyperbolic-ke"),
    "bergman-ball": lambda: bergman_ball(2),
    "torsion-example-1": torsion_example,
}

CATALOG_DOC = {
    "euclidean": "flat metric on C (n=1)",
    "euclidean-c2": "flat metric on C^2",
    "poincare-disk": "(1-|z|^2)^-2 on the unit disk, HSC = -2",
    "hyperbolic-ke": "2(1-|z|^2)^-2, the Ric = -g fixed point on the disk",
    "bergman-ball": "ddbar(-log(1-|z|^2)) on the ball in C^2, Ric = -3g",
    "torsion-example-1": "non-Kahler diag(1, 1+|z1|^2) on C^2",
    "conformal:<base>:<factor>[:arg]":
        "e^{2F} base; factors: constant, radial-quadratic",
}


def resolve_metric(key: str) -> MetricProvider:
    if key in CATALOG:
        return CATALOG[key]()
    if key.startswith("conformal:"):
        return _conformal_from_key(key)
    raise KeyError(f"unknown metric catalog key {key!r}")


def list_metrics():
    return dict(CATALOG_DOC)

