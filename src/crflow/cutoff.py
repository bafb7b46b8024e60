"""Cutoff construction for conformally completing truncated metrics.

The ramp f vanishes on [0, 1-tau] and blows up logarithmically at s = 1:

    f(s) = -log[1 - ((s - 1 + tau)/tau)^2]   on (1 - tau, 1).

The switch phi rises 0 -> 1 across [1 - tau + tau^2, 1 - tau + 2 tau^2] with
0 <= phi' <= 2/tau^2.  A single degree-7 smoothstep over a tau^2-wide window
peaks at 2.1875/tau^2, violating the slope cap, so phi' is realized as two
degree-7 smoothstep halves meeting at exactly 2/tau^2 (the profile is C^4).

The exhaustion weight is frakF(s) = int_0^s phi f'; on phi's plateau the
integral continues as f(s) - f(s_1) exactly, so no quadrature ever runs into
the log singularity.  The quadrature calls its integrand phi f' one float at
a time, and `FrakF._integrand` computes it in float arithmetic, as
`phi_eval` and `f_derivatives` do on arrays and with the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .errors import DomainError
from .estimates import EstimateReport, _report
from .metrics import MetricProvider, ScalarField, conformal_metric

# subdivision limit of frakF's adaptive quadrature in the switch window
_QUAD_LIMIT = 256


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at frakF's first integral: the import
    loads scipy.special, scipy.optimize and scipy.sparse.linalg (about
    24 MB), which a run that never integrates frakF does not need.  No other
    crflow module imports scipy at its own import; the radial grid's banded
    LAPACK arrives with the first `radial.RadialGrid`."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# ---------------------------------------------------------------------------
# the ramp f
# ---------------------------------------------------------------------------

def _in_domain(s, name):
    """s as a float array; DomainError unless all of it lies in [0, 1)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr >= 1.0) or np.any(s_arr < 0.0):
        raise DomainError(f"{name} is defined on [0, 1)")
    return s_arr


def f_eval(s, tau):
    """f(s); 0 on [0, 1-tau], -log(1 - u^2) with u = (s-1+tau)/tau after."""
    _check_tau(tau)
    u = (_in_domain(s, "f") - 1.0 + tau) / tau
    u = np.where(u < 1e-12, 0.0, u)   # exact zero on [0, 1 - tau]
    out = np.where(u > 0, -np.log1p(-np.clip(u, 0.0, None) ** 2), 0.0)
    return float(out) if np.isscalar(s) else out


def f_derivatives(s, tau, k):
    """k-th derivative of f (k = 1..4) on [0, 1), 0 on [0, 1-tau]; a scalar
    in gives a float out.  Raises DomainError outside [0, 1)."""
    return _f_derivatives(_in_domain(s, "f"), tau, k)


def _f_derivatives(s, tau, k):
    """`f_derivatives` on s (float or float array) known to lie in [0, 1):
    `FrakF.derivative` calls it once per k on the whole sweep."""
    u = (s - 1.0 + tau) / tau
    uu = u * u          # products, not powers: numpy's vector pow can round
    w = 1.0 - uu        # differently from its scalar one
    ww = w * w
    if k == 1:
        out = 2.0 * u / (tau * w)
    elif k == 2:
        out = 2.0 * (1.0 + uu) / (tau**2 * ww)
    elif k == 3:
        out = 4.0 * u * (3.0 + uu) / (tau**3 * (ww * w))
    elif k == 4:
        out = 12.0 * (1.0 + 6.0 * uu + uu * uu) / (tau**4 * (ww * ww))
    else:
        raise ValueError("k must be 1..4")
    out = np.where(u > 0, out, 0.0)
    return float(out) if out.ndim == 0 else out


def _check_tau(tau):
    if not 0.0 < tau < 0.125:
        raise ValueError("tau must lie in (0, 1/8)")


# ---------------------------------------------------------------------------
# the switch phi
# ---------------------------------------------------------------------------

def _s3(x):
    return (((-20.0 * x + 70.0) * x - 84.0) * x + 35.0) * x**4


def _s3p(x):
    return 140.0 * x**3 * (1.0 - x) ** 3


def _s3pp(x):
    return 420.0 * x**2 * (1.0 - x) ** 2 * (1.0 - 2.0 * x)


def _p_int(x):
    """int_0^x S3 = 7x^5 - 14x^6 + 10x^7 - 2.5x^8, in products rather than
    x**5, so that a float and a float array give the same bits (see
    `_f_derivatives`)."""
    xx = x * x
    return (((-2.5 * x + 10.0) * x - 14.0) * x + 7.0) * (xx * xx * x)


@dataclass
class CutoffSpec:
    tau: float
    mollifier_width: Optional[float] = None   # transition width, <= tau^2

    def __post_init__(self):
        _check_tau(self.tau)
        if self.mollifier_width is None:
            self.mollifier_width = self.tau**2
        if not 0 < self.mollifier_width <= self.tau**2:
            raise ValueError("mollifier width must lie in (0, tau^2]")

    @property
    def phi_start(self):
        return 1.0 - self.tau + self.tau**2

    @property
    def phi_end(self):
        return self.phi_start + self.mollifier_width


def phi_eval(s, spec: CutoffSpec, deriv=0):
    """phi and derivatives 0..3; C^4 profile with max slope exactly 2/width."""
    a, w = spec.phi_start, spec.mollifier_width
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    v = (s_arr - a) / w
    out = np.zeros_like(s_arr)
    lo = v <= 0.0
    hi = v >= 1.0
    mid1 = (~lo) & (~hi) & (v <= 0.5)
    mid2 = (~lo) & (~hi) & (v > 0.5)
    if deriv == 0:
        out[hi] = 1.0
        out[mid1] = _p_int(2.0 * v[mid1])
        out[mid2] = 1.0 - _p_int(2.0 * (1.0 - v[mid2]))
    elif deriv == 1:
        out[mid1] = (2.0 / w) * _s3(2.0 * v[mid1])
        out[mid2] = (2.0 / w) * _s3(2.0 * (1.0 - v[mid2]))
    elif deriv == 2:
        out[mid1] = (4.0 / w**2) * _s3p(2.0 * v[mid1])
        out[mid2] = -(4.0 / w**2) * _s3p(2.0 * (1.0 - v[mid2]))
    elif deriv == 3:
        out[mid1] = (8.0 / w**3) * _s3pp(2.0 * v[mid1])
        out[mid2] = (8.0 / w**3) * _s3pp(2.0 * (1.0 - v[mid2]))
    else:
        raise ValueError("deriv must be 0..3")
    return float(out[0]) if np.isscalar(s) else out


# ---------------------------------------------------------------------------
# frakF
# ---------------------------------------------------------------------------

class FrakF:
    """frakF(s) = int_0^s phi f', with exact continuation past the switch."""

    def __init__(self, spec: CutoffSpec):
        self.spec = spec
        self.tau = spec.tau
        a, b = spec.phi_start, spec.phi_end
        self._a, self._w = a, spec.mollifier_width      # for _integrand
        val, err = quad(self._integrand, a, b, epsabs=1e-13, epsrel=1e-12,
                        limit=_QUAD_LIMIT)
        self._full = val
        self.quadrature_error = err
        self._f_end = f_eval(b, self.tau)

    def _integrand(self, s):
        """phi(s) f'(s) for one float s, in float arithmetic: quad calls it
        about sixty times per integral, one point at a time.  It takes the
        branches and operations of `phi_eval` and `_f_derivatives`, so its
        value is theirs bit for bit."""
        tau = self.tau
        v = (s - self._a) / self._w
        if v <= 0.0:
            phi = 0.0
        elif v >= 1.0:
            phi = 1.0
        elif v <= 0.5:
            phi = _p_int(2.0 * v)
        else:
            phi = 1.0 - _p_int(2.0 * (1.0 - v))
        u = (s - 1.0 + tau) / tau
        return phi * (2.0 * u / (tau * (1.0 - u * u)) if u > 0 else 0.0)

    def value(self, s):
        s_arr = np.atleast_1d(_in_domain(s, "frakF"))
        out = np.zeros_like(s_arr)
        a, b = self.spec.phi_start, self.spec.phi_end
        mid = (s_arr > a) & (s_arr < b)
        for i in np.nonzero(mid)[0]:
            v, _ = quad(self._integrand, a, s_arr[i], epsabs=1e-13,
                        epsrel=1e-12, limit=_QUAD_LIMIT)
            out[i] = v
        past = s_arr >= b
        out[past] = self._full + f_eval(s_arr[past], self.tau) - self._f_end
        return float(out[0]) if np.isscalar(s) else out

    def derivative(self, s, k=1):
        """frakF^(k) = (phi f')^(k-1) = sum_{j<k} C(k-1, j) phi^(j) f^(k-j),
        exact for k = 1..4; a scalar in gives a float out.  Raises
        DomainError outside [0, 1), as `value` does."""
        if k not in (1, 2, 3, 4):
            raise ValueError("k must be 1..4")
        s_arr = _in_domain(s, "frakF")
        return sum(comb(k - 1, j) * phi_eval(s, self.spec, j)
                   * _f_derivatives(s_arr, self.tau, k - j) for j in range(k))

    __call__ = value


def frakF_properties_check(spec: CutoffSpec, derivative_order=4,
                           sweep_points=2000, s_hi=None) -> EstimateReport:
    """Bounded weighted derivatives and the ratio bounds of the cutoff.

    (ii) sup over the sweep of e^{-k frakF} |frakF^(k)| for k <= K (finite);
    (iii) with probe radius rho(s) = min(tau^2, (1-s)/2) on
          s in (1 - 2 tau, 1 - tau/2]:
              1 <= exp(frakF(s+rho) - frakF(s-rho)) <= 1 + c2 rho,
              rho exp(frakF(s-rho)) >= c3 rho^2,
          with c2, c3 calibrated over the sweep (the source statement writes
          s0 for s and reuses tau for the radius; the probe-radius rule
          realizes it on a fixed range so refinement converges).
    """
    if derivative_order > 4:
        raise ValueError("derivative order capped at 4")
    F = FrakF(spec)
    tau = spec.tau
    s_hi = s_hi if s_hi is not None else 1.0 - tau / 64.0
    grid = np.linspace(0.0, s_hi, sweep_points)
    vals = F.value(grid)
    sup_wk = {}
    for k in range(1, derivative_order + 1):
        dk = F.derivative(grid, k)
        sup_wk[f"k{k}"] = float(np.max(np.exp(-k * vals) * np.abs(dk)))
    finite = all(np.isfinite(v) for v in sup_wk.values())

    lo, hi = 1.0 - 2.0 * tau, 1.0 - tau / 2.0
    sg = np.linspace(lo + 1e-9, hi, max(200, sweep_points // 10))
    rho = np.minimum(tau**2, (1.0 - sg) / 2.0)
    up = F.value(sg + rho)
    dn = F.value(sg - rho)
    ratio = np.exp(up - dn)
    mono_ok = bool(np.all(ratio >= 1.0 - 1e-12))
    c2 = float(np.max((ratio - 1.0) / rho))
    c3 = float(np.min(np.exp(dn) / rho))
    slack = 0.0 if (finite and mono_ok) else -1.0
    return _report("frakF-properties", slack, ("s_hi", s_hi), 0.0,
                   sweep_points, sup_weighted_derivatives=sup_wk,
                   ratio_lower_ok=mono_ok, c2_calibrated=c2, c3_calibrated=c3,
                   quadrature_error=F.quadrature_error)


# ---------------------------------------------------------------------------
# conformal completion
# ---------------------------------------------------------------------------

@dataclass
class CompletionSpec:
    rho: ScalarField          # exhaustion >= 1 with derivative closures
    rho_i: float              # truncation level > 1
    cutoff: CutoffSpec

    def factor(self) -> ScalarField:
        """F(z) = frakF(rho(z)/rho_i) as a scalar field with derivatives."""
        F = FrakF(self.cutoff)
        ri = self.rho_i

        def value(z):
            return F.value(self.rho.value(z) / ri)

        def grad(z):
            x = self.rho.value(z) / ri
            return F.derivative(x, 1) * self.rho.grad(z) / ri

        def hess(z):
            x = self.rho.value(z) / ri
            g = self.rho.grad(z)
            return (F.derivative(x, 2) * np.einsum('a,b->ab', g, np.conj(g)) / ri**2
                    + F.derivative(x, 1) * self.rho.hess(z) / ri)

        return ScalarField(value, grad, hess,
                           label=f"frakF(rho/{ri:g});tau={self.cutoff.tau:g}")


def conformal_completion(g0: MetricProvider, h: MetricProvider,
                         spec: CompletionSpec, sample_points, kappa0,
                         seed=0, hsc_samples=512):
    """Build g_{0,i} = e^{2F} g0, h_i = e^{2F} h and measure the bounds.

    Returns (g0i, hi, report).  The report calibrates, over the samples, the
    smallest constant c making each of these hold:

      (i)   |T_{0,i}|^2_{h_i}               <= c beta
      (ii)  |T_{0,i}|_{h_i} |hatT_i|_{h_i}  <= c beta
      (iii) |hnabla_i,dbar T_{0,i}|_{h_i}   <= c beta (1 + beta)
      (iv)  (n+1)/(2n) kappa_i + |hnabla_i,dbar T_i|_{h_i}
                                            <= kappa0 + c beta (1 + beta)

    beta is measured from the *untransformed* pair (torsion norms and the
    torsion-derivative norm of g0 against h); where F = 0 the transformed
    tensors coincide with the originals exactly.  (iv) reads kappa_i alone
    from `hsc_max`, which therefore runs no torsion sweep of its own, and
    takes |hnabla_i,dbar T_i| from a 128-sample `nabla_bar_torsion_norm`.
    """
    import math

    from .curvature import frame_tensor_norm_sq, hsc_max, \
        nabla_bar_torsion_norm, torsion_from

    factor = spec.factor()
    g0i = conformal_metric(g0, factor, label=f"completion:{g0.label}")
    hi = conformal_metric(h, factor, label=f"completion:{h.label}")

    def t_norm(provider, frame, z):
        T = torsion_from(provider.d1(z))
        return math.sqrt(frame_tensor_norm_sq(T, frame.matrix(z)))

    pts = np.atleast_2d(np.asarray(sample_points, dtype=complex))
    beta = 0.0
    for z in pts:
        tn = t_norm(g0, h, z)
        th = t_norm(h, h, z)
        nb = nabla_bar_torsion_norm(h, z, t_source=g0, seed=seed, samples=128)
        beta = max(beta, tn**2 + tn * th + nb)
    beta = max(beta, 1e-30)

    c_needed = {"i": 0.0, "ii": 0.0, "iii": 0.0, "iv": 0.0}
    n = g0.n
    for z in pts:
        t0i = t_norm(g0i, hi, z)
        thi = t_norm(hi, hi, z)
        nb0 = nabla_bar_torsion_norm(hi, z, t_source=g0i, seed=seed, samples=128)
        c_needed["i"] = max(c_needed["i"], t0i**2 / beta)
        c_needed["ii"] = max(c_needed["ii"], t0i * thi / beta)
        c_needed["iii"] = max(c_needed["iii"], nb0 / (beta * (1.0 + beta)))
        rep = hsc_max(hi, z, samples=hsc_samples, seed=seed, torsion_term=False)
        comb = (n + 1) / (2.0 * n) * rep.kappa + \
            nabla_bar_torsion_norm(hi, z, seed=seed, samples=128)
        c_needed["iv"] = max(c_needed["iv"],
                             (comb - kappa0) / (beta * (1.0 + beta)))
    c_cal = max(c_needed.values())
    report = _report("conformal-completion", 0.0 if np.isfinite(c_cal) else -1.0,
                     ("rho_i", spec.rho_i), 0.0, len(pts),
                     beta_measured=beta, c_calibrated=c_cal,
                     c_per_bound=c_needed)
    return g0i, hi, report
