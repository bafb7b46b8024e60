"""ODE comparison oracle for quantities with (d_t - Delta) Q <= -a Q^2 + b.

The spatially-worst case is the Riccati ODE q' = -a q^2 + b, whose
supremum of t q(t) on (0, T] is claimed bounded by

    bound(a, b, T) = (1 + sqrt(1 + 4 a b T^2)) / (2 a).

`chen_ode_oracle` and `chen_sweep` integrate the ODE through `flow.rk4`,
all cases on one clock s = t/T under the stiffest case's step, so large q0
transients stay stable, and report the bound's slack; the closed Riccati
solution is exposed separately as a cross-check for the integrator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import rk4

_STEPS = 2000      # the least number of steps a run takes


def chen_bound(alpha, beta, T):
    return (1.0 + np.sqrt(1.0 + 4.0 * alpha * beta * T**2)) / (2.0 * alpha)


def riccati_closed_form(alpha, beta, q0, t):
    """Exact solution of q' = -alpha q^2 + beta, q(0) = q0 (forward in time)."""
    t = np.asarray(t, dtype=float)
    if beta == 0.0:
        return q0 / (1.0 + alpha * q0 * t)
    qs = np.sqrt(beta / alpha)
    w = np.sqrt(alpha * beta)
    e = np.exp(-2.0 * w * t)
    num = (q0 + qs) + (q0 - qs) * e
    den = (q0 + qs) - (q0 - qs) * e
    return qs * num / den


def _integrate_tq_sup(alpha, beta, T, q0):
    """sup over accepted steps of t*q per case: dq/ds = T (beta - alpha q^2)
    by `flow.rk4`, the step at most 1/_STEPS and 0.2 / (alpha |q| T) (that
    is |2 alpha q| dt <= 0.4) over every case.  Cases need finite alpha > 0,
    beta >= 0, T > 0 and q0 >= 0, so that q stays between q0 and
    sqrt(beta/alpha) and every run ends."""
    alpha, beta, T, q = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float))
          for x in (alpha, beta, T, q0)))
    if not (np.isfinite([alpha, beta, T, q]).all() and (alpha > 0).all()
            and (beta >= 0).all() and (T > 0).all() and (q >= 0).all()):
        raise ValueError("need finite alpha > 0, beta >= 0, T > 0 and q0 >= 0")
    sup = np.zeros_like(q)

    def rhs(s, qq, out):
        np.square(qq, out=out)
        out *= -alpha
        out += beta
        out *= T

    def cfl(s, qq):
        stiff = np.max(alpha * np.maximum(np.abs(qq), 1e-30) * T)
        return min(1.0 / _STEPS, 0.2 / float(stiff))

    rk4(q, 1.0, rhs, cfl, lambda s, qq: np.maximum(sup, s * T * qq, out=sup))
    return sup


@dataclass
class ChenResult:
    alpha: float
    beta: float
    T: float
    q0: float
    sup_tq: float
    bound: float

    @property
    def slack(self):
        return self.bound - self.sup_tq


def chen_ode_oracle(alpha, beta, T, q0) -> ChenResult:
    """Integrate q' = -alpha q^2 + beta and compare sup t q against the bound."""
    sup = float(_integrate_tq_sup(alpha, beta, T, q0)[0])
    return ChenResult(alpha, beta, T, q0, sup, float(chen_bound(alpha, beta, T)))


def chen_sweep(alphas, betas, Ts, q0s):
    """All (alpha, beta, T, q0) combinations at once; returns the worst slack.

    Output: (worst_slack, worst_case_tuple, count).
    """
    A, B, TT, Q = np.meshgrid(alphas, betas, Ts, q0s, indexing="ij")
    A, B, TT, Q = (x.ravel() for x in (A, B, TT, Q))
    sup = _integrate_tq_sup(A, B, TT, Q)
    bound = chen_bound(A, B, TT)
    slack = bound - sup
    i = int(np.argmin(slack))
    return float(slack[i]), (float(A[i]), float(B[i]), float(TT[i]), float(Q[i])), len(A)
