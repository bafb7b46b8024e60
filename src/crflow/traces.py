"""Trace quantity Lambda = tr_g h: evolution terms, heat residual, Royden check.

Along d_t g = -Ric(g), with h a fixed Hermitian metric, Lambda = g^{i jbar}
h_{i jbar} satisfies

    (d_t - Delta) Lambda = (I) + (II) + (III)

with Psi^k_{ij} = hGamma^k_{ij} - Gamma^k_{ij} (h-connection minus
g-connection), T0 the torsion of g (invariant along the flow), hatT the
torsion of h, and

    (I)   = - h_{k lbar} g^{i jbar} g^{p qbar} Psi^k_{pi} conj(Psi^l_{qj})
            + 2 Re< C, Psi >                       with
    C^k_{pi} = - g^{s rbar} h^{k abar} h_{p rbar} (T0)_{s i abar},
    (II)  = conversion remainder + h-covariant torsion derivatives
            (the exact terms produced by rewriting the g-connection
            derivatives of T0 through the h-connection; see `_terms`),
    (III) = g^{i jbar} g^{p qbar} hatR_{p qbar i jbar}.

The grouping matches the Cauchy-Schwarz completion, so

    (I) <= h_{k lbar} g^{i jbar} g^{p qbar} C^k_{pi} conj(C^l_{qj})

holds identically (quadratic-form completion); that bound is reported as
`term_I_bound`.

The heat residual pairs this algebra against two *independent* routes:
d_t Lambda from the supplied time derivative (exact contraction, or central
differencing of a metric family), and Delta Lambda from finite differences of
the scalar field Lambda(z).  The residual is O(fd_step^order) (+O(dt^2) when
a family is differenced) and must vanish under refinement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .curvature import connection_from, curvature_from, ricci_from, torsion_from
from .errors import PreconditionError
from .metrics import MetricProvider, inverse_up


@dataclass
class TraceDiagnostics:
    point: np.ndarray
    lam: float
    psi_tensor: np.ndarray
    term_I: float
    term_II: float
    term_III: float
    term_IV: float
    term_I_bound: float
    term_IV_bound: float
    dt_lambda: float
    laplacian_lambda: float
    heat_residual: float


def _terms(G, D1g, D2g, H, D1h, D2h):
    """All displayed contractions at one point; returns a dict of reals."""
    Gu, Hu = inverse_up(G), inverse_up(H)
    GamG = connection_from(G, D1g)
    GamH = connection_from(H, D1h)
    Psi = GamH - GamG
    T0 = torsion_from(D1g)
    T0b = np.conj(T0)

    # Psi-quadratic and C-completion pieces
    PP = np.einsum('kl,ij,pq,kpi,lqj->', H, Gu, Gu, Psi, np.conj(Psi))
    C = -np.einsum('sr,ka,pr,sia->kpi', Gu, Hu, H, T0)
    cross = np.einsum('kl,ij,pq,kpi,lqj->', H, Gu, Gu, C, np.conj(Psi))
    CC = np.einsum('kl,ij,pq,kpi,lqj->', H, Gu, Gu, C, np.conj(C))

    # connection-conversion pieces:
    #   A = g g g h Psi^r_{pi} (T0)_{qbar lbar r}
    #   B = g g g h conj(Psi^s_{lq}) (T0)_{p i sbar}   ( = <C, Psi> )
    A = np.einsum('ij,kl,pq,kj,rpi,qlr->', Gu, Gu, Gu, H, Psi, T0b)
    B = np.einsum('ij,kl,pq,kj,slq,pis->', Gu, Gu, Gu, H, np.conj(Psi), T0)

    # h-covariant derivatives of T0:
    #   hnabla_p (T0)_{qbar lbar i} = [D2g[p,q,i,l] - D2g[p,l,i,q]]
    #                                 - hGamma^m_{pi} (T0b)[q,l,m]
    dTb = np.einsum('pqil->pqli', D2g) - np.einsum('pliq->pqli', D2g)
    covTb = dTb - np.einsum('mpi,qlm->pqli', GamH, T0b)
    NB1 = np.einsum('ij,kl,pq,kj,pqli->', Gu, Gu, Gu, H, covTb)
    #   hnabla_lbar (T0)_{p i qbar} = [D2g[p,l,i,q] - D2g[i,l,p,q]]
    #                                 - conj(hGamma^m_{lq}) T0[p,i,m]
    dbT = np.einsum('pliq->lpiq', D2g) - np.einsum('ilpq->lpiq', D2g)
    covT = dbT - np.einsum('mlq,pim->lpiq', np.conj(GamH), T0)
    NB2 = np.einsum('ij,kl,pq,kj,lpiq->', Gu, Gu, Gu, H, covT)

    Rh = curvature_from(H, D1h, D2h)
    III = np.einsum('ij,pq,pqij->', Gu, Gu, Rh)

    term_I = float((-PP + 2.0 * np.real(cross)).real)
    term_II = float((A + B - 2.0 * np.real(cross) + NB1 + NB2).real)
    term_III = float(III.real)
    bound_I = float(CC.real)

    lam = float(np.einsum('ij,ij->', Gu, H).real)
    # d_p Lambda = g^{i jbar} Psi^k_{pi} h_{k jbar}
    dLam = np.einsum('ij,kpi,kj->p', Gu, Psi, H)
    grad_sq = float(np.einsum('pq,p,q->', Gu, dLam, np.conj(dLam)).real)
    term_IV = term_I / lam + grad_sq / lam**2
    # log-trace completion bound, with D^k_{pi} = delta^k_i d_p Lambda / Lambda:
    # <P,D> = <D,D> turns lam*(IV) into -<P-C-D, P-C-D> + <C,C> + 2Re<C,D>,
    # so (IV) <= [<C,C> + 2Re<C,D>]/lam, with lam<C,D> the contraction below.
    ivcross = np.einsum('kj,ij,pq,kpi,q->', H, Gu, Gu, C, np.conj(dLam))
    bound_IV = bound_I / lam + 2.0 / lam**2 * float(np.real(ivcross))

    return {
        "lam": lam, "Psi": Psi, "term_I": term_I, "term_II": term_II,
        "term_III": term_III, "term_IV": term_IV,
        "term_I_bound": bound_I, "term_IV_bound": bound_IV,
    }


def lambda_field(g: MetricProvider, h: MetricProvider):
    def f(z):
        return float(np.einsum('ij,ij->', g.inverse_up(z), h.matrix(z)).real)
    return f


def dt_lambda_exact(g: MetricProvider, h: MetricProvider, point,
                    g_dot: Optional[np.ndarray] = None) -> float:
    """d_t Lambda from the instantaneous metric velocity (default -Ric(g)).

    In matrix form, with B = inv(G) and Gdot the matrix of d_t g_{a bbar},
    d_t Lambda = -tr(B Gdot B H); for Gdot = -Ric this is the contraction
    g^{i qbar} g^{p jbar} h_{i jbar} R_{p qbar}.
    """
    point = np.asarray(point, dtype=complex)
    G = g.matrix(point)
    B = np.linalg.inv(G)
    H = h.matrix(point)
    if g_dot is None:
        g_dot = -ricci_from(G, g.d1(point), g.d2(point))
    val = -np.einsum('ia,ab,bj,ji->', B, np.asarray(g_dot, dtype=complex), B, H)
    return float(val.real)


def trace_and_terms(g: MetricProvider, h: MetricProvider, point, *,
                    g_dot="ricci-flow",
                    g_family: Optional[Callable[[float], MetricProvider]] = None,
                    t: float = 0.0, dt: float = 1e-5,
                    fd_step: float = 1e-3, fd_order: int = 4) -> TraceDiagnostics:
    """Lambda, Psi, terms (I)-(IV) and the independent heat residual at a point.

    `g_dot`: "ricci-flow" uses -Ric(g) (the flow's instantaneous velocity);
    an explicit (n, n) array supplies any evolution.  When `g_family` is given
    (a map t -> MetricProvider), d_t Lambda is computed by central time
    differencing of Lambda across the family instead.
    """
    point = np.asarray(point, dtype=complex)
    g.require_order(3, "trace_and_terms")
    h.require_order(3, "trace_and_terms")
    if g_family is not None:
        g = g_family(t)

    parts = _terms(g.matrix(point), g.d1(point), g.d2(point),
                   h.matrix(point), h.d1(point), h.d2(point))

    if g_family is not None:
        lp = lambda_field(g_family(t + dt), h)(point)
        lm = lambda_field(g_family(t - dt), h)(point)
        dtL = (lp - lm) / (2.0 * dt)
    else:
        vel = None if isinstance(g_dot, str) else np.asarray(g_dot, dtype=complex)
        dtL = dt_lambda_exact(g, h, point, vel)

    lam_f = lambda_field(g, h)
    hess = fd.mixed_hessian_of_scalar(lam_f, point, fd_step, fd_order)
    lap = float(np.einsum('pq,pq->', g.inverse_up(point), hess).real)

    resid = (dtL - lap) - (parts["term_I"] + parts["term_II"] + parts["term_III"])
    return TraceDiagnostics(
        point=point, lam=parts["lam"], psi_tensor=parts["Psi"],
        term_I=parts["term_I"], term_II=parts["term_II"],
        term_III=parts["term_III"], term_IV=parts["term_IV"],
        term_I_bound=parts["term_I_bound"], term_IV_bound=parts["term_IV_bound"],
        dt_lambda=dtL, laplacian_lambda=lap, heat_residual=resid,
    )


# ---------------------------------------------------------------------------
# Royden-type bisectional bound
# ---------------------------------------------------------------------------

def royden_check(g_matrix, h: MetricProvider, point, kappa: float,
                 kappa0: float, nabla_bar_norm: Optional[float] = None,
                 nb_seed: int = 0):
    """lhs, rhs and slack of the bisectional-trace bound at a point.

    lhs = g^{i jbar} g^{k lbar} hatR_{i jbar k lbar}
    rhs = ((n+1)/(2n) kappa + |hnabla_dbar hatT|_h) (tr_g h)^2
          + kappa0/2 [ -(tr_g h)^2/n + g^{i jbar} g^{k lbar} h_{k jbar} h_{i lbar} ]

    `g_matrix` is the pointwise Hermitian metric g (only its value enters);
    kappa must be a valid HSC upper bound for h at the point with
    kappa <= kappa0.
    """
    if kappa > kappa0 + 1e-13:
        raise PreconditionError(
            f"kappa(x)={kappa:.6g} exceeds kappa0={kappa0:.6g}; check skipped")
    point = np.asarray(point, dtype=complex)
    G = np.asarray(g_matrix, dtype=complex)
    n = G.shape[0]
    Gu = inverse_up(G, point)
    H = h.matrix(point)
    Rh = curvature_from(H, h.d1(point), h.d2(point))

    lhs = float(np.einsum('ij,kl,ijkl->', Gu, Gu, Rh).real)
    tr = float(np.einsum('ij,ij->', Gu, H).real)
    hh = float(np.einsum('ij,kl,kj,il->', Gu, Gu, H, H).real)
    if nabla_bar_norm is None:
        from .curvature import nabla_bar_torsion_norm
        T = torsion_from(h.d1(point))
        nabla_bar_norm = 0.0 if np.max(np.abs(T)) < 1e-13 else \
            nabla_bar_torsion_norm(h, point, seed=nb_seed)
    rhs = ((n + 1) / (2.0 * n) * kappa + nabla_bar_norm) * tr**2 \
        + 0.5 * kappa0 * (-tr**2 / n + hh)
    return lhs, rhs, rhs - lhs
