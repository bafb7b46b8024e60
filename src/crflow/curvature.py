"""Pointwise Chern geometry: connection, torsion, curvature, HSC, torsion norms.

Index conventions (arrays):
    G[i, j]          = g_{i jbar}
    Gu[i, j]         = g^{i jbar}            (= inv(G).T)
    D1[a, i, j]      = d_a g_{i jbar}
    D2[a, b, i, j]   = d_a dbar_b g_{i jbar}
    Gamma[k, i, j]   = Gamma^k_{ij} = g^{k lbar} d_i g_{j lbar}
    T[i, j, l]       = T_{i j lbar} = d_i g_{j lbar} - d_j g_{i lbar}
    R[i, j, k, l]    = R_{i jbar k lbar}
                     = -D2[i,j,k,l] + g^{q pbar} D1[i,k,p] conj(D1)[j,l,q]

The Kahler identity, in the conjugate-torsion convention
T_{jbar lbar k} = conj(T_{j l kbar}), reads

    R_{i jbar k lbar} = R_{i lbar k jbar} - nabla_i T_{jbar lbar k},

consistent with the swap rules used by the trace evolution; the residual of
this identity is the operation `kahler_identity_residual`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import MetricProvider, inverse_up


# ---------------------------------------------------------------------------
# raw tensors
# ---------------------------------------------------------------------------

def connection_from(G, D1):
    Gu = inverse_up(G)
    return np.einsum('kl,ijl->kij', Gu, D1)


def torsion_from(D1):
    return D1 - D1.transpose(1, 0, 2)


def torsion_mixed_from(G, T):
    Gu = inverse_up(G)
    return np.einsum('kl,ijl->kij', Gu, T)


def curvature_from(G, D1, D2):
    Gu = inverse_up(G)
    return -D2 + np.einsum('qp,ikp,jlq->ijkl', Gu, D1, np.conj(D1))


def ricci_from(G, D1, D2):
    """Chern-Ricci R_{i jbar} = -d_i dbar_j log det g, from log-det calculus."""
    n = G.shape[0]
    Gi = np.linalg.inv(G)
    Ric = np.zeros((n, n), dtype=complex)
    for i in range(n):
        Ai = D1[i]
        for j in range(n):
            Bj = np.conj(D1[j]).T          # dbar_j G
            Ric[i, j] = -np.trace(Gi @ D2[i, j]) + np.trace(Gi @ Ai @ Gi @ Bj)
    return Ric


def scalar_from(G, Ric):
    Gu = inverse_up(G)
    s = np.einsum('ij,ij->', Gu, Ric)
    return float(s.real)


@dataclass
class CurvaturePackage:
    point: np.ndarray
    metric: np.ndarray
    connection: np.ndarray
    torsion_lower: np.ndarray
    torsion_mixed: np.ndarray
    curvature: np.ndarray
    ricci: np.ndarray
    scalar: float


def chern_connection(g: MetricProvider, point):
    point = np.asarray(point, dtype=complex)
    g.require_order(1, "chern_connection")
    G = g.matrix(point)
    D1 = g.d1(point)
    return connection_from(G, D1)


def torsion(g: MetricProvider, point):
    point = np.asarray(point, dtype=complex)
    g.require_order(1, "torsion")
    G = g.matrix(point)
    D1 = g.d1(point)
    T = torsion_from(D1)
    return T, torsion_mixed_from(G, T)


def chern_curvature(g: MetricProvider, point) -> CurvaturePackage:
    point = np.asarray(point, dtype=complex)
    g.require_order(2, "chern_curvature")
    G = g.matrix(point)
    D1 = g.d1(point)
    D2 = g.d2(point)
    T = torsion_from(D1)
    Ric = ricci_from(G, D1, D2)
    return CurvaturePackage(
        point=point,
        metric=G,
        connection=connection_from(G, D1),
        torsion_lower=T,
        torsion_mixed=torsion_mixed_from(G, T),
        curvature=curvature_from(G, D1, D2),
        ricci=Ric,
        scalar=scalar_from(G, Ric),
    )


def kahler_identity_residual(g: MetricProvider, point) -> float:
    """Max-norm residual of R_{ij.k l.} = R_{il.k j.} - nabla_i T_{j.l.k}."""
    point = np.asarray(point, dtype=complex)
    g.require_order(3, "kahler_identity_residual")
    G = g.matrix(point)
    D1 = g.d1(point)
    D2 = g.d2(point)
    R = curvature_from(G, D1, D2)
    Gam = connection_from(G, D1)
    # X[j, l, k] = T_{jbar lbar k} = dbar_j g_{k lbar} - dbar_l g_{k jbar}
    DB = np.conj(D1)                     # DB[j, l, k] = dbar_j g_{k lbar}
    X = DB - DB.transpose(1, 0, 2)
    # nabla_i X[j, l, k] = (D2[i,j,k,l] - D2[i,l,k,j]) - Gamma^m_{ik} X[j,l,m],
    # assembled as arrays indexed [i, j, k, l]
    cov = (D2 - np.einsum('ilkj->ijkl', D2)
           - np.einsum('mik,jlm->ijkl', Gam, X))
    swap = np.einsum('ilkj->ijkl', R)    # R_{i lbar k jbar}
    resid = R - swap + cov
    return float(np.max(np.abs(resid)))


# ---------------------------------------------------------------------------
# holomorphic sectional curvature
# ---------------------------------------------------------------------------

@dataclass
class HscReport:
    point: np.ndarray
    kappa: float
    maximizer: np.ndarray
    nabla_bar_T_norm: float
    combined: float
    samples: int


def _hsc_terms(R, G, X):
    """R(X, Xbar, X, Xbar) and |X|^2_g: HSC(X) is num / nrm**2."""
    num = np.einsum('ijkl,i,j,k,l->', R, X, np.conj(X), X, np.conj(X)).real
    nrm = np.einsum('ij,i,j->', G, X, np.conj(X)).real
    return num, nrm


def _hsc_grad(R, G, X, num, nrm):
    """Wirtinger gradient d(HSC)/dXbar, given X's `_hsc_terms`."""
    dnum = (np.einsum('imkl,i,k,l->m', R, X, X, np.conj(X))
            + np.einsum('ijkm,i,j,k->m', R, X, np.conj(X), X))
    dden = 2.0 * nrm * np.einsum('im,i->m', G, X)
    return (dnum * nrm**2 - num * dden) / nrm**4


def _gauge_fix(X):
    """Rotate phase so the first nonzero entry is real positive; unit norm."""
    X = X / np.linalg.norm(X)
    for v in X:
        if abs(v) > 1e-13:
            X = X * (np.conj(v) / abs(v))
            break
    return X


def _lex_smaller(a, b, tol=1e-12):
    ka = np.concatenate([a.real, a.imag])
    kb = np.concatenate([b.real, b.imag])
    for x, y in zip(ka, kb):
        if x < y - tol:
            return True
        if x > y + tol:
            return False
    return False


def hsc_max(g: MetricProvider, point, samples=2048, ascent_steps=50,
            seed=0, top_k=8, torsion_term="auto") -> HscReport:
    """kappa = max over directions of R(X, Xbar, X, Xbar)/|X|^4.

    Quasi-uniform sphere sampling with a fixed seed, then projected gradient
    ascent from the best candidates.  A rejected step leaves the direction
    where it was, so the ascent keeps its gradient until a step is accepted,
    and takes the accepted point's numerator and norm from the evaluation
    that accepted it.  Deterministic given the seed; ties within 1e-12
    resolve to the lexicographically smallest gauge-fixed direction.

    The report's ``nabla_bar_T_norm``/``combined`` fields are filled from the
    frame sweep when ``torsion_term`` is "auto" (the metric's declared
    derivative depth permitting; exactly 0 for Kahler metrics) or forced
    with True.
    """
    point = np.asarray(point, dtype=complex)
    kap, best_dir, used = _hsc_kappa(g, point, samples, ascent_steps, seed, top_k)
    nb = 0.0
    if torsion_term is True or (torsion_term == "auto" and g.max_order >= 3):
        T = torsion_from(g.d1(point))
        if np.max(np.abs(T)) > 1e-13:
            nb = nabla_bar_torsion_norm(g, point, seed=seed)
    n = g.n
    combined = (n + 1) / (2.0 * n) * kap + nb
    return HscReport(point, kap, best_dir, nb, combined, used)


def _hsc_kappa(g, point, samples, ascent_steps, seed, top_k):
    pkg = chern_curvature(g, point)
    R, G = pkg.curvature, pkg.metric
    n = G.shape[0]

    if n == 1:
        kap = float((R[0, 0, 0, 0] / G[0, 0] ** 2).real)
        return kap, np.array([1.0 + 0j]), 1

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    X /= np.linalg.norm(X, axis=1)[:, None]
    num = np.einsum('ijkl,si,sj,sk,sl->s', R, X, np.conj(X), X, np.conj(X)).real
    den = np.einsum('ij,si,sj->s', G, X, np.conj(X)).real ** 2
    q = num / den

    order = np.argsort(q)[::-1]
    best_val, best_dir = -np.inf, None
    for idx in order[:top_k]:
        Xc = X[idx].copy()
        val = q[idx]
        terms = _hsc_terms(R, G, Xc)
        grad = None           # the gradient at Xc, kept until Xc moves
        eta = 0.2
        for _ in range(ascent_steps):
            if grad is None:
                grad = _hsc_grad(R, G, Xc, *terms)
                gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            Xn = Xc + eta * grad / gn
            Xn /= np.linalg.norm(Xn)
            terms_n = _hsc_terms(R, G, Xn)
            vn = terms_n[0] / terms_n[1]**2
            if vn > val:
                Xc, val, terms, grad = Xn, vn, terms_n, None
                eta *= 1.2
            else:
                eta *= 0.5
                if eta < 1e-10:
                    break
        Xc = _gauge_fix(Xc)
        if val > best_val + 1e-12:
            best_val, best_dir = val, Xc
        elif abs(val - best_val) <= 1e-12 and _lex_smaller(Xc, best_dir):
            best_dir = Xc
    return float(best_val), best_dir, samples


# ---------------------------------------------------------------------------
# nabla-bar torsion norm over unitary frames
# ---------------------------------------------------------------------------

def orthonormal_frame(H):
    """Columns f_a with h(f_a, f_b) = f_a^i h_{i jbar} conj(f_b^j) = delta_ab.

    With H = C C^H (Cholesky), E = C^{-T} works: (C^T E)^T conj(C^T E) = I.
    """
    C = np.linalg.cholesky(H)
    return np.linalg.inv(C).T


def nabla_bar_torsion_tensor(t_source: MetricProvider, frame_metric: MetricProvider,
                             point):
    """W[a, j, l, k] = hnabla_abar (T_src)_{j l kbar} in coordinates.

    hnabla is the Chern connection of `frame_metric`; only the barred index k
    picks up a correction under an anti-holomorphic derivative:

        hnabla_abar T_{j l kbar} = dbar_a T_{j l kbar}
                                   - conj(hGamma^m_{ak}) T_{j l mbar}
    """
    point = np.asarray(point, dtype=complex)
    t_source.require_order(3, "nabla_bar_torsion_norm")
    frame_metric.require_order(1, "nabla_bar_torsion_norm (frame connection)")
    D1 = t_source.d1(point)
    D2 = t_source.d2(point)
    T = torsion_from(D1)
    GamH = connection_from(frame_metric.matrix(point), frame_metric.d1(point))
    # dbar_a T_{j l kbar} = dbar_a d_j g_{l kbar} - dbar_a d_l g_{j kbar}
    #                     = D2[j, a, l, k] - D2[l, a, j, k]
    dbT = D2.transpose(1, 0, 2, 3)
    dbarT = dbT - dbT.transpose(0, 2, 1, 3)
    return dbarT - np.einsum('mak,jlm->ajlk', np.conj(GamH), T)


def _haar_unitaries(n, count, seed):
    """The first `count` unitaries of the seeded Haar stream, as one stack.

    Sample s is the QR factor Q of A_s = X_s + iY_s, phase-fixed to
    Q diag(R)/|diag(R)|; X_s and then Y_s are the next two standard normal
    (n, n) blocks of `default_rng(seed)`.  The stack has shape (count, n, n),
    and its first k samples are the draw for count k.
    """
    A = np.random.default_rng(seed).standard_normal((count, 2, n, n))
    Q, Rm = np.linalg.qr(A[:, 0] + 1j * A[:, 1])
    d = np.diagonal(Rm, axis1=1, axis2=2)
    return Q * (d / np.abs(d))[:, None, :]


def nabla_bar_torsion_norm(h: MetricProvider, point, *, t_source=None,
                           samples=512, seed=0, ascent_steps=50) -> float:
    """max over unitary frames of h of |hnabla_ibar T_{j l kbar}| components.

    Components in a frame E.U (E an h-orthonormal frame from Cholesky, U a
    unitary): full multilinear transport of W.  The identity frame is scored
    first.  The first `samples` unitaries of the seeded stream of
    `_haar_unitaries` (sample s takes its real block, then its imaginary
    block) are then drawn, factored and scored as one batch; the first
    highest-scoring sample replaces the identity frame only if it scores
    strictly higher, as a sequential sweep would pick it.  So the result is
    deterministic and non-decreasing in `samples`.  A perturbation-based
    local ascent then polishes the best frame, one step at a time.
    """
    point = np.asarray(point, dtype=complex)
    t_source = t_source or h
    W = nabla_bar_torsion_tensor(t_source, h, point)
    if np.max(np.abs(W)) < 1e-15:
        return 0.0
    H = h.matrix(point)
    E = orthonormal_frame(H)
    n = H.shape[0]

    def frame_max(U):
        F = E @ U
        comp = np.einsum('ma,pb,qc,rd,mpqr->abcd',
                         np.conj(F), F, F, np.conj(F), W)
        return float(np.max(np.abs(comp)))

    best, best_U = frame_max(np.eye(n)), np.eye(n, dtype=complex)
    if samples > 0:
        stack = _haar_unitaries(n, samples, seed)
        F = E @ stack
        comp = np.einsum('sma,spb,sqc,srd,mpqr->sabcd',
                         np.conj(F), F, F, np.conj(F), W, optimize=True)
        scores = np.abs(comp).reshape(samples, -1).max(1)
        # The batch sums in another order than frame_max, so a score may be
        # off in its last bits.  A component sums n^4 terms whose moduli add
        # up to at most `bound`, so each contraction is within a quarter of
        # `slack` of the exact value: the samples that frame_max could rank
        # first all lie within `slack` of the top score, and frame_max
        # rescores them in order.  Off a tie this is the top sample alone.
        bound = np.max(np.abs(W)) * n**2 * np.linalg.norm(E, 2) ** 4
        slack = 16 * (n**4 + 8) * np.finfo(float).eps * bound
        for s in np.flatnonzero(scores >= scores.max() - slack):
            v = frame_max(stack[s])
            if v > best:
                best, best_U = v, stack[s]

    rng = np.random.default_rng(seed + 1)
    scale = 0.2
    for _ in range(ascent_steps):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        S = (A - A.conj().T) / 2.0
        U = best_U @ _cayley(scale * S)
        v = frame_max(U)
        if v > best:
            best, best_U = v, U
            scale *= 1.1
        else:
            scale *= 0.7
            if scale < 1e-8:
                break
    return best


def _cayley(S):
    n = S.shape[0]
    eye = np.eye(n)
    return np.linalg.solve(eye - S / 2.0, eye + S / 2.0)


def frame_tensor_norm_sq(T, H):
    """|T|_h^2 for T_{i j kbar}: sum of |components|^2 in an h-orthonormal frame."""
    E = orthonormal_frame(H)
    comp = np.einsum('ia,jb,kc,ijk->abc', E, E, np.conj(E), T)
    return float(np.sum(np.abs(comp) ** 2))
