import numpy as np
import pytest

from crflow import metrics as M
from crflow.curvature import (_haar_unitaries, chern_curvature, hsc_max,
                              nabla_bar_torsion_norm, nabla_bar_torsion_tensor,
                              orthonormal_frame)


def test_poincare_hsc():
    rep = hsc_max(M.poincare_disk(), np.array([0.4 + 0.2j]))
    assert rep.kappa == pytest.approx(-2.0, abs=1e-12)
    assert rep.combined == pytest.approx(-2.0, abs=1e-12)


def test_euclidean_hsc_zero():
    rep = hsc_max(M.euclidean(2), np.array([0.1 + 0j, 0.2 + 0j]), samples=256)
    assert abs(rep.kappa) < 1e-14


def test_bergman_hsc_constant_minus_two():
    """Frozen from a 10^4-direction brute-force sweep on the closed-form
    tensor: HSC is constant -2 on the ball."""
    g = M.bergman_ball(2)
    rng = np.random.default_rng(2)
    for _ in range(4):
        z = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.3
        rep = hsc_max(g, z, samples=1024, seed=3)
        assert rep.kappa == pytest.approx(-2.0, abs=1e-9)
        # brute-force confirmation at this point
        pkg = chern_curvature(g, z)
        X = rng.standard_normal((10000, 2)) + 1j * rng.standard_normal((10000, 2))
        num = np.einsum('ijkl,si,sj,sk,sl->s', pkg.curvature,
                        X, np.conj(X), X, np.conj(X)).real
        den = np.einsum('ij,si,sj->s', pkg.metric, X, np.conj(X)).real ** 2
        assert np.max(num / den) == pytest.approx(-2.0, abs=1e-9)


def test_hsc_dominates_every_sampled_direction():
    g = M.conformal_metric(M.torsion_example(), M.radial_quadratic_field(0.2))
    z = np.array([0.3 + 0.3j, -0.2 + 0.1j])
    rep = hsc_max(g, z, samples=512, seed=0)
    pkg = chern_curvature(g, z)
    rng = np.random.default_rng(99)
    X = rng.standard_normal((4000, 2)) + 1j * rng.standard_normal((4000, 2))
    num = np.einsum('ijkl,si,sj,sk,sl->s', pkg.curvature,
                    X, np.conj(X), X, np.conj(X)).real
    den = np.einsum('ij,si,sj->s', pkg.metric, X, np.conj(X)).real ** 2
    assert rep.kappa >= np.max(num / den) - 1e-9


def test_hsc_scaling_invariance():
    """hsc_max(c g) = hsc_max(g)/c."""
    g = M.bergman_ball(2)
    z = np.array([0.15 + 0.22j, -0.1 + 0.3j])
    base = hsc_max(g, z, samples=512, seed=1).kappa
    for c in (0.5, 3.0):
        scaled = hsc_max(M.scaled(g, c), z, samples=512, seed=1).kappa
        assert scaled == pytest.approx(base / c, rel=1e-9)


def test_hsc_deterministic_given_seed():
    g = M.torsion_example()
    z = np.array([0.4 + 0.1j, 0.2 - 0.3j])
    a = hsc_max(g, z, samples=512, seed=7)
    b = hsc_max(g, z, samples=512, seed=7)
    assert a.kappa == b.kappa
    assert np.array_equal(a.maximizer, b.maximizer)


def _hsc_ascent_reference(g, point, samples, ascent_steps=50, seed=0,
                          top_k=8):
    """hsc_max's sampling and ascent as they were written before the ascent
    kept its gradient: the gradient is recomputed at every step, rejected or
    not.  Returns (kappa, maximizer, gradient evaluations)."""
    from crflow.curvature import _gauge_fix, _lex_smaller

    def value(R, G, X):
        num = np.einsum('ijkl,i,j,k,l->', R, X, np.conj(X), X, np.conj(X)).real
        den = np.einsum('ij,i,j->', G, X, np.conj(X)).real ** 2
        return num / den

    def grad_of(R, G, X):
        num = np.einsum('ijkl,i,j,k,l->', R, X, np.conj(X), X, np.conj(X)).real
        nrm = np.einsum('ij,i,j->', G, X, np.conj(X)).real
        dnum = (np.einsum('imkl,i,k,l->m', R, X, X, np.conj(X))
                + np.einsum('ijkm,i,j,k->m', R, X, np.conj(X), X))
        dden = 2.0 * nrm * np.einsum('im,i->m', G, X)
        return (dnum * nrm**2 - num * dden) / nrm**4

    pkg = chern_curvature(g, np.asarray(point, dtype=complex))
    R, G = pkg.curvature, pkg.metric
    n = G.shape[0]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    X /= np.linalg.norm(X, axis=1)[:, None]
    num = np.einsum('ijkl,si,sj,sk,sl->s', R, X, np.conj(X), X, np.conj(X)).real
    den = np.einsum('ij,si,sj->s', G, X, np.conj(X)).real ** 2
    q = num / den
    order = np.argsort(q)[::-1]
    best_val, best_dir, grads = -np.inf, None, 0
    for idx in order[:top_k]:
        Xc = X[idx].copy()
        val = q[idx]
        eta = 0.2
        for _ in range(ascent_steps):
            grad = grad_of(R, G, Xc)
            grads += 1
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            Xn = Xc + eta * grad / gn
            Xn /= np.linalg.norm(Xn)
            vn = value(R, G, Xn)
            if vn > val:
                Xc, val = Xn, vn
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
    return float(best_val), best_dir, grads


HSC_CASES = {
    "bergman": (M.bergman_ball(2), [np.array([0.25 + 0.1j, -0.2 + 0.15j]),
                                    np.array([0.4 + 0j, 0.0 + 0.1j])]),
    "conformal-torsion": (
        M.conformal_metric(M.torsion_example(), M.radial_quadratic_field(0.2)),
        [np.array([0.3 + 0.3j, -0.2 + 0.1j]), np.array([0.1 - 0.2j, 0.3 + 0j])]),
}


@pytest.mark.parametrize("name", sorted(HSC_CASES))
@pytest.mark.parametrize("seed", [0, 3])
def test_hsc_ascent_equals_the_per_step_gradient_loop(name, seed, monkeypatch):
    """Keeping the gradient across rejected steps, and the accepted point's
    numerator and norm, changes neither kappa nor the maximizer in any bit;
    it only evaluates fewer gradients.  (Where HSC is constant, as on the
    Bergman ball, the gradient may vanish at once, and both loops stop.)"""
    import crflow.curvature as CU
    calls = []
    grad = CU._hsc_grad
    monkeypatch.setattr(CU, "_hsc_grad",
                        lambda *a: calls.append(1) or grad(*a))
    g, points = HSC_CASES[name]
    for z in points:
        calls.clear()
        rep = hsc_max(g, z, samples=256, seed=seed)
        kappa, maximizer, grads = _hsc_ascent_reference(g, z, 256, seed=seed)
        assert rep.kappa == kappa
        assert np.array_equal(rep.maximizer, maximizer)
        assert 0 < len(calls) <= grads
        if name == "conformal-torsion":
            assert len(calls) < grads


@pytest.mark.parametrize("name", sorted(HSC_CASES))
def test_hsc_kappa_does_not_depend_on_the_torsion_term(name):
    """The completion asks for kappa alone (torsion_term=False); it is the
    kappa that "auto" reports beside its torsion norm."""
    g, points = HSC_CASES[name]
    for z in points:
        auto = hsc_max(g, z, samples=256, seed=0)
        bare = hsc_max(g, z, samples=256, seed=0, torsion_term=False)
        assert bare.kappa == auto.kappa
        assert np.array_equal(bare.maximizer, auto.maximizer)
        assert bare.nabla_bar_T_norm == 0.0
        if name == "conformal-torsion":
            assert auto.nabla_bar_T_norm > 0.0


def test_orthonormal_frame_convention():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = A @ A.conj().T + 3 * np.eye(3)
    E = orthonormal_frame(H)
    gram = np.einsum('ia,ij,jb->ab', E, H, np.conj(E))
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_nabla_bar_norm_kahler_zero():
    assert nabla_bar_torsion_norm(M.bergman_ball(2),
                                  np.array([0.2 + 0j, 0.1 + 0.1j])) == 0.0


def test_nabla_bar_norm_torsion_example_origin():
    """Frozen from the frame-sweep oracle: at z = 0 the metric is the
    identity, the only nonzero components are +-1, and no unitary frame
    exceeds modulus 1."""
    val = nabla_bar_torsion_norm(M.torsion_example(),
                                 np.zeros(2, dtype=complex), samples=256, seed=0)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_nabla_bar_norm_monotone_in_samples():
    g = M.conformal_metric(M.torsion_example(), M.radial_quadratic_field(0.15))
    z = np.array([0.35 + 0.2j, -0.25 + 0.3j])
    vals = [nabla_bar_torsion_norm(g, z, samples=k, seed=5, ascent_steps=0)
            for k in (16, 64, 256)]
    assert vals[0] <= vals[1] + 1e-15 <= vals[2] + 2e-15


def test_nabla_bar_norm_conformal_kahler_base():
    """Conformally scaled Kahler h: the torsion is pure conformal and its
    hnabla-bar derivative matches the direct computation on the transformed
    provider (two independent code paths inside the norm)."""
    h = M.conformal_metric(M.euclidean(2), M.radial_quadratic_field(0.3))
    z = np.array([0.3 + 0.1j, 0.2 - 0.2j])
    v = nabla_bar_torsion_norm(h, z, samples=128, seed=0)
    assert v > 0.1  # genuinely non-Kahler
    # scaling the factor scales the norm continuously
    h2 = M.conformal_metric(M.euclidean(2), M.radial_quadratic_field(0.15))
    v2 = nabla_bar_torsion_norm(h2, z, samples=128, seed=0)
    assert v2 < v


# ---------------------------------------------------------------------------
# the batched frame sweep of nabla_bar_torsion_norm against sequential loops
# ---------------------------------------------------------------------------

def _haar_sequential(n, count, seed):
    """One sample at a time: the real block, the imaginary block, QR, phase."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, Rm = np.linalg.qr(A)
        out.append(Q * (np.diag(Rm) / np.abs(np.diag(Rm))))
    return out


def _sweep_sequential(h, t_source, z, samples, seed):
    """The frame sweep one frame at a time, without the ascent: the
    identity frame, then each sample that scores strictly higher than the
    best so far."""
    z = np.asarray(z, dtype=complex)
    W = nabla_bar_torsion_tensor(t_source, h, z)
    E = orthonormal_frame(h.matrix(z))

    def frame_max(U):
        F = E @ U
        comp = np.einsum('ma,pb,qc,rd,mpqr->abcd',
                         np.conj(F), F, F, np.conj(F), W)
        return float(np.max(np.abs(comp)))

    best = frame_max(np.eye(len(z)))
    for U in _haar_sequential(len(z), samples, seed):
        v = frame_max(U)
        if v > best:
            best = v
    return best


@pytest.mark.parametrize("n", [2, 3])
def test_haar_stack_is_the_sequential_stream(n):
    S = 64
    stack = _haar_unitaries(n, S, 11)
    assert stack.shape == (S, n, n)
    assert np.array_equal(stack, np.array(_haar_sequential(n, S, 11)))
    eye = np.eye(n)
    assert np.abs(stack @ stack.conj().transpose(0, 2, 1) - eye).max() < 1e-12
    assert np.abs(stack.conj().transpose(0, 2, 1) @ stack - eye).max() < 1e-12
    for k in (0, 1, 7, 63):
        assert np.array_equal(_haar_unitaries(n, k, 11), stack[:k])


def _conformal_torsion():
    return M.conformal_metric(M.torsion_example(),
                              M.radial_quadratic_field(0.15))


def _conformal_flat():
    return M.conformal_metric(M.euclidean(2), M.radial_quadratic_field(0.15))


# (frame metric h, torsion source, point).  On the first two the identity
# frame is the best, so a sample never replaces it; the conformal completion's
# pair has a best frame that the samples approach from below; on a conformally
# flat metric every frame scores the same up to rounding, so the winner is
# decided in the last bits.
SWEEP_CASES = {
    "torsion-example": (M.torsion_example, M.torsion_example,
                        [0.35 + 0.1j, -0.2 + 0.25j]),
    "conformal-torsion": (_conformal_torsion, _conformal_torsion,
                          [0.35 + 0.2j, -0.25 + 0.3j]),
    "completion-pair": (lambda: M.euclidean(2), _conformal_flat,
                        [0.35 + 0.2j, -0.25 + 0.3j]),
    "conformally-flat-ties": (_conformal_flat, _conformal_flat,
                              [0.1 + 0.3j, 0.2 - 0.1j]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_batched_sweep_equals_the_sequential_sweep(name):
    make_h, make_t, z = SWEEP_CASES[name]
    h, t_source = make_h(), make_t()
    for seed in (0, 1, 5):
        for samples in (1, 16, 128, 512):
            got = nabla_bar_torsion_norm(h, z, t_source=t_source,
                                         samples=samples, seed=seed,
                                         ascent_steps=0)
            assert got == _sweep_sequential(h, t_source, z, samples, seed), \
                (seed, samples)


def test_nabla_bar_norm_full_call_is_pinned():
    """The default sweep and ascent, frozen from the one-frame-at-a-time
    sweep."""
    assert nabla_bar_torsion_norm(M.torsion_example(),
                                  [0.35 + 0.1j, -0.2 + 0.25j],
                                  seed=0) == 0.7796928984596192


@pytest.mark.parametrize("samples", [0, 1])
def test_nabla_bar_norm_without_samples_scores_the_identity_frame(samples):
    """At z = (0.3, 0.2i) the first sample of seed 0 does not beat the
    identity frame, so `samples` 0 (no batch) and 1 hand the ascent the same
    frame and return the same value."""
    assert nabla_bar_torsion_norm(M.torsion_example(), [0.3, 0.2j],
                                  samples=samples,
                                  seed=0) == 0.8416799932665601
