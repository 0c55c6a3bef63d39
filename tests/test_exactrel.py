import hashlib

import numpy as np
import pytest

from thermoex import algebra as alg
from thermoex import exactrel as er
from thermoex.tensor4 import (I2, I4, RPERP, T4, DomainError, KTensor,
                              block_parts, block_is_pd, det2, kt_to_block)
from conftest import rand_spd, rand_pd_block


def test_gamma0_pinned():
    G = er.gamma0([1.0, 0.0])
    assert np.array_equal(G, np.kron(I2, np.outer([1, 0], [1, 0])))
    assert np.allclose(er.gamma0([3.0, 0.0]), G)      # normal is normalized
    with pytest.raises(ValueError):
        er.gamma0([0.0, 0.0])
    # a stack of normals gives a stack of operators; one zero normal in it
    # is rejected like a single one
    Gs = er.gamma0([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    assert Gs.shape == (3, 4, 4)
    assert np.allclose(Gs[1], np.kron(I2, np.diag([0.0, 1.0])))
    assert np.allclose(Gs[2], np.kron(I2, np.outer([0.6, 0.8], [0.6, 0.8])))
    with pytest.raises(ValueError):
        er.gamma0([[1.0, 0.0], [0.0, 0.0]])


def test_gamma0_span(rng):
    """Differences Gamma0(n) - Gamma0(e1) stay in the steering span
    {I (x) A : A symmetric trace free}, for single and stacked normals."""
    G1 = er.gamma0([1.0, 0.0])
    basis = [np.kron(I2, A) for A in
             (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))]
    B = np.stack([b.ravel() for b in basis], axis=1)
    D = np.concatenate([er.gamma0(rng.standard_normal(2))[None] - G1,
                        er.gamma0(rng.standard_normal((20, 2))) - G1])
    for d in D:
        resid = d.ravel() - B @ np.linalg.lstsq(B, d.ravel(), rcond=None)[0]
        assert np.linalg.norm(resid) < 1e-12


def key_block(key):
    """The transforms' key operator M = K(key, 0) as a 4x4 block."""
    return kt_to_block(KTensor(key, np.zeros((2, 2))))


def test_key_blocks_pinned():
    for ident in er.ER_IDS:
        spec = er.er_spec(ident)
        assert np.array_equal(spec.key_block, key_block(spec.key))
        assert er.er_spec(ident) is spec              # built once per relation
    assert np.array_equal(key_block(alg.KEY_HALF_I), I4 / 2)


def test_w_transform_pinned():
    k = er.w_transform(I4, key_block(alg.KEY_HALF_I))
    assert k.norm() < 1e-14
    k3 = er.w_transform(3 * I4, key_block(alg.KEY_HALF_I))
    assert np.allclose(kt_to_block(k3), I4)          # 2(L+I)^-1(L-I) at L=3I
    # zero key is a plain shift
    k0 = er.w_transform(3 * I4, key_block(alg.KEY_ZERO))
    assert np.allclose(kt_to_block(k0), 2 * I4)


def test_w_roundtrip(rng):
    for key in (alg.KEY_ZERO, alg.KEY_E11, alg.KEY_E22, alg.KEY_HALF_I):
        M = key_block(key)
        for _ in range(50):
            L = rand_pd_block(rng)
            k = er.w_transform(L, M)
            back = er.w_inverse(k, M)
            assert np.abs(back - L).max() < 1e-10 * (1 + np.abs(L).max())


def test_lm_par_pinned():
    assert np.allclose(er.lm_par(I2, RPERP), I4)
    L, M = er.lm_unpar(I4)
    assert np.allclose(L, I2) and np.allclose(M, RPERP)


def test_lm_roundtrip(rng):
    for _ in range(100):
        L = rand_spd(rng)
        M = rng.standard_normal((2, 2))
        Lt = er.lm_par(L, M)
        L2, M2 = er.lm_unpar(Lt)
        assert np.abs(L - L2).max() < 1e-12 * (1 + np.abs(L).max())
        assert np.abs(M - M2).max() < 1e-10 * (1 + np.abs(M).max())


def test_member_pinned():
    assert er.er_member(22, I4).member          # I (I x Rp) I = I x Rp
    L8 = np.kron(I2, np.diag([2.0, 3.0])) + 1.0 * T4
    assert er.er_member(8, L8).member           # det = 6 > t^2 = 1
    assert er.er_member(13, er.lm_par(I2, RPERP)).member
    # small generic perturbation of the identity leaves relation 17
    rngl = np.random.default_rng(7)
    P = rngl.standard_normal((4, 4))
    assert not er.er_member(17, I4 + 0.05 * (P + P.T)).member


def test_member_17_perturbation_grows_linearly():
    base = I4
    P = np.diag([1.0, -0.5, 0.3, 0.2])
    r1 = er.er_member(17, base + 1e-4 * P).residual
    r2 = er.er_member(17, base + 2e-4 * P).residual
    assert 1.5 < r2 / r1 < 2.5


def test_member_non_pd_flagged():
    bad = np.diag([1.0, 1.0, -1.0, 1.0])
    res = er.er_member(22, bad)
    assert not res.member
    assert dict(res.constraints)["positive_definite"] is False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ident", er.ER_IDS)
def test_member_non_finite_residual_raises(ident):
    """Products that overflow or a NaN entry are a domain error, not a
    non-member with residual nan."""
    for L in (1e160 * (I4 + np.diag([0.1, -0.05, 0.03, 0.02])),
              I4 + np.diag([np.nan, 0.0, 0.0, 0.0])):
        with pytest.raises(DomainError, match="residual"):
            er.er_member(ident, L)
    if ident == 22:
        with pytest.raises(DomainError, match="residual"):
            er.er_member(22, 1e160 * I4)


def test_sample_membership(rng):
    for ident in er.ER_IDS:
        for _ in range(20):
            L = er.er_sample(ident, rng=rng, scale=0.9)
            m = er.er_member(ident, L)
            assert m.member, (ident, m.residual, m.constraints)
            assert block_is_pd(L)


# sha256 prefix of er_sample(ident, seed=100 + ident).tobytes(): a fixed
# seed keeps its sampled tensor bit for bit
SAMPLE_DIGESTS = {
    7: "d7d53fdfdba5b520", 8: "291a58a74c89b949", 9: "cf588993f48bdd90",
    13: "0e1382f409687410", 17: "95eca35e9b3af5da", 19: "c2b9ab626c38d46f",
    20: "1a3510b3828388ad", 21: "b3fb49bba7ac50b2", 22: "e0496349f492c506",
}


@pytest.mark.parametrize("ident", er.ER_IDS)
def test_sample_draw_order(ident):
    """er_sample on a shared rng consumes exactly the draws of a reference
    loop of subspace samples with the same scale shrinks, and returns the
    pinned tensor for a fixed seed."""
    spec = er.er_spec(ident)
    for seed in range(5):
        shared, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for scale in (0.5, 1.0, 4.0):
            L = er.er_sample(ident, rng=shared, scale=scale)
            s = scale
            while True:          # dense inverse transform, eigenvalue PD test
                W = kt_to_block(spec.algebra.sample(ref, s))
                Lr = I4 + W @ np.linalg.inv(I4 - spec.key_block @ W)
                Lr = (Lr + Lr.T) / 2.0
                if np.linalg.eigvalsh(Lr)[0] > 1e-10 * (1.0 + np.abs(Lr).max()):
                    break
                s *= 0.7
            assert np.abs(L - Lr).max() < 1e-12 * (1.0 + np.abs(Lr).max())
            assert shared.uniform() == ref.uniform()
    L = er.er_sample(ident, seed=100 + ident)
    assert hashlib.sha256(L.tobytes()).hexdigest()[:16] == SAMPLE_DIGESTS[ident]


def test_sample_scale_zero():
    assert np.allclose(er.er_sample(22, scale=0.0), I4)


def test_sample_er13_chart(rng):
    for _ in range(20):
        L = er.er_sample(13, rng=rng)
        BL, M = er.lm_unpar(L)
        assert np.abs(M - RPERP).max() < 1e-10
        assert np.linalg.eigvalsh(BL - I2 / 2).min() > 0


def test_predicate_equivalence(rng):
    """Closed forms agree with subspace pullback, both directions."""
    for ident in er.ER_IDS:
        spec = er.er_spec(ident)
        for _ in range(60):
            L = er.er_sample(ident, rng=rng, scale=0.8)
            assert er.er_member(ident, L, tol=1e-8).member
            assert spec.algebra.contains(er.pullback(ident, L), tol=1e-8)
            # perturb off the manifold: both predicates must reject
            P = rng.standard_normal((4, 4))
            L2 = L + 0.03 * (P + P.T)
            m = er.er_member(ident, L2, tol=1e-8)
            inside = spec.algebra.contains(er.pullback(ident, L2), tol=1e-8)
            if block_is_pd(L2):
                assert m.member == inside == False


def test_lm_generators_member(rng):
    """Chart pairs satisfying the per-relation constraints generate members."""
    for _ in range(50):
        L = rand_spd(rng, floor=1.0)
        # relation 21: M free
        M = rng.standard_normal((2, 2))
        Lt = er.lm_par(L, M)
        if block_is_pd(Lt):
            assert er.er_member(21, Lt).member
        # relation 20: det M = 1
        M20 = M / np.sqrt(abs(det2(M)))
        if det2(M20) > 0:
            Lt20 = er.lm_par(L, M20)
            if block_is_pd(Lt20):
                assert er.er_member(20, Lt20).member
        # relation 19: M^2 = -I
        m11, m12 = rng.uniform(-1, 1), rng.uniform(0.2, 1.5)
        M19 = np.array([[m11, m12], [-(1 + m11 ** 2) / m12, -m11]])
        Lt19 = er.lm_par(L, M19)
        if block_is_pd(Lt19):
            assert er.er_member(19, Lt19).member


def test_component_systems(rng):
    """Members satisfy the block systems including the redundant third."""
    for ident, sign in ((22, 1.0), (17, -1.0)):
        for _ in range(30):
            L = er.er_sample(ident, rng=rng, scale=0.7)
            L11, L12, L22 = block_parts(L)
            lhs = L11 / det2(L11)
            rhs = L11 - L12 @ np.linalg.inv(L22) @ L12.T
            assert np.abs(lhs - rhs).max() < 1e-9
            assert abs(det2(L11) + sign * det2(L12) - 1.0) < 1e-9
            assert abs(det2(L22) + sign * det2(L12) - 1.0) < 1e-9


def test_er9_factorization(rng):
    for _ in range(30):
        L = er.er_sample(9, rng=rng, scale=0.8)
        L11, L12, L22 = block_parts(L)
        P = L11
        lam = (L12 * P).sum() / (P * P).sum()
        eta = (L22 * P).sum() / (P * P).sum()
        Lam = np.array([[1.0, lam], [lam, eta]])
        assert abs(det2(Lam) * det2(P) - 1.0) < 1e-10
        assert np.abs(L - np.kron(Lam, P)).max() < 1e-9


def test_covariance(rng):
    L = rand_pd_block(rng)
    assert np.allclose(er.covariance(I2, L), L)
    assert np.allclose(er.covariance(4 * I2, I4), I4 / 4)
    lam = rand_spd(rng)
    nu = 0.2
    iso = np.kron(lam, I2) + nu * T4
    out = er.covariance(lam, iso)
    expect = I4 + nu / np.sqrt(det2(lam)) * T4
    assert np.abs(out - expect).max() < 1e-12


def test_gamma0_idempotent_against_reference(rng):
    """Gamma0(n) L0 Gamma0(n) = Gamma0(n) at the reference L0 = I: each
    Gamma0 is an orthogonal projection, single or stacked."""
    for G in (er.gamma0(rng.standard_normal(2)),
              er.gamma0(rng.standard_normal((20, 2)))):
        assert np.abs(G @ G - G).max() < 1e-12 * (1 + np.abs(G).max())
        assert np.array_equal(G, np.swapaxes(G, -1, -2))
