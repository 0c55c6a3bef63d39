import numpy as np
import pytest

from thermoex.materials import (Material, canon_from_physical,
                                physical_from_canon, figure_of_merit,
                                zt_isotropic)
from thermoex.tensor4 import (I2, I4, DomainError, block_from_parts, block_parts,
                              block_inverse, block_is_pd, check_block, inv2,
                              rotate_block)
from conftest import rand_spd, rand_pd_block


def rand_material(rng):
    return Material(sigma=rand_spd(rng), seebeck=0.3 * rng.standard_normal((2, 2)),
                    kappa=rand_spd(rng), T0=rng.uniform(100, 600))


def test_canon_identity_material():
    m = Material(sigma=I2, seebeck=np.zeros((2, 2)), kappa=I2, T0=1.0)
    assert np.allclose(canon_from_physical(m), I4)


def test_roundtrip(rng):
    for _ in range(300):
        m = rand_material(rng)
        L = canon_from_physical(m)
        back = physical_from_canon(L, m.T0)
        scale = 1 + np.abs(m.sigma).max() + np.abs(m.kappa).max()
        assert np.abs(back.sigma - m.sigma).max() < 1e-12 * scale
        assert np.abs(back.seebeck - m.seebeck).max() < 1e-12
        assert np.abs(back.kappa - m.kappa).max() < 1e-12 * scale * m.T0


def test_closed_form_inverse(rng):
    """The canonical tensor inverse has a closed block form.

    The off-diagonal block is +S kappa^-1 / T0 (verified against the
    dense inverse; a sign-flipped variant fails by orders of magnitude).
    """
    for _ in range(50):
        m = rand_material(rng)
        s, S, k, T0 = m.sigma, m.seebeck, m.kappa, m.T0
        L = canon_from_physical(m)
        si, ki = np.linalg.inv(s), np.linalg.inv(k)
        expect = np.block([[si + T0 * S @ ki @ S.T, S @ ki],
                           [ki @ S.T, ki / T0]]) / T0
        tol = 1e-12 * np.linalg.cond(L) * (1 + np.abs(expect).max())
        assert np.abs(block_inverse(L) - expect).max() < tol


def test_inverse_offdiagonal_sign():
    m = Material(sigma=np.array([[2.0, 0.3], [0.3, 1.5]]),
                 seebeck=np.array([[0.2, -0.1], [0.05, 0.3]]),
                 kappa=np.array([[1.2, 0.1], [0.1, 0.9]]), T0=5.0)
    L = canon_from_physical(m)
    ki = np.linalg.inv(m.kappa)
    off = block_parts(block_inverse(L))[1]
    assert np.abs(off - m.seebeck @ ki / m.T0).max() < 1e-12
    assert np.abs(off + m.seebeck @ ki / m.T0).max() > 1e-3


def test_seebeck_direct():
    L = np.block([[I2, -I2], [-I2, 3 * I2]])
    m = physical_from_canon(L, 1.0)
    assert np.allclose(m.seebeck, I2)


def test_physical_from_canon_checks_T0(rng):
    """T0 is checked before 1/T0: a non-finite one raises ValueError and one
    at or below 0 DomainError, as Material does; a valid T0 gives the
    Material of b0 L11, -b0 L11^-1 L12 and b0^2 (L22 - L12^T L11^-1 L12),
    b0 = 1/T0, bit for bit."""
    L = canon_from_physical(rand_material(rng))
    for T0 in (0.0, -300.0):
        with pytest.raises(DomainError, match="T0 must be positive"):
            physical_from_canon(L, T0)
    for T0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="T0 must be finite"):
            physical_from_canon(L, T0)
    L11, L12, L22 = block_parts(check_block(L))
    for T0 in (300, 1e-3, 250.5):
        m, b0 = physical_from_canon(L, T0), 1.0 / T0
        ref = Material(b0 * L11, -b0 * inv2(L11) @ L12,
                       b0 ** 2 * (L22 - L12.T @ inv2(L11) @ L12), T0)
        assert m.T0 == T0
        for k in ("sigma", "seebeck", "kappa"):
            assert np.array_equal(getattr(m, k), getattr(ref, k)), (T0, k)


def test_pd_iff_invariants(rng):
    for _ in range(100):
        m = rand_material(rng)
        assert block_is_pd(canon_from_physical(m))
    with pytest.raises(ValueError):
        Material(sigma=-I2, seebeck=np.zeros((2, 2)), kappa=I2, T0=1.0)
    # a symmetric non-PD block tensor is rejected on the way back
    bad = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        physical_from_canon(bad, 1.0)


def test_zt_pinned():
    lam = np.array([[2.0, 1.0], [1.0, 2.0]])
    L = np.kron(lam, I2)
    assert abs(figure_of_merit(L) - 1.0 / 3.0) < 1e-12
    assert abs(zt_isotropic(lam) - 1.0 / 3.0) < 1e-15
    assert figure_of_merit(np.diag([1.0, 1.0, 2.0, 2.0])) == 0.0


def test_zt_isotropic_domain():
    """lam must be symmetric positive definite: an indefinite or zero lam is
    a DomainError (it gave -4/3 and NaN), and an asymmetric one, of which
    only lam[0, 1] was read, a ValueError."""
    for lam in ([[1.0, 2.0], [2.0, 1.0]], np.zeros((2, 2))):
        with pytest.raises(DomainError):
            zt_isotropic(lam)
    with pytest.raises(ValueError, match="symmetric"):
        zt_isotropic([[2.0, 1.0], [0.5, 2.0]])


def test_zt_eig_oracle(rng):
    for _ in range(200):
        L = rand_pd_block(rng)
        L11, L12, L22 = block_parts(L)
        M = np.linalg.inv(L22) @ L12.T @ np.linalg.inv(L11) @ L12
        lam = np.linalg.eigvals(M).real.max()
        zt = figure_of_merit(L)
        assert abs(zt - lam / (1 - lam)) < 1e-9 * (1 + zt)


def test_zt_at_a_near_double_eigenvalue():
    """L11 = L22 = I and L12 = diag(sqrt l, sqrt(l (1 + 1e-9))), rotated: M has
    the eigenvalues l and l (1 + 1e-9), so ZT is known.  tr/2 + sqrt(tr^2/4 -
    det) cancels there and keeps only about sqrt(eps) of the larger one."""
    for l in (0.05, 0.3, 0.6):
        lam = l * (1.0 + 1e-9)
        want = lam / (1.0 - lam)
        L12 = np.diag([np.sqrt(l), np.sqrt(lam)])
        for th in np.linspace(0.1, 3.0, 7):
            L = rotate_block(th, block_from_parts(I2, L12, I2))
            assert abs(figure_of_merit(L) - want) <= 1e-14 * want, (l, th)


def test_zt_blowup():
    # lam = 1 - 1e-6 gives ZT within 1e-3 relative of 1e6 - 1
    lam = 1.0 - 1e-6
    L = np.block([[I2, np.sqrt(lam) * I2], [np.sqrt(lam) * I2, I2]])
    zt = figure_of_merit(L)
    assert abs(zt - (1e6 - 1)) < 1e-3 * 1e6


def test_zt_rotation_invariance(rng):
    """To a few eps of ZT times the condition number of L: the rotated block
    carries rounding of order eps |L|."""
    for _ in range(200):
        L = rand_pd_block(rng)
        th = rng.uniform(0, np.pi)
        zt = figure_of_merit(L)
        assert abs(zt - figure_of_merit(rotate_block(th, L))) \
            <= 4.0 * np.finfo(float).eps * np.linalg.cond(L) * zt
