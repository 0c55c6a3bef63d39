import numpy as np
import pytest

from thermoex import tensor4
from thermoex.tensor4 import (I2, I4, RPERP, T4, Z0, Z0SYM, E11, E22, KTensor,
                              phi, psi, cof2, det2, inv2, spd_sqrt_2x2, kt_to_block,
                              kt_from_block, kt_mul, kt_transpose, kt_inverse,
                              block_inverse, congruence, is_positive_definite,
                              rotate, rotate_block, jordan_star, check_block,
                              block_is_pd, pd2, check_spd2, kron2, DomainError)
from conftest import rand_herm, rand_kt, rand_pd_kt, rand_pd_block, rand_sym_c


def test_phi_pinned():
    assert np.allclose(phi(1.0), I2)
    assert np.allclose(phi(1j), RPERP)
    assert np.allclose(phi(2 + 3j), [[2, -3], [3, 2]])


def test_psi_pinned():
    assert np.allclose(psi(1.0), [[1, 0], [0, -1]])
    assert np.allclose(psi(1j), [[0, 1], [1, 0]])
    assert np.allclose(psi(0.0), np.zeros((2, 2)))
    # psi(i) = phi(i) psi(1)
    assert np.allclose(psi(1j), phi(1j) @ psi(1.0))


def test_cof_identity(rng):
    for _ in range(20):
        M = rng.standard_normal((2, 2))
        assert np.allclose(M @ cof2(M).T, det2(M) * I2)


def test_constants():
    assert np.allclose(Z0 @ Z0, 2 * Z0)
    assert np.allclose(Z0SYM @ Z0SYM, np.zeros((2, 2)))
    assert np.allclose(RPERP.T, -RPERP)
    assert np.allclose(T4, np.kron(RPERP, RPERP))
    assert np.allclose(T4 @ T4, I4)


def test_block_form_pinned():
    assert np.allclose(kt_to_block(KTensor(I2, np.zeros((2, 2)))), I4)
    # X = [[0,-i],[i,0]] maps to Rperp (x) Rperp
    assert np.allclose(kt_to_block(KTensor([[0, -1j], [1j, 0]],
                                           np.zeros((2, 2)))), T4)
    B = kt_to_block(KTensor(np.zeros((2, 2)), I2))
    assert np.allclose(B, np.kron(I2, psi(1.0)))


def test_roundtrip(rng):
    for _ in range(2000):
        k = rand_kt(rng)
        back = kt_from_block(kt_to_block(k))
        assert np.abs(back.X - k.X).max() < 1e-14
        assert np.abs(back.Y - k.Y).max() < 1e-14


def test_mul_matches_block_product(rng):
    for _ in range(300):
        a, b = rand_kt(rng), rand_kt(rng)
        lhs = kt_to_block(kt_mul(a, b))
        rhs = kt_to_block(a) @ kt_to_block(b)
        assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(rhs).max())


def test_mul_pinned():
    one = KTensor(I2, np.zeros((2, 2)))
    assert np.allclose(kt_mul(one, one).X, I2)
    z = KTensor(Z0, np.zeros((2, 2)))
    assert np.allclose(kt_mul(z, z).X, 2 * Z0)


def test_transpose(rng):
    k = rand_kt(rng)
    t = kt_transpose(k)
    assert np.abs(t.X - k.X).max() < 1e-14       # Sym fixed point
    assert np.abs(t.Y - k.Y).max() < 1e-14
    for _ in range(50):
        Xg = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Yg = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g = KTensor(Xg, Yg)
        assert np.allclose(kt_to_block(kt_transpose(g)), kt_to_block(g).T)
        h = rand_kt(rng)
        lhs = kt_transpose(kt_mul(g, h))
        rhs = kt_mul(kt_transpose(h), kt_transpose(g))
        assert np.abs(kt_to_block(lhs) - kt_to_block(rhs)).max() < 1e-12


def test_inverse_pinned():
    inv = kt_inverse(KTensor(2 * I2, np.zeros((2, 2))))
    assert np.allclose(inv.X, I2 / 2) and np.allclose(inv.Y, 0)
    inv2_ = kt_inverse(KTensor(2 * I2, I2))
    assert np.allclose(inv2_.X, (2.0 / 3.0) * I2)
    assert np.allclose(inv2_.Y, -(1.0 / 3.0) * I2)


def test_inverse_oracle_and_forms(rng):
    for _ in range(200):
        k = rand_pd_kt(rng)
        inv = kt_inverse(k)
        r = kt_mul(k, inv) - KTensor(I2, np.zeros((2, 2)))
        assert max(np.abs(r.X).max(), np.abs(r.Y).max()) < 1e-12
        # Y-sided Schur complement gives the same Y part
        X, Y = k.X, k.Y
        if abs(det2(Y)) > 1e-3:
            SY = Y.conj() - X.conj() @ inv2(Y) @ X
            assert np.abs(inv.Y - inv2(SY)).max() < 1e-9 * (1 + np.abs(inv.Y).max())


def test_inverse_singular():
    with pytest.raises(np.linalg.LinAlgError):
        kt_inverse(KTensor(np.zeros((2, 2)), np.zeros((2, 2))))
    # X and Y singular, operator u -> 2 Re(u1) e1 singular too
    with pytest.raises(np.linalg.LinAlgError):
        kt_inverse(KTensor(E11, E11))


def test_inverse_regular_with_singular_parts():
    """X and Y both singular, yet the block form is orthogonal."""
    k = KTensor(E11, E22)
    B = kt_to_block(k)
    assert np.linalg.cond(B) < 1.0 + 1e-12
    assert np.abs(kt_to_block(kt_inverse(k)) - B.T).max() < 1e-14


def test_block_inverse(rng):
    assert np.allclose(block_inverse(I4), I4)
    D = np.diag([2.0, 3.0, 4.0, 5.0])
    assert np.allclose(block_inverse(D), np.diag([0.5, 1 / 3, 0.25, 0.2]))
    for _ in range(200):
        B = rand_pd_block(rng)
        assert np.abs(B @ block_inverse(B) - I4).max() < 1e-10


def test_block_inverse_offdiagonal_fallback():
    """Both diagonal blocks vanish, yet the block tensor is regular."""
    Z = np.zeros((2, 2))
    B = np.block([[Z, 2 * I2], [2 * I2, Z]])
    assert np.array_equal(block_inverse(B), np.block([[Z, I2 / 2], [I2 / 2, Z]]))
    with pytest.raises(np.linalg.LinAlgError):
        block_inverse(np.zeros((4, 4)))


def test_congruence_matches_kron(rng):
    """(B (x) I) L (B (x) I)^T bit for bit, on one L and on a stack."""
    for _ in range(20):
        B = rng.standard_normal((2, 2))
        BI = np.kron(B, I2)
        L = rand_pd_block(rng)
        assert congruence(B, L).tobytes() == (BI @ L @ BI.T).tobytes()
        Ls = np.stack([rand_pd_block(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        out = congruence(B, Ls)
        assert out.shape == (2, 3, 4, 4)
        assert out.tobytes() == (BI @ Ls @ BI.T).tobytes()


def test_kron2_matches_np_kron_bit_for_bit(rng):
    """Signed zeros included: -0.0 entries and products of opposite-signed
    zeros land where np.kron puts them."""
    specials = [I2, RPERP, -RPERP, np.array([[0.0, -0.0], [-0.0, 0.0]]),
                np.array([[-1.0, 0.0], [0.0, -2.0]])]
    draws = [rng.standard_normal((2, 2)) for _ in range(200)]
    for a in specials + draws[:100]:
        for b in specials + draws[100:110]:
            got, want = kron2(a, b), np.kron(a, b)
            assert got.tobytes() == want.tobytes()
            assert (np.signbit(got) == np.signbit(want)).all()


def test_i2_kron_matches_the_broadcast_product(rng):
    """The one-gather I2 (x) M behind rotate_block and gamma0 equals np.kron
    and the broadcast product I2[:, None, :, None] * M, signed zeros
    included, for one M and for stacks; so do rotate_block's Rhat and
    gamma0 for angles and normals of every sign."""
    from thermoex.tensor4 import _i2_kron, gamma0, unit_normal

    def broadcast(M):
        return (I2[:, None, :, None] * M[..., None, :, None, :]).reshape(
            M.shape[:-2] + (4, 4))

    specials = np.array([RPERP, -RPERP, [[0.0, -0.0], [-0.0, 0.0]],
                         [[-1.0, 0.0], [0.0, -2.0]]])
    M = np.concatenate([specials, rng.standard_normal((60, 2, 2))])
    for got, want in ((_i2_kron(M.reshape(-1, 4)), broadcast(M)),
                      (_i2_kron(M[5].ravel()), np.kron(I2, M[5])),
                      (_i2_kron(M[2].ravel()), np.kron(I2, M[2]))):
        assert got.tobytes() == want.tobytes()
    th = np.concatenate([[0.0, -0.0, np.pi, -np.pi / 2], rng.uniform(-4, 4, 40)])
    c, s = np.cos(th), np.sin(th)
    Rhat = broadcast(np.stack([c, -s, s, c], -1).reshape(-1, 2, 2))
    B = rng.standard_normal((len(th), 4, 4))
    assert rotate_block(th, B).tobytes() == (Rhat @ B @ np.swapaxes(Rhat, -1, -2)).tobytes()
    n = np.concatenate([[[1.0, 0.0], [-0.0, -1.0], [-3.0, 4.0]],
                        rng.standard_normal((40, 2))])
    u = unit_normal(n)
    assert gamma0(n).tobytes() == broadcast(u[:, :, None] * u[:, None, :]).tobytes()
    assert gamma0(n[2]).tobytes() == broadcast(u[2][:, None] * u[2][None, :]).tobytes()


def test_pd2_beyond_the_float_range_of_the_determinant(rng):
    """max|m| outside [2^-500, 2^500] is tested on m / 4^k: an exact scaling,
    so det2 neither overflows nor underflows and the answer is unchanged."""
    assert pd2(np.array([[1e160, 5e159], [5e159, 2e160]]))
    assert pd2(np.array([[1e-160, 5e-161], [5e-161, 2e-160]]))
    assert not pd2(np.array([[1e160, 2e160], [2e160, 1e160]]))
    assert pd2(np.array([[1e300, 0.0], [0.0, 1e300]]), 1e-12, 1.0 + 1e300)
    assert not pd2(np.full((2, 2), np.nan)) and not pd2(np.zeros((2, 2)))
    for _ in range(500):
        M = rand_herm(rng) + rng.uniform(-1.0, 2.0) * I2
        for m in (M, M.real):
            want = pd2(m)
            for k in (-500, 500):
                assert pd2(np.ldexp(1.0, k) * m) == want
                assert pd2(np.ldexp(1.0, k) * m, 1e-3, np.ldexp(3.0, k)) \
                    == pd2(m, 1e-3, 3.0)


def test_pd_criterion(rng):
    assert is_positive_definite(KTensor(I2, np.zeros((2, 2))))
    assert not is_positive_definite(KTensor(I2, I2))     # boundary S_X = 0
    for _ in range(1000):
        k = rand_kt(rng)
        w = np.linalg.eigvalsh(kt_to_block(k))
        if abs(w.min()) < 1e-6:      # skip the ambiguous band
            continue
        assert is_positive_definite(k) == (w.min() > 0)


def schur_pd(k, tol=1e-12):
    """Reference PD test in (X, Y) form: X > 0 and its Schur complement
    X - Y conj(X)^-1 conj(Y) > 0, cut at tol * (1 + max |X|, |Y|)."""
    X, Y = k.X, k.Y
    s = 1.0 + max(np.abs(X).max(), np.abs(Y).max())
    return pd2(X, tol, s) and pd2(X - Y @ inv2(X.conj()) @ Y.conj(), tol, s)


def test_block_pd_stack_and_bool(rng):
    Bs = np.stack([kt_to_block(KTensor(rand_herm(rng) + c * I2, rand_sym_c(rng)))
                   for c in rng.uniform(0.0, 3.0, 6)]).reshape(2, 3, 4, 4)
    pd = block_is_pd(Bs)
    assert pd.shape == (2, 3) and pd.dtype == bool
    assert 0 < pd.sum() < 6            # both outcomes occur
    for i in np.ndindex(2, 3):
        one = block_is_pd(Bs[i])
        assert type(one) is bool and one == pd[i]
    assert type(block_is_pd(-I4)) is bool and block_is_pd(-I4) is False


def test_block_pd_non_finite():
    nan_pair = I4.copy()
    nan_pair[0, 1] = nan_pair[1, 0] = np.nan
    inf_diag = I4.copy()
    inf_diag[2, 2] = np.inf
    for B in (nan_pair, inf_diag, -inf_diag, np.full((4, 4), np.nan)):
        assert block_is_pd(B) is False
        assert block_is_pd(B, tol=0.0) is False
    stack = block_is_pd(np.stack([nan_pair, I4, inf_diag, 2 * I4]))
    assert stack.tolist() == [False, True, False, True]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_block_pd_huge_entries():
    """A finite block whose B + B^T overflows is tested halved, alone and in
    a stack with an Inf block; testing it again as it was recursed until
    RecursionError."""
    huge = 1.6e308 * I4
    inf_diag = I4.copy()
    inf_diag[2, 2] = np.inf
    assert block_is_pd(huge) is True
    assert block_is_pd(-huge) is False
    assert block_is_pd(np.stack([huge, I4, inf_diag])).tolist() == [True, True, False]


def test_block_pd_matches_schur_form():
    """On 10^4 seeded draws away from the boundary, the eigenvalue test of
    the 4x4 block agrees with the (X, Y) Schur-complement test."""
    rng = np.random.default_rng(0xD0)
    ks = [KTensor(rand_herm(rng) + c * I2, rand_sym_c(rng))
          for c in rng.uniform(0.0, 5.0, 10_000)]
    Bs = np.stack([kt_to_block(k) for k in ks])
    w = np.linalg.eigvalsh(Bs)[:, 0]
    away = np.abs(w) > 1e-6 * (1.0 + np.abs(Bs).max(axis=(1, 2)))
    pd = block_is_pd(Bs)
    assert away.sum() > 9900 and 0.2 < pd.mean() < 0.8
    for k, got, keep in zip(ks, pd, away):
        if keep:
            assert got == schur_pd(k)
    assert block_is_pd(kt_to_block(KTensor(I2, I2))) is False   # boundary S_X = 0


def test_rotate(rng):
    k = rand_kt(rng)
    r = rotate(np.pi / 2, k)
    assert np.allclose(r.X, k.X) and np.allclose(r.Y, -k.Y)
    iso = KTensor(rand_herm(rng), np.zeros((2, 2)))
    riso = rotate(0.7, iso)
    assert np.allclose(riso.X, iso.X) and np.allclose(riso.Y, 0)
    # conjugation oracle: blockdiag(R, R) on the spatial slots
    th = 0.6
    c, s = np.cos(th), np.sin(th)
    R = np.array([[c, -s], [s, c]])
    Rhat = np.kron(I2, R)
    lhs = kt_to_block(rotate(th, k))
    rhs = Rhat @ kt_to_block(k) @ Rhat.T
    assert np.abs(lhs - rhs).max() < 1e-12
    assert np.abs(rotate_block(th, kt_to_block(k)) - rhs).max() < 1e-14
    # group law and periodicity
    a, b = 0.3, 1.1
    two = rotate(a, rotate(b, k))
    one = rotate(a + b, k)
    assert np.abs(two.Y - one.Y).max() < 1e-12
    assert np.abs(rotate(np.pi, k).Y - k.Y).max() < 1e-12


def test_jordan_star(rng):
    one = KTensor(I2, np.zeros((2, 2)))
    ay = KTensor(np.zeros((2, 2)), I2)
    out = jordan_star(one, ay, one)
    assert np.allclose(out.X, 0) and np.allclose(out.Y, I2)
    zero = KTensor(np.zeros((2, 2)), np.zeros((2, 2)))
    out0 = jordan_star(zero, rand_kt(rng), zero)
    assert out0.norm() == 0
    for _ in range(100):
        k1, a, k2 = rand_kt(rng), rand_kt(rng), rand_kt(rng)
        lhs = kt_to_block(jordan_star(k1, a, k2))
        B1, Ba, B2 = map(kt_to_block, (k1, a, k2))
        rhs = (B1 @ Ba @ B2 + B2 @ Ba @ B1) / 2
        assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(rhs).max())


def test_symmetric_constructor():
    KTensor.symmetric(I2 + 1e-12 * np.array([[0, 1j], [0, 0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        KTensor.symmetric([[0, 1], [0, 0]], np.zeros((2, 2)))
    with pytest.raises(ValueError):
        KTensor.symmetric(I2, [[0, 1], [-1, 0]])


def test_symmetric_keeps_x_and_y(rng):
    """KTensor.symmetric checks the block form but keeps X and Y: a Y far
    below eps |X|, which the block would round away, survives bit for bit."""
    for _ in range(20):
        X, Y = rand_herm(rng) + 3.0 * I2, 1e-30 * rand_sym_c(rng)
        k = KTensor.symmetric(X, Y)
        assert k.X.tobytes() == X.tobytes() and k.Y.tobytes() == Y.tobytes()
        assert not np.array_equal(kt_from_block(kt_to_block(KTensor(X, Y))).Y, Y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("which", ["X", "Y"])
def test_symmetric_rejects_non_finite(bad, which):
    """Non-finite entries raise ValueError through check_block, and the
    Inf * 0 of the block conversion warns nothing."""
    XY = {"X": I2.astype(complex), "Y": 0.5 * I2.astype(complex)}
    XY[which][0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        KTensor.symmetric(XY["X"], XY["Y"])


def test_check_block():
    with pytest.raises(ValueError):
        check_block(np.arange(16.0).reshape(4, 4))
    B = np.diag([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(check_block(B), B)


@pytest.mark.parametrize("tiny", [5e-324, -5e-324, -0.0])
def test_validators_symmetrize_without_overflow(tiny):
    """Symmetric entries validate to themselves, bit for bit, with no overflow
    warning: near the float limit, and subnormal or signed-zero ones, which
    halving would round (the validators take B - (B - B^T) / 2)."""
    B = np.diag([1.5e308, 1e308, 1.5e308, 1e308])
    B[0, 1] = B[1, 0] = 1.5e308
    B[2, 3] = B[3, 2] = tiny
    assert check_block(B).tobytes() == B.tobytes()
    X = np.array([[1.5e308, tiny], [tiny, 1e308]]) + 0j
    Y = np.array([[1e307, tiny], [tiny, 3 * tiny]]) + 0j
    k = KTensor.symmetric(X, Y)
    assert k.X.tobytes() == X.tobytes() and k.Y.tobytes() == Y.tobytes()
    for S in ([[1.5e308, 1e308], [1e308, 1.5e308]], [[1.0, tiny], [tiny, 1.0]]):
        S = np.array(S)
        assert check_spd2(S).tobytes() == S.tobytes()


def test_spd_sqrt(rng):
    for _ in range(50):
        A = rng.standard_normal((2, 2))
        S = A @ A.T + 0.3 * I2
        R = spd_sqrt_2x2(S)
        assert np.allclose(R @ R, S)
        assert np.allclose(R, R.T) and np.linalg.eigvalsh(R).min() > 0
    with pytest.raises(ValueError):
        spd_sqrt_2x2(np.array([[1.0, 0.0], [0.0, -1.0]]))
    # the root is taken at unit scale: scaling S by 4^k scales it by 2^k
    # exactly, also where det S overflows or underflows
    for k in (-266, 266):
        assert np.array_equal(spd_sqrt_2x2(np.ldexp(S, 2 * k)),
                              np.ldexp(spd_sqrt_2x2(S), k))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_domain_error_sites():
    """Well-formed input outside the mathematical domain raises DomainError,
    a ValueError, at each site; malformed input raises plain ValueError."""
    from thermoex import laminate, materials, polycrystal, twophase as tp
    assert issubclass(DomainError, ValueError)

    def pair(r1, r2):
        return tp.IsoPhasePair(tp.IsoPhase(I2, r1), tp.IsoPhase(2 * I2, r2), 0.5)

    sites = [
        lambda: check_spd2(-I2), lambda: spd_sqrt_2x2(-I2),
        lambda: tp.IsoPhase(I2, 1.5),                     # r^2 >= det sigma
        lambda: materials.Material(-I2, 0 * I2, I2),
        lambda: materials.Material(I2, 0 * I2, I2, T0=-1.0),
        lambda: materials.canon_from_physical(             # overflow
            materials.Material(I2, 1e200 * I2, I2)),
        lambda: materials.figure_of_merit(-I4),
        lambda: materials.physical_from_canon(-I4, 1.0),
        lambda: tp._pick_a0(2.0, 1.0),                    # no real root
        lambda: tp._pick_a0(9.0, 2.0),                    # root at the pole
        lambda: tp.s_matrices(pair(0.1, 0.2)),            # proportional
        lambda: tp.strong_ab(pair(0.1, 0.1)),
        lambda: laminate.sigma_star_rank1(-1.0, 0.5, (1.0, 0.0)),
        lambda: polycrystal.solve_isotropic(KTensor(-I2, 0 * I2)),
        lambda: polycrystal.special_quartic(0.5, 2.0),
    ]
    for site in sites:
        with pytest.raises(DomainError):
            site()
    for bad in (np.eye(3), [[np.inf, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]):
        with pytest.raises(ValueError) as info:
            check_spd2(bad)
        assert info.type is ValueError


def test_stacked_ktensor_ops(rng):
    n = 6
    ks = [rand_kt(rng) for _ in range(n)]
    a = rand_kt(rng)
    stack = KTensor(np.stack([k.X for k in ks]), np.stack([k.Y for k in ks]))
    assert stack.X.shape == stack.Y.shape == (n, 2, 2)
    prod = kt_mul(stack, stack)
    star = jordan_star(stack, a, stack)
    assert prod.X.shape == prod.Y.shape == star.X.shape == star.Y.shape == (n, 2, 2)
    mixed = kt_mul(stack, a)                 # a single operator broadcasts
    assert mixed.X.shape == (n, 2, 2)
    norms = (stack - 2.0 * stack).norm()
    assert norms.shape == (n,)
    for i, k in enumerate(ks):
        assert np.array_equal(prod.X[i], kt_mul(k, k).X)
        assert np.array_equal(star.Y[i], jordan_star(k, a, k).Y)
        assert np.array_equal(mixed.Y[i], kt_mul(k, a).Y)
        assert norms[i] == k.norm()
    assert np.ndim(a.norm()) == 0
    t = kt_transpose(stack)
    assert np.array_equal(t.X[2], kt_transpose(ks[2]).X)


def _with_zeros(rng, shape):
    """Complex normal draws with about a third of the real and imaginary
    parts set to +0.0 or -0.0."""
    out = np.empty(shape, complex)
    for part in ("real", "imag"):
        x = rng.standard_normal(shape)
        zero = np.copysign(0.0, rng.standard_normal(shape))
        setattr(out, part, np.where(rng.random(shape) < 0.3, zero, x))
    return out


def _same(a, b):
    return a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes()


def test_block_conversion_of_one_operator_is_pinned(rng):
    """One operator converts by the bytes of one matrix-vector product with
    the constant map, and back by its transpose, signed zeros included."""
    for _ in range(500):
        k = KTensor(_with_zeros(rng, (2, 2)), _with_zeros(rng, (2, 2)))
        v = np.concatenate((k.X.ravel(), k.Y.ravel())).view(float)
        B = kt_to_block(k)
        assert B.tobytes() == (tensor4._TO_BLOCK @ v).reshape(4, 4).tobytes()
        z = ((tensor4._TO_BLOCK.T @ B.ravel()) / 2.0).view(complex)
        assert _same(kt_from_block(B), KTensor(z[:4].reshape(2, 2), z[4:].reshape(2, 2)))


def test_stacked_conversions_and_products_match_single(rng):
    """Stacks convert and multiply entry by entry with the bytes of single
    operators; X and Y broadcast against each other, as do the factors."""
    n = 9
    X, Y = _with_zeros(rng, (n, 2, 2)), _with_zeros(rng, (n, 2, 2))
    other = KTensor(_with_zeros(rng, (n, 2, 2)), _with_zeros(rng, (n, 2, 2)))
    one = rand_kt(rng)
    for k, entry in ((KTensor(X, Y), lambda i: KTensor(X[i], Y[i])),
                     (KTensor(X[0], Y), lambda i: KTensor(X[0], Y[i])),
                     (KTensor(X, Y[0]), lambda i: KTensor(X[i], Y[0]))):
        B, prod, left = kt_to_block(k), kt_mul(k, other), kt_mul(one, k)
        back = kt_from_block(B)
        assert B.shape == (n, 4, 4) and prod.X.shape == left.Y.shape == (n, 2, 2)
        for i in range(n):
            ki, oi = entry(i), KTensor(other.X[i], other.Y[i])
            assert B[i].tobytes() == kt_to_block(ki).tobytes()
            assert _same(KTensor(back.X[i], back.Y[i]), kt_from_block(B[i]))
            assert _same(KTensor(prod.X[i], prod.Y[i]), kt_mul(ki, oi))
            assert _same(KTensor(left.X[i], left.Y[i]), kt_mul(one, ki))
    empty = KTensor(np.zeros((0, 2, 2), complex), np.zeros((0, 2, 2), complex))
    assert kt_to_block(empty).shape == (0, 4, 4)
    assert kt_from_block(np.zeros((0, 4, 4))).Y.shape == (0, 2, 2)
    assert kt_mul(empty, one).X.shape == kt_mul(one, empty).Y.shape == (0, 2, 2)
