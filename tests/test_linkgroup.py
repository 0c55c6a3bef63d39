import dataclasses
from decimal import Decimal, localcontext

import numpy as np
import pytest

from thermoex import exactrel as er
from thermoex import linkgroup as lg
from thermoex.laminate import laminate2, conduct2
from thermoex.tensor4 import I2, I4, RPERP, T4, congruence, det2, mobius
from conftest import rand_spd, rand_pd_block


def rand_map(rng):
    return lg.LinkMap(rng.standard_normal((2, 2)) + np.diag([0.3, 0.3]),
                      rng.standard_normal((2, 2)) + np.diag([0.3, 0.3]))


def test_identity():
    L = np.diag([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(lg.psi_apply(lg.identity_map(), L), L)


def test_subgroup_families(rng):
    for _ in range(30):
        L = rand_pd_block(rng)
        Li = np.linalg.inv(L)
        assert np.allclose(lg.psi_apply(lg.t_translation(0.7), L), L + 0.7 * T4)
        assert np.allclose(lg.psi_apply(lg.inverse_translation(0.4), L),
                           np.linalg.inv(Li + 0.4 * T4))
        assert np.allclose(lg.psi_apply(lg.inversion_flip(), L),
                           np.linalg.inv(T4 - Li))
        B = rng.standard_normal((2, 2)) + np.diag([0.5, 0.5])
        lhs = lg.psi_apply(lg.basis_change(B), L)
        rhs = np.kron(B, I2) @ L @ np.kron(B.T, I2)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1 + np.abs(rhs).max())


def test_one_parameter_groups(rng):
    L = rand_pd_block(rng)
    for fam in (lg.t_translation, lg.inverse_translation):
        a, b = 0.21, -0.43
        lhs = lg.psi_apply(fam(a), lg.psi_apply(fam(b), L))
        rhs = lg.psi_apply(fam(a + b), L)
        assert np.abs(lhs - rhs).max() < 1e-10
        comp = lg.psi_compose(fam(a), fam(b))
        assert np.abs(lg.psi_apply(comp, L) - rhs).max() < 1e-10


def test_swap_gives_inverse_conjugation(rng):
    L = rand_pd_block(rng)
    swap = lg.LinkMap(np.array([[0.0, 1.0], [1.0, 0.0]]), I2)
    assert np.allclose(lg.psi_apply(swap, L), T4 @ np.linalg.inv(L) @ T4)


def test_compose_functional(rng):
    for _ in range(100):
        L = rand_pd_block(rng)
        m1, m2 = rand_map(rng), rand_map(rng)
        lhs = lg.psi_apply(m1, lg.psi_apply(m2, L))
        rhs = lg.psi_apply(lg.psi_compose(m1, m2), L)
        assert np.abs(lhs - rhs).max() < 1e-9 * (1 + np.abs(lhs).max())


def test_compose_det_one_case(rng):
    m1, m2 = rand_map(rng), rand_map(rng)
    # with det B2 = +1 the A factors multiply plainly
    b2 = m2.b if det2(m2.b) > 0 else m2.b @ np.diag([1.0, -1.0])
    m2p = lg.LinkMap(m2.a, b2)
    comp = lg.psi_compose(m1, m2p)
    plain = lg.LinkMap(m1.a @ m2p.a, m1.b @ b2)
    assert np.allclose(comp.a, plain.a) and np.allclose(comp.b, plain.b)


def test_associativity(rng):
    L = rand_pd_block(rng)
    for _ in range(20):
        m1, m2, m3 = rand_map(rng), rand_map(rng), rand_map(rng)
        lhs = lg.psi_compose(lg.psi_compose(m1, m2), m3)
        rhs = lg.psi_compose(m1, lg.psi_compose(m2, m3))
        assert np.abs(lg.psi_apply(lhs, L) - lg.psi_apply(rhs, L)).max() < 1e-9


def test_inverse(rng):
    L = rand_pd_block(rng)
    for _ in range(20):
        m = rand_map(rng)
        mi = lg.psi_inverse(m)
        assert np.abs(lg.psi_apply(mi, lg.psi_apply(m, L)) - L).max() < 1e-8


def test_identity_stabilizer(rng):
    for _ in range(20):
        a0 = rng.uniform(1.05, 2.0)
        b0 = np.sqrt(a0 ** 2 - 1.0)
        th = rng.uniform(0, 2 * np.pi)
        Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        if rng.uniform() < 0.5:
            Q = Q @ np.diag([1.0, -1.0])
        m = lg.LinkMap(np.array([[a0, b0], [b0, a0]]), Q)
        assert np.abs(lg.psi_apply(m, I4) - I4).max() < 1e-12


def test_normalizer(rng):
    m4 = lg.psi_normalizer(4 * I2, 0.0)
    # built from B = lam^-1/2 = I/2; stored in |det B| = 1 canonical form
    assert np.allclose(m4.b, I2)
    assert np.abs(lg.psi_apply(m4, 4 * I4) - I4).max() < 1e-14
    mshear = lg.psi_normalizer(I2, 0.5)
    assert np.abs(lg.psi_apply(mshear, I4 + 0.5 * T4) - I4).max() < 1e-14
    for _ in range(30):
        lam = rand_spd(rng)
        nu = rng.uniform(-0.9, 0.9) * np.sqrt(det2(lam))
        iso = np.kron(lam, I2) + nu * T4
        m = lg.psi_normalizer(lam, nu)
        assert np.abs(lg.psi_apply(m, iso) - I4).max() < 1e-12


def test_maps_relations_to_relations(rng):
    """The image of relation-22 samples under a random map is again a
    common membership family: pulling back through the inverse map lands
    on the relation."""
    m = rand_map(rng)
    mi = lg.psi_inverse(m)
    for _ in range(20):
        L = er.er_sample(22, rng=rng, scale=0.6)
        img = lg.psi_apply(m, L)
        back = lg.psi_apply(mi, img)
        assert er.er_member(22, back, tol=1e-7).member


def test_link13_volume_fraction(rng):
    L1 = rand_spd(rng) + I2
    assert np.allclose(lg.link13_volume_fraction([(L1, 1.0)]), L1)
    hm = lg.link13_volume_fraction([(I2, 0.5), (3 * I2, 0.5)])
    assert np.allclose(hm, 1.5 * I2)
    with pytest.raises(ValueError):
        lg.link13_volume_fraction([])
    with pytest.raises(ValueError):
        lg.link13_volume_fraction([(I2, 0.7), (I2, 0.7)])
    # matches full lamination of the relation-13 members
    L2 = rand_spd(rng) + I2
    f = 0.35
    n = rng.standard_normal(2)
    Ls = laminate2(er.lm_par(L1, RPERP), er.lm_par(L2, RPERP), f, n)
    pred = lg.link13_volume_fraction([(L1, f), (L2, 1 - f)])
    assert np.abs(Ls[:2, :2] - pred).max() < 1e-10


def test_link19_family(rng):
    L = er.er_sample(19, seed=11, scale=0.5)
    assert np.abs(lg.link19_family(0.0, L) - L).max() < 1e-12
    out = lg.link19_family(-0.15, L)
    assert er.er_member(19, out).member
    _, M0 = er.lm_unpar(L)
    _, M1 = er.lm_unpar(out)
    assert np.abs(M0 - M1).max() < 1e-10          # M is preserved
    # gamma0 = -1/2 lands on the degenerate relation
    L18 = lg.link19_family(-0.5, L)
    BL, M = er.lm_unpar(L18)
    resid = M @ np.linalg.inv(BL) - np.linalg.inv(BL) @ M.T - 2 * RPERP
    assert np.abs(resid).max() < 1e-9
    with pytest.raises(ValueError):
        lg.link19_family(50.0, L)


def test_link19_family_is_link(rng):
    """Applying the map commutes with lamination."""
    L1 = er.er_sample(19, seed=21, scale=0.4)
    L2 = er.er_sample(19, seed=22, scale=0.4)
    # a shared chart matrix M is what makes the pair laminate inside 19
    BL1, M = er.lm_unpar(L1)
    BL2, _ = er.lm_unpar(L2)
    L2 = er.lm_par(BL2, M)
    f, n = 0.3, (0.8, 0.6)
    g0 = -0.12
    lhs = lg.link19_family(g0, laminate2(L1, L2, f, n))
    rhs = laminate2(lg.link19_family(g0, L1), lg.link19_family(g0, L2), f, n)
    assert np.abs(lhs - rhs).max() < 1e-8


def test_link19_conductivity(rng):
    sig, mu = lg.link19_conductivity(I4)
    assert np.allclose(sig, I2) and abs(mu - 1.0) < 1e-14
    L = er.er_sample(19, seed=31, scale=0.5)
    sig, mu = lg.link19_conductivity(L)
    assert abs(det2(sig) - 1.0) < 1e-10
    recon = er.lm_par(mu * sig, RPERP @ sig)
    assert er.er_member(19, recon).member
    with pytest.raises(ValueError):
        lg.link19_conductivity(np.diag([2.0, 2.0, 1.0, 1.0]))


def test_link19_conductivity_laminates(rng):
    """sigma* of the laminate equals the conductivity laminate of the
    per-phase sigmas, and the whole factoring is a link: reconstructing
    the laminated member from (sigma*, mu*) equals laminating the
    per-phase reconstructions."""
    L1 = er.er_sample(19, seed=41, scale=0.4)
    BL1, M = er.lm_unpar(L1)
    BL2 = rand_spd(rng) * 0.2 + I2 * 1.2
    L2 = er.lm_par(BL2, M)
    assert er.er_member(19, L2).member
    f, n = 0.45, (1.0, 0.0)
    Ls = laminate2(L1, L2, f, n)
    sig_s, mu_s = lg.link19_conductivity(Ls)
    sig1, mu1 = lg.link19_conductivity(L1)
    sig2, mu2 = lg.link19_conductivity(L2)
    pred = conduct2(sig1, sig2, f, n)
    assert np.abs(sig_s - pred).max() < 1e-9
    im1 = er.lm_par(mu1 * sig1, RPERP @ sig1)
    im2 = er.lm_par(mu2 * sig2, RPERP @ sig2)
    im_lam = laminate2(im1, im2, f, n)
    im_of_lam = er.lm_par(mu_s * sig_s, RPERP @ sig_s)
    assert np.abs(im_lam - im_of_lam).max() < 1e-9


def test_link21_factor(rng):
    lam, P = lg.link21_factor(RPERP)
    assert np.allclose(lam, I2) and np.allclose(P, I2)
    for _ in range(50):
        M = rng.standard_normal((2, 2))
        try:
            lam, P = lg.link21_factor(M)
        except ValueError:
            continue
        assert np.abs(lg.link21_reconstruct(lam, P) - M).max() < 1e-10
    # trace-free unit-determinant chart matrices give lam = I
    M19 = np.array([[0.3, 1.1], [-(1 + 0.09) / 1.1, -0.3]])
    lam, P = lg.link21_factor(M19)
    assert np.allclose(lam, I2)


def test_link21_det_product(rng):
    """Factors of relation-21 members satisfy det(lam) det(P) = 1."""
    for _ in range(20):
        L = er.er_sample(21, rng=rng, scale=0.5)
        _, M = er.lm_unpar(L)
        lam, P = lg.link21_factor(M)
        assert abs(det2(lam) * det2(P) - 1.0) < 1e-9


def test_json_roundtrip(rng):
    m = rand_map(rng)
    back = lg.linkmap_from_json(lg.linkmap_to_json(m))
    assert np.allclose(back.a, m.a) and np.allclose(back.b, m.b)


def test_psi_apply_stack_and_kron(rng):
    """B (x) I is built without np.kron; a stack of L maps entry by entry."""
    Ls = np.stack([rand_pd_block(rng) for _ in range(5)])
    for _ in range(5):
        A = rng.standard_normal((2, 2)) + 0.4 * I2
        B = rng.standard_normal((2, 2)) + 0.4 * I2
        m = lg.LinkMap(A, B)
        BI = np.kron(m.b, I2)
        ref = BI @ mobius(m.a, Ls[0]) @ BI.T
        assert lg.psi_apply(m, Ls[0]).tobytes() == ((ref + ref.T) / 2.0).tobytes()
        out = lg.psi_apply(m, Ls)
        assert out.shape == (5, 4, 4)
        for L, o in zip(Ls, out):
            assert np.abs(o - lg.psi_apply(m, L)).max() <= 1e-12 * np.abs(o).max()


def test_covariance_is_normalizer_link(rng):
    """exactrel.covariance and the link-group normalizer reach the same
    congruence by two routes; members of every relation agree."""
    for ident in er.ER_IDS:
        for _ in range(10):
            lam = rand_spd(rng)
            L = er.er_sample(ident, rng)
            out = er.covariance(lam, L)
            ref = lg.psi_apply(lg.psi_normalizer(lam), L)
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


# -- seeded properties on many random pairs ---------------------------------

PROPERTY_TRIALS = 1000


def well_conditioned_pairs(rng, n=PROPERTY_TRIALS):
    """n draws (m1, m2, L) whose two pencils a1 L + b1 T have condition
    number at most 1e3, the draws the audit benchmark checks."""
    out = []
    while len(out) < n:
        m1, m2 = rand_map(rng), rand_map(rng)
        L = rand_pd_block(rng)
        if np.linalg.cond(m2.a[1, 0] * L + m2.a[1, 1] * T4) > 1e3:
            continue
        mid = lg.psi_apply(m2, L)
        if np.linalg.cond(m1.a[1, 0] * mid + m1.a[1, 1] * T4) <= 1e3:
            out.append((m1, m2, L))
    return out


def rel_diff(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def test_composition_law_property(rng):
    for m1, m2, L in well_conditioned_pairs(rng):
        lhs = lg.psi_apply(m1, lg.psi_apply(m2, L))
        assert rel_diff(lg.psi_apply(lg.psi_compose(m1, m2), L), lhs) <= 1e-9


def test_inverse_property(rng):
    for m, _, L in well_conditioned_pairs(rng):
        back = lg.psi_apply(lg.psi_inverse(m), lg.psi_apply(m, L))
        assert rel_diff(back, L) <= 1e-9


def first_significant(m):
    return next(v for v in m.ravel() if abs(v) > 1e-12)


def test_canonical_form_invariants(rng):
    """|det a| = |det b| = 1 and the first entry above 1e-12 is positive, for
    maps built from pairs over six decades of scale, composites and inverses."""
    for _ in range(PROPERTY_TRIALS):
        sa, sb = 10.0 ** rng.uniform(-3, 3, size=2)
        m = lg.LinkMap(sa * rng.standard_normal((2, 2)), sb * rng.standard_normal((2, 2)))
        for x in (m, lg.psi_compose(m, rand_map(rng)), lg.psi_inverse(m)):
            for part in (x.a, x.b):
                assert abs(abs(det2(part)) - 1.0) <= 1e-12
                assert first_significant(part) > 0


def _dec_entries(x):
    return [Decimal(v) for v in x.ravel().tolist()]


def _dec_det(m):
    return m[0] * m[3] - m[1] * m[2]


def _dec_mul(x, y):
    return [x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3]]


def _dec_canonical(a, b):
    """The canonical pair of (A, B) in decimal arithmetic, as LinkMap builds it."""
    d = abs(_dec_det(b))
    out = []
    for m in ([d * a[0], d * a[1], a[2], a[3]], b):
        s = abs(_dec_det(m)).sqrt()
        m = [v / s for v in m]
        first = next(v for v in m if abs(v) > Decimal("1e-12"))
        out.append(np.array([float(v if first > 0 else -v) for v in m]).reshape(2, 2))
    return out


def test_compose_and_inverse_against_decimal_reference(rng):
    """psi_compose and psi_inverse of maps drawn over six decades of scale,
    against the same pair products evaluated with 60 significant digits.

    The factors are canonical, so a composite or an inverse has |det| = 1;
    normalizing it by a determinant recomputed from its (cancelling) entries
    would cost up to about 1e-7 relative here."""
    def draw():
        sa, sb = 10.0 ** rng.uniform(-3, 3, size=2)
        return lg.LinkMap(sa * rng.standard_normal((2, 2)),
                          sb * rng.standard_normal((2, 2)))

    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        for _ in range(2000):
            m1, m2 = draw(), draw()
            a1, b1, a2, b2 = map(_dec_entries, (m1.a, m1.b, m2.a, m2.b))
            d = _dec_det(b2)                          # D = diag(det B2, 1)
            ref = _dec_canonical(_dec_mul([a1[0], a1[1] / d, a1[2] * d, a1[3]], a2),
                                 _dec_mul(b1, b2))
            c = lg.psi_compose(m1, m2)
            da, db = _dec_det(a1), _dec_det(b1)
            bi = [b1[3] / db, -b1[1] / db, -b1[2] / db, b1[0] / db]
            e = 1 / db                                # det of B1^-1
            ai = [a1[3] / da, -a1[1] / da / e, -a1[2] / da * e, a1[0] / da]
            inv_ref = _dec_canonical(ai, bi)
            inv = lg.psi_inverse(m1)
            for x, r in zip((c.a, c.b, inv.a, inv.b), (*ref, *inv_ref)):
                worst = max(worst, rel_diff(x, r))
    assert worst <= 1e-12


def test_psi_apply_is_congruence_of_mobius(rng):
    """psi_apply uses the map's cached B (x) I; the result equals the
    symmetrized congruence of the Moebius transform bit for bit."""
    def ref(m, L):
        out = congruence(m.b, mobius(m.a, L))
        return (out + np.swapaxes(out, -1, -2)) / 2.0
    for m1, m2, L in well_conditioned_pairs(rng):
        for m in (m1, m2, lg.psi_compose(m1, m2)):
            assert lg.psi_apply(m, L).tobytes() == ref(m, L).tobytes()
    Ls = np.stack([L, lg.psi_apply(m2, L), I4])
    assert lg.psi_apply(m1, Ls).tobytes() == ref(m1, Ls).tobytes()
    D = np.diag([1.0, 2.0, 3.0, 4.0])
    for m in (lg.identity_map(), lg.t_translation(0.3), lg.inversion_flip()):
        assert lg.psi_apply(m, D).tobytes() == ref(m, D).tobytes()


# -- the input boundary -------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linkmap_rejects_non_finite(bad):
    for pos in np.ndindex(2, 2):
        M = np.eye(2)
        M[pos] = bad
        for A, B in ((M, I2), (I2, M)):
            with pytest.raises(ValueError, match="finite"):
                lg.LinkMap(A, B)
            with pytest.raises(ValueError, match="finite"):
                lg.linkmap_from_json({"A": A.tolist(), "B": B.tolist()})


def test_linkmap_rejects_misshapen_and_singular():
    for M in (np.eye(3), np.ones(4), [[1.0, 0.0]], 1.0):
        for A, B in ((M, I2), (I2, M)):
            with pytest.raises(ValueError, match="2x2"):
                lg.LinkMap(A, B)
    with pytest.raises(ValueError, match="2x2"):
        lg.linkmap_from_json({"A": np.eye(3).tolist(), "B": I2.tolist()})
    for A, B in ((np.ones((2, 2)), I2), (I2, np.ones((2, 2)))):
        with pytest.raises(ValueError, match="invertible"):
            lg.LinkMap(A, B)


def test_linkmap_is_immutable(rng):
    m = rand_map(rng)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.a = I2
    for part in (m.a, m.b):
        with pytest.raises(ValueError):
            part[0, 0] = 1.0


def test_linkmap_zero_entries_are_positive_zero():
    """Feeding |det B| back into A is the product diag(|det B|, 1) @ A, so a
    -0.0 entry of A comes out as +0.0, as from a matrix product."""
    m = lg.LinkMap(np.array([[-0.0, 2.0], [-1.0, -0.0]]), np.array([[-1.0, -0.0], [0.0, 2.0]]))
    assert m.a.tolist() == [[0.0, 2.0], [-0.5, 0.0]]
    assert np.signbit(m.a).tolist() == [[False, False], [True, False]]
    # B is only scaled and, by the sign rule, negated: its zeros flip sign
    assert np.signbit(m.b).tolist() == [[False, False], [True, True]]
