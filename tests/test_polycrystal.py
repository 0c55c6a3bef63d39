import json
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from thermoex import algebra as alg
from thermoex import exactrel as er
from thermoex import linkgroup as lg
from thermoex import polycrystal as pc
from thermoex.laminate import Leaf, Mix, laminate_tree
from thermoex.tensor4 import (I2, RPERP, DomainError, KTensor, cof2, det2,
                              kt_from_block, kt_to_block, rotate,
                              is_positive_definite, spd_sqrt_2x2)
from conftest import rand_herm, rand_sym_c

GOLDEN = Path(__file__).parent / "golden"
EPS = np.finfo(float).eps


def rand_pd_crystallite(rng, coupling=0.7):
    while True:
        k = KTensor(rand_herm(rng) + 3 * I2, coupling * rand_sym_c(rng))
        if is_positive_definite(k):
            return k


def test_b_op_pinned():
    assert np.abs(pc.b_op(np.zeros((2, 2)))).max() == 0.0
    B = pc.b_op(I2)
    # identity Y: Z -> adj(Z); eigenvalue +1 on I, -1 on the trace-free part
    assert np.allclose(B @ pc.hvec(I2.astype(complex)), pc.hvec(I2.astype(complex)))
    w = np.sort(np.linalg.eigvals(B).real)
    assert np.allclose(w, [-1, -1, -1, 1])


def test_b_op_action_matches_definition(rng):
    for _ in range(100):
        Y = rand_sym_c(rng)
        Z = rand_herm(rng)
        direct = Y @ np.array([[Z[1, 1], -Z[0, 1]], [-Z[1, 0], Z[0, 0]]]) @ Y.conj().T
        via = pc.hunvec(pc.b_op(Y) @ pc.hvec(Z))
        assert np.abs(direct - via).max() < 1e-12


def test_b_op_rows_match_stacked_definition(rng):
    """Column k of b_op(Y), built from Python floats, is hvec(Y adj(E_k) Y^H)
    of the stacked product over HERM_BASIS to 8 eps |Y|^2, for symmetric
    and general complex Y of several scales."""
    adj = np.array([cof2(E).T for E in pc.HERM_BASIS])
    for c in (1e-3, 1.0, 1e3):
        for _ in range(100):
            for Y in (c * rand_sym_c(rng), c * (rng.standard_normal((2, 2))
                                                + 1j * rng.standard_normal((2, 2)))):
                want = pc.hvec(np.moveaxis(Y @ adj @ Y.conj().T, 0, -1))
                assert np.abs(pc.b_op(Y) - want).max() <= 8 * EPS * np.abs(Y).max() ** 2


def test_b_op_detY_eigenpair(rng):
    for _ in range(50):
        Y = rand_sym_c(rng)
        w = np.linalg.eigvals(pc.b_op(Y))
        d = abs(det2(Y))
        wr = sorted(abs(x) for x in w)
        assert any(abs(x - d) < 1e-9 * (1 + d) for x in np.abs(w))


def test_b_charpoly(rng):
    assert np.allclose(pc.b_charpoly(np.zeros((2, 2))), [1, 0, 0, 0, 0])
    # Y = I: (x^2 - 1)(x + 1)^2
    assert np.allclose(pc.b_charpoly(I2), np.polymul([1, 0, -1], [1, 2, 1]))
    for _ in range(200):
        Y = rand_sym_c(rng)
        p_direct = np.poly(pc.b_op(Y))
        assert np.abs(pc.b_charpoly(Y) - p_direct).max() < 1e-10 * (1 + abs(det2(Y)) ** 2)


def test_quadratic_factor_root_signs(rng):
    """Real roots of the non-trivial factor are positive (or coincide with
    the negative eigenvalue -|det Y|)."""
    for _ in range(1000):
        Y = rand_sym_c(rng)
        d = abs(det2(Y))
        g = np.trace(Y @ np.array([[Y[1, 1], -Y[0, 1]],
                                   [-Y[1, 0], Y[0, 0]]]).conj()).real
        roots = np.roots([1.0, g, d ** 2])
        if np.abs(roots.imag).max() > 1e-9 * (1 + d):
            continue
        for r in roots.real:
            assert r > -1e-9 or abs(r + d) < 1e-6 * (1 + d)


def test_solve_isotropic_trivial():
    k = KTensor(np.diag([2.0, 3.0]).astype(complex), np.zeros((2, 2)))
    res = pc.solve_isotropic(k)
    assert abs(res.theta - 1.0 / det2(2 * np.diag([2.0, 3.0])).real) < 1e-14
    assert np.abs(res.Lstar - np.diag([2.0, 3.0])).max() < 1e-12
    assert abs(res.alpha) < 1e-14


def test_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        pc.solve_isotropic(KTensor(-I2, np.zeros((2, 2))))
    # X + Y overflows in the block form: not PD, and no overflow warning
    with pytest.raises(DomainError, match="positive definite"):
        pc.solve_isotropic(KTensor(1.5e308 * I2, 1e308 * I2))
    with pytest.raises(TypeError):
        pc.solve_isotropic(np.eye(4))
    # KTensor also holds stacks; the solver takes one crystallite
    with pytest.raises(ValueError, match="2x2"):
        pc.solve_isotropic(KTensor(np.stack([2 * I2] * 3), np.zeros((3, 2, 2))))


def test_equal_singular_values_closed_form():
    """X = 2I, Y = I: the scalar roots are 7 +/- 4 sqrt(3); only the
    smaller is feasible."""
    res = pc.solve_isotropic(KTensor(2 * I2, I2))
    tm, tp2 = 7 - 4 * np.sqrt(3), 7 + 4 * np.sqrt(3)
    assert abs(res.theta - tm) < 1e-12
    thetas = sorted(t for t, _ in res.roots)
    assert abs(thetas[0] - tm) < 1e-12
    assert abs(thetas[-1] - tp2) < 1e-12
    feas = [fz for _, fz in res.roots]
    assert feas == [True, False]
    assert not res.smallest_root_conjectural


def test_close_root_pair_found():
    """A close pair near theta = 2.36 that a sign-change scan steps over."""
    rng = np.random.default_rng(7)
    k = [rand_pd_crystallite(rng) for _ in range(19)][18]
    res = pc.solve_isotropic(k)
    thetas = [t for t, _ in res.roots]
    assert np.allclose(thetas, [0.027794, 2.349074, 2.372572, 200.522088],
                       rtol=0, atol=1e-6)
    assert [bool(fz) for _, fz in res.roots] == [True, False, False, False]
    for t in thetas:
        Z = pc.hunvec(np.linalg.solve(np.eye(4) + t * pc.b_op(k.Y),
                                      pc.hvec(k.X + k.X.conj())))
        assert abs(t * det2(Z).real - 1.0) < 1e-10


def test_roots_match_special_quartic(rng):
    """Real Y: t = theta |det Y| runs over the real roots of the quartic in
    s1, s2, the eigenvalues of Re(X)^1/2 Y^-1 Re(X)^1/2.  At weak coupling
    the roots spread over ~1e-10..1e10; the quartic is palindromic, so its
    roots come from two quadratics in t + 1/t and keep full precision."""
    for coupling, rtol, count in ((1.0, 1e-9, 50), (1e-4, 1e-9, 25)):
        checked = 0
        while checked < count:
            A = rng.standard_normal((2, 2))
            ReX = A @ A.T + rng.uniform(0.5, 3.0) * I2
            X = ReX + 1j * rng.uniform(-0.5, 0.5) * np.array([[0.0, 1.0], [-1.0, 0.0]])
            Y = rng.standard_normal((2, 2))
            Y = coupling * (Y + Y.T) / 2.0
            if not is_positive_definite(KTensor(X, Y)):
                continue
            h = spd_sqrt_2x2(ReX)
            q = pc.special_quartic(*np.linalg.eigvalsh(h @ np.linalg.inv(Y) @ h))
            res = pc.solve_isotropic(KTensor(X, Y))
            t = sorted(th * abs(det2(Y)) for th, _ in res.roots)
            assert len(t) == len(q.roots) == 4
            assert np.allclose(t, q.roots, rtol=rtol, atol=0)
            checked += 1


def test_rank_one_coupling():
    """det Y = 0 up to rounding: the leading coefficients of the polynomial
    are noise (roots from an 80-digit evaluation of the same problem)."""
    u = np.array([0.3 + 0.2j, -0.5 + 0.1j])
    X = np.array([[3.0, 0.2 + 0.1j], [0.2 - 0.1j, 2.5]])
    res = pc.solve_isotropic(KTensor(X, 2.0 * np.outer(u, u)))
    assert np.allclose([t for t, _ in res.roots], [0.0343512491087728, 2.180658465005038],
                       rtol=1e-12, atol=0)


def test_rank_one_w_has_no_cubic_or_quadratic_term():
    """Y = c u u^T, rank one up to rounding: B^2 = tr(B) B makes v_2 = 0 and
    det Y = 0 makes v_3 = 0, so the theta^3 and theta^2 coefficients of
    every row of W are exactly 0, not rounding noise (draws built as in
    test_roots_agree_with_a_dense_solve)."""
    rng = np.random.default_rng(20131)
    rounded = 0
    for _ in range(300):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        Y = rng.uniform(0.2, 1.5) * np.outer(u, u)
        X = rand_herm(rng) + 3 * I2
        w, p, _ = pc._z_polys(Y.ravel().tolist(), pc.hvec(X + X.conj()).tolist())
        assert [row[:2] for row in w] == [[0.0, 0.0]] * 4
        assert p[:2] == [0.0, 0.0]
        rounded += det2(Y) != 0
    assert rounded > 100


def test_weak_coupling(rng):
    """|Y| ~ 1e-9 |X|: the feasible root is the uncoupled 1 / det(X + conj X)
    to O(|Y|^2), although the other roots sit ~1e17 times further out."""
    for _ in range(100):
        k = KTensor(rand_herm(rng) + 3 * I2, 1e-9 * rand_sym_c(rng))
        if not is_positive_definite(k):
            continue
        theta0 = 1.0 / det2(k.X + k.X.conj()).real
        assert abs(pc.solve_isotropic(k).theta - theta0) <= 1e-12 * theta0


def test_iterates_on_a_pole_are_dropped():
    """Newton iterates where p(theta) = det(I + theta B) is exactly 0."""
    # Y = I: the pole theta = 1 is exactly representable
    w, p, _ = pc._z_polys([1.0, 0.0, 0.0, 1.0], [4.0, 4.0, 0.0, 0.0])
    th, _, res = pc._polish([1.0, 0.07], w, p)
    assert res[0] == np.inf
    assert abs(th[1] - (7 - 4 * np.sqrt(3))) < 1e-15 and res[1] < 1e-15
    # Y = diag(-3, 3): pole at 1/9 with 9 * fl(1/9) == 1; the roots are
    # t = theta |det Y| = 1/9 and 9 of the quartic with s1 = s2 = 5/3
    res = pc.solve_isotropic(KTensor(5 * I2, np.diag([-3.0, 3.0])))
    assert np.allclose([t for t, _ in res.roots], [1 / 81, 1.0], rtol=1e-14, atol=0)


def test_huge_crystallite_warns_nowhere():
    """crystallite_s2 with X x 1e152, entries past 2^500: the feasibility
    tests of the roots scale before their determinants, so nothing overflows
    (pytest turns warnings into errors), and theta ~ 1/|X|^2 is still a
    normal float."""
    res = pc.solve_isotropic(KTensor(2e152 * I2, I2))
    assert [f for _, f in res.roots] == [True] and 2.0 ** -1022 < res.theta < 1e-305
    assert np.isfinite(res.B).all() and np.isfinite(res.Lstar).all()


def _scaled_crystallite(e):
    return KTensor(np.diag([1.5, 1.0]) * 10.0 ** e, np.diag([0.1, 0.0]) * 10.0 ** e)


@pytest.mark.parametrize("k0", [
    *(_scaled_crystallite(e) for e in (-165, -160, 160, 165, 300)),
    KTensor(np.diag([1.5e308, 1e308]), np.diag([1e307, 0.0]))])
def test_theta_outside_the_float_range_raises(k0):
    """theta ~ 1/|X|^2 of a crystallite near either end of the float range is
    not a normal float (inf, subnormal or 0): a DomainError names the scale,
    instead of an inf or subnormal theta or a claim that no root exists.  The
    last crystallite, near 2^1024, passes the PD test, which has no scale,
    and fails at the capped scale 2^1023."""
    with pytest.raises(DomainError, match=r"crystallite of scale 2\^"):
        pc.solve_isotropic(k0)


@pytest.mark.parametrize("e,theta", [(-150, "0x1.fe4102ef56cb3p+993"),
                                     (100, "0x1.059091fe4ff44p-667"),
                                     (150, "0x1.c9afa50bed99fp-1000")])
def test_theta_inside_the_float_range_keeps_its_bits(e, theta):
    assert pc.solve_isotropic(_scaled_crystallite(e)).theta == float.fromhex(theta)


def test_power_of_two_scaling(rng):
    """For a power of two c, theta(c k0) = theta(k0) / c^2 and Z(c k0) =
    c Z(k0), both exactly: the solver runs on k0 / s with s a power of two,
    and its PD test is strict with no floor, so small crystallites pass it."""
    for _ in range(20):
        k = rand_pd_crystallite(rng)
        ref = pc.solve_isotropic(k)
        for c in (2.0 ** -300, 2.0 ** -40, 0.5, 2.0, 2.0 ** 20, 2.0 ** 200):
            res = pc.solve_isotropic(KTensor(c * k.X, c * k.Y))
            assert res.theta == ref.theta / c / c
            assert np.array_equal(res.Z, c * ref.Z)
            assert np.array_equal(res.Lstar, c * ref.Lstar)
    small = pc.solve_isotropic(KTensor(3e-13 * I2, 5e-14 * I2))
    unit = pc.solve_isotropic(KTensor(3.0 * I2, 0.5 * I2))
    assert abs(small.theta * 1e-26 - unit.theta) <= 1e-12 * unit.theta
    assert np.abs(small.Lstar * 1e13 - unit.Lstar).max() <= 1e-12


def test_roots_agree_with_a_dense_solve():
    """Every reported root is a root of the original problem, Z from a dense
    solve of (I + theta B) Z = hvec(X + conj X), over bench-style, strongly
    coupled and det Y ~ 0 crystallites, and ones scaled by 2^300 whole or in
    X alone.  Near-singular Y puts roots near 1 / |det Y|, where W / p holds
    only if its cubic coefficient does not come from cancellation."""
    rng = np.random.default_rng(20131)
    ks = [rand_pd_crystallite(rng) for _ in range(150)]
    ks += [rand_pd_crystallite(rng, coupling=2.5) for _ in range(150)]
    while len(ks) < 500:        # Y rank one up to rounding, then up to 1e-6
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        Y = np.outer(u, u) + (len(ks) >= 400) * 1e-6 * rand_sym_c(rng)
        k = KTensor(rand_herm(rng) + 3 * I2, rng.uniform(0.2, 1.5) * Y)
        if is_positive_definite(k):
            ks.append(k)
    # (2^-300 crystallites: test_power_of_two_scaling)
    ks += [2.0 ** 300 * rand_pd_crystallite(rng) for _ in range(50)]
    ks += [KTensor(2.0 ** 300 * k.X, k.Y) for k in
           (rand_pd_crystallite(rng) for _ in range(50))]
    above_one = 0
    for k in ks:
        res = pc.solve_isotropic(k)
        Bm, rhs = pc.b_op(k.Y), pc.hvec(k.X + k.X.conj())
        for th, _ in res.roots:
            z = np.linalg.solve(np.eye(4) + th * Bm, rhs)
            size = 1.0 + th * (abs(z[0] * z[1]) + z[2] ** 2 + z[3] ** 2)
            assert abs(th * (z[0] * z[1] - z[2] ** 2 - z[3] ** 2) - 1.0) <= 1e-9 * size
            above_one += th > 1.0
    assert above_one >= 1


def test_golden_thetas_within_one_ulp():
    """The polycrystal goldens print the exact closed-form roots to 1 ulp."""
    with localcontext() as ctx:
        ctx.prec = 40
        s3, s15 = Decimal(3).sqrt(), Decimal(15).sqrt()
        exact = {
            "poly_iso.json": [Decimal(1) / 24],                 # 1 / det(2X)
            "poly_s2.json": [7 - 4 * s3, 7 + 4 * s3],
            "poly_conduction.json": [(4 - s15) / 2],
        }
        for name, roots in exact.items():
            obj = json.loads((GOLDEN / name).read_text())
            got = [obj["theta"]] + [r["theta"] for r in obj["roots"]]
            for g, want in zip(got, roots[:1] + roots):
                assert abs(Decimal(g) - want) <= Decimal(float(np.spacing(g))), name


def test_special_quartic():
    q = pc.special_quartic(2.0, 2.0)
    assert any(abs(r - (7 - 4 * np.sqrt(3))) < 1e-12 for r in q.roots)
    assert any(abs(r - (7 + 4 * np.sqrt(3))) < 1e-12 for r in q.roots)
    assert any(abs(r - 1.0) < 1e-6 for r in q.roots)
    # product of the off-unit pair is 1
    lo = min(q.roots)
    hi = max(q.roots)
    assert abs(lo * hi - 1.0) < 1e-10
    assert q.p_at_0 == -0.25
    with pytest.raises(ValueError):
        pc.special_quartic(0.9, 2.0)


def test_special_quartic_counts_and_discriminant(rng):
    for _ in range(50):
        s2 = rng.uniform(1.05, 3.0)
        s1 = s2 + rng.uniform(0.05, 2.0)
        q = pc.special_quartic(s1, s2)
        assert q.roots_in_01 == 2 and q.roots_above_1 == 2
        assert abs(q.discriminant - q.discriminant_formula) \
            < 1e-6 * (1 + abs(q.discriminant_formula))


def test_uncoupled_crystallite(rng):
    for _ in range(20):
        p, q = rng.uniform(0.5, 6.0, 2)
        X = np.array([[(p + q) / 2, 0], [0, 1]], complex)
        Y = np.array([[(p - q) / 2, 0], [0, 0]], complex)
        res = pc.solve_isotropic(KTensor(X, Y))
        assert np.abs(res.Lstar - np.diag([np.sqrt(p * q), 1.0])).max() < 1e-12


def test_residual_invariants(rng):
    for _ in range(50):
        k = rand_pd_crystallite(rng)
        res = pc.solve_isotropic(k)
        X, Y = k.X, k.Y
        Z = res.Z
        assert abs(res.theta * det2(Z).real - 1.0) < 1e-12
        zres = Z + Y @ np.linalg.inv(Z) @ Y.conj().T - (X + X.conj())
        assert np.abs(zres).max() < 1e-12 * (1 + np.abs(Z).max())
        assert np.linalg.eigvalsh(res.Lstar).min() > 0
        # decomposition Lstar = B^-2 + i alpha Rperp
        recon = np.linalg.inv(res.B @ res.B) + 1j * res.alpha * RPERP
        assert np.abs(recon - res.Lstar).max() < 1e-10


def test_rotation_invariance(rng):
    k = rand_pd_crystallite(rng)
    base = pc.solve_isotropic(k)
    for th in (0.3, 1.2, 2.5):
        rot = pc.solve_isotropic(rotate(th, k))
        assert abs(rot.theta - base.theta) < 1e-12 * base.theta
        assert np.abs(rot.Lstar - base.Lstar).max() < 1e-12


def test_scaling_covariance(rng):
    k = rand_pd_crystallite(rng)
    base = pc.solve_isotropic(k)
    for c in (0.1, 10.0):
        scaled = pc.solve_isotropic(KTensor(c * k.X, c * k.Y))
        assert np.abs(scaled.Lstar - c * base.Lstar).max() < 1e-10 * c


def test_er22_pullback(rng):
    """Normalizing the effective tensor sends the crystallite onto the
    fully-symmetric exact relation."""
    for _ in range(20):
        k = rand_pd_crystallite(rng)
        res = pc.solve_isotropic(k)
        lam_star = np.linalg.inv(res.B @ res.B)
        m = lg.psi_normalizer(lam_star, res.alpha)
        Lp = lg.psi_apply(m, kt_to_block(k))
        pull = er.pullback(22, Lp)
        assert alg.algebra_by_id(22).residual(pull) < 1e-10
        assert er.er_member(22, Lp, tol=1e-8).member


def test_result_json(rng):
    res = pc.solve_isotropic(KTensor(2 * I2, I2))
    obj = res.to_json()
    assert {"theta", "Lstar", "alpha", "B", "roots",
            "smallest_root_conjectural"} == set(obj)


def halton(index, base):
    """Halton low-discrepancy point; index starts at 1."""
    out, f = 0.0, 1.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


def polycrystal_texture(tensor, depth):
    """Balanced laminate tree mixing rotated copies of one crystallite.

    Leaf rotations come from the base-2 Halton sequence over [0, pi) and
    layer normals from the base-3 sequence, so the texture is
    deterministic and approximately isotropic for moderate depth.
    """
    level = [Leaf(tensor, np.pi * halton(i + 1, 2)) for i in range(2 ** depth)]
    k = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            k += 1
            ang = np.pi * halton(k, 3)
            nxt.append(Mix(level[i], level[i + 1], 0.5,
                           (np.cos(ang), np.sin(ang))))
        level = nxt
    return level[0]


def test_texture_converges_to_unique_point():
    """A balanced Halton texture drives the laminate toward the solver's
    isotropic point as its own anisotropy defect shrinks."""
    k0 = KTensor(np.array([[3.0, 0.4 + 0.2j], [0.4 - 0.2j, 2.0]]),
                 0.5 * np.array([[1.0, 0.3j], [0.3j, -0.4]]))
    pred = kt_to_block(KTensor(pc.solve_isotropic(k0).Lstar, np.zeros((2, 2))))
    errs = []
    for depth in (2, 4, 6):
        Ls = laminate_tree(polycrystal_texture(kt_to_block(k0), depth))
        kk = kt_from_block(Ls)
        defect = np.abs(kk.Y).max() / (1 + np.abs(kk.X).max())
        err = np.abs(Ls - pred).max() / (1 + np.abs(pred).max())
        errs.append(err)
        assert err < 3.0 * defect + 1e-9
    assert errs[-1] < 5e-3 < errs[0] * 10


def _well_conditioned_basis(rng):
    """R(a) diag(s) R(b) with singular values s in [1/2, 2], a reflection
    half of the time."""
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    B = rot(rng.uniform(0, np.pi)) @ np.diag(rng.uniform(0.5, 2.0, 2)) \
        @ rot(rng.uniform(0, np.pi))
    return B if rng.uniform() < 0.5 else B @ np.diag([1.0, -1.0])


@pytest.mark.parametrize("link", ["translation", "basis_change"])
def test_polycrystal_link_covariance(link):
    """A link whose image of the crystallite is positive definite transports
    the isotropic point: solve_isotropic(Psi(K)).Lstar is Psi applied to
    solve_isotropic(K).Lstar, both as isotropic tensors K(Lstar, 0).  The
    pencil a1 L + b1 T of a translation or a basis change is T itself, so
    the bound scales with the larger condition number of K and Psi(K):
    1e2 eps cond (worst seen: 1.24 over five seeds of 200 draws each)."""
    rng = np.random.default_rng([2010, ("translation", "basis_change").index(link)])
    zero, checked = np.zeros((2, 2)), 0
    for _ in range(60):
        k = rand_pd_crystallite(rng, coupling=rng.uniform(0.1, 1.5))
        if link == "translation":
            m = lg.t_translation(rng.uniform(-1.5, 1.5))
        else:
            m = lg.basis_change(_well_conditioned_basis(rng))
        L = kt_to_block(k)
        image = lg.psi_apply(m, L)
        if not is_positive_definite(kt_from_block(image)):
            continue
        got = kt_to_block(KTensor(pc.solve_isotropic(kt_from_block(image)).Lstar, zero))
        want = lg.psi_apply(m, kt_to_block(KTensor(pc.solve_isotropic(k).Lstar, zero)))
        cond = max(np.linalg.cond(L), np.linalg.cond(image))
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 1e2 * EPS * cond, err / (EPS * cond)
        checked += 1
    assert checked >= 40
