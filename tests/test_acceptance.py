"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance below is fixed here, not configurable.
"""

import numpy as np

from thermoex import algebra as alg
from thermoex import exactrel as er
from thermoex import linkgroup as lg
from thermoex import polycrystal as pc
from thermoex import twophase as tp
from thermoex.laminate import Leaf, Mix, laminate2, laminate_tree, RankOneModel
from thermoex.materials import figure_of_merit, zt_isotropic
from thermoex.tensor4 import (I2, I4, RPERP, T4, KTensor, block_is_pd, det2,
                              inv2, kt_from_block, kt_mul, kt_to_block,
                              resolvent)
from conftest import rand_kt, rand_pd_kt, rand_spd

ESSENTIAL = (8, 9, 13, 17, 20, 21, 22)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {tag}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_c01_catalog_closure():
    worst = 0.0
    ok = True
    for spec in alg.catalog():
        rep = alg.check_closure(spec, trials=200, tol=1e-10)
        worst = max(worst, rep.max_residual)
        ok &= rep.passed
    report(1, "catalog closure (23 entries, 200 trials)", ok,
           f"max residual {worst:.2e}")


def test_c02_chain_properties():
    worst = 0.0
    ok = True
    for ident in ESSENTIAL:
        rep = alg.check_chain(alg.algebra_by_id(ident), trials=200, tol=1e-10)
        worst = max(worst, rep.max_residual)
        ok &= rep.passed
    report(2, "3- and 4-chain properties (7 essential entries)", ok,
           f"max residual {worst:.2e}")


def test_c03_inversion_keys():
    table = {8: alg.KEY_ZERO, 13: alg.KEY_ZERO, 17: alg.KEY_HALF_I,
             20: alg.KEY_HALF_I, 21: alg.KEY_HALF_I, 22: alg.KEY_HALF_I}
    ok = True
    worst = 0.0
    for ident, key in table.items():
        spec = alg.algebra_by_id(ident)
        found = alg.find_inversion_key(spec, trials=200)
        ok &= np.allclose(found, key)
        res = alg.key_condition_residual(spec, key, trials=200)
        worst = max(worst, res)
        ok &= res <= 1e-10
    # negative control: C+(0.3i) is not compatible with the zero key
    phi = alg.global_automorphism(alg.c_plus(0.3j))
    rng = np.random.default_rng(0xACC3)
    full = alg.algebra_by_id(23)
    violation = 0.0
    for _ in range(200):
        k = full.sample(rng)
        d = (phi(kt_mul(k, k)) - kt_mul(phi(k), phi(k))).norm() / (1 + k.norm() ** 2)
        violation = max(violation, d)
    ok &= violation > 1e-3
    report(3, "inversion keys + global negative control", ok,
           f"key residual {worst:.2e}, violation {violation:.2e}")


def test_c04_er_algebra_equivalence():
    rng = np.random.default_rng(0xACC4)
    ok = True
    checked = 0
    for ident in er.ER_IDS:
        spec = er.er_spec(ident)
        for i in range(500):
            if i % 2 == 0:
                L = er.er_sample(ident, rng=rng, scale=rng.uniform(0.2, 1.0))
            else:
                L = er.er_sample(ident, rng=rng, scale=0.5)
                P = rng.standard_normal((4, 4))
                L = L + rng.uniform(0.02, 0.3) * (P + P.T)
                if not block_is_pd(L):
                    continue
            closed = er.er_member(ident, L, tol=1e-8).member
            pulled = spec.algebra.contains(er.pullback(ident, L), tol=1e-8)
            ok &= closed == pulled
            checked += 1
            if not ok:
                break
    report(4, "closed-form membership == subspace pullback (500/relation)",
           ok, f"{checked} tensors")


def test_c05_lamination_closure():
    rng = np.random.default_rng(0xACC5)
    worst = 0.0
    ok = True
    for ident in er.ER_IDS:
        for _ in range(200):
            L1 = er.er_sample(ident, rng=rng, scale=0.6)
            L2 = er.er_sample(ident, rng=rng, scale=0.6)
            Ls = laminate2(L1, L2, rng.uniform(0, 1), rng.standard_normal(2))
            m = er.er_member(ident, Ls, tol=1e-8)
            worst = max(worst, m.residual)
            ok &= m.member
        for _ in range(50):
            leaves = [Leaf(er.er_sample(ident, rng=rng, scale=0.5),
                           rng.uniform(0, np.pi)) for _ in range(4)]
            t = Mix(Mix(Mix(leaves[0], leaves[1], rng.uniform(0.2, 0.8),
                            tuple(rng.standard_normal(2))),
                        leaves[2], rng.uniform(0.2, 0.8),
                        tuple(rng.standard_normal(2))),
                    leaves[3], rng.uniform(0.2, 0.8),
                    tuple(rng.standard_normal(2)))
            m = er.er_member(ident, laminate_tree(t), tol=1e-8)
            worst = max(worst, m.residual)
            ok &= m.member
    report(5, "laminates stay on every relation (200 rank-1 + 50 rank-3)",
           ok, f"max residual {worst:.2e}")


def test_c06_volume_fraction_relation():
    rng = np.random.default_rng(0xACC6)
    worst = 0.0
    for _ in range(200):
        La = rand_spd(rng) + I2
        Lb = rand_spd(rng) + I2
        f = rng.uniform(0, 1)
        Ls = laminate2(er.lm_par(La, RPERP), er.lm_par(Lb, RPERP),
                       f, rng.standard_normal(2))
        pred = np.linalg.inv(f * np.linalg.inv(La) + (1 - f) * np.linalg.inv(Lb))
        worst = max(worst, np.abs(Ls[:2, :2] - pred).max())
    report(6, "volume-fraction relation L*^-1 = <L^-1>", worst < 1e-10,
           f"max deviation {worst:.2e}")


def test_c07_link_group():
    rng = np.random.default_rng(0xACC7)
    ok = True
    worst = 0.0
    for _ in range(100):
        m1 = lg.LinkMap(rng.standard_normal((2, 2)) + np.diag([0.4, 0.4]),
                        rng.standard_normal((2, 2)) + np.diag([0.4, 0.4]))
        m2 = lg.LinkMap(rng.standard_normal((2, 2)) + np.diag([0.4, 0.4]),
                        rng.standard_normal((2, 2)) + np.diag([0.4, 0.4]))
        L = kt_to_block(rand_pd_kt(rng))
        lhs = lg.psi_apply(m1, lg.psi_apply(m2, L))
        rhs = lg.psi_apply(lg.psi_compose(m1, m2), L)
        d = np.abs(lhs - rhs).max() / (1 + np.abs(lhs).max())
        worst = max(worst, d)
        ok &= d < 1e-9
    # the subgroup families reproduce their closed forms (up to the
    # conditioning of the pencil being inverted)
    for _ in range(50):
        L = kt_to_block(rand_pd_kt(rng))
        Li = np.linalg.inv(L)
        a0 = rng.uniform(-1, 1)
        ok &= np.abs(lg.psi_apply(lg.inverse_translation(a0), L)
                     - np.linalg.inv(Li + a0 * T4)).max() \
            < 1e-12 * np.linalg.cond(Li + a0 * T4)
        ok &= np.abs(lg.psi_apply(lg.inversion_flip(), L)
                     - np.linalg.inv(T4 - Li)).max() \
            < 1e-12 * np.linalg.cond(T4 - Li)
        ok &= np.abs(lg.psi_apply(lg.t_translation(a0), L) - L - a0 * T4).max() < 1e-12
    report(7, "global link group composition + subgroup families", ok,
           f"composition residual {worst:.2e}")


def _pair(tag, f, n):
    micro = RankOneModel(f, n)
    sig0 = np.array([[2.0, 0.3], [0.3, 1.5]])
    s1 = np.array([[2.0, 0.3], [0.3, 1.4]])
    d0 = det2(sig0)
    if tag == "2c":
        return tp.IsoPhasePair(tp.IsoPhase(sig0, 0.4),
                               tp.IsoPhase(2.5 * sig0, 0.4 + 1.5 * np.sqrt(d0)),
                               f, micro)
    if tag == "2a":
        return tp.IsoPhasePair(tp.IsoPhase(sig0, 0.3),
                               tp.IsoPhase(3.0 * sig0, 0.5), f, micro)
    if tag == "2b":
        return tp.IsoPhasePair(
            tp.IsoPhase(sig0, 0.3),
            tp.IsoPhase(3.0 * sig0, 0.3 + 2.0 * np.sqrt(d0) + 0.35), f, micro)
    if tag == "1cii":
        s2 = np.array([[1.0, -0.2], [-0.2, 1.8]])
        s2 = s2 * np.sqrt(det2(s1) / det2(s2))
        return tp.IsoPhasePair(tp.IsoPhase(s1, 0.5), tp.IsoPhase(s2, 0.5),
                               f, micro)
    if tag == "1aii":
        s2 = np.array([[3.1, 0.1], [0.1, 2.6]])
        return tp.IsoPhasePair(
            tp.IsoPhase(s1, 0.2),
            tp.IsoPhase(s2, 0.2 + np.sqrt(det2(s1 - s2))), f, micro)
    if tag == "1b":
        s2 = np.array([[3.4, -0.2], [-0.2, 1.9]])
        dr = abs(np.sqrt(det2(s1)) - np.sqrt(det2(s2))) + 0.5
        return tp.IsoPhasePair(tp.IsoPhase(s1, 0.25),
                               tp.IsoPhase(s2, 0.25 + dr), f, micro)
    raise KeyError(tag)


def test_c08_two_phase_solver():
    rng = np.random.default_rng(0xACC8)
    ok = True
    worst_exp = worst_imp = 0.0
    for tag in ("2c", "1cii", "1aii", "2a"):
        for _ in range(10):
            f = rng.uniform(0.15, 0.85)
            n = rng.standard_normal(2)
            pair = _pair(tag, f, n)
            res = tp.effective(pair)
            Llam = laminate2(pair.phase1.tensor(), pair.phase2.tensor(), f, n)
            d = np.abs(res.Lstar - Llam).max() / (1 + np.abs(Llam).max())
            worst_exp = max(worst_exp, d)
            ok &= d < 1e-9
    for tag in ("1b", "2b"):
        for _ in range(10):
            f = rng.uniform(0.15, 0.85)
            n = rng.standard_normal(2)
            pair = _pair(tag, f, n)
            res = tp.effective(pair)
            Llam = laminate2(pair.phase1.tensor(), pair.phase2.tensor(), f, n)
            d = res.residual(Llam)
            worst_imp = max(worst_imp, d)
            ok &= d < 1e-9
    # classifier vs discriminant sign on a 100 x 100 grid
    grid_ok = True
    for lam1 in np.linspace(1.2, 6.0, 100):
        for drfrac in np.linspace(0.02, 0.98, 100):
            s1 = I2
            s2 = np.diag([lam1, 0.6 * lam1])
            bnd = abs(1.0 - np.sqrt(det2(s2)))
            r2 = drfrac * 2.0 * bnd
            if r2 ** 2 >= det2(s2):
                continue
            pair = tp.IsoPhasePair(tp.IsoPhase(s1, 0.0), tp.IsoPhase(s2, r2), 0.5)
            red = tp.reduce_pair(pair)
            tag = tp.classify(pair).tag
            disc_real = tp.a0_roots(red.lam1 * red.lam2, red.rho) is not None
            grid_ok &= disc_real == (tag in ("1ai", "1aii", "1ci", "1cii"))
    ok &= grid_ok
    report(8, "two-phase solver vs laminates + classifier grid", ok,
           f"explicit {worst_exp:.2e}, implicit {worst_imp:.2e}")


def test_c09_polycrystal_solver():
    rng = np.random.default_rng(0xACC9)
    ok = True
    worst = 0.0
    for _ in range(30):
        while True:
            X = np.diag(rng.uniform(2, 4, 2)).astype(complex)
            X = X + rng.uniform(-0.5, 0.5) * np.array([[0, 1], [1, 0]])
            X = X + 1j * rng.uniform(-0.5, 0.5) * np.array([[0, 1], [-1, 0]])
            Y = 0.6 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            Y = (Y + Y.T) / 2
            k = KTensor(X, Y)
            from thermoex.tensor4 import is_positive_definite
            if is_positive_definite(k):
                break
        res = pc.solve_isotropic(k)
        Z = res.Z
        r1 = abs(res.theta * det2(Z).real - 1.0)
        r2 = np.abs(Z + k.Y @ np.linalg.inv(Z) @ k.Y.conj().T
                    - (k.X + k.X.conj())).max() / (1 + np.abs(Z).max())
        worst = max(worst, r1, r2)
        ok &= r1 < 1e-12 and r2 < 1e-12
        lam_star = np.linalg.inv(res.B @ res.B)
        m = lg.psi_normalizer(lam_star, res.alpha)
        pull = er.pullback(22, lg.psi_apply(m, kt_to_block(k)))
        pr = alg.algebra_by_id(22).residual(pull)
        worst = max(worst, pr)
        ok &= pr < 1e-10
    # closed forms
    res2 = pc.solve_isotropic(KTensor(2 * I2, I2))
    ok &= abs(res2.theta - (7 - 4 * np.sqrt(3))) < 1e-12
    thetas = sorted(t for t, _ in res2.roots)
    ok &= abs(thetas[-1] - (7 + 4 * np.sqrt(3))) < 1e-12
    p, q = 2.7, 4.1
    res3 = pc.solve_isotropic(KTensor(np.diag([(p + q) / 2, 1.0]),
                                      np.diag([(p - q) / 2, 0.0])))
    ok &= np.abs(res3.Lstar - np.diag([np.sqrt(p * q), 1.0])).max() < 1e-12
    report(9, "polycrystal residuals, closed forms, relation-22 pullback",
           ok, f"max residual {worst:.2e}")


def test_c10_kernel_oracles():
    rng = np.random.default_rng(0xACCA)
    ok = True
    worst = 0.0
    for i in range(10000):
        k = rand_kt(rng)
        B = kt_to_block(k)
        back = kt_from_block(B)
        ok &= (back - k).norm() < 1e-14 * (1 + k.norm())
        scale = 1 + np.abs(B).max()
        if i % 2 == 0:
            k2 = rand_kt(rng)
            d = np.abs(kt_to_block(kt_mul(k, k2)) - B @ kt_to_block(k2)).max()
            worst = max(worst, d / scale ** 2)
            ok &= d < 1e-12 * scale ** 2
        else:
            # the inverses the library uses: the resolvent D (I + M D)^-1
            # behind every W-transform and laminate, and the 2x2 inv2;
            # deviations are taken relative to the oracle's scale
            X = k.X + 3 * I2
            D = kt_to_block(KTensor(X, k.Y))
            M = kt_to_block(rand_kt(rng))
            ref = np.linalg.inv(np.linalg.inv(D) + M)
            cond1 = np.linalg.cond(I4 + M @ D)
            d1 = np.abs(resolvent(D, M) - ref).max() / (1 + np.abs(ref).max())
            ref = np.linalg.inv(X)
            cond2 = np.linalg.cond(X)
            d2 = np.abs(inv2(X) - ref).max() / (1 + np.abs(ref).max())
            worst = max(worst, d1 / cond1, d2 / cond2)
            ok &= d1 < 1e-12 * cond1 and d2 < 1e-12 * cond2
    # figure of merit: eigenvalue form vs isotropic closed form
    for _ in range(200):
        lam = rand_spd(rng)
        lam = lam + (abs(lam[0, 1]) + 0.1) * np.eye(2)   # keep ZT < 1 region PD
        zt1 = figure_of_merit(np.kron(lam, I2))
        zt2 = zt_isotropic(lam)
        d = abs(zt1 - zt2)
        worst = max(worst, d)
        ok &= d < 1e-12 * (1 + zt2)
    report(10, "kernel vs dense oracles (10^4 draws) + figure of merit",
           ok, f"worst scaled deviation {worst:.2e}")
