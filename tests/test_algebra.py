import numpy as np
import pytest

from thermoex import algebra as alg
from thermoex.tensor4 import (I2, KTensor, Z0, Z0SYM, jordan_star, kt_mul,
                              kt_to_block)
from conftest import rand_kt, scalar_sample

EXPECTED_DIMS = {
    1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1), 5: (1, 1), 6: (1, 1),
    7: (1, 1), 8: (1, 2), 9: (1, 2), 10: (1, 0), 11: (1, 1), 12: (1, 0),
    13: (1, 1), 14: (2, 0), 15: (2, 1), 16: (2, 2), 17: (2, 2), 18: (2, 0),
    19: (2, 1), 20: (2, 2), 21: (2, 3), 22: (3, 0), 23: (3, 4),
}

# computed once by the key-search algorithm; the entries pinned by the
# summary tables are 8, 13 -> 0 and 17, 20, 21, 22 -> I/2
EXPECTED_KEYS = {
    1: "0", 2: "0", 3: "I/2", 4: "0", 5: "I/2", 6: "I/2", 7: "I/2",
    8: "0", 9: "I/2", 10: "e1e1/2", 11: "0", 12: "I/2", 13: "0",
    14: "I/2", 15: "e2e2/2", 16: "0", 17: "I/2", 18: "I/2", 19: "I/2",
    20: "I/2", 21: "I/2", 22: "I/2", 23: "0",
}

ESSENTIAL = (8, 9, 13, 17, 20, 21, 22)


def test_catalog_shape():
    cat = alg.catalog()
    assert len(cat) == 23
    assert [s.ident for s in cat] == list(range(1, 24))
    for s in cat:
        assert s.dims == EXPECTED_DIMS[s.ident]
    assert cat[0].name == "(0,0)"
    assert cat[18].name == "(W,RZ0)"


def test_basis_independence():
    for s in alg.catalog():
        ks = s.k_basis()
        if not ks:
            continue
        G = np.array([[np.sum(kt_to_block(a) * kt_to_block(b)) for b in ks]
                      for a in ks])
        assert np.linalg.det(G) > 1e-10


def test_entry19_basis():
    s = alg.algebra_by_id(19)
    assert any(np.allclose(v, Z0) for v in s.v_basis)
    assert any(np.allclose(w, I2) for w in s.w_basis)
    assert any(np.allclose(w, Z0SYM) for w in s.w_basis)


def test_contains_and_project(rng):
    zero = KTensor(np.zeros((2, 2)), np.zeros((2, 2)))
    for s in alg.catalog():
        assert s.contains(zero)
    s3 = alg.algebra_by_id(3)
    assert s3.contains(KTensor(np.zeros((2, 2)), (2 + 1j) * I2))
    assert not s3.contains(KTensor(I2, np.zeros((2, 2))))
    for s in alg.catalog():
        k = rand_kt(rng)
        p = s.project(k)
        assert s.contains(p, tol=1e-12)
        assert s.contains(s.project(p) - p, tol=1e-12)  # idempotent


def test_closure_all_entries():
    for s in alg.catalog():
        rep = alg.check_closure(s, trials=200)
        assert rep.passed, (s.ident, rep.max_residual)


def test_closure_specifics(rng):
    # entry 2: X^T X = 0 for X in R*Z0
    X = 1.7 * Z0
    assert np.abs(X.T @ X).max() < 1e-12
    # entry 3: squares of z*I stay in C*I
    z = 1.2 - 0.3j
    zero = np.zeros((2, 2))
    assert alg.algebra_by_id(3).residual(KTensor(zero, (z * I2) @ (z * I2))) < 1e-14


def test_closure_negative_control():
    # corrupting one basis vector must break closure
    bad = alg.AlgebraSpec(5, "broken", (np.array([[0, 1], [1, 0.3]], complex),),
                          (I2.astype(complex),))
    rep = alg.check_closure(bad, trials=50)
    assert not rep.passed


def test_subalgebra_table():
    for ident, subs in alg.SUBALGEBRAS.items():
        spec = alg.algebra_by_id(ident)
        for s in subs:
            assert alg.is_subalgebra(alg.algebra_by_id(s), spec), (ident, s)
    # negatives: psi(i) is not in Phi, Ann(Cz0bar) not in (D,D')
    assert not alg.is_subalgebra(alg.algebra_by_id(5), alg.algebra_by_id(8))
    assert not alg.is_subalgebra(alg.algebra_by_id(13), alg.algebra_by_id(17))
    assert alg.is_subalgebra(alg.algebra_by_id(1), alg.algebra_by_id(14))


def test_ideal_table():
    for ident, ideals in alg.IDEALS.items():
        spec = alg.algebra_by_id(ident)
        for s in ideals:
            assert alg.is_ideal(alg.algebra_by_id(s), spec, trials=200), (ident, s)


def test_ideal_specifics():
    # (0,RZ0) sits in (W,RZ0) as an ideal; Ann(Cz0bar) in (W,V)
    assert alg.is_ideal(alg.algebra_by_id(2), alg.algebra_by_id(19))
    assert alg.is_ideal(alg.algebra_by_id(13), alg.algebra_by_id(21))
    # subalgebra that is not an ideal: (CI,0) inside (CI,RI)
    assert alg.is_subalgebra(alg.algebra_by_id(3), alg.algebra_by_id(4))
    assert not alg.is_ideal(alg.algebra_by_id(3), alg.algebra_by_id(4))


def test_squares():
    for ident, target in alg.SQUARES.items():
        rep = alg.check_square(alg.algebra_by_id(ident),
                               alg.algebra_by_id(target), trials=200)
        assert rep.passed, (ident, rep.max_residual)


def test_factor_pairs():
    """Each reduced factor pair: ideal is an ideal and the complement is a
    subalgebra intersecting it trivially with matching dimensions."""
    for ident, ideal_id, comp_id in alg.FACTOR_PAIRS:
        spec = alg.algebra_by_id(ident)
        ideal = alg.algebra_by_id(ideal_id)
        comp = alg.algebra_by_id(comp_id)
        assert alg.is_ideal(ideal, spec, trials=100)
        dim = lambda s: 2 * s.dims[0] + s.dims[1]
        assert dim(ideal) + dim(comp) == dim(spec)


def test_inversion_keys():
    for spec in alg.catalog():
        key = alg.find_inversion_key(spec, trials=200)
        assert alg.key_name(key) == EXPECTED_KEYS[spec.ident], spec.ident
        assert alg.key_condition_residual(spec, key, trials=200) <= 1e-10


def test_key_condition_failures():
    # key 0 fails for entry 22 (nonzero squares leave the subspace)
    res = alg.key_condition_residual(alg.algebra_by_id(22), alg.KEY_ZERO,
                                     trials=50)
    assert res > 1e-3


def test_chains_essential():
    for ident in ESSENTIAL:
        rep = alg.check_chain(alg.algebra_by_id(ident), trials=200)
        assert rep.passed, (ident, rep.max_residual)
    rep23 = alg.check_chain(alg.algebra_by_id(23), trials=50)
    assert rep23.passed


def test_chain_volume_fraction_13():
    rep = alg.check_chain(alg.algebra_by_id(13), trials=200,
                          target=alg.algebra_by_id(1))
    assert rep.passed


def test_chain_ideals():
    for a, i in ((19, 2), (19, 12), (21, 13)):
        rep = alg.check_chain_ideal(alg.algebra_by_id(i), alg.algebra_by_id(a),
                                    trials=200)
        assert rep.passed, (a, i, rep.max_residual)


def test_global_automorphism(rng):
    full = alg.algebra_by_id(23)
    ident = alg.global_automorphism(I2)
    k = rand_kt(rng)
    assert (ident(k) - k).norm() < 1e-15
    for c, sign in ((0.4 + 0.2j, 1), (1.1 - 0.3j, -1)):
        phi = alg.global_automorphism(alg.c_plus(c), sign)
        assert alg.automorphism_defect(phi, full, trials=100) < 1e-10
        phim = alg.global_automorphism(alg.c_minus(c), sign)
        assert alg.automorphism_defect(phim, full, trials=100) < 1e-10
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"C must satisfy C C\^T = I"):
        alg.global_automorphism(shear)
    with pytest.raises(ValueError, match=r"C must satisfy C C\^T = I"):
        alg.transform_spec(full, shear)


def test_entry19_alpha_family(rng):
    spec = alg.algebra_by_id(19)
    desc = alg.AutomorphismDesc("scale_z0", alpha=2.0)
    k = spec.sample(rng)
    out = alg.apply_automorphism(desc, k)
    assert np.allclose(out.X, 2.0 * k.X)      # X proportional to Z0 doubles
    assert np.allclose(out.Y, k.Y)
    phi = lambda kk: alg.apply_automorphism(desc, kk)
    assert alg.automorphism_defect(phi, spec, trials=200) < 1e-10


def test_per_entry_families():
    cases = [
        (4, alg.AutomorphismDesc("flip_x")),
        (5, alg.AutomorphismDesc("flip_x")),
        (6, alg.AutomorphismDesc("flip_x")),
        (11, alg.AutomorphismDesc("flip_x")),
        (15, alg.AutomorphismDesc("flip_x")),
        (17, alg.AutomorphismDesc("flip_x")),
        (13, alg.AutomorphismDesc("scale_w", a=0.7 - 0.4j, alpha=1.8)),
        (18, alg.AutomorphismDesc("scale_w", a=1.3 + 0.5j)),
        (19, alg.AutomorphismDesc("scale_w", a=1.3 + 0.5j, alpha=-0.6)),
        (14, alg.AutomorphismDesc("swap_d")),
        (16, alg.AutomorphismDesc("swap_d", swap_x=1)),
        (17, alg.AutomorphismDesc("swap_d", swap_x=-1)),
    ]
    for ident, desc in cases:
        spec = alg.algebra_by_id(ident)
        phi = lambda k, d=desc: alg.apply_automorphism(d, k)
        assert alg.automorphism_defect(phi, spec, trials=100) < 1e-10, (ident, desc)


def test_global_key_zero_violation(rng):
    """C+(0.3i) is complex orthogonal but does not commute with plain
    squaring, so the zero inversion key fails for the global link."""
    phi = alg.global_automorphism(alg.c_plus(0.3j))
    full = alg.algebra_by_id(23)
    worst = 0.0
    for _ in range(100):
        k = full.sample(rng)
        d = (phi(kt_mul(k, k)) - kt_mul(phi(k), phi(k))).norm() / (1 + k.norm() ** 2)
        worst = max(worst, d)
    assert worst > 1e-3
    # while real rotations do commute with squaring
    phir = alg.global_automorphism(alg.c_plus(0.3))
    worst_r = 0.0
    for _ in range(100):
        k = full.sample(rng)
        d = (phir(kt_mul(k, k)) - kt_mul(phir(k), phir(k))).norm() / (1 + k.norm() ** 2)
        worst_r = max(worst_r, d)
    assert worst_r < 1e-12


def test_report_json():
    rep = alg.check_closure(alg.algebra_by_id(7), trials=10)
    obj = rep.to_json()
    assert obj["algebra_id"] == 7 and obj["check"] == "closure"
    assert set(obj) == {"algebra_id", "check", "trials", "max_residual", "pass"}


def test_orbit_variants():
    """Transported entries stay closed; named orbit families reproduced."""
    rngo = np.random.default_rng(99)
    for ident in (2, 4, 5, 10, 11, 14, 16, 17, 20):
        spec = alg.algebra_by_id(ident)
        for _ in range(3):
            c = rngo.uniform(-1, 1) + 1j * rngo.uniform(-0.5, 0.5)
            C = alg.c_plus(c) if rngo.uniform() < 0.5 else alg.c_minus(c)
            var = alg.transform_spec(spec, C)
            rep = alg.check_closure(var, trials=60)
            assert rep.passed, (ident, c, rep.max_residual)
    # identity-line orbit: C+(it) tilts R*I into the hyperbolic family
    t = 0.37
    var4 = alg.transform_spec(alg.algebra_by_id(4), alg.c_plus(1j * t))
    tilted = var4.v_basis[0]
    expect = np.array([[np.cosh(2 * t), 1j * np.sinh(2 * t)],
                       [-1j * np.sinh(2 * t), np.cosh(2 * t)]])
    assert np.abs(tilted - expect).max() < 1e-12
    # reflection-line orbit: C+(a) rotates psi(i) to psi(e^{-2ia}) directions
    a = 0.25
    var5 = alg.transform_spec(alg.algebra_by_id(5), alg.c_plus(a))
    got = var5.v_basis[0]
    z = np.exp(-2j * a) * 1j
    expect5 = np.array([[z.real, z.imag], [z.imag, -z.real]])
    assert np.abs(got - expect5).max() < 1e-12


# -- stacked audits against per-trial loops --------------------------------
# The audits draw all trials as one coefficient block and evaluate them as
# one stack of 4x4 blocks.  The references below redo each audit the
# unstacked way: one trial at a time from scalar draws, single-block
# products, and the residual as the norm of one coordinate vector,
# np.linalg.norm(v - P @ v).

STEER = alg.algebra_by_id(3)                     # the K(0, z I)
CONJ = kt_to_block(KTensor(np.zeros((2, 2)), I2))  # K(0, I)


def _ref_draw(spec, rng):
    return kt_to_block(scalar_sample(spec, rng))


def _ref_residual(spec, B):
    v = alg._sym4(B)
    return float(np.linalg.norm(v - spec._proj @ v)) / (1.0 + float(np.linalg.norm(v)))


def _ref_chain(*factors):
    fwd, bwd = factors[0], factors[-1]
    for f in factors[1:]:
        fwd = fwd @ f
    for f in factors[-2::-1]:
        bwd = bwd @ f
    return fwd + bwd


def _ref_jordan(k1, a, k2):
    return 0.5 * ((k1 @ a) @ k2 + (k2 @ a) @ k1)


REF_TRIALS = 50


def test_sample_matches_scalar_draws():
    eps = np.finfo(float).eps
    for spec in list(alg.catalog()) + list(alg.EXTRA_SUBALGEBRAS.values()):
        for scale in (1.0, 0.7):
            r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
            want = scalar_sample(spec, r1, scale)
            assert spec.sample_block(r2, scale).tobytes() == kt_to_block(want).tobytes()
            assert r1.uniform() == r2.uniform()      # same number of draws
            r1, r2 = np.random.default_rng(11), np.random.default_rng(11)
            k = spec.sample(r1, scale)
            assert (k - scalar_sample(spec, r2, scale)).norm() <= 4 * eps * scale
            assert r1.uniform() == r2.uniform()
        # an audit's stacked draws equal a loop of single draws, trial by trial
        ks = alg._draws(7, 6, [spec, spec, STEER])
        rng = np.random.default_rng(7)
        for t in range(6):
            for got, s in zip(ks, (spec, spec, STEER)):
                assert got[t].tobytes() == _ref_draw(s, rng).tobytes()
    # sample_a0 draws the steering operator K(0, z I) of one scalar pair
    r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
    z = complex(*r2.uniform(-1.0, 1.0, 2))
    a0 = alg.sample_a0(r1)
    assert np.array_equal(a0.X, np.zeros((2, 2))) and np.array_equal(a0.Y, z * I2)


def test_check_chain_matches_trial_loop():
    for ident in (21, 23):
        spec = alg.algebra_by_id(ident)
        rng = np.random.default_rng(alg.DEFAULT_SEED + 4513 * ident)
        worst = 0.0
        for _ in range(REF_TRIALS):
            k = [_ref_draw(spec, rng) for _ in range(4)]
            a = [_ref_draw(STEER, rng) for _ in range(3)]
            c3 = _ref_chain(k[0], a[0], k[1], a[1], k[2])
            c4 = _ref_chain(k[0], a[0], k[1], a[1], k[2], a[2], k[3])
            worst = max(worst, _ref_residual(spec, c3), _ref_residual(spec, c4))
        rep = alg.check_chain(spec, trials=REF_TRIALS)
        assert rep.max_residual == worst and rep.trials == REF_TRIALS, ident


def test_check_closure_matches_trial_loop():
    for ident in (9, 16, 21, 23):
        spec = alg.algebra_by_id(ident)
        rng = np.random.default_rng(alg.DEFAULT_SEED + ident)
        worst = 0.0
        for _ in range(REF_TRIALS):
            k = _ref_draw(spec, rng)
            worst = max(worst, _ref_residual(spec, (k @ CONJ) @ k))
        assert alg.check_closure(spec, trials=REF_TRIALS).max_residual == worst


def _span_distance(basis, M):
    """Frobenius distance of the complex 2x2 ``M`` from the real span of
    ``basis``, by least squares on the real and imaginary parts."""
    m = np.asarray(M, complex).ravel().view(float)
    if not basis:
        return float(np.linalg.norm(m))
    A = np.stack([np.asarray(b, complex).ravel().view(float) for b in basis], 1)
    return float(np.linalg.norm(m - A @ np.linalg.lstsq(A, m, rcond=None)[0]))


def test_closure_matches_xy_reference():
    """The closure audit measures the paper's (X, Y) condition: the distance
    of the block K K(0, I) K from the subspace is sqrt(2) times that of
    (Y X + X Y^H, Y^2 + X X^T) from V (+) W, each part projected by lstsq,
    to 1e-12 of 1 + |K|^2.  It holds on every entry and on the broken one of
    the negative control."""
    bad = alg.AlgebraSpec(5, "broken", (np.array([[0, 1], [1, 0.3]], complex),),
                          (I2.astype(complex),))
    worst_bad = 0.0
    for spec in list(alg.catalog()) + [bad]:
        rng = np.random.default_rng(alg.DEFAULT_SEED + spec.ident)
        w_span = list(spec.w_basis) + [1j * w for w in spec.w_basis]
        for _ in range(REF_TRIALS):
            k = scalar_sample(spec, rng)
            X, Y = k.X, k.Y
            v = _span_distance(spec.v_basis, Y @ X + X @ Y.conj().T)
            w = _span_distance(w_span, Y @ Y + X @ X.T)
            K = kt_to_block(k)
            u = alg._sym4(K @ CONJ @ K)
            block = float(np.linalg.norm(u - spec._proj @ u))
            # relative to the quadratic scale of the product, as the audit
            scale = 1.0 + np.linalg.norm(K) ** 2
            assert abs(np.sqrt(2) * np.hypot(v, w) - block) <= 1e-12 * scale
            if spec is bad:
                worst_bad = max(worst_bad, block)
    assert worst_bad > 1e-3


def test_check_ideal_matches_trial_loop():
    for a, i in ((19, 13), (21, 13), (23, 1), (15, -10)):
        spec, ideal = alg.algebra_by_id(a), alg.algebra_by_id(i)
        rng = np.random.default_rng(alg.DEFAULT_SEED + 131 * a + i)
        worst = 0.0
        for _ in range(REF_TRIALS):
            j, k, a0 = (_ref_draw(s, rng) for s in (ideal, spec, STEER))
            worst = max(worst, _ref_residual(ideal, _ref_jordan(j, a0, k)))
        rep = alg.check_ideal(ideal, spec, trials=REF_TRIALS)
        assert rep.max_residual == worst and rep.passed
        assert rep.check == f"ideal:{i}" and rep.algebra_id == a
        assert alg.is_ideal(ideal, spec, trials=REF_TRIALS) is True


def test_jordan_star_and_residual_take_operators_and_blocks(rng):
    """jordan_star of operators is the kt_mul form byte for byte, and of
    blocks the block of it to 4 eps; residual takes either form."""
    eps = np.finfo(float).eps
    spec = alg.algebra_by_id(23)
    n = 40
    ks = [[rand_kt(rng) for _ in range(n)] for _ in range(3)]
    k1, a, k2 = (KTensor(np.stack([k.X for k in col]), np.stack([k.Y for k in col]))
                 for col in ks)
    for args in [(k1, a, k2)] + [tuple(col[t] for col in ks) for t in range(n)]:
        star = jordan_star(*args)
        p, q, r = args
        ref = 0.5 * (kt_mul(kt_mul(p, q), r) + kt_mul(kt_mul(r, q), p))
        assert star.X.tobytes() == ref.X.tobytes()
        assert star.Y.tobytes() == ref.Y.tobytes()
        B = jordan_star(*map(kt_to_block, args))
        want = kt_to_block(star)
        err = np.linalg.norm(B - want, axis=(-2, -1))
        assert (err <= 4 * eps * np.linalg.norm(want, axis=(-2, -1))).all()
        assert np.array_equal(spec.residual(star), spec.residual(want))
        assert np.array_equal(spec.residual(p), spec.residual(kt_to_block(p)))


def test_check_ideal_reports_failures():
    # 3 is a subalgebra of 4 but not an ideal of it; 4 is no subalgebra of 3
    rep = alg.check_ideal(alg.algebra_by_id(3), alg.algebra_by_id(4), trials=20)
    assert not rep.passed and rep.max_residual > 1e-3
    rep = alg.check_ideal(alg.algebra_by_id(4), alg.algebra_by_id(3), trials=20)
    assert not rep.passed
    assert alg.is_ideal(alg.algebra_by_id(4), alg.algebra_by_id(3)) is False


def test_key_residual_matches_trial_loop():
    for ident in (8, 10, 15, 23):
        spec = alg.algebra_by_id(ident)
        for _, key in alg._KEY_CANDIDATES:
            mid = kt_to_block(KTensor(I2 - 2.0 * key, np.zeros((2, 2))))
            rng = np.random.default_rng(alg.DEFAULT_SEED + 7919 * ident)
            worst = 0.0
            for _ in range(REF_TRIALS):
                k = _ref_draw(spec, rng)
                worst = max(worst, _ref_residual(spec, (k @ mid) @ k))
            got = alg.key_condition_residual(spec, key, trials=REF_TRIALS)
            assert got == worst, (ident, key)


def test_audits_with_zero_trials():
    spec = alg.algebra_by_id(23)
    assert alg.check_chain(spec, trials=0).max_residual == 0.0
    assert alg.check_closure(spec, trials=0).passed
    assert alg.key_condition_residual(spec, alg.KEY_ZERO, trials=0) == 0.0
