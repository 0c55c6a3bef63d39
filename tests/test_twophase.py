import dataclasses
import math

import numpy as np
import pytest

from thermoex import linkgroup as lg
from thermoex import twophase as tp
from thermoex.laminate import RankOneModel, IteratedRank2Model, laminate2
from thermoex.tensor4 import I2, I4, cof2, det2
from conftest import draw_model, draw_pair, make_pair, rand_spd, rel_err

SIG0 = np.array([[2.0, 0.3], [0.3, 1.5]])
S1M = np.array([[2.0, 0.3], [0.3, 1.4]])
S2M = np.array([[3.4, -0.2], [-0.2, 1.9]])
D0 = det2(SIG0)
D1, D2 = det2(S1M), det2(S2M)


def pair_for(tag, f=0.37, n=(1.0, 0.0), micro=None):
    micro = micro or RankOneModel(f, n)
    if tag == "2c":
        ph = (tp.IsoPhase(SIG0, 0.4),
              tp.IsoPhase(2.5 * SIG0, 0.4 + 1.5 * np.sqrt(D0)))
    elif tag == "2a":
        ph = (tp.IsoPhase(SIG0, 0.3), tp.IsoPhase(3.0 * SIG0, 0.5))
    elif tag == "2b":
        ph = (tp.IsoPhase(SIG0, 0.3),
              tp.IsoPhase(3.0 * SIG0, 0.3 + 2.0 * np.sqrt(D0) + 0.35))
    elif tag == "1ai":
        ph = (tp.IsoPhase(S1M, 0.25),
              tp.IsoPhase(S2M, 0.25 + 0.5 * abs(np.sqrt(D1) - np.sqrt(D2))))
    elif tag == "1aii":
        s2 = np.array([[3.1, 0.1], [0.1, 2.6]])
        ph = (tp.IsoPhase(S1M, 0.2),
              tp.IsoPhase(s2, 0.2 + np.sqrt(det2(S1M - s2))))
    elif tag == "1b":
        ph = (tp.IsoPhase(S1M, 0.25),
              tp.IsoPhase(S2M, 0.25 + abs(np.sqrt(D1) - np.sqrt(D2)) + 0.5))
    elif tag == "1ci":
        ph = (tp.IsoPhase(S1M, 0.25),
              tp.IsoPhase(S2M, 0.25 + np.sqrt(D2) - np.sqrt(D1)))
    elif tag == "1cii":
        s2 = np.array([[1.0, -0.2], [-0.2, 1.8]])
        s2 = s2 * np.sqrt(D1 / det2(s2))
        ph = (tp.IsoPhase(S1M, 0.5), tp.IsoPhase(s2, 0.5))
    else:
        raise KeyError(tag)
    return tp.IsoPhasePair(ph[0], ph[1], f, micro)


ALL_TAGS = ("1ai", "1aii", "1b", "1ci", "1cii", "2a", "2b", "2c")


def test_phase_validation():
    with pytest.raises(ValueError):
        tp.IsoPhase(I2, 1.5)
    with pytest.raises(ValueError):
        tp.IsoPhase(-I2, 0.0)
    ph = tp.IsoPhase(SIG0, 0.4)
    L = ph.tensor()
    assert np.allclose(L, L.T)
    assert np.linalg.eigvalsh(L).min() > 0


def test_phase_equality_and_hash():
    ph = tp.IsoPhase(I2, 0.1)
    assert ph == tp.IsoPhase(I2, 0.1) and hash(ph) == hash(tp.IsoPhase(I2, 0.1))
    assert ph != tp.IsoPhase(I2, 0.2) and ph != tp.IsoPhase(2 * I2, 0.1)
    assert len({ph, tp.IsoPhase(np.eye(2), 0.1)}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        ph.r = 0.2


def test_reduce(rng):
    pair = tp.IsoPhasePair(tp.IsoPhase(I2, 0.1), tp.IsoPhase(I2, 0.4), 0.5)
    red = tp.reduce_pair(pair)
    assert np.allclose((red.lam1, red.lam2), (1.0, 1.0))
    assert abs(red.rho - 0.3) < 1e-14
    pair2 = tp.IsoPhasePair(tp.IsoPhase(I2, 0.0),
                            tp.IsoPhase(np.diag([4.0, 1.0]), 0.0), 0.5)
    red2 = tp.reduce_pair(pair2)
    assert abs(red2.lam1 - 4.0) < 1e-12 and abs(red2.lam2 - 1.0) < 1e-12
    for _ in range(30):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        s1, s2 = A @ A.T + 0.5 * I2, B @ B.T + 0.5 * I2
        pair3 = tp.IsoPhasePair(tp.IsoPhase(s1, 0.0), tp.IsoPhase(s2, 0.0), 0.5)
        red3 = tp.reduce_pair(pair3)
        evals = np.sort(np.linalg.eigvals(np.linalg.inv(s1) @ s2).real)[::-1]
        assert abs(red3.lam1 - evals[0]) < 1e-10
        assert abs(red3.lam2 - evals[1]) < 1e-10
        assert red3.lam1 >= red3.lam2 > 0


def test_classify_pinned():
    t1 = tp.classify(tp.IsoPhasePair(tp.IsoPhase(I2, 0.0),
                                     tp.IsoPhase(4 * I2, 0.0), 0.5))
    assert t1.tag == "2a"
    # borderline proportional pair: |dr| equals |sqrt det1 - sqrt det2| = 3
    t2 = tp.classify(tp.IsoPhasePair(tp.IsoPhase(I2, 0.0),
                                     tp.IsoPhase(4 * I2, 3.0), 0.5))
    assert t2.tag == "2c"
    t2b = tp.classify(tp.IsoPhasePair(tp.IsoPhase(I2, 0.0),
                                      tp.IsoPhase(4 * I2, 3.5), 0.5))
    assert t2b.tag == "2b"
    t3 = tp.classify(tp.IsoPhasePair(tp.IsoPhase(np.diag([1.0, 2.0]), 0.0),
                                     tp.IsoPhase(np.diag([3.0, 1.0]), 1.35), 0.5))
    assert t3.tag == "1b"
    for tag in ALL_TAGS:
        assert tp.classify(pair_for(tag)).tag == tag


def test_reduce_pair_once_per_solve(monkeypatch):
    calls = []

    def counted(pair):
        calls.append(pair)
        return reduce_pair(pair)

    reduce_pair = tp.reduce_pair
    monkeypatch.setattr(tp, "reduce_pair", counted)
    for tag in ALL_TAGS:
        calls.clear()
        assert tp.effective(pair_for(tag)).case.tag == tag
        assert len(calls) == 1, tag


def test_a0_roots():
    r = tp.a0_roots(4.0, 1.0)
    assert abs(r[0] - 1.0) < 1e-12 and abs(r[1] - 1.0) < 1e-12
    assert tp.a0_roots(2.0, 0.0) == (0.0, np.inf)
    assert tp.a0_roots(1.5, 1.2) is None       # strongly coupled
    dets, rho = 6.0, 0.7
    r1, r2 = tp.a0_roots(dets, rho)
    assert abs(r1 * r2 - 1.0) < 1e-12
    # PD-selection products multiply to 1/det
    prod = (r1 / (rho + r1)) * (r2 / (rho + r2))
    assert abs(prod - 1.0 / dets) < 1e-12


def test_strong_ab():
    # det-symmetric pair with opposite couplings: A vanishes
    pair = tp.IsoPhasePair(tp.IsoPhase(S1M, -0.3), tp.IsoPhase(S1M @ I2, 0.3), 0.5)
    _, _, A, _ = tp.strong_ab(pair)
    assert abs(A) < 1e-14
    # borderline |dr| = |sqrt d1 - sqrt d2| makes B vanish
    pairb = pair_for("1ci")
    _, _, _, B = tp.strong_ab(pairb)
    assert abs(B) < 1e-10
    pb = pair_for("1b")
    a, b, A, B = tp.strong_ab(pb)
    assert a > 0 and B > 0


def test_s_matrices():
    pair = pair_for("1b")
    S1, S2 = tp.s_matrices(pair)
    red = tp.reduce_pair(pair)
    assert np.abs(S1 + S2 - pair.phase1.sig).max() < 1e-12
    assert np.abs(red.lam2 * S1 + red.lam1 * S2 - pair.phase2.sig).max() < 1e-12
    with pytest.raises(ValueError):
        tp.s_matrices(pair_for("2a"))


@pytest.mark.parametrize("tag", ["2c", "1cii", "1aii", "2a", "1ai"])
@pytest.mark.parametrize("f,n", [(0.37, (1.0, 0.0)), (0.61, (0.6, 0.8))])
def test_explicit_cases_match_laminate(tag, f, n):
    pair = pair_for(tag, f=f, n=n)
    res = tp.effective(pair)
    assert res.kind == "explicit"
    Llam = laminate2(pair.phase1.tensor(), pair.phase2.tensor(), f, n)
    assert rel_err(res.Lstar, Llam) < 1e-9
    assert np.array_equal(res.Lstar, res.Lstar.T)


@pytest.mark.parametrize("tag", ["2c", "1cii", "1aii", "2a", "1ai"])
def test_explicit_cases_rank2_micro(tag):
    micro = IteratedRank2Model(0.45, (1.0, 0.0), 0.7, (0.0, 1.0))
    pair = pair_for(tag, f=micro.phase1_fraction, micro=micro)
    res = tp.effective(pair)
    Llam = micro.tensor(pair.phase1.tensor(), pair.phase2.tensor())
    assert rel_err(res.Lstar, Llam) < 1e-9


def test_pair_fraction_has_one_source():
    """With a microstructure, the pair's fraction is the model's: a given f
    within 1e-12 of it is replaced by it, one further away raises."""
    micro = IteratedRank2Model(0.45, (1.0, 0.0), 0.7, (0.0, 1.0))
    p1, p2 = tp.IsoPhase(SIG0, 0.3), tp.IsoPhase(3.0 * SIG0, 0.5)
    for f in (0.37, micro.phase1_fraction + 2e-12, 1.0):
        with pytest.raises(ValueError, match="differs from the microstructure"):
            tp.IsoPhasePair(p1, p2, f, micro)
    pair = tp.IsoPhasePair(p1, p2, micro.phase1_fraction - 5e-13, micro)
    assert pair.f == micro.phase1_fraction
    assert tp.IsoPhasePair(p1, p2, 1, None).f == 1.0


@pytest.mark.parametrize("tag", ["1b", "2b"])
def test_implicit_cases(tag):
    for f, n in ((0.37, (1.0, 0.0)), (0.55, (0.6, 0.8))):
        pair = pair_for(tag, f=f, n=n)
        res = tp.effective(pair)
        assert res.kind == "implicit"
        Llam = laminate2(pair.phase1.tensor(), pair.phase2.tensor(), f, n)
        assert res.residual(Llam) < 1e-9
        # a generic perturbation violates the constraint
        assert res.residual(Llam + 0.05 * I4) > 1e-4


def test_case_1ci_structure():
    pair = pair_for("1ci", f=0.43, n=(1.0, 0.0))
    res = tp.effective(pair)
    assert res.kind == "link"
    assert res.metadata["structure_residual"] < 1e-9
    Lp = res.metadata["free_parameter"]
    assert np.linalg.eigvalsh(Lp).min() > 0
    recon = res.metadata["reconstruct"](Lp)
    assert rel_err(recon, res.Lstar) < 1e-9
    # the free parameter really is microstructure dependent: different
    # normals give different Lp but the same sigma_star contrast
    pair2 = pair_for("1ci", f=0.43, n=(0.0, 1.0))
    res2 = tp.effective(pair2)
    assert np.abs(res2.metadata["free_parameter"] - Lp).max() > 1e-3


def test_2c_is_microstructure_independent():
    p1 = pair_for("2c", f=0.3, n=(1.0, 0.0))
    # same overall phase-1 fraction 0.3, very different geometry
    p2 = pair_for("2c", f=0.3, micro=IteratedRank2Model(0.6, (0.2, 1.0),
                                                        0.5, (1.0, 0.0)))
    r1 = tp.effective(p1)
    assert rel_err(r1.Lstar, tp.effective(p2).Lstar) < 1e-12


def test_index_interchange():
    """Swapping phase labels with f -> 1-f leaves explicit answers fixed."""
    for tag in ("1aii", "1cii", "2a", "2c", "1ai"):
        f, n = 0.37, (0.6, 0.8)
        pair = pair_for(tag, f=f, n=n)
        swapped = tp.IsoPhasePair(pair.phase2, pair.phase1, 1.0 - f,
                                  RankOneModel(1.0 - f, n))
        r1 = tp.effective(pair)
        r2 = tp.effective(swapped)
        assert rel_err(r1.Lstar, r2.Lstar) < 1e-9, tag


def test_root_pairing_invariance():
    """a0 -> 1/a0 with lam1 <-> lam2, S1 <-> S2, sig* -> sig*/det."""
    pair = pair_for("1aii", f=0.4)
    red = tp.reduce_pair(pair)
    S1, S2 = tp.s_matrices(pair)
    a0 = (red.lam1 - 1.0) / red.rho
    sig_star = pair.micro.sigma_star(red.lam1 / red.lam2)
    L = tp.formula_1aii(pair.phase1.r, pair.phase1.sig, S1, S2, a0, sig_star)
    Lp = tp.formula_1aii(pair.phase1.r, pair.phase1.sig, S2, S1, 1.0 / a0,
                         sig_star / det2(sig_star))
    assert rel_err(L, Lp) < 1e-10


@pytest.mark.parametrize("micro", [
    RankOneModel(0.3, (0.6, 0.8)),
    IteratedRank2Model(0.4, (1.0, 0.3), 0.7, (0.2, 1.0))])
def test_1aii_with_equal_couplings(micro):
    """r1 = r2 gives rho = 0, where the decoupling roots are 0 and inf: the
    1aii tensor is the laminate's, whichever contrast eigenvalue is 1."""
    v = np.array([0.6, -0.8])
    pairs = [(I2, np.diag([1.0, 2.0])),       # lam2 = 1
             (I2, np.diag([1.0, 0.5])),       # lam1 = 1
             (SIG0, SIG0 + 0.7 * np.outer(v, v)),
             (SIG0, SIG0 - 0.4 * np.outer(v, v))]
    for s1, s2 in pairs:
        pair = tp.IsoPhasePair(tp.IsoPhase(s1, 0.1), tp.IsoPhase(s2, 0.1),
                               micro.phase1_fraction, micro)
        res = tp.effective(pair)
        assert res.case.tag == "1aii" and res.metadata["a0"] == 0.0
        ref = micro.tensor(pair.phase1.tensor(), pair.phase2.tensor())
        assert rel_err(res.Lstar, ref) < 1e-9, (s1, s2)


def test_classifier_matches_discriminant():
    """The weak/strong split coincides with the sign of the decoupling
    quadratic's discriminant on a parameter grid."""
    grid = 40
    for lam1 in np.linspace(1.2, 5.0, grid):
        for drfrac in np.linspace(0.05, 0.95, grid):
            s1 = I2
            s2 = np.diag([lam1, 0.7 * lam1])
            bnd = abs(np.sqrt(det2(s1)) - np.sqrt(det2(s2)))
            r2 = drfrac * 2.0 * bnd     # spans both sides of the boundary
            if r2 ** 2 >= det2(s2):
                continue
            pair = tp.IsoPhasePair(tp.IsoPhase(s1, 0.0), tp.IsoPhase(s2, r2), 0.5)
            red = tp.reduce_pair(pair)
            tag = tp.classify(pair).tag
            disc_real = tp.a0_roots(red.lam1 * red.lam2, red.rho) is not None
            assert disc_real == (tag in ("1ai", "1aii", "1ci", "1cii")), \
                (lam1, drfrac, tag)


def test_effective_requires_micro():
    pair = pair_for("1aii")
    bare = tp.IsoPhasePair(pair.phase1, pair.phase2, pair.f, None)
    with pytest.raises(ValueError):
        tp.effective(bare)
    # 2c needs no microstructure
    p2c = pair_for("2c")
    bare2c = tp.IsoPhasePair(p2c.phase1, p2c.phase2, p2c.f, None)
    assert tp.effective(bare2c).Lstar is not None


EPS = np.finfo(float).eps


# -- the float boundary ---------------------------------------------------------

def _numpy_frame(pair):
    """reduce_pair and the classify scalars as the numpy expressions that the
    Python-float code replaced: spd_sqrt_2x2 by np.ldexp, inv2 by cof2,
    the descending reorder by argsort and the sign flip by det2(V)."""
    s1, s2 = pair.phase1.sig, pair.phase2.sig
    r1, r2 = pair.phase1.r, pair.phase2.r
    k = math.frexp(max(s1[0, 0], s1[1, 1]))[1] // 2
    t = np.ldexp(s1, -2 * k)
    q = np.sqrt(det2(t))
    s1h = np.ldexp((t + q * I2) / np.sqrt(t[0, 0] + t[1, 1] + 2.0 * q), k)
    s1hi = cof2(s1h).T / det2(s1h)
    sig = s1hi @ s2 @ s1hi
    w, V = np.linalg.eigh((sig + sig.T) / 2.0)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    if det2(V) < 0:
        V = V.copy()
        V[:, 1] = -V[:, 1]
    rho = (r2 - r1) / np.sqrt(det2(s1))
    theta = 0.5 * np.trace(cof2(s1).T / det2(s1) @ s2)
    d1, d2 = det2(s1), det2(s2)
    dr = abs(r1 - r2)
    scalars = {"rho": rho, "det_sigma": float(w[0]) * float(w[1]),
               "lam1": float(w[0]), "lam2": float(w[1]),
               "gap": dr - abs(np.sqrt(d1) - np.sqrt(d2)),
               "proportional_defect": np.linalg.norm(s2 - theta * s1),
               "decoupling_defect": dr ** 2 - det2(s1 - s2)}
    if rho == 0.0:
        scalars["a0_roots"] = (0.0, np.inf)
    else:
        c = (scalars["det_sigma"] - rho ** 2 - 1.0) / rho
        disc = c * c - 4.0
        if disc >= 0:
            scalars["a0_roots"] = ((c - np.sqrt(disc)) / 2.0, (c + np.sqrt(disc)) / 2.0)
    arrays = {"s1_half": s1h, "s1_half_inv": s1hi, "frame": V}
    return scalars, arrays, theta


def test_float_boundary_matches_numpy_bit_for_bit():
    """reduce_pair and classify run on Python floats: every scalar equals,
    and every array has the bytes of, the numpy form it replaced, on seeded
    pairs of all 8 cases, on exactly proportional pairs, whose lam1 and lam2
    differ only by rounding, and on diagonal sig with -0.0 off the diagonal."""
    rng = np.random.default_rng(17)
    draws = [draw_pair(rng, tag) for tag in ALL_TAGS for _ in range(25)]
    for _ in range(25):
        s1 = rand_spd(rng, 0.3) * 10.0 ** rng.uniform(-3, 3)
        sd1 = np.sqrt(det2(s1))
        r1 = float(rng.uniform(-0.5, 0.5) * sd1)
        for theta in (2.0, 4.0, 3.0):              # s2 = 2 s1 and 4 s1 exactly
            for r2 in (r1, r1 + (np.sqrt(theta) - 1.0) * sd1, r1 + 1.2 * sd1):
                draws.append((s1, r1, theta * s1, float(r2)))
    diag = np.array([[2.0, -0.0], [-0.0, 0.5]])      # -0.0 entries: t + r I clears them
    draws += [(diag, 0.1, np.array([[1.0, -0.0], [-0.0, 3.0]]), 0.4),
              (diag, 0.1, 4.0 * diag, 0.6), (diag, -0.3, I2, 0.2)]
    exactly_proportional, tags = 0, set()
    for s1, r1, s2, r2 in draws:
        pair = make_pair(s1, r1, s2, r2)
        scalars, arrays, theta = _numpy_frame(pair)
        red, tag = tp.reduce_pair(pair), tp.classify(pair)
        assert (red.rho, red.lam1, red.lam2, red.theta) == \
            (scalars["rho"], scalars["lam1"], scalars["lam2"], theta)
        for name, want in arrays.items():
            assert getattr(red, name).tobytes() == want.tobytes(), name
        for name, got in tag.scalars.items():
            assert got == scalars[name], (tag.tag, name)
        assert ("a0_roots" in tag.scalars) == ("a0_roots" in scalars)
        exactly_proportional += tag.scalars["proportional_defect"] == 0.0
        tags.add(tag.tag)
    assert tags == set(ALL_TAGS) and exactly_proportional >= 100


# -- link covariance --------------------------------------------------------------

def _well_conditioned_basis(rng):
    """R(a) diag(s) R(b) with singular values s in [1/2, 2]; a reflection
    half of the time, so det B < 0 flips the sign of every r."""
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

    B = rot(rng.uniform(0, np.pi)) @ np.diag(rng.uniform(0.5, 2.0, 2)) \
        @ rot(rng.uniform(0, np.pi))
    return B if rng.uniform() < 0.5 else B @ np.diag([1.0, -1.0])


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("link", ["translation", "basis_change"])
def test_two_phase_link_covariance(link, rank):
    """A link maps isotropic pairs to isotropic pairs and transports effective
    tensors: t_translation(beta) sends r to r + beta, basis_change(B) sends sig
    to B sig B^T and r to det(B) r.  The case tag is kept; the explicit Lstar
    (and the laminate of case 1ci) moves by the same link to 1e2 eps times the
    largest condition number of the four phase tensors (worst seen: 3.6 over
    five seeds of 400 draws), and the residual of cases 1b and 2b on the
    mapped laminate stays at or below 1e-9."""
    rng = np.random.default_rng([2010, rank, ("translation", "basis_change").index(link)])
    for k in range(48):
        tag = ALL_TAGS[k % 8]
        s1, r1, s2, r2 = draw_pair(rng, tag)
        micro = draw_model(rng, rank)
        if link == "translation":
            lo = max(-np.sqrt(det2(s1)) - r1, -np.sqrt(det2(s2)) - r2)
            hi = min(np.sqrt(det2(s1)) - r1, np.sqrt(det2(s2)) - r2)
            beta = 0.9 * rng.uniform(lo, hi)          # both images stay PD
            m = lg.t_translation(beta)
            image = (s1, r1 + beta, s2, r2 + beta)
        else:
            B = _well_conditioned_basis(rng)
            m, dB = lg.basis_change(B), det2(B)
            image = (B @ s1 @ B.T, dB * r1, B @ s2 @ B.T, dB * r2)
        pair, mapped = make_pair(s1, r1, s2, r2, micro), make_pair(*image, micro)
        res, got = tp.effective(pair), tp.effective(mapped)
        assert (res.case.tag, got.case.tag) == (tag, tag)
        if res.kind == "implicit":
            L = micro.tensor(pair.phase1.tensor(), pair.phase2.tensor())
            assert got.residual(lg.psi_apply(m, L)) <= 1e-9, tag
            continue
        want = lg.psi_apply(m, res.Lstar)
        cond = max(np.linalg.cond(ph.tensor()) for p in (pair, mapped)
                   for ph in (p.phase1, p.phase2))
        err = np.abs(got.Lstar - want).max() / np.abs(want).max()
        assert err <= 1e2 * EPS * cond, (tag, err / (EPS * cond))


def test_classify_is_link_invariant(rng):
    """The case tree is resolved in link invariants: under the strongly
    anisotropic basis changes B = diag(10^a, 10^-b) R(0.3), a, b in
    {0, 2, 4}, which scale entries by up to 1e8 against det B, 40 pairs per
    tag keep their tag."""
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    for tag in ALL_TAGS:
        for _ in range(40):
            s1, r1, s2, r2 = draw_pair(rng, tag)
            for a in (0, 2, 4):
                for b in (0, 2, 4):
                    B = np.diag([10.0 ** a, 10.0 ** -b]) @ rot
                    dB = det2(B)
                    mapped = make_pair(B @ s1 @ B.T, dB * r1, B @ s2 @ B.T, dB * r2)
                    assert tp.classify(mapped).tag == tag, (tag, a, b)


def test_classify_high_contrast_near_proportional():
    """sig2 = 1e-4 diag(1, 1 + 1e-6) against sig1 = I is not proportional:
    lam1 - lam2 = 1e-10 is 1e-6 lam1, far above the band.  The pair is case
    1ai, and its Lstar is the laminate's to rounding."""
    micro = RankOneModel(0.5, (0.6, 0.8))
    pair = tp.IsoPhasePair(tp.IsoPhase(I2, 0.0),
                           tp.IsoPhase(1e-4 * np.diag([1.0, 1.0 + 1e-6]), 3e-5),
                           0.5, micro)
    res = tp.effective(pair)
    assert res.case.tag == "1ai"
    want = micro.tensor(pair.phase1.tensor(), pair.phase2.tensor())
    assert np.abs(res.Lstar - want).max() <= 1e-10 * np.abs(want).max()
