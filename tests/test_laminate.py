import numpy as np
import pytest

from thermoex import exactrel as er
from thermoex import laminate as lam
from thermoex.laminate import (Leaf, Mix, laminate2, laminate_tree, conduct2,
                               RankOneModel, IteratedRank2Model,
                               sigma_star_rank1)
from thermoex.tensor4 import (I2, I4, RPERP, block_is_pd, resolvent,
                              rotate_block, unit_normal)
from thermoex.linkgroup import identity_map, link13_volume_fraction, psi_apply
from thermoex.twophase import IsoPhase, IsoPhasePair
from conftest import rand_spd, rand_pd_block, random_tree


def uncoupled(sig):
    return np.block([[np.asarray(sig, float), np.zeros((2, 2))],
                     [np.zeros((2, 2)), I2]])


def test_trivial_mixes(rng):
    L = rand_pd_block(rng)
    n = rng.standard_normal(2)
    assert np.abs(laminate2(L, L, 0.5, n) - L).max() < 1e-10
    L2 = rand_pd_block(rng)
    assert np.allclose(laminate2(L, L2, 1.0, n), L)
    assert np.allclose(laminate2(L, L2, 0.0, n), L2)
    with pytest.raises(ValueError):
        laminate2(L, L2, 1.5, n)


def test_analytic_1d_solution(rng):
    """Uncoupled conduction against the series/parallel closed form."""
    for _ in range(20):
        a, b = rng.uniform(0.3, 4.0, 2)
        f = rng.uniform(0.0, 1.0)
        Ls = laminate2(uncoupled(a * I2), uncoupled(b * I2), f, [1.0, 0.0])
        sh = 1.0 / (f / a + (1 - f) / b)
        sa = f * a + (1 - f) * b
        assert np.abs(Ls - uncoupled(np.diag([sh, sa]))).max() < 1e-12 * (1 + sa)


def test_reference_independence(rng):
    """Reference 2I instead of I is the same claim as homogeneity of degree
    one: laminating L/2 at I and scaling by 2 is laminating L at 2I."""
    L1, L2 = rand_pd_block(rng), rand_pd_block(rng)
    f, n = 0.3, (0.6, 0.8)
    a = laminate2(L1, L2, f, n)
    b = 2 * laminate2(L1 / 2, L2 / 2, f, n)
    assert np.abs(a - b).max() < 1e-10 * (1 + np.abs(a).max())


def test_phase_at_the_reference():
    """A phase equal to the reference makes L - I singular; the product form
    stays finite and matches the series/parallel closed form."""
    for f in (0.0, 0.3, 1.0):
        Ls = laminate2(uncoupled(I2), uncoupled(5 * I2), f, [1.0, 0.0])
        sh = 1.0 / (f + (1 - f) / 5.0)
        sa = f + (1 - f) * 5.0
        assert np.abs(Ls - uncoupled(np.diag([sh, sa]))).max() < 1e-12 * (1 + sa)
    assert np.abs(laminate2(I4, I4, 0.4, [0.6, 0.8]) - I4).max() == 0.0


def test_singular_normal_block_raises(rng):
    """A phase whose n-n block is singular is outside the theory: the
    transform pole reaches the caller instead of an extrapolated value."""
    with pytest.raises(np.linalg.LinAlgError):
        laminate2(np.zeros((4, 4)), rand_pd_block(rng), 0.5, [1.0, 0.0])


def test_er13_parameter_rule(rng):
    for _ in range(20):
        La, Lb = rand_spd(rng) + I2, rand_spd(rng) + I2
        f = rng.uniform(0, 1)
        n = rng.standard_normal(2)
        Ls = laminate2(er.lm_par(La, RPERP), er.lm_par(Lb, RPERP), f, n)
        pred = np.linalg.inv(f * np.linalg.inv(La) + (1 - f) * np.linalg.inv(Lb))
        assert np.abs(Ls[:2, :2] - pred).max() < 1e-10


def test_tree_leaf_rotation(rng):
    L = rand_pd_block(rng)
    th = 0.8
    assert np.allclose(laminate_tree(Leaf(L, th)), rotate_block(th, L))
    tree = Mix(Leaf(L), Leaf(L), 0.4, (0.0, 1.0))
    assert np.abs(laminate_tree(tree) - L).max() < 1e-10
    deep = Mix(Mix(Leaf(L), Leaf(L), 0.3, (1.0, 0.0)),
               Mix(Leaf(L), Leaf(L), 0.6, (0.6, 0.8)), 0.5, (0.0, 1.0))
    assert np.abs(laminate_tree(deep) - L).max() < 1e-9


def test_rank3_tree_stays_in_relation(rng):
    """Hierarchical laminates of relation-21 members remain members."""
    for _ in range(10):
        leaves = [Leaf(er.er_sample(21, rng=rng, scale=0.5),
                       rng.uniform(0, np.pi)) for _ in range(4)]
        t = Mix(Mix(Mix(leaves[0], leaves[1], rng.uniform(0.2, 0.8),
                        tuple(rng.standard_normal(2))),
                    leaves[2], rng.uniform(0.2, 0.8),
                    tuple(rng.standard_normal(2))),
                leaves[3], rng.uniform(0.2, 0.8),
                tuple(rng.standard_normal(2)))
        Ls = laminate_tree(t)
        assert block_is_pd(Ls)
        assert er.er_member(21, Ls, tol=1e-8).member


def test_sigma_star_closed_form():
    assert np.allclose(sigma_star_rank1(1.0, 0.3, [1, 0]), I2)
    out = sigma_star_rank1(4.0, 0.5, [1, 0])
    assert np.allclose(out, np.diag([1.6, 2.5]))
    with pytest.raises(ValueError):
        sigma_star_rank1(-1.0, 0.5, [1, 0])


def test_conduct2_matches_closed_form(rng):
    for _ in range(20):
        h = rng.uniform(0.2, 5.0)
        f = rng.uniform(0, 1)
        n = rng.standard_normal(2)
        lhs = conduct2(I2, h * I2, f, n)
        assert np.abs(lhs - sigma_star_rank1(h, f, n)).max() < 1e-12 * (1 + h)


def test_conduct2_is_reference_free(rng):
    """The conductivity laminate has no reference medium: for a power of two
    c, conduct2 of c s1 and c s2 is c times conduct2 of s1 and s2, bit for bit
    (a W-form anchored at I is off by about eps c^2 relative)."""
    for _ in range(200):
        s1, s2 = rand_spd(rng), rand_spd(rng)
        f, n = rng.uniform(), rng.standard_normal(2)
        ref = conduct2(s1, s2, f, n)
        for k in (-200, -20, -1, 1, 20, 200):
            c = 2.0 ** k
            assert np.array_equal(conduct2(c * s1, c * s2, f, n), c * ref), k


def test_model_embedding_consistency(rng):
    """Conductivity mixing agrees with the 4x4 path on uncoupled tensors."""
    for model in (RankOneModel(0.4, (1.0, 0.0)),
                  RankOneModel(0.7, (0.6, 0.8)),
                  IteratedRank2Model(0.4, (1.0, 0.0), 0.6, (0.0, 1.0))):
        for _ in range(10):
            h = rng.uniform(0.3, 4.0)
            full = model.tensor(uncoupled(I2), uncoupled(h * I2))
            assert np.abs(full - uncoupled(model.sigma_star(h))).max() < 1e-10
            tree_val = laminate_tree(model.tree(uncoupled(I2), uncoupled(h * I2)))
            assert np.abs(full - tree_val).max() < 1e-12


def test_models_mix_at_their_stored_normals(rng):
    """A model normalizes each normal once and keeps it in ``steps``, so
    ``tensor`` and ``sigma_star`` mix at the same normal bits: those of the
    stored unit normal.  Each step of ``sigma_star`` is the float
    conductivity laminate at that normal, which agrees with the W-form mix
    of the uncoupled tensors to rounding."""
    L1, L2 = rand_pd_block(rng), rand_pd_block(rng)
    for _ in range(200):
        n, m = rng.standard_normal(2), rng.standard_normal(2)
        one, two = RankOneModel(0.4, n), IteratedRank2Model(0.3, m, 0.6, n)
        u = tuple(unit_normal(n).tolist())
        assert one.steps == ((0.4, u),)
        assert two.steps == ((0.3, tuple(unit_normal(m).tolist())), (0.6, u))
        for model in (one, two):
            want = L1
            for f, nk in model.steps:
                want = lam._mix(np.array((want, L2)), f, np.kron(I2, np.outer(nk, nk)))
            assert model.tensor(L1, L2).tobytes() == want.tobytes()
        h = rng.uniform(0.3, 4.0)
        s_in = RankOneModel(0.3, m).sigma_star(h)
        got = two.sigma_star(h)
        want = lam._conduct_rows(s_in.tolist(), (h * I2).tolist(), 0.6, *u)
        assert got.tobytes() == np.array(want).tobytes()
        w_form = lam._mix(np.array((uncoupled(s_in), uncoupled(h * I2))), 0.6,
                          np.kron(I2, np.outer(u, u)))[:2, :2]
        assert np.abs(got - w_form).max() <= 1e-13 * np.abs(w_form).max()


def test_model_tree_is_its_tensor_bit_for_bit(rng):
    """``tree`` keeps each normal as given, so ``laminate_tree`` normalizes it
    once, as the model did: a unit normal normalized again can move a bit."""
    for _ in range(300):
        L1, L2 = rand_pd_block(rng), rand_pd_block(rng)
        for model in (RankOneModel(rng.uniform(), rng.standard_normal(2)),
                      IteratedRank2Model(rng.uniform(), rng.standard_normal(2),
                                         rng.uniform(), rng.standard_normal(2))):
            assert (laminate_tree(model.tree(L1, L2)).tobytes()
                    == model.tensor(L1, L2).tobytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tensor_raises(bad):
    """Every laminate and link entry point rejects a NaN or Inf entry in the
    tensors it is given, a leaf-only tree included, instead of returning an
    all-NaN result."""
    n = (1.0, 0.0)
    L, s = I4.copy(), I2.copy()
    L[0, 0] = s[1, 1] = bad
    one, two = RankOneModel(0.5, n), IteratedRank2Model(0.5, n, 0.5, (0.0, 1.0))
    calls = [lambda: laminate2(L, I4, 0.5, n),
             lambda: laminate_tree(Mix(Leaf(I4), Leaf(L), 0.5, n)),
             lambda: laminate_tree(Leaf(L)), lambda: laminate_tree(Leaf(I4, bad)),
             lambda: one.tensor(L, I4), lambda: two.tensor(I4, L),
             lambda: one.sigma_star(bad), lambda: two.sigma_star(bad),
             lambda: conduct2(s, I2, 0.5, n),
             lambda: psi_apply(identity_map(), L),
             lambda: link13_volume_fraction([(s, 0.5), (I2, 0.5)])]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("f", [-0.1, 1.5, np.nan])
def test_volume_fraction_outside_0_1_raises(f):
    """Every entry point that takes a volume fraction rejects one outside
    [0, 1], NaN included, as Mix and laminate2 do."""
    n = (1.0, 0.0)
    phase = IsoPhase(I2, 0.1)
    calls = [lambda: IsoPhasePair(phase, phase, f),
             lambda: link13_volume_fraction([(I2, f), (2.0 * I2, 1.0 - f)]),
             lambda: RankOneModel(f, n),
             lambda: IteratedRank2Model(f, n, 0.5, n),
             lambda: IteratedRank2Model(0.5, n, f, n),
             lambda: conduct2(I2, 3.0 * I2, f, n),
             lambda: sigma_star_rank1(3.0, f, n),
             lambda: laminate2(I4, 2.0 * I4, f, n),
             lambda: Mix(Leaf(I4), Leaf(I4), f, n)]
    for call in calls:
        with pytest.raises(ValueError, match=r"volume fraction must lie in \[0, 1\]"):
            call()


def test_w_linearity_membership(rng):
    """Rank-one mixes of members stay members, for every relation."""
    for ident in er.ER_IDS:
        for _ in range(15):
            L1 = er.er_sample(ident, rng=rng, scale=0.6)
            L2 = er.er_sample(ident, rng=rng, scale=0.6)
            f = rng.uniform(0, 1)
            n = rng.standard_normal(2)
            Ls = laminate2(L1, L2, f, n)
            m = er.er_member(ident, Ls, tol=1e-8)
            assert m.member, (ident, m.residual)


def fold(node):
    """Reference evaluation: one laminate2 per mix, by recursion."""
    if isinstance(node, Leaf):
        L = np.asarray(node.tensor, dtype=float)
        return rotate_block(node.rotation, L) if node.rotation else L
    return laminate2(fold(node.child1), fold(node.child2), node.f, node.n)


def height(node):
    if isinstance(node, Leaf):
        return 0
    return 1 + max(height(node.child1), height(node.child2))


def test_tree_equals_pairwise_fold(rng):
    """Per-height stacked evaluation is bit-identical to one laminate2 per
    mix: single leaves, unrotated leaves, f of 0 and 1, shared leaf and
    subtree objects."""
    for trial in range(40):
        leaves = [Leaf(rand_pd_block(rng), rng.uniform(0, np.pi) if i % 2 else 0.0)
                  for i in range(3)]
        t = random_tree(rng, int(rng.integers(0, 40)), leaves)
        if trial % 4 == 0:       # one subtree object reached twice
            t = Mix(t, Mix(t, leaves[0], 0.3, (1.0, 2.0)), 0.6, (0.0, 1.0))
        assert np.array_equal(laminate_tree(t), fold(t))
    L = rand_pd_block(rng)
    for leaf in (Leaf(L), Leaf(L, 0.7)):
        assert np.array_equal(laminate_tree(leaf), fold(leaf))


def test_tree_equals_pairwise_fold_at_bench_scale(rng):
    """Trees of 128-255 mixes, the bench's large size, over three shared
    leaves and with one subtree object reached twice, are bit-identical to
    one laminate2 per mix, although their stack rows are ordered by height."""
    for _ in range(6):
        leaves = [Leaf(rand_pd_block(rng), rng.uniform(0, np.pi) if i % 2 else 0.0)
                  for i in range(3)]
        m_sub = int(rng.integers(8, 32))
        m_big = int(rng.integers(128, 256)) - m_sub - 2
        sub = random_tree(rng, m_sub, leaves)
        big = random_tree(rng, m_big, leaves)
        t = Mix(Mix(big, sub, rng.uniform(), (1.0, 2.0)), sub, rng.uniform(), (0.0, 1.0))
        assert np.array_equal(laminate_tree(t), fold(t))


def test_tree_deeper_than_the_recursion_limit(rng):
    """A chain of 1500 mixes gets height 1500 as it is built, is evaluated
    without recursion and matches the pairwise fold done by a loop."""
    L1, L2 = rand_pd_block(rng), rand_pd_block(rng)
    t, ref = Leaf(L1, 0.4), rotate_block(0.4, L1)
    for _ in range(1500):
        f, n = rng.uniform(), tuple(rng.standard_normal(2))
        t, ref = Mix(t, Leaf(L2), f, n), laminate2(ref, L2, f, n)
    assert t.height == 1500
    assert np.array_equal(laminate_tree(t), ref)


def test_nodes_are_read_only(rng):
    """Assigning a node field raises AttributeError, as the frozen
    dataclasses they replace did; a leaf has height 0, a mix one more than
    its taller child."""
    leaf = Leaf(rand_pd_block(rng), 0.3)
    mix = Mix(leaf, Mix(leaf, leaf, 0.2, (1.0, 0.0)), 0.5, (0.0, 1.0))
    for node, names in ((leaf, ("tensor", "rotation", "height")),
                        (mix, ("child1", "child2", "f", "n", "height"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(node, name, getattr(node, name))
        with pytest.raises(AttributeError):
            node.extra = 1
    assert (leaf.height, mix.child2.height, mix.height) == (0, 1, 2)
    assert mix.child1 is leaf and (mix.f, mix.n) == (0.5, (0.0, 1.0))


def test_non_node_raises_type_error(rng):
    """A child that is not a node is refused when the Mix is built, and a
    root that is not a node by laminate_tree."""
    leaf = Leaf(rand_pd_block(rng))
    for bad in (rand_pd_block(rng), None, "leaf", (leaf, leaf)):
        with pytest.raises(TypeError):
            Mix(leaf, bad, 0.5, (1.0, 0.0))
        with pytest.raises(TypeError):
            Mix(bad, leaf, 0.5, (1.0, 0.0))
        with pytest.raises(TypeError):
            laminate_tree(bad)


def test_tree_one_mix_call_per_height(rng, monkeypatch):
    """A tree is laminated with one stacked _mix per height, covering every
    mix exactly once."""
    mix, calls = lam._mix, []

    def counting(AB, f, G):
        calls.append(AB.shape[1])
        return mix(AB, f, G)

    monkeypatch.setattr(lam, "_mix", counting)
    leaves = [Leaf(rand_pd_block(rng), 0.5)]
    t = random_tree(rng, 255, leaves)
    laminate_tree(t)
    assert len(calls) == height(t) and sum(calls) == 255


def test_tree_errors_keep_their_types(rng):
    L = rand_pd_block(rng)
    ok = Mix(Leaf(L), Leaf(L, 0.2), 0.5, (1.0, 0.0))
    with pytest.raises(TypeError):
        laminate_tree(Mix(ok, L, 0.5, (1.0, 0.0)))
    with pytest.raises(ValueError):
        laminate_tree(Mix(ok, Leaf(L), 0.5, (0.0, 0.0)))
    with pytest.raises(np.linalg.LinAlgError):
        laminate_tree(Mix(Mix(Leaf(np.zeros((4, 4))), Leaf(L), 0.5, (1.0, 0.0)),
                          ok, 0.5, (0.0, 1.0)))


def test_phase_swap(rng):
    """Mix(a, b, f, n) and Mix(b, a, 1 - f, n) are the same laminate."""
    for _ in range(20):
        a, b = Leaf(rand_pd_block(rng), rng.uniform(0, np.pi)), Leaf(rand_pd_block(rng))
        f, n = rng.uniform(), tuple(rng.standard_normal(2))
        lhs = laminate_tree(Mix(a, b, f, n))
        rhs = laminate_tree(Mix(b, a, 1.0 - f, n))
        assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(lhs).max())


def test_stacked_kernels_match_single(rng):
    """resolvent, gamma0 and rotate_block on stacks equal their per-entry
    results exactly."""
    D = np.stack([rand_pd_block(rng) - I4 for _ in range(6)])
    n = rng.standard_normal((6, 2))
    G = er.gamma0(n)
    th = rng.uniform(0, np.pi, 6)
    R = resolvent(D, G)
    rot = rotate_block(th, D)
    for i in range(6):
        assert np.array_equal(G[i], er.gamma0(n[i]))
        assert np.array_equal(R[i], resolvent(D[i], G[i]))
        assert np.array_equal(rot[i], rotate_block(th[i], D[i]))
    assert np.array_equal(er.gamma0(n.reshape(2, 3, 2)), G.reshape(2, 3, 4, 4))


def rotated(node, th, memo=None):
    """Copy of a tree with every leaf and every layer normal rotated by
    ``th``; shared node objects stay shared."""
    memo = {} if memo is None else memo
    if id(node) not in memo:
        if isinstance(node, Leaf):
            memo[id(node)] = Leaf(node.tensor, node.rotation + th)
        else:
            c, s = np.cos(th), np.sin(th)
            n = (c * node.n[0] - s * node.n[1], s * node.n[0] + c * node.n[1])
            memo[id(node)] = Mix(rotated(node.child1, th, memo),
                                 rotated(node.child2, th, memo), node.f, n)
    return memo[id(node)]


def test_rotation_covariance(rng):
    """Rotating every leaf and every normal of a tree by th rotates the
    laminate by rotate_block(th, .)."""
    for _ in range(30):
        leaves = [Leaf(rand_pd_block(rng), rng.uniform(0, np.pi)) for _ in range(3)]
        t = random_tree(rng, int(rng.integers(1, 41)), leaves)
        th = rng.uniform(-np.pi, np.pi)
        lhs = laminate_tree(rotated(t, th))
        rhs = rotate_block(th, laminate_tree(t))
        assert np.abs(lhs - rhs).max() < 1e-12 * (1 + np.abs(rhs).max())


@pytest.mark.parametrize("ident", er.ER_IDS)
def test_lamination_closure_random_trees(ident):
    """Random trees of 1-40 mixes over rotated members of one relation stay
    in that relation."""
    rng = np.random.default_rng(1000 + ident)
    for _ in range(8):
        leaves = [Leaf(er.er_sample(ident, rng=rng), rng.uniform(0, np.pi))
                  for _ in range(3)]
        L = laminate_tree(random_tree(rng, int(rng.integers(1, 41)), leaves))
        m = er.er_member(ident, L)
        assert m.member, (ident, m.residual, m.constraints)
