"""Rank-one and hierarchical laminate homogenization.

For a simple laminate with layer normal n the transform

    W_n(L) = [(L - I)^-1 + Gamma0(n)]^-1

is additive in the volume fractions: W_n(L*) = <W_n(L)>.  That single
fact evaluates every layered microstructure exactly and serves as the
independent oracle for all exact-relation and link claims.  The result
is the same for every isotropic reference, so the transform is anchored
at the identity, like the exact relations.

The transforms are evaluated in the product form D (I + Gamma D)^-1,
which stays finite when L - I is singular.  For positive definite
phases neither inverse taken is singular: their n-n blocks are L_nn and
<L_nn^-1>.  Non-positive-definite phases may raise LinAlgError.

One mixing step, ``_mix``, takes stacks of phase pairs with a fraction
and a normal per pair: ``laminate2`` and the models call it on one pair
(a model at its once-normalized normal), ``laminate_tree`` once per height.
Tree nodes are read-only and carry their height from construction, so
``laminate_tree`` visits each distinct node once and orders rows by height.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from .tensor4 import (I2, I4, DomainError, check_fraction, gamma0, kron2,
                      resolvent, rotate_block, unit_normal)

__all__ = [
    "Leaf", "Mix", "laminate2", "laminate_tree", "conduct2",
    "RankOneModel", "IteratedRank2Model", "sigma_star_rank1",
]


class Leaf:
    """A phase: ``tensor`` in a frame rotated by ``rotation``; height 0."""

    __slots__ = ("_tensor", "_rotation")
    _height = 0
    tensor = property(attrgetter("_tensor"))
    rotation = property(attrgetter("_rotation"))
    height = property(attrgetter("_height"))

    def __init__(self, tensor, rotation=0.0):
        self._tensor, self._rotation = tensor, rotation


class Mix:
    """Fraction ``f`` of ``child1`` layered with ``child2`` along the normal
    ``n``.  Its height, one more than its taller child's, is set here."""

    __slots__ = ("_child1", "_child2", "_f", "_n", "_height")
    child1 = property(attrgetter("_child1"))
    child2 = property(attrgetter("_child2"))
    f = property(attrgetter("_f"))
    n = property(attrgetter("_n"))
    height = property(attrgetter("_height"))

    def __init__(self, child1, child2, f, n):
        f = check_fraction(f)
        try:
            h1, h2 = child1._height, child2._height
        except AttributeError:
            raise TypeError("laminate children must be Leaf or Mix nodes") from None
        self._child1, self._child2, self._f, self._n = child1, child2, f, n
        self._height = 1 + (h1 if h1 > h2 else h2)


def _mix(AB, f, G):
    """Mix fraction ``f`` of A with B, stacked as AB = (A, B): the average
    W = <resolvent(L - I, G)>, one stacked call for both, mapped back by
    I + resolvent(W, -G) and symmetrized.  A, B and G may be (..., n, n)
    stacks, ``f`` a float or of shape (..., 1, 1)."""
    eye = I4 if AB.shape[-1] == 4 else I2
    R = resolvent(AB - eye, G)
    out = eye + resolvent(f * R[0] + (1.0 - f) * R[1], -G)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def laminate2(L1, L2, f, n):
    """Effective tensor of the rank-one laminate of two phases.

    ``f`` is the volume fraction of phase 1 and ``n`` the layer normal.
    """
    return _mix(np.array((L1, L2), dtype=float), check_fraction(f), gamma0(n))


_TENSOR, _ROTATION, _F, _N, _CHILD1, _CHILD2 = map(attrgetter, (
    "_tensor", "_rotation", "_f", "_n", "_child1", "_child2"))


def laminate_tree(node):
    """Bottom-up evaluation of a laminate hierarchy, one stacked step per height.

    Heights come from construction (0 for a leaf, one more than the taller
    child for a mix).  One walk without recursion visits each distinct node
    object once, so a node reachable along several paths is evaluated once,
    and files it under its height.  The leaves fill the first rows of the
    value stack and each height's mixes the next contiguous rows, so rows
    are ordered by height; a height is one ``_mix`` of its (2, b, 4, 4)
    child stack, gathered by one index.
    """
    if not isinstance(node, (Leaf, Mix)):
        raise TypeError(f"not a laminate node: {node!r}")
    levels = [[] for _ in range(node._height + 1)]    # distinct nodes by height
    seen, todo = set(), [node]
    for nd in todo:                       # todo grows while it is read
        if id(nd) not in seen:
            seen.add(id(nd))
            levels[nd._height].append(nd)
            if nd._height:
                todo += nd._child1, nd._child2
    leaves, mixes = levels[0], [nd for lvl in levels[1:] for nd in lvl]
    nl = len(leaves)
    vals = np.empty((nl + len(mixes), 4, 4))
    vals[:nl] = rotate_block(np.array(list(map(_ROTATION, leaves)), float),
                             np.array(list(map(_TENSOR, leaves)), float))
    if mixes:
        row = dict(zip(map(id, leaves + mixes), range(len(vals))))
        pair = np.array([list(map(row.__getitem__, map(id, map(c, mixes))))
                         for c in (_CHILD1, _CHILD2)])
        f = np.array(list(map(_F, mixes)), float)[:, None, None]
        G = gamma0(list(map(_N, mixes)))
        a = 0
        for lvl in levels[1:]:
            b = a + len(lvl)
            vals[nl + a:nl + b] = _mix(vals[pair[:, a:b]], f[a:b], G[a:b])
            a = b
    return vals[-1].copy()


def conduct2(s1, s2, f, n):
    """Rank-one laminate of two 2x2 conductivities (same W-additivity)."""
    n = unit_normal(n)
    return _mix(np.array((s1, s2), dtype=float), check_fraction(f), np.outer(n, n))


def sigma_star_rank1(h, f, n):
    """Closed-form conductivity of the rank-one mix of 1 and h."""
    return _rank1_closed(h, check_fraction(f), *unit_normal(n).tolist())


def _rank1_closed(h, f, n0, n1):
    """through n n^T + along m m^T, m = (-n1, n0), on floats in np.outer's order."""
    if h <= 0:
        raise DomainError("phase contrast must be positive")
    through = 1.0 / (f + (1.0 - f) / h)
    along = f + (1.0 - f) * h
    off = through * (n0 * n1) + along * (-n1 * n0)
    return np.array(((through * (n0 * n0) + along * (n1 * n1), off),
                     (off, through * (n1 * n1) + along * (n0 * n0))))


class RankOneModel:
    """Single lamination: fraction ``f`` of phase 1, layer normal ``n``."""

    def __init__(self, f, n=(1.0, 0.0)):
        self.f = check_fraction(f)
        self.n = unit_normal(n)
        self._gamma = kron2(I2, np.outer(self.n, self.n))   # Gamma0 of n as stored

    @property
    def phase1_fraction(self):
        return self.f

    def sigma_star(self, h):
        """Effective conductivity with phases I and h I."""
        return _rank1_closed(h, self.f, *self.n.tolist())

    def tensor(self, L1, L2):
        return _mix(np.array((L1, L2), dtype=float), self.f, self._gamma)

    def tree(self, L1, L2):
        return Mix(Leaf(L1), Leaf(L2), self.f, tuple(self.n))


class IteratedRank2Model:
    """Two-step hierarchy: mix (1, 2), then laminate with more phase 2.

    The inner laminate takes fraction ``f_inner`` of phase 1 with normal
    ``n_inner``; the outer step mixes that with pure phase 2, keeping
    fraction ``f_outer`` of the inner composite, along ``n_outer``.
    """

    def __init__(self, f_inner, n_inner, f_outer, n_outer):
        self.inner = RankOneModel(f_inner, n_inner)
        self.f_outer = check_fraction(f_outer)
        self.n_outer = unit_normal(n_outer)
        self._nn = np.outer(self.n_outer, self.n_outer)
        self._gamma = kron2(I2, self._nn)

    @property
    def phase1_fraction(self):
        return self.inner.f * self.f_outer

    def sigma_star(self, h):
        s_in = self.inner.sigma_star(h)
        return _mix(np.array((s_in, h * I2)), self.f_outer, self._nn)

    def tensor(self, L1, L2):
        return _mix(np.array((self.inner.tensor(L1, L2), L2), dtype=float),
                    self.f_outer, self._gamma)

    def tree(self, L1, L2):
        return Mix(self.inner.tree(L1, L2), Leaf(L2),
                   self.f_outer, tuple(self.n_outer))
