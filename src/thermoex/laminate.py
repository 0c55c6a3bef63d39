"""Rank-one and hierarchical laminate homogenization.

For a simple laminate with layer normal n the transform

    W_n(L) = [(L - c I)^-1 + Gamma0(n) / c]^-1

is additive in the volume fractions, W_n(L*) = <W_n(L)>, for every isotropic
reference c I.  That single fact evaluates every layered microstructure
exactly and serves as the independent oracle for all exact-relation and link
claims.  A fixed reference loses about eps c^2 on phases of scale c, so each
pair is mixed at c = 16^j <= max(L1, L2) < 16^(j+1), and scaling the phases
by 16^k scales the result exactly.

The transforms are evaluated in the product form D (I + Gamma D)^-1,
which stays finite when L - I is singular.  For positive definite
phases neither inverse taken is singular: their n-n blocks are L_nn and
<L_nn^-1>.  Non-positive-definite phases may raise LinAlgError.

One mixing step, ``_mix``, takes stacks of 4x4 phase pairs with a fraction
and a Gamma0 per pair: the models' ``tensor`` calls it once per step
(``laminate2`` is a one-step model), ``laminate_tree`` once per height.
Tree nodes are read-only and carry their height from construction, so
``laminate_tree`` visits each distinct node once and orders rows by height.

A laminate of two 2x2 conductivities needs no reference medium.  In the
(n, t) frame of the unit normal, t = (-n1, n0), the partial inverse
(1/s_nn, s_nt/s_nn, s_tt - s_nt^2/s_nn) is additive in the volume fractions
(Backus 1962; Milton, The Theory of Composites, ch. 9).  ``_conduct_rows``,
the one 2x2 laminate, evaluates it on Python floats, so it scales exactly
with the phases and no BLAS kernel rounds it.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

from .tensor4 import (I2, I4, DomainError, check_finite, check_fraction, check_spd2,
                      gamma0, kron2, resolvent, rotate_block, unit_normal)

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
    I + resolvent(W, -G) and symmetrized; a pair with 16^j <= max(A, B) <
    16^(j+1) is mixed as 16^-j (A, B), the result times 16^j.  Its largest
    entry, not |entry|, is on the diagonal for PD phases.  A, B and G may be
    (..., 4, 4) stacks, ``f`` a float or of shape (..., 1, 1)."""
    k = (np.frexp(AB.max(axis=(0, -2, -1), keepdims=True))[1] - 1) & -4
    R = resolvent(np.ldexp(AB, -k) - I4, G)
    out = I4 + resolvent(f * R[0] + (1.0 - f) * R[1], -G)
    return np.ldexp((out + np.swapaxes(out, -1, -2)) / 2.0, k[0])


def laminate2(L1, L2, f, n):
    """Effective tensor of the rank-one laminate of two phases.

    ``f`` is the volume fraction of phase 1 and ``n`` the layer normal.
    """
    return RankOneModel(f, n).tensor(L1, L2)


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
    with np.errstate(invalid="ignore", over="ignore"):    # Inf * 0: checked next
        vals[:nl] = rotate_block(np.array(list(map(_ROTATION, leaves)), float),
                                 np.array(list(map(_TENSOR, leaves)), float))
    check_finite(vals[:nl], "rotated leaf")
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


def _conduct_rows(s1, s2, f, n0, n1):
    """Rank-one laminate of the SPD 2x2 conductivities with rows ``s1`` and
    ``s2``, fraction ``f`` of s1, at the unit normal (n0, n1); rows out.

    s_nn = 1 / <1/s_nn>, s_nt = s_nn <s_nt/s_nn> and s_tt = <s_tt - s_nt^2/s_nn>
    + s_nt^2/s_nn return to the axes as s_nn n n^T + s_tt t t^T, then the n-t
    term, so isotropic phases at an axis normal give the closed form through
    n n^T + along t t^T bit for bit.
    """
    g = 1.0 - f
    frame = []
    for (a, b), (c, d) in (s1, s2):
        u0, u1 = a * n0 + b * n1, c * n0 + d * n1          # s n
        v0, v1 = b * n0 - a * n1, d * n0 - c * n1          # s t
        frame.append((n0 * u0 + n1 * u1, n0 * v0 + n1 * v1, n0 * v1 - n1 * v0))
    (nn1, nt1, tt1), (nn2, nt2, tt2) = frame
    nn = 1.0 / (f / nn1 + g / nn2)
    nt = nn * (f * (nt1 / nn1) + g * (nt2 / nn2))
    tt = f * (tt1 - nt1 * nt1 / nn1) + g * (tt2 - nt2 * nt2 / nn2) + nt * nt / nn
    off = nn * (n0 * n1) + tt * (-n1 * n0) + nt * (n0 * n0 - n1 * n1)
    return ((nn * (n0 * n0) + tt * (n1 * n1) - nt * (2.0 * n0 * n1), off),
            (off, nn * (n1 * n1) + tt * (n0 * n0) + nt * (2.0 * n0 * n1)))


def conduct2(s1, s2, f, n):
    """Rank-one laminate of two SPD 2x2 conductivities, reference free."""
    s1, s2 = check_spd2(s1, "phase").tolist(), check_spd2(s2, "phase").tolist()
    return np.array(RankOneModel(f, n)._conduct(s1, s2))


def sigma_star_rank1(h, f, n):
    """Conductivity of the rank-one mix of 1 and h."""
    return RankOneModel(f, n).sigma_star(h)


class _Stepped:
    """From phase 1, step k of ``steps`` layers the composite so far,
    fraction f_k, with phase 2 along n_k, normalized once; ``tree`` hands on
    the normals as given, for ``laminate_tree`` to normalize once."""

    def __init__(self, *steps):
        self.steps = tuple((check_fraction(f), tuple(unit_normal(n).tolist()))
                           for f, n in steps)
        self._given = steps

    @property
    def phase1_fraction(self):
        return math.prod(f for f, _ in self.steps)

    def _conduct(self, s1, s2):
        for f, (n0, n1) in self.steps:
            s1 = _conduct_rows(s1, s2, f, n0, n1)
        return s1

    def sigma_star(self, h):
        """Effective conductivity with phases I and h I, h positive and finite."""
        if not 0.0 < h < math.inf:
            raise DomainError("phase contrast must be positive and finite")
        return np.array(self._conduct(((1.0, 0.0), (0.0, 1.0)), ((h, 0.0), (0.0, h))))

    def tensor(self, L1, L2):
        AB = check_finite((L1, L2), "phase")
        for f, n in self.steps:
            AB[0] = L = _mix(AB, f, kron2(I2, np.outer(n, n)))    # Gamma0 of n
        return L

    def tree(self, L1, L2):
        node = Leaf(L1)
        for f, n in self._given:
            node = Mix(node, Leaf(L2), f, n)
        return node


class RankOneModel(_Stepped):
    """Single lamination: fraction ``f`` of phase 1, layer normal ``n``."""

    def __init__(self, f, n=(1.0, 0.0)):
        super().__init__((f, n))


class IteratedRank2Model(_Stepped):
    """Two-step hierarchy: mix (1, 2), then laminate with more phase 2.

    The inner laminate takes fraction ``f_inner`` of phase 1 with normal
    ``n_inner``; the outer step mixes that with pure phase 2, keeping
    fraction ``f_outer`` of the inner composite, along ``n_outer``.
    """

    def __init__(self, f_inner, n_inner, f_outer, n_outer):
        super().__init__((f_inner, n_inner), (f_outer, n_outer))
