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
and a normal per pair: ``laminate2`` calls it on one pair, and
``laminate_tree`` once per tree height, on all the mixes of that height.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor4 import (I2, I4, DomainError, gamma0, resolvent, rotate_block,
                      unit_normal)

__all__ = [
    "Leaf", "Mix", "laminate2", "laminate_tree", "conduct2",
    "RankOneModel", "IteratedRank2Model", "sigma_star_rank1",
]


@dataclass(frozen=True)
class Leaf:
    tensor: np.ndarray
    rotation: float = 0.0


@dataclass(frozen=True)
class Mix:
    child1: object
    child2: object
    f: float           # volume fraction of child1
    n: tuple           # layer normal

    def __post_init__(self):
        if not 0.0 <= self.f <= 1.0:
            raise ValueError("volume fraction must lie in [0, 1]")


def _fraction(f):
    """``f`` as a float in [0, 1]; NaN and values outside raise."""
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise ValueError("volume fraction must lie in [0, 1]")
    return f


def _mix(A, B, f, G):
    """Mix fraction ``f`` of A with B: the average W = <resolvent(L - I, G)>,
    one stacked call for both, mapped back by I + resolvent(W, -G) and
    symmetrized.  A, B and G may be (..., n, n) stacks, ``f`` of shape (...)."""
    eye = I4 if np.shape(A)[-1] == 4 else I2
    f = np.asarray(f, dtype=float)[..., None, None]
    R = resolvent(np.array((A, B), dtype=float) - eye, G)
    out = eye + resolvent(f * R[0] + (1.0 - f) * R[1], -G)
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def laminate2(L1, L2, f, n):
    """Effective tensor of the rank-one laminate of two phases.

    ``f`` is the volume fraction of phase 1 and ``n`` the layer normal.
    """
    return _mix(L1, L2, _fraction(f), gamma0(n))


def laminate_tree(node):
    """Bottom-up evaluation of a laminate hierarchy, one stacked step per height.

    A walk without recursion gives every distinct node object a row in
    post-order and a height (0 for a leaf, one more than its taller child
    for a mix), so a node reachable along several paths is evaluated once.
    """
    row, levels = {}, {}                  # id -> (row, height); height -> entries
    stack = [node]
    while stack:
        nd = stack.pop()
        if id(nd) in row:
            continue
        if isinstance(nd, Leaf):
            h, entry = 0, (nd.rotation, nd.tensor)
        elif not isinstance(nd, Mix):
            raise TypeError(f"not a laminate node: {nd!r}")
        elif id(nd.child1) in row and id(nd.child2) in row:
            (r1, h1), (r2, h2) = row[id(nd.child1)], row[id(nd.child2)]
            h, entry = 1 + max(h1, h2), (r1, r2, nd.f, nd.n)
        else:                             # children first, then nd again
            stack += [nd, nd.child2, nd.child1]
            continue
        levels.setdefault(h, []).append((len(row),) + entry)
        row[id(nd)] = (len(row), h)
    leaves, *mixes = (levels[h] for h in range(len(levels)))
    rows, rotation, tensor = zip(*leaves)
    vals = np.empty((len(row), 4, 4))
    vals[list(rows)] = rotate_block(np.array(rotation, float), np.array(tensor, float))
    if mixes:
        rows, r1, r2, f, n = map(np.array, zip(*(e for m in mixes for e in m)))
        G, end = gamma0(n), np.cumsum([len(m) for m in mixes]).tolist()
        for a, b in zip([0] + end, end):
            vals[rows[a:b]] = _mix(vals[r1[a:b]], vals[r2[a:b]], f[a:b], G[a:b])
    return vals[-1].copy()


def conduct2(s1, s2, f, n):
    """Rank-one laminate of two 2x2 conductivities (same W-additivity)."""
    n = unit_normal(n)
    return _mix(s1, s2, _fraction(f), np.outer(n, n))


def sigma_star_rank1(h, f, n):
    """Closed-form conductivity of the rank-one mix of 1 and h."""
    n = unit_normal(n)
    m = np.array([-n[1], n[0]])
    if h <= 0:
        raise DomainError("phase contrast must be positive")
    f = _fraction(f)
    through = 1.0 / (f + (1.0 - f) / h)
    along = f + (1.0 - f) * h
    return through * np.outer(n, n) + along * np.outer(m, m)


class RankOneModel:
    """Single lamination: fraction ``f`` of phase 1, layer normal ``n``."""

    def __init__(self, f, n=(1.0, 0.0)):
        self.f = _fraction(f)
        self.n = unit_normal(n)

    @property
    def phase1_fraction(self):
        return self.f

    def sigma_star(self, h):
        """Effective conductivity with phases I and h I."""
        return sigma_star_rank1(h, self.f, self.n)

    def tensor(self, L1, L2):
        return laminate2(L1, L2, self.f, self.n)

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
        self.f_outer = _fraction(f_outer)
        self.n_outer = unit_normal(n_outer)

    @property
    def phase1_fraction(self):
        return self.inner.f * self.f_outer

    def sigma_star(self, h):
        s_in = self.inner.sigma_star(h)
        return conduct2(s_in, h * I2, self.f_outer, self.n_outer)

    def tensor(self, L1, L2):
        return laminate2(self.inner.tensor(L1, L2), L2,
                         self.f_outer, self.n_outer)

    def tree(self, L1, L2):
        return Mix(self.inner.tree(L1, L2), Leaf(L2),
                   self.f_outer, tuple(self.n_outer))
