"""Rank-one and hierarchical laminate homogenization.

For a simple laminate with layer normal n the transform

    W_n(L) = [(L - L0)^-1 + Gamma0(n)]^-1

is additive in the volume fractions: W_n(L*) = <W_n(L)>.  That single
fact evaluates every layered microstructure exactly and serves as the
independent oracle for all exact-relation and link claims.  The result
does not depend on the positive definite isotropic reference L0; the
default is the identity, and bracket poles are escaped by an epsilon
shift of the reference with one Richardson step.

The transforms are evaluated in the product form D (I + Gamma D)^-1,
which stays finite when L - L0 is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor4 import (I2, I4, T4, block_from_json, block_to_json,
                      kt_from_block, resolvent, rotate_block)
from .exactrel import gamma0

__all__ = [
    "Leaf", "Mix", "laminate2", "laminate_tree", "conduct2",
    "RankOneModel", "IteratedRank2Model", "sigma_star_rank1",
    "tree_to_json", "tree_from_json",
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


def _iso_parts(L0):
    """Split an isotropic reference into (lam, nu); reject anisotropic."""
    L0 = np.asarray(L0, dtype=float)
    lam = kt_from_block(L0).X.real
    nu = float((L0 * T4).sum()) / 4.0
    rebuilt = np.kron(lam, np.eye(2)) + nu * T4
    if np.abs(rebuilt - L0).max() > 1e-10 * (1.0 + np.abs(L0).max()):
        raise ValueError("laminate reference must be isotropic")
    return (lam + lam.T) / 2.0, nu


def laminate2(L1, L2, f, n, L0=None):
    """Effective tensor of the rank-one laminate of two phases.

    ``f`` is the volume fraction of phase 1 and ``n`` the layer normal.
    The isotropic reference L0 (identity by default) sets both the shift
    and the projection operator of the transform; the result does not
    depend on it.  A bracket pole at the chosen reference is treated as a
    coordinate artifact: the reference is shifted by eps and 2*eps and
    the two results are Richardson-combined.
    """
    L1 = np.asarray(L1, dtype=float)
    L2 = np.asarray(L2, dtype=float)
    if not 0.0 <= f <= 1.0:
        raise ValueError("volume fraction must lie in [0, 1]")
    base = I4 if L0 is None else np.asarray(L0, dtype=float)

    def attempt(ref):
        lam, _ = _iso_parts(ref)
        G = gamma0(n, lam)
        W = f * resolvent(L1 - ref, G) + (1.0 - f) * resolvent(L2 - ref, G)
        out = ref + resolvent(W, -G)
        return (out + out.T) / 2.0

    try:
        return attempt(base)
    except np.linalg.LinAlgError:
        eps = 1e-6 * (1.0 + max(np.abs(L1).max(), np.abs(L2).max()))
        r1 = attempt(base - eps * I4)
        r2 = attempt(base - 2.0 * eps * I4)
        return 2.0 * r1 - r2


def laminate_tree(node, L0=None):
    """Bottom-up evaluation of a laminate hierarchy."""
    if isinstance(node, Leaf):
        L = np.asarray(node.tensor, dtype=float)
        if node.rotation:
            L = rotate_block(node.rotation, L)
        return L
    if isinstance(node, Mix):
        a = laminate_tree(node.child1, L0)
        b = laminate_tree(node.child2, L0)
        return laminate2(a, b, node.f, node.n, L0)
    raise TypeError(f"not a laminate node: {node!r}")


def conduct2(s1, s2, f, n, ref=1.0):
    """Rank-one laminate of two 2x2 conductivities (same W-additivity)."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    G = np.outer(n, n) / ref
    s0 = ref * I2

    try:
        W = f * resolvent(s1 - s0, G) + (1.0 - f) * resolvent(s2 - s0, G)
        out = s0 + resolvent(W, -G)
    except np.linalg.LinAlgError:
        return conduct2(s1, s2, f, n, ref=ref * (1.0 + 1e-6) + 1e-6)
    return (out + out.T) / 2.0


def sigma_star_rank1(h, f, n):
    """Closed-form conductivity of the rank-one mix of 1 and h."""
    n = np.asarray(n, dtype=float)
    n = n / np.linalg.norm(n)
    m = np.array([-n[1], n[0]])
    if h <= 0:
        raise ValueError("phase contrast must be positive")
    through = 1.0 / (f + (1.0 - f) / h)
    along = f + (1.0 - f) * h
    return through * np.outer(n, n) + along * np.outer(m, m)


class RankOneModel:
    """Single lamination: fraction ``f`` of phase 1, layer normal ``n``."""

    def __init__(self, f, n=(1.0, 0.0)):
        self.f = float(f)
        n = np.asarray(n, dtype=float)
        self.n = n / np.linalg.norm(n)

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
        self.f_outer = float(f_outer)
        n = np.asarray(n_outer, dtype=float)
        self.n_outer = n / np.linalg.norm(n)

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
    if depth < 1:
        raise ValueError("depth must be at least 1")
    leaves = [Leaf(tensor, np.pi * halton(i + 1, 2)) for i in range(2 ** depth)]
    level = leaves
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


def tree_to_json(node):
    if isinstance(node, Leaf):
        return {"leaf": {"tensor": block_to_json(node.tensor),
                         "rotation": float(node.rotation)}}
    return {"mix": {"c1": tree_to_json(node.child1),
                    "c2": tree_to_json(node.child2),
                    "f": float(node.f),
                    "n": [float(v) for v in node.n]}}


def tree_from_json(obj):
    if "leaf" in obj:
        leaf = obj["leaf"]
        rotation = float(leaf.get("rotation", 0.0))
        if not np.isfinite(rotation):
            raise ValueError("leaf rotation must be finite")
        return Leaf(block_from_json(leaf["tensor"]), rotation)
    if "mix" in obj:
        mix = obj["mix"]
        n = tuple(float(v) for v in mix["n"])
        if not np.isfinite(n).all():
            raise ValueError("layer normal must be finite")
        return Mix(tree_from_json(mix["c1"]), tree_from_json(mix["c2"]),
                   float(mix["f"]), n)
    raise ValueError("laminate node must contain 'leaf' or 'mix'")
