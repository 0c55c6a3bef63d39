"""Global link group and the algebra-specific links.

A link transports the effective tensor of one composite to that of a
second composite sharing the same geometry.  The global family is the
fractional-linear action

    Psi_{A,B}(L) = (B (x) I) T (a1 L + b1 T)^-1 (a0 L + b0 T) (B^T (x) I)

with A = [[a0, b0], [a1, b1]], T = Rperp (x) Rperp.  Pairs (A, B) act
projectively: A and B are normalized to |det| = 1 with a deterministic
sign convention.  Composition follows the Moebius rule with a
determinant-of-B twist on the A factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor4 import (I2, RPERP, congruence, det2, inv2, mobius, pd2,
                      spd_sqrt_2x2)
from .exactrel import lm_par, lm_unpar, er_member

__all__ = [
    "LinkMap", "psi_apply", "psi_compose", "psi_inverse", "psi_normalizer",
    "identity_map", "t_translation", "inverse_translation", "inversion_flip",
    "basis_change", "link13_volume_fraction", "link19_family",
    "link19_conductivity", "link21_factor", "link21_reconstruct",
    "linkmap_to_json", "linkmap_from_json",
]


def _canonical(m):
    m = np.asarray(m, dtype=float)
    d = abs(det2(m))
    if d < 1e-300:
        raise ValueError("link matrices must be invertible")
    m = m / np.sqrt(d)
    for v in m.ravel():
        if abs(v) > 1e-12:
            return m if v > 0 else -m
    return m


@dataclass(frozen=True)
class LinkMap:
    """Projective pair (A, B) with |det| = 1 and fixed sign convention.

    Rescaling B by c is the same map as multiplying A by diag(c^2, 1), so
    normalizing B must feed the determinant back into A before A itself
    is scaled and sign-fixed.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        # a singular b makes a singular too; _canonical rejects both
        a = np.diag([abs(det2(b)), 1.0]) @ np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", _canonical(a))
        object.__setattr__(self, "b", _canonical(b))

    def __call__(self, L):
        return psi_apply(self, L)


def identity_map():
    return LinkMap(np.eye(2), np.eye(2))


def t_translation(beta):
    """L -> L + beta T."""
    return LinkMap(np.array([[1.0, float(beta)], [0.0, 1.0]]), np.eye(2))


def inverse_translation(alpha):
    """L -> (L^-1 + alpha T)^-1; a one-parameter group in alpha."""
    return LinkMap(np.array([[1.0, 0.0], [float(alpha), 1.0]]), np.eye(2))


def inversion_flip():
    """L -> (T - L^-1)^-1."""
    return LinkMap(np.array([[1.0, 0.0], [1.0, -1.0]]), np.eye(2))


def basis_change(B):
    """L -> (B (x) I) L (B^T (x) I)."""
    return LinkMap(np.eye(2), B)


def psi_apply(m, L):
    """Psi_{A,B}(L), symmetrized; L may be a (..., 4, 4) stack."""
    out = congruence(m.b, mobius(m.a, np.asarray(L, dtype=float)))
    return (out + np.swapaxes(out, -1, -2)) / 2.0


def _conj_by_det(A, d):
    D = np.diag([d, 1.0])
    return inv2(D) @ A @ D


def psi_compose(m1, m2):
    """Map with psi_compose(m1, m2)(L) = m1(m2(L))."""
    d2 = det2(m2.b)
    return LinkMap(_conj_by_det(m1.a, d2) @ m2.a, m1.b @ m2.b)


def psi_inverse(m):
    bi = inv2(m.b)
    return LinkMap(_conj_by_det(inv2(m.a), det2(bi)), bi)


def psi_normalizer(lam, nu=0.0):
    """Map sending the isotropic tensor lam (x) I + nu T to the identity.

    Built from the unique SPD square root: B = lam^-1/2 and a T-shift by
    -nu applied first.
    """
    B = inv2(spd_sqrt_2x2(np.asarray(lam, dtype=float)))
    return LinkMap(np.array([[1.0, -float(nu)], [0.0, 1.0]]), B)


# -- algebra-specific links ----------------------------------------------

def link13_volume_fraction(phases):
    """Harmonic volume-fraction mean of the rank-13 chart parameters.

    ``phases`` is a sequence of (L, f) with L a 2x2 SPD chart matrix and
    f the volume fractions summing to one.  The result is the chart
    parameter of the effective tensor of any composite mixing them.
    """
    phases = list(phases)
    if not phases:
        raise ValueError("empty phase list")
    fs = np.array([f for _, f in phases], dtype=float)
    if np.any(fs < 0) or abs(fs.sum() - 1.0) > 1e-12:
        raise ValueError("fractions must be nonnegative and sum to 1")
    acc = np.zeros((2, 2))
    for L, f in phases:
        acc = acc + f * inv2(np.asarray(L, float))
    return inv2(acc)


def link19_family(gamma0, L):
    """One-parameter self-link of relation 19.

    In the (L, M) chart the map sends L to the inverse of

        P = gamma0 M L^-1 M^T + (1 + gamma0) L^-1 + 2 gamma0 M Rperp

    keeping M fixed.  Requires P > 0 and P + 2 M Rperp < 0; gamma0 = 0 is
    the identity and gamma0 = -1/2 lands on the degenerate relation with
    M L^-1 - L^-1 M^T = 2 Rperp.
    """
    L = np.asarray(L, dtype=float)
    BL, M = lm_unpar(L)
    BLi = inv2(BL)
    P = gamma0 * M @ BLi @ M.T + (1.0 + gamma0) * BLi + 2.0 * gamma0 * M @ RPERP
    P = (P + P.T) / 2.0
    if not pd2(P):
        raise ValueError("gamma0 outside the admissible interval: P not PD")
    Q = P + 2.0 * M @ RPERP
    Q = (Q + Q.T) / 2.0
    if not pd2(-Q):
        raise ValueError("gamma0 outside the admissible interval: "
                         "P + 2 M Rperp not negative definite")
    return lm_par(inv2(P), M)


def link19_conductivity(L, tol=1e-8):
    """Factor a member of relation 19 into a unit-determinant conductivity.

    Returns (sigma, mu) with sigma = -Rperp M symmetric positive definite,
    det sigma = 1, and mu = 2 / Tr(chart^-1 sigma) where chart is the SPD
    chart matrix of the member.  On the positivity domain the trace lies
    in (0, 4), so mu > 1/2 and the image lm_par(mu * sigma, Rperp sigma)
    is again positive definite.
    """
    L = np.asarray(L, dtype=float)
    m = er_member(19, L, tol=tol)
    if not m.member:
        raise ValueError(f"not a member of relation 19 (residual {m.residual:.3e})")
    BL, M = lm_unpar(L)
    sigma = -RPERP @ M
    sigma = (sigma + sigma.T) / 2.0
    mu = 2.0 / float((inv2(BL) * sigma).sum())
    return sigma, mu


def link21_factor(M):
    """Split the chart matrix of relation 21 into a 2x2 pair (Lam, P).

    Lam = [[1, tr M / 2], [tr M / 2, det M]] and
    P = -Rperp (M - tr M / 2 I) / det Lam; both are symmetric and the
    product of their determinants is one on the admissible domain.
    """
    M = np.asarray(M, dtype=float)
    t = 0.5 * (M[0, 0] + M[1, 1])
    lam = np.array([[1.0, t], [t, det2(M)]])
    dl = det2(lam)
    if abs(dl) < 1e-14 * (1.0 + np.abs(M).max()) ** 2:
        raise ValueError("degenerate factor: det Lam = 0")
    P = -RPERP @ (M - t * I2) / dl
    return lam, (P + P.T) / 2.0


def link21_reconstruct(lam, P):
    """Inverse of :func:`link21_factor`: M = lam12 I + Rperp P det(lam)."""
    lam = np.asarray(lam, dtype=float)
    P = np.asarray(P, dtype=float)
    return lam[0, 1] * I2 + RPERP @ P * det2(lam)


def linkmap_to_json(m):
    return {"A": m.a.tolist(), "B": m.b.tolist()}


def linkmap_from_json(obj):
    return LinkMap(np.asarray(obj["A"], float), np.asarray(obj["B"], float))
