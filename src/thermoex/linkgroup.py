"""Global link group and the algebra-specific links.

A link transports the effective tensor of one composite to that of a
second composite sharing the same geometry.  The global family is the
fractional-linear action

    Psi_{A,B}(L) = (B (x) I) T (a1 L + b1 T)^-1 (a0 L + b0 T) (B^T (x) I)

with A = [[a0, b0], [a1, b1]], T = Rperp (x) Rperp.  Pairs (A, B) act
projectively: A and B are normalized to |det| = 1 with a deterministic
sign convention.  Composition follows the Moebius rule with a
determinant-of-B twist on the A factor.

A :class:`LinkMap` is put in canonical form on Python floats and keeps
those entries, so composition and inversion are scalar arithmetic; it also
keeps the 4x4 B (x) I, so applying a map is one Moebius transform
(:func:`thermoex.tensor4.mobius`) and two products.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .tensor4 import (I2, RPERP, DomainError, check_finite, check_fraction, det2,
                      inv2, mobius, pd2, spd_sqrt_2x2)
from .exactrel import lm_par, lm_unpar, er_member

__all__ = [
    "LinkMap", "psi_apply", "psi_compose", "psi_inverse", "psi_normalizer",
    "identity_map", "t_translation", "inverse_translation", "inversion_flip",
    "basis_change", "link13_volume_fraction", "link19_family",
    "link19_conductivity", "link21_factor", "link21_reconstruct",
]


def _entries(m):
    """The four entries (m00, m01, m10, m11) of a 2x2 as Python floats."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"link matrices must be 2x2, got shape {m.shape}")
    (m00, m01), (m10, m11) = m.tolist()
    return m00, m01, m10, m11


def _det(m):
    return m[0] * m[3] - m[1] * m[2]


def _inv(m):
    """Inverse of a canonical factor: its determinant is +-1, so the inverse
    is the adjugate, negated for -1."""
    s = math.copysign(1.0, _det(m))
    return s * m[3], -s * m[1], -s * m[2], s * m[0]


def _mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _conj_by_det(x, b):
    """diag(d, 1)^-1 x diag(d, 1) for d = det b = +-1 of a canonical b."""
    s = math.copysign(1.0, _det(b))
    return x[0], s * x[1], s * x[2], x[3]


def _sign_rule(m):
    """m, negated unless its first entry above 1e-12 is positive."""
    for v in m:
        if abs(v) > 1e-12:
            return m if v > 0 else [-m[0], -m[1], -m[2], -m[3]]
    return m


def _canonical(m):
    """m / sqrt|det m| under the sign rule.

    A NaN or Inf entry makes the determinant NaN or Inf, so one range test
    rejects those, singular matrices and determinants that overflow.
    """
    d = abs(_det(m))
    if not 1e-300 <= d < math.inf:
        raise ValueError("link matrices must be finite and invertible")
    s = math.sqrt(d)
    return _sign_rule([m[0] / s, m[1] / s, m[2] / s, m[3] / s])


_PACK24 = struct.Struct("24d").pack


def _link(m, a, b):
    """Fill ``m`` with the canonical form of the pair given as float entries.

    Rescaling B by c is the same map as multiplying A by diag(c^2, 1), so
    normalizing B feeds |det B| back into the first row of A before A itself
    is scaled and sign-fixed.
    """
    d = abs(_det(b))
    # diag(d, 1) @ a; adding 0.0 gives zero entries the +0.0 of a matrix product.
    # A singular b makes a singular too; _canonical rejects both.
    a = _canonical((d * a[0] + 0.0, d * a[1] + 0.0, a[2] + 0.0, a[3] + 0.0))
    return _store(m, a, _canonical(b))


def _store(m, a, b):
    """Keep the canonical entries ``a`` and ``b`` on ``m``, with their arrays."""
    b00, b01, b10, b11 = b
    # a, b and B (x) I in one buffer, read-only as it is made from bytes
    buf = np.frombuffer(_PACK24(*a, *b, b00, 0.0, b01, 0.0, 0.0, b00, 0.0, b01,
                                b10, 0.0, b11, 0.0, 0.0, b10, 0.0, b11))
    set_ = object.__setattr__
    set_(m, "a", buf[:4].reshape(2, 2))
    set_(m, "b", buf[4:8].reshape(2, 2))
    set_(m, "_bi", buf[8:].reshape(4, 4))
    set_(m, "_a", a)
    set_(m, "_b", b)
    return m


@dataclass(frozen=True)
class LinkMap:
    """Projective pair (A, B) with |det| = 1 and fixed sign convention.

    The canonical form is computed on Python floats.  Besides the read-only
    arrays ``a`` and ``b`` a map keeps their entries as floats, for
    composition and inversion, and the 4x4 B (x) I that :func:`psi_apply`
    multiplies by.  A or B with a non-finite entry, a shape other than 2x2
    or a zero determinant raise ``ValueError``.
    """

    a: np.ndarray
    b: np.ndarray
    _a: list = field(init=False, repr=False, compare=False)
    _b: list = field(init=False, repr=False, compare=False)
    _bi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _link(self, _entries(self.a), _entries(self.b))

    def __call__(self, L):
        return psi_apply(self, L)

    def __eq__(self, other):    # by the canonical entries, not the arrays
        return isinstance(other, LinkMap) and (self._a, self._b) == (other._a, other._b)

    def __hash__(self):
        return hash((*self._a, *self._b))


def _from_entries(a, b):
    """Map of a product or inverse of canonical pairs.  Its determinants are
    +-1 by construction, so only the sign rule is applied: |det| recomputed
    from entries that cancel would put its rounding error into every entry."""
    return _store(object.__new__(LinkMap),
                  _sign_rule([a[0] + 0.0, a[1] + 0.0, a[2] + 0.0, a[3] + 0.0]),
                  _sign_rule(list(b)))


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
    out = m._bi @ mobius(m.a, check_finite(L, "L")) @ m._bi.T
    return (out + out.swapaxes(-1, -2)) / 2.0


def psi_compose(m1, m2):
    """Map with psi_compose(m1, m2)(L) = m1(m2(L)): the pair
    (D^-1 A1 D A2, B1 B2) with D = diag(det B2, 1)."""
    return _from_entries(_mul(_conj_by_det(m1._a, m2._b), m2._a),
                         _mul(m1._b, m2._b))


def psi_inverse(m):
    """Map with psi_inverse(m)(m(L)) = L."""
    bi = _inv(m._b)
    return _from_entries(_conj_by_det(_inv(m._a), bi), bi)


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
    fs = np.array([check_fraction(f) for _, f in phases])
    if abs(fs.sum() - 1.0) > 1e-12:
        raise ValueError("volume fractions must sum to 1")
    acc = np.zeros((2, 2))
    for L, f in phases:
        acc = acc + f * inv2(check_finite(L, "chart matrix"))
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
        raise DomainError("gamma0 outside the admissible interval: P not PD")
    Q = P + 2.0 * M @ RPERP
    Q = (Q + Q.T) / 2.0
    if not pd2(-Q):
        raise DomainError("gamma0 outside the admissible interval: "
                          "P + 2 M Rperp not negative definite")
    return lm_par(inv2(P), M)


def link19_conductivity(L):
    """Factor a member of relation 19 into a unit-determinant conductivity.

    Returns (sigma, mu) with sigma = -Rperp M symmetric positive definite,
    det sigma = 1, and mu = 2 / Tr(chart^-1 sigma) where chart is the SPD
    chart matrix of the member.  On the positivity domain the trace lies
    in (0, 4), so mu > 1/2 and the image lm_par(mu * sigma, Rperp sigma)
    is again positive definite.
    """
    L = np.asarray(L, dtype=float)
    m = er_member(19, L, tol=1e-8)
    if not m.member:
        raise DomainError(f"not a member of relation 19 (residual {m.residual:.3e})")
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
        raise DomainError("degenerate factor: det Lam = 0")
    P = -RPERP @ (M - t * I2) / dl
    return lam, (P + P.T) / 2.0


def link21_reconstruct(lam, P):
    """Inverse of :func:`link21_factor`: M = lam12 I + Rperp P det(lam)."""
    lam = np.asarray(lam, dtype=float)
    P = np.asarray(P, dtype=float)
    return lam[0, 1] * I2 + RPERP @ P * det2(lam)
