"""Physical thermoelectric tensors and the canonical 4x4 form.

A planar thermoelectric material is described by its electrical
conductivity sigma, Seebeck tensor S, heat conductivity kappa and the
working temperature T0.  The canonical tensor packs these into one
symmetric positive definite operator on R^2 (+) R^2 whose algebra is
unit free; the temperature is folded in only at this boundary.

The Seebeck tensor is kept as a general (not necessarily symmetric)
2x2 matrix: symmetry is not preserved by homogenization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor4 import (DomainError, block_from_parts, block_parts, block_is_pd,
                      check_block, check_spd2, det2, inv2, inv2_rows)

__all__ = [
    "Material", "canon_from_physical", "physical_from_canon",
    "figure_of_merit", "zt_isotropic",
]


@dataclass(frozen=True, eq=False)
class Material:
    """Physical coefficients (sigma, S, kappa) at working temperature T0."""

    sigma: np.ndarray
    seebeck: np.ndarray
    kappa: np.ndarray
    T0: float = 300.0

    def __post_init__(self):
        object.__setattr__(self, "sigma", check_spd2(self.sigma, "sigma"))
        object.__setattr__(self, "kappa", check_spd2(self.kappa, "kappa"))
        seebeck = np.asarray(self.seebeck, dtype=float).reshape(2, 2)
        if not (np.isfinite(seebeck).all() and np.isfinite(self.T0)):
            raise ValueError("seebeck and T0 must be finite")
        object.__setattr__(self, "seebeck", seebeck)
        if self.T0 <= 0:
            raise DomainError("T0 must be positive")


def canon_from_physical(m):
    """Canonical tensor of a material; positive definite by construction,
    and a DomainError where it overflows."""
    s, S, k, T0 = m.sigma, m.seebeck, m.kappa, m.T0
    L11 = T0 * s
    L12 = -T0 ** 2 * (s @ S)
    L22 = T0 ** 2 * (k + T0 * S.T @ s @ S)
    L = block_from_parts(L11, L12, L22)
    if not np.isfinite(L).all():
        raise DomainError("canonical tensor overflows")
    return L


def physical_from_canon(L, T0):
    """Recover (sigma, S, kappa) from a canonical tensor at temperature T0."""
    T0 = float(T0)
    if not math.isfinite(T0):
        raise ValueError("T0 must be finite")
    if T0 <= 0:
        raise DomainError("T0 must be positive")
    L = check_block(L)
    if not block_is_pd(L):
        raise DomainError("canonical tensor must be positive definite")
    L11, L12, L22 = block_parts(L)
    b0 = 1.0 / T0
    sigma = b0 * L11
    seebeck = -b0 * inv2(L11) @ L12
    kappa = b0 ** 2 * (L22 - L12.T @ inv2(L11) @ L12)
    return Material(sigma=sigma, seebeck=seebeck, kappa=kappa, T0=T0)


def _mul2(x, y):
    """Product of two 2x2 matrices given as rows."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def figure_of_merit(L):
    """Dimensionless figure of merit ZT = lam / (1 - lam).

    ``lam`` is the largest eigenvalue of M = L22^-1 L12^T L11^-1 L12, taken as
    tr/2 + sqrt(((m11 - m22) / 2)^2 + m12 m21): it does not cancel at a double one.
    """
    L = check_block(L)
    if not block_is_pd(L):
        raise DomainError("tensor must be positive definite")
    (a, b, p, q), (c, d, r, s), (_, _, e, g), (_, _, h, k) = L.tolist()
    # ((L22^-1 L12^T) L11^-1) L12 on Python floats, each entry multiply-then-add
    (m00, m01), (m10, m11) = _mul2(
        _mul2(_mul2(inv2_rows(((e, g), (h, k))), ((p, r), (q, s))),
              inv2_rows(((a, b), (c, d)))), ((p, q), (r, s)))
    half = (m00 - m11) / 2.0
    lam = (m00 + m11) / 2.0 + math.sqrt(max(half * half + m01 * m10, 0.0))
    if lam >= 1.0:
        raise DomainError("figure-of-merit eigenvalue reached 1; tensor not PD")
    return lam / (1.0 - lam)


def zt_isotropic(lam):
    """ZT of an isotropic tensor lam (x) I: lam12^2 / det(lam)."""
    lam = check_spd2(lam, "lam")
    return float(lam[0, 1] ** 2 / det2(lam))
