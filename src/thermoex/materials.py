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

from dataclasses import dataclass

import numpy as np

from .tensor4 import (DomainError, block_from_parts, block_parts, block_is_pd,
                      check_block, check_spd2, det2, inv2)

__all__ = [
    "Material", "canon_from_physical", "physical_from_canon",
    "figure_of_merit", "zt_isotropic",
]


@dataclass(frozen=True)
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
    L = check_block(L)
    if not block_is_pd(L):
        raise DomainError("canonical tensor must be positive definite")
    L11, L12, L22 = block_parts(L)
    b0 = 1.0 / T0
    sigma = b0 * L11
    seebeck = -b0 * inv2(L11) @ L12
    kappa = b0 ** 2 * (L22 - L12.T @ inv2(L11) @ L12)
    return Material(sigma=sigma, seebeck=seebeck, kappa=kappa, T0=T0)


def figure_of_merit(L):
    """Dimensionless figure of merit ZT = lam / (1 - lam).

    ``lam`` is the largest eigenvalue of L22^-1 L12^T L11^-1 L12, computed
    from the closed-form trace/determinant of the 2x2 product.
    """
    L = check_block(L)
    if not block_is_pd(L):
        raise DomainError("tensor must be positive definite")
    L11, L12, L22 = block_parts(L)
    M = inv2(L22) @ L12.T @ inv2(L11) @ L12
    tr, d = M[0, 0] + M[1, 1], det2(M)
    disc = max(tr * tr / 4.0 - d, 0.0)
    lam = tr / 2.0 + np.sqrt(disc)
    if lam >= 1.0:
        raise DomainError("figure-of-merit eigenvalue reached 1; tensor not PD")
    return float(lam / (1.0 - lam))


def zt_isotropic(lam):
    """ZT of an isotropic tensor lam (x) I: lam12^2 / det(lam)."""
    lam = np.asarray(lam, dtype=float)
    return float(lam[0, 1] ** 2 / det2(lam))
