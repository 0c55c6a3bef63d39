"""Exact-relation manifolds: membership predicates, samplers, transforms.

An exact relation is a submanifold of positive definite tensors that is
closed under homogenization.  Every one implemented here is the image of
a catalog subspace under a fractional-linear change of variables

    W(L) = [(L - L0)^-1 + M]^-1,    M = K(key, 0),

anchored at the reference L0 = I; the closed-form predicates below are
the eliminated forms of that statement.  Base points other than I are
reached through the covariance congruence and the global link group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import (DEFAULT_SEED, KEY_HALF_I, KEY_ZERO, PSI1, AlgebraSpec,
                      algebra_by_id)
# gamma0 is layer geometry from tensor4, re-exported here
from .tensor4 import (I2, I4, RPERP, T4, DomainError, KTensor, as_block,
                      block_is_pd, block_parts, check_finite, cof2, det2, gamma0,
                      inv2, kt_from_block, kt_to_block, mobius, pd2, resolvent,
                      spd_sqrt_2x2)

__all__ = [
    "ER_IDS", "ERSpec", "er_spec", "gamma0", "w_transform",
    "w_inverse", "pullback", "er_member", "er_sample", "lm_par", "lm_unpar",
    "covariance", "MembershipResult", "PSI1", "JRP",
]

JRP = np.kron(PSI1, RPERP)           # psi(1) (x) Rperp
IRP4 = np.kron(I2, RPERP)            # I (x) Rperp


@dataclass(frozen=True, eq=False)
class ERSpec:
    """One exact relation: its subspace algebra, inversion key and key block."""
    ident: int
    algebra: AlgebraSpec
    key: np.ndarray
    key_block: np.ndarray     # M = K(key, 0) as a 4x4 block


def _relation(ident):
    if ident not in _RELATIONS:
        raise KeyError(f"no first-class exact relation with id {ident}")
    return _RELATIONS[ident]


@cache
def er_spec(ident):
    key = _relation(ident)[0]
    alg = algebra_by_id(ident)
    return ERSpec(ident, alg, key, kt_to_block(KTensor(key, np.zeros((2, 2)))))


def w_transform(L, M):
    """Fractional-linear transform [(L - I)^-1 + M]^-1 as operator, M = K(key, 0).

    Evaluated in the pole-free product form D (I + M D)^-1, which is well
    defined even when L - I is singular.
    """
    return kt_from_block(resolvent(check_finite(L, "L") - I4, check_finite(M, "M")))


def w_inverse(k, M):
    """Inverse of :func:`w_transform`: L = I + W (I - M W)^-1."""
    W, M = check_finite(as_block(k), "k"), check_finite(M, "M")
    return I4 + (resolvent(W, -M) if M.any() else W)     # resolvent(W, 0) is W


def pullback(ident, L):
    """Transform a tensor to the subspace side of the relation ``ident``."""
    return w_transform(L, er_spec(ident).key_block)


@dataclass(frozen=True)
class MembershipResult:
    er_id: int
    member: bool
    residual: float
    constraints: tuple


def lm_par(L, M):
    """Tensor [[L, L M], [M^T L, M^T L M]] + T from a 2x2 pair."""
    L, M = check_finite(L, "L"), check_finite(M, "M")
    return np.block([[L, L @ M], [M.T @ L, M.T @ L @ M]]) + T4


def lm_unpar(Lt):
    """Recover (L, M) from the parametrized form: M = L11^-1 (L12 + Rperp)."""
    L11, L12, _ = block_parts(check_finite(Lt, "Lt"))
    return L11, inv2(L11) @ (L12 + RPERP)


# Per-relation residual of the defining equations, scaled by sc = (1 + |L|)^2,
# and the side constraints beyond positive definiteness.  Each takes
# (L, L11, L12, L22, sc) and returns (residual, constraints).

def _res7(L, L11, L12, L22, sc):
    th = L12[1, 0]
    res = (np.linalg.norm(L11 - L22) + np.linalg.norm(L12 - th * RPERP)
           + abs(det2(L11) - (1.0 + th) ** 2))
    return res / sc, (("theta>-1/2", th > -0.5),)


def _res8(L, L11, L12, L22, sc):
    t = L12[0, 1]
    res = np.linalg.norm(L11 - L22) + np.linalg.norm(L12 + t * RPERP)
    return res / sc, (("det>t^2", det2(L11) > t ** 2),)


def _res9(L, L11, L12, L22, sc):
    P = L11
    pn = (P * P).sum()
    lam = (L12 * P).sum() / pn
    eta = (L22 * P).sum() / pn
    res = (np.linalg.norm(L12 - lam * P) + np.linalg.norm(L22 - eta * P)
           + abs((eta - lam * lam) * det2(P) - 1.0))
    return res / sc, ()


def _res13(L, L11, L12, L22, sc):
    res = (np.linalg.norm(L12 - (L11 - I2) @ RPERP)
           + np.linalg.norm(L22 - cof2(L11)))
    return res / sc, (("L11>I/2", pd2(L11 - I2 / 2)),)


def _sandwich(mid):
    """Residual of L mid L = mid (relations 17 and 22)."""
    def res(L, L11, L12, L22, sc):
        return float(np.linalg.norm(L @ mid @ L - mid) / sc), ()
    return res


def _res21(L, L11, L12, L22, sc):
    S = L12 + RPERP
    return np.linalg.norm(L11 - S @ inv2(L22) @ S.T) / sc, ()


def _res20(L, L11, L12, L22, sc):
    res = _res21(L, L11, L12, L22, sc)[0]
    return res + abs(det2(L22) - det2(L12 + RPERP)) / sc, ()


def _res19(L, L11, L12, L22, sc):
    res = _res20(L, L11, L12, L22, sc)[0]
    # third scalar equation: det(L22 + L12) = det L22 + det L12
    return res + abs((L22 * cof2(L12)).sum()) / sc, ()


# per relation: the inversion key of its subspace and its residual
_RELATIONS = {
    7: (KEY_HALF_I, _res7), 8: (KEY_ZERO, _res8),
    9: (KEY_HALF_I, _res9), 13: (KEY_ZERO, _res13),
    17: (KEY_HALF_I, _sandwich(JRP)), 19: (KEY_HALF_I, _res19),
    20: (KEY_HALF_I, _res20), 21: (KEY_HALF_I, _res21),
    22: (KEY_HALF_I, _sandwich(IRP4)),
}
ER_IDS = tuple(_RELATIONS)


def er_member(ident, L, tol=1e-9):
    """Closed-form membership test of ``L`` in exact relation ``ident``.

    Returns the scaled residual of the defining equations together with
    the side constraints (positivity, determinant inequalities).  The
    tensor must be symmetric; non-PD input is reported as a failed
    constraint rather than an error; a residual that is not finite (NaN
    entries, or products that overflow) raises DomainError.
    """
    residual_fn = _relation(ident)[1]
    L = np.asarray(L, dtype=float)
    L11, L12, L22 = block_parts(L)
    sc = (1.0 + np.linalg.norm(L)) ** 2
    res, extra = residual_fn(L, L11, L12, L22, sc)
    if not abs(res) < np.inf:
        raise DomainError(f"membership residual of relation {ident} is {res}")
    cons = (("positive_definite", block_is_pd(L)),) + extra
    return MembershipResult(ident, res <= tol and all(v for _, v in cons),
                            res, cons)


def er_sample(ident, seed=DEFAULT_SEED, scale=1.0, rng=None):
    """Random member of relation ``ident`` through the subspace chart.

    Draws a subspace element of the requested coefficient scale and maps
    it through the inverse transform, shrinking the scale until the image
    is positive definite (at most 100 attempts).  The element is drawn as a
    4x4 block from the cached basis blocks (:meth:`AlgebraSpec.sample_block`).
    A NaN or Inf ``scale`` raises ValueError, 100 failed attempts DomainError.
    """
    spec = er_spec(ident)
    if rng is None:
        rng = np.random.default_rng(seed)
    s = float(check_finite(scale, "scale"))
    if s == 0.0:
        return I4.copy()
    for _ in range(100):
        L = w_inverse(spec.algebra.sample_block(rng, s), spec.key_block)
        if block_is_pd(L):
            return (L + L.T) / 2.0
        s *= 0.7
    raise DomainError(f"could not sample a PD member of relation {ident}")


def covariance(lam, L):
    """Congruence by Lambda^-1/2 (x) I normalizing an isotropic reference:
    the link action with A = I and B = Lambda^-1/2."""
    return mobius(I2, inv2(spd_sqrt_2x2(check_finite(lam, "lam"))), L)
