"""Effective tensor of an isotropic polycrystal of one crystallite.

Isotropy forces the effective tensor of a polycrystal made from a single
crystallite L0 = K(X, Y) onto a unique point L* = K(Lh, 0): the Hermitian
unknown solves

    Z + Y Z^-1 Y^H = X + conj(X),      Lh = Z - conj(X) > 0,

which linearizes through the cofactor operator B_Y Z = Y cof(Z)^T Y^H:
solve (I + theta B_Y) Z(theta) = X + conj(X) over the scalar theta and
pick positive roots of theta * det Z(theta) = 1 whose Lh is positive
definite.  The smallest positive feasible root is returned as the
default; all feasible roots are reported because the smallest-root rule
is verified only at small coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor4 import (KTensor, RPERP, cof2, det2, inv2, is_positive_definite,
                      pd2, spd_sqrt_2x2)

__all__ = [
    "HERM_BASIS", "hvec", "hunvec", "b_op", "b_charpoly", "PolyResult",
    "solve_isotropic", "special_quartic", "QuarticReport",
]

HERM_BASIS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], complex),
    np.array([[0.0, 1.0j], [-1.0j, 0.0]], complex),
)


def hvec(H):
    """Coordinates of a Hermitian 2x2 in HERM_BASIS."""
    return np.array([H[0, 0].real, H[1, 1].real, H[0, 1].real, H[0, 1].imag])


def hunvec(v):
    return np.array([[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]])


def b_op(Y):
    """Matrix of Z -> Y cof(Z)^T Y^H on Hermitian 2x2, in HERM_BASIS."""
    Y = np.asarray(Y, dtype=complex)
    cols = [hvec(Y @ cof2(E).T @ Y.conj().T) for E in HERM_BASIS]
    return np.stack(cols, axis=1)


def b_charpoly(Y):
    """Degree-4 characteristic polynomial of :func:`b_op`, closed form.

    Coefficients descending:  (x^2 - |det Y|^2)(x^2 + g x + |det Y|^2)
    with g the real pairing of Y with its cofactor matrix.
    """
    Y = np.asarray(Y, dtype=complex)
    d = abs(det2(Y))
    g = np.trace(Y @ cof2(Y).T.conj()).real     # Tr(Y cof(Y)^H)
    return np.polymul([1.0, 0.0, -d ** 2], [1.0, g, d ** 2])


@dataclass(frozen=True)
class PolyResult:
    theta: float
    Z: np.ndarray
    Lstar: np.ndarray          # Hermitian 2x2, the isotropic point K(Lstar, 0)
    alpha: float
    B: np.ndarray              # SPD with Lstar = B^-2 + i alpha Rperp
    roots: tuple               # (theta, feasible) pairs, ascending
    smallest_root_conjectural: bool = False

    def to_json(self):
        return {
            "theta": self.theta,
            "Lstar": [[v.real, v.imag] for v in self.Lstar.ravel()],
            "alpha": self.alpha,
            "B": self.B.tolist(),
            "roots": [{"theta": t, "feasible": bool(fz)} for t, fz in self.roots],
            "smallest_root_conjectural": self.smallest_root_conjectural,
        }


def solve_isotropic(k0, grid=256):
    """Isotropy-forced effective tensor of the crystallite ``k0``.

    Parameters
    ----------
    k0 : KTensor
        Positive definite crystallite tensor K(X, Y).
    grid : int
        Points of the logarithmic scan bracketing the sign changes of
        theta * det Z(theta) - 1.
    """
    if not isinstance(k0, KTensor):
        raise TypeError("crystallite must be a KTensor")
    if not is_positive_definite(k0):
        raise ValueError("crystallite tensor must be positive definite")
    X, Y = k0.X, k0.Y
    Bm = b_op(Y)
    rhs = hvec(X + X.conj())

    def zhat(th):
        return hunvec(np.linalg.solve(np.eye(4) + th * Bm, rhs))

    def g(th):
        return th * det2(zhat(th)).real - 1.0

    d_rhs = det2(X + X.conj()).real
    ref = 1.0 / d_rhs if d_rhs > 0 else 1.0
    ths = ref * np.logspace(-8.0, 8.0, grid)
    # poles of the resolvent sit at -1/lambda for negative eigenvalues of
    # the cofactor operator; refine the scan there and never bisect across
    poles = []
    for lam in np.linalg.eigvals(Bm):
        if abs(lam.imag) < 1e-9 * (1.0 + abs(lam)) and lam.real < -1e-300:
            poles.append(-1.0 / lam.real)
    for p in poles:
        ths = np.concatenate([ths, p * np.linspace(0.5, 1.5, 64) + 1e-30])
    ths = np.sort(ths)

    def crosses_pole(a, b):
        return any(a < p < b for p in poles)

    roots = []
    prev_t = prev_v = None
    for th in ths:
        try:
            val = g(th)
        except np.linalg.LinAlgError:
            prev_t = prev_v = None
            continue
        if not np.isfinite(val):
            prev_t = prev_v = None
            continue
        if prev_v is not None and prev_v * val < 0 and not crosses_pole(prev_t, th):
            a, b = prev_t, th
            fa = g(a)
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = g(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
        prev_t, prev_v = th, val
    roots = sorted(set(roots))

    flagged = []
    best = None
    for th in roots:
        Z = zhat(th)
        Z = (Z + Z.conj().T) / 2.0
        Lh = Z - X.conj()
        feasible = pd2(Lh) and pd2(Z)
        flagged.append((float(th), feasible))
        if feasible and best is None:
            best = (float(th), Z, Lh)
    if best is None:
        raise ArithmeticError(
            "no feasible root found for a PD crystallite; this contradicts "
            "the solvability of the isotropy condition")

    theta, Z, Lh = best
    n_feas = sum(1 for _, fz in flagged if fz)
    alpha = -float(Lh[0, 1].imag)
    real_part = np.real(Lh - 1j * alpha * RPERP)
    B = inv2(spd_sqrt_2x2((real_part + real_part.T) / 2.0))
    return PolyResult(theta, Z, Lh, alpha, B, tuple(flagged),
                      smallest_root_conjectural=n_feas > 1)


@dataclass(frozen=True)
class QuarticReport:
    coeffs: tuple              # descending, leading -1/4
    roots: tuple
    roots_in_01: int
    roots_above_1: int
    discriminant: float
    discriminant_formula: float
    p_at_0: float              # computed from the polynomial itself

    def to_json(self):
        return {
            "coeffs": list(self.coeffs),
            "roots": list(self.roots),
            "roots_in_01": self.roots_in_01,
            "roots_above_1": self.roots_above_1,
            "discriminant": self.discriminant,
            "discriminant_formula": self.discriminant_formula,
            "p_at_0": self.p_at_0,
        }


def _poly_discriminant(c):
    """Discriminant of a quartic from the Sylvester resultant."""
    p = np.poly1d(c)
    dp = p.deriv()
    a = p.coeffs
    b = dp.coeffs
    n, m = len(a) - 1, len(b) - 1
    S = np.zeros((n + m, n + m))
    for i in range(m):
        S[i, i:i + n + 1] = a
    for i in range(n):
        S[m + i, i:i + m + 1] = b
    res = np.linalg.det(S)
    return res / a[0] * (-1) ** (n * (n - 1) // 2)


def special_quartic(s1, s2):
    """Root report of the reduced scalar equation for a real coupling.

    For a crystallite with real Y the scalar unknown t = theta * det Y
    satisfies

        t (1 + t)^2 s1 s2 - t^2 (s1 + s2)^2 - (1 - t^2)^2 / 4 = 0

    where s1, s2 are the eigenvalues of Re(X)^1/2 Y^-1 Re(X)^1/2 and
    positive definiteness forces |s_j| > 1.  The report carries the
    computed p(0) = -1/4 alongside the roots and the discriminant, which
    factors as (s1^2-1)^2 (s2^2-1)^2 (s1^2-s2^2)^2.
    """
    s1, s2 = abs(float(s1)), abs(float(s2))
    if s1 <= 1.0 or s2 <= 1.0:
        raise ValueError("positive definiteness requires |s_j| > 1")
    coeffs = (-0.25, s1 * s2, 2.0 * s1 * s2 - (s1 + s2) ** 2 + 0.5,
              s1 * s2, -0.25)
    roots = np.roots(coeffs)
    # double real roots stray ~sqrt(eps) off the axis; keep them real
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-6 * (1 + abs(r)))
    band = 1e-7
    in01 = sum(1 for r in real if band < r < 1.0 - band)
    above = sum(1 for r in real if r > 1.0 + band)
    disc = _poly_discriminant(np.array(coeffs))
    disc_formula = (s1 ** 2 - 1) ** 2 * (s2 ** 2 - 1) ** 2 * (s1 ** 2 - s2 ** 2) ** 2
    p0 = float(np.polyval(coeffs, 0.0))
    return QuarticReport(coeffs, tuple(real), in01, above,
                         float(disc), float(disc_formula), p0)
