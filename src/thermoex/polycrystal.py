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

The roots are enumerated, not scanned for: Cayley-Hamilton on the closed-form
characteristic polynomial of B_Y gives Z(theta) = W(theta) / p(theta) with
p = det(I + theta B_Y) quartic and W cubic, so theta det Z = 1 becomes
F(theta) = theta det W - p^2 = 0 of degree <= 8, solved from the companion
matrices of F and of its reversal.  Each root is polished by Newton on
theta det(W / p) - 1, with W, p and their derivatives evaluated by Horner on
Python floats; above theta = 1 on the reversed polynomials in 1 / theta,
whose terms shrink with their power there.  An iterate on an exact pole,
where p evaluates to 0, is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor4 import (DomainError, KTensor, RPERP, block_is_pd, cof2, det2,
                      inv2, kt_to_block, pd2, spd_sqrt_2x2)

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


# adj(E) = cof(E)^T of each basis element, stacked for one batched product
_ADJ_BASIS = np.array([cof2(E).T for E in HERM_BASIS])


def hvec(H):
    """Coordinates of a Hermitian 2x2 in HERM_BASIS."""
    return np.array([H[0, 0].real, H[1, 1].real, H[0, 1].real, H[0, 1].imag])


def hunvec(v):
    return np.array([[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]])


def b_op(Y):
    """Matrix of Z -> Y cof(Z)^T Y^H on Hermitian 2x2, in HERM_BASIS."""
    Y = np.asarray(Y, dtype=complex)
    return hvec(np.moveaxis(Y @ _ADJ_BASIS @ Y.conj().T, 0, -1))


def b_charpoly(Y):
    """Degree-4 characteristic polynomial of :func:`b_op`, closed form.

    Coefficients descending:  (x^2 - |det Y|^2)(x^2 + g x + |det Y|^2)
    with g the real pairing of Y with its cofactor matrix.
    """
    Y = np.asarray(Y, dtype=complex)
    d2 = abs(det2(Y)) ** 2
    g = np.trace(Y @ cof2(Y).T.conj()).real     # Tr(Y cof(Y)^H)
    return np.array([1.0, g, 0.0, -g * d2, -d2 * d2])


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


def _z_polys(Y, R):
    """Z(theta) = (I + theta B)^-1 hvec(R) as W(theta) / p(theta), for B =
    b_op(Y) and a Hermitian R: returns the rows of ``w``, the cubics of
    hvec(W), ``p`` = det(I + theta B), both with descending coefficients,
    and the system B, rhs = hvec(R) they solve."""
    Bm, rhs = b_op(Y), hvec(R)
    _, c1, c2, c3, c4 = b_charpoly(Y)
    # p = 1 - c1 theta + c2 theta^2 - c3 theta^3 + c4 theta^4, and by
    # Cayley-Hamilton W = sum_k (-theta)^k v_k with v_k = B v_k-1 + c_k rhs.
    # B v_3 = -c4 rhs gives v_3 = -c4 B^-1 rhs = |det Y|^2 hvec(Y^H adj(R) Y)
    # without the cancellation of the last recurrence step, which would set
    # Z at large theta.  A det Y below 1e-8 of the products it is the
    # difference of is known to no better than the roots' tolerance: Y
    # counts as singular, and c3 = c4 = v_3 = 0.
    d2 = (-c4) ** 0.5                                    # |det Y|^2
    if d2 <= (1e-8 * (abs(Y[0, 0] * Y[1, 1]) + abs(Y[0, 1] * Y[1, 0]))) ** 2:
        c3 = c4 = d2 = 0.0
    v1 = Bm @ rhs + c1 * rhs
    v2 = Bm @ v1 + c2 * rhs
    v3 = d2 * hvec(Y.conj().T @ cof2(R).T @ Y)
    w = np.stack([-v3, v2, -v1, rhs], axis=1)            # descending powers
    return w, np.array([c4, -c3, c2, -c1, 1.0]), Bm, rhs


def _horner(c, x):
    """Value and derivative at ``x`` of the polynomial with descending
    coefficients ``c``, on Python floats."""
    v, d = c[0], 0.0
    for a in c[1:]:
        d = d * x + v
        v = v * x + a
    return v, d


def _polish(th, w, p):
    """Newton on g(theta) = theta det Z(theta) - 1 from each start in ``th``.

    Z = W / p, with the rows of ``w`` the cubics of hvec(W) and ``p`` the
    quartic (descending coefficients, see :func:`_z_polys`), and Z' =
    (W' - Z p') / p come from Horner on Python floats, one start at a time.
    Above theta = 1 they come from the reversed polynomials in u = 1 / theta,
    Z = u W~(u) / p~(u), whose terms shrink with their power there instead
    of growing.  Iterates are kept while |g| does not grow and stepped from
    while it shrinks, so one step at its noise floor is still taken; at most
    8 iterates, and no step leaves theta > 0 or goes non-finite.  An iterate
    where p evaluates to exactly 0 sits on a pole and is dropped.  Returns
    the kept thetas, their hvec(Z) and |g| relative to the size of the terms
    that cancel in it, 1 + theta (|Z11 Z22| + |Z12|^2) (inf where none was
    kept).
    """
    w, p = w.tolist(), p.tolist()
    rw, rp = [c[::-1] for c in w], p[::-1]
    ths, zs, res = [], [], []
    for t in map(float, th):
        kept = (math.inf, t, (0.0, 0.0, 0.0, 0.0))
        for _ in range(8):
            rev = t > 1.0
            x = 1.0 / t if rev else t
            q, dq = _horner(rp if rev else p, x)
            if q == 0.0:
                break
            z, dz = [], []
            for c in rw if rev else w:
                v, dv = _horner(c, x)
                if rev:                 # dz/dtheta = -u^2 dz/du
                    zi = x * v / q
                    dz.append(-x * x * (v + x * dv - zi * dq) / q)
                else:
                    zi = v / q
                    dz.append((dv - zi * dq) / q)
                z.append(zi)
            z0, z1, z2, z3 = z
            det = z0 * z1 - (z2 * z2 + z3 * z3)
            g = t * det - 1.0
            dg = det + t * (dz[0] * z1 + z0 * dz[1]
                            - 2.0 * (z2 * dz[2] + z3 * dz[3]))
            shrinks = abs(g) < kept[0]
            if abs(g) <= kept[0]:
                kept = (abs(g), t, z)
            if not shrinks or dg == 0.0:
                break
            t -= g / dg
            if not 0.0 < t < math.inf:
                break
        r, t, z = kept
        z0, z1, z2, z3 = z
        ths.append(t)
        zs.append(z)
        res.append(r / (1.0 + t * (abs(z0 * z1) + z2 * z2 + z3 * z3)))
    return np.array(ths), np.array(zs).reshape(-1, 4), np.array(res)


def solve_isotropic(k0):
    """Isotropy-forced effective tensor of the crystallite ``k0``.

    Parameters
    ----------
    k0 : KTensor
        Positive definite crystallite tensor K(X, Y).
    """
    if not isinstance(k0, KTensor):
        raise TypeError("crystallite must be a KTensor")
    if k0.X.shape != (2, 2) or k0.Y.shape != (2, 2):
        raise ValueError("crystallite must be one operator with 2x2 X and Y")
    X = k0.X
    # theta scales as 1/s^2 and Z as s under (X, Y) -> s (X, Y); solving for
    # (X, Y) / s keeps the coefficients of F in floating-point range, and a
    # power of two s scales exactly.  The PD test takes the block / s too, so
    # the absolute floor of block_is_pd rejects no small crystallite; a Y / s
    # that overflows is not PD.
    big = np.abs(X).max()
    s = 2.0 ** np.round(np.log2(big)) if 0.0 < big < np.inf else 1.0
    with np.errstate(over="ignore"):
        if not block_is_pd(kt_to_block(k0) / s):
            raise DomainError("crystallite tensor must be positive definite")
    w, p, Bm, rhs = _z_polys(k0.Y / s, (X + X.conj()) / s)
    q = np.convolve(w[0], w[1]) - np.convolve(w[2], w[2]) - np.convolve(w[3], w[3])
    F = np.concatenate(([0.0], q, [0.0])) - np.convolve(p, p)
    # leading coefficients below 1e-300 of the largest only add roots far
    # beyond any pole, and would overflow the companion matrix
    F = F[np.argmax(np.abs(F) > 1e-300 * np.abs(F).max()):]
    # roots from the companion matrices of F and of its reversal: noise or
    # tiny values in the leading coefficients of F (det Y ~ 0, weak coupling)
    # spoil its small roots, which the reversal (leading coefficient F(0) =
    # -1) resolves, while F resolves its large ones
    n = len(F) - 1
    C = np.zeros((2, n, n))
    C[:, 1:, :-1] = np.eye(n - 1)
    C[0, 0], C[1, 0] = -F[1:] / F[0], -F[-2::-1] / F[-1]
    ev = np.linalg.eigvals(C)
    r = np.concatenate((ev[0], 1.0 / ev[1][ev[1] != 0]))
    # close or double roots can stray ~sqrt(eps) off the real axis; a root
    # both polynomials give alike is polished once
    start = np.sort(r.real[(r.real > 0) & (np.abs(r.imag) <= 1e-6 * np.abs(r))])
    start = start[np.diff(start, prepend=-np.inf) > 1e-9 * start]
    ths, zs, res = _polish(start, w, p)
    # the rounding of the powers of B swamps the coefficients of W that
    # vanish for a singular Y (v_2 for a rank-one Y), and Newton then also
    # converges on roots of W / p alone, far out, where Z does not solve the
    # system it stands for: a root counts where Z solves (I + theta B) Z = rhs
    # to a normwise backward error of 1e-8
    keep = np.flatnonzero(res <= 1e-8)
    t, z = ths[keep], zs[keep]
    b_inf = np.abs(Bm).sum(axis=1).max()
    back = (np.abs(z + t[:, None] * (z @ Bm.T) - rhs).max(axis=1)
            / (np.abs(rhs).max() + np.abs(z).max(axis=1) * (1.0 + t * b_inf)))
    keep = keep[back <= 1e-8]
    ths, zs = ths / s / s, zs * s          # s ** 2 may overflow
    flagged = []
    best = None
    for i in keep[np.argsort(ths[keep])]:
        th = float(ths[i])
        if flagged and th - flagged[-1][0] <= 1e-9 * th:
            continue
        Z = hunvec(zs[i])
        Lh = Z - X.conj()
        feasible = pd2(Lh) and pd2(Z)
        flagged.append((th, feasible))
        if feasible and best is None:
            best = (th, Z, Lh)
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
        raise DomainError("positive definiteness requires |s_j| > 1")
    coeffs = (-0.25, s1 * s2, 2.0 * s1 * s2 - (s1 + s2) ** 2 + 0.5,
              s1 * s2, -0.25)
    # palindromic: u = t + 1/t solves u^2 - 4 s1 s2 u - 4 (c2 + 1/2) = 0 with
    # -(c2 + 1/2) = s1^2 + s2^2 - 1; both roots 2 (s1 s2 +- sqrt((s1^2 - 1)
    # (s2^2 - 1))) are >= 2, the smaller one taken from their product
    u_big = 2.0 * (s1 * s2 + ((s1 * s1 - 1.0) * (s2 * s2 - 1.0)) ** 0.5)
    real = []
    for u in (u_big, 4.0 * (s1 * s1 + s2 * s2 - 1.0) / u_big):
        # t^2 - u t + 1 = 0; u^2 - 4 below 0 is rounding at a double root t = 1
        big = (u + max(u * u - 4.0, 0.0) ** 0.5) / 2.0
        real += [big, 1.0 / big]
    real.sort()
    band = 1e-7
    in01 = sum(1 for r in real if band < r < 1.0 - band)
    above = sum(1 for r in real if r > 1.0 + band)
    disc = _poly_discriminant(np.array(coeffs))
    disc_formula = (s1 ** 2 - 1) ** 2 * (s2 ** 2 - 1) ** 2 * (s1 ** 2 - s2 ** 2) ** 2
    p0 = float(np.polyval(coeffs, 0.0))
    return QuarticReport(coeffs, tuple(real), in01, above,
                         float(disc), float(disc_formula), p0)
