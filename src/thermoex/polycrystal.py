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

From one ``tolist`` of X and Y to the returned root list the solver runs
on Python floats and complex numbers: the rows of B_Y and its
characteristic coefficients, the Cayley-Hamilton vectors, the coefficients
of F, the choice of starts, Newton, both root filters and the feasibility
tests.  numpy does three things: the PD test of the crystallite block, one
``eigvals`` of the two companion matrices stacked, and the returned arrays
Z, Lstar and B.  A det Y within 1e-8 of the products it is the difference
of counts as 0; within 64 eps of them Y is rank one, and the theta^2
coefficient of W, (B_Y^2 + g B_Y) hvec(X + conj X) with B_Y^2 = tr(B_Y) B_Y
= -g B_Y, is set to its exact 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# det2 is unused here, but bound: the bench tracer counts calls of
# polycrystal.det2
from .tensor4 import (DomainError, KTensor, block_is_pd, det2,  # noqa: F401
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

_EPS = 2.0 ** -52                   # double precision epsilon

# both companion matrices of a degree-n F but for their first rows
_SHIFT = [np.stack([np.eye(n, k=-1)] * 2) for n in range(9)]


def hvec(H):
    """Coordinates of a Hermitian 2x2 in HERM_BASIS."""
    return np.array([H[0, 0].real, H[1, 1].real, H[0, 1].real, H[0, 1].imag])


def hunvec(v):
    return np.array([[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]])


def _b_y(y):
    """B_Y on Python numbers, for y = (Y00, Y01, Y10, Y11): the rows of its
    matrix in HERM_BASIS, g = 2 Re(Y00 conj Y11 - Y01 conj Y10) and |det Y|.

    Column k is hvec(Y adj(E_k) Y^H); with u = (Y00, Y10) and v = (Y01, Y11)
    the columns of Y, Y adj(E_k) Y^H is v v^H, u u^H, -(u v^H + v u^H) and
    i (v u^H - u v^H) in turn.
    """
    a, b, c, d = y
    ab, cd = a * b.conjugate(), c * d.conjugate()
    ac, bd = a * c.conjugate(), b * d.conjugate()
    ad, bc = a * d.conjugate(), b * c.conjugate()
    s, t = ad + bc, ad - bc
    rows = [[b.real * b.real + b.imag * b.imag, a.real * a.real + a.imag * a.imag,
             -2.0 * ab.real, 2.0 * ab.imag],
            [d.real * d.real + d.imag * d.imag, c.real * c.real + c.imag * c.imag,
             -2.0 * cd.real, 2.0 * cd.imag],
            [bd.real, ac.real, -s.real, t.imag],
            [bd.imag, ac.imag, -s.imag, -t.real]]
    return rows, 2.0 * t.real, abs(a * d - b * c)


def b_op(Y):
    """Matrix of Z -> Y cof(Z)^T Y^H on Hermitian 2x2, in HERM_BASIS."""
    return np.array(_b_y(np.asarray(Y, dtype=complex).ravel().tolist())[0])


def b_charpoly(Y):
    """Degree-4 characteristic polynomial of :func:`b_op`, closed form.

    Coefficients descending:  (x^2 - |det Y|^2)(x^2 + g x + |det Y|^2)
    with g the real pairing of Y with its cofactor matrix.
    """
    _, g, m = _b_y(np.asarray(Y, dtype=complex).ravel().tolist())
    d2 = m * m
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


def _z_polys(y, rhs):
    """Z(theta) = (I + theta B)^-1 rhs as W(theta) / p(theta), on Python
    floats, for B = B_Y with y = (Y00, Y01, Y10, Y11) and rhs = hvec(R) of a
    Hermitian R: returns the rows of ``w``, the cubics of hvec(W), ``p`` =
    det(I + theta B), both with descending coefficients, and the rows of B."""
    B, g, m = _b_y(y)
    a, b, c, d = y
    r0, r1, r2, r3 = rhs
    size = abs(a * d) + abs(b * c)
    # p = 1 - c1 theta + c2 theta^2 - c3 theta^3 + c4 theta^4 with c1 = g,
    # c2 = 0, c3 = -g |det Y|^2 and c4 = -|det Y|^4 (b_charpoly), and by
    # Cayley-Hamilton W = sum_k (-theta)^k v_k with v_k = B v_k-1 + c_k rhs.
    # B v_3 = -c4 rhs gives v_3 = |det Y|^2 hvec(Y^H adj(R) Y) without the
    # cancellation of the last recurrence step, which would set Z at large
    # theta.  A det Y below 1e-8 of the products it is the difference of is
    # known to no better than the roots' tolerance: Y counts as singular,
    # and c3 = c4 = v_3 = 0.
    d2 = m * m if m > 1e-8 * size else 0.0
    v1 = [b0 * r0 + b1 * r1 + b2 * r2 + b3 * r3 + g * ri
          for (b0, b1, b2, b3), ri in zip(B, rhs)]
    # A det Y within 64 eps of them is rank one to rounding: then B^2 =
    # tr(B) B = -g B, and v_2 = (B^2 + g B) rhs is 0 exactly, not the noise
    # the recurrence leaves, on which Newton finds roots of W / p far out
    if m <= 64.0 * _EPS * size:
        v2 = [0.0] * 4
    else:
        v2 = [b0 * v1[0] + b1 * v1[1] + b2 * v1[2] + b3 * v1[3]
              for b0, b1, b2, b3 in B]
    # hvec(Y^H adj(R) Y) from the columns u = (a, c) and v = (b, d) of Y,
    # with adj(R) = [[r1, e], [conj e, r0]]
    e = complex(-r2, -r3)
    au = (r1 * a + e * c, e.conjugate() * a + r0 * c)
    av = (r1 * b + e * d, e.conjugate() * b + r0 * d)
    m01 = a.conjugate() * av[0] + c.conjugate() * av[1]
    v3 = [d2 * (a.conjugate() * au[0] + c.conjugate() * au[1]).real,
          d2 * (b.conjugate() * av[0] + d.conjugate() * av[1]).real,
          d2 * m01.real, d2 * m01.imag]
    w = [[-x3, x2, -x1, r] for x3, x2, x1, r in zip(v3, v2, v1, rhs)]
    return w, [-d2 * d2, g * d2, 0.0, -g, 1.0], B


def _polish(th, w, p):
    """Newton on g(theta) = theta det Z(theta) - 1 from each start in ``th``.

    Z = W / p, with the rows of ``w`` the cubics of hvec(W) and ``p`` the
    quartic (lists of descending coefficients, see :func:`_z_polys`), and
    Z' = (W' - Z p') / p come from one Horner loop over p and the rows of W
    on Python floats, one start at a time.  Above theta = 1 they come from
    the reversed polynomials in u = 1 / theta, Z = u W~(u) / p~(u), whose
    terms shrink with their power there instead of growing.  Iterates are
    kept while |g| does not grow and stepped from while it shrinks, so one
    step at its noise floor is still taken; at most 8 iterates, and no step
    leaves theta > 0 or goes non-finite.  An iterate where p evaluates to
    exactly 0 sits on a pole and is dropped.  Returns the lists of the kept
    thetas, their hvec(Z) and |g| relative to the size of the terms that
    cancel in it, 1 + theta (|Z11 Z22| + |Z12|^2) (inf where none was kept).
    """
    # coefficient columns of p and the four cubics, each cubic led by a 0:
    # 0 * x + 0 = 0 and 0 * x + c = c, so each Horner sequence is unchanged
    fwd = list(zip(p, *([0.0] + c for c in w)))
    rev = list(zip(p[::-1], *([0.0] + c[::-1] for c in w)))
    ths, zs, res = [], [], []
    for t in th:
        kept = (math.inf, t, (0.0, 0.0, 0.0, 0.0))
        for _ in range(8):
            flip = t > 1.0
            x = 1.0 / t if flip else t
            (q, v0, v1, v2, v3), *cols = rev if flip else fwd
            dq = d0 = d1 = d2 = d3 = 0.0
            for cq, c0, c1, c2, c3 in cols:
                dq, q = dq * x + q, q * x + cq
                d0, v0 = d0 * x + v0, v0 * x + c0
                d1, v1 = d1 * x + v1, v1 * x + c1
                d2, v2 = d2 * x + v2, v2 * x + c2
                d3, v3 = d3 * x + v3, v3 * x + c3
            if q == 0.0:
                break
            if flip:                    # dz/dtheta = -u^2 dz/du
                z0, z1, z2, z3 = x * v0 / q, x * v1 / q, x * v2 / q, x * v3 / q
                k = -x * x
                d0 = k * (v0 + x * d0 - z0 * dq) / q
                d1 = k * (v1 + x * d1 - z1 * dq) / q
                d2 = k * (v2 + x * d2 - z2 * dq) / q
                d3 = k * (v3 + x * d3 - z3 * dq) / q
            else:
                z0, z1, z2, z3 = v0 / q, v1 / q, v2 / q, v3 / q
                d0, d1 = (d0 - z0 * dq) / q, (d1 - z1 * dq) / q
                d2, d3 = (d2 - z2 * dq) / q, (d3 - z3 * dq) / q
            det = z0 * z1 - (z2 * z2 + z3 * z3)
            g = t * det - 1.0
            dg = det + t * (d0 * z1 + z0 * d1 - 2.0 * (z2 * d2 + z3 * d3))
            shrinks = abs(g) < kept[0]
            if abs(g) <= kept[0]:
                kept = (abs(g), t, (z0, z1, z2, z3))
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
    return ths, zs, res


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
    (x00, x01), (x10, x11) = X.tolist()
    # theta scales as 1/s^2 and Z as s under (X, Y) -> s (X, Y); solving for
    # (X, Y) / s keeps the coefficients of F in floating-point range, and a
    # power of two s scales exactly.  The PD test takes the block / s too, so
    # the absolute floor of block_is_pd rejects no small crystallite; a Y / s
    # that overflows is not PD, nor is the block / inf of an s = 2^1024.
    big = max(abs(x00), abs(x01), abs(x10), abs(x11))
    e = round(math.log2(big)) if 0.0 < big < math.inf else 0
    s = 2.0 ** e if e < 1024 else math.inf
    with np.errstate(over="ignore"):
        if not block_is_pd(kt_to_block(k0) / s):
            raise DomainError("crystallite tensor must be positive definite")
    rhs = [(x00.real + x00.real) / s, (x11.real + x11.real) / s,
           (x01.real + x01.real) / s, 0.0]              # hvec(X + conj(X)) / s
    w, p, Bm = _z_polys([v / s for v in k0.Y.ravel().tolist()], rhs)
    # F = theta det W - p^2, descending, degree <= 8
    F = [0.0] * 9
    cols = list(zip(*w))
    for i, (a0, a1, a2, a3) in enumerate(cols, 1):
        for j, (b0, b1, b2, b3) in enumerate(cols, i):
            F[j] += a0 * b1 - a2 * b2 - a3 * b3
    for i, a in enumerate(p):
        for j, b in enumerate(p, i):
            F[j] -= a * b
    # leading coefficients below 1e-300 of the largest only add roots far
    # beyond any pole, and would overflow the companion matrix
    cut = 1e-300 * max(map(abs, F))
    F = F[next((i for i, f in enumerate(F) if abs(f) > cut), 0):]
    # roots from the companion matrices of F and of its reversal: noise or
    # tiny values in the leading coefficients of F (det Y ~ 0, weak coupling)
    # spoil its small roots, which the reversal (leading coefficient F(0) =
    # -1) resolves, while F resolves its large ones
    C = _SHIFT[len(F) - 1].copy()
    C[:, 0] = [-f / F[0] for f in F[1:]], [-f / F[-1] for f in F[-2::-1]]
    ev, ev_rev = np.linalg.eigvals(C).tolist()
    r = ev + [1.0 / v for v in ev_rev if v != 0]
    # close or double roots can stray ~sqrt(eps) off the real axis; a root
    # both polynomials give alike is polished once
    start = sorted(v.real for v in r if v.real > 0 and abs(v.imag) <= 1e-6 * abs(v))
    start = [t for t, u in zip(start, [-math.inf] + start) if t - u > 1e-9 * t]
    # the rounding of the powers of B swamps the coefficients of W that
    # vanish for a singular Y, and Newton then also converges on roots of
    # W / p alone, far out, where Z does not solve the system it stands
    # for: a root counts where Z solves (I + theta B) Z = rhs to a normwise
    # backward error of 1e-8
    b_inf = max(abs(b0) + abs(b1) + abs(b2) + abs(b3) for b0, b1, b2, b3 in Bm)
    r_inf = max(map(abs, rhs))
    found = []
    for t, z, res in zip(*_polish(start, w, p)):
        if not res <= 1e-8:
            continue
        z0, z1, z2, z3 = z
        back = max(abs(zi + t * (b0 * z0 + b1 * z1 + b2 * z2 + b3 * z3) - ri)
                   for zi, (b0, b1, b2, b3), ri in zip(z, Bm, rhs))
        if back <= 1e-8 * (r_inf + max(map(abs, z)) * (1.0 + t * b_inf)):
            found.append((t / s / s, [v * s for v in z]))      # s ** 2 may overflow
    flagged = []
    best = None
    for th, (z0, z1, z2, z3) in sorted(found):
        if flagged and th - flagged[-1][0] <= 1e-9 * th:
            continue
        Z = [[z0, z2 + 1j * z3], [z2 - 1j * z3, z1]]
        Lh = [[z0 - x00.conjugate(), Z[0][1] - x01.conjugate()],
              [Z[1][0] - x10.conjugate(), z1 - x11.conjugate()]]
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
    # Lstar = B^-2 + i alpha Rperp: B^-2 is the symmetric part of Re(Lstar)
    (l00, l01), (l10, l11) = Lh
    alpha = -l01.imag
    sym = (l01.real + l10.real) / 2.0
    B = inv2(spd_sqrt_2x2(np.array([[l00.real, sym], [sym, l11.real]])))
    return PolyResult(theta, np.array(Z), np.array(Lh), alpha, B, tuple(flagged),
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
