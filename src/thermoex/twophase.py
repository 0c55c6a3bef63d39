"""Two isotropic thermoelectric phases: case analysis and effective tensor.

Phases are written L_j = sig_j (x) I + r_j T with sig_j a 2x2 SPD pair
matrix and r_j the isotropic antisymmetric coupling (positive
definiteness means r_j^2 < det sig_j).  The comparison scalar

    |r1 - r2|  vs  |sqrt(det sig1) - sqrt(det sig2)|

splits weakly coupled, strongly coupled and borderline composites; a
second split asks whether sig1 and sig2 are proportional.  Explicit
formulas cover cases 2c, 1cii, 1aii, 2a and (by decoupling into two
conductivity problems) 1ai; cases 1b and 2b return implicit determinant
constraints; case 1ci returns a link structure with one free SPD matrix.

Every formula is stated in a rotated "pair frame" diagonalizing
sig1^-1/2 sig2 sig1^-1/2 but is evaluated here in covariant form, so
results live in the caller's frame directly.  The scalar work (square
roots, determinants, the case tree, a0) runs on Python floats.  numpy keeps
the 2x2 products and eigh, whose BLAS (FMA) and LAPACK rounding the results
print, and the 4x4 case formulas.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor4 import (I2, RPERP, T4, DomainError, block_parts, check_fraction,
                      check_spd2, cof2, congruence, det2, inv2, kron2, mobius,
                      spd_sqrt_rows)

__all__ = [
    "IsoPhase", "IsoPhasePair", "Reduced", "CaseTag", "EffectiveResult",
    "reduce_pair", "classify", "a0_roots", "strong_ab", "effective",
    "s_matrices", "formula_1aii", "BranchWarning",
]

_BAND = 1e-10    # relative width of the case tree's boundary equalities


class BranchWarning(UserWarning):
    """Raised to signal a sign-branch pick that failed its laminate check."""


@dataclass(frozen=True)
class IsoPhase:
    sig: np.ndarray
    r: float = 0.0
    abd: tuple = field(init=False, repr=False)   # sig's (s11, s12, s22), floats
    det: float = field(init=False, repr=False)   # det(sig)

    def __post_init__(self):
        s = check_spd2(self.sig, "sigma")
        (a, b), (_, d) = s.tolist()
        r, det = float(self.r), a * d - b * b
        if abs(r) == math.inf:
            raise ValueError("r must be finite")
        # sig (x) I + r T is PD exactly when sig is and r^2 < det(sig)
        if not det > r * r:
            raise DomainError("phase violates r^2 < det(sig)")
        for name, v in (("sig", s), ("r", r), ("abd", (a, b, d)), ("det", det)):
            object.__setattr__(self, name, v)

    def tensor(self):
        return kron2(self.sig, I2) + self.r * T4

    def __eq__(self, other):    # by the float entries, not the array sig
        return (isinstance(other, IsoPhase)
                and (self.abd, self.r) == (other.abd, other.r))

    def __hash__(self):
        return hash((self.abd, self.r))


@dataclass(frozen=True)
class IsoPhasePair:
    """With a microstructure model, ``f`` is the model's ``phase1_fraction``:
    a given ``f`` more than 1e-12 from it raises ValueError."""

    phase1: IsoPhase
    phase2: IsoPhase
    f: float                  # volume fraction of phase 1
    micro: object = None      # model: sigma_star(h), tensor, phase1_fraction

    def __post_init__(self):
        f = check_fraction(self.f)
        if self.micro is not None:
            model_f = self.micro.phase1_fraction
            if abs(f - model_f) > 1e-12:
                raise ValueError(f"volume fraction {f} differs from the "
                                 f"microstructure's {model_f}")
            f = model_f
        object.__setattr__(self, "f", f)

    @cached_property
    def _reduced(self):
        """:func:`reduce_pair` of this pair, computed once and shared by
        :func:`classify`, :func:`effective` and :func:`s_matrices`."""
        return reduce_pair(self)


@dataclass(frozen=True, eq=False)
class Reduced:
    """Pair frame data: diagonalized contrast, its mean and coupling scalar."""

    rho: float
    lam1: float               # eigenvalues of s1^-1/2 s2 s1^-1/2, lam1 >= lam2
    lam2: float
    theta: float              # tr(s1^-1 s2) / 2
    frame: np.ndarray         # rotation V with V^T (s1^-1/2 s2 s1^-1/2) V diagonal
    s1_half: np.ndarray
    s1_half_inv: np.ndarray


def reduce_pair(pair):
    (a, b, d), s2 = pair.phase1.abd, pair.phase2.sig
    h = spd_sqrt_rows(((a, b), (b, d)))
    s1hi = inv2(h)
    sig = s1hi @ s2 @ s1hi
    w, V = np.linalg.eigh((sig + sig.T) / 2.0)
    # eigh sorts ascending: swap the columns, then flip the second one if
    # that makes the frame improper
    (lam2, lam1), ((v00, v01), (v10, v11)) = w.tolist(), V.tolist()
    if v01 * v10 - v00 * v11 < 0:
        v00, v10 = -v00, -v10
    (p00, _), (_, p11) = (inv2(((a, b), (b, d))) @ s2).tolist()
    rho = (pair.phase2.r - pair.phase1.r) / math.sqrt(pair.phase1.det)
    frame = np.array(((v01, v00), (v11, v10)))
    return Reduced(rho, lam1, lam2, 0.5 * (p00 + p11), frame, np.array(h), s1hi)


def s_matrices(pair):
    """Spectral split of the pair: S1 + S2 = sig1, with the property
    sig2 = lam2 S1 + lam1 S2; undefined for proportional pairs."""
    red = pair._reduced
    s1, s2 = pair.phase1.sig, pair.phase2.sig
    if abs(red.lam1 - red.lam2) < 1e-12 * (1.0 + red.lam1):
        raise DomainError("S matrices are undefined for proportional pairs")
    S1 = (s2 - red.lam1 * s1) / (red.lam2 - red.lam1)
    S2 = (s2 - red.lam2 * s1) / (red.lam1 - red.lam2)
    return S1, S2


@dataclass(frozen=True, eq=False)
class CaseTag:
    tag: str
    scalars: dict = field(default_factory=dict)

    def __str__(self):
        return self.tag


def a0_roots(det_sigma, rho):
    """Roots of (a^2 + 1) rho = a (det_sigma - rho^2 - 1).

    The two roots multiply to one; they are real exactly in the weakly
    coupled regime.  For rho = 0 the equation degenerates and the root
    pair is reported as (0.0, inf).
    """
    if rho == 0.0:
        return (0.0, math.inf)
    c = (det_sigma - rho ** 2 - 1.0) / rho
    disc = c * c - 4.0
    if disc < 0:
        return None
    r1 = (c - math.sqrt(disc)) / 2.0
    r2 = (c + math.sqrt(disc)) / 2.0
    return (r1, r2)


def classify(pair):
    """Resolve the case tree; boundary equalities hold within the band ``_BAND``."""
    p1, p2 = pair.phase1, pair.phase2
    (a1, b1, e1), (a2, b2, e2), r1, r2 = p1.abd, p2.abd, p1.r, p2.r
    red = pair._reduced
    scale = 1.0 + max(a1, abs(b1), e1, a2, abs(b2), e2, abs(r1), abs(r2))
    dr = abs(r1 - r2)
    gap = dr - abs(math.sqrt(p1.det) - math.sqrt(p2.det))
    prop_defect = np.linalg.norm(p2.sig - red.theta * p1.sig)
    scalars = {
        "rho": red.rho, "det_sigma": red.lam1 * red.lam2,
        "lam1": red.lam1, "lam2": red.lam2, "gap": gap,
        "proportional_defect": prop_defect,
    }
    roots = a0_roots(red.lam1 * red.lam2, red.rho)
    if roots is not None:
        scalars["a0_roots"] = roots
    if prop_defect <= _BAND * scale:
        if abs(gap) <= _BAND * scale:
            return CaseTag("2c", scalars)
        return CaseTag("2a" if gap < 0 else "2b", scalars)
    if abs(gap) <= _BAND * scale:
        if abs(r1 - r2) <= _BAND * scale:
            return CaseTag("1cii", scalars)
        return CaseTag("1ci", scalars)
    if gap > 0:
        return CaseTag("1b", scalars)
    split = dr ** 2 - ((a1 - a2) * (e1 - e2) - (b1 - b2) * (b1 - b2))
    scalars["decoupling_defect"] = split
    if abs(split) <= _BAND * scale ** 2:
        return CaseTag("1aii", scalars)
    return CaseTag("1ai", scalars)


def strong_ab(pair):
    """Scaling (a, b) and invariants (A, B) of the strongly coupled map."""
    r1, r2 = pair.phase1.r, pair.phase2.r
    d1, d2 = pair.phase1.det, pair.phase2.det
    dr = r2 - r1
    if dr == 0.0:
        raise DomainError("strong coupling requires r1 != r2")
    num = (dr ** 2 - (math.sqrt(d1) - math.sqrt(d2)) ** 2) \
        * ((math.sqrt(d1) + math.sqrt(d2)) ** 2 - dr ** 2)
    a0 = abs(dr) / math.sqrt(num) if num > 0 else math.nan
    a = 2.0 * a0 * math.sqrt(d1)
    b = a0 * (d2 + r1 ** 2 - r2 ** 2) / dr
    A = (d2 - d1 + r1 ** 2 - r2 ** 2) / (2.0 * dr)
    B = num / (4.0 * dr ** 2)
    return a, b, A, B


@dataclass(eq=False)
class EffectiveResult:
    case: CaseTag
    kind: str                     # 'explicit' | 'implicit' | 'link'
    Lstar: np.ndarray = None
    metadata: dict = field(default_factory=dict)
    residual_fn: object = None    # L -> scaled residual for implicit cases

    def residual(self, L):
        if self.residual_fn is None:
            raise ValueError("no residual functional for this case")
        return self.residual_fn(np.asarray(L, float))


def _pick_a0(det_sigma, rho):
    """Root of the decoupling quadratic giving a PD image; |a0| <= 1 first."""
    roots = a0_roots(det_sigma, rho)
    if roots is None:
        raise DomainError("no real decoupling root: pair is strongly coupled")
    good = []
    for a0 in roots:
        if not math.isfinite(a0):
            continue
        den = det_sigma - (rho + a0) ** 2
        if den != 0 and (1.0 - a0 ** 2) / den > 0:
            good.append(a0)
    if not good:
        raise DomainError("decoupling roots hit the transform pole")
    return min(good, key=abs)


def effective(pair):
    """Case-resolved effective tensor of the two-phase composite.

    Explicit cases return the tensor; case 1ci returns the link structure
    (free SPD parameter), cases 1b/2b return residual functionals for the
    determinant constraints that any effective tensor must satisfy.
    """
    tag = classify(pair)
    micro = pair.micro
    if micro is None and tag.tag not in ("2c", "2b", "1b"):
        raise ValueError("this case needs a microstructure model (micro=...)")
    red = pair._reduced
    s1, s2 = pair.phase1.sig, pair.phase2.sig
    r1, r2 = pair.phase1.r, pair.phase2.r
    meta = dict(tag.scalars)

    if tag.tag == "2c":
        # microstructure independent; only the fractions enter
        f = pair.f
        sig_star = inv2(f * inv2(s1) + (1.0 - f) * inv2(s2))
        wgt1, wgt2 = f, (1.0 - f) / red.theta      # f / theta1, theta1 = 1
        r_star = (wgt1 * r1 + wgt2 * r2) / (wgt1 + wgt2)
        meta["sigma_star"] = sig_star
        meta["r_star"] = r_star
        L = kron2(sig_star, I2) + r_star * T4
        return EffectiveResult(tag, "explicit", L, meta)

    if tag.tag == "1cii":
        S1, S2 = s_matrices(pair)
        sig_star = micro.sigma_star(red.lam1)
        ds = det2(sig_star)
        L = r1 * T4 + kron2(S1 / ds + S2, sig_star)
        meta["sigma_star"] = sig_star
        return EffectiveResult(tag, "explicit", L, meta)

    if tag.tag == "1aii":
        S1, S2 = s_matrices(pair)
        sig_star = micro.sigma_star(red.lam1 / red.lam2)
        # rho = 0 has the roots 0 and inf (a0_roots): at lam1 = 1 take 0; at
        # lam2 = 1 the root is inf, taken as 1/inf = 0 by the root pairing
        a0 = (red.lam1 - 1.0) / red.rho if red.rho else 0.0
        if not red.rho and abs(red.lam1 - 1.0) > abs(red.lam2 - 1.0):
            L = formula_1aii(r1, s1, S2, S1, a0, sig_star / det2(sig_star))
        else:
            L = formula_1aii(r1, s1, S1, S2, a0, sig_star)
        meta.update(a0=a0, sigma_star=sig_star)
        return EffectiveResult(tag, "explicit", L, meta)

    if tag.tag == "1ai":
        dets = red.lam1 * red.lam2
        a0 = _pick_a0(dets, red.rho)
        scalefac = (1.0 - a0 ** 2) / (dets - (red.rho + a0) ** 2)
        ell1, ell2 = scalefac * red.lam1, scalefac * red.lam2
        S11 = micro.sigma_star(ell1)
        S22 = micro.sigma_star(ell2)
        L0s = np.zeros((4, 4))
        L0s[:2, :2], L0s[2:, 2:] = S11, S22
        back = mobius(np.array([[-a0, 1.0], [1.0, -a0]]), L0s)
        back = (back + back.T) / 2.0
        L = congruence(red.s1_half, congruence(red.frame, back)) + r1 * T4
        meta.update(a0=a0, conductivities=(ell1, ell2),
                    reconstructed_by_decoupling=True)
        return EffectiveResult(tag, "explicit", (L + L.T) / 2.0, meta)

    if tag.tag == "2a":
        dets = tag.scalars["det_sigma"]
        a0 = _pick_a0(dets, red.rho)
        # contrast of the decoupled conductivity problem
        h = (red.rho * a0 + 1.0) / red.theta
        sig_star = micro.sigma_star(h)
        ds = det2(sig_star)
        sd1 = math.sqrt(pair.phase1.det)
        L = (1.0 - a0 ** 2) * kron2(s1, sig_star) / (ds - a0 ** 2) \
            + (r1 + a0 * (1.0 - ds) * sd1 / (ds - a0 ** 2)) * T4
        meta.update(a0=a0, h=h, sigma_star=sig_star)
        return EffectiveResult(tag, "explicit", L, meta)

    if tag.tag == "2b":
        a, b, A, B = strong_ab(pair)
        meta.update(a=a, b=b, A=A, B=B)

        def residual_2b(L):
            t = float((L * T4).sum()) / 4.0
            rem = L - t * T4
            # least-squares fit of rem = kron(s1, Lp) over the four blocks
            Lp = sum(s1[i, j] * rem[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                     for i in range(2) for j in range(2)) / (s1 * s1).sum()
            nrm = (1.0 + np.linalg.norm(L)) ** 2
            struct = np.linalg.norm(rem - kron2(s1, Lp))
            cons = abs(det2(s1) * det2(Lp) - ((t + A) ** 2 + B))
            return (struct + cons) / nrm

        return EffectiveResult(tag, "implicit", None, meta, residual_2b)

    if tag.tag == "1b":
        a, b, A, B = strong_ab(pair)
        S1, S2 = s_matrices(pair)
        Z0 = S2 @ RPERP @ S1 - S1 @ RPERP @ S2
        ZR = kron2(Z0, RPERP)
        meta.update(a=a, b=b, A=A, B=B, Z0=Z0)

        def residual_1b(L):
            sh = L + A * T4
            r = sh @ T4 @ ZR @ T4 @ sh + B * ZR
            return float(np.linalg.norm(r) / (1.0 + np.linalg.norm(L)) ** 2)

        return EffectiveResult(tag, "implicit", None, meta, residual_1b)

    # 1ci: borderline with r1 != r2; one free SPD parameter remains
    S1, S2 = s_matrices(pair)
    sig_star = micro.sigma_star(math.sqrt(red.lam2 / red.lam1))
    sd1, sd2 = math.sqrt(pair.phase1.det), math.sqrt(pair.phase2.det)
    branch = -1.0 if (r2 - r1) * (sd2 - sd1) > 0 else 1.0
    alpha = (sd1 - sd2) / (r1 - r2) * sd1
    meta.update(sigma_star=sig_star, branch=branch, alpha=alpha)

    def extract(L):
        """Pull the free parameter out of an effective tensor; returns
        (Lp, structure_residual)."""
        Ln = congruence(red.frame.T, congruence(red.s1_half_inv, L - r1 * T4))
        L11, L12, L22 = block_parts(Ln)
        Lp = L11
        pred12 = branch * (RPERP @ cof2(Lp) @ sig_star - RPERP)
        pred22 = sig_star @ cof2(Lp) @ sig_star
        nrm = (1.0 + np.linalg.norm(Ln)) ** 2
        res = (np.linalg.norm(L12 - pred12) + np.linalg.norm(L22 - pred22)) / nrm
        return Lp, float(res)

    def reconstruct(Lp):
        """Covariant form of the effective tensor for a given parameter."""
        Astar = cof2(Lp) @ sig_star - 0.5 * np.trace(cof2(Lp) @ sig_star) * I2
        astar = 0.5 * np.trace(cof2(Lp) @ sig_star)
        beta = r1 + alpha * (astar - 1.0)
        L = kron2(S1, sig_star @ cof2(Lp) @ sig_star) + kron2(S2, Lp) \
            + alpha * T4 @ kron2(inv2(s1) @ (S1 - S2), Astar) + beta * T4
        return (L + L.T) / 2.0

    L = micro.tensor(pair.phase1.tensor(), pair.phase2.tensor())
    Lp, res = extract(L)
    if res > 1e-6:
        warnings.warn("1ci branch choice failed its laminate validation",
                      BranchWarning)
    meta.update(extract=extract, reconstruct=reconstruct, free_parameter=Lp,
                structure_residual=res)
    return EffectiveResult(tag, "link", L, meta)


def formula_1aii(r1, s1, S1, S2, a0, sig_star):
    """Closed form for the decoupling-degenerate weakly coupled case.

    Invariant under the root pairing a0 -> 1/a0 with S1 <-> S2 and
    sig_star -> sig_star / det(sig_star), and under the phase-index
    interchange.
    """
    sig_star = np.asarray(sig_star, dtype=float)
    xs = 0.5 * np.trace(sig_star)
    ds = det2(sig_star)
    den = det2(sig_star - a0 ** 2 * I2)
    sd1 = np.sqrt(det2(s1))
    return (r1 + a0 * ((1.0 - a0 ** 2) * (xs - a0 ** 2) / den - 1.0) * sd1) * T4 \
        + (1.0 - a0 ** 2) / den * (
            kron2(S1, sig_star - a0 ** 2 * I2)
            + kron2(S2, ds * I2 - a0 ** 2 * sig_star)
            + a0 * sd1 * T4 @ kron2(inv2(s1) @ (S1 - S2),
                                    sig_star - xs * I2))
