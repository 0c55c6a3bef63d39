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
results live in the caller's frame directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor4 import (I2, RPERP, T4, DomainError, block_parts, check_spd2, cof2,
                      congruence, det2, inv2, kron2, mobius, spd_sqrt_2x2)

__all__ = [
    "IsoPhase", "IsoPhasePair", "Reduced", "CaseTag", "EffectiveResult",
    "reduce_pair", "classify", "a0_roots", "strong_ab", "effective",
    "s_matrices", "formula_1aii", "BranchWarning",
]


class BranchWarning(UserWarning):
    """Raised to signal a sign-branch pick that failed its laminate check."""


@dataclass(frozen=True)
class IsoPhase:
    sig: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        s = check_spd2(self.sig, "sigma")
        object.__setattr__(self, "sig", s)
        if abs(self.r) == np.inf:
            raise ValueError("r must be finite")
        # sig (x) I + r T is PD exactly when sig is and r^2 < det(sig)
        if not det2(s) > self.r * self.r:
            raise DomainError("phase violates r^2 < det(sig)")

    def tensor(self):
        return kron2(self.sig, I2) + self.r * T4


@dataclass(frozen=True)
class IsoPhasePair:
    phase1: IsoPhase
    phase2: IsoPhase
    f: float                  # volume fraction of phase 1
    micro: object = None      # model exposing sigma_star(h)

    def __post_init__(self):
        if not 0.0 <= self.f <= 1.0:
            raise ValueError("volume fraction must lie in [0, 1]")

    @cached_property
    def _reduced(self):
        """:func:`reduce_pair` of this pair, computed once and shared by
        :func:`classify`, :func:`effective` and :func:`s_matrices`."""
        return reduce_pair(self)


@dataclass(frozen=True)
class Reduced:
    """Pair frame data: diagonalized contrast and coupling scalar."""

    sigma: np.ndarray         # diagonal contrast diag(lam1, lam2), lam1 >= lam2
    rho: float
    lam1: float
    lam2: float
    frame: np.ndarray         # rotation V with V^T (s1^-1/2 s2 s1^-1/2) V diagonal
    s1_half: np.ndarray
    s1_half_inv: np.ndarray


def reduce_pair(pair):
    s1, s2 = pair.phase1.sig, pair.phase2.sig
    s1h = spd_sqrt_2x2(s1)
    s1hi = inv2(s1h)
    sig = s1hi @ s2 @ s1hi
    sig = (sig + sig.T) / 2.0
    w, V = np.linalg.eigh(sig)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    if det2(V) < 0:
        V = V.copy()
        V[:, 1] = -V[:, 1]
    rho = (pair.phase2.r - pair.phase1.r) / np.sqrt(det2(s1))
    return Reduced(np.diag(w), rho, float(w[0]), float(w[1]), V, s1h, s1hi)


def s_matrices(pair):
    """Spectral split of the pair: S1 + S2 = sig1, with the property
    sig2 = lam1 S1 + lam2 S2; undefined for proportional pairs."""
    red = pair._reduced
    s1, s2 = pair.phase1.sig, pair.phase2.sig
    if abs(red.lam1 - red.lam2) < 1e-12 * (1.0 + red.lam1):
        raise DomainError("S matrices are undefined for proportional pairs")
    S1 = (s2 - red.lam1 * s1) / (red.lam2 - red.lam1)
    S2 = (s2 - red.lam2 * s1) / (red.lam1 - red.lam2)
    return S1, S2


@dataclass(frozen=True)
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
        return (0.0, np.inf)
    c = (det_sigma - rho ** 2 - 1.0) / rho
    disc = c * c - 4.0
    if disc < 0:
        return None
    r1 = (c - np.sqrt(disc)) / 2.0
    r2 = (c + np.sqrt(disc)) / 2.0
    return (r1, r2)


def _boundary_scale(pair):
    return 1.0 + max(np.abs(pair.phase1.sig).max(), np.abs(pair.phase2.sig).max(),
                     abs(pair.phase1.r), abs(pair.phase2.r))


def classify(pair, tol=1e-10):
    """Resolve the case tree; boundary equalities use a relative band."""
    s1, s2 = pair.phase1.sig, pair.phase2.sig
    r1, r2 = pair.phase1.r, pair.phase2.r
    red = pair._reduced
    scale = _boundary_scale(pair)
    d1, d2 = det2(s1), det2(s2)
    dr = abs(r1 - r2)
    gap = dr - abs(np.sqrt(d1) - np.sqrt(d2))
    theta = 0.5 * np.trace(inv2(s1) @ s2)
    prop_defect = np.linalg.norm(s2 - theta * s1)
    scalars = {
        "rho": red.rho, "det_sigma": red.lam1 * red.lam2,
        "lam1": red.lam1, "lam2": red.lam2, "gap": gap,
        "proportional_defect": prop_defect,
    }
    roots = a0_roots(red.lam1 * red.lam2, red.rho)
    if roots is not None:
        scalars["a0_roots"] = roots
    if prop_defect <= tol * scale:
        if abs(gap) <= tol * scale:
            return CaseTag("2c", scalars)
        return CaseTag("2a" if gap < 0 else "2b", scalars)
    if abs(gap) <= tol * scale:
        if abs(r1 - r2) <= tol * scale:
            return CaseTag("1cii", scalars)
        return CaseTag("1ci", scalars)
    if gap > 0:
        return CaseTag("1b", scalars)
    split = dr ** 2 - det2(s1 - s2)
    scalars["decoupling_defect"] = split
    if abs(split) <= tol * scale ** 2:
        return CaseTag("1aii", scalars)
    return CaseTag("1ai", scalars)


def strong_ab(pair):
    """Scaling (a, b) and invariants (A, B) of the strongly coupled map."""
    r1, r2 = pair.phase1.r, pair.phase2.r
    d1, d2 = det2(pair.phase1.sig), det2(pair.phase2.sig)
    dr = r2 - r1
    if dr == 0.0:
        raise DomainError("strong coupling requires r1 != r2")
    num = (dr ** 2 - (np.sqrt(d1) - np.sqrt(d2)) ** 2) \
        * ((np.sqrt(d1) + np.sqrt(d2)) ** 2 - dr ** 2)
    a0 = abs(dr) / np.sqrt(num) if num > 0 else np.nan
    a = 2.0 * a0 * np.sqrt(d1)
    b = a0 * (d2 + r1 ** 2 - r2 ** 2) / dr
    A = (d2 - d1 + r1 ** 2 - r2 ** 2) / (2.0 * dr)
    B = num / (4.0 * dr ** 2)
    return a, b, A, B


@dataclass
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
        if not np.isfinite(a0):
            continue
        den = det_sigma - (rho + a0) ** 2
        if den != 0 and (1.0 - a0 ** 2) / den > 0:
            good.append(a0)
    if not good:
        raise DomainError("decoupling roots hit the transform pole")
    return min(good, key=abs)


def _require_micro(pair):
    if pair.micro is None:
        raise ValueError("this case needs a microstructure model (micro=...)")
    return pair.micro


def effective(pair, tol=1e-10):
    """Case-resolved effective tensor of the two-phase composite.

    Explicit cases return the tensor; case 1ci returns the link structure
    (free SPD parameter), cases 1b/2b return residual functionals for the
    determinant constraints that any effective tensor must satisfy.
    """
    tag = classify(pair, tol)
    red = pair._reduced
    s1, s2 = pair.phase1.sig, pair.phase2.sig
    r1, r2 = pair.phase1.r, pair.phase2.r
    f = pair.f
    meta = dict(tag.scalars)

    if tag.tag == "2c":
        # microstructure independent; only the fractions enter, taken from
        # the model when one is attached so both routes agree
        if pair.micro is not None and hasattr(pair.micro, "phase1_fraction"):
            f = pair.micro.phase1_fraction
        sig_star = inv2(f * inv2(s1) + (1.0 - f) * inv2(s2))
        th1 = 1.0
        th2 = 0.5 * np.trace(inv2(s1) @ s2)
        wgt1, wgt2 = f / th1, (1.0 - f) / th2
        r_star = (wgt1 * r1 + wgt2 * r2) / (wgt1 + wgt2)
        meta["sigma_star"] = sig_star
        meta["r_star"] = r_star
        L = kron2(sig_star, I2) + r_star * T4
        return EffectiveResult(tag, "explicit", L, meta)

    if tag.tag == "1cii":
        micro = _require_micro(pair)
        S1, S2 = s_matrices(pair)
        sig_star = micro.sigma_star(red.lam1)
        ds = det2(sig_star)
        L = r1 * T4 + kron2(S1 / ds + S2, sig_star)
        meta["sigma_star"] = sig_star
        return EffectiveResult(tag, "explicit", L, meta)

    if tag.tag == "1aii":
        micro = _require_micro(pair)
        S1, S2 = s_matrices(pair)
        a0 = (red.lam1 - 1.0) / red.rho
        sig_star = micro.sigma_star(red.lam1 / red.lam2)
        L = formula_1aii(r1, s1, S1, S2, a0, sig_star)
        meta.update(a0=a0, sigma_star=sig_star)
        return EffectiveResult(tag, "explicit", L, meta)

    if tag.tag == "1ai":
        micro = _require_micro(pair)
        dets = red.lam1 * red.lam2
        a0 = _pick_a0(dets, red.rho)
        scalefac = (1.0 - a0 ** 2) / (dets - (red.rho + a0) ** 2)
        ell1, ell2 = scalefac * red.lam1, scalefac * red.lam2
        S11 = micro.sigma_star(ell1)
        S22 = micro.sigma_star(ell2)
        L0s = np.block([[S11, np.zeros((2, 2))], [np.zeros((2, 2)), S22]])
        back = mobius(np.array([[-a0, 1.0], [1.0, -a0]]), L0s)
        back = (back + back.T) / 2.0
        L = congruence(red.s1_half, congruence(red.frame, back)) + r1 * T4
        meta.update(a0=a0, conductivities=(ell1, ell2),
                    reconstructed_by_decoupling=True)
        return EffectiveResult(tag, "explicit", (L + L.T) / 2.0, meta)

    if tag.tag == "2a":
        micro = _require_micro(pair)
        dets = tag.scalars["det_sigma"]
        a0 = _pick_a0(dets, red.rho)
        # contrast of the decoupled conductivity problem
        lam = 0.5 * np.trace(inv2(s1) @ s2)
        h = (red.rho * a0 + 1.0) / lam
        sig_star = micro.sigma_star(h)
        ds = det2(sig_star)
        sd1 = np.sqrt(det2(s1))
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
    micro = _require_micro(pair)
    S1, S2 = s_matrices(pair)
    sig_star = micro.sigma_star(np.sqrt(red.lam2 / red.lam1))
    d1, d2 = det2(s1), det2(s2)
    branch = -1.0 if (r2 - r1) * (np.sqrt(d2) - np.sqrt(d1)) > 0 else 1.0
    alpha = (np.sqrt(d1) - np.sqrt(d2)) / (r1 - r2) * np.sqrt(d1)
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

    result = EffectiveResult(tag, "link", None, meta)
    result.metadata["extract"] = extract
    result.metadata["reconstruct"] = reconstruct
    if hasattr(micro, "tensor"):
        L = micro.tensor(pair.phase1.tensor(), pair.phase2.tensor())
        Lp, res = extract(L)
        if res > 1e-6:
            warnings.warn("1ci branch choice failed its laminate validation",
                          BranchWarning)
        result.Lstar = L
        result.metadata["free_parameter"] = Lp
        result.metadata["structure_residual"] = res
    return result


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
