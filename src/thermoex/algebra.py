"""Catalog of the 23 rotation-invariant Jordan multialgebras and checkers.

Each catalog entry is a subspace of symmetric operators on R^2 (+) R^2,
given by a real-span basis V of Hermitian 2x2 matrices (the X part) and
a complex-span basis W of symmetric 2x2 matrices (the Y part).  The
multiplications are steered by the isotropic operators K(0, z*I); a
subspace is closed under them exactly when

    Y^2 + X X^T in W   and   Y X + X Y^H in V   for all X in V, Y in W,

i.e. when K K(0, I) K = (Y X + X Y^H, Y^2 + X X^T) stays in it for K in it.

The module provides randomized checkers for this closure condition, for
the subalgebra/ideal/square tables, for 3- and 4-chain properties, and
the search for the inversion key of each entry.  Randomized checks draw
coefficients uniformly from [-1, 1] with a fixed default seed.
The audits run on real 4x4 block forms: trials drawn as one coefficient block,
products by matmul on block stacks, distances in the coordinates of _sym4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import matmul

import numpy as np

from .tensor4 import (I2, RPERP, Z0, Z0SYM, E11, E22, KTensor, as_block,
                      jordan_star, kt_from_block, kt_to_block, psi)

__all__ = [
    "AlgebraSpec", "CheckReport", "catalog", "algebra_by_id",
    "check_closure", "is_subalgebra", "check_ideal", "is_ideal", "check_square",
    "find_inversion_key", "key_condition_residual", "key_name",
    "check_chain", "check_chain_ideal", "SUBALGEBRAS", "IDEALS", "SQUARES",
    "FACTOR_PAIRS", "EXTRA_SUBALGEBRAS", "global_automorphism",
    "transform_spec",
    "AutomorphismDesc", "apply_automorphism", "automorphism_defect",
    "c_plus", "c_minus", "sample_a0", "DEFAULT_SEED",
    "KEY_ZERO", "KEY_E11", "KEY_E22", "KEY_HALF_I",
]

DEFAULT_SEED = 0x5EED

PSI1 = psi(1.0)                 # [[1,0],[0,-1]]
PSII = psi(1.0j)                # [[0,1],[1,0]]
IRP = 1j * RPERP                # [[0,-i],[i,0]], Hermitian
E1SYM = E11.astype(complex)
E2SYM = E22.astype(complex)

KEY_ZERO = np.zeros((2, 2))
KEY_E11 = E11 / 2.0
KEY_E22 = E22 / 2.0
KEY_HALF_I = I2 / 2.0
_CONJ = np.kron(I2, PSI1)       # K(0, I): u -> conj(u), steers the closure audit

# Isometric coordinates of a symmetric 4x4 for the trace inner product: the
# diagonal, then sqrt(2) times each entry above it, as flat indices and scales.
_SYM4 = np.array([0, 5, 10, 15, 1, 2, 3, 6, 7, 11])
_SYM4_SCALE = np.array([1.0] * 4 + [np.sqrt(2)] * 6)


def _sym4(B):
    """Coordinates of (..., 4, 4) symmetric blocks, by one take on the flat
    blocks: C-contiguous, so a stack meets the projector rounded as one block."""
    return B.reshape(B.shape[:-2] + (16,)).take(_SYM4, -1) * _SYM4_SCALE


def _norm(v):
    """Norm over the last axis, rounded like np.linalg.norm of one vector."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _defect(P, v):
    return _norm(v - (P @ v[..., None])[..., 0])


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """One catalog entry: id, display name, and the two spanning bases."""

    ident: int
    name: str
    v_basis: tuple
    w_basis: tuple

    @property
    def dims(self):
        """(complex dimension of W, real dimension of V)."""
        return (len(self.w_basis), len(self.v_basis))

    def k_basis(self):
        """Real-span basis of the subspace as operators."""
        zero = np.zeros((2, 2))
        ks = [KTensor(v, zero) for v in self.v_basis]
        for w in self.w_basis:
            ks.append(KTensor(zero, w))
            ks.append(KTensor(zero, 1j * np.asarray(w)))
        return ks

    @cached_property
    def basis_blocks(self):
        """(n_coeffs, 4, 4) block forms of :meth:`k_basis`, in coefficient
        order: K(v, 0) per V element, then K(0, w) and K(0, i w) per W element."""
        return np.array([kt_to_block(k) for k in self.k_basis()]).reshape(-1, 4, 4)

    @cached_property
    def _proj(self):
        """Orthogonal projector onto the subspace in :func:`_sym4` coordinates."""
        Q, _ = np.linalg.qr(_sym4(self.basis_blocks).T)
        return Q @ Q.T

    # -- membership --------------------------------------------------
    def residual(self, k):
        """Distance to the subspace relative to 1 + |k|, per stack entry, of
        an operator or of (..., 4, 4) blocks."""
        v = _sym4(as_block(k))
        return _defect(self._proj, v) / (1.0 + _norm(v))

    def contains(self, k, tol=1e-10):
        return self.residual(k) <= tol

    # -- sampling ------------------------------------------------------
    # A coefficient row holds the V coefficients, then (re, im) per W
    # element: the order of single scalar draws and of basis_blocks.
    @property
    def _n_coeffs(self):
        """Real coefficients one sample draws."""
        return len(self.v_basis) + 2 * len(self.w_basis)

    def _from_coeffs(self, c):
        """Blocks of the elements with coefficient rows ``c`` (..., _n_coeffs).
        The V terms and the W terms are each added in basis order, then the two
        sums.  That rounds like the (X, Y) sum of scalar draws: a block entry is
        one X plus one Y coordinate, and W basis entries are real or imaginary,
        so each term rounds once.  ``+ 0.0`` clears signed zeros."""
        nv = len(self.v_basis)
        terms = c[..., None, None] * self.basis_blocks
        return (np.add.reduce(terms[..., :nv, :, :], -3)
                + np.add.reduce(terms[..., nv:, :, :], -3) + 0.0)

    def sample_block(self, rng, scale=1.0):
        """Block of a random element, coefficients uniform in [-scale, scale]."""
        return self._from_coeffs(rng.uniform(-scale, scale, self._n_coeffs))

    def sample(self, rng, scale=1.0):
        """:meth:`sample_block` as an operator."""
        return kt_from_block(self.sample_block(rng, scale))


def _spec(ident, name, v, w):
    v = tuple(np.asarray(m, complex) for m in v)
    w = tuple(np.asarray(m, complex) for m in w)
    return AlgebraSpec(ident, name, v, w)


_CATALOG = (
    _spec(1, "(0,0)", (), ()),
    _spec(2, "(0,RZ0)", (Z0,), ()),
    _spec(3, "(CI,0)", (), (I2,)),
    _spec(4, "(CI,RI)", (I2,), (I2,)),
    _spec(5, "(CI,Rpsi(i))", (PSII,), (I2,)),
    _spec(6, "(CI,iRperp)", (IRP,), (I2,)),
    _spec(7, "(CI,RZ0)", (Z0,), (I2,)),
    _spec(8, "(CI,Phi)", (I2, IRP), (I2,)),
    _spec(9, "(CI,Psi)", (PSI1, PSII), (I2,)),
    _spec(10, "(Ce1e1,0)", (), (E1SYM,)),
    _spec(11, "Ann(Ce2)", (E11,), (E1SYM,)),
    _spec(12, "(Cz0z0,0)", (), (Z0SYM,)),
    _spec(13, "Ann(Cz0bar)", (Z0,), (Z0SYM,)),
    _spec(14, "(D,0)", (), (E1SYM, E2SYM)),
    _spec(15, "(D,Re1e1)", (E11,), (E1SYM, E2SYM)),
    _spec(16, "(D,D)", (E11, E22), (E1SYM, E2SYM)),
    _spec(17, "(D,D')", (PSII, IRP), (E1SYM, E2SYM)),
    _spec(18, "(W,0)", (), (I2, Z0SYM)),
    _spec(19, "(W,RZ0)", (Z0,), (I2, Z0SYM)),
    _spec(20, "(W,Vinf)", (PSII, Z0), (I2, Z0SYM)),
    _spec(21, "(W,V)", (PSI1, PSII, Z0), (I2, Z0SYM)),
    _spec(22, "(Sym(C2),0)", (), (E1SYM, E2SYM, PSII)),
    _spec(23, "Sym(T)", (I2, PSI1, PSII, IRP), (E1SYM, E2SYM, PSII)),
)

_STEER = _CATALOG[2]      # (CI,0): the steering operators K(0, z*I)

# concrete non-catalog representatives referenced by the subalgebra table
EXTRA_SUBALGEBRAS = {
    -10: _spec(-10, "(Ce2e2,0)", (), (E2SYM,)),
    -5: _spec(-5, "(CI,Rpsi(1))", (PSI1,), (I2,)),
}

# subalgebra ids per entry; IDEALS and SQUARES mark the special subsets
SUBALGEBRAS = {
    1: (), 2: (1,), 3: (1,), 4: (1, 3), 5: (1, 3), 6: (1, 3),
    7: (1, 2, 3), 8: (1, 2, 3, 4, 6, 7), 9: (1, 3, 5), 10: (1,),
    11: (1, 10), 12: (1,), 13: (1, 2, 12), 14: (1, 3, 10),
    15: (1, 3, 10, -10, 11, 14), 16: (1, 3, 4, -5, 10, 11, 14, 15),
    17: (1, 3, 5, 6, 10, 14), 18: (1, 3, 12),
    19: (1, 2, 3, 7, 12, 13, 18), 20: (1, 2, 3, 5, 7, 12, 13, 18, 19),
    21: (1, 2, 3, 5, 7, 9, 12, 13, 18, 19, 20), 22: (1, 3, 10, 12, 14, 18),
    23: tuple(range(1, 23)),
}

IDEALS = {
    1: (), 2: (), 3: (1,), 4: (1,), 5: (1,), 6: (1,), 7: (1, 2),
    8: (1,), 9: (1,), 10: (1,), 11: (1,), 12: (), 13: (2, 12),
    14: (1, 10), 15: (1, -10, 11), 16: (1, 11), 17: (1,), 18: (1, 12),
    19: (1, 2, 12, 13), 20: (1, 13), 21: (1, 13), 22: (1,), 23: (1,),
}

# entries whose span of steered products collapses to a smaller entry
SQUARES = {2: 1, 12: 1, 13: 1}

# reduced list of factor-algebra isomorphisms: (algebra, ideal, complement)
FACTOR_PAIRS = (
    (15, -10, 11),
    (16, 11, 11),
    (19, 2, 18),
    (19, 12, 7),
    (21, 13, 9),
)


def catalog():
    """All 23 entries, ordered by id."""
    return _CATALOG


def algebra_by_id(ident):
    if ident in EXTRA_SUBALGEBRAS:
        return EXTRA_SUBALGEBRAS[ident]
    if not 1 <= ident <= 23:
        raise KeyError(f"no algebra with id {ident}")
    return _CATALOG[ident - 1]


@dataclass(frozen=True)
class CheckReport:
    algebra_id: int
    check: str
    trials: int
    max_residual: float
    passed: bool

    def to_json(self):
        return {"algebra_id": self.algebra_id, "check": self.check,
                "trials": self.trials, "max_residual": self.max_residual,
                "pass": self.passed}


def _draws(seed, trials, specs):
    """A block stack of samples of each spec, split from one (trials, n)
    block of draws; row t holds the draws of trial t in the order of a loop
    over single draws."""
    widths = [s._n_coeffs for s in specs]
    block = np.random.default_rng(seed).uniform(-1.0, 1.0, (trials, sum(widths)))
    parts = np.split(block, np.cumsum(widths)[:-1], axis=1)
    return [s._from_coeffs(c) for s, c in zip(specs, parts)]


def _report(ident, check, r, tol, ok=True):
    """Audit report from the vector of per-trial residuals."""
    worst = float(np.max(r, initial=0.0))
    return CheckReport(ident, check, len(r), worst, ok and worst <= tol)


def check_closure(spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Randomized closure audit of one catalog entry: the residual of
    K K(0, I) K, whose (X, Y) is (Y X + X Y^H, Y^2 + X X^T)."""
    k, = _draws(seed + spec.ident, trials, [spec])
    return _report(spec.ident, "closure", spec.residual(k @ _CONJ @ k), tol)


def sample_a0(rng, scale=1.0):
    """Random steering operator K(0, z*I)."""
    return _STEER.sample(rng, scale)


def is_subalgebra(sub, spec, tol=1e-10):
    """Spanwise containment of ``sub`` in ``spec``: its basis as one stack."""
    return bool((spec.residual(sub.basis_blocks) <= tol).all())


def check_ideal(ideal, spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Randomized ideal audit: ``ideal`` is a subalgebra of ``spec`` and
    ideal-by-algebra products land in the ideal."""
    j, k, a = _draws(seed + 131 * spec.ident + ideal.ident, trials,
                     [ideal, spec, _STEER])
    return _report(spec.ident, f"ideal:{ideal.ident}",
                   ideal.residual(jordan_star(j, a, k)), tol,
                   is_subalgebra(ideal, spec, tol))


def is_ideal(ideal, spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Pass flag of :func:`check_ideal`."""
    return check_ideal(ideal, spec, trials, seed, tol).passed


def check_square(spec, target, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Steered products of ``spec`` elements land in ``target``."""
    k1, k2, a = _draws(seed + 977 * spec.ident, trials, [spec, spec, _STEER])
    return _report(spec.ident, f"square->{target.ident}",
                   target.residual(jordan_star(k1, a, k2)), tol)


# -- inversion keys -----------------------------------------------------

_KEY_CANDIDATES = (
    ("0", KEY_ZERO),
    ("e1e1/2", KEY_E11),
    ("e2e2/2", KEY_E22),
    ("I/2", KEY_HALF_I),
)


def key_condition_residual(spec, key, trials=200, seed=DEFAULT_SEED):
    """Worst defect of K (I - 2*key) K staying inside the entry.

    This is the defining condition for an inversion key; key = I/2 makes
    the middle factor vanish and holds trivially.
    """
    mid = np.kron(I2 - 2.0 * np.asarray(key, float), I2)     # K(I - 2 key, 0)
    k, = _draws(seed + 7919 * spec.ident, trials, [spec])
    return float(np.max(spec.residual(k @ mid @ k), initial=0.0))


def find_inversion_key(spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Simplest key among {0, e1e1/2, e2e2/2, I/2} passing its condition."""
    for _, key in _KEY_CANDIDATES:
        if key_condition_residual(spec, key, trials, seed) <= tol:
            return key
    return KEY_HALF_I


def key_name(key):
    for name, cand in _KEY_CANDIDATES:
        if np.allclose(key, cand):
            return name
    raise ValueError("unknown key")


# -- chain properties ----------------------------------------------------

def _chain(*factors):
    """Chain product f1 f2 ... fn + fn ... f2 f1, multiplied left to right."""
    return reduce(matmul, factors) + reduce(matmul, reversed(factors))


def check_chain(spec, trials=200, seed=DEFAULT_SEED, tol=1e-10, target=None):
    """3- and 4-chain membership audit; ``target`` defaults to the entry.

    Volume-fraction variants require the chains to land in the square of
    the entry, which the caller passes as ``target``.
    """
    tgt = target if target is not None else spec
    k0, k1, k2, k3, a0, a1, a2 = _draws(seed + 4513 * spec.ident, trials,
                                        [spec] * 4 + [_STEER] * 3)
    c3 = _chain(k0, a0, k1, a1, k2)
    c4 = _chain(k0, a0, k1, a1, k2, a2, k3)
    name = "chain" if target is None else f"chain->{tgt.ident}"
    return _report(spec.ident, name,
                   np.maximum(tgt.residual(c3), tgt.residual(c4)), tol)


def check_chain_ideal(ideal, spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Ideal version: chains with one factor in the ideal stay in it."""
    j, k0, k1, k2, a0, a1, a2 = _draws(seed + 6007 * spec.ident + ideal.ident,
                                       trials, [ideal] + [spec] * 3 + [_STEER] * 3)
    c3 = _chain(j, a0, k0, a1, k1)
    c4 = _chain(j, a0, k0, a1, k1, a2, k2)
    return _report(spec.ident, f"chain-ideal:{ideal.ident}",
                   np.maximum(ideal.residual(c3), ideal.residual(c4)), tol)


# -- automorphisms -------------------------------------------------------

def c_plus(c):
    """Complex-orthogonal block [[cos c, sin c], [-sin c, cos c]]."""
    c = complex(c)
    return np.array([[np.cos(c), np.sin(c)], [-np.sin(c), np.cos(c)]])


def c_minus(c):
    c = complex(c)
    return np.array([[np.cos(c), np.sin(c)], [np.sin(c), -np.cos(c)]])


def _complex_orthogonal(C):
    C = np.asarray(C, dtype=complex)
    if np.abs(C @ C.T - I2).max() > 1e-10:
        raise ValueError("C must satisfy C C^T = I")
    return C


def global_automorphism(C, sign=1):
    """Map K(X, Y) -> K(sign * C X C^H, C Y C^T), C complex orthogonal."""
    C = _complex_orthogonal(C)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def phi_map(k):
        return KTensor(sign * C @ k.X @ C.conj().T, C @ k.Y @ C.T)

    return phi_map


def transform_spec(spec, C, sign=1):
    """Equivalent entry from the orbit of ``spec`` under a global map.

    The catalog ships one representative per orbit; the parametrized
    families in the orbit column (hyperbolic tilts of the identity line,
    rotated reflection lines, tilted diagonal subspaces, ...) are all
    images of the representatives under K(X,Y) -> K(sign C X C^H, C Y C^T)
    with C complex orthogonal, which this helper produces.
    """
    C = _complex_orthogonal(C)
    v = tuple(sign * C @ np.asarray(x) @ C.conj().T for x in spec.v_basis)
    w = tuple(C @ np.asarray(y) @ C.T for y in spec.w_basis)
    return AlgebraSpec(spec.ident, spec.name + "~orbit", v, w)


@dataclass(frozen=True, eq=False)
class AutomorphismDesc:
    """Per-entry automorphism family.

    family 'global'   : K(X,Y) -> K(sign C X C^H, C Y C^T).
    family 'scale_z0' : entries with V = R*Z0; X scaled by alpha, Y fixed.
    family 'flip_x'   : X -> -X, Y fixed.
    family 'scale_w'  : the z0 (x) z0 component of Y scaled by the complex
                        parameter ``a`` (isotropic W part fixed), with the
                        optional alpha-scaling of X along Z0.
    family 'swap_d'   : conjugation of Y by psi(i) (diagonal swap); swap_x
                        in {0, 1, -1} fixes X, conjugates it, or conjugates
                        and negates it.
    """

    family: str
    alpha: float = 1.0
    a: complex = 1.0
    C: object = None
    sign: int = 1
    swap_x: int = 0


def apply_automorphism(desc, k):
    if desc.family == "global":
        return global_automorphism(desc.C, desc.sign)(k)
    if desc.family == "scale_z0":
        return KTensor(desc.alpha * k.X, k.Y)
    if desc.family == "flip_x":
        return KTensor(-k.X, k.Y)
    if desc.family == "scale_w":   # z0 (x) z0 is trace free
        iso = 0.5 * np.trace(k.Y, axis1=-2, axis2=-1)[..., None, None] * I2
        return KTensor(desc.alpha * k.X, iso + desc.a * (k.Y - iso))
    if desc.family == "swap_d":
        if desc.swap_x == 0:
            X = k.X
        else:
            X = desc.swap_x * (PSII @ k.X @ PSII)
        return KTensor(X, PSII @ k.Y @ PSII)
    raise ValueError(f"unknown family {desc.family!r}")


def automorphism_defect(phi_map, spec, trials=200, seed=DEFAULT_SEED):
    """Worst defect of phi(K a K) - phi(K) a phi(K) over random draws;
    ``phi_map`` must map a stack of operators entry by entry."""
    k, a = map(kt_from_block, _draws(seed + 271 * spec.ident, trials, [spec, _STEER]))
    lhs = phi_map(jordan_star(k, a, k))
    rhs = jordan_star(phi_map(k), a, phi_map(k))
    return float(np.max((lhs - rhs).norm() / (1.0 + k.norm() ** 2), initial=0.0))
