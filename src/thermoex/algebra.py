"""Catalog of the 23 rotation-invariant Jordan multialgebras and checkers.

Each catalog entry is a subspace of symmetric operators on R^2 (+) R^2,
given by a real-span basis V of Hermitian 2x2 matrices (the X part) and
a complex-span basis W of symmetric 2x2 matrices (the Y part).  The
multiplications are steered by the isotropic operators K(0, z*I); a
subspace is closed under them exactly when

    Y^2 + X X^T in W   and   Y X + X Y^H in V   for all X in V, Y in W.

The module provides randomized checkers for this closure condition, for
the subalgebra/ideal/square tables, for 3- and 4-chain properties, and
the search for the inversion key of each entry.  Randomized checks draw
coefficients uniformly from [-1, 1] with a fixed default seed.
Each audit draws its trials as one coefficient block and evaluates one stack;
operator products (kt_mul) are real 4x4 block products, one matmul per stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .tensor4 import (I2, RPERP, Z0, Z0SYM, E11, E22, KTensor, kt_mul,
                      jordan_star, psi)

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


def _vec_herm(X):
    """Isometric real coordinates of a Hermitian 2x2 (or a stack of them)."""
    return np.stack([X[..., 0, 0].real, X[..., 1, 1].real,
                     np.sqrt(2) * X[..., 0, 1].real,
                     np.sqrt(2) * X[..., 0, 1].imag], axis=-1)


def _vec_sym(Y):
    """Isometric real coordinates of a complex symmetric 2x2 (or a stack)."""
    return np.stack([Y[..., 0, 0].real, Y[..., 1, 1].real,
                     np.sqrt(2) * Y[..., 0, 1].real, Y[..., 0, 0].imag,
                     Y[..., 1, 1].imag, np.sqrt(2) * Y[..., 0, 1].imag], axis=-1)


def _kt_vec(k):
    """Real 10-coordinates of an operator, isometric for the trace inner
    product of the 4x4 block forms."""
    return np.sqrt(2) * np.concatenate([_vec_herm(k.X), _vec_sym(k.Y)], axis=-1)


def _norm(v):
    """Norm over the last axis, rounded like np.linalg.norm of one vector."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _defect(P, v):
    return _norm(v - (P @ v[..., None])[..., 0])


def _proj_from_columns(cols, dim):
    if not cols:
        return np.zeros((dim, dim))
    B = np.stack(cols, axis=1)
    Q, _ = np.linalg.qr(B)
    return Q @ Q.T


@dataclass(frozen=True)
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

    # -- projectors (cached) ----------------------------------------
    @cached_property
    def _proj(self):
        return _proj_from_columns([_kt_vec(k) for k in self.k_basis()], 10)

    @cached_property
    def _proj_v(self):
        return _proj_from_columns([_vec_herm(v) for v in self.v_basis], 4)

    @cached_property
    def _proj_w(self):
        cols = []
        for w in self.w_basis:
            cols.append(_vec_sym(w))
            cols.append(_vec_sym(1j * np.asarray(w)))
        return _proj_from_columns(cols, 6)

    # -- membership --------------------------------------------------
    def project(self, k):
        """Orthogonal projection onto the subspace (trace inner product)."""
        v = self._proj @ _kt_vec(k) / np.sqrt(2)
        X = np.array([[v[0], (v[2] + 1j * v[3]) / np.sqrt(2)],
                      [(v[2] - 1j * v[3]) / np.sqrt(2), v[1]]])
        w = v[4:]
        Y = np.array([[w[0] + 1j * w[3], (w[2] + 1j * w[5]) / np.sqrt(2)],
                      [(w[2] + 1j * w[5]) / np.sqrt(2), w[1] + 1j * w[4]]])
        return KTensor(X, Y)

    def residual(self, k):
        """Distance to the subspace relative to 1 + |k|, per stack entry."""
        v = _kt_vec(k)
        return _defect(self._proj, v) / (1.0 + _norm(v))

    def v_defect(self, X):
        """Absolute distance of a Hermitian matrix from V."""
        return _defect(self._proj_v, _vec_herm(X))

    def w_defect(self, Y):
        """Absolute distance of a symmetric matrix from W."""
        return _defect(self._proj_w, _vec_sym(Y))

    def contains(self, k, tol=1e-10):
        return self.residual(k) <= tol

    # -- sampling ------------------------------------------------------
    # A coefficient row holds the V coefficients, then (re, im) per W
    # element: the order of single scalar draws.
    @property
    def _n_coeffs(self):
        """Real coefficients one sample draws."""
        return len(self.v_basis) + 2 * len(self.w_basis)

    @cached_property
    def _bases(self):
        return tuple(np.array(b, complex).reshape(-1, 2, 2)
                     for b in (self.v_basis, self.w_basis))

    def _from_coeffs(self, c):
        """Element with coefficient rows ``c`` of shape (..., _n_coeffs)."""
        nv = len(self.v_basis)
        bv, bw = self._bases
        return KTensor(_combine(c[..., :nv], bv),
                       _combine(c[..., nv::2] + 1j * c[..., nv + 1::2], bw))

    def sample(self, rng, scale=1.0):
        """Random element with coefficients uniform in [-scale, scale]."""
        return self._from_coeffs(rng.uniform(-scale, scale, self._n_coeffs))

    def __hash__(self):
        return hash((self.ident, self.name))


def _combine(c, basis):
    """sum_i c[..., i] basis[i], added from zero in basis order, so a stack
    rounds exactly like single samples."""
    terms = c[..., None, None] * basis
    out = np.zeros(c.shape[:-1] + (2, 2), complex)
    for i in range(len(basis)):
        out = out + terms[..., i, :, :]
    return out


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


def _draws(seed, trials, specs, n_a0=0):
    """A stacked sample of each spec, then ``n_a0`` stacked steering
    operators, split from one (trials, n) block; row t holds the draws of
    trial t in the order of a loop over single draws."""
    widths = [s._n_coeffs for s in specs] + [2] * n_a0
    block = np.random.default_rng(seed).uniform(-1.0, 1.0, (trials, sum(widths)))
    parts = np.split(block, np.cumsum(widths)[:-1], axis=1)
    return ([s._from_coeffs(c) for s, c in zip(specs, parts)]
            + [_a0(c) for c in parts[len(specs):]])


def _report(ident, check, r, tol, ok=True):
    """Audit report from the vector of per-trial residuals."""
    worst = float(np.max(r, initial=0.0))
    return CheckReport(ident, check, len(r), worst, ok and worst <= tol)


def check_closure(spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Randomized closure audit of one catalog entry.

    Residuals are scaled by 1 + max entry squared, matching the quadratic
    growth of the products.
    """
    k, = _draws(seed + spec.ident, trials, [spec])
    X, Y = k.X, k.Y
    big = np.maximum(np.abs(X).max(axis=(-2, -1)), np.abs(Y).max(axis=(-2, -1)))
    s = 1.0 + np.maximum(big, 1.0) ** 2
    wy = Y @ Y + X @ np.swapaxes(X, -1, -2)
    vx = Y @ X + X @ np.swapaxes(Y.conj(), -1, -2)
    r = np.maximum(spec.w_defect(wy) / s, spec.v_defect(vx) / s)
    return _report(spec.ident, "closure", r, tol)


def _a0(c):
    z = c[..., 0] + 1j * c[..., 1]
    return KTensor(np.zeros(z.shape + (2, 2)), z[..., None, None] * I2)


def sample_a0(rng, scale=1.0):
    """Random steering operator K(0, z*I)."""
    return _a0(rng.uniform(-scale, scale, 2))


def is_subalgebra(sub, spec, tol=1e-10):
    """Spanwise containment of ``sub`` in ``spec``: its basis as one stack."""
    XY = np.reshape([(k.X, k.Y) for k in sub.k_basis()], (-1, 2, 2, 2))
    return bool((spec.residual(KTensor(XY[:, 0], XY[:, 1])) <= tol).all())


def check_ideal(ideal, spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Randomized ideal audit: ``ideal`` is a subalgebra of ``spec`` and
    ideal-by-algebra products land in the ideal."""
    j, k, a = _draws(seed + 131 * spec.ident + ideal.ident, trials, [ideal, spec], 1)
    return _report(spec.ident, f"ideal:{ideal.ident}",
                   ideal.residual(jordan_star(j, a, k)), tol,
                   is_subalgebra(ideal, spec, tol))


def is_ideal(ideal, spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Pass flag of :func:`check_ideal`."""
    return check_ideal(ideal, spec, trials, seed, tol).passed


def check_square(spec, target, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Steered products of ``spec`` elements land in ``target``."""
    k1, k2, a = _draws(seed + 977 * spec.ident, trials, [spec, spec], 1)
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
    mid = KTensor(I2 - 2.0 * np.asarray(key, float), np.zeros((2, 2)))
    k, = _draws(seed + 7919 * spec.ident, trials, [spec])
    return float(np.max(spec.residual(kt_mul(kt_mul(k, mid), k)), initial=0.0))


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
    return reduce(kt_mul, factors) + reduce(kt_mul, reversed(factors))


def check_chain(spec, trials=200, seed=DEFAULT_SEED, tol=1e-10, target=None):
    """3- and 4-chain membership audit; ``target`` defaults to the entry.

    Volume-fraction variants require the chains to land in the square of
    the entry, which the caller passes as ``target``.
    """
    tgt = target if target is not None else spec
    k0, k1, k2, k3, a0, a1, a2 = _draws(seed + 4513 * spec.ident, trials,
                                        [spec] * 4, 3)
    c3 = _chain(k0, a0, k1, a1, k2)
    c4 = _chain(k0, a0, k1, a1, k2, a2, k3)
    name = "chain" if target is None else f"chain->{tgt.ident}"
    return _report(spec.ident, name,
                   np.maximum(tgt.residual(c3), tgt.residual(c4)), tol)


def check_chain_ideal(ideal, spec, trials=200, seed=DEFAULT_SEED, tol=1e-10):
    """Ideal version: chains with one factor in the ideal stay in it."""
    j, k0, k1, k2, a0, a1, a2 = _draws(seed + 6007 * spec.ident + ideal.ident,
                                       trials, [ideal] + [spec] * 3, 3)
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


@dataclass(frozen=True)
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
    k, a = _draws(seed + 271 * spec.ident, trials, [spec], 1)
    lhs = phi_map(jordan_star(k, a, k))
    rhs = jordan_star(phi_map(k), a, phi_map(k))
    return float(np.max((lhs - rhs).norm() / (1.0 + k.norm() ** 2), initial=0.0))
