"""Kernel for symmetric operators on the field space R^2 (+) R^2.

A real linear operator on R^2 (+) R^2 is identified with a pair of complex
2x2 matrices (X, Y) acting on u in C^2 by  u -> X u + Y conj(u).  The
operator is symmetric exactly when X is Hermitian and Y is complex
symmetric, and every such operator also has a real 4x4 block form

    [[phi(X11) + psi(Y11), phi(X12) + psi(Y12)],
     [phi(X21) + psi(Y21), phi(X22) + psi(Y22)]]

with phi(a+bi) = a*I + b*Rperp and psi(a+bi) = [[a, b], [b, -a]].  Operator
products are real 4x4 products of the block forms, one matmul for a stack; the
2x2 kernels are closed form, 4x4 inverses dense numpy.linalg, and block_is_pd is
the one 4x4 PD test.  A basis change (B (x) I) L (B (x) I)^T is congruence.

Block-matrix convention: the first index of a Kronecker product A (x) B
is the field-pair slot, the second the spatial slot, i.e.
np.kron(A, B) = [[a11*B, a12*B], [a21*B, a22*B]].
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError", "I2", "I4", "RPERP", "T4", "Z0", "Z0SYM", "E11", "E22",
    "KTensor", "phi", "psi", "cof2", "kron2", "inv2", "det2", "pd2",
    "check_spd2", "spd_sqrt_rows", "spd_sqrt_2x2", "as_block",
    "kt_to_block", "kt_from_block", "kt_mul", "kt_transpose", "kt_inverse",
    "block_inverse", "congruence", "block_parts", "block_from_parts",
    "check_block", "check_finite", "check_fraction", "is_positive_definite",
    "block_is_pd", "resolvent", "mobius", "rotate", "rotate_block",
    "unit_normal", "gamma0", "jordan_star",
]

I2 = np.eye(2)
I4 = np.eye(4)
RPERP = np.array([[0.0, -1.0], [1.0, 0.0]])
T4 = np.kron(RPERP, RPERP) + 0.0          # T4 @ T4 = I4; + 0.0 clears signed zeros
E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])

# square-free vector z0 = (1, -i) and its rank-one companions
Z0_VEC = np.array([1.0, -1.0j])
Z0 = np.outer(Z0_VEC, Z0_VEC.conj())      # Hermitian, Z0^2 = 2 Z0
Z0SYM = np.outer(Z0_VEC, Z0_VEC)          # complex symmetric, Z0SYM^2 = 0

DEFAULT_TOL = 1e-10


class DomainError(ValueError):
    """Well-formed input outside the mathematical domain of an operation: not
    positive definite, at a formula's pole, or overflowing the float range."""


def phi(z):
    """Real 2x2 image of a complex scalar: phi(a+bi) = a*I + b*Rperp."""
    z = complex(z)
    return z.real * I2 + z.imag * RPERP


def psi(z):
    """Trace-free symmetric image of a complex scalar."""
    z = complex(z)
    return np.array([[z.real, z.imag], [z.imag, -z.real]])


def cof2(m):
    """Cofactor matrix of a 2x2, normalized so that m @ cof2(m).T = det(m) I."""
    return np.array([[m[1, 1], -m[1, 0]], [-m[0, 1], m[0, 0]]])


def kron2(a, b):
    """Kronecker product of two 2x2 matrices, bit-identical to np.kron(a, b)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def inv2(m):
    """Closed-form inverse of a 2x2 (real or complex), an array or its rows."""
    (a, b), (c, d) = m.tolist() if isinstance(m, np.ndarray) else m
    det = a * d - b * c
    if det == 0:
        raise np.linalg.LinAlgError("singular 2x2 matrix")
    return np.array(((d / det, -b / det), (-c / det, a / det)))


def pd2(m, tol=0.0, scale=1.0):
    """Positive definiteness of a Hermitian 2x2, array or rows, by its minors.

    The cutoffs respect the homogeneity of each minor: tol*scale for the
    corner entry, tol*scale^2 for the determinant.  Both comparisons are
    strict, so NaN entries fail the test.  A matrix with max|m| outside
    [2^-500, 2^500] is tested as m / 4^k with max|m| / 4^k in [1/4, 1), its
    cutoffs scaled alike, so the determinant neither overflows nor
    underflows; a power of two scales exactly, so the test is the same.
    """
    (a, b), (c, d) = m.tolist() if isinstance(m, np.ndarray) else m
    big = max(abs(a), abs(b), abs(c), abs(d))
    if 2.0 ** -500 <= big <= 2.0 ** 500:
        return a.real > tol * scale and (a * d - b * c).real > tol * scale ** 2
    h = 2.0 ** -(math.frexp(big)[1] // 2)    # 1.0 when big is 0, Inf or NaN
    a, b, c, d, s = (v * h * h for v in (a, b, c, d, float(scale)))
    return a.real > tol * s and (a * d - b * c).real > tol * s * s


def check_spd2(m, name="matrix"):
    """Validate and symmetrize an SPD 2x2: another shape, an infinite entry or
    a relative asymmetry above DEFAULT_TOL raise ValueError; a matrix that is
    not positive definite (NaN entries included) raises DomainError."""
    m = np.asarray(m, dtype=float)
    e = [abs(v) for v in m.ravel().tolist()]
    if m.shape != (2, 2) or math.inf in e \
            or abs(m[0, 1] - m[1, 0]) > DEFAULT_TOL * (1.0 + max(e)):
        raise ValueError(f"{name} must be a finite symmetric 2x2 matrix")
    m = m - (m - m.T) / 2.0
    if not pd2(m):
        raise DomainError(f"{name} must be positive definite")
    return m


def spd_sqrt_rows(rows):
    """Unique SPD square root of the rows ((a, b), (c, d)) of an SPD 2x2, as rows,
    taken of s / 4^k with max(a, d) / 4^k in [1/2, 2): exact scalings, no overflow."""
    (a, b), (c, d) = rows
    k = math.frexp(max(a, d))[1] // 2
    a, b, c, d = (math.ldexp(v, -2 * k) for v in (a, b, c, d))
    if not pd2(((a, b), (c, d))):
        raise DomainError("matrix is not symmetric positive definite")
    r = math.sqrt(a * d - b * c)
    q = math.sqrt(a + d + 2.0 * r)
    z = r * 0.0        # the off-diagonal of r I: t + r I keeps no -0.0
    return ((math.ldexp((a + r) / q, k), math.ldexp((b + z) / q, k)),
            (math.ldexp((c + z) / q, k), math.ldexp((d + r) / q, k)))


def spd_sqrt_2x2(s):
    """:func:`spd_sqrt_rows` of a 2x2 array, as an array."""
    return np.array(spd_sqrt_rows(s.tolist()))


class KTensor:
    """Operator on R^2 (+) R^2 in the (X, Y) parametrization.

    The plain constructor accepts any complex pair, so products and other
    intermediate non-symmetric operators can be represented; X and Y may
    be (..., 2, 2) stacks, on which products, sums and :meth:`norm` work
    entry by entry.  Use :meth:`symmetric` for one element of the
    symmetric-operator space: it checks the block form by :func:`check_block`
    and symmetrizes X and Y themselves, so a Y below eps |X| is not lost.
    """

    __slots__ = ("X", "Y")

    def __init__(self, X, Y):
        self.X = np.asarray(X, dtype=complex)
        self.Y = np.asarray(Y, dtype=complex)

    @classmethod
    def symmetric(cls, X, Y):
        X = np.asarray(X, dtype=complex).reshape(2, 2)
        Y = np.asarray(Y, dtype=complex).reshape(2, 2)
        with np.errstate(invalid="ignore", over="ignore"):    # Inf * 0, overflow
            check_block(kt_to_block(cls(X, Y)))
        return cls(X - (X - X.conj().T) / 2.0, Y - (Y - Y.T) / 2.0)

    # -- linear structure ------------------------------------------------
    def __add__(self, other):
        return KTensor(self.X + other.X, self.Y + other.Y)

    def __sub__(self, other):
        return KTensor(self.X - other.X, self.Y - other.Y)

    def __neg__(self):
        return KTensor(-self.X, -self.Y)

    def __mul__(self, c):
        return KTensor(c * self.X, c * self.Y)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return kt_mul(self, other)

    def norm(self):
        """Frobenius norm of (X, Y), one value per stack entry."""
        return np.sqrt((np.abs(self.X) ** 2).sum(axis=(-2, -1))
                       + (np.abs(self.Y) ** 2).sum(axis=(-2, -1)))

    def __repr__(self):
        return f"KTensor(X={self.X.tolist()!r}, Y={self.Y.tolist()!r})"


# The block form as one linear map on the interleaved (re, im) coordinates
# of (X, Y): entries 0 or +-1, two nonzeros per row and per column, columns
# orthogonal with squared norm 2, so the inverse map is _TO_BLOCK.T / 2.
_TO_BLOCK = np.stack([np.kron(E, f(z)).ravel() for f in (phi, psi)
                      for E in np.eye(4).reshape(4, 2, 2) for z in (1.0, 1j)],
                     axis=1)


def kt_to_block(k):
    """4x4 real block form of (X, Y), or of (..., 2, 2) stacks broadcast together."""
    X, Y = (k.X, k.Y) if k.X.shape == k.Y.shape else np.broadcast_arrays(k.X, k.Y)
    v = np.concatenate((X, Y), -2).reshape(X.shape[:-2] + (8,)).view(float)
    return (v @ _TO_BLOCK.T).reshape(X.shape[:-2] + (4, 4))


def kt_from_block(B):
    """Inverse of :func:`kt_to_block`; exact for any real 4x4 matrix or stack."""
    B = np.asarray(B, dtype=float)
    v = (B.reshape(B.shape[:-2] + (16,)) @ _TO_BLOCK) / 2.0
    z = v.reshape(B.shape[:-2] + (2, 2, 4)).view(complex)
    return KTensor(z[..., 0, :, :], z[..., 1, :, :])


def as_block(k):
    """Block form of an operator or a stack; real (..., 4, 4) blocks pass."""
    return kt_to_block(k) if isinstance(k, KTensor) else np.asarray(k, dtype=float)


def kt_mul(a, b):
    """Operator product, computed as the 4x4 matrix product of the block forms."""
    return kt_from_block(kt_to_block(a) @ kt_to_block(b))


def kt_transpose(a):
    """Operator transpose: (X, Y) -> (X^H, Y^T)."""
    return KTensor(np.swapaxes(a.X.conj(), -1, -2), np.swapaxes(a.Y, -1, -2))


def kt_inverse(a):
    """Operator inverse: the dense inverse of the block form.  It exists
    whenever the operator is regular, also when X and Y are both singular."""
    return kt_from_block(np.linalg.inv(kt_to_block(a)))


def block_parts(B):
    B = np.asarray(B, dtype=float)
    return B[:2, :2], B[:2, 2:], B[2:, 2:]


def block_from_parts(L11, L12, L22):
    return np.block([[np.asarray(L11, float), np.asarray(L12, float)],
                     [np.asarray(L12, float).T, np.asarray(L22, float)]])


def check_block(B):
    """Validate and symmetrize a 4x4 block tensor."""
    B = np.asarray(B, dtype=float)
    if B.shape != (4, 4):
        raise ValueError("block tensor must be 4x4")
    big = np.abs(B).max()
    if not big < math.inf:                       # NaN or Inf entries
        raise ValueError("block tensor entries must be finite")
    d = np.abs(B - B.T).max()
    if d > DEFAULT_TOL * (1.0 + big):
        raise ValueError(f"block tensor asymmetry {d:.3e} exceeds tolerance")
    return B - (B - B.T) / 2.0          # exact for symmetric B, cannot overflow


def check_finite(A, name):
    """``A`` as a float array; a NaN or Inf entry raises ValueError."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError(f"{name} entries must be finite")
    return A


def check_fraction(f):
    """``f`` as a float in [0, 1]; NaN and values outside raise ValueError."""
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise ValueError("volume fraction must lie in [0, 1]")
    return f


def block_inverse(B):
    """Dense inverse of a 4x4 block tensor."""
    return np.linalg.inv(np.asarray(B, dtype=float))


def congruence(B, L):
    """(B (x) I) L (B (x) I)^T for a 2x2 B; L may be a (..., 4, 4) stack."""
    BI = kron2(np.asarray(B, dtype=float), I2)
    return BI @ L @ BI.T


def is_positive_definite(k):
    """:func:`block_is_pd` of the block form of ``k``."""
    return block_is_pd(kt_to_block(k))


def block_is_pd(B, tol=1e-12):
    """Positive definiteness of a real 4x4 block or a (..., 4, 4) stack: all
    eigenvalues of the symmetric part exceed tol * (1 + max|B|), strictly, so
    the boundary fails, as do NaN and Inf entries.  One block gives a bool."""
    B = np.asarray(B, dtype=float)
    big = np.abs(B).max(axis=(-2, -1))           # NaN or Inf with such an entry
    ok = big < 2.0 ** 1023
    if not ok.all():
        # NaN or Inf entries: -I replaces the block.  max|B| >= 2^1023, where
        # B + B^T overflows: the block is halved, exactly (its cutoff's 1 is not)
        B = np.where(ok[..., None, None], B, B / 2.0)
        B = np.where((big < np.inf)[..., None, None], B, -I4)
        big = np.abs(B).max(axis=(-2, -1))
    w = np.linalg.eigvalsh(B + np.swapaxes(B, -1, -2))[..., 0]          # smallest
    pd = w > 2.0 * tol * (1.0 + big)
    return bool(pd) if pd.ndim == 0 else pd


def resolvent(D, M):
    """[D^-1 + M]^-1 in the pole-free form D (I + M D)^-1, finite for singular D.

    L0 + resolvent(W, -M) inverts W = resolvent(L - L0, M).  D and M may be
    (..., n, n) stacks with n = 2 or 4, evaluated entry by entry.
    """
    eye = I4 if D.shape[-1] == 4 else I2
    return D @ np.linalg.inv(eye + M @ D)


def mobius(A, L):
    """T (a1 L + b1 T)^-1 (a0 L + b0 T) for A = [[a0, b0], [a1, b1]], unsymmetrized."""
    return T4 @ np.linalg.solve(A[1, 0] * L + A[1, 1] * T4, A[0, 0] * L + A[0, 1] * T4)


def rotate(theta, k):
    """Frame rotation by ``theta``: X is unchanged, Y picks up e^{2 i theta}."""
    return KTensor(k.X, np.exp(2j * theta) * k.Y)


_I2_KRON = np.array([0, 1, 4, 5, 2, 3, 6, 7, 4, 5, 0, 1, 6, 7, 2, 3])


def _i2_kron(m):
    """I2 (x) M of 2x2 matrices M flattened to (..., 4), with 0.0 * M in the
    off-diagonal blocks (signed zeros as in np.kron), by one gather."""
    out = np.concatenate((m, 0.0 * m), -1).take(_I2_KRON, -1)
    return out.reshape(m.shape[:-1] + (4, 4))


def rotate_block(theta, B):
    """Same rotation applied to the 4x4 block form by spatial conjugation;
    angles of shape (...) rotate a (..., 4, 4) stack entry by entry."""
    c, s = np.cos(theta), np.sin(theta)
    Rhat = _i2_kron(np.stack([c, -s, s, c], -1))
    return Rhat @ np.asarray(B, float) @ np.swapaxes(Rhat, -1, -2)


def unit_normal(n):
    """Layer normals ``n`` of shape (..., 2) scaled to unit length; another
    shape, a zero or NaN normal and one whose n.n overflows are rejected.
    n.n as a matmul rounds like np.linalg.norm of one normal."""
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (2,):
        raise ValueError("layer normal must have 2 entries")
    if n.ndim == 1:         # one normal: n @ n is the same dot, unbroadcast
        norm = math.sqrt(n @ n)
        ok = 0.0 < norm < math.inf
    else:
        norm = np.sqrt(n[..., None, :] @ n[..., :, None])[..., 0]
        ok = ((norm > 0.0) & (norm < np.inf)).all()
    if not ok:
        raise ValueError("layer normal must be nonzero and of finite length")
    return n / norm


def gamma0(n):
    """Reference operator I (x) (n (x) n) for layer normals of shape (..., 2)."""
    n = unit_normal(n)
    return _i2_kron((n[..., :, None] * n[..., None, :]).reshape(n.shape[:-1] + (4,)))


def jordan_star(k1, a, k2):
    """Jordan product (k1 a k2 + k2 a k1) / 2 steered by ``a``, of operators
    or of (..., 4, 4) block forms: ``@`` is the operator product of both."""
    return 0.5 * (k1 @ a @ k2 + k2 @ a @ k1)
