"""Kernel for symmetric operators on the field space R^2 (+) R^2.

A real linear operator on R^2 (+) R^2 is identified with a pair of complex
2x2 matrices (X, Y) acting on u in C^2 by  u -> X u + Y conj(u).  The
operator is symmetric exactly when X is Hermitian and Y is complex
symmetric, and every such operator also has a real 4x4 block form

    [[phi(X11) + psi(Y11), phi(X12) + psi(Y12)],
     [phi(X21) + psi(Y21), phi(X22) + psi(Y22)]]

with phi(a+bi) = a*I + b*Rperp and psi(a+bi) = [[a, b], [b, -a]].  Operator
products are real 4x4 products of the block forms, one matmul for a stack; the
2x2 kernels are closed form and 4x4 inverses dense numpy.linalg.  Two 4x4
kernels run on Python floats, with no LAPACK call: the one PD test,
block_is_pd, every LDL^T pivot of B + B^T strictly positive, with no tolerance
or scale (pd2 asks the same of the leading minors of a Hermitian 2x2), and
the one link action Psi_{A,B}, mobius, a Gaussian elimination with partial
pivoting followed by the congruence by B (x) I.

Block-matrix convention: the first index of a Kronecker product A (x) B
is the field-pair slot, the second the spatial slot, i.e.
np.kron(A, B) = [[a11*B, a12*B], [a21*B, a22*B]].
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DomainError", "I2", "I4", "RPERP", "T4", "Z0", "Z0SYM", "E11", "E22",
    "KTensor", "phi", "psi", "cof2", "kron2", "inv2", "inv2_rows", "det2", "pd2",
    "check_spd2", "spd_sqrt_rows", "spd_sqrt_2x2", "as_block",
    "kt_to_block", "kt_from_block", "kt_mul", "kt_transpose", "kt_inverse",
    "block_inverse", "block_parts", "block_from_parts",
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


def inv2_rows(rows):
    """Closed-form inverse of a 2x2 (real or complex) given as rows, as rows."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    if det == 0:
        raise np.linalg.LinAlgError("singular 2x2 matrix")
    return (d / det, -b / det), (-c / det, a / det)


def inv2(m):
    """:func:`inv2_rows` of a 2x2 array or of its rows, as an array."""
    return np.array(inv2_rows(m.tolist() if isinstance(m, np.ndarray) else m))


def pd2(m):
    """Positive definiteness of a Hermitian 2x2, array or rows: both leading
    minors strictly positive, so NaN entries fail.  A matrix with max|m|
    outside [2^-500, 2^500] is tested as m / 4^k with max|m| / 4^k in
    [1/4, 1), so the determinant neither overflows nor underflows; a power
    of two scales exactly, so the test is the same.
    """
    (a, b), (c, d) = m.tolist() if isinstance(m, np.ndarray) else m
    big = max(abs(a), abs(b), abs(c), abs(d))
    if not 2.0 ** -500 <= big <= 2.0 ** 500:
        h = 2.0 ** -(math.frexp(big)[1] // 2)    # 1.0 when big is 0, Inf or NaN
        a, b, c, d = (v * h * h for v in (a, b, c, d))
    return a.real > 0.0 and (a * d - b * c).real > 0.0


def check_spd2(m, name="matrix"):
    """Validate and symmetrize an SPD 2x2: another shape, an infinite entry or
    a relative asymmetry above DEFAULT_TOL raise ValueError; a matrix that is
    not positive definite (NaN entries included) raises DomainError."""
    m = np.asarray(m, dtype=float)
    e = [abs(v) for v in m.ravel().tolist()]
    if m.shape != (2, 2) or math.inf in e \
            or abs(m[0, 1] - m[1, 0]) > DEFAULT_TOL * max(e):
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
    """Validate and symmetrize a 4x4 block tensor: another shape, a NaN or
    Inf entry or an asymmetry above DEFAULT_TOL max|B| raise ValueError."""
    B = np.asarray(B, dtype=float)
    if B.shape != (4, 4):
        raise ValueError("block tensor must be 4x4")
    big = np.abs(B).max()
    if not big < math.inf:                       # NaN or Inf entries
        raise ValueError("block tensor entries must be finite")
    d = np.abs(B - B.T).max()
    if d > DEFAULT_TOL * big:
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


def is_positive_definite(k):
    """:func:`block_is_pd` of the block form of ``k``."""
    return block_is_pd(kt_to_block(k))


def _pd_flat(v):
    """:func:`block_is_pd` of one block given as its 16 entries, row-major."""
    big = max(map(abs, v))       # NaN entries reach a pivot and fail there
    if big == math.inf:
        return False
    if big >= 2.0 ** 1023:                       # B + B^T would overflow
        v = [x / 2.0 for x in v]
    b00, b01, b02, b03, b10, b11, b12, b13, \
        b20, b21, b22, b23, b30, b31, b32, b33 = v
    a00 = b00 + b00                              # the pivots of S = B + B^T
    if not a00 > 0.0:
        return False
    c1, c2, c3 = b10 + b01, b20 + b02, b30 + b03
    m1, m2, m3 = c1 / a00, c2 / a00, c3 / a00
    a11 = b11 + b11 - m1 * c1
    if not a11 > 0.0:
        return False
    a21 = b21 + b12 - m2 * c1
    a31 = b31 + b13 - m3 * c1
    n2, n3 = a21 / a11, a31 / a11
    a22 = b22 + b22 - m2 * c2 - n2 * a21
    if not a22 > 0.0:
        return False
    a32 = b32 + b23 - m3 * c2 - n3 * a21
    return b33 + b33 - m3 * c3 - n3 * a31 - a32 / a22 * a32 > 0.0


def block_is_pd(B):
    """Positive definiteness of a real 4x4 block or a (..., 4, 4) stack: every
    pivot of the LDL^T factorization of S = B + B^T, on Python floats, is
    strictly positive.  The test has no tolerance and no scale: the boundary
    fails at every scale, as do NaN and Inf entries.  One block gives a bool.

    A NaN entry reaches a pivot; an Inf one fails up front.  For PD input
    each Schur complement is bounded by the diagonal, so no pivot overflows.
    A finite block with max|B| >= 2^1023, where S would overflow, is halved
    first, exactly.  A stack runs the same test block by block.
    """
    B = np.asarray(B, dtype=float)
    if B.shape[-2:] != (4, 4):
        raise ValueError("block tensor must be 4x4")
    if B.ndim == 2:
        return _pd_flat(B.ravel().tolist())
    return np.array([_pd_flat(v) for v in B.reshape(-1, 16).tolist()],
                    dtype=bool).reshape(B.shape[:-2])


def resolvent(D, M):
    """[D^-1 + M]^-1 in the pole-free form D (I + M D)^-1, finite for singular D.

    L0 + resolvent(W, -M) inverts W = resolvent(L - L0, M).  D and M are 4x4
    or (..., 4, 4) stacks, evaluated entry by entry.
    """
    return D @ np.linalg.inv(I4 + M @ D)


def _pivot(x0, x1, x2=0.0, x3=0.0):
    """Index of the first entry of largest magnitude, as LAPACK's idamax picks
    a pivot; an exactly zero column raises LinAlgError before any division."""
    x0, x1, x2, x3 = abs(x0), abs(x1), abs(x2), abs(x3)
    i = 0
    if x1 > x0:
        i, x0 = 1, x1
    if x2 > x0:
        i, x0 = 2, x2
    if x3 > x0:
        i, x0 = 3, x3
    if x0 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return i


def _finite(v):
    """Whether every float of ``v`` is finite: a NaN or Inf entry makes the
    sum NaN or Inf, and only a sum that overflows needs the entries tested."""
    return math.isfinite(sum(v)) or all(map(math.isfinite, v))


def _entries2(m, name):
    """The four entries (m00, m01, m10, m11) of a 2x2 as Python floats."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
    (m00, m01), (m10, m11) = m.tolist()
    return m00, m01, m10, m11


def _mobius_flat(a, b, v):
    """:func:`mobius` of one block given as its 16 entries, row-major, as 16
    entries, for A and B given as their entries ``a`` and ``b``.  T adds +-b
    to the anti-diagonal, T[i][3 - i] = (1, -1, -1, 1)[i], so T X is the rows
    of X reversed, the middle two negated: subtractions in the congruence."""
    if not _finite(v):
        raise ValueError("L entries must be finite")
    a0, b0, a1, b1 = a
    l00, l01, l02, l03, l10, l11, l12, l13, \
        l20, l21, l22, l23, l30, l31, l32, l33 = v
    r0 = (a1 * l00, a1 * l01, a1 * l02, a1 * l03 + b1,
          a0 * l00, a0 * l01, a0 * l02, a0 * l03 + b0)
    r1 = (a1 * l10, a1 * l11, a1 * l12 - b1, a1 * l13,
          a0 * l10, a0 * l11, a0 * l12 - b0, a0 * l13)
    r2 = (a1 * l20, a1 * l21 - b1, a1 * l22, a1 * l23,
          a0 * l20, a0 * l21 - b0, a0 * l22, a0 * l23)
    r3 = (a1 * l30 + b1, a1 * l31, a1 * l32, a1 * l33,
          a0 * l30 + b0, a0 * l31, a0 * l32, a0 * l33)
    # column 0: swap the pivot row into row 0, as LAPACK interchanges rows
    i = _pivot(r0[0], r1[0], r2[0], r3[0])
    if i == 1:
        r0, r1 = r1, r0
    elif i == 2:
        r0, r2 = r2, r0
    elif i == 3:
        r0, r3 = r3, r0
    u00, u01, u02, u03, y00, y01, y02, y03 = r0
    q0, q1, q2, q3, q4, q5, q6, q7 = r1
    f = q0 / u00
    r1 = (q1 - f * u01, q2 - f * u02, q3 - f * u03,
          q4 - f * y00, q5 - f * y01, q6 - f * y02, q7 - f * y03)
    q0, q1, q2, q3, q4, q5, q6, q7 = r2
    f = q0 / u00
    r2 = (q1 - f * u01, q2 - f * u02, q3 - f * u03,
          q4 - f * y00, q5 - f * y01, q6 - f * y02, q7 - f * y03)
    q0, q1, q2, q3, q4, q5, q6, q7 = r3
    f = q0 / u00
    r3 = (q1 - f * u01, q2 - f * u02, q3 - f * u03,
          q4 - f * y00, q5 - f * y01, q6 - f * y02, q7 - f * y03)
    # column 1
    i = _pivot(r1[0], r2[0], r3[0])
    if i == 1:
        r1, r2 = r2, r1
    elif i == 2:
        r1, r3 = r3, r1
    u11, u12, u13, y10, y11, y12, y13 = r1
    q0, q1, q2, q3, q4, q5, q6 = r2
    f = q0 / u11
    r2 = (q1 - f * u12, q2 - f * u13,
          q3 - f * y10, q4 - f * y11, q5 - f * y12, q6 - f * y13)
    q0, q1, q2, q3, q4, q5, q6 = r3
    f = q0 / u11
    r3 = (q1 - f * u12, q2 - f * u13,
          q3 - f * y10, q4 - f * y11, q5 - f * y12, q6 - f * y13)
    # columns 2 and 3
    if _pivot(r2[0], r3[0]) == 1:
        r2, r3 = r3, r2
    u22, u23, y20, y21, y22, y23 = r2
    q0, q1, q2, q3, q4, q5 = r3
    f = q0 / u22
    u33 = q1 - f * u23
    if u33 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    x30, x31 = (q2 - f * y20) / u33, (q3 - f * y21) / u33
    x32, x33 = (q4 - f * y22) / u33, (q5 - f * y23) / u33
    x20, x21 = (y20 - u23 * x30) / u22, (y21 - u23 * x31) / u22
    x22, x23 = (y22 - u23 * x32) / u22, (y23 - u23 * x33) / u22
    x10 = (y10 - u12 * x20 - u13 * x30) / u11
    x11 = (y11 - u12 * x21 - u13 * x31) / u11
    x12 = (y12 - u12 * x22 - u13 * x32) / u11
    x13 = (y13 - u12 * x23 - u13 * x33) / u11
    x00 = (y00 - u01 * x10 - u02 * x20 - u03 * x30) / u00
    x01 = (y01 - u01 * x11 - u02 * x21 - u03 * x31) / u00
    x02 = (y02 - u01 * x12 - u02 * x22 - u03 * x32) / u00
    x03 = (y03 - u01 * x13 - u02 * x23 - u03 * x33) / u00
    b00, b01, b10, b11 = b
    # rows: W[2p + s] = b_p0 (T X)[s] + b_p1 (T X)[2 + s], T X = (x3, -x2, -x1, x0)
    w00, w01, w02, w03 = (b00 * x30 - b01 * x10, b00 * x31 - b01 * x11,
                          b00 * x32 - b01 * x12, b00 * x33 - b01 * x13)
    w10, w11, w12, w13 = (b01 * x00 - b00 * x20, b01 * x01 - b00 * x21,
                          b01 * x02 - b00 * x22, b01 * x03 - b00 * x23)
    w20, w21, w22, w23 = (b10 * x30 - b11 * x10, b10 * x31 - b11 * x11,
                          b10 * x32 - b11 * x12, b10 * x33 - b11 * x13)
    w30, w31, w32, w33 = (b11 * x00 - b10 * x20, b11 * x01 - b10 * x21,
                          b11 * x02 - b10 * x22, b11 * x03 - b10 * x23)
    # columns: Z[:, 2q + t] = b_q0 W[:, t] + b_q1 W[:, 2 + t]
    z00, z01, z02, z03 = (b00 * w00 + b01 * w02, b00 * w01 + b01 * w03,
                          b10 * w00 + b11 * w02, b10 * w01 + b11 * w03)
    z10, z11, z12, z13 = (b00 * w10 + b01 * w12, b00 * w11 + b01 * w13,
                          b10 * w10 + b11 * w12, b10 * w11 + b11 * w13)
    z20, z21, z22, z23 = (b00 * w20 + b01 * w22, b00 * w21 + b01 * w23,
                          b10 * w20 + b11 * w22, b10 * w21 + b11 * w23)
    z30, z31, z32, z33 = (b00 * w30 + b01 * w32, b00 * w31 + b01 * w33,
                          b10 * w30 + b11 * w32, b10 * w31 + b11 * w33)
    s01, s02, s03 = (z01 + z10) / 2.0, (z02 + z20) / 2.0, (z03 + z30) / 2.0
    s12, s13, s23 = (z12 + z21) / 2.0, (z13 + z31) / 2.0, (z23 + z32) / 2.0
    out = (z00, s01, s02, s03, s01, z11, s12, s13,
           s02, s12, z22, s23, s03, s13, s23, z33)
    if not _finite(out):
        raise DomainError("link image overflows the float range")
    return out


def _mobius(a, b, L):
    """:func:`mobius` for A and B given as their entries, Python floats."""
    L = np.asarray(L, dtype=float)
    if L.shape[-2:] != (4, 4):
        raise ValueError("block tensor must be 4x4")
    if L.ndim == 2:
        return np.array(_mobius_flat(a, b, L.ravel().tolist())).reshape(4, 4)
    return np.array([_mobius_flat(a, b, v)
                     for v in L.reshape(-1, 16).tolist()]).reshape(L.shape)


def mobius(A, B, L):
    """The link action Psi_{A,B}(L) = (B (x) I) T (a1 L + b1 T)^-1 (a0 L + b0 T)
    (B (x) I)^T, A = [[a0, b0], [a1, b1]], symmetrized; L may be a (..., 4, 4)
    stack, and each block's result is the same bits as alone.

    On Python floats, one block at a time: Gaussian elimination with partial
    pivoting (LAPACK dgesv's algorithm, as backward stable), then the
    congruence by B (x) I.  A, B or L of another shape or with a NaN or Inf
    entry raise ValueError, an image outside the float range DomainError and
    an exactly zero pivot LinAlgError("Singular matrix").
    """
    a, b = _entries2(A, "A"), _entries2(B, "B")
    if not _finite(a + b):
        raise ValueError("A and B entries must be finite")
    return _mobius(a, b, L)


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
    shape and a zero, NaN or Inf normal are rejected.  Each normal is first
    divided by 2^e with max|n| in [2^(e-1), 2^e), exactly, so n.n neither
    overflows nor underflows and the unit normal keeps the bits of n / |n|.
    n.n is n0 n0 + n1 n1, on floats for one normal and elementwise for a
    stack, so both round alike and no BLAS kernel rounds it."""
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (2,):
        raise ValueError("layer normal must have 2 entries")
    if n.ndim == 1:
        n0, n1 = n.tolist()
        e = -math.frexp(max(abs(n0), abs(n1)))[1]    # 0 for 0, Inf and NaN
        n0, n1 = math.ldexp(n0, e), math.ldexp(n1, e)
        norm = math.sqrt(n0 * n0 + n1 * n1)
        if 0.0 < norm < math.inf:
            return np.array((n0 / norm, n1 / norm))
    else:
        n = np.ldexp(n, -np.frexp(np.abs(n).max(axis=-1, keepdims=True))[1])
        norm = np.sqrt(n[..., :1] * n[..., :1] + n[..., 1:] * n[..., 1:])
        if ((norm > 0.0) & (norm < np.inf)).all():
            return n / norm
    raise ValueError("layer normal must be nonzero and of finite length")


def gamma0(n):
    """Reference operator I (x) (n (x) n) for layer normals of shape (..., 2)."""
    n = unit_normal(n)
    return _i2_kron((n[..., :, None] * n[..., None, :]).reshape(n.shape[:-1] + (4,)))


def jordan_star(k1, a, k2):
    """Jordan product (k1 a k2 + k2 a k1) / 2 steered by ``a``, of operators
    or of (..., 4, 4) block forms: ``@`` is the operator product of both."""
    return 0.5 * (k1 @ a @ k2 + k2 @ a @ k1)
