"""Independent dense-numpy checks for the benchmark's op outputs.

Nothing here calls thermoex code: every reference is recomputed from the
paper's defining formulas with dense ``numpy.linalg`` routines, so a defect
in the package cannot hide behind the same defect in its own oracle.  The
only package data used is the span of each catalog subspace, which is the
definition of the relation being checked.
"""

from __future__ import annotations

import itertools

import numpy as np

I2 = np.eye(2)
I4 = np.eye(4)
RPERP = np.array([[0.0, -1.0], [1.0, 0.0]])
T4 = np.kron(RPERP, RPERP)

# keys of the exact relations: 8 and 13 are anchored with key 0, all others
# with key I/2 (the defining chart of each relation)
ER_KEY = {7: 0.5, 8: 0.0, 9: 0.5, 13: 0.0, 17: 0.5, 19: 0.5, 20: 0.5,
          21: 0.5, 22: 0.5}


def rel_diff(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.abs(a - b).max() / (1.0 + max(np.abs(a).max(), np.abs(b).max())))


def block_from_xy(X, Y):
    """Real 4x4 block form of u -> X u + Y conj(u)."""
    B = np.empty((4, 4))
    for i in range(2):
        for j in range(2):
            x, y = complex(X[i, j]), complex(Y[i, j])
            B[2 * i:2 * i + 2, 2 * j:2 * j + 2] = (
                x.real * I2 + x.imag * RPERP
                + np.array([[y.real, y.imag], [y.imag, -y.real]]))
    return B


def xy_from_block(B):
    X = np.empty((2, 2), complex)
    Y = np.empty((2, 2), complex)
    for i in range(2):
        for j in range(2):
            b = B[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            X[i, j] = complex(b[0, 0] + b[1, 1], b[1, 0] - b[0, 1]) / 2.0
            Y[i, j] = complex(b[0, 0] - b[1, 1], b[0, 1] + b[1, 0]) / 2.0
    return X, Y


def is_pd(B, tol=1e-12):
    B = np.asarray(B)
    if np.abs(B - B.conj().T).max() > 1e-9 * (1.0 + np.abs(B).max()):
        return False
    return bool(np.linalg.eigvalsh((B + B.conj().T) / 2.0).min() > tol * (1.0 + np.abs(B).max()))


def rotation_block(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.kron(I2, np.array([[c, -s], [s, c]]))


# -- laminates ---------------------------------------------------------------

def laminate_pair(L1, L2, f, n):
    """Rank-one laminate by W-additivity at the reference L0 = I:
    W(L) = [(L - I)^-1 + Gamma0(n)]^-1 is averaged with the volume fractions.
    """
    n = np.asarray(n, float)
    n = n / np.linalg.norm(n)
    G = np.kron(I2, np.outer(n, n))

    def fwd(L):
        D = L - I4
        return D @ np.linalg.inv(I4 + G @ D)

    W = f * fwd(L1) + (1.0 - f) * fwd(L2)
    out = I4 + W @ np.linalg.inv(I4 - G @ W)
    return (out + out.T) / 2.0


def laminate_spec(node, phases):
    """Evaluate a laminate spec ("leaf", phase, angle) / ("mix", f, n, c1, c2)."""
    if node[0] == "leaf":
        R = rotation_block(node[2])
        return R @ phases[node[1]] @ R.T
    _, f, n, c1, c2 = node
    return laminate_pair(laminate_spec(c1, phases), laminate_spec(c2, phases), f, n)


def micro_laminate(L1, L2, micro):
    """Dense laminate of two phases for a rank-1 or iterated rank-2 model."""
    if micro[0] == "rank1":
        return laminate_pair(L1, L2, micro[1], micro[2])
    _, f_in, n_in, f_out, n_out = micro
    return laminate_pair(laminate_pair(L1, L2, f_in, n_in), L2, f_out, n_out)


# -- exact-relation membership ------------------------------------------------

def _herm_coords(X):
    return [X[0, 0].real, X[1, 1].real, np.sqrt(2) * X[0, 1].real,
            np.sqrt(2) * X[0, 1].imag]


def _sym_coords(Y):
    return [Y[0, 0].real, Y[1, 1].real, np.sqrt(2) * Y[0, 1].real,
            Y[0, 0].imag, Y[1, 1].imag, np.sqrt(2) * Y[0, 1].imag]


def _coords(X, Y):
    return np.array(_herm_coords(X) + _sym_coords(Y))


def subspace_basis(v_basis, w_basis):
    """Orthonormal basis (10 x k) of the real span of a catalog subspace."""
    zero = np.zeros((2, 2), complex)
    cols = [_coords(np.asarray(v, complex), zero) for v in v_basis]
    for w in w_basis:
        w = np.asarray(w, complex)
        cols.append(_coords(zero, w))
        cols.append(_coords(zero, 1j * w))
    if not cols:
        return np.zeros((10, 0))
    Q, R = np.linalg.qr(np.stack(cols, axis=1))
    return Q[:, np.abs(np.diag(R)) > 1e-12]


def member_residual(ident, L, basis):
    """Distance of W(L) = (L - I)(I + M (L - I))^-1 from the subspace.

    Relative to 1 + |W|; zero (to rounding) exactly for members of the
    relation ``ident``.
    """
    D = np.asarray(L, float) - I4
    M = ER_KEY[ident] * I4
    X, Y = xy_from_block(D @ np.linalg.inv(I4 + M @ D))
    v = _coords(X, Y)
    r = v - basis @ (basis.T @ v)
    return float(np.linalg.norm(r) / (1.0 + np.linalg.norm(v)))


# -- two-phase and figure of merit -------------------------------------------

def iso_tensor(sig, r):
    return np.kron(np.asarray(sig, float), I2) + r * T4


def zt_eigenvalue(L):
    """Top eigenvalue lam of L22^-1 L12^T L11^-1 L12, with ZT = lam / (1 - lam).

    Computed as the top eigenvalue of the symmetric similar matrix
    R^-T (L12^T L11^-1 L12) R^-1, L22 = R^T R, which stays accurate to
    rounding at the double eigenvalue of isotropic tensors.
    """
    L11, L12, L22 = L[:2, :2], L[:2, 2:], L[2:, 2:]
    Rinv = np.linalg.inv(np.linalg.cholesky(L22).T)
    C = Rinv.T @ L12.T @ np.linalg.solve(L11, L12) @ Rinv
    return float(np.linalg.eigvalsh((C + C.T) / 2.0).max())


# -- link group ------------------------------------------------------------------

def psi_apply(A, B, L):
    """Psi_{A,B}(L) = (B x I) T (a1 L + b1 T)^-1 (a0 L + b0 T) (B^T x I)."""
    BI = np.kron(B, I2)
    pencil = A[1, 0] * L + A[1, 1] * T4
    out = BI @ T4 @ np.linalg.inv(pencil) @ (A[0, 0] * L + A[0, 1] * T4) @ BI.T
    return (out + out.T) / 2.0


# -- isotropic polycrystal -----------------------------------------------------

def _perm_sign(p):
    sign, p = 1, list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


_PERMS = [(p, _perm_sign(p)) for p in itertools.permutations(range(4))]
_P = np.polynomial.polynomial


def _poly_det(M):
    """Leibniz determinant of a 4x4 matrix of ascending coefficient arrays."""
    acc = np.zeros(1)
    for p, sign in _PERMS:
        term = np.ones(1)
        for i in range(4):
            term = _P.polymul(term, M[i][p[i]])
        acc = _P.polyadd(acc, sign * term)
    return acc


def _hvec(H):
    return np.array([H[0, 0].real, H[1, 1].real, H[0, 1].real, H[0, 1].imag])


def _hunvec(v):
    return np.array([[v[0], v[2] + 1j * v[3]], [v[2] - 1j * v[3], v[1]]])


def _cof_operator(Y):
    """Matrix of Z -> Y adj(Z) Y^H on Hermitian 2x2 in (Z11, Z22, Re Z12, Im Z12)."""
    basis = (np.array([[1, 0], [0, 0]], complex), np.array([[0, 0], [0, 1]], complex),
             np.array([[0, 1], [1, 0]], complex), np.array([[0, 1j], [-1j, 0]], complex))
    cols = []
    for E in basis:
        adj = np.array([[E[1, 1], -E[0, 1]], [-E[1, 0], E[0, 0]]])
        cols.append(_hvec(Y @ adj @ Y.conj().T))
    return np.stack(cols, axis=1)


class PolyReference:
    """Complete positive root set of theta * det Z(theta) = 1.

    Z(theta) solves (I + theta B) z = hvec(X + conj X).  Multiplying by
    det(I + theta B)^2 turns the scalar equation into a polynomial of
    degree at most 8, whose real positive roots come from its companion
    matrix and are polished by Newton steps on the original residual.
    """

    def __init__(self, X, Y):
        self.X = np.asarray(X, complex)
        self.Y = np.asarray(Y, complex)
        self.B = _cof_operator(self.Y)
        self.rhs = _hvec(self.X + self.X.conj())
        lin = [[np.array([float(i == j), self.B[i, j]]) for j in range(4)]
               for i in range(4)]
        p = _poly_det(lin)
        z = []
        for c in range(4):
            Mc = [[np.array([self.rhs[i]]) if j == c else lin[i][j]
                   for j in range(4)] for i in range(4)]
            z.append(_poly_det(Mc))
        q = _P.polysub(_P.polymul(z[0], z[1]),
                       _P.polyadd(_P.polymul(z[2], z[2]), _P.polymul(z[3], z[3])))
        F = np.trim_zeros(_P.polysub(_P.polymul([0.0, 1.0], q), _P.polymul(p, p)), "b")
        roots = []
        for r in _P.polyroots(F):
            if r.real > 0 and abs(r.imag) <= 1e-6 * abs(r):
                th = self._polish(r.real)
                if abs(self.g(th)) <= 1e-8:
                    roots.append(th)
        roots.sort()
        self.roots = [t for i, t in enumerate(roots)
                      if i == 0 or t - roots[i - 1] > 1e-9 * t]

    def z(self, th):
        return _hunvec(np.linalg.solve(I4 + th * self.B, self.rhs))

    def g(self, th):
        Z = self.z(th)
        return th * (Z[0, 0] * Z[1, 1] - abs(Z[0, 1]) ** 2).real - 1.0

    def _polish(self, th):
        for _ in range(8):
            h = 1e-7 * th
            d = (self.g(th + h) - self.g(th - h)) / (2.0 * h)
            if d == 0 or not np.isfinite(d):
                break
            step = self.g(th) / d
            th -= step
            if abs(step) <= 1e-15 * th:
                break
        return th

    def feasible(self, th):
        Z = self.z(th)
        return is_pd(Z, 0.0) and is_pd(Z - self.X.conj(), 0.0)

    def smallest_feasible(self):
        return next((t for t in self.roots if self.feasible(t)), None)

    def residual(self, Z):
        """Scaled defect of Z + Y Z^-1 Y^H = X + conj X."""
        lhs = Z + self.Y @ np.linalg.inv(Z) @ self.Y.conj().T
        return float(np.abs(lhs - (self.X + self.X.conj())).max() / (1.0 + np.abs(Z).max()))
