import numpy as np
import pytest

from thermoex.laminate import Mix
from thermoex.tensor4 import I2, KTensor, kt_to_block, is_positive_definite


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)


def rand_herm(rng, scale=1.0):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return scale * (A + A.conj().T) / 2.0


def rand_sym_c(rng, scale=1.0):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return scale * (A + A.T) / 2.0


def rand_spd(rng, floor=0.5):
    A = rng.standard_normal((2, 2))
    return A @ A.T + floor * I2


def rand_kt(rng, scale=1.0):
    """Random symmetric operator, not necessarily positive definite."""
    return KTensor(rand_herm(rng, scale), rand_sym_c(rng, scale))


def rand_pd_kt(rng, scale=0.5):
    """Random positive definite symmetric operator."""
    for _ in range(200):
        k = KTensor(rand_herm(rng, scale) + 2.0 * I2, rand_sym_c(rng, scale))
        if is_positive_definite(k):
            return k
    raise RuntimeError("failed to draw a PD operator")


def rand_pd_block(rng, scale=0.5):
    return kt_to_block(rand_pd_kt(rng, scale))


def random_tree(rng, m, leaves):
    """Random hierarchy of ``m`` mixes over the shared ``leaves`` objects;
    fractions include the end points 0 and 1."""
    if m == 0:
        return leaves[rng.integers(len(leaves))]
    k = int(rng.integers(m))
    f = float(rng.choice([0.0, 1.0, rng.uniform()], p=[0.1, 0.1, 0.8]))
    return Mix(random_tree(rng, k, leaves), random_tree(rng, m - 1 - k, leaves),
               f, tuple(rng.standard_normal(2)))


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() / (1.0 + max(np.abs(a).max(), np.abs(b).max()))


def scalar_sample(spec, rng, scale=1.0):
    """(X, Y) of a catalog element from one scalar draw per coefficient: the V
    coefficients, then (re, im) per W element, each added from zero in basis
    order.  The reference of the algebra samplers."""
    X = np.zeros((2, 2), complex)
    for v in spec.v_basis:
        X = X + rng.uniform(-scale, scale) * v
    Y = np.zeros((2, 2), complex)
    for w in spec.w_basis:
        Y = Y + (rng.uniform(-scale, scale) + 1j * rng.uniform(-scale, scale)) * w
    return KTensor(X, Y)
