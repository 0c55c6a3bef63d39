import math

import numpy as np
import pytest

from thermoex import twophase as tp
from thermoex.laminate import IteratedRank2Model, Mix, RankOneModel
from thermoex.tensor4 import I2, KTensor, det2, kt_to_block, is_positive_definite


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


def draw_pair(rng, tag):
    """(s1, r1, s2, r2) landing in case ``tag`` by construction, away from
    every case boundary it is not on."""
    while True:
        s1 = rand_spd(rng, 0.3)
        sd1 = np.sqrt(det2(s1))
        r1 = float(rng.uniform(-0.5, 0.5) * sd1)
        if tag in ("2c", "2a", "2b"):
            theta = rng.uniform(1.5, 4.0)
            s2, step = theta * s1, (theta - 1.0) * sd1
            r2 = r1 + {"2c": step,
                       "2a": rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.8) * step,
                       "2b": step + rng.uniform(0.2, 0.8) * (sd1 - r1)}[tag]
        else:
            s2 = s1 + rand_spd(rng, 0.2) if tag == "1aii" else rand_spd(rng, 0.3)
            theta = 0.5 * np.trace(np.linalg.solve(s1, s2))
            if np.linalg.norm(s2 - theta * s1) < 0.1 * np.abs(s2).max():
                continue                   # nearly proportional
            gap = abs(sd1 - np.sqrt(det2(s2)))
            if tag == "1cii":
                s2, r2 = s2 * (sd1 / np.sqrt(det2(s2))), r1
            elif tag == "1ci" and gap < 0.05:
                continue
            else:
                dr = {"1ai": rng.uniform(0.2, 0.8) * gap,
                      "1aii": np.sqrt(max(det2(s2 - s1), 0.0)),
                      "1b": gap + rng.uniform(0.1, 0.6) * sd1, "1ci": gap}[tag]
                r2 = r1 + rng.choice((-1.0, 1.0)) * dr
        if r2 ** 2 < 0.9 * det2(s2):
            return s1, r1, s2, float(r2)


def draw_model(rng, rank):
    def normal():
        a = rng.uniform(0.0, np.pi)
        return (math.cos(a), math.sin(a))

    if rank == 1:
        return RankOneModel(rng.uniform(0.15, 0.85), normal())
    return IteratedRank2Model(rng.uniform(0.2, 0.8), normal(),
                              rng.uniform(0.2, 0.8), normal())


def make_pair(s1, r1, s2, r2, micro=None):
    f = 0.5 if micro is None else micro.phase1_fraction
    return tp.IsoPhasePair(tp.IsoPhase(s1, r1), tp.IsoPhase(s2, r2), f, micro)


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
