"""The two-phase results, the 4x4 PD test and the links do not depend on the
BLAS kernel.

OpenBLAS picks a CPU kernel at load time, and its kernels round small
products differently (some fuse the multiply-adds).  The conductivity
laminates, the models' ``sigma_star``, ZT, Gamma0, ``block_is_pd``, the link
group's ``psi_compose`` and ``psi_inverse`` and the link action ``mobius`` (on
drawn A and B, and through ``psi_apply`` and ``covariance``) avoid BLAS and
LAPACK, so a seeded script hashes to the same digest under every kernel the
CPU can run.  Its ``block_is_pd`` verdicts are taken on blocks whose smallest
eigenvalue of B + B^T lies within a few ulp of max|B| of the strict cutoff 0,
where any change of rounding would show.  Two-phase case 1ai calls ``mobius`` too but is not
hashed: its B, the product ``s1_half @ frame``, and the frame itself, from
``eigh`` in ``reduce_pair``, still round by kernel.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoex

# Inputs come from elementwise arithmetic only: A @ A.T would itself round by
# kernel.  Each SPD 2x2 and 4x4 is symmetric and diagonally dominant, and the
# link matrices have uniform entries.
SCRIPT = """
import hashlib
import numpy as np
from thermoex.exactrel import covariance
from thermoex.laminate import IteratedRank2Model, RankOneModel, conduct2
from thermoex.linkgroup import LinkMap, psi_apply, psi_compose, psi_inverse
from thermoex.materials import figure_of_merit
from thermoex.tensor4 import block_is_pd, gamma0, mobius

rng = np.random.default_rng(23)
digest = hashlib.sha256()


def spd(k):
    S = rng.uniform(-1.0, 1.0, (k, k))
    return S + S.T + 2.0 * k * np.eye(k)


def reflection():
    v = rng.standard_normal(4)
    return np.eye(4) - 2.0 * v[:, None] * v[None, :] / (v * v).sum()


def near_cutoff():
    # Q diag(lam) Q^T with lam[0] = 0, Q a product of two reflections, each
    # product entry summed elementwise; the shift c puts the smallest
    # eigenvalue 2c of B + B^T within 8 ulp of max|B| of the cutoff 0
    Q = (reflection()[:, :, None] * reflection()[None, :, :]).sum(1)
    lam = np.concatenate(([0.0], rng.uniform(0.5, 2.0, 3)))
    B = np.ldexp((Q[:, None, :] * lam * Q[None, :, :]).sum(-1),
                 int(rng.integers(-8, 9)))
    big = np.abs(B).max()
    c = rng.integers(-4, 5) * np.spacing(big)
    return B + c * np.eye(4)


for _ in range(100):
    f, h = rng.uniform(), rng.uniform(0.2, 5.0)
    n, m = rng.standard_normal(2), rng.standard_normal(2)
    for value in (figure_of_merit(spd(4)), conduct2(spd(2), spd(2), f, n),
                  RankOneModel(f, n).sigma_star(h),
                  IteratedRank2Model(f, n, 1.0 - f / 2, m).sigma_star(h),
                  gamma0(n), gamma0(rng.standard_normal((3, 2)))):
        digest.update(np.asarray(value, float).tobytes())
blocks = np.stack([near_cutoff() for _ in range(800)])
verdicts = [block_is_pd(B) for B in blocks] + block_is_pd(blocks).tolist()
digest.update(bytes(verdicts))
for _ in range(100):
    m = LinkMap(rng.uniform(-1.0, 1.0, (2, 2)), rng.uniform(-1.0, 1.0, (2, 2)))
    L, Ls = spd(4), np.stack([spd(4) for _ in range(3)])
    sq, inv = psi_compose(m, m), psi_inverse(m)
    for value in (psi_apply(m, L), psi_apply(m, Ls), sq.a, sq.b, inv.a, inv.b,
                  mobius(rng.uniform(-1.0, 1.0, (2, 2)),
                         rng.uniform(-1.0, 1.0, (2, 2)), L),
                  covariance(spd(2), spd(4))):
        digest.update(value.tobytes())
print(digest.hexdigest(), sum(verdicts), len(verdicts))
"""

KERNELS = (None, "Haswell", "Zen", "Sandybridge")


def _skip_reason():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return "the OpenBLAS kernels compared here are x86-64 kernels"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS library"
    if "openblas" not in blas.lower():
        return f"numpy is built on {blas}, not OpenBLAS"
    try:
        flags = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "no /proc/cpuinfo to check the CPU for AVX2"
    if " avx2" not in flags:
        return "the Haswell and Zen kernels need a CPU with AVX2"
    return None


SKIP = _skip_reason()


@pytest.mark.skipif(SKIP is not None, reason=str(SKIP))
def test_two_phase_results_are_kernel_independent():
    src = str(Path(thermoex.__file__).resolve().parent.parent)
    digests = {}
    for kernel in KERNELS:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p),
            OPENBLAS_NUM_THREADS="1")
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        digests[kernel or "default"] = subprocess.run(
            [sys.executable, "-W", "error", "-c", SCRIPT], env=env, check=True,
            capture_output=True, text=True).stdout.strip()
    assert len(set(digests.values())) == 1, digests
    _, pd, total = digests["default"].split()     # both verdicts occur often
    assert 0.2 < int(pd) / int(total) < 0.8, digests
