"""The two-phase results do not depend on the BLAS kernel.

OpenBLAS picks a CPU kernel at load time, and its kernels round small
products differently (some fuse the multiply-adds).  The conductivity
laminates, the models' ``sigma_star``, ZT and Gamma0 avoid BLAS, so a seeded
script hashes to the same digest under every kernel the CPU can run.
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
# kernel.  Each SPD 2x2 and 4x4 is symmetric and diagonally dominant.
SCRIPT = """
import hashlib
import numpy as np
from thermoex.laminate import IteratedRank2Model, RankOneModel, conduct2
from thermoex.materials import figure_of_merit
from thermoex.tensor4 import gamma0

rng = np.random.default_rng(23)
digest = hashlib.sha256()


def spd(k):
    S = rng.uniform(-1.0, 1.0, (k, k))
    return S + S.T + 2.0 * k * np.eye(k)


for _ in range(100):
    f, h = rng.uniform(), rng.uniform(0.2, 5.0)
    n, m = rng.standard_normal(2), rng.standard_normal(2)
    for value in (figure_of_merit(spd(4)), conduct2(spd(2), spd(2), f, n),
                  RankOneModel(f, n).sigma_star(h),
                  IteratedRank2Model(f, n, 1.0 - f / 2, m).sigma_star(h),
                  gamma0(n), gamma0(rng.standard_normal((3, 2)))):
        digest.update(np.asarray(value, float).tobytes())
print(digest.hexdigest())
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
