"""Guards on the public surface: exported names and the functions that the
span tracer of ``bench/tracing.py`` wraps by name.

A deletion that breaks the tracer would otherwise only show as a crash of
the benchmark, so its table is read here with ``ast`` (importing it would
import the bench workloads too).  A last guard keeps ``numpy.polynomial``
off the CLI import path.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import thermoex

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(thermoex.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"thermoex.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"thermoex.{name}.__all__ names missing attributes: {missing}"


def _traced_table():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TRACED"):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_traced_functions_exist():
    table = _traced_table()
    assert table
    missing = [f"{home}.{attr}" for home, attrs in table.items() for attr in attrs
               if not callable(getattr(importlib.import_module(f"thermoex.{home}"),
                                       attr, None))]
    assert not missing, f"functions wrapped by the bench tracer are gone: {missing}"
    # the tracer also wraps det2 where polycrystal binds it, and the
    # subspace residual of the algebra audits
    from thermoex import algebra, polycrystal, tensor4
    assert polycrystal.det2 is tensor4.det2
    assert callable(algebra.AlgebraSpec.residual)


def test_cli_path_does_not_load_numpy_polynomial():
    """The polycrystal solver builds its polynomial with np.convolve and
    np.roots; ``numpy.polynomial`` would add import time to every CLI call."""
    code = ("import sys, numpy as np\n"
            "import thermoex.cli\n"
            "from thermoex.polycrystal import solve_isotropic\n"
            "from thermoex.tensor4 import KTensor\n"
            "solve_isotropic(KTensor(2 * np.eye(2), np.eye(2)))\n"
            "print('numpy.polynomial' in sys.modules)\n")
    src = str(Path(thermoex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
