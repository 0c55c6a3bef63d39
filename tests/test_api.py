"""Guards on the public surface: exported names, the functions that the
span tracer of ``bench/tracing.py`` wraps by name, and the file formats
that only ``cli`` may know.

A deletion that breaks the tracer would otherwise only show as a crash of
the benchmark, so its table is read here with ``ast`` (importing it would
import the bench workloads too).  The import-path guards run in fresh
interpreters: ``numpy.polynomial`` stays off the CLI path, each subcommand
loads only its own modules, and the lazy package still loads and binds
everything on first use.
"""

import ast
import importlib
import json
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


def test_only_cli_knows_the_file_formats():
    """The JSON schemas of the command line are read and written in ``cli``
    alone: no other module defines a module-level ``*_json`` function."""
    pkg = Path(thermoex.__file__).resolve().parent
    found = [f"{name}.{node.name}" for name in MODULES if name != "cli"
             for node in ast.parse((pkg / f"{name}.py").read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name.endswith("_json")]
    assert not found, f"JSON readers or writers outside thermoex.cli: {found}"


def test_cli_path_does_not_load_numpy_polynomial():
    """The polycrystal solver evaluates its polynomial by Horner on floats and
    finds its roots with np.linalg.eigvals of the companion pair;
    ``numpy.polynomial`` would add import time to every CLI call."""
    code = ("import sys, numpy as np\n"
            "import thermoex.cli\n"
            "from thermoex.polycrystal import solve_isotropic\n"
            "from thermoex.tensor4 import KTensor\n"
            "solve_isotropic(KTensor(2 * np.eye(2), np.eye(2)))\n"
            "print('numpy.polynomial' in sys.modules)\n")
    src = str(Path(thermoex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


DATA = Path(__file__).resolve().parent / "data"
SUBMODULES = ("algebra", "exactrel", "laminate", "linkgroup", "materials",
              "polycrystal", "tensor4", "twophase")


def _python(code):
    """Run ``code`` in a fresh interpreter on this checkout; its last stdout
    line, parsed as JSON."""
    src = str(Path(thermoex.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


LOADED = ("sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('thermoex.'))")


@pytest.mark.parametrize("argv,modules", [
    (["zt", "material_iso.json"], {"cli", "tensor4", "materials"}),
    (["er", "--er", "8", "tensor_er8_sample.json"],
     {"cli", "tensor4", "algebra", "exactrel"}),
    (["laminate", "tree_rank1.json"], {"cli", "tensor4", "laminate"}),
    (["two-phase", "pair_1ci.json"], {"cli", "tensor4", "laminate", "twophase"}),
    (["polycrystal", "crystallite_s2.json"], {"cli", "tensor4", "polycrystal"}),
    (["verify-algebras"], {"cli", "tensor4", "algebra"}),
], ids=["zt", "er", "laminate", "two-phase", "polycrystal", "verify-algebras"])
def test_cli_subcommand_loads_only_its_modules(argv, modules):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    got = _python("import contextlib, io, json, sys\n"
                  "from thermoex.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = main({argv!r})\n"
                  f"print(json.dumps([code, {LOADED}]))\n")
    assert got == [0, sorted(modules)]


def test_package_import_loads_no_submodule():
    assert _python("import json, sys, thermoex\n"
                   f"print(json.dumps([{LOADED}, 'numpy' in sys.modules]))\n"
                   ) == [[], False]


def test_first_lookup_loads_and_binds_everything():
    """bench/tracing.py starts with ``from thermoex import algebra`` and then
    rebinds traced functions by identity in every loaded thermoex module;
    this holds only if that lookup loads all submodules and binds every
    exported name as a plain package global."""
    loaded, unbound = _python(
        "import json, sys, thermoex\n"
        "from thermoex import algebra\n"
        "unbound = [n for n in thermoex.__all__ if n not in vars(thermoex)]\n"
        f"print(json.dumps([{LOADED}, unbound]))\n")
    assert loaded == list(SUBMODULES) and unbound == []


def test_star_import_and_dir_give_every_name():
    fresh_dir, star, full_dir, names = _python(
        "import json, thermoex\n"
        "fresh = dir(thermoex)\n"
        "ns = {}\n"
        "exec('from thermoex import *', ns)\n"
        "print(json.dumps([fresh, sorted(n for n in ns if n != '__builtins__'),\n"
        "                  dir(thermoex), thermoex.__all__]))\n")
    assert set(SUBMODULES) <= set(names)
    assert star == sorted(names)
    assert set(names) <= set(fresh_dir) and set(names) <= set(full_dir)
    for name in names:
        assert getattr(thermoex, name) is not None


def _instances():
    import numpy as np
    from thermoex import algebra, exactrel, materials, polycrystal, twophase
    from thermoex.laminate import RankOneModel
    I2 = np.eye(2)
    pair = twophase.IsoPhasePair(twophase.IsoPhase(I2, 0.1),
                                 twophase.IsoPhase(np.diag([2.0, 3.0]), 0.4),
                                 0.5, RankOneModel(0.5))
    return {
        "AlgebraSpec": algebra.algebra_by_id(5),
        "AutomorphismDesc": algebra.AutomorphismDesc("global", C=I2 + 0j),
        "ERSpec": exactrel.er_spec(8),
        "Material": materials.Material(I2, 0.1 * I2, 2.0 * I2, 300.0),
        "PolyResult": polycrystal.solve_isotropic(thermoex.KTensor(2.0 * I2, I2)),
        "Reduced": twophase.reduce_pair(pair),
        "CaseTag": twophase.classify(pair),
        "EffectiveResult": twophase.effective(pair),
    }


@pytest.mark.parametrize("name", ["AlgebraSpec", "AutomorphismDesc", "ERSpec",
                                  "Material", "PolyResult", "Reduced",
                                  "CaseTag", "EffectiveResult"])
def test_array_holders_compare_by_identity(name):
    """Results and specs that hold arrays compare and hash by identity: a
    field-wise == of arrays would raise for two equal instances."""
    import dataclasses
    a = _instances()[name]
    b = dataclasses.replace(a)
    assert type(a).__name__ == name
    assert (a == b) is False and (a != b) is True and (a == a) is True
    assert hash(a) == hash(a) and hash(a) != hash(b)


def _finite_inputs():
    """Paper-level entry points that take arrays, each with valid arguments."""
    import numpy as np
    from thermoex import exactrel, linkgroup, materials, tensor4
    lam = np.array([[2.0, 0.5], [0.5, 1.0]])
    L = np.diag([2.0, 3.0, 1.5, 1.0])
    M = np.array([[1.0, 0.2], [0.2, 2.0]])
    return {
        "pullback": (exactrel.pullback, (8, L)),
        "w_transform": (exactrel.w_transform, (L, exactrel.er_spec(8).key_block)),
        "w_inverse": (exactrel.w_inverse,
                      (L - np.eye(4), exactrel.er_spec(8).key_block)),
        "lm_par": (exactrel.lm_par, (lam, M)),
        "lm_unpar": (exactrel.lm_unpar, (exactrel.lm_par(lam, M),)),
        "covariance": (exactrel.covariance, (lam, L)),
        "link21_factor": (linkgroup.link21_factor, (M,)),
        "link21_reconstruct": (linkgroup.link21_reconstruct,
                               linkgroup.link21_factor(M)),
        "zt_isotropic": (materials.zt_isotropic, (lam,)),
        "mobius": (tensor4.mobius, (np.array([[1.0, 0.5], [0.2, 1.0]]), lam, L)),
    }


ARRAY_ARGS = [(name, i) for name, (_, args) in _finite_inputs().items()
              for i, a in enumerate(args) if not isinstance(a, int)]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,arg", ARRAY_ARGS,
                         ids=[f"{name}-{i}" for name, i in ARRAY_ARGS])
def test_entry_points_reject_non_finite(name, arg, bad):
    """A NaN or an infinite entry in any array argument raises ValueError
    (DomainError included) instead of passing on as a NaN result."""
    fn, args = _finite_inputs()[name]
    fn(*args)
    args = list(args)
    args[arg] = args[arg].copy()
    args[arg][-1, -1] = float(bad)
    with pytest.raises(ValueError):
        fn(*args)


def _scalar_calls():
    """Paper-level entry points that take scalars, as one-argument calls."""
    from thermoex import exactrel, polycrystal, twophase
    return {
        "special_quartic-s1": lambda x: polycrystal.special_quartic(x, 2.0),
        "special_quartic-s2": lambda x: polycrystal.special_quartic(3.0, x),
        "a0_roots-det_sigma": lambda x: twophase.a0_roots(x, 1.0),
        "a0_roots-rho": lambda x: twophase.a0_roots(5.0, x),
        "er_sample-scale": lambda x: exactrel.er_sample(8, scale=x),
    }


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(_scalar_calls()))
def test_scalar_entry_points_reject_non_finite(name, bad):
    """A NaN or infinite scalar raises ValueError instead of returning NaN
    roots or letting numpy raise an untyped OverflowError."""
    call = _scalar_calls()[name]
    call(1.5)
    with pytest.raises(ValueError, match="finite"):
        call(float(bad))


def _overflowing_calls():
    """Finite scalar arguments whose results leave the float range."""
    from thermoex import polycrystal, twophase
    return {
        "special_quartic-s1": lambda: polycrystal.special_quartic(1e200, 2.0),
        "special_quartic-s2": lambda: polycrystal.special_quartic(2.0, 1e200),
        "special_quartic-det": lambda: polycrystal.special_quartic(1e40, 2.0),
        "a0_roots-quotient": lambda: twophase.a0_roots(1e300, 1e-300),
        "a0_roots-square": lambda: twophase.a0_roots(1.0, 1e200),
    }


@pytest.mark.parametrize("name", list(_overflowing_calls()))
def test_scalar_entry_points_reject_overflow(name):
    """DomainError, instead of Python's OverflowError, numpy's overflow
    warning or NaN roots."""
    from thermoex.tensor4 import DomainError
    with pytest.raises(DomainError, match="overflow"):
        _overflowing_calls()[name]()


def test_console_script_runs_the_cli(capsys):
    """The ``thermoex`` console script of pyproject.toml names a function
    that prints the help and exits 0 (read by regex: Python 3.10 has no
    tomllib)."""
    import re
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, func = re.search(r'^thermoex\s*=\s*"([\w.]+):(\w+)"', scripts,
                             re.M).groups()
    main = getattr(importlib.import_module(module), func)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: thermoex" in capsys.readouterr().out
