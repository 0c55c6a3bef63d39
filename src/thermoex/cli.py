"""Command-line front end: verification suites and solvers over JSON files.

Exit codes: 0 success / all checks passed, 1 verification failure.
``main`` alone maps the exception that ends a subcommand to a code: a
DomainError (non-PD tensors, violated constraints, overflow), another
ArithmeticError or a LinAlgError exits 3; any other ValueError, an OSError
or a RecursionError (unreadable or malformed input) exits 2.  A non-finite
number in a result is a DomainError, raised before anything is written.
Output is deterministic for fixed seed and inputs; every number is printed
with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .tensor4 import DomainError, KTensor, block_is_pd, check_block, kt_from_block

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3


def _fmt(obj):
    """Render JSON with 17-significant-digit numbers, deterministically."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_fmt(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise DomainError(f"non-finite result {v}")
        if v == 0.0:
            v = 0.0          # normalize negative zero
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj, path=None):
    text = _fmt(obj) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return data


def _read(path, reader):
    """``reader`` applied to the JSON object in ``path``.  The KeyError,
    IndexError or TypeError that a value of the wrong type or shape raises
    while it is read becomes a ValueError here, and nowhere else."""
    data = _load(path)
    try:
        return reader(data)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"{path}: malformed input: {exc!r}") from exc


# -- the input schemas: a tensor {"L": 4x4}, an operator pair {"X", "Y"} of
# [re, im] entries, a laminate tree, a two-phase pair and a material.

def _block(obj):
    """Checked, symmetrized 4x4 block tensor of a {"L": 4x4} object."""
    return check_block(np.asarray(obj["L"], dtype=float))


def _rows(B):
    """A 4x4 block as the nested list printed for "L" and "Lstar"."""
    return [[float(v) for v in row] for row in np.asarray(B, float)]


def _pairs(pairs):
    """2x2 complex matrix of four [re, im] entries, row by row."""
    return np.array([complex(re, im) for re, im in pairs], complex).reshape(2, 2)


def _tree(obj):
    """Laminate tree of a JSON node, built bottom-up without recursion (a
    sub-object reached along several paths is built once), and the tensors
    of its leaves.  A malformed node, a non-finite rotation and a node that
    contains itself raise ``ValueError``."""
    from .laminate import Leaf, Mix
    done, opened, tensors = {}, set(), []     # id -> node; mixes with pending children
    stack = [obj]
    while stack:
        ob = stack.pop()
        if id(ob) in done:
            continue
        if "leaf" in ob:
            leaf = ob["leaf"]
            if not isinstance(leaf, dict):
                raise ValueError("laminate leaf must be an object")
            rotation = float(leaf.get("rotation", 0.0))
            if not np.isfinite(rotation):
                raise ValueError("leaf rotation must be finite")
            tensors.append(_block(leaf["tensor"]))
            done[id(ob)] = Leaf(tensors[-1], rotation)
        elif "mix" not in ob:
            raise ValueError("laminate node must contain 'leaf' or 'mix'")
        elif id(ob["mix"]["c1"]) in done and id(ob["mix"]["c2"]) in done:
            mix = ob["mix"]
            done[id(ob)] = Mix(done[id(mix["c1"])], done[id(mix["c2"])],
                               float(mix["f"]), tuple(float(v) for v in mix["n"]))
        elif id(ob) in opened:
            raise ValueError("laminate node contains itself")
        else:                                 # children first, then ob again
            opened.add(id(ob))
            stack += [ob, ob["mix"]["c2"], ob["mix"]["c1"]]
    return done[id(obj)], tensors


def cmd_verify_algebras(args):
    import thermoex.algebra as algebra
    seed = algebra.DEFAULT_SEED if args.seed is None else args.seed
    by_id, trials = algebra.algebra_by_id, args.trials
    reports = [algebra.check_closure(spec, trials=trials, seed=seed)
               for spec in algebra.catalog()]
    reports += [algebra.CheckReport(i, f"subalgebra:{s}", 0, 0.0,
                                    algebra.is_subalgebra(by_id(s), by_id(i)))
                for i, subs in algebra.SUBALGEBRAS.items() for s in subs]
    reports += [algebra.check_ideal(by_id(s), by_id(i), trials=trials, seed=seed)
                for i, ideals in algebra.IDEALS.items() for s in ideals]
    reports += [algebra.check_chain(by_id(i), trials=trials, seed=seed)
                for i in (8, 9, 13, 17, 20, 21, 22)]
    for spec in algebra.catalog():
        key = algebra.find_inversion_key(spec, trials=trials, seed=seed)
        res = algebra.key_condition_residual(spec, key, trials=trials, seed=seed)
        reports.append(algebra.CheckReport(
            spec.ident, f"key:{algebra.key_name(key)}", trials, res, res <= 1e-10))
    ok = all(r.passed for r in reports)
    _emit({"pass": ok, "reports": [r.to_json() for r in reports]}, args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_er(args):
    from .exactrel import er_member
    L = _read(args.tensor, _block)
    if not block_is_pd(L):
        raise DomainError("tensor is not positive definite")
    _emit(er_member(args.er, L).to_json(), args.output)
    return EXIT_OK


def cmd_laminate(args):
    from .laminate import laminate_tree
    tree, leaves = _read(args.tree, _tree)
    if not block_is_pd(np.array(leaves)).all():
        raise DomainError("laminate leaf is not positive definite")
    _emit({"L": _rows(laminate_tree(tree))}, args.output)
    return EXIT_OK


def _pair(data, f=None, normal=None):
    """Phase pair of a two-phase object.  The fraction of phase 1 is ``f``,
    else the top-level or the microstructure's "f" (both must agree when
    both are given), else the model's: 0.5 for rank1, f_inner f_outer for
    rank2, which a given "f" must match.  ``f`` and ``normal`` apply to
    rank1 only."""
    from .laminate import IteratedRank2Model, RankOneModel
    from .twophase import IsoPhase, IsoPhasePair
    p1, p2 = (IsoPhase(data[k]["sigma"], float(data[k].get("r", 0.0)))
              for k in ("phase1", "phase2"))
    micro = {} if data.get("micro") is None else data["micro"]
    if not isinstance(micro, dict):
        raise ValueError("microstructure must be a JSON object")
    kind = micro.get("type", "rank1")
    if kind not in ("rank1", "rank2"):
        raise ValueError(f"unknown microstructure type {kind!r}")
    if kind == "rank2" and (f is not None or normal is not None):
        raise ValueError("--f and --normal apply to a rank1 microstructure only")
    if f is None:
        given = [float(v) for v in (data.get("f"), micro.get("f")) if v is not None]
        if len(given) == 2 and given[0] != given[1]:
            raise ValueError(f"top-level f {given[0]} and microstructure f "
                             f"{given[1]} differ")
        f = given[0] if given else None
    if kind == "rank1":
        n = micro.get("normal", [1.0, 0.0]) if normal is None else normal
        model = RankOneModel(0.5 if f is None else f, n)
    else:
        model = IteratedRank2Model(
            micro.get("f_inner", 0.5), micro.get("n_inner", [1.0, 0.0]),
            micro.get("f_outer", 0.5), micro.get("n_outer", [0.0, 1.0]))
    return IsoPhasePair(p1, p2, model.phase1_fraction if f is None else f, model)


def cmd_two_phase(args):
    from .twophase import effective
    pair = _read(args.pair, lambda data: _pair(data, args.f, args.normal))
    res = effective(pair)
    out = {"case": res.case.tag, "kind": res.kind,
           "scalars": {k: v for k, v in res.case.scalars.items()
                       if isinstance(v, (int, float))}}
    if res.Lstar is not None:
        out["Lstar"] = _rows(res.Lstar)
    if res.case.tag == "2b":
        out["constraint"] = {"A": res.metadata["A"], "B": res.metadata["B"],
                             "form": "det(sig1) det(Lp) = (t + A)^2 + B"}
    if res.case.tag == "1b":
        out["constraint"] = {"A": res.metadata["A"], "B": res.metadata["B"],
                             "Z0": res.metadata["Z0"].tolist(),
                             "form": "(L + A T) T (Z0 x Rp) T (L + A T) "
                                     "+ B (Z0 x Rp) = 0"}
    if res.case.tag == "1ci":
        out["sigma_star"] = res.metadata["sigma_star"].tolist()
        if "free_parameter" in res.metadata:
            out["free_parameter"] = res.metadata["free_parameter"].tolist()
            out["structure_residual"] = res.metadata["structure_residual"]
    _emit(out, args.output)
    return EXIT_OK


def _crystallite(data):
    """Symmetric operator of an {"X", "Y"} or a {"L"} object, checked once."""
    if "X" in data:
        return KTensor.symmetric(_pairs(data["X"]), _pairs(data["Y"]))
    return kt_from_block(_block(data))


def cmd_polycrystal(args):
    from .polycrystal import solve_isotropic
    out = solve_isotropic(_read(args.tensor, _crystallite)).to_json()
    if not args.all_roots:
        out["roots"] = [r for r in out["roots"] if r["feasible"]]
    _emit(out, args.output)
    return EXIT_OK


def _material(data):
    from .materials import Material
    return Material(*(np.asarray(data[k], float)
                      for k in ("sigma", "seebeck", "kappa")), float(data["T0"]))


def cmd_zt(args):
    from .materials import canon_from_physical, figure_of_merit
    L = canon_from_physical(_read(args.material, _material))
    _emit({"ZT": figure_of_merit(L), "L": _rows(L)}, args.output)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="thermoex",
        description="Planar thermoelectric exact relations: verification "
                    "suites, laminate homogenization and solvers.")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed of the verify-algebras audits "
                         "(default: algebra.DEFAULT_SEED)")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--json", dest="output", metavar="PATH", default=None,
                    help="write the JSON result to PATH instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-algebras",
                   help="closure/subalgebra/ideal/chain/key suites")

    er = sub.add_parser("er", help="exact-relation membership of a tensor")
    er.add_argument("--er", type=_er_id, required=True, metavar="ID",
                    help="first-class exact relation (exactrel.ER_IDS)")
    er.add_argument("tensor", help="JSON file with {'L': 4x4}")

    lamp = sub.add_parser("laminate", help="evaluate a laminate hierarchy")
    lamp.add_argument("tree", help="JSON laminate tree")

    two = sub.add_parser("two-phase", help="two-phase case analysis + tensor")
    two.add_argument("pair", help="JSON file with phase1/phase2/micro")
    two.add_argument("--f", type=float, default=None,
                     help="override the volume fraction of phase 1 (rank1 only)")
    two.add_argument("--normal", type=_parse_normal, default=None,
                     metavar="NX,NY", help="override the layer normal (rank1 only)")

    poly = sub.add_parser("polycrystal", help="isotropic polycrystal point")
    poly.add_argument("tensor", help="JSON crystallite: {'X':..,'Y':..} or {'L':..}")
    poly.add_argument("--all-roots", action="store_true",
                      help="report infeasible roots of the scalar equation too")

    zt = sub.add_parser("zt", help="figure of merit of a material")
    zt.add_argument("material", help="JSON with sigma/seebeck/kappa/T0")
    return ap


def _er_id(text):
    """``--er`` value checked against exactrel.ER_IDS when it is parsed, so that
    building the parser imports no exactrel."""
    from .exactrel import ER_IDS
    try:
        ident = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if ident not in ER_IDS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {ident} (choose from {', '.join(map(str, ER_IDS))})")
    return ident


def _parse_normal(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("normal must be NX,NY")
    return (float(parts[0]), float(parts[1]))


_DISPATCH = {
    "verify-algebras": cmd_verify_algebras,
    "er": cmd_er,
    "laminate": cmd_laminate,
    "two-phase": cmd_two_phase,
    "polycrystal": cmd_polycrystal,
    "zt": cmd_zt,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, ArithmeticError, np.linalg.LinAlgError) as exc:
        code, error = EXIT_DOMAIN, exc
    except (ValueError, OSError, RecursionError) as exc:
        code, error = EXIT_INPUT, exc
    print(f"thermoex {args.command}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
