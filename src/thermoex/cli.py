"""Command-line front end: verification suites and solvers over JSON files.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 input or parse error, 3 domain error (non-PD tensors, constraint
violations).  Output is deterministic for fixed seed and inputs; every
number is printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .tensor4 import (KTensor, block_from_json, block_to_json, kt_from_block,
                      block_is_pd, kt_from_json)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

# what a JSON value of the wrong type or shape raises while it is parsed
_MALFORMED = (KeyError, IndexError, TypeError, ValueError)


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
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise SystemExit_(EXIT_INPUT, f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit_(EXIT_INPUT, f"{path}: top-level JSON value must be an object")
    return data


class SystemExit_(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def cmd_verify_algebras(args):
    import thermoex.algebra as algebra
    seed = algebra.DEFAULT_SEED if args.seed is None else args.seed
    reports = []
    ok = True
    for spec in algebra.catalog():
        rep = algebra.check_closure(spec, trials=args.trials, seed=seed,
                                    tol=args.tol * 10)
        reports.append(rep.to_json())
        ok &= rep.passed
    for ident, subs in algebra.SUBALGEBRAS.items():
        spec = algebra.algebra_by_id(ident)
        for s in subs:
            good = algebra.is_subalgebra(algebra.algebra_by_id(s), spec)
            reports.append({"algebra_id": ident, "check": f"subalgebra:{s}",
                            "trials": 0, "max_residual": 0.0, "pass": good})
            ok &= good
    for ident, ideals in algebra.IDEALS.items():
        spec = algebra.algebra_by_id(ident)
        for s in ideals:
            rep = algebra.check_ideal(algebra.algebra_by_id(s), spec,
                                      trials=args.trials, seed=seed)
            reports.append(rep.to_json())
            ok &= rep.passed
    for ident in (8, 9, 13, 17, 20, 21, 22):
        rep = algebra.check_chain(algebra.algebra_by_id(ident),
                                  trials=args.trials, seed=seed)
        reports.append(rep.to_json())
        ok &= rep.passed
    for spec in algebra.catalog():
        key = algebra.find_inversion_key(spec, trials=args.trials,
                                         seed=seed)
        res = algebra.key_condition_residual(spec, key, trials=args.trials,
                                             seed=seed)
        reports.append({"algebra_id": spec.ident,
                        "check": f"key:{algebra.key_name(key)}",
                        "trials": args.trials, "max_residual": res,
                        "pass": res <= 1e-10})
        ok &= res <= 1e-10
    _emit({"pass": ok, "reports": reports}, args.output)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_er(args):
    from .exactrel import er_member
    data = _load(args.tensor)
    try:
        L = block_from_json(data)
    except _MALFORMED as exc:
        raise SystemExit_(EXIT_INPUT, f"bad tensor file: {exc}")
    if not block_is_pd(L):
        raise SystemExit_(EXIT_DOMAIN, "tensor is not positive definite")
    res = er_member(args.er, L, tol=args.tol)
    _emit(res.to_json(), args.output)
    return EXIT_OK


def cmd_laminate(args):
    from .laminate import laminate_tree, tree_from_json
    data = _load(args.tree)
    try:
        tree = tree_from_json(data)
    except (*_MALFORMED, RecursionError) as exc:
        raise SystemExit_(EXIT_INPUT, f"bad laminate file: {exc}")
    if not block_is_pd(np.array([leaf.tensor for leaf in _leaves(tree)])).all():
        raise SystemExit_(EXIT_DOMAIN, "laminate leaf is not positive definite")
    try:
        L = laminate_tree(tree)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SystemExit_(EXIT_DOMAIN, f"lamination failed: {exc}")
    _emit(block_to_json(L), args.output)
    return EXIT_OK


def _leaves(node):
    from .laminate import Mix
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Mix):
            stack += (node.child1, node.child2)
        else:
            yield node


def _micro_from_json(obj, f=None, normal=None):
    from .laminate import IteratedRank2Model, RankOneModel
    if obj is None:
        obj = {"type": "rank1", "f": 0.5, "normal": [1.0, 0.0]}
    if not isinstance(obj, dict):
        raise SystemExit_(EXIT_INPUT, "microstructure must be a JSON object")
    kind = obj.get("type", "rank1")
    if f is not None:
        obj = dict(obj, f=f)
    if normal is not None:
        obj = dict(obj, normal=list(normal))
    used = ("f", "normal", "f_inner", "n_inner", "f_outer", "n_outer")
    if not all(np.isfinite(np.asarray(obj[k], float)).all() for k in used if k in obj):
        raise SystemExit_(EXIT_INPUT, "microstructure entries must be finite")
    if kind == "rank1":
        return RankOneModel(obj.get("f", 0.5),
                            obj.get("normal", [1.0, 0.0]))
    if kind == "rank2":
        return IteratedRank2Model(
            obj.get("f_inner", 0.5), obj.get("n_inner", [1.0, 0.0]),
            obj.get("f_outer", 0.5), obj.get("n_outer", [0.0, 1.0]))
    raise SystemExit_(EXIT_INPUT, f"unknown microstructure type {kind!r}")


def cmd_two_phase(args):
    from .twophase import IsoPhase, IsoPhasePair, effective
    data = _load(args.pair)
    try:
        p1, p2 = (IsoPhase(np.asarray(data[k]["sigma"], float),
                           float(data[k].get("r", 0.0)))
                  for k in ("phase1", "phase2"))
    except _MALFORMED as exc:
        raise SystemExit_(EXIT_DOMAIN if "violates" in str(exc) else EXIT_INPUT,
                          f"bad phase data: {exc}")
    try:
        f = args.f if args.f is not None else float(data.get("f", 0.5))
        micro = _micro_from_json(data.get("micro"), f=f, normal=args.normal)
        pair = IsoPhasePair(p1, p2, f, micro)
    except _MALFORMED as exc:
        raise SystemExit_(EXIT_INPUT,
                          f"bad volume fraction or microstructure: {exc}")
    res = effective(pair, tol=args.tol)
    out = {"case": res.case.tag, "kind": res.kind,
           "scalars": {k: v for k, v in res.case.scalars.items()
                       if isinstance(v, (int, float))}}
    if res.Lstar is not None:
        out["Lstar"] = block_to_json(res.Lstar)["L"]
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


def cmd_polycrystal(args):
    from .polycrystal import solve_isotropic
    data = _load(args.tensor)
    try:
        if "X" in data:
            k0 = kt_from_json(data)
        else:
            k0 = kt_from_block(block_from_json(data))
        k0 = KTensor.symmetric(k0.X, k0.Y)
    except _MALFORMED as exc:
        raise SystemExit_(EXIT_INPUT, f"bad crystallite file: {exc}")
    try:
        res = solve_isotropic(k0)
    except (ValueError, ArithmeticError) as exc:
        raise SystemExit_(EXIT_DOMAIN, str(exc))
    out = res.to_json()
    if not args.all_roots:
        out["roots"] = [r for r in out["roots"] if r["feasible"]]
    _emit(out, args.output)
    return EXIT_OK


def cmd_zt(args):
    from .materials import canon_from_physical, figure_of_merit, material_from_json
    data = _load(args.material)
    try:
        m = material_from_json(data)
    except _MALFORMED as exc:
        raise SystemExit_(EXIT_DOMAIN if "positive" in str(exc) else EXIT_INPUT,
                          f"bad material file: {exc}")
    try:
        L = canon_from_physical(m)
        zt = figure_of_merit(L)
    except (ValueError, ArithmeticError) as exc:
        raise SystemExit_(EXIT_DOMAIN, f"figure of merit failed: {exc}")
    _emit({"ZT": zt, "L": block_to_json(L)["L"]}, args.output)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="thermoex",
        description="Planar thermoelectric exact relations: verification "
                    "suites, laminate homogenization and solvers.")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed of the verify-algebras audits "
                         "(default: algebra.DEFAULT_SEED)")
    ap.add_argument("--tol", type=float, default=1e-9)
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
                     help="override the volume fraction of phase 1")
    two.add_argument("--normal", type=_parse_normal, default=None,
                     metavar="NX,NY", help="override the layer normal")

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
    except SystemExit_ as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
