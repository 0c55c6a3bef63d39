import io
import json
import sys
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from thermoex import cli
from thermoex.laminate import Leaf, Mix, laminate_tree

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


GOLDEN_CASES = [
    ("er_identity.json", ["er", "--er", "22", str(DATA / "tensor_identity.json")]),
    ("er_sample8.json", ["er", "--er", "8", str(DATA / "tensor_er8_sample.json")]),
    ("er_perturbed8.json", ["er", "--er", "8",
                            str(DATA / "tensor_er8_perturbed.json")]),
    ("laminate_leaf.json", ["laminate", str(DATA / "tree_leaf.json")]),
    ("laminate_rank1.json", ["laminate", str(DATA / "tree_rank1.json")]),
    ("laminate_er21.json", ["laminate", str(DATA / "tree_er21.json")]),
    ("two_phase_2c.json", ["two-phase", str(DATA / "pair_2c.json")]),
    ("two_phase_2a.json", ["two-phase", str(DATA / "pair_2a.json")]),
    ("two_phase_1aii.json", ["two-phase", str(DATA / "pair_1aii.json")]),
    ("two_phase_1b.json", ["two-phase", str(DATA / "pair_1b.json")]),
    ("two_phase_1ci.json", ["two-phase", str(DATA / "pair_1ci.json")]),
    ("poly_iso.json", ["polycrystal", str(DATA / "crystallite_iso.json")]),
    ("poly_s2.json", ["polycrystal", "--all-roots",
                      str(DATA / "crystallite_s2.json")]),
    ("poly_conduction.json", ["polycrystal",
                              str(DATA / "crystallite_conduction.json")]),
    ("zt_iso.json", ["zt", str(DATA / "material_iso.json")]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES,
                         ids=[g for g, _ in GOLDEN_CASES])
def test_golden(golden, argv):
    code, out = run(argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_determinism():
    argv = ["two-phase", str(DATA / "pair_1aii.json")]
    _, out1 = run(argv)
    _, out2 = run(argv)
    assert out1 == out2


def test_er_membership_semantics():
    code, out = run(["er", "--er", "22", str(DATA / "tensor_identity.json")])
    obj = json.loads(out)
    assert obj["member"] is True and obj["er_id"] == 22
    code, out = run(["er", "--er", "8", str(DATA / "tensor_er8_perturbed.json")])
    obj = json.loads(out)
    assert obj["member"] is False and obj["residual"] > 0


def _with_value(tmp_path, name, path, value):
    """Copy of the data file ``name`` with the entry at ``path`` replaced."""
    obj = json.loads((DATA / name).read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / name
    out.write_text(json.dumps(obj))
    return str(out)


def test_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["er", "--er", "22", missing]) == cli.EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["er", "--er", "22", str(bad)]) == cli.EXIT_INPUT
    assert cli.main(["er", "--er", "22",
                     str(DATA / "tensor_not_pd.json")]) == cli.EXIT_DOMAIN
    assert cli.main(["laminate", str(DATA / "tree_bad.json")]) == cli.EXIT_INPUT
    assert cli.main(["two-phase", str(DATA / "pair_bad.json")]) == cli.EXIT_DOMAIN
    assert cli.main(["zt", str(DATA / "material_bad.json")]) == cli.EXIT_DOMAIN
    # non-finite JSON numbers: NaN fails the strict positivity tests of the
    # material and phase data; NaN or Infinity in a tensor is an input error
    nan, inf = float("nan"), float("inf")
    cases = [
        (["zt"], "material_iso.json", ("sigma", 0, 0), nan, cli.EXIT_DOMAIN),
        (["two-phase"], "pair_2c.json", ("phase1", "sigma", 0, 0), nan,
         cli.EXIT_DOMAIN),
        (["laminate"], "tree_leaf.json", ("leaf", "tensor", "L", 0, 0), nan,
         cli.EXIT_INPUT),
        (["er", "--er", "22"], "tensor_identity.json", ("L", 1, 1), inf,
         cli.EXIT_INPUT),
        # entries without a positivity requirement: non-finite is an input error
        (["zt"], "material_iso.json", ("seebeck", 0, 0), nan, cli.EXIT_INPUT),
        (["zt"], "material_iso.json", ("T0",), nan, cli.EXIT_INPUT),
        (["laminate"], "tree_leaf.json", ("leaf", "rotation"), nan,
         cli.EXIT_INPUT),
        (["laminate"], "tree_rank1.json", ("mix", "n", 0), nan, cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("micro", "normal", 0), nan,
         cli.EXIT_INPUT),
        # finite but outside the domain of a laminate leaf or a microstructure
        (["laminate"], "tree_leaf.json", ("leaf", "tensor", "L", 0, 0), -2.0,
         cli.EXIT_DOMAIN),
        (["two-phase"], "pair_2a.json", ("f",), 1.5, cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("micro",),
         {"type": "rank2", "f_inner": 2.0}, cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("micro",),
         {"type": "rank2", "f_outer": -0.1}, cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("f",), "abc", cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("micro", "normal"), [0.0, 0.0],
         cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("micro",), 5, cli.EXIT_INPUT),
        # Inf in a phase and an asymmetric sigma are input errors, as is a
        # zero layer normal in a laminate and in two-phase
        (["two-phase"], "pair_2a.json", ("phase1", "sigma", 0, 0), inf,
         cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("phase1", "r"), inf, cli.EXIT_INPUT),
        (["two-phase"], "pair_2a.json", ("phase1", "sigma", 0, 1), 0.5,
         cli.EXIT_INPUT),
        (["laminate"], "tree_rank1.json", ("mix", "n"), [0.0, 0.0],
         cli.EXIT_INPUT),
        # a microstructure "f" that differs from the top-level one
        (["two-phase"], "pair_2a.json", ("micro", "f"), 0.9, cli.EXIT_INPUT),
        # NaN or Inf in a crystallite's X or Y, as in its {"L"} form
        (["polycrystal"], "crystallite_s2.json", ("X", 0, 0), nan,
         cli.EXIT_INPUT),
        (["polycrystal"], "crystallite_s2.json", ("X", 1, 1), inf,
         cli.EXIT_INPUT),
        (["polycrystal"], "crystallite_s2.json", ("Y", 3, 0), -inf,
         cli.EXIT_INPUT),
        (["polycrystal"], "crystallite_s2.json", ("Y", 1, 0), nan,
         cli.EXIT_INPUT),
    ]
    for argv, name, path, value, code in cases:
        capsys.readouterr()
        assert cli.main(argv + [_with_value(tmp_path, name, path, value)]) == code
        assert capsys.readouterr().out == ""
    capsys.readouterr()


SIGMA2 = np.array(json.loads((DATA / "pair_2a.json").read_text())["phase2"]["sigma"])
S2_X = np.array(json.loads((DATA / "crystallite_s2.json").read_text())["X"])
EXTREME = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("argv,name,path,value,code", [
    (["two-phase"], "pair_1b.json", ("phase1",), 1.0, cli.EXIT_INPUT),
    (["two-phase"], "pair_2a.json", ("micro", "normal"), 1.0, cli.EXIT_INPUT),
    (["two-phase"], "pair_2a.json", ("micro", "normal", 0), 1e308,
     cli.EXIT_INPUT),
    (["polycrystal"], "crystallite_iso.json", ("X",), 1.0, cli.EXIT_INPUT),
    (["zt"], "material_iso.json", ("T0",), None, cli.EXIT_INPUT),
    (["zt"], "material_iso.json", ("T0",), 1e308, cli.EXIT_DOMAIN),
    (["laminate"], "tree_leaf.json", ("leaf",), [1.0], cli.EXIT_INPUT),
    (["er", "--er", "22"], "tensor_identity.json", ("L", 0, 2), {"a": 1},
     cli.EXIT_INPUT),
    # extreme scales: a formula at its pole, a result that overflows to NaN
    # and a canonical tensor that overflows are domain errors; the
    # polycrystal root scales exactly and stays finite
    pytest.param(["two-phase"], "pair_2a.json", ("phase2", "sigma"),
                 (SIGMA2 * 1e100).tolist(), cli.EXIT_DOMAIN, marks=EXTREME),
    pytest.param(["two-phase"], "pair_2a.json", ("phase2", "sigma"),
                 (SIGMA2 * 1e200).tolist(), cli.EXIT_DOMAIN, marks=EXTREME),
    pytest.param(["er", "--er", "22"], "tensor_identity.json", ("L",),
                 (np.eye(4) * 1e160).tolist(), cli.EXIT_DOMAIN, marks=EXTREME),
    pytest.param(["zt"], "material_iso.json", ("seebeck",),
                 [[1e200, 0.0], [0.0, 1e200]], cli.EXIT_DOMAIN, marks=EXTREME),
    pytest.param(["polycrystal"], "crystallite_s2.json", ("X",),
                 (S2_X * 1e160).tolist(), cli.EXIT_OK, marks=EXTREME),
])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_wrong_typed_values_exit_2_or_3(tmp_path, capsys, argv, name, path,
                                        value, code):
    """A JSON value of the wrong type or shape is an input error, and one the
    arithmetic cannot carry (T0 = 1e308 overflows T0**2) a domain error.
    Stdout is empty unless the exit code is 0, and then strict JSON, which
    has no nan or inf."""
    assert cli.main(argv + [_with_value(tmp_path, name, path, value)]) == code
    out = capsys.readouterr().out
    if code == cli.EXIT_OK:
        json.loads(out)
    else:
        assert out == ""


FUZZ_ARGV = {"tensor": ["er", "--er", "8"], "tree": ["laminate"],
             "pair": ["two-phase"], "crystallite": ["polycrystal"],
             "material": ["zt"]}
FUZZ_VALUES = ["abc", None, float("nan"), float("inf"), -1e308, 1e308, -1.0,
               0.0, 5, True, [], [1.0, 2.0], [[1.0]], [[[0.5]]], {}, {"a": 1}]


def _json_paths(obj, prefix=()):
    if prefix:
        yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, val in items:
        yield from _json_paths(val, prefix + (key,))


def test_fuzzed_inputs_exit_0_2_or_3(tmp_path, capsys):
    """Seeded mutations of tests/data (wrong types, NaN, null, deleted keys,
    nested lists): no traceback, and stdout stays empty unless exit 0."""
    rng = np.random.default_rng(2024)
    files = sorted(DATA.glob("*.json"))
    target = tmp_path / "fuzz.json"
    codes = []
    for _ in range(400):
        src = files[rng.integers(len(files))]
        obj = json.loads(src.read_text())
        paths = list(_json_paths(obj))
        path = paths[rng.integers(len(paths))]
        node = obj
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, dict) and rng.random() < 0.2:
            del node[path[-1]]
        else:
            node[path[-1]] = FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
        target.write_text(json.dumps(obj))
        argv = FUZZ_ARGV[src.name.split("_")[0]] + [str(target)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        out = capsys.readouterr().out
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_DOMAIN), (src.name, path)
        assert code == cli.EXIT_OK or out == "", (src.name, path, code)
        codes.append(code)
    assert set(codes) == {cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_DOMAIN}


def test_laminate_non_pd_second_leaf_exits_3(tmp_path, capsys):
    """All leaves are checked in one stacked PD test; a bad second leaf
    behind a good first one is still a domain error with empty stdout."""
    for value in (-5.0, 0.0):
        path = _with_value(tmp_path, "tree_rank1.json",
                           ("mix", "c2", "leaf", "tensor", "L", 0, 0), value)
        capsys.readouterr()
        assert cli.main(["laminate", path]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["er", "--er", "22"], ["laminate"],
                                  ["two-phase"], ["polycrystal"], ["zt"]])
def test_non_object_json_exits_2(tmp_path, capsys, argv):
    for text in ("[1, 2]", "3.5", '"L"', "null"):
        path = tmp_path / "top.json"
        path.write_text(text)
        capsys.readouterr()
        assert cli.main(argv + [str(path)]) == cli.EXIT_INPUT, (argv, text)
        assert capsys.readouterr().out == ""


def test_deeply_nested_file_exits_2(tmp_path, capsys):
    """A file nested beyond the JSON parser's recursion limit is an input error."""
    depth = sys.getrecursionlimit() + 100
    leaf = {"leaf": {"tensor": {"L": np.eye(4).tolist()}}}
    text = '{"mix": {"f": 0.5, "n": [1, 0], "c2": %s, "c1": ' % json.dumps(leaf)
    path = tmp_path / "deep.json"
    path.write_text(text * depth + json.dumps(leaf) + "}}" * depth)
    assert cli.main(["laminate", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_tree_deeper_than_the_recursion_limit_laminates(tmp_path, monkeypatch):
    """The tree reader does not recurse: a parsed tree nested beyond the
    recursion limit is laminated like any other."""
    rng = np.random.default_rng(5)
    M1, M2 = rng.standard_normal((2, 4, 4))
    leaf1 = {"leaf": {"tensor": {"L": (M1 @ M1.T + np.eye(4)).tolist()}}}
    leaf2 = {"leaf": {"tensor": {"L": (M2 @ M2.T + np.eye(4)).tolist()}}}
    tree = leaf1
    for _ in range(sys.getrecursionlimit() + 100):
        tree = {"mix": {"f": 0.5, "n": [1, 0], "c1": tree, "c2": leaf2}}
    monkeypatch.setattr(cli, "_load", lambda path: tree)
    code, out = run(["laminate", str(tmp_path / "deep.json")])
    assert code == cli.EXIT_OK
    ref = laminate_tree(cli._tree(tree)[0])
    assert np.array_equal(np.array(json.loads(out)["L"]), ref)


def test_tree_json_shared_and_malformed_nodes():
    """A sub-object reached along two paths is read once, into one node
    object; a node that is neither leaf nor mix and a node that contains
    itself raise ValueError."""
    L = np.diag([2.0, 3.0, 1.0, 1.5])
    leaf = {"leaf": {"tensor": {"L": L.tolist()}, "rotation": 0.5}}
    shared = {"mix": {"f": 0.3, "n": [1.0, 0.0], "c1": leaf,
                      "c2": {"leaf": {"tensor": {"L": L.tolist()}}}}}
    tree, leaves = cli._tree({"mix": {"f": 0.6, "n": [0.0, 1.0],
                                      "c1": shared, "c2": shared}})
    assert tree.child1 is tree.child2 and len(leaves) == 2
    ref = Mix(Leaf(L, 0.5), Leaf(L), 0.3, (1.0, 0.0))
    assert np.array_equal(laminate_tree(tree),
                          laminate_tree(Mix(ref, ref, 0.6, (0.0, 1.0))))
    with pytest.raises(ValueError, match="'leaf' or 'mix'"):
        cli._tree({"oops": {}})
    loop = {"mix": {"f": 0.5, "n": [1.0, 0.0], "c2": leaf}}
    loop["mix"]["c1"] = {"mix": dict(loop["mix"], c1=loop)}
    with pytest.raises(ValueError, match="contains itself"):
        cli._tree(loop)


def test_two_phase_overrides(tmp_path):
    code, out = run(["two-phase", "--f", "0.6", "--normal", "0,1",
                     str(DATA / "pair_2a.json")])
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "2a" and "Lstar" in obj
    # --f and --normal set the rank1 laminate; a rank2 microstructure has no
    # single fraction or normal for them, so they are refused, not ignored
    rank2 = _with_value(tmp_path, "pair_2c.json", ("micro",), {"type": "rank2"})
    for flags in (["--f", "0.9"], ["--normal", "0,1"]):
        assert run(["two-phase", *flags, rank2]) == (cli.EXIT_INPUT, "")
    # a rank2 fraction is f_inner f_outer (0.25 here): the file's "f": 0.3
    # conflicts with it, and without "f", or with "f": 0.25, it is used
    assert run(["two-phase", rank2]) == (cli.EXIT_INPUT, "")
    obj = json.loads(Path(rank2).read_text())
    del obj["f"]
    Path(rank2).write_text(json.dumps(obj))
    code, out = run(["two-phase", rank2])
    assert code == cli.EXIT_OK and "Lstar" in json.loads(out)
    obj["f"] = 0.25
    Path(rank2).write_text(json.dumps(obj))
    assert run(["two-phase", rank2]) == (code, out)
    # without a top-level "f" the microstructure's own is used; --f
    # overrides both, also where they differ
    obj = json.loads((DATA / "pair_2a.json").read_text())
    del obj["f"]
    outs = []
    for f in ("0.9", "0.1"):
        obj["micro"]["f"] = float(f)
        path = tmp_path / f"micro_f_{f}.json"
        path.write_text(json.dumps(obj))
        outs.append(run(["two-phase", str(path)]))
        assert outs[-1] == run(["two-phase", "--f", f, str(DATA / "pair_2a.json")])
    assert outs[0] != outs[1]
    differ = _with_value(tmp_path, "pair_2a.json", ("micro", "f"), 0.9)
    assert run(["two-phase", "--f", "0.1", differ]) == outs[1]


def test_two_phase_case_fields():
    _, out = run(["two-phase", str(DATA / "pair_1b.json")])
    obj = json.loads(out)
    assert obj["case"] == "1b" and obj["kind"] == "implicit"
    assert set(obj["constraint"]) == {"A", "B", "Z0", "form"}
    assert "Lstar" not in obj


def test_two_phase_case_is_the_library_case(tmp_path):
    """The CLI resolves the case tree with the library's band: a proportional
    pair whose boundary gap is 4e-10 of the pair's scale is 2b, not 2c."""
    from thermoex import twophase as tp
    s1 = np.array([[2.0, 0.3], [0.3, 1.5]])
    scale = 1.0 + 2.5 * 2.0              # 1 + the largest sigma entry
    r2 = 1.5 * np.sqrt(np.linalg.det(s1)) + 4e-10 * scale
    pair = tp.IsoPhasePair(tp.IsoPhase(s1, 0.0), tp.IsoPhase(2.5 * s1, r2), 0.5)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"phase1": {"sigma": s1.tolist()},
                                "phase2": {"sigma": (2.5 * s1).tolist(), "r": r2},
                                "f": 0.5}))
    code, out = run(["two-phase", str(path)])
    assert code == cli.EXIT_OK
    assert json.loads(out)["case"] == tp.classify(pair).tag == "2b"


def test_polycrystal_near_the_float_limit_warns_nothing(tmp_path, capsys):
    """A positive definite crystallite near the float limit validates without
    overflow or a warning, and the run ends in a result or a clean refusal.
    Today it is the refusal, exit 3 with nothing printed: the power-of-two
    scale of solve_isotropic overflows to 2^1024 there, a limit of the
    solver, not of the input, so a solver that handles the scale may print."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"X": [[1.5e308, 0], [0, 0], [0, 0], [1e308, 0]],
                                "Y": [[1e307, 0], [0, 0], [0, 0], [0, 0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["polycrystal", str(path)])
    out = capsys.readouterr().out
    assert (code, out) == (cli.EXIT_DOMAIN, "") \
        or code == cli.EXIT_OK and json.loads(out)["roots"]


def test_zt_value():
    _, out = run(["zt", str(DATA / "material_iso.json")])
    assert abs(json.loads(out)["ZT"] - 1.0 / 3.0) < 1e-12


def test_poly_flags():
    _, out_all = run(["polycrystal", "--all-roots",
                      str(DATA / "crystallite_s2.json")])
    _, out_feas = run(["polycrystal", str(DATA / "crystallite_s2.json")])
    assert len(json.loads(out_all)["roots"]) == 2
    assert len(json.loads(out_feas)["roots"]) == 1


def test_json_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out = run(["--json", str(target), "er", "--er", "22",
                     str(DATA / "tensor_identity.json")])
    assert code == 0 and out == ""
    assert target.read_text() == (GOLDEN / "er_identity.json").read_text()


def test_verify_algebras_fast(tmp_path):
    target = tmp_path / "report.json"
    code, _ = run(["--trials", "5", "--json", str(target), "verify-algebras"])
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["pass"] is True
    checks = {r["check"] for r in obj["reports"]}
    assert "closure" in checks and any(c.startswith("key:") for c in checks)
    ideals = [r for r in obj["reports"] if r["check"].startswith("ideal:")]
    assert ideals and all(r["trials"] == 5 for r in ideals)
    # the ideal reports carry the worst audited residual, not a placeholder
    assert all(0.0 <= r["max_residual"] <= 1e-10 for r in ideals)
    assert any(r["max_residual"] > 0.0 for r in ideals)


def test_verify_algebras_rows_are_check_reports():
    """Every row, audits and table lookups alike, is written by
    CheckReport.to_json."""
    from thermoex.algebra import CheckReport
    code, out = run(["--trials", "2", "verify-algebras"])
    keys = set(CheckReport(1, "closure", 2, 0.0, True).to_json())
    rows = json.loads(out)["reports"]
    assert code == 0 and {"subalgebra", "key"} <= {r["check"].split(":")[0]
                                                  for r in rows}
    assert all(set(r) == keys for r in rows)


def test_verify_algebras_corrupted_catalog(monkeypatch, tmp_path):
    """Negative control: a corrupted catalog entry must fail the suite
    with the offending check named in the report."""
    import numpy as np
    from thermoex import algebra as alg
    bad = alg.AlgebraSpec(5, "(CI,Rpsi(i))",
                          (np.array([[0.0, 1.0], [1.0, 0.3]], complex),),
                          (np.eye(2, dtype=complex),))
    cat = list(alg.catalog())
    cat[4] = bad
    monkeypatch.setattr(alg, "catalog", lambda: tuple(cat))
    target = tmp_path / "report.json"
    code = cli.main(["--trials", "5", "--json", str(target), "verify-algebras"])
    assert code == cli.EXIT_VERIFY
    obj = json.loads(target.read_text())
    assert obj["pass"] is False
    failing = [r for r in obj["reports"] if not r["pass"]]
    assert any(r["algebra_id"] == 5 and r["check"] == "closure" for r in failing)
