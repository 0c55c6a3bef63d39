"""The four benchmark workloads: inputs, the op each input drives, and its check.

Every workload builds one *cycle* of op inputs from the seed at set-up; the
timed loop replays whole cycles.  An op calls only public thermoex entry
points; its check runs right after it, outside its timed span, and compares
the op's output with the references in ``oracles``.  A check returns one of

* ``"ok"``;
* ``"incomplete"``: the returned result is right but part of the promised
  output is missing (the polycrystal root list lacks a root);
* ``"wrong"``: the returned result disagrees with its reference.

An op that raises counts as ``"error"``.  The op mix of each cycle is fixed
so that the median and the 90th percentile of op latency each fall inside
one op class, away from the boundary between two classes (see README.md).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import thermoex as T
from thermoex import algebra, twophase

import oracles as O

ROOT = Path(__file__).resolve().parent.parent
I2 = np.eye(2)


class Op:
    """One op input: ``kind`` is its latency class, ``args`` its data."""

    __slots__ = ("kind", "args")

    def __init__(self, kind, *args):
        self.kind = kind
        self.args = args


def _feed(h, obj):
    """Canonical byte stream of an op input for the input digest."""
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for x in obj:
            _feed(h, x)
        h.update(b")")
    elif isinstance(obj, Op):
        _feed(h, (obj.kind,) + obj.args)
    else:
        h.update(repr(obj).encode() + b";")


def input_digest(ops):
    h = hashlib.sha256()
    _feed(h, list(ops))
    return h.hexdigest()


def _unit(rng):
    a = rng.uniform(0.0, np.pi)
    return (float(np.cos(a)), float(np.sin(a)))


def _blocks(rng, heavy, light, per_block):
    """Interleave: every block holds ``per_block - 1`` light ops and one heavy
    op at a seeded position, so any run prefix keeps the cycle's class mix."""
    out = []
    light = iter(light)
    for h in heavy:
        block = [next(light) for _ in range(per_block - 1)]
        block.insert(int(rng.integers(per_block)), h)
        out.extend(block)
    return out


def _spd(rng, floor=0.3):
    A = rng.standard_normal((2, 2))
    return A @ A.T + floor * I2


def _rand_herm(rng):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return (A + A.conj().T) / 2.0


def _rand_sym(rng):
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return (A + A.T) / 2.0


def _rand_pd_block(rng):
    while True:
        B = O.block_from_xy(0.5 * _rand_herm(rng) + 2.0 * I2, 0.5 * _rand_sym(rng))
        if O.is_pd(B):
            return B


class Workload:
    name = ""
    subprocess_ops = False

    def __init__(self, seed):
        self.ops = self.make_ops(np.random.default_rng([seed, self.salt]))
        self._ref = {}

    @staticmethod
    def trials(op):
        """Randomized trials the op runs (the audit's per-trial denominator)."""
        return 0

    def reference(self, i, build):
        """Per-op reference, computed once per cycle position."""
        if i not in self._ref:
            self._ref[i] = build()
        return self._ref[i]


# -- laminate ---------------------------------------------------------------

def _tree_spec(rng, m, n_phases):
    if m == 0:
        return ("leaf", int(rng.integers(n_phases)), float(rng.uniform(0.0, np.pi)))
    k = int(rng.integers(m))
    return ("mix", float(rng.uniform(0.05, 0.95)), _unit(rng),
            _tree_spec(rng, k, n_phases), _tree_spec(rng, m - 1 - k, n_phases))


def _build_tree(spec, phases):
    if spec[0] == "leaf":
        return T.Leaf(phases[spec[1]], spec[2])
    _, f, n, c1, c2 = spec
    return T.Mix(_build_tree(c1, phases), _build_tree(c2, phases), f, n)


class Laminate(Workload):
    """Sample ER members, laminate them in a random hierarchy, test closure.

    Cycle: 96 small trees (1-16 mixes, each size 6 times) and 32 large ones
    (128-255 mixes, evenly spread), one large tree per block of four.
    """

    name = "laminate"
    salt = 1
    n_phases = 3

    def make_ops(self, rng):
        small = [int(m) for m in np.repeat(np.arange(1, 17), 6)]
        large = [int(m) for m in np.round(np.linspace(128, 255, 32))]
        rng.shuffle(small)
        rng.shuffle(large)

        def op(kind, k, m):
            ident = T.ER_IDS[k % len(T.ER_IDS)]      # every relation equally often
            seeds = tuple(int(s) for s in rng.integers(1 << 31, size=self.n_phases))
            return Op(kind, ident, seeds, _tree_spec(rng, m, self.n_phases), m)

        return _blocks(rng, [op("large", k, m) for k, m in enumerate(large)],
                       [op("small", k, m) for k, m in enumerate(small)], 4)

    def run(self, op):
        ident, seeds, spec, _ = op.args
        phases = [T.er_sample(ident, seed=s) for s in seeds]
        L = T.laminate_tree(_build_tree(spec, phases))
        return phases, L, T.er_member(ident, L)

    def check(self, i, op, out):
        ident, _, spec, _ = op.args
        phases, L, membership = out
        basis = self.reference(("basis", ident), lambda: O.subspace_basis(
            algebra.algebra_by_id(ident).v_basis, algebra.algebra_by_id(ident).w_basis))
        for P in phases:
            if not O.is_pd(P) or O.member_residual(ident, P, basis) > 1e-9:
                return "wrong", {}
        ref = self.reference(i, lambda: O.laminate_spec(spec, phases))
        if O.rel_diff(L, ref) > 1e-9 or not O.is_pd(L):
            return "wrong", {}
        if not membership.member or O.member_residual(ident, L, basis) > 1e-9:
            return "wrong", {}
        return "ok", {}


# -- solvers ------------------------------------------------------------------

CASE_TAGS = ("2c", "2a", "2b", "1ai", "1aii", "1b", "1ci", "1cii")


def _phase_pair(rng, tag):
    """Phases (s1, r1, s2, r2) landing in case ``tag`` by construction."""
    while True:
        s1 = _spd(rng)
        d1 = np.linalg.det(s1)
        r1 = float(rng.uniform(-0.5, 0.5) * np.sqrt(d1))
        if tag in ("2c", "2a", "2b"):
            theta = rng.uniform(1.5, 4.0)
            s2 = theta * s1
            step = (theta - 1.0) * np.sqrt(d1)
            if tag == "2c":
                r2 = r1 + step
            elif tag == "2a":
                r2 = r1 + rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.8) * step
            else:
                r2 = r1 + step + rng.uniform(0.2, 0.8) * (np.sqrt(d1) - r1)
        else:
            s2 = s1 + _spd(rng, 0.2) if tag == "1aii" else _spd(rng)
            ratio = np.linalg.solve(s1, s2)
            if np.linalg.norm(s2 - 0.5 * np.trace(ratio) * s1) < 0.1 * np.abs(s2).max():
                continue                   # nearly proportional: not this branch
            if tag == "1cii":
                s2 = s2 * np.sqrt(d1 / np.linalg.det(s2))
                r2 = r1
            else:
                gap = abs(np.sqrt(d1) - np.sqrt(np.linalg.det(s2)))
                dr = {"1ai": rng.uniform(0.2, 0.8) * gap,
                      "1aii": np.sqrt(max(np.linalg.det(s2 - s1), 0.0)),
                      "1b": gap + rng.uniform(0.1, 0.6) * np.sqrt(d1),
                      "1ci": gap}[tag]
                if tag == "1ci" and gap < 0.05:
                    continue
                r2 = r1 + rng.choice((-1.0, 1.0)) * dr
        if r2 ** 2 < 0.9 * np.linalg.det(s2):
            return s1, r1, s2, float(r2)


def _micro(rng, kind):
    if kind == "rank1":
        return ("rank1", float(rng.uniform(0.15, 0.85)), _unit(rng))
    return ("rank2", float(rng.uniform(0.2, 0.8)), _unit(rng),
            float(rng.uniform(0.2, 0.8)), _unit(rng))


def _rand_crystallite(rng):
    """Random PD crystallite K(X, Y), X = H + 3 I, Y = 0.7 S."""
    while True:
        X = _rand_herm(rng) + 3.0 * I2
        Y = 0.7 * _rand_sym(rng)
        if O.is_pd(O.block_from_xy(X, Y)):
            return X, Y


class Solvers(Workload):
    """The paper's two applications: two isotropic phases and the polycrystal.

    Cycle: 192 two-phase ops cycling through the 8 case tags x {rank-1,
    iterated rank-2} and 64 polycrystal solves, one per block of four.
    """

    name = "solvers"
    salt = 2

    def make_ops(self, rng):
        pairs = []
        for k in range(192):
            tag = CASE_TAGS[k % 8]
            micro = _micro(rng, "rank1" if (k // 8) % 2 == 0 else "rank2")
            pairs.append(Op("pair", tag, *_phase_pair(rng, tag), micro))
        polys = [Op("poly", *_rand_crystallite(rng)) for _ in range(64)]
        return _blocks(rng, polys, pairs, 4)

    def run(self, op):
        if op.kind == "poly":
            return T.solve_isotropic(T.KTensor(*op.args))
        _, s1, r1, s2, r2, micro = op.args
        if micro[0] == "rank1":
            model, frac = T.RankOneModel(micro[1], micro[2]), micro[1]
        else:
            model = T.IteratedRank2Model(*micro[1:])
            frac = micro[1] * micro[3]
        pair = T.IsoPhasePair(T.IsoPhase(s1, r1), T.IsoPhase(s2, r2), frac, model)
        res = T.effective(pair)
        zt = T.figure_of_merit(res.Lstar) if res.kind == "explicit" else None
        return res, zt

    def check(self, i, op, out):
        if op.kind == "poly":
            return self._check_poly(i, op, out)
        tag, s1, r1, s2, r2, micro = op.args
        res, zt = out
        ref = self.reference(i, lambda: O.micro_laminate(
            O.iso_tensor(s1, r1), O.iso_tensor(s2, r2), micro))
        if res.case.tag != tag:
            return "wrong", {}
        if res.kind == "implicit":
            ok = res.residual(ref) <= 1e-9
        else:
            ok = O.rel_diff(res.Lstar, ref) <= 1e-9
            if res.kind == "link":
                ok &= res.metadata["structure_residual"] <= 1e-6
            else:
                # the 2x2 closed-form eigenvalue keeps ~sqrt(eps) accuracy at
                # the double eigenvalue of isotropic results
                ok &= abs(zt / (1.0 + zt) - O.zt_eigenvalue(res.Lstar)) <= 1e-7
        return ("ok" if ok else "wrong"), {}

    def _check_poly(self, i, op, res):
        ref = self.reference(i, lambda: O.PolyReference(*op.args))
        got = [t for t, _ in res.roots]

        def near(a, b):
            return abs(a - b) <= 1e-6 * (1.0 + abs(a))

        missed = [t for t in ref.roots if not any(near(t, g) for g in got)]
        extra = [g for g in got if not any(near(t, g) for t in ref.roots)]
        best = ref.smallest_feasible()
        info = {"roots": len(got), "missed_roots": len(missed), "solves": 1}
        Z = np.asarray(res.Z)
        wrong = (extra or best is None or not near(best, res.theta)
                 or ref.residual(Z) > 1e-9
                 or abs(res.theta * np.linalg.det(Z).real - 1.0) > 1e-9
                 or not O.is_pd(np.asarray(res.Lstar)))
        if wrong:
            return "wrong", info
        return ("incomplete" if missed else "ok"), info


# -- audit ------------------------------------------------------------------

AUDIT_TRIALS = 200
LINK_OPS = 240  # puts p90 mid-cluster in the 19-28 ms audits (README.md)
LINK_TRIALS = 16


def _link_trial(rng):
    """Well-conditioned draw (A1, B1, A2, B2, L) for the composition law."""
    while True:
        A1, B1, A2, B2 = (rng.standard_normal((2, 2)) + 0.4 * I2 for _ in range(4))
        L = _rand_pd_block(rng)
        inner = A2[1, 0] * L + A2[1, 1] * O.T4
        if np.linalg.cond(inner) > 1e3:
            continue
        mid = O.psi_apply(A2, B2, L)
        if np.linalg.cond(A1[1, 0] * mid + A1[1, 1] * O.T4) <= 1e3:
            return A1, B1, A2, B2, L


class Audit(Workload):
    """verify-algebras as ops, plus link-group composition-law checks.

    Cycle: the checks in verify-algebras order (23 closure, 108 subalgebra,
    32 ideal, 7 chain, 23 inversion-key) at 200 trials and the default
    seed, then 240 link-group ops of 16 seeded trials each.
    """

    name = "audit"
    salt = 3

    def make_ops(self, rng):
        ops = [Op("closure", s.ident) for s in algebra.catalog()]
        ops += [Op("subalgebra", i, s) for i, subs in algebra.SUBALGEBRAS.items()
                for s in subs]
        ops += [Op("ideal", i, s) for i, ideals in algebra.IDEALS.items() for s in ideals]
        ops += [Op("chain", i) for i in (8, 9, 13, 17, 20, 21, 22)]
        ops += [Op("key", s.ident) for s in algebra.catalog()]
        ops += [Op("link", tuple(_link_trial(rng) for _ in range(LINK_TRIALS)))
                for _ in range(LINK_OPS)]
        return ops

    @staticmethod
    def trials(op):
        return 0 if op.kind in ("subalgebra", "link") else AUDIT_TRIALS

    def run(self, op):
        spec = algebra.algebra_by_id
        seed = algebra.DEFAULT_SEED
        if op.kind == "closure":
            return algebra.check_closure(spec(op.args[0]), trials=AUDIT_TRIALS,
                                         seed=seed, tol=1e-8)
        if op.kind == "subalgebra":
            return algebra.is_subalgebra(spec(op.args[1]), spec(op.args[0]))
        if op.kind == "ideal":
            return algebra.is_ideal(spec(op.args[1]), spec(op.args[0]),
                                    trials=AUDIT_TRIALS, seed=seed)
        if op.kind == "chain":
            return algebra.check_chain(spec(op.args[0]), trials=AUDIT_TRIALS, seed=seed)
        if op.kind == "key":
            s = spec(op.args[0])
            key = algebra.find_inversion_key(s, trials=AUDIT_TRIALS, seed=seed)
            return algebra.key_condition_residual(s, key, trials=AUDIT_TRIALS, seed=seed)
        out = []
        for A1, B1, A2, B2, L in op.args[0]:
            m1, m2 = T.LinkMap(A1, B1), T.LinkMap(A2, B2)
            out.append((T.psi_apply(m1, T.psi_apply(m2, L)),
                        T.psi_apply(T.psi_compose(m1, m2), L)))
        return out

    def check(self, i, op, out):
        if op.kind in ("closure", "chain"):
            ok = out.passed and np.isfinite(out.max_residual)
        elif op.kind in ("subalgebra", "ideal"):
            ok = out is True
        elif op.kind == "key":
            ok = bool(np.isfinite(out) and out <= 1e-10)
        else:
            refs = self.reference(i, lambda: [
                O.psi_apply(A1, B1, O.psi_apply(A2, B2, L))
                for A1, B1, A2, B2, L in op.args[0]])
            ok = all(O.rel_diff(lhs, ref) <= 1e-9 and O.rel_diff(lhs, rhs) <= 1e-9
                     for (lhs, rhs), ref in zip(out, refs))
        return ("ok" if ok else "wrong"), {}


# -- cli ----------------------------------------------------------------------

GOLDEN_ARGV = (
    ("er_identity.json", "er --er 22 tensor_identity.json"),
    ("er_sample8.json", "er --er 8 tensor_er8_sample.json"),
    ("er_perturbed8.json", "er --er 8 tensor_er8_perturbed.json"),
    ("laminate_leaf.json", "laminate tree_leaf.json"),
    ("laminate_rank1.json", "laminate tree_rank1.json"),
    ("laminate_er21.json", "laminate tree_er21.json"),
    ("two_phase_2c.json", "two-phase pair_2c.json"),
    ("two_phase_2a.json", "two-phase pair_2a.json"),
    ("two_phase_1aii.json", "two-phase pair_1aii.json"),
    ("two_phase_1b.json", "two-phase pair_1b.json"),
    ("two_phase_1ci.json", "two-phase pair_1ci.json"),
    ("poly_iso.json", "polycrystal crystallite_iso.json"),
    ("poly_s2.json", "polycrystal --all-roots crystallite_s2.json"),
    ("poly_conduction.json", "polycrystal crystallite_conduction.json"),
    ("zt_iso.json", "zt material_iso.json"),
)
BAD_INPUT_ARGV = (
    (3, "er --er 22 tensor_not_pd.json"),
    (2, "laminate tree_bad.json"),
    (3, "two-phase pair_bad.json"),
    (3, "zt material_bad.json"),
)
SUBCOMMANDS = ("er", "laminate", "two-phase", "polycrystal", "zt")


def _argv(text):
    return [w if not w.endswith(".json") else f"tests/data/{w}" for w in text.split()]


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """Each op is one ``python -m thermoex.cli`` subprocess, one at a time.

    Cycle: the 15 golden argv sets and the 4 bad-input files, in seeded
    order.  Stdout must match tests/golden byte for byte; bad inputs must
    exit with their code (2 input error, 3 domain error).
    """

    name = "cli"
    salt = 4
    subprocess_ops = True

    def make_ops(self, rng):
        ops = [Op(argv.split()[0], _argv(argv), ("golden", golden))
               for golden, argv in GOLDEN_ARGV]
        ops += [Op(argv.split()[0], _argv(argv), ("exit", code))
                for code, argv in BAD_INPUT_ARGV]
        return [ops[k] for k in rng.permutation(len(ops))]

    def __init__(self, seed):
        super().__init__(seed)
        self.env = child_env()

    def run(self, op):
        proc = subprocess.run([sys.executable, "-m", "thermoex.cli", *op.args[0]],
                              cwd=ROOT, env=self.env, capture_output=True)
        return proc.returncode, proc.stdout

    def check(self, i, op, out):
        code, stdout = out
        kind, expect = op.args[1]
        if kind == "exit":
            ok = code == expect and stdout == b""
        else:
            golden = self.reference(expect, lambda: (ROOT / "tests/golden" / expect).read_bytes())
            ok = code == 0 and stdout == golden
        return ("ok" if ok else "wrong"), {}


WORKLOADS = {w.name: w for w in (Laminate, Solvers, Audit, Cli)}


def quiet_warnings():
    """The 1ci branch warning is checked through structure_residual instead."""
    warnings.simplefilter("ignore", twophase.BranchWarning)
