"""Self-tests of the benchmark itself (not of thermoex).

    python3 bench/selftest.py

Checks that a seed reproduces its inputs, that every printed metric name is
declared in BENCHMARK.json, that traced and untraced runs execute the same
ops with the same outputs, and, as a negative control, that a corrupted
output is counted as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
IN_PROCESS = ("laminate", "solvers", "audit")


def fingerprint(obj):
    """Comparable form of an op output: arrays and numbers, recursively."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, dict):
        return tuple((k, fingerprint(v)) for k, v in sorted(obj.items()) if not callable(v))
    if hasattr(obj, "__dict__") or dataclasses.is_dataclass(obj):
        fields = vars(obj) if hasattr(obj, "__dict__") else {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return (type(obj).__name__, fingerprint(fields))
    return repr(obj)


def short(name, seed=5, n=12):
    wl = run.make_workload(name, seed)
    wl.ops = wl.ops[:n]
    return wl


def run_json(*args):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                       capture_output=True, text=True, check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_seed_reproduces_inputs(self):
        for name, cls in W.WORKLOADS.items():
            a, b, c = cls(7), cls(7), cls(8)
            self.assertEqual(W.input_digest(a.ops), W.input_digest(b.ops), name)
            self.assertNotEqual(W.input_digest(a.ops), W.input_digest(c.ops), name)


class Names(unittest.TestCase):
    def check_names(self, printed, kind):
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        self.assertEqual(set(printed), set(declared))
        for name, v in printed.items():
            self.assertRegex(name, NAME)
            self.assertEqual(v["unit"], declared[name], name)
            self.assertIsInstance(v["value"], (int, float))

    def test_declarations_are_well_formed(self):
        for kind in ("end_to_end", "per_layer"):
            for m in DECLARED[kind]:
                self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
                self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual({w["name"] for w in DECLARED["workloads"]}, set(run.NAMES))

    def test_end_to_end_names(self):
        res = run_json("--workload", "laminate", "--seconds", "0", "--trace", "0")
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"], len(W.WORKLOADS["laminate"](1).ops))
        self.check_names(res["metrics"], "end_to_end")

    def test_per_layer_names(self):
        res = run_json("--workload", "solvers", "--seconds", "0", "--trace", "1")
        self.check_names(res["metrics"], "per_layer")


def recording(wl):
    """Make ``wl.run`` also append each output to the returned list."""
    outputs, run_op = [], wl.run

    def record(op):
        out = run_op(op)
        outputs.append(out)
        return out

    wl.run = record
    return outputs


class TracedRuns(unittest.TestCase):
    def test_traced_and_untraced_execute_the_same_ops(self):
        for name in IN_PROCESS:
            wl = short(name)
            plain_out = recording(wl)
            plain = run.run_cycles(wl, 0.0)
            wl = short(name)
            traced_out = recording(wl)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run.run_cycles(wl, 0.0, tracer=tracer)
            finally:
                tracer.uninstall()
            self.assertEqual(plain.positions, traced.positions)
            self.assertEqual(fingerprint(plain_out), fingerprint(traced_out), name)
            self.assertEqual(plain.status, traced.status)
            self.assertEqual(tracer.stats.ops, len(traced.positions))

    def test_uninstall_restores_every_binding(self):
        import thermoex.laminate as lam
        before = lam.laminate2
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(lam.laminate2, before)
        tracer.uninstall()
        self.assertIs(lam.laminate2, before)


class NegativeControl(unittest.TestCase):
    """A corrupted output must be counted as a failed op."""

    def corrupted(self, name, corrupt, n=8):
        wl = short(name, n=n)
        self.assertEqual(run.run_cycles(wl, 0.0).status["ok"], n, name)
        run_op, done = wl.run, []

        def run_corrupted(op):
            out = run_op(op)
            if not done and corrupt(op, None):
                done.append(op)
                return corrupt(op, out)
            return out

        wl.run = run_corrupted
        verdict = run.Verdict()
        verdict.add(run.run_cycles(wl, 0.0))
        self.assertEqual(len(done), 1, name)
        self.assertEqual((verdict.attempted, verdict.failed), (n, 1), name)
        self.assertFalse(verdict.correct, name)

    def test_laminate(self):
        def corrupt(op, out):
            if out is None:
                return True
            phases, L, member = out
            return phases, L + 1e-6, member
        self.corrupted("laminate", corrupt)

    def test_solvers(self):
        def corrupt(op, out):
            if out is None:
                return op.kind == "poly"
            return dataclasses.replace(out, theta=out.theta * 1.01)
        self.corrupted("solvers", corrupt)

    def test_audit(self):
        def corrupt(op, out):
            if out is None:
                return op.kind == "closure"
            return dataclasses.replace(out, passed=False)
        self.corrupted("audit", corrupt)

    def test_cli(self):
        def corrupt(op, out):
            if out is None:
                return op.args[1][0] == "golden"
            code, stdout = out
            return code, stdout + b" "
        self.corrupted("cli", corrupt, n=3)

    def test_replays_do_not_change_the_counts(self):
        n = 6
        wl = short("laminate", n=n)
        run_op = wl.run

        def run_corrupted(op):
            phases, L, member = run_op(op)
            return phases, (L + 1e-6 if op is wl.ops[2] else L), member

        wl.run = run_corrupted
        m = run.run_cycles(wl, 0.0, min_ops=3 * n)
        verdict = run.Verdict()
        verdict.add(m)
        self.assertEqual(len(m.positions), 3 * n)
        self.assertEqual(m.status["wrong"], 3)
        self.assertEqual((verdict.attempted, verdict.failed), (n, 1))

    def test_exception_is_a_failed_op(self):
        def corrupt(op, out):
            if out is None:
                return True
            raise ValueError("injected failure")
        self.corrupted("laminate", corrupt, n=2)


if __name__ == "__main__":
    unittest.main()
