"""Span tracing from outside the package, and the per-layer metrics.

``Tracer.install`` replaces each listed public function by a wrapper in
every thermoex module namespace that binds it, so calls between modules
are seen too.  A wrapper records one span (name, start, end, parent).  The
spans of one op stay in memory until the op ends; they are then folded
into per-name totals: calls, duration, and self time, which is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from thermoex import algebra  # the package import loads every submodule

from workloads import CASE_TAGS, SUBCOMMANDS

# (home module, attribute) of each traced function; the span name is
# "<module>.<attribute>"
TRACED = {
    "tensor4": ("kt_to_block", "kt_from_block", "kt_mul", "kt_transpose",
                "kt_inverse", "block_inverse", "is_positive_definite",
                "block_is_pd", "rotate", "rotate_block", "jordan_star",
                "check_block"),
    "exactrel": ("er_sample", "er_member", "w_transform", "w_inverse", "gamma0",
                 "pullback", "lm_par", "lm_unpar", "covariance"),
    "laminate": ("laminate2", "laminate_tree", "conduct2", "sigma_star_rank1"),
    "twophase": ("effective", "classify", "reduce_pair", "s_matrices",
                 "strong_ab", "a0_roots", "formula_1aii"),
    "materials": ("figure_of_merit", "canon_from_physical", "physical_from_canon"),
    "polycrystal": ("solve_isotropic", "b_op", "b_charpoly", "special_quartic"),
    "algebra": ("check_closure", "is_subalgebra", "is_ideal", "check_chain",
                "find_inversion_key", "key_condition_residual", "sample_a0"),
    "linkgroup": ("psi_apply", "psi_compose", "psi_inverse"),
}
# det2 is wrapped only where polycrystal binds it: each call there is one
# evaluation of the scalar residual theta * det Z(theta) - 1 (or a
# feasibility minor)
POLY_DET2 = "polycrystal.det2"
# spans whose result labels them: the two-phase case tag
LABELS = {"twophase.effective": lambda res: res.case.tag}


class Stats:
    """Per-name totals over the traced ops, plus the op-level counts."""

    def __init__(self):
        self.ops = 0
        self.trials = 0
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.child_calls = Counter()          # (parent name, child name)
        self.labelled = defaultdict(list)     # (name, label) -> durations
        self.fallbacks = 0                    # laminate2 spans with > 1 gamma0
        self.conduct2_depth = 0
        self.info = Counter()                 # from the op checks
        self.op_ms = defaultdict(list)        # op kind -> latencies (ms)
        self.speed = 1.0                      # current / reference CPU speed

    def per_op(self, value):
        return value / self.ops if self.ops else 0.0

    def ratio(self, num, den):
        return num / den if den else 0.0

    def ms(self, seconds):
        """Milliseconds at the reference speed."""
        return 1000.0 * self.speed * seconds

    def mean_ms(self, name):
        return self.ms(self.ratio(self.total[name], self.calls[name]))

    def self_ms(self, *names):
        return self.ms(sum(self.self_time[n] for n in names))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.stats = Stats()
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        label = LABELS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if label is not None:
                rec[4] = label(res)
            return res

        return wrapper

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "thermoex" or n.startswith("thermoex.")]
        for home, names in TRACED.items():
            src = sys.modules[f"thermoex.{home}"]
            for attr in names:
                fn = getattr(src, attr)
                w = self._wrap(f"{home}.{attr}", fn)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._saved.append((mod, key, val))
                            setattr(mod, key, w)
        poly = sys.modules["thermoex.polycrystal"]
        self._saved.append((poly, "det2", poly.det2))
        poly.det2 = self._wrap(POLY_DET2, poly.det2)
        residual = algebra.AlgebraSpec.residual
        self._saved.append((algebra.AlgebraSpec, "residual", residual))
        algebra.AlgebraSpec.residual = self._wrap("algebra.residual", residual)

    def uninstall(self):
        for obj, key, val in reversed(self._saved):
            setattr(obj, key, val)
        self._saved.clear()

    def end_op(self, trials=0):
        """Fold the finished op's spans into the totals and drop them."""
        st = self.stats
        spans = self.spans
        child = [0.0] * len(spans)
        gamma = Counter()
        for name, t0, t1, parent, label in spans:
            if parent >= 0:
                child[parent] += t1 - t0
                pname = spans[parent][0]
                st.child_calls[(pname, name)] += 1
                if name == "exactrel.gamma0" and pname == "laminate.laminate2":
                    gamma[parent] += 1
        for i, (name, t0, t1, parent, label) in enumerate(spans):
            d = t1 - t0
            st.calls[name] += 1
            st.total[name] += d
            st.self_time[name] += d - child[i]
            if label is not None:
                st.labelled[(name, label)].append(d)
            if name == "laminate.conduct2":
                depth, p = 0, parent
                while p >= 0:
                    depth += spans[p][0] == "laminate.conduct2"
                    p = spans[p][3]
                st.conduct2_depth = max(st.conduct2_depth, depth)
        st.fallbacks += sum(1 for n in gamma.values() if n > 1)
        st.ops += 1
        st.trials += trials
        spans.clear()


def layer_self_ms(stats, layer):
    return stats.self_ms(*[n for n in stats.self_time if n.startswith(layer + ".")])


def laminate_metrics(s):
    n = s.per_op
    return {
        "tensor4.convert.calls_per_op":
            (n(s.calls["tensor4.kt_to_block"] + s.calls["tensor4.kt_from_block"]), "count"),
        "tensor4.pd_test.calls_per_op": (n(s.calls["tensor4.is_positive_definite"]), "count"),
        "tensor4.self_ms_per_op": (n(layer_self_ms(s, "tensor4")), "ms"),
        "exactrel.er_sample.self_ms_per_op": (n(s.self_ms("exactrel.er_sample")), "ms"),
        "exactrel.er_sample.attempts_per_call":
            (s.ratio(s.child_calls[("exactrel.er_sample", "exactrel.w_inverse")],
                     s.calls["exactrel.er_sample"]), "count"),
        "exactrel.er_member.self_ms_per_op": (n(s.self_ms("exactrel.er_member")), "ms"),
        "exactrel.w_transform.calls_per_op": (n(s.calls["exactrel.w_transform"]), "count"),
        "laminate.laminate2.calls_per_op": (n(s.calls["laminate.laminate2"]), "count"),
        "laminate.laminate2.self_ms_per_op": (n(s.self_ms("laminate.laminate2")), "ms"),
        "laminate.laminate2.fallback_rate":
            (s.ratio(s.fallbacks, s.calls["laminate.laminate2"]), "ratio"),
    }


def solvers_metrics(s):
    n = s.per_op
    solves = s.calls["twophase.effective"]
    polys = s.calls["polycrystal.solve_isotropic"]
    out = {
        "laminate.conduct2.calls_per_op": (n(s.calls["laminate.conduct2"]), "count"),
        "laminate.conduct2.retry_depth_max": (s.conduct2_depth, "count"),
    }
    for tag in CASE_TAGS:
        durs = s.labelled[("twophase.effective", tag)]
        out[f"twophase.effective.ms.{tag}"] = (s.ms(float(np.mean(durs))) if durs else 0.0, "ms")
    out.update({
        "twophase.reduce_pair.calls_per_solve":
            (s.ratio(s.calls["twophase.reduce_pair"], solves), "count"),
        "twophase.classify.self_ms_per_solve":
            (s.ratio(s.self_ms("twophase.classify"), solves), "ms"),
        "materials.figure_of_merit.self_ms_per_op":
            (n(s.self_ms("materials.figure_of_merit")), "ms"),
        "polycrystal.solve_isotropic.ms": (s.mean_ms("polycrystal.solve_isotropic"), "ms"),
        "polycrystal.residual_evals_per_solve": (s.ratio(s.calls[POLY_DET2], polys), "count"),
        "polycrystal.roots_per_solve": (s.ratio(s.info["roots"], s.info["solves"]), "count"),
        "polycrystal.missed_roots": (s.ratio(s.info["missed_roots"], s.info["solves"]), "count"),
    })
    return out


def audit_metrics(s):
    n = s.per_op
    return {
        "tensor4.kt_mul.calls_per_op": (n(s.calls["tensor4.kt_mul"]), "count"),
        "algebra.check_closure.ms": (s.mean_ms("algebra.check_closure"), "ms"),
        "algebra.is_ideal.ms": (s.mean_ms("algebra.is_ideal"), "ms"),
        "algebra.check_chain.ms": (s.mean_ms("algebra.check_chain"), "ms"),
        "algebra.key_search.ms": (s.mean_ms("algebra.find_inversion_key"), "ms"),
        "algebra.residual.calls_per_trial":
            (s.ratio(s.calls["algebra.residual"], s.trials), "count"),
        "linkgroup.psi_apply.self_ms_per_op": (n(s.self_ms("linkgroup.psi_apply")), "ms"),
        "linkgroup.psi_compose.calls_per_op": (n(s.calls["linkgroup.psi_compose"]), "count"),
    }


def cli_metrics(s, numpy_ms, thermoex_ms):
    """Subprocess walls: the numpy-import baseline is subtracted from the rest."""
    out = {"cli.python_numpy_ms": (numpy_ms, "ms"),
           "cli.import_thermoex_ms": (thermoex_ms - numpy_ms, "ms")}
    for sub in SUBCOMMANDS:
        out[f"cli.command_ms.{sub}"] = (statistics.median(s.op_ms[sub]) - numpy_ms, "ms")
    return out


HOME_METRICS = {"laminate": laminate_metrics, "solvers": solvers_metrics,
                "audit": audit_metrics}
