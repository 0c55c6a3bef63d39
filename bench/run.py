"""thermoex benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload laminate --seed 1 --seconds 24 --trace 0

One client runs the workload's ops back to back; the next op starts when the
previous one returns.  The loop replays whole cycles of seeded inputs until
``--seconds`` have passed (and, untraced, at least 100 ops have completed);
every output is checked against an independent reference.  ``attempted``
counts the distinct ops of the cycles a run executes and ``failed`` those
of them that failed on any replay, so both depend on the seed only, not on
how many replays fit into ``--seconds``.  Times are
reported at a fixed reference CPU speed (see ``calibration_s``).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
``--workload all`` runs each workload in turn and prints a table.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# one BLAS thread: the kernels are 2x2/4x4, and the machine is shared
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread cap)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("laminate", "solvers", "audit", "cli")
MIN_OPS = 100            # op_ms_p90 needs at least 10 samples beyond it
SETUP_PROBES = 5
BASELINE_PROBES = 5
CAL_EVERY_S = 0.25       # calibrate at least this often during a loop
CAL_REF_S = 0.0035       # calibration time that defines the reference speed

_CAL_A = np.eye(4) + np.arange(16.0).reshape(4, 4) / 64.0
_CAL_I = np.eye(4)


def calibration_s():
    """Wall time of a fixed kernel of Python calls and 4x4 numpy work.

    The kernel runs no thermoex code, so no change to the package can move
    it; it moves with the CPU speed the host gives this process, which
    drifts by tens of percent on a shared machine.  Each time is scaled by
    ``CAL_REF_S / calibration_s()`` measured next to it.
    """
    t0 = perf_counter()
    acc = 0.0
    for k in range(300):
        acc += float(np.linalg.inv(_CAL_A + k * 1e-3 * _CAL_I)[0, 0])
        acc += sum(j * j for j in range(20))
    return perf_counter() - t0


def scaled(seconds_fn):
    """Run ``seconds_fn`` between two calibrations; its time at reference speed."""
    before = calibration_s()
    t = seconds_fn()
    return t * CAL_REF_S / (0.5 * (before + calibration_s()))


class Measurement:
    """Latencies, speed factors and check results of one timed loop."""

    def __init__(self):
        self.latency = []        # seconds per op, as measured
        self.speed = []          # current / reference CPU speed when the op ran
        self.positions = []      # cycle position of each op
        self.status = Counter()  # ok / incomplete / wrong / error, per replay
        self.failed_at = set()   # cycle positions whose op failed on some replay
        self.info = Counter()    # counts reported by the checks
        self.first = {}          # first failure of each kind, for the report
        self.wall = 0.0

    def scaled_ms(self):
        return [1000.0 * t * s for t, s in zip(self.latency, self.speed)]

    @property
    def ops_per_s(self):
        return len(self.latency) / (sum(self.scaled_ms()) / 1000.0)

    def record(self, wl, i, out):
        """Check one output; only the verdict is kept, never the output."""
        if isinstance(out, Exception):
            status, info = "error", {}
        else:
            try:
                status, info = wl.check(i, wl.ops[i], out)
            except Exception as exc:        # malformed output
                status, info, out = "wrong", {}, exc
        self.status[status] += 1
        self.info.update(info)
        if status != "ok":
            self.failed_at.add(i)
            if status not in self.first:
                self.first[status] = f"op {i} ({wl.ops[i].kind}): {out!r}"[:300]


def run_cycles(wl, seconds, min_ops=0, tracer=None):
    """Replay whole cycles of ``wl.ops`` until ``seconds`` and ``min_ops``.

    Each output is checked right after its op, outside the op's time, and
    dropped, so memory does not grow with the number of ops.  A calibration
    runs before the first op, whenever CAL_EVERY_S has passed since the last
    one, and after the last op; each op is scaled by the mean of the two
    calibrations around it.
    """
    m = Measurement()
    cal = [calibration_s()]
    after = []                   # index of the calibration preceding each op
    start = last = perf_counter()
    while True:
        for i, op in enumerate(wl.ops):
            if perf_counter() - last >= CAL_EVERY_S:
                cal.append(calibration_s())
                last = perf_counter()
            t0 = perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:        # counted as a failed op
                out = exc
            m.latency.append(perf_counter() - t0)
            after.append(len(cal) - 1)
            m.positions.append(i)
            if tracer is not None:
                tracer.end_op(wl.trials(op))
            m.record(wl, i, out)
        if perf_counter() - start >= seconds and len(m.latency) >= min_ops:
            break
    m.wall = perf_counter() - start
    cal.append(calibration_s())
    m.speed = [CAL_REF_S / (0.5 * (cal[k] + cal[k + 1])) for k in after]
    return m


class Verdict:
    """Check results summed over every timed loop of a run.

    ``attempted`` and ``failed`` count distinct ops: each loop replays whole
    cycles, so it attempts every op of its cycle, and an op counts as failed
    once if any of its replays failed.  The per-replay counts are in
    ``status``.
    """

    def __init__(self):
        self.status = Counter()
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def add(self, m):
        self.status.update(m.status)
        for k, v in m.first.items():
            self.first.setdefault(k, v)
        self.attempted += len(set(m.positions))
        self.failed += len(m.failed_at)

    @property
    def correct(self):
        # an op whose result is right but whose root list is incomplete is
        # a failed op; it does not make the returned results incorrect
        return self.status["wrong"] == 0 and self.status["error"] == 0


def make_workload(name, seed):
    import workloads
    workloads.quiet_warnings()
    wl = workloads.WORKLOADS[name](seed)
    wl.run(wl.ops[0])                        # warm-up: fills lazy caches
    return wl


def probe_s(argv, env=None):
    """Wall time of a subprocess, at reference speed."""
    def wall():
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return perf_counter() - t0
    return scaled(wall)


def setup_seconds(name, seed):
    """Median over fresh processes of start -> ready for the first timed op."""
    def probe():
        t0 = time.monotonic()
        p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                            "--seed", str(seed), "--setup-probe"],
                           cwd=ROOT, capture_output=True, text=True, check=True)
        return float(p.stdout.split()[-1]) - t0
    return statistics.median(scaled(probe) for _ in range(SETUP_PROBES))


def describe(name, seed, wl, m):
    import workloads
    print(f"{name}: seed {seed}, {len(m.latency)} ops in {m.wall:.2f} s wall, "
          f"{len(m.latency) / sum(m.latency):.3f} ops/s as measured, speed factor "
          f"{statistics.median(m.speed):.3f} (current / reference CPU speed); cycle of "
          f"{len(wl.ops)} ops, input sha256 {workloads.input_digest(wl.ops)[:16]}")


def end_to_end(name, seed, seconds, verdict):
    wl = make_workload(name, seed)
    m = run_cycles(wl, seconds, min_ops=MIN_OPS)
    who = resource.RUSAGE_CHILDREN if wl.subprocess_ops else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    verdict.add(m)
    describe(name, seed, wl, m)
    lat_ms = m.scaled_ms()
    return {
        "ops_per_s": (m.ops_per_s, "1/s"),
        "op_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
        "setup_s": (setup_seconds(name, seed), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def traced_cycle(name, seed, seconds, verdict):
    """Trace ``name`` for one cycle (or ``seconds``); return its Stats."""
    import tracing
    wl = make_workload(name, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m = run_cycles(wl, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    verdict.add(m)
    st = tracer.stats
    st.info.update(m.info)
    st.speed = statistics.median(m.speed)
    for i, ms in zip(m.positions, m.scaled_ms()):
        st.op_ms[wl.ops[i].kind].append(ms)
    return st, wl, m


def per_layer(name, seed, seconds, verdict):
    import tracing
    import workloads
    wl = make_workload(name, seed)
    plain = run_cycles(wl, seconds / 2.0)
    verdict.add(plain)
    metrics = {}
    # the workload's own traced run follows its untraced run directly, so
    # trace.overhead compares the two under the same machine conditions;
    # the metrics of the other layers come from one traced cycle of their
    # home workload
    for home in [name] + [h for h in NAMES if h != name]:
        stats, twl, m = traced_cycle(home, seed, seconds / 2.0 if home == name else 0.0,
                                     verdict)
        if home == name:
            describe(f"{name} untraced", seed, wl, plain)
            describe(f"{name} traced", seed, twl, m)
            metrics["trace.overhead"] = (plain.ops_per_s / m.ops_per_s, "ratio")
        if home == "cli":
            env = workloads.child_env()
            probes = defaultdict(list)
            for _ in range(BASELINE_PROBES):
                for mod in ("numpy", "thermoex"):
                    probes[mod].append(probe_s([sys.executable, "-c", f"import {mod}"], env))
            metrics.update(tracing.cli_metrics(
                stats, 1000.0 * statistics.median(probes["numpy"]),
                1000.0 * statistics.median(probes["thermoex"])))
        else:
            metrics.update(tracing.HOME_METRICS[home](stats))
    return metrics


def run_all(args):
    rows = []
    for name in NAMES:
        p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            return p.returncode
        sys.stdout.write(p.stdout.rsplit("\n", 2)[0] + "\n")
        rows.append((name, json.loads(p.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        frac = res["failed"] / res["attempted"]
        print(f"\n{name}: {res['attempted']} distinct ops, {res['failed']} failed "
              f"(fail_frac {frac:.4f}), correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:42s} {v['value']:14.6g} {v['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thermoex" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "golden").is_dir():
        print("bench: run from a thermoex checkout (src/thermoex and tests/golden "
              "are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        make_workload(args.workload, args.seed)
        print(time.monotonic())
        return 0

    verdict = Verdict()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.seconds, verdict)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, verdict)
    frac = verdict.failed / verdict.attempted
    print(f"{args.workload}: {verdict.attempted} distinct ops, {verdict.failed} failed "
          f"(fail_frac {frac:.6f}); checks of every replay: {dict(verdict.status)}")
    for kind, what in verdict.first.items():
        print(f"  first {kind}: {what}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
