"""Benchmark harness for rindler-spin.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {cli-docs,curve-rk4,cross-check}
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop: one client in one process, one operation
at a time, for at least ``--seconds`` seconds and then to the end of the
current block of inputs.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same inputs untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  A human-readable report comes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``setup_s`` and
the op times of the in-process workloads are normalized seconds (see
``reference_seconds``); the report also prints the raw ones.

The package is taken from ``src/`` of the checkout that holds this file,
never from an installed copy; without it the harness exits with code 2.
Scratch files go under ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from tracer import COUNTERS, FAIL_COUNTED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"

SETUP_RUNS = 5        # fresh interpreters per setup_s measurement
IMPORTTIME_RUNS = 3   # `python -X importtime` runs per traced run
TAIL_BEYOND = 10      # op_tail_s: highest percentile with this many samples beyond
OP_TIMEOUT_S = 120.0
REF_NOMINAL_S = 0.010  # reference kernel time that defines one normalized second
REF_WINDOW_S = 1.0     # an op is normalized by the kernel runs within about this time of it
REF_PER_SETUP = 5      # kernel runs before and after each set-up interpreter

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
             "cpu_per_op_s": "s", "pass_ratio": "ratio", "peak_rss_mb": "MB"}
STARTUP_MODULES = {"rindler_spin": "startup.import_rindler_spin_s",
                   "scipy.integrate": "startup.import_scipy_integrate_s",
                   "numpy": "startup.import_numpy_s"}
LAYERS = ("correlator", "dynamics", "entanglement", "linalg4", "kinematics", "cli")
# Self times are reported only for functions every workload calls; the
# others would read 0 on every run of some workload (see bench/design.json).
SELF_TIMED = ("correlator.rates_closed", "dynamics.density_from_coefficients",
              "dynamics.DensityMatrix.validate", "entanglement.concurrence",
              "entanglement.concurrence_closed", "entanglement.disentanglement_time",
              "entanglement.relaxation_times", "linalg4.jacobi_hermitian",
              "linalg4.hermitian_eigenvalues")
SELF_TIMED_LAYERS = ("correlator", "dynamics", "entanglement", "linalg4")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a failing probe)."""


@dataclass
class Child:
    code: int
    start: float
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class OpRecord:
    item: object
    wall: float
    problems: dict          # sub-check -> list of problems
    cpu: float = 0.0
    maxrss_kb: int = 0
    ref: float = 0.0        # reference kernel time measured just before the op
    factor: float = 1.0     # REF_NOMINAL_S / median of the kernel runs around the op
    slot: float = 0.0       # loop time of the op with its checks, kernel excluded

    @property
    def failed_checks(self):
        return [name for name, found in self.problems.items() if found]


@dataclass
class Phase:
    records: list = field(default_factory=list)
    maxrss_kb: int = 0

    @property
    def elapsed(self):
        return sum(r.slot for r in self.records)


def reference_seconds():
    """Wall time of a fixed kernel of Python bytecode and small numpy products.

    The host's speed drifts by tens of percent over seconds to minutes;
    the benchmark runs this kernel before every operation and scales each
    time by the kernel times around it (see ``normalize``), so that its
    figures are "normalized seconds": seconds on a machine where the kernel
    takes REF_NOMINAL_S.  The kernel never calls rindler_spin.
    """
    start = time.perf_counter()
    total = 0
    for i in range(90_000):
        total += i * i
    m = np.eye(4)
    for _ in range(600):
        m = m @ m
    return time.perf_counter() - start


def child_env(*paths):
    env = dict(os.environ)
    parts = [str(p) for p in paths] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_child(argv, env, cwd, tmp):
    """Run a subprocess to completion; its wall time, CPU time and peak RSS."""
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, start, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, out.read().decode(), err.read().decode())


def _probe(argv, tmp, env):
    child = run_child([sys.executable, *argv], env, ROOT, tmp)
    if child.code != 0:
        raise BenchError(f"probe {argv} exited {child.code}: {child.stderr.strip()[-400:]}")
    return child


def normalize(records):
    """Set each record's factor from the kernel runs within about REF_WINDOW_S of it.

    Always included are the runs just before and just after the op.  A
    single kernel run jitters by tens of percent, so short operations are
    scaled by the median of many; long ones, during which the host's speed
    can change, by the runs that bracket them.
    """
    refs = [r.ref for r in records]
    half = max(1, round(REF_WINDOW_S / statistics.median(r.slot for r in records)))
    for i, r in enumerate(records):
        r.factor = REF_NOMINAL_S / statistics.median(refs[max(0, i - half + 1):i + half + 1])


def setup_seconds(workload, seed, tmp, runs):
    """Median time from launching an interpreter to rindler_spin imported and inputs made.

    Returns (normalized, raw) seconds.
    """
    code = ("import time, rindler_spin, workloads; "
            f"workloads.make_inputs({workload!r}, {seed}); print(repr(time.monotonic()))")
    env = child_env(SRC, BENCH)
    values, refs = [], [reference_seconds() for _ in range(REF_PER_SETUP)]
    for _ in range(runs):
        child = _probe(["-c", code], tmp, env)
        values.append(float(child.stdout.strip()) - child.start)
        refs += [reference_seconds() for _ in range(REF_PER_SETUP)]
    raw = statistics.median(values)
    return raw * REF_NOMINAL_S / statistics.median(refs), raw


def startup_seconds(tmp, runs):
    """Cumulative import times from `python -X importtime -c "import rindler_spin"`."""
    samples = {name: [] for name in STARTUP_MODULES.values()}
    for _ in range(runs):
        child = _probe(["-X", "importtime", "-c", "import rindler_spin"], tmp, child_env(SRC))
        seen = {}
        for line in child.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in STARTUP_MODULES:
                seen.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
        for module, metric in STARTUP_MODULES.items():
            if module not in seen:
                raise BenchError(f"no importtime line for {module}")
            samples[metric].append(seen[module])
    return {metric: statistics.median(values) for metric, values in samples.items()}


# ------------------------------------------------------------- operations

class CliOps:
    """cli-docs: one documented command line per operation, as a subprocess.

    Op times are not normalized: the kernel would run in this process,
    which sleeps while the child works, and there it tracked the children's
    speed worse than no kernel at all.
    """

    normalized = False

    def __init__(self, tmp):
        self.tmp = tmp
        self.first = {}          # command key -> output digests of its first run
        self.tracer = None

    def __call__(self, index, op_id):
        key, argv, outputs, check = workloads.CLI_COMMANDS[index]
        opdir = self.tmp / key
        opdir.mkdir(exist_ok=True)
        for name in outputs:
            (opdir / name).unlink(missing_ok=True)
        if self.tracer is None:
            command = [sys.executable, "-m", "rindler_spin.cli", *argv]
        else:
            spans = opdir / "spans.npz"
            command = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *argv]
        child = run_child(command, child_env(SRC), opdir, self.tmp)
        problems = {"exit": [], "determinism": [], "output": []}
        if child.code != 0:
            problems["exit"].append(f"{key}: exit {child.code}: {child.stderr.strip()[-300:]}")
        else:
            if self.tracer is not None:
                self.tracer.merge(spans, op_id)
            problems.update(self._check_outputs(key, opdir, outputs, check))
        return OpRecord(index, child.wall, problems, child.cpu, child.maxrss_kb)

    def _check_outputs(self, key, opdir, outputs, check):
        missing = [name for name in outputs if not (opdir / name).is_file()]
        if missing:
            return {"output": [f"{key}: missing {', '.join(missing)}"]}
        data = {name: (opdir / name).read_bytes() for name in outputs}
        digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()}
        reference = self.first.setdefault(key, digests)
        determinism = [f"{key}: {name} differs from round 1"
                       for name in outputs if digests[name] != reference[name]]
        try:
            output = check({name: blob.decode() for name, blob in data.items()})
        except (ValueError, KeyError, IndexError) as exc:
            output = [f"{key}: unreadable output: {exc}"]
        return {"determinism": determinism, "output": [f"{key}: {p}" for p in output]}


class InProcessOps:
    """curve-rk4 and cross-check: one library pipeline per operation."""

    normalized = True

    def __init__(self, workload, rs):
        self.rs = rs
        self.tracer = None
        self.op = workloads.curve_op if workload == "curve-rk4" else workloads.cross_check_op

    def __call__(self, item, op_id):
        args = item if isinstance(item, tuple) else (item,)
        if self.tracer is not None:
            self.tracer.op = op_id
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            problems = self.op(self.rs, *args)
        except Exception as exc:  # an unexpected raise fails the operation, the run goes on
            problems = {"op": [f"raised {type(exc).__name__}: {exc}"]}
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if self.tracer is not None:
            self.tracer.op = 0
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return OpRecord(item, wall, problems, cpu, after.ru_maxrss)


def measure(ops, inputs, block, seconds=None, count=None):
    """Closed loop over the inputs: whole blocks until `seconds` pass, or `count` ops.

    For normalized ops the reference kernel runs before every operation;
    its time is excluded from the phase's elapsed time.
    """
    phase = Phase()
    i = 0
    while True:
        ref = reference_seconds() if ops.normalized else 0.0
        start = time.perf_counter()
        record = ops(inputs[i % len(inputs)], i + 1)
        record.ref = ref
        record.slot = time.perf_counter() - start
        phase.records.append(record)
        i += 1
        if count is not None:
            if i >= count:
                break
        elif i % block == 0 and phase.elapsed >= seconds:
            break
    if ops.normalized:
        normalize(phase.records)
    phase.maxrss_kb = max(r.maxrss_kb for r in phase.records)
    return phase


# ---------------------------------------------------------------- metrics

def tail(walls):
    """(value, percentile, samples, beyond) at the highest percentile with TAIL_BEYOND beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n, n - 1 - k


def end_to_end(phase, setup, scale=True):
    """The end-to-end metrics; times in normalized seconds unless ``scale`` is false."""
    factors = [r.factor if scale else 1.0 for r in phase.records]
    walls = [r.wall * f for r, f in zip(phase.records, factors)]
    attempted = len(walls)
    passed = sum(1 for r in phase.records if not r.failed_checks)
    return {
        "setup_s": setup,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "ops_per_s": passed / sum(r.slot * f for r, f in zip(phase.records, factors)),
        "cpu_per_op_s": sum(r.cpu * f for r, f in zip(phase.records, factors)) / attempted,
        "pass_ratio": passed / attempted,
        "peak_rss_mb": phase.maxrss_kb / 1024.0,
    }


def per_layer(tracer, untraced, traced, startup):
    self_s, calls = tracer.self_times()
    op_wall = sum(r.wall for r in traced.records)
    metrics = dict(startup)
    for name in tracer.names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.share"] = self_s[name] / op_wall
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"{layer}.share"] = total / op_wall
        if layer in SELF_TIMED_LAYERS:
            metrics[f"{layer}.self_s"] = total
    for name, (key, _) in COUNTERS.items():
        metrics[f"{name}.{key}"] = tracer.counts[f"{name}.{key}"]
    for name in FAIL_COUNTED:
        metrics[f"{name}.fail"] = tracer.counts[f"{name}.fail"]
    # normalized, so that host drift between the two phases does not read as overhead
    traced_n = sum(r.wall * r.factor for r in traced.records)
    base_n = sum(r.wall * r.factor for r in untraced.records)
    metrics["trace.overhead_per_op_s"] = (traced_n - base_n) / len(traced.records)
    metrics["trace.overhead_ratio"] = traced_n / base_n - 1.0
    return metrics, self_s, calls


def probe_defects(rs):
    """Known parent-commit failures below the cross-check range, untimed and uncounted."""
    failing = workloads.defect_probe(rs)
    print(f"defect probe at alpha {workloads.DEFECT_PROBE_ALPHAS}: "
          + ", ".join(f"{name} fails at {n}" for name, n in failing.items()))
    return {f"probe.{name}.failing_alphas": n for name, n in failing.items()}


def per_layer_units(name):
    if name.endswith((".share", "_ratio")):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


# ----------------------------------------------------------------- report

def print_failures(records):
    """Failure causes (sub-check and kind, once per op); returns the failed count."""
    causes = Counter()
    for r in records:
        for name in r.failed_checks:
            kinds = {p.split("raised ", 1)[1].split(":", 1)[0] if "raised " in p else "out of tolerance"
                     for p in r.problems[name]}
            causes.update(f"{name}: {kind}" for kind in kinds)
    failed = [r for r in records if r.failed_checks]
    print(f"  fail_ratio     {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")
    for cause, n in sorted(causes.items()):
        print(f"    {n:6d}  {cause}")
    for r in failed[:3]:
        name = r.failed_checks[0]
        print(f"    e.g. input {r.item!r}: {r.problems[name][0][:160]}")
    return len(failed)


def print_e2e(workload, seed, phase, metrics, raw, setup_runs):
    _, pct, n, beyond = tail([r.wall for r in phase.records])
    ref_ms = statistics.median(r.ref for r in phase.records) * 1e3
    kernel = (f"reference kernel median {ref_ms:.3f} ms against {REF_NOMINAL_S * 1e3:g} ms nominal"
              if ref_ms else "op times not normalized")
    print(f"workload {workload}  seed {seed}  closed loop, 1 client: "
          f"{n} ops in {phase.elapsed:.2f} s (nproc {os.cpu_count()}); {kernel}")
    notes = {"setup_s": f"median of {setup_runs} fresh interpreters",
             "op_tail_s": f"p{pct:.1f} of {n} samples, {beyond} beyond",
             "pass_ratio": "1 - fail_ratio"}
    print(f"  {'metric':14s} {'normalized':>12s} {'raw':>12s}")
    for name, value in metrics.items():
        print(f"  {name:14s} {value:12.6g} {raw[name]:12.6g} {E2E_UNITS[name]:5s} {notes.get(name, '')}")


def print_layers(workload, metrics, self_s, calls, untraced, traced, tracer):
    op_wall = sum(r.wall for r in traced.records)
    print(f"traced run {workload}: {len(traced.records)} ops, {len(tracer.ids)} spans; "
          f"tracing overhead {metrics['trace.overhead_ratio']:+.1%} "
          f"({metrics['trace.overhead_per_op_s'] * 1e3:+.3f} ms/op)")
    print(f"  {'function':42s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    for name in tracer.names:
        if calls[name]:
            print(f"  {name:42s} {calls[name]:9d} {self_s[name]:10.4f} {self_s[name] / op_wall:7.1%}")
    for key in sorted(metrics):
        if key.startswith("startup.") or key.endswith((".fail", ".rk4_steps", ".neval", ".nfev")):
            print(f"  {key} = {metrics[key]:.6g}")
    for layer in LAYERS:
        print(f"  layer {layer:13s} share {metrics[f'{layer}.share']:.1%}")
    if workload == "cli-docs":
        by_sub = {}
        for r in untraced.records:
            by_sub.setdefault(workloads.CLI_COMMANDS[r.item][1][0], []).append(r.wall)
        for sub, walls in sorted(by_sub.items()):
            print(f"  cli.{sub}.wall_s = {statistics.median(walls):.4f} s (untraced, {len(walls)} runs)")
        p50 = statistics.median(r.wall for r in untraced.records)
        share = metrics["startup.import_rindler_spin_s"] / p50
        print(f"  rationale: startup.import_rindler_spin_s is {share:.1%} of the median untraced op")
    elif workload == "curve-rk4":
        print(f"  rationale: dynamics.evolve_numeric is "
              f"{self_s['dynamics.evolve_numeric'] / op_wall:.1%} of traced op time")
    else:
        eig = (metrics["entanglement.share"] + metrics["linalg4.share"]
               + self_s["dynamics.density_from_coefficients"] / op_wall)
        print(f"  rationale: entanglement + linalg4 + Pauli assembly are {eig:.1%} of traced op time")


# -------------------------------------------------------------------- run

def import_package():
    if not (SRC / "rindler_spin" / "__init__.py").is_file():
        raise BenchError(f"no rindler_spin sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rindler_spin
    import rindler_spin.cli  # noqa: F401  (so the tracer finds the cli bindings)
    if SRC.resolve() not in Path(rindler_spin.__file__).resolve().parents:
        raise BenchError(f"rindler_spin imported from {rindler_spin.__file__}, not {SRC}")
    return rindler_spin


def run(workload, seed, seconds, trace, setup_runs=SETUP_RUNS, importtime_runs=IMPORTTIME_RUNS,
        count=None):
    """Run one workload; returns the result object printed on the last line.

    ``count`` replaces the time limit by a fixed number of operations (the
    self-test uses it to run each workload at a tiny size).
    """
    rs = import_package()
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        _probe(["-c", "import rindler_spin.cli"], tmp, child_env(SRC))  # fill bytecode caches
        inputs = workloads.make_inputs(workload, seed)
        block = workloads.block_size(workload)
        if workload == "cli-docs":
            ops = CliOps(tmp)
        else:
            ops = InProcessOps(workload, rs)
            ops(inputs[0], 0)  # untimed: lets first-call costs settle before timing
        if not trace:
            setup, setup_raw = setup_seconds(workload, seed, tmp, setup_runs)
            phase = measure(ops, inputs, block, seconds=seconds, count=count)
            metrics = end_to_end(phase, setup)
            raw = end_to_end(phase, setup_raw, scale=False)
            print_e2e(workload, seed, phase, metrics, raw, setup_runs)
            records = phase.records
        else:
            startup = startup_seconds(tmp, importtime_runs)
            untraced = measure(ops, inputs, block, seconds=seconds / 2.0, count=count)
            tracer = Tracer()
            if isinstance(ops, InProcessOps):
                tracer.install()
            ops.tracer = tracer
            try:
                traced = measure(ops, inputs, block, count=len(untraced.records))
            finally:
                tracer.uninstall()
            metrics, self_s, calls = per_layer(tracer, untraced, traced, startup)
            metrics.update(probe_defects(rs))
            print_layers(workload, metrics, self_s, calls, untraced, traced, tracer)
            tracer.dump(SCRATCH / f"trace-{workload}-seed{seed}.npz")
            records = untraced.records + traced.records
        failed = print_failures(records)
        units = E2E_UNITS if not trace else {k: per_layer_units(k) for k in metrics}
        return {"correct": failed == 0, "attempted": len(records), "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
