"""targetset benchmark: one workload, one run, in this fresh process.

    python3 tsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
The run is a closed loop with one client: a single thread calls
`targetset.cli.main([...])` in-process, one op after the other, and captures
each report. The first run of every op is checked against the reference in
`reference.py` once its clock has stopped; later runs must reproduce its
report byte for byte. With `--trace 0` timed passes over the ops give the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate
and give the per-layer metrics. The last line of stdout is the JSON result.
Workloads, metrics and the layer predictions are described in
`tsbench/README.md`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least this often and for at least this long; a single
# set-up varies by about 12% even after calibration.
SETUP_MIN_REPEATS = 7
SETUP_MIN_S = 3.0
OP_BUDGET_S = 5.0  # an op slower than this counts as failed
MIN_OPS = 100  # so that a p90 has ten samples beyond it
RUN_DEADLINE_S = 150.0  # the whole run stops here, failed, whatever is left

# The host's speed drifts by up to 2x within seconds, and pure-Python work
# of every kind drifts with it. Each timed interval is therefore bracketed by a fixed
# calibration slice and scaled to the speed at which that slice takes
# CALIB_REF_S: times are reported in seconds at reference speed. The slice
# runs no program code, so a change to the program cannot move it.
CALIB_STEPS = 2000
CALIB_REF_S = 0.0006

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("cli", "wtg", "instance", "engine", "degeneracy", "solvers", "oracles",
          "reductions", "checks", "generators")
# Per-layer times named after the functions whose self time they sum.
FUNCTION_TIMES = {
    "degeneracy.peel_ms": ("degeneracy.peel_ordering",),
    "engine.simulate_ms": ("engine.run_activation", "engine.run_with_incentives"),
    "engine.verify_ms": ("engine.is_target_set", "engine.is_target_vector"),
    "wtg.parse_ms": ("wtg.parse_wtg",),
    "instance.validate_ms": ("instance.validate",),
}
BRANCHES = ("degenerate", "split", "min_or_full")


def _calibration_work() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    items = []
    total = Fraction(0)
    for i in range(CALIB_STEPS):
        table[i % 61] = table.get(i % 61, 0) + i
        items.append(i * 7 % 13)
        if i % 16 == 0:
            total += Fraction(i % 5 + 1, i % 7 + 2)
    return time.perf_counter() - start


def calibration_slice() -> float:
    """Seconds a fixed mix of dict, list, integer and rational work takes now.

    The median of three timings, so that one interrupt does not set it.
    """
    return statistics.median(_calibration_work() for _ in range(3))


class Calibrated:
    """Scales wall times to reference speed by the calibration slices around them."""

    def __init__(self):
        self.before = calibration_slice()
        self.slices = [self.before]

    def scale(self, seconds: float) -> float:
        """`seconds` just measured, at reference speed; leaves a slice for the next call."""
        after = calibration_slice()
        self.slices.append(after)
        slice_s = (self.before + after) / 2
        self.before = after
        return seconds * CALIB_REF_S / slice_s


class OpBudgetExceeded(BaseException):
    """Raised from the alarm handler; a BaseException so no handler in the program swallows it."""


class OpRunner:
    """Runs one CLI op under a wall budget and captures its output."""

    def __init__(self, cli, deadline: float):
        self.cli = cli
        self.deadline = deadline
        self.armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self.armed:
            raise OpBudgetExceeded()

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv) -> tuple[int | None, str, str, float]:
        """Exit code (None when over budget), stdout, stderr and seconds taken."""
        budget = min(OP_BUDGET_S, self.time_left())
        if budget <= 0:
            return None, "", "run deadline passed", 0.0
        out, err = io.StringIO(), io.StringIO()
        rc = None
        elapsed = 0.0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, budget)
                self.armed = True
                start = time.perf_counter()
                try:
                    rc = self.cli.main(list(argv))
                finally:
                    elapsed = time.perf_counter() - start
                    self.armed = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except OpBudgetExceeded:
            return None, "", f"over the {budget:.1f} s op budget", elapsed
        except Exception as exc:  # a crash in one op must not end the run
            return None, "", f"raised {type(exc).__name__}: {exc}", elapsed
        return rc, out.getvalue(), err.getvalue(), elapsed


def _problem(op, rc, out, err) -> str | None:
    if rc is None:
        return err
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        return op.check(out)
    except (ValueError, KeyError, IndexError) as exc:
        return f"malformed report ({type(exc).__name__}: {exc})"


class OpSet:
    """The workload's ops, their first reports and the tally of failed ops."""

    def __init__(self, runner: OpRunner, ops):
        self.runner = runner
        self.ops = ops
        self.first: list[tuple[int | None, str, bool]] = []  # exit code, report, passed
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, index: int) -> float:
        """Run ops[index] and return its wall seconds.

        Its first run is checked against the reference (after the clock
        stopped); every later run must reproduce that report byte for byte.
        """
        op = self.ops[index]
        rc, out, err, elapsed = self.runner.run(op.argv)
        if index == len(self.first):
            problem = _problem(op, rc, out, err)
            self.first.append((rc, out, problem is None))
        elif not self.first[index][2]:
            problem = "failed its first check"
        elif (rc, out) != self.first[index][:2]:
            problem = err or "report differs from the first run's"
        else:
            problem = None
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"op {index} ({' '.join(op.argv[:2])}): {problem}")
        return elapsed

    def digest(self) -> str:
        """SHA-256 of every op's first exit code and report, in op order."""
        digest = hashlib.sha256()
        for i, (rc, out, _) in enumerate(self.first):
            digest.update(f"{i}\t{rc}\n".encode())
            digest.update(out.encode())
        return digest.hexdigest()


def timed_loop(opset: OpSet, seconds: float) -> dict:
    """Whole passes over every op until `seconds` have passed and MIN_OPS ran.

    The first pass is timed too; the number of passes never changes which
    ops are in the sample, only how often each appears.
    """
    gc.collect()
    calibrated = Calibrated()
    latencies = []  # seconds at reference speed
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(latencies) >= MIN_OPS:
            break
        if latencies and (elapsed >= 4 * seconds or opset.runner.time_left() <= 0):  # too slow
            break
        for i in range(len(opset.ops)):
            latencies.append(calibrated.scale(opset.run(i)))
    if len(latencies) < MIN_OPS:
        print(f"note: only {len(latencies)} timed ops; the p90 is not valid", flush=True)
    print(f"timed_ops {len(latencies)} over {len(opset.ops)} distinct ops; calibration slice "
          f"median {statistics.median(calibrated.slices) * 1000:.3f} ms, "
          f"reference {CALIB_REF_S * 1000} ms", flush=True)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
    }


def traced_passes(opset: OpSet, seconds: float, tracer) -> dict:
    """After a checking pass, alternate untraced and traced passes; derive per-layer metrics.

    Op times and span self times are calibrated op by op, as in `timed_loop`.
    """
    for i in range(len(opset.ops)):
        opset.run(i)
    calibrated = Calibrated()
    untraced_s = traced_s = 0.0
    self_ns: Counter[str] = Counter()
    traced_ops = 0
    first_pass = None
    start = time.perf_counter()
    while first_pass is None or (time.perf_counter() - start < seconds
                                 and opset.runner.time_left() > 0):
        for i in range(len(opset.ops)):
            untraced_s += calibrated.scale(opset.run(i))

        tracer.results.clear()
        first = len(tracer.spans)
        tracer.install()
        try:
            for i in range(len(opset.ops)):
                op_first = len(tracer.spans)
                with tracer.root(traced_ops):
                    elapsed = opset.run(i)
                scaled = calibrated.scale(elapsed)
                traced_s += scaled
                traced_ops += 1
                for name, ns in tracer.self_times_ns(op_first, len(tracer.spans)).items():
                    self_ns[name] += ns * scaled / elapsed if elapsed > 0 else ns
        finally:
            tracer.uninstall()
        if first_pass is None:
            first_pass = (tracer.call_counts(first, len(tracer.spans)), Counter(tracer.results))

    calls, results = first_pass
    per_op_ms = {name: ns / 1e6 / traced_ops for name, ns in self_ns.items()}
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = sum(
            (ms for name, ms in per_op_ms.items() if name.startswith(layer + ".")), 0.0)
    metrics["reports.render_ms"] = sum(
        (ms for name, ms in per_op_ms.items() if name.startswith("reports.")), 0.0)
    for metric, names in FUNCTION_TIMES.items():
        metrics[metric] = sum(per_op_ms.get(name, 0.0) for name in names)
    metrics["degeneracy.peel_calls"] = calls["degeneracy.peel_ordering"]
    metrics["instance.validate_calls"] = calls["instance.validate"]
    metrics["engine.calls"] = sum(c for name, c in calls.items() if name.startswith("engine."))
    metrics["oracles.calls"] = sum(c for name, c in calls.items() if name.startswith("oracles."))
    metrics["engine.rounds"] = results["engine.rounds"]
    metrics["oracles.explored"] = results["oracles.explored"]
    for branch in BRANCHES:
        metrics[f"solvers.branch_{branch}"] = results[f"solvers.branch_{branch}"]
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
    return metrics


def traced_run(opset: OpSet, seconds: float, workload, workdir: Path, rng) -> dict:
    """Per-layer metrics: one traced input build, then the traced passes."""
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer(tracing.package_modules(), sites=[workloads])
    calibrated = Calibrated()
    start = time.perf_counter()
    tracer.install()
    try:
        with tracer.root(-1):
            workload.build(rng, workdir)
    finally:
        tracer.uninstall()
    elapsed = time.perf_counter() - start
    build_scale = calibrated.scale(elapsed) / elapsed
    setup_ns = tracer.self_times_ns(0, len(tracer.spans))
    metrics = traced_passes(opset, seconds, tracer)
    metrics["generators.setup_ms"] = build_scale * sum(
        (ns for name, ns in setup_ns.items() if name.startswith("generators.")), 0) / 1e6

    layer_ms = {layer: metrics[f"{layer}.self_ms"] for layer in LAYERS}
    layer_ms["reports"] = metrics["reports.render_ms"]
    dominant = max(layer_ms, key=layer_ms.get)
    held = "held" if dominant == workload.dominant else "FAILED"
    print(f"dominant_layer {dominant} ({layer_ms[dominant]:.3f} ms/op); predicted "
          f"{workload.dominant}: {held}", flush=True)
    spans_path = ROOT / ".tsbench_out" / f"spans-{workload.name}.tsv.gz"
    tracer.write(spans_path)
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}", flush=True)
    return metrics


def load_program():
    """Import the program and the workloads afresh: the `cli` module and the workloads."""
    fresh = ("targetset", "workloads", "reference")
    for name in [n for n in sys.modules if n.split(".")[0] in fresh]:
        del sys.modules[name]
    import targetset.cli
    import workloads

    return targetset.cli, workloads.WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()

    if not (ROOT / "src" / "targetset" / "__init__.py").is_file():
        print(f"no targetset sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    known = load_program()[1]
    if args.workload not in known:
        print(f"unknown workload {args.workload!r}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    print(f"machine nproc {len(os.sched_getaffinity(0))} python {platform.python_version()} "
          f"{platform.machine()}", flush=True)
    print(f"workload {args.workload} seed {args.seed}", flush=True)

    workdir = ROOT / ".tsbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # One set-up: import the program afresh, then build the inputs.
        setup_times, import_times = [], []
        calibrated = Calibrated()
        setup_start = time.perf_counter()
        while (len(setup_times) < SETUP_MIN_REPEATS
               or time.perf_counter() - setup_start < SETUP_MIN_S):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            start = time.perf_counter()
            cli, workloads = load_program()
            imported = time.perf_counter()
            workload = workloads[args.workload]
            ops = workload.build(random.Random(f"{workload.name}:{args.seed}"), workdir)
            end = time.perf_counter()
            setup_times.append(calibrated.scale(end - start))
            import_times.append(setup_times[-1] * (imported - start) / (end - start))
        print(f"setup {len(setup_times)} times: median {statistics.median(setup_times) * 1000:.2f} ms, "
              f"import part {statistics.median(import_times) * 1000:.2f} ms", flush=True)
        opset = OpSet(OpRunner(cli, run_start + RUN_DEADLINE_S), ops)
        if args.trace:
            metrics = traced_run(opset, args.seconds, workload, workdir,
                                 random.Random(f"{workload.name}:{args.seed}"))
            metrics["cli.import_ms"] = statistics.median(import_times) * 1000
            units = {name: "count" for name in metrics}
            units.update({name: "ms" for name in metrics if name.endswith("_ms")})
            units["trace.overhead_pct"] = "%"
        else:
            metrics = timed_loop(opset, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"digest {workload.name} seed {args.seed} sha256 {opset.digest()}", flush=True)
    for failure in opset.failures[:10]:
        print(f"failure {failure}", flush=True)
    error_rate = len(opset.failures) / opset.attempted
    print(f"error_rate {error_rate} ({len(opset.failures)}/{opset.attempted} ops)", flush=True)
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]} {units[name]}", flush=True)
    result = {
        "correct": not opset.failures,
        "attempted": opset.attempted,
        "failed": len(opset.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
