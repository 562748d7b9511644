"""Benchmark of the absnormal command line, driven in-process.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

A run is a closed loop: one caller in one process, each operation (one
``absnormal.cli.main(argv)`` call) starting when the previous one has ended.
The workload's operation list (a cycle) repeats a fixed number of times, set
by ``--seconds`` and the workload's nominal cycle time, with fresh instances
for the ``kinks`` workloads.  Every report is checked against its
hand-derived answer.  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it traces the first cycle layer by layer and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed
from tracer import Tracer
from workloads import WORKLOADS, Op, Workload, cycles_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
SHOWN_FAILURES = 20
# keeps a run well inside the three minutes a run may take, even if the
# program has become several times slower
MAX_LOOP_S = 120


def import_program():
    """Import the package from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import absnormal.cli
    import absnormal.cones

    if Path(absnormal.__file__).resolve().parent != (SRC / "absnormal").resolve():
        raise ImportError(f"absnormal was imported from {absnormal.__file__}, not from {SRC}")
    return absnormal.cli, absnormal.cones


# ---------------------------------------------------------------------------
# set-up


def probe_setup(args) -> int:
    """Child side of a set-up measurement: import, write cycle 0, report readiness."""
    import_program()
    workdir = Path(args.setup_probe)
    workdir.mkdir(parents=True)
    Workload(args.workload, args.seed, SRC, workdir).cycle(0)
    print(repr(time.monotonic()))
    return 0


def measure_setup(args, workdir: Path, speed: Speed) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its first operation is
    ready, once per probe, raw and scaled.  Parent and child read the same
    system-wide monotonic clock."""
    raw, spans = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
        cmd += ["--seed", str(args.seed), "--setup-probe", str(workdir / f"probe-{i}")]
        speed.sample()
        begin, start = time.perf_counter(), time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {done.returncode}: {done.stderr.strip()}")
        raw.append(float(done.stdout.split()[-1]) - start)
        spans.append((begin, time.perf_counter()))
    speed.sample()
    return raw, [t * speed.scale(*span) for t, span in zip(raw, spans)]


# ---------------------------------------------------------------------------
# operations


class Loop:
    """Runs operations in a closed loop, timing each and keeping the failure
    accounting; samples the machine speed between operations."""

    def __init__(self, cli, speed: Speed) -> None:
        self.cli = cli
        self.speed = speed
        self.timings: list[tuple[float, float]] = []  # (start, seconds) per operation
        self.failures: list[tuple[str, str]] = []

    def run_op(self, op: Op) -> bytes:
        """One operation: returns the report bytes; a failure is recorded, never raised."""
        self.speed.sample_if_due()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except Exception as exc:  # an operation that raises must not end the run
            self.timings.append((start, time.perf_counter() - start))
            self.failures.append((op.label, f"raised {type(exc).__name__}: {exc}"))
            return b""
        self.timings.append((start, time.perf_counter() - start))
        text = out.getvalue()
        reason = _judge(op, code, text, err.getvalue())
        if reason:
            self.failures.append((op.label, reason))
        return text.encode("utf-8")

    def run_cycle(self, ops: list[Op], tracer: Tracer | None = None) -> str:
        """Run the operations in order; returns the sha256 of their reports."""
        digest = hashlib.sha256()
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            digest.update(self.run_op(op))
        return digest.hexdigest()

    def run_cycles(self, make_cycle, count: int) -> str:
        """Run ``count`` cycles made by ``make_cycle(index)``; returns the report
        digest of the first.  A cycle expected to end past ``MAX_LOOP_S`` is not
        started."""
        digests = []
        start = time.perf_counter()
        for index in range(count):
            elapsed = time.perf_counter() - start
            if index and elapsed + elapsed / index > MAX_LOOP_S:
                break
            digests.append(self.run_cycle(make_cycle(index)))
        return digests[0]

    def latencies(self) -> tuple[list[float], list[float]]:
        """Operation latencies, raw and scaled to nominal machine speed, after a
        closing speed sample that brackets the last operation."""
        self.speed.sample()
        raw = [seconds for _, seconds in self.timings]
        scaled = [s * self.speed.scale(start, start + s) for start, s in self.timings]
        return raw, scaled


def _judge(op: Op, code: int, text: str, err: str) -> str:
    reasons = []
    if code == 3:
        reasons.append(f"exit 3 (usage or input error) {err.strip()[:200]}")
    elif code != op.exit_code:
        reasons.append(f"exit {code}, expected {op.exit_code}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "; ".join(reasons + ["no JSON report on stdout"])
    reasons += op.check(report)
    return "; ".join(reasons)


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(loop: Loop, workload: Workload, first: list[Op], count: int, setup: tuple[list, list]) -> dict:
    digest = loop.run_cycles(lambda i: first if i == 0 else workload.cycle(i), count)
    raw, scaled = loop.latencies()
    print(f"{len(raw)} operations in {len(raw) // len(first)} cycles; report_digest of cycle 0: sha256 {digest}")
    print(
        f"raw: setup_s {statistics.median(setup[0]):.4f}, ops_per_s {len(raw) / sum(raw):.4f}, "
        f"op_p50_s {statistics.median(raw):.4f}; speed samples {len(loop.speed.kernel_s)}, "
        f"median kernel {statistics.median(loop.speed.kernel_s):.4f} s"
    )
    return {
        "setup_s": (statistics.median(setup[1]), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(loop: Loop, workload: Workload, first: list[Op], count: int, seed: int, cones) -> dict:
    """Trace cycle 0, then time it again untraced for the tracing overhead.

    Each untraced repeat starts from an empty generator cache, as the traced
    cycle did, so both do the same work.
    """
    tracer = Tracer()
    tracer.install()
    try:
        digest = loop.run_cycle(first, tracer)
    finally:
        tracer.uninstall()
    cache = cones._generators_cached.cache_info()
    idle = tracer.idle_layers(workload.name)
    if idle:
        names = ", ".join(idle)
        raise RuntimeError(f"traced layers {names} recorded no calls on {workload.name}; a binding was missed")

    def cold_repeat(_index: int) -> list[Op]:
        cones._generators_cached.cache_clear()
        return first

    loop.run_cycles(cold_repeat, max(1, count - 1))
    raw, scaled = loop.latencies()
    n = len(first)

    def cycle_sums(times: list[float]) -> tuple[float, float]:
        """Traced cycle and median untraced repeat."""
        return sum(times[:n]), statistics.median(sum(times[i : i + n]) for i in range(n, len(times), n))

    traced_s, untraced_s = cycle_sums(raw)
    traced_scaled, untraced_scaled = cycle_sums(scaled)
    spans_path = WORK / f"spans-{workload.name}-s{seed}.jsonl"
    tracer.write(spans_path)

    repeats = len(raw) // n - 1
    print(
        f"traced cycle 0 ({n} operations): {traced_s:.3f} s raw; untraced, median of {repeats}: "
        f"{untraced_s:.3f} s raw; overhead {traced_scaled - untraced_scaled:+.3f} s scaled"
    )
    print(f"report_digest of cycle 0: sha256 {digest}; spans in {spans_path.relative_to(ROOT)}")
    print("layer self time in the traced cycle:")
    for layer, value in sorted(tracer.layer_self_s().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<13} {value:9.4f} s  {100 * value / traced_s:5.1f} %")
    metrics = tracer.metrics(cache.hits, cache.misses)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_scaled - untraced_scaled, "s")
    return metrics


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "absnormal" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program to measure: {SRC / 'absnormal'} is missing\n")
        return 2
    if args.setup_probe:
        return probe_setup(args)

    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        speed = Speed()
        setup = measure_setup(args, workdir, speed)
        cli, cones = import_program()
        workload = Workload(args.workload, args.seed, SRC, workdir / "problems")
        workload.workdir.mkdir()
        first = workload.cycle(0)
        loop = Loop(cli, speed)
        count = cycles_for(args.workload, args.seconds)
        if args.trace:
            metrics = traced_run(loop, workload, first, count, args.seed, cones)
        else:
            metrics = timed_run(loop, workload, first, count, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(loop.timings), len(loop.failures)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, {failed} failed")
    for label, reason in loop.failures[:SHOWN_FAILURES]:
        print(f"  FAILED {label}: {reason}")
    if failed > SHOWN_FAILURES:
        print(f"  ... and {failed - SHOWN_FAILURES} more")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ops_ratio':<30} {failed / attempted:>14.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
