"""starpolar benchmark: four seeded workloads, answers checked on every
operation, end-to-end metrics untraced and per-layer metrics traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load model: closed loop, one process,
one operation at a time, no threads, no warm-up pass; each run is a fresh
process, because a researcher's ``starpolar`` process pays its imports and
cache fills every time it starts.  A run repeats whole passes over the
workload's operations for about ``--seconds`` seconds (at least one pass).

Times are reported in reference seconds: wall time scaled by how fast the
machine ran a fixed integer loop just before and just after the operation
(see ``reference_s``), because the speed of a shared machine drifts by a
third over minutes.  Raw wall figures are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("jactest-plane", "jactest-space", "ideal-crosscheck",
             "apolar-roundtrip")
# cli._resolved reads these when a flag is absent; the benchmark passes
# every flag, and clears them so nothing outside the seed reaches the program
ENV_OVERRIDES = ("STARPOLAR_SEED", "STARPOLAR_PRIME", "STARPOLAR_TRIALS")
SETUP_PROBES = 4  # fresh processes timing set-up, beside the run's own
# with 7 operations per pass, three passes put the 90th percentile among the
# samples of the slowest operation instead of between two operations
MIN_PASSES = 3
REF_LOOP = 10_000         # iterations of the reference loop
REF_NOMINAL_S = 0.003     # its time at nominal speed (a fixed definition)
REF_EVERY_S = 0.25        # wall time between reference samples
REF_WINDOW_S = 1.0        # samples this close to an operation set its scale


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="time set-up only and print reference seconds (internal)")
    return p.parse_args(argv)


def _reference_loop():
    # integers only: nothing the garbage collector tracks, so the program's
    # heap cannot change the loop's speed
    p, x, acc = 2147483647, 12345, 0
    for i in range(REF_LOOP):
        x = (x * 48271 + i) % p
        acc = (acc + x * x) % p
    return acc


def reference_s() -> float:
    """Fastest of three runs of the reference loop: the machine's speed now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def timed_setup(workload: str, seed: int, workdir: str):
    """Import starpolar and build the workload's inputs.

    Returns (reference seconds, ops); the scale comes from reference
    samples taken right after."""
    t0 = time.perf_counter()
    import workloads  # imports starpolar, which is part of set-up
    ops = workloads.build(workload, seed, workdir)
    wall = time.perf_counter() - t0
    ref = statistics.median(reference_s() for _ in range(3))
    return wall * REF_NOMINAL_S / ref, ops


@dataclass
class Record:
    """One executed operation."""

    index: int          # position of the operation in the pass
    start: float
    end: float
    ok: bool
    error: str
    scale: float = 1.0  # reference seconds per wall second around it

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


def run_op(op, index: int, tracer=None, position=None) -> Record:
    """Run one operation and check its answer."""
    t0 = time.perf_counter()
    try:
        answer = op.run() if tracer is None else tracer.run(op, position)
    except Exception as exc:  # a raising operation is a failed operation
        return Record(index, t0, time.perf_counter(), False,
                      f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    if answer != op.expected:
        return Record(index, t0, t1, False,
                      f"answer {answer!r} != expected {op.expected!r}")
    return Record(index, t0, t1, True, "")


class ReferenceClock:
    """Samples of the machine's speed, taken between operations.

    A sample is taken whenever REF_EVERY_S of wall time has passed since the
    last one.  An operation's scale comes from the median of the samples
    taken from REF_WINDOW_S before it starts to REF_WINDOW_S after it ends,
    so one sample caught in a burst does not move it.
    """

    def __init__(self):
        self.times, self.refs = [], []
        self.sample()

    def sample(self):
        self.times.append(time.perf_counter())
        self.refs.append(reference_s())

    def tick(self):
        if time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, rec: Record) -> float:
        lo = bisect.bisect_left(self.times, rec.start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.times, rec.end + REF_WINDOW_S)
        return REF_NOMINAL_S / statistics.median(self.refs[lo:hi])


def run_passes(ops, seconds: float, clock: ReferenceClock, tracer=None,
               passes=None):
    """Whole passes for about ``seconds`` of wall time (or exactly ``passes``).

    The pass count is fixed after the first pass (at least MIN_PASSES), so
    every run has the same operation mix.  Returns (records, wall seconds,
    passes, per-pass work counts when traced).
    """
    records, work = [], []
    start = time.perf_counter()
    done = 0
    while passes is None or done < passes:
        mark = tracer.mark() if tracer else None
        for i, op in enumerate(ops):
            records.append(run_op(op, i, tracer, len(records)))
            clock.tick()
        if tracer:
            work.append(tracer.work_since(mark))
        done += 1
        if passes is None:
            passes = max(MIN_PASSES,
                         round(seconds / (time.perf_counter() - start)))
    wall = time.perf_counter() - start
    # as many samples after the last operation as a window holds elsewhere
    for _ in range(round(REF_WINDOW_S / REF_EVERY_S)):
        clock.sample()
    for rec in records:
        rec.scale = clock.scale(rec)
    return records, wall, done, work


def oracle_self_check(ops, records):
    """Re-run the cheapest operation against a corrupted expected answer;
    the oracle must count it as failed.  Returns (ok, line)."""
    op = ops[min(records[:len(ops)], key=lambda rec: rec.wall).index]
    true_expected = op.expected
    op.expected = _corrupt(true_expected)
    try:
        caught = not run_op(op, 0).ok
    finally:
        op.expected = true_expected
    return caught, (f"oracle self-check: {op.group} against a corrupted answer "
                    f"gives fail_ratio {1.0 if caught else 0.0:.1f} "
                    f"({'ok' if caught else 'ORACLE PASSED A WRONG ANSWER'})")


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    return (_corrupt(value[0]),) + tuple(value[1:])


def setup_samples(args, first: float):
    samples = [first]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def environment(args):
    import numpy
    import workloads
    digest = hashlib.sha256()
    for path in sorted((SRC / "starpolar").glob("*.py")):
        digest.update(path.read_bytes())
    env = {
        "workload": args.workload, "seed": args.seed,
        "prime": workloads.PRIME, "trials": workloads.TRIALS,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }
    if args.workload.startswith("jactest"):
        env["program_seed"] = workloads.program_seed(random.Random(args.seed))
    return env


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def declared_metrics(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def summarize(ops, records):
    """Per-group lines: operation count, median time, pinned answer note."""
    groups = {}
    for rec in records:
        g = groups.setdefault(ops[rec.index].group, [[], 0, ops[rec.index].note])
        g[0].append(rec.seconds)
        g[1] += not rec.ok
    return [f"  {name:<22} ops={len(t):<5} median_ms={1000 * statistics.median(t):<10.3f}"
            f" failed={bad}" + (f"  {note}" if note else "")
            for name, (t, bad, note) in groups.items()]


def timings(seconds):
    """(ops per second, p50 ms, p90 ms) over the given per-op seconds."""
    deciles = statistics.quantiles(seconds, n=10, method="inclusive")
    return (len(seconds) / sum(seconds), 1000 * statistics.median(seconds),
            1000 * deciles[8])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "starpolar" / "__init__.py").is_file():
        print(f"error: no starpolar sources under {SRC}", file=sys.stderr)
        return 2
    for name in ENV_OVERRIDES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    # the build step: byte-compile once so every set-up sample is alike
    compileall.compile_dir(str(SRC / "starpolar"), quiet=1)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    try:
        if args.probe_setup:
            print(timed_setup(args.workload, args.seed, workdir)[0])
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left while another run uses it
            (ROOT / ".bench_work").rmdir()


def measure(args, workdir) -> int:
    setup, ops = timed_setup(args.workload, args.seed, workdir)
    import starpolar
    if Path(starpolar.__file__).resolve().parent != SRC / "starpolar":
        print(f"error: imported starpolar from {starpolar.__file__}", file=sys.stderr)
        return 2
    clock = ReferenceClock()
    records, wall, passes, _ = run_passes(
        ops, args.seconds / 2 if args.trace else args.seconds, clock)
    failed = sum(not rec.ok for rec in records)
    ops_per_s, p50, p90 = timings([rec.seconds for rec in records])
    raw = timings([rec.wall for rec in records])
    lines = [f"{args.workload}: {len(records)} ops in {passes} passes, "
             f"{wall:.2f} s wall untraced",
             f"raw wall figures: ops_per_s={raw[0]:.4g} op_ms_p50={raw[1]:.4g} "
             f"op_ms_p90={raw[2]:.4g}; reference loop median "
             f"{1000 * statistics.median(REF_NOMINAL_S / rec.scale for rec in records):.3f} ms "
             f"(nominal {1000 * REF_NOMINAL_S:g} ms)"]
    lines += summarize(ops, records)
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t_records, _, t_passes, work = run_passes(
                ops, 0, clock, tracer, passes=passes)
        finally:
            tracer.uninstall()
        failed += sum(not rec.ok for rec in t_records)
        repeat = all(w == work[0] for w in work[1:])
        metrics = tracing.layer_metrics(tracer, t_records, t_passes)
        traced = timings([rec.seconds for rec in t_records])[0]
        metrics["trace.ops_per_s_delta"] = traced - ops_per_s
        lines += tracing.report(tracer, ops, t_records, t_passes, args.workload,
                                metrics)
        lines.append(f"tracing overhead: untraced {ops_per_s:.4g} ops/s, "
                     f"traced {traced:.4g} ops/s, "
                     f"delta {metrics['trace.ops_per_s_delta']:+.4g} ops/s")
        lines.append(f"exact work counts identical in all {t_passes} traced "
                     f"passes: {'yes' if repeat else 'NO'}")
        lines.append("work counts per pass: " + json.dumps(work[0]))
        records = records + t_records
        kind = "per_layer"
    else:
        repeat = True
        metrics = {
            "setup_s": statistics.median(setup_samples(args, setup)),
            "ops_per_s": ops_per_s, "op_ms_p50": p50, "op_ms_p90": p90,
            "answer_ok_ratio": (len(records) - failed) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        kind = "end_to_end"
    caught, check_line = oracle_self_check(ops, records)
    lines.append(check_line)
    for rec in [rec for rec in records if not rec.ok][:5]:
        print(f"failed: {ops[rec.index].group}: {rec.error}", file=sys.stderr)
    units = declared_metrics(kind)
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(args), sort_keys=True))
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0 and repeat and caught,
                      "attempted": len(records), "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
