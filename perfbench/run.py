"""Benchmark runner for sdgr.

    python3 perfbench/run.py --workload kem_p41 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the CLI workload starts ``python -m sdgr.cli`` with ``src`` on
PYTHONPATH, so nothing needs installing.  The workload's set-up (repeated,
median reported as ``setup_s``) and warm-up run first, then a closed loop of
ops for ``--seconds``.  With ``--trace 1`` the run goes on to a traced phase
that reports the per-layer metrics of BENCHMARK.json.  Human-readable lines
come first; the last line of standard output is the JSON result.  A copy of
the result with the environment record, and the spans of a traced run, are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
MIN_BEYOND_TAIL = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Loop:
    """Outcome of one closed loop of ops."""

    ops: int = 0
    failed: int = 0
    elapsed_ns: int = 0  # from the loop's start to the end of its last op
    # compact arrays, so that the bookkeeping of a faster run adds little
    # to the peak RSS the benchmark reports
    latencies_ns: array = field(default_factory=lambda: array("q"))
    # time of the reference work before each op and after the last one
    refs_ns: array = field(default_factory=lambda: array("q"))
    digest: str = ""
    prefix_digest: str | None = None  # digest of the first `digest_ops` ops

    @property
    def throughput(self) -> float:
        return self.ops / (self.elapsed_ns / 1e9)

    def ref_latencies(self) -> array:
        """Each op's latency in refs: divided by the mean time of the reference
        runs just before and just after it.  The host's speed changes from
        one op to the next as well as from one minute to the next; the
        median of four or eight reference runs around the op followed it
        less closely, and left p95 up to twice as spread across runs."""
        refs = self.refs_ns
        return array("d", (2 * lat / (refs[i] + refs[i + 1]) for i, lat in enumerate(self.latencies_ns)))

    def latency_stats(self, slice_ops: int) -> dict:
        """Latency and throughput in refs, and the same on the wall clock.

        The median is over all ops.  The tail is the median, over slices of
        `slice_ops` consecutive ops, of the highest percentile a slice
        supports: the fixed slice size fixes that percentile whatever the
        speed, and a burst of outside load moves a few slices, not the
        figure.  A trailing partial slice is left out; a loop shorter than
        one slice is one slice."""
        size = min(slice_ops, self.ops)
        slices = self.ops // size
        tail_q = tail_percentile(size)

        def median_and_tail(values):
            tails = [percentile(sorted(values[j * size:(j + 1) * size]), tail_q) for j in range(slices)]
            return percentile(sorted(values), 50), statistics.median(tails)

        ref_latencies = self.ref_latencies()
        ref_p50, ref_tail = median_and_tail(ref_latencies)
        wall_p50, wall_tail = median_and_tail(self.latencies_ns)
        refs = sorted(self.refs_ns)
        return {
            "latency_p50_ref": ref_p50,
            "latency_tail_ref": ref_tail,
            "throughput_ops_kref": 1000 * self.ops / sum(ref_latencies),
            "latency_tail_percentile": tail_q,
            "latency_slices": slices,
            "latency_slice_ops": size,
            "wall_throughput_ops_s": self.throughput,
            "wall_latency_p50_ms": wall_p50 / 1e6,
            "wall_latency_tail_ms": wall_tail / 1e6,
            "ref_p10_p50_p90_ms": [percentile(refs, q) / 1e6 for q in (10, 50, 90)],
        }


@dataclass
class Tally:
    """Ops attempted and failed over the whole run."""

    attempted: int = 0
    failed: int = 0

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def loop(self, loop: Loop) -> None:
        self.attempted += loop.ops
        self.failed += loop.failed


_reported_errors = 0


def guarded(fn, *args) -> tuple[bool, bytes]:
    """Run one op; an exception counts as a failed op and its traceback is shown."""
    global _reported_errors
    try:
        return fn(*args)
    except Exception as exc:
        if _reported_errors < 3:
            traceback.print_exc(file=sys.stderr)
        _reported_errors += 1
        return False, f"exception {type(exc).__name__}".encode()


def timed_ns(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0


def closed_loop(op, rng, *, seconds=math.inf, count=None, digest_ops=0, tracer=None, reference=None) -> Loop:
    """Run op(rng, i) for i = 0, 1, ... until `count` ops or `seconds` have passed.
    The next op starts when the previous one returns.  With `reference`, that
    work is timed before the first op and after each op, outside the ops'
    latencies and the loop's throughput."""
    loop = Loop()
    digest = hashlib.shake_256()
    if reference is not None:
        loop.refs_ns.append(timed_ns(reference))
    start = time.perf_counter_ns()
    deadline = start + seconds * 1e9
    paused_ns = 0  # time spent on the reference work
    while (count is None or loop.ops < count) and time.perf_counter_ns() < deadline:
        if tracer is not None:
            tracer.op = loop.ops
        t0 = time.perf_counter_ns()
        ok, out = guarded(op, rng, loop.ops)
        t1 = time.perf_counter_ns()
        loop.latencies_ns.append(t1 - t0)
        loop.elapsed_ns = t1 - start - paused_ns
        if reference is not None:
            loop.refs_ns.append(timed_ns(reference))
            paused_ns += time.perf_counter_ns() - t1
        loop.failed += not ok
        digest.update(len(out).to_bytes(8, "big") + out)
        loop.ops += 1
        if loop.ops == digest_ops:
            loop.prefix_digest = digest.hexdigest(32)
    loop.digest = digest.hexdigest(32)
    return loop


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND_TAIL of n samples above it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100 * n) >= MIN_BEYOND_TAIL:
            return q
    return 50.0


def environment() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without running git."""
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
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sdgr").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def solve_phase(wl, rng, tally: Tally, report: dict) -> None:
    """games_toy: the exhaustive SDPD solves, each timed on its own."""
    times, digest = [], hashlib.shake_256()
    for _ in range(wl.solves):
        t0 = time.perf_counter()
        ok, out = guarded(wl.solve, rng)
        times.append(time.perf_counter() - t0)
        tally.op(ok)
        digest.update(out)
    report.update(solve_s=times, solve_digest=digest.hexdigest(32))


def traced_phase(wl, wl_mod, tracing, seed: int, tally: Tally, report: dict):
    """After a warm-up, run the traced ops twice from the same seed: untraced,
    then traced after one traced set-up.  Returns (per-layer metrics, tracer)."""
    n = wl.trace_ops
    tally.loop(closed_loop(wl.trace_op, wl_mod.seeded(seed, "warmup"), count=wl.warmup_ops))
    ref = closed_loop(wl.trace_op, wl_mod.seeded(seed, "ops"), count=n)
    h2_probe = wl_mod.rejection_probe(wl_mod.kem.rep_ring(wl.priv.s)) if wl.name == "kem_p41" else None
    targets = wl_mod.layer_targets(h2_probe)
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        wl.trace_setup(seed)
        traced = closed_loop(wl.trace_op, wl_mod.seeded(seed, "ops"), count=n, tracer=tracer)
        if wl.name == "games_toy":
            tracer.op = n
            tally.op(guarded(wl.solve, wl_mod.seeded(seed, "solves"))[0])
    tally.loop(ref)
    tally.loop(traced)
    report["checks"]["traced_output_matches"] = ref.digest == traced.digest
    if report["prefix_digest"] is not None:
        report["checks"]["untraced_prefix_matches"] = report["prefix_digest"] == ref.digest
    report.update(trace_ops=n, trace_digest=traced.digest, spans=len(tracer.spans))

    values = {}
    for name, *_ in targets:
        values[f"{name}.calls"] = tracer.calls[name] / n
        values[f"{name}.self_us"] = tracer.self_ns[name] / 1e3 / n
    counters = tracer.counters
    for name in wl_mod.LAYER_COUNTERS:
        values[name] = counters[name] / n
    candidates = counters["games.sdpd.candidates"]
    values["games.sdpd.witnesses_per_candidate"] = (
        counters["games.sdpd.witnesses"] / candidates if candidates else 0.0)
    values["cli.import_ms"] = wl.import_ms() if wl.name == "cli_p19" else 0.0
    values["solve_s"] = statistics.median(report["solve_s"]) if "solve_s" in report else 0.0
    values["trace.untraced_ops_s"] = ref.throughput
    values["trace.traced_ops_s"] = traced.throughput
    values["trace.overhead_ops_s"] = traced.throughput - ref.throughput
    values["fail_ratio"] = tally.failed / tally.attempted
    return values, tracer


def run(args, wl_mod, tracing) -> tuple[dict, dict, object]:
    """Returns (metric values, report, tracer or None)."""
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        wl = wl_mod.WORKLOADS[args.workload](work_dir)
        for _ in range(wl.reference_warmups):
            wl.reference()
        setup_times, setup_walls = [], []
        for _ in range(wl.setup_reps):
            refs = [timed_ns(wl.reference) for _ in range(wl.setup_ref_runs)]
            t0 = time.perf_counter()
            wl.setup(args.seed)
            wl.warmup(args.seed)
            wall = time.perf_counter() - t0
            refs += [timed_ns(wl.reference) for _ in range(wl.setup_ref_runs)]
            setup_walls.append(wall)
            setup_times.append(wall * wl.nominal_ref_s / (statistics.median(refs) / 1e9))

        tally, report = Tally(), {"checks": {}}
        seconds = args.seconds
        if wl.name == "games_toy":
            t0 = time.perf_counter()
            solve_phase(wl, wl_mod.seeded(args.seed, "solves"), tally, report)
            seconds = max(seconds - (time.perf_counter() - t0), seconds / 2)

        main = closed_loop(wl.op, wl_mod.seeded(args.seed, "ops"), seconds=seconds, digest_ops=wl.trace_ops,
                           reference=wl.reference)
        tally.loop(main)
        peak_rss_mb = wl.peak_rss_mb()  # before the statistics below allocate
        stats = main.latency_stats(wl.slice_ops)
        values = {
            "throughput_ops_kref": stats.pop("throughput_ops_kref"),
            "latency_p50_ref": stats.pop("latency_p50_ref"),
            "latency_tail_ref": stats.pop("latency_tail_ref"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        report.update(ops=main.ops, **stats, setup_wall_s=statistics.median(setup_walls),
                      setup_times_s=setup_times, setup_walls_s=setup_walls, digest=main.digest,
                      prefix_ops=wl.trace_ops, prefix_digest=main.prefix_digest)
        if wl.name == "games_toy":
            report["dsdp_advantage"] = wl.advantage()
            report["checks"]["dsdp_advantage"] = wl.advantage() >= wl.min_advantage

        tracer = None
        if args.trace:
            values, tracer = traced_phase(wl, wl_mod, tracing, args.seed, tally, report)
        report.update(attempted=tally.attempted, failed=tally.failed,
                      fail_ratio=tally.failed / tally.attempted)
        return values, report, tracer
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdgr" / "__init__.py").is_file():
        print(f"error: sdgr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    values, report, tracer = run(args, workloads, tracing)
    if set(values) != set(declared):
        print(f"error: measured metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3

    env = environment()
    result = {
        "correct": report["failed"] == 0 and all(report["checks"].values()),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "report": report, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.tsv")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    for key, value in report.items():
        if key not in ("setup_times_s", "setup_walls_s"):
            print(f"{key}={json.dumps(value)}")
    for name in declared:
        print(f"{name}={values[name]!r} {declared[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
