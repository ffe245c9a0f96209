"""One fresh interpreter of the benchmark.

Imports gbmdd from the checkout's `src`, builds the workload's inputs from
the seed, warms up and prints READY: that is the set-up `run.py` times.
Mode `setup` stops there.  Mode `measure` runs the untraced closed loop and
prints the end-to-end figures; mode `trace` runs the traced loop, the same
number of operations untraced, and the thread-scaling timings, and prints
the per-layer figures.  The result is one `RESULT <json>` line on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SPEEDUP_REPEATS = 3
CALIBRATE_EVERY_S = 0.5
CALIBRATION_SHARE = 0.2   # calibration time over the operation time it brackets
MIN_KERNELS = 3


class Calibration:
    """A fixed reference computation run in blocks between operations: a
    kernel of interpreted Python with libm calls, small numpy calls and
    2 MiB numpy sweeps, as the workloads mix them.  Other tenants of a
    shared host slow it as they slow the program, so an operation's time
    over the time of the calibration blocks next to it depends far less on
    the host's momentary speed than either time does."""

    def __init__(self):
        self.vec = np.linspace(0.0, 1.0, 1 << 18)
        self.buf = np.empty_like(self.vec)   # in place: no allocation to raise peak RSS
        self.mat = np.full((6, 6), 0.1) + np.eye(6)
        self.times: list[float] = []         # every kernel run
        self.blocks: list[tuple[int, float]] = []   # (next operation, median kernel time)

    def kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(40_000):
            acc += math.exp(-1e-4 * i)
        for _ in range(1_000):
            self.mat @ self.mat
        for _ in range(2):
            np.cumsum(np.exp(self.vec, out=self.buf), out=self.buf)
        t = time.perf_counter() - t0
        self.times.append(t)
        return t

    def block(self, next_op: int, op_seconds: float) -> None:
        """Kernel runs taking about CALIBRATION_SHARE of `op_seconds`, the
        operation time since the previous block; at least MIN_KERNELS."""
        estimate = statistics.median(self.times) if self.times else 0.01
        runs = max(MIN_KERNELS, round(CALIBRATION_SHARE * op_seconds / estimate))
        self.blocks.append((next_op, statistics.median(self.kernel() for _ in range(runs))))

    def relative(self, latencies: list[float]) -> list[float]:
        """Each operation's time over the mean of the blocks before and
        after it."""
        rel = []
        for (start, before), (end, after) in zip(self.blocks, self.blocks[1:]):
            rel.extend(d / ((before + after) / 2) for d in latencies[start:end])
        return rel


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    work: int = 0
    failed: int = 0
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)


def closed_loop(wl, seconds: float | None = None, ops: int | None = None,
                calibration: Calibration | None = None) -> Loop:
    """One client: each operation starts once the previous one and its checks
    are done.  Runs for `seconds` of wall time, or for exactly `ops`
    operations.  Only the operations themselves are timed; the calibration,
    if given, runs a block before the first operation, between operations
    every CALIBRATE_EVERY_S and after the last one."""
    loop = Loop()
    clock = time.perf_counter
    begin = clock()
    calibrated = -math.inf
    last_block = 0
    i = 0
    while True:
        if calibration is not None and clock() - calibrated >= CALIBRATE_EVERY_S:
            calibration.block(i, sum(loop.latencies[last_block:]))
            calibrated, last_block = clock(), i
        t0 = clock()
        try:
            out = wl.op(i)
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            t1 = clock()
            problems = [f"operation {i} raised {exc!r}"]
        else:
            t1 = clock()
            problems = wl.check(i, out)
        loop.latencies.append(t1 - t0)
        if problems:
            loop.failed += 1
            loop.problems.extend(problems[: 5 - len(loop.problems)])
        else:
            loop.work += wl.work(out)
            loop.output_bytes += wl.output_bytes(out)
        i += 1
        if (i >= ops) if ops is not None else (clock() - begin >= seconds):
            if calibration is not None:
                calibration.block(i, sum(loop.latencies[last_block:]))
            return loop


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float) -> dict:
    calibration = Calibration()
    loop = closed_loop(wl, seconds=seconds, calibration=calibration)
    rss = peak_rss_mb()
    run = wl.run_checks()
    lat = loop.latencies
    p50 = statistics.median(lat)
    # the highest percentile with at least ten samples beyond it
    q = 99 if len(lat) >= 1000 else 90 if len(lat) >= 100 else 50
    tail = p50 if q == 50 else statistics.quantiles(lat, n=100, method="inclusive")[q - 1]
    work_per_s = loop.work / sum(lat)
    attempted = loop.ops + len(run)
    failed = loop.failed + sum(1 for p in run if p)
    stats = {"p50_s": p50, "tail_s": tail, "tail_q": q, "work_per_s": work_per_s}
    report = {"op_p50_us": [p50 * 1e6, "us"], f"op_p{q}_us": [tail * 1e6, "us"],
              "calibration_p50_us": [statistics.median(calibration.times) * 1e6, "us"],
              "work_per_s": [work_per_s, f"{wl.work_unit}/s"]}
    report.update({name: list(v) for name, v in wl.report(stats).items()})
    report["fail_ratio"] = [failed / attempted, "ratio"]
    return {
        "attempted": attempted, "failed": failed,
        "problems": (loop.problems + [msg for p in run for msg in p])[:5],
        "ops": loop.ops, "calibration_runs": len(calibration.times),
        "metrics": {"op_rel": statistics.median(calibration.relative(lat)), "peak_rss_mb": rss},
        "report": report,
    }


def thread_scaling(wl, nproc: int) -> tuple[float, bool]:
    """Median time of one operation at 1 thread over that at nproc threads,
    and whether the two give bit-identical results."""
    times = {1: [], nproc: []}
    identical = True
    for _ in range(SPEEDUP_REPEATS):
        outs = {}
        for threads in times:
            t0 = time.perf_counter()
            outs[threads] = wl.op_at_threads(threads)
            times[threads].append(time.perf_counter() - t0)
        identical &= outs[1] == outs[nproc]
    return statistics.median(times[1]) / statistics.median(times[nproc]), identical


def trace(wl, seconds: float, rundir: Path) -> dict:
    import tracing
    from workloads import nproc

    n = nproc()
    is_mc = wl.monte_carlo   # only MC workloads take a thread count
    speedup, identical = thread_scaling(wl, n) if is_mc else (0.0, False)
    wl.threads = 1   # spans nest on one stack, and self times add up to wall time
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = closed_loop(wl, seconds=seconds / 2)   # the untraced repeat takes the rest
    plain = closed_loop(wl, ops=traced.ops)
    run = wl.run_checks() + ([[] if identical else ["results differ between 1 and nproc threads"]]
                             if is_mc else [])
    traced_s, plain_s = sum(traced.latencies), sum(plain.latencies)
    m = tracing.layer_metrics(tracer, traced_s)
    m.update({
        "trace.untraced_wall_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.ops": float(traced.ops),
        "cli.output_bytes": traced.output_bytes / traced.ops,
        "montecarlo.thread_speedup": speedup,
        "montecarlo.bit_identical": float(identical),
        "montecarlo.nproc": float(n),
        "montecarlo.speedup_threads": float(n if is_mc else 0),
    })
    tracer.save(rundir / f"trace-{wl.name}.npz")
    loops = (traced, plain)
    return {
        "attempted": sum(lp.ops for lp in loops) + len(run),
        "failed": sum(lp.failed for lp in loops) + sum(1 for p in run if p),
        "problems": (traced.problems + plain.problems + [msg for p in run for msg in p])[:5],
        "metrics": m,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import gbmdd
    if Path(gbmdd.__file__).resolve().parent != src / "gbmdd":
        print(f"worker: imported gbmdd from {gbmdd.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    rundir = Path(args.rundir)
    wl = workloads.WORKLOADS[args.workload](args.seed, rundir)
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result = measure(wl, args.seconds) if args.mode == "measure" else trace(wl, args.seconds, rundir)
    result["nproc"] = workloads.nproc()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
