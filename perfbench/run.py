"""The gbmdd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  gbmdd is imported from the checkout's
`src`; nothing is installed.  The workload runs in fresh interpreters
started by this script (`worker.py`), one client in a closed loop.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  `setup_s` is the
median, over seven fresh interpreters, of the time from starting the
interpreter to the first timed operation (importing gbmdd, building the
inputs from the seed, warming up).  The other figures come from the last of
those interpreters, which then runs the workload for S seconds.
--trace 1 prints the per-layer metrics of the traced run instead.
--seed defaults to 1 and --seconds to run_seconds of BENCHMARK.json.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Temporary files go to
`.perfbench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
BUDGET_S = 170.0        # the whole run, every interpreter included


class BenchError(Exception):
    pass


def run_worker(mode: str, args, rundir: Path, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and its result (if any)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
           "--rundir", str(rundir), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONHASHSEED="0")   # the same dict layouts on every run
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (mode != "setup" and result is None):
        raise BenchError(f"{mode} worker exited with code {code} "
                         f"{'before READY' if ready is None else 'without a result'}")
    return ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gbmdd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} lacks src/gbmdd or BENCHMARK.json; run from a gbmdd checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    rundir = ROOT / ".perfbench_run"
    rundir.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S

    try:
        if args.trace:
            _, result = run_worker("trace", args, rundir, deadline)
            declared = spec["per_layer"]
        else:
            setups = [run_worker("setup", args, rundir, deadline)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            ready, result = run_worker("measure", args, rundir, deadline)
            setups.append(ready)
            result["metrics"]["setup_s"] = statistics.median(setups)
            declared = spec["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
        if missing:
            raise BenchError(f"worker did not produce {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}, one client in a closed loop, "
          f"nproc {result['nproc']}")
    if not args.trace:
        print(f"  {result['ops']} operations, {result['calibration_runs']} calibration kernels; "
              f"setup_s is the median of {SETUP_SAMPLES} interpreters")
    for name, v in metrics.items():
        print(f"  {name} = {v['value']:.6g} {v['unit']}")
    for name, (value, unit) in result.get("report", {}).items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
