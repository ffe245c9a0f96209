"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload at a reduced size: a few operations, measured and traced,
complete with no failure and produce every metric BENCHMARK.json declares;
a deliberately perturbed output counts as a failure.  Then run.py must
refuse, with a non-zero exit and no result, a directory holding only
BENCHMARK.json and the benchmark.  Exits 0 when everything holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker      # noqa: E402
import workloads   # noqa: E402

SEED = 3


def perturbed_failures(wl) -> list[str]:
    """Problems the checks report for one perturbed output of `wl`."""
    out = wl.op(0)
    if isinstance(wl, workloads.MarketQuotes):
        j, corr, *rest = out
        return wl.check(0, (j, dataclasses.replace(corr, R=corr.R * (1 + 1e-6)), *rest))
    if isinstance(wl, workloads.SurfaceScan):
        lines = wl.path.read_text().splitlines()
        k = wl.sampled_cells[0] + 1
        r, a, S = lines[k].split(",")
        lines[k] = f"{r},{a},{float(S) * (1 + 1e-6)!r}"
        wl.path.write_text("\n".join(lines) + "\n")
        return wl.check(0, out)
    if isinstance(wl, workloads.McSuite):
        doc = json.loads(wl.path.read_text())
        doc["estimates"]["mean_A"]["z"] = 4.5
        wl.path.write_text(json.dumps(doc))
        return wl.check(0, out)
    return wl.check(0, dataclasses.replace(out, value=out.value * 1.1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}   # run.py times set-up
    layers = {m["name"] for m in spec["per_layer"]}
    rundir = ROOT / ".perfbench_run" / "selftest"
    rundir.mkdir(parents=True, exist_ok=True)
    errors = []
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED, rundir, small=True)
        wl.warm_up()
        measured = worker.measure(wl, seconds=0.01)
        traced = worker.trace(wl, seconds=0.01, rundir=rundir)
        for kind, res, declared in (("measured", measured, e2e), ("traced", traced, layers)):
            if res["failed"]:
                errors.append(f"{name} {kind}: {res['failed']} failed: {res['problems']}")
            if declared - res["metrics"].keys():
                errors.append(f"{name} {kind}: missing {sorted(declared - res['metrics'].keys())}")
        fresh = cls(SEED, rundir, small=True)
        fresh.warm_up()
        caught = perturbed_failures(fresh)
        if not caught:
            errors.append(f"{name}: a perturbed output passed the checks")
        print(f"{name}: {measured['attempted']} measured and {traced['attempted']} traced "
              f"operations; perturbed output: {caught[:1]}", flush=True)

    bare = rundir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "mc-price",
                           "--seed", "1", "--seconds", "1"], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"run.py without a source tree: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
