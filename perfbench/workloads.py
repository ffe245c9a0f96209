"""The benchmark's four workloads.

Each workload is one client in a closed loop: operation i + 1 starts only
after operation i and its checks have finished.  A workload builds every
input from the seed alone, performs one operation per `op(i)` call (the
timed part) and checks each output in `check(i, out)`, outside the timed
region.  `run_checks()` holds the checks that look at the run as a whole.

The program is reached only through module attributes (`moments.correlation`,
`cli.main`, ...) looked up at call time, so the traced run's rebinding of
those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from gbmdd import cli, montecarlo, moments, pricing
from gbmdd.moments import GbmParams

import reference

TOL = 1e-10                  # relative agreement with the mpmath reference
BENCH_POINT = GbmParams(r=0.05, sigma=0.2, T=1.0)
MAX_Z = 4.0
MAX_PRICE_GAP = 0.05         # approximation against MC, the bound of criterion 9


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _point_args(p: GbmParams) -> list[str]:
    return ["--r", repr(p.r), "--sigma", repr(p.sigma), "--T", repr(p.T)]


class Workload:
    name = ""
    work_unit = ""
    monte_carlo = False
    threads = 1              # MC worker threads of one operation; 1 off the MC path

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        raise NotImplementedError

    def work(self, out) -> int:
        """Work units (quotes, cells, path-steps) one operation completed."""
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def run_checks(self) -> list[list[str]]:
        """Checks on the run as a whole, one problem list per check made."""
        return []

    def op_at_threads(self, threads: int):
        """One operation at the given thread count, returning a value that is
        equal across thread counts when results are bit-identical."""
        raise NotImplementedError(f"{self.name} runs no Monte Carlo")

    def output_bytes(self, out) -> int:
        """Bytes `cli.main` wrote for this operation; 0 off the CLI."""
        return 0

    def report(self, stats: dict) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, by the names ROADMAP uses,
        from the loop's `p50_s`, `tail_s`, `tail_q` and `work_per_s`."""
        return {}


class MarketQuotes(Workload):
    """Library API, one parameter point per operation: correlation, moments
    1..8 and both Asian price approximations.  One point in eight is a
    degeneracy of the paper: r = 0 exactly, or sigma^2 T <= 1e-3."""

    name = "market-quotes"
    work_unit = "quotes"
    MAX_M = 8

    def __init__(self, seed: int, rundir, small: bool = False):
        rng = np.random.default_rng(seed)
        side = 8 if small else 32
        # (T, r) stratified on a side x side grid, one point per cell: the
        # share of points on each exp_dd route then hardly depends on the seed
        cells = rng.permutation(side * side).tolist()
        self.points: list[GbmParams] = []
        self.strikes: list[float] = []
        for j, cell in enumerate(cells):
            u_T, u_r, sigma, u_var, u_K = rng.uniform(size=5).tolist()
            T = 0.1 + 4.9 * (cell // side + u_T) / side
            r = 0.0 if j % 16 == 0 else -0.02 + 0.14 * (cell % side + u_r) / side
            if j % 16 == 8:
                sigma = math.sqrt(10.0 ** (-8.0 + 5.0 * u_var) / T)
            else:
                sigma = 0.05 + 0.75 * sigma
            rT = r * T
            mean_A = math.expm1(rT) / rT if rT else 1.0
            self.points.append(GbmParams(r=r, sigma=sigma, T=T))
            self.strikes.append(mean_A * (0.8 + 0.4 * u_K))
        # checked against mpmath: both degeneracies (j = 0, 8) and six regular points
        self.sampled = set(range(0, 16, 2))
        self._refs: dict[int, tuple[float, list[float]]] = {}

    def op(self, i):
        j = i % len(self.points)
        p = self.points[j]
        return (j,
                moments.correlation(p),
                moments.moment_table(p, self.MAX_M),
                pricing.floating_strike_asian_approx(p),
                pricing.fixed_strike_asian_approx(p, self.strikes[j]))

    def work(self, out):
        return 1

    def check(self, i, out):
        j, corr, table, floating, fixed = out
        problems = []
        R = corr.R
        if not (1.0 / math.sqrt(2.0) <= R <= 1.0 + 1e-12):
            problems.append(f"point {j}: R = {R!r} outside [1/sqrt(2), 1]")
        vals = [t.value for t in table]
        if len(vals) != self.MAX_M + 1 or not all(math.isfinite(v) and v > 0 for v in vals):
            problems.append(f"point {j}: moments not finite and positive: {vals}")
        elif vals[2] < vals[1] ** 2:
            problems.append(f"point {j}: E A^2 < (E A)^2")
        for q in (floating, fixed):
            if not (math.isfinite(q.value) and q.value >= 0):
                problems.append(f"point {j}: price {q.value!r} not finite and >= 0")
        if j in self.sampled and not problems:
            if j not in self._refs:
                p = self.points[j]
                self._refs[j] = (reference.correlation_R(p.r, p.sigma, p.T),
                                 reference.moments_A(p.r, p.sigma, p.T, self.MAX_M))
            R_ref, m_ref = self._refs[j]
            if reference.rel_err(R, R_ref) > TOL:
                problems.append(f"point {j}: R off the reference by {reference.rel_err(R, R_ref):.2e}")
            for m in range(1, self.MAX_M + 1):
                if reference.rel_err(vals[m], m_ref[m]) > TOL:
                    problems.append(f"point {j}: moment {m} off the reference")
        return problems

    def report(self, stats):
        out = {"quote_p50_us": (stats["p50_s"] * 1e6, "us")}
        if stats["tail_q"] == 99:
            out["quote_p99_us"] = (stats["tail_s"] * 1e6, "us")
        return out


class SurfaceScan(Workload):
    """`gbmdd scan` through `cli.main` on the published 121 x 100 window,
    shifted by a seed-drawn fraction of one grid step, CSV to a file."""

    name = "surface-scan"
    work_unit = "cells"

    def __init__(self, seed: int, rundir, small: bool = False):
        rng = np.random.default_rng(seed)
        na, nr = (13, 10) if small else (121, 100)
        fa, fr = rng.uniform(size=2).tolist()
        da, dr = 60.0 / (na - 1), 9.9 / (nr - 1)
        self.a_min, self.a_max = -20.0 + fa * da, 40.0 + fa * da
        self.r_min, self.r_max = 0.1 + fr * dr, 10.0 + fr * dr
        self.cells = na * nr
        self.path = rundir / "scan.csv"
        self.warm_path = rundir / "scan-warm-up.csv"
        self.argv = ["scan", "--a-min", repr(self.a_min), "--a-max", repr(self.a_max),
                     "--r-min", repr(self.r_min), "--r-max", repr(self.r_max),
                     "--na", str(na), "--nr", str(nr), "--output", str(self.path)]
        self.sampled_cells = sorted(int(k) for k in rng.choice(self.cells, 8, replace=False))
        self.digest = None

    def warm_up(self):
        cli.main(["scan", "--na", "3", "--nr", "3", "--output", str(self.warm_path)])

    def op(self, i):
        return cli.main(self.argv)

    def work(self, out):
        return self.cells

    def output_bytes(self, out):
        return self.path.stat().st_size

    def check(self, i, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        data = self.path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is not None:
            return [] if digest == self.digest else ["CSV differs from the run's first repeat"]
        problems = self._check_csv(data.decode())
        if not problems:
            self.digest = digest
        return problems

    def _check_csv(self, text: str) -> list[str]:
        lines = text.splitlines()
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        if not lines or lines[0] != "r,a,S":
            return ["missing r,a,S header"]
        if len(rows) != self.cells:
            return [f"{len(rows)} rows, expected {self.cells}"]
        vals = np.array([[float(x) for x in row.split(",")] for row in rows])
        problems = []
        corners = (vals[0, 0], vals[0, 1], vals[-1, 0], vals[-1, 1])
        if not np.allclose(corners, (self.r_min, self.a_min, self.r_max, self.a_max), rtol=1e-12):
            problems.append(f"grid corners {corners} are not the requested window")
        if not vals[:, 2].min() >= 1.0 - 1e-9:
            problems.append(f"min S = {vals[:, 2].min()!r} below 1")
        for k in self.sampled_cells:
            r, a, S = vals[k].tolist()
            err = reference.rel_err(S, reference.s_statistic(r, a))
            if not err <= TOL:
                problems.append(f"S({r!r}, {a!r}) off the reference by {err:.2e}")
        return problems

    def report(self, stats):
        return {"cells_per_s": (stats["work_per_s"], "1/s")}


class McSuite(Workload):
    """`gbmdd mc` through `cli.main` at the shape of criterion 8 (1000 steps,
    one thread) on the BENCH point, JSON to a file; a seed-drawn MC seed."""

    name = "mc-suite"
    work_unit = "path-steps"
    monte_carlo = True
    ESTIMATES = ("mean_S", "mean_A", "second_moment_A", "cross_moment_SA", "correlation")

    def __init__(self, seed: int, rundir, small: bool = False):
        rng = np.random.default_rng(seed)
        self.paths, self.steps = (512, 50) if small else (8192, 1000)
        self.mc_seed = int(rng.integers(2 ** 62))
        self.path = rundir / "mc.json"
        self.digest = None
        self.headline_stderr = math.nan

    def argv(self, threads: int, paths: int, steps: int) -> list[str]:
        return ["mc", *_point_args(BENCH_POINT), "--paths", str(paths), "--steps", str(steps),
                "--seed", str(self.mc_seed), "--threads", str(threads), "--output", str(self.path)]

    def warm_up(self):
        cli.main(self.argv(1, 256, 16))

    def op(self, i):
        return cli.main(self.argv(self.threads, self.paths, self.steps))

    def op_at_threads(self, threads):
        rc = cli.main(self.argv(threads, self.paths, self.steps))
        return rc, self.path.read_bytes()

    def work(self, out):
        return self.paths * self.steps

    def output_bytes(self, out):
        return self.path.stat().st_size

    def check(self, i, rc):
        if rc != 0:
            return [f"exit code {rc}"]
        data = self.path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is not None:
            return [] if digest == self.digest else ["output differs from the run's first repeat"]
        problems = self._check_estimates(json.loads(data)["estimates"])
        if not problems:
            self.digest = digest
        return problems

    def _check_estimates(self, est: dict) -> list[str]:
        p = BENCH_POINT
        rT, b = p.r * p.T, (2 * p.r + p.sigma ** 2) * p.T
        m = reference.moments_A(p.r, p.sigma, p.T, 2)
        truth = {"mean_S": math.exp(rT), "mean_A": m[1], "second_moment_A": m[2],
                 "cross_moment_SA": reference.exp_dd([rT, b]),
                 "correlation": reference.correlation_R(p.r, p.sigma, p.T)}
        problems = []
        for name in self.ESTIMATES:
            if name not in est:
                problems.append(f"{name} missing")
                continue
            row = est[name]
            if not (math.isfinite(row["value"]) and row["stderr"] > 0 and math.isfinite(row["stderr"])):
                problems.append(f"{name}: value or stderr not finite and positive")
            if not abs(row["z"]) <= MAX_Z:
                problems.append(f"{name}: |z| = {abs(row['z']):.2f} > {MAX_Z}")
            if not reference.rel_err(row["analytic"], truth[name]) <= TOL:
                problems.append(f"{name}: analytic value off the reference")
        if not problems:
            self.headline_stderr = est["mean_A"]["stderr"]
        return problems

    def report(self, stats):
        return {"path_steps_per_s": (stats["work_per_s"], "1/s"),
                "mc_stderr_sqrt_s": (self.headline_stderr * math.sqrt(stats["p50_s"]), "sqrt(s)")}


class McPrice(Workload):
    """`estimate_payoff` of the floating-strike Asian call at 52 weekly steps
    on the BENCH point, through the library: `gbmdd price` has no thread
    flag.  The timed operation runs on one thread, as the calibration does:
    on a shared host a neighbour that takes one of two cores slows a
    two-thread operation far more than the one-thread calibration, so the
    ratio would measure the neighbour.  Thread scaling is measured in the
    traced run (`montecarlo.thread_speedup`) and bit-identity across thread
    counts in `run_checks`."""

    name = "mc-price"
    work_unit = "path-steps"
    monte_carlo = True

    def __init__(self, seed: int, rundir, small: bool = False):
        rng = np.random.default_rng(seed)
        self.paths, self.steps = (8192, 12) if small else (16384, 52)
        self.check_paths = 1024 if small else 8192
        self.mc_seed = int(rng.integers(2 ** 62))
        self.payoff = montecarlo.FloatingStrikeAsianCall()
        self.first = None
        self.approx = math.nan

    def _estimate(self, paths: int, steps: int, threads: int):
        cfg = montecarlo.McConfig(paths=paths, steps=steps, seed=self.mc_seed)
        return montecarlo.estimate_payoff(BENCH_POINT, cfg, self.payoff, threads=threads)

    def warm_up(self):
        self._estimate(256, 8, self.threads)
        self.approx = pricing.floating_strike_asian_approx(BENCH_POINT).value

    def op(self, i):
        return self._estimate(self.paths, self.steps, self.threads)

    def op_at_threads(self, threads):
        est = self._estimate(self.paths, self.steps, threads)
        return est.value, est.stderr, est.paths_used

    def work(self, out):
        return self.paths * self.steps

    def check(self, i, est):
        got = (est.value, est.stderr, est.paths_used)
        if self.first is not None:
            return [] if got == self.first else ["estimate differs from the run's first repeat"]
        if not (math.isfinite(est.value) and est.value > 0 and 0 < est.stderr < math.inf):
            return [f"estimate {got} not finite and positive"]
        if est.paths_used != self.paths:
            return [f"{est.paths_used} paths used, expected {self.paths}"]
        gap = (self.approx - est.value) / est.value
        if not abs(gap) <= MAX_PRICE_GAP:
            return [f"approximation gap {gap:.2%} beyond {MAX_PRICE_GAP:.0%}"]
        self.first = got
        return []

    def run_checks(self):
        """Bit-identical estimates at 1 thread and at nproc (at least 2)
        threads, on a reduced path count."""
        one = self._estimate(self.check_paths, self.steps, 1)
        many = self._estimate(self.check_paths, self.steps, max(2, nproc()))
        if (one.value, one.stderr) != (many.value, many.stderr):
            return [[f"1 thread gives {one}, {max(2, nproc())} threads give {many}"]]
        return [[]]

    def report(self, stats):
        stderr = self.first[1] if self.first else math.nan
        return {"path_steps_per_s": (stats["work_per_s"], "1/s"),
                "mc_stderr_sqrt_s": (stderr * math.sqrt(stats["p50_s"]), "sqrt(s)")}


WORKLOADS = {w.name: w for w in (MarketQuotes, SurfaceScan, McSuite, McPrice)}
