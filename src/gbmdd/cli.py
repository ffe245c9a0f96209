"""Command-line front end: analytics, surface scans, Monte Carlo
verification and pricing as subcommands with machine-readable output.

Exit codes: 0 success, 1 usage error, 2 numerical-domain error, 3 oracle
suite failure.  Reports go to stdout, diagnostics to stderr.  The default
Monte Carlo seed can be overridden with the GBMDD_SEED environment
variable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import divdiff, moments, montecarlo, pricing
from .moments import GbmParams, GridSpec

DEFAULT_SEED = 20240613

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_ORACLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2 for
    numerical-domain errors and uses 1 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    env = os.environ.get("GBMDD_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"GBMDD_SEED must be an integer, got {env!r}")


class UsageError(Exception):
    pass


def _add_gbm_flags(sub):
    sub.add_argument("--r", type=float, default=0.05, help="rate (default 0.05)")
    sub.add_argument("--sigma", type=float, default=0.2, help="volatility (default 0.2)")
    sub.add_argument("--T", type=float, default=1.0, help="horizon (default 1)")


def _add_output_flags(sub, formats=("json",)):
    sub.add_argument("--format", choices=list(formats), default=formats[0])
    sub.add_argument("--output", "-o", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gbmdd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_mom = subs.add_parser("moments", help="table of time-average moments 0..max-m")
    _add_gbm_flags(p_mom)
    p_mom.add_argument("--max-m", type=int, default=4)
    _add_output_flags(p_mom, formats=("json", "csv"))

    p_corr = subs.add_parser("corr", help="correlation report for (S(T), A(T))")
    _add_gbm_flags(p_corr)
    _add_output_flags(p_corr)

    p_scan = subs.add_parser("scan", help="S(r, a) surface as CSV (defaults: published grid)")
    p_scan.add_argument("--a-min", type=float, default=-20.0)
    p_scan.add_argument("--a-max", type=float, default=40.0)
    p_scan.add_argument("--r-min", type=float, default=0.1)
    p_scan.add_argument("--r-max", type=float, default=10.0)
    p_scan.add_argument("--na", type=int, default=121)
    p_scan.add_argument("--nr", type=int, default=100)
    _add_output_flags(p_scan, formats=("csv", "json"))

    p_mc = subs.add_parser("mc", help="Monte Carlo estimates next to analytic values")
    _add_gbm_flags(p_mc)
    p_mc.add_argument("--paths", type=int, default=100_000)
    p_mc.add_argument("--steps", type=int, default=1000)
    p_mc.add_argument("--seed", type=int, default=None, help="default: GBMDD_SEED or built-in")
    p_mc.add_argument("--m", type=int, default=None, help="also estimate E A^m")
    p_mc.add_argument("--averaging", choices=["trapezoid", "left-riemann"], default="trapezoid")
    p_mc.add_argument("--threads", type=int, default=1)
    _add_output_flags(p_mc)

    p_price = subs.add_parser("price", help="approximate Asian option value")
    _add_gbm_flags(p_price)
    p_price.add_argument("--style", choices=["floating", "fixed"], required=True)
    p_price.add_argument("--K", type=float, default=1.0, help="fixed-strike level")
    p_price.add_argument("--compare-mc", action="store_true",
                         help="append a Monte Carlo estimate of the same payoff")
    p_price.add_argument("--paths", type=int, default=100_000)
    p_price.add_argument("--steps", type=int, default=256)
    p_price.add_argument("--seed", type=int, default=None)
    _add_output_flags(p_price)

    subs.add_parser("oracle", help="run the numerical cross-check suite")
    return parser


# main's parser, built once per process: parsing leaves it unchanged
_parser = functools.cache(build_parser)


@contextlib.contextmanager
def _output(path: str | None):
    """The report's destination: stdout, or the file at `path`."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _emit_json(doc, path: str | None, indent: int | None = 2) -> None:
    """`doc` as strict JSON: a non-finite float raises ValueError, never
    prints as `NaN` or `Infinity`."""
    _emit(json.dumps(doc, indent=indent, allow_nan=False), path)


def _emit(text: str, path: str | None) -> None:
    with _output(path) as out:
        out.write(text)
        if path is None and not text.endswith("\n"):
            out.write("\n")


def _cmd_moments(args) -> int:
    p = GbmParams(r=args.r, sigma=args.sigma, T=args.T)
    if args.max_m < 0:
        raise ValueError("--max-m must be nonnegative")
    table = moments.moment_table(p, args.max_m)
    if args.format == "csv":
        lines = ["m,value,method"]
        lines += [f"{t.order},{t.value:.17g},{t.method}" for t in table]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        doc = {"r": p.r, "sigma": p.sigma, "T": p.T,
               "moments": [{"m": t.order, "value": t.value, "method": t.method} for t in table]}
        _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_corr(args) -> int:
    p = GbmParams(r=args.r, sigma=args.sigma, T=args.T)
    rep = moments.correlation(p)
    doc = {"r": p.r, "sigma": p.sigma, "T": p.T, "R": rep.R,
           "covariance": rep.covariance, "var_S": rep.var_S, "var_A": rep.var_A,
           "s_statistic": rep.s_statistic}
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_scan(args) -> int:
    spec = GridSpec(a_min=args.a_min, a_max=args.a_max, r_min=args.r_min,
                    r_max=args.r_max, na=args.na, nr=args.nr)
    result = moments.grid_scan(spec)
    rmin, amin = result.argmin
    if args.format == "json":
        doc = {"rows": [[r, a, s] for r, a, s in result.iter_rows()],
               "min_S": result.min_S, "argmin": {"r": rmin, "a": amin},
               "decreasing_in_a": result.decreasing_in_a}
        _emit_json(doc, args.output, indent=None)
    else:
        with _output(args.output) as out:
            result.to_csv(out)
            out.write(f"# min S = {result.min_S:.17g} at r = {rmin:.17g}, a = {amin:.17g}; "
                      f"decreasing in a: {result.decreasing_in_a}\n")
    return EXIT_OK


def _cmd_mc(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    p = GbmParams(r=args.r, sigma=args.sigma, T=args.T)
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = montecarlo.McConfig(paths=args.paths, steps=args.steps, seed=seed,
                              averaging=args.averaging)
    analytic = {
        "mean_S": moments.mean_S(p),
        "mean_A": moments.mean_A(p),
        "second_moment_A": moments.second_moment_A(p),
        "cross_moment_SA": moments.cross_moment_SA(p),
    }
    if p.sigma > 0:
        analytic["correlation"] = moments.correlation(p).R
    if args.m is not None:
        analytic[f"moment_A_{args.m}"] = moments.moment_A(p, args.m)
    suite = montecarlo.estimate_suite(p, cfg, threads=args.threads, m=args.m)
    rows = {}
    for name, est in suite.items():
        truth = analytic[name]
        if est.stderr > 0:
            z = (est.value - truth) / est.stderr
        else:  # an exact estimate off the analytic value (discretisation bias) has no z
            z = 0.0 if est.value == truth else None
        rows[name] = {**est.to_dict(cfg), "analytic": truth, "z": z}
    _emit_json({"r": p.r, "sigma": p.sigma, "T": p.T, "estimates": rows}, args.output)
    return EXIT_OK


def _cmd_price(args) -> int:
    p = GbmParams(r=args.r, sigma=args.sigma, T=args.T)
    if args.style == "floating":
        quote = pricing.floating_strike_asian_approx(p)
        payoff = montecarlo.FloatingStrikeAsianCall()
    else:
        quote = pricing.fixed_strike_asian_approx(p, args.K)
        payoff = montecarlo.FixedStrikeAsianCall(strike=args.K)
    doc = {"value": quote.value, "method": quote.method, "inputs": quote.inputs}
    if args.compare_mc:
        seed = args.seed if args.seed is not None else _default_seed()
        cfg = montecarlo.McConfig(paths=args.paths, steps=args.steps, seed=seed)
        est = montecarlo.estimate_payoff(p, cfg, payoff)
        doc["mc"] = est.to_dict(cfg)
        # undefined against an MC estimate of 0: null, like an undefined "z"
        doc["relative_gap"] = (quote.value - est.value) / est.value if est.value else None
    _emit_json(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle suite


def _check_method_agreement() -> tuple[str, bool, str]:
    """`exp_dd`'s recurrence against its matrix route, and the matrix route on
    equispaced nodes against e^{x_0} (expm1(h)/h)^n / n!, h = (x_n - x_0)/n."""
    rng = np.random.default_rng(7)
    worst = 0.0
    # conditioning-safe (order, spread) pairs for the recurrence route
    for n, spread in [(1, 0.01), (2, 0.01), (2, 0.1), (3, 0.05), (3, 1.0),
                      (4, 0.5), (5, 1.0), (6, 3.0), (8, 10.0)]:
        for _ in range(5):
            base = rng.uniform(-1.5, 1.5)
            inner = np.sort(rng.uniform(0.05, 0.95, max(n - 1, 0))) * spread
            nodes = np.concatenate([[0.0], inner, [spread]]) + base
            rec = divdiff.exp_dd(nodes, method=divdiff.EvalMethod.RECURRENCE)
            tay = divdiff.exp_dd(nodes, method=divdiff.EvalMethod.TAYLOR_MATRIX)
            worst = max(worst, abs(rec - tay) / abs(tay))
        eq_nodes = (base + np.linspace(0.0, spread, n + 1)).tolist()
        h = (eq_nodes[-1] - eq_nodes[0]) / n
        eq = math.exp(eq_nodes[0]) * (math.expm1(h) / h) ** n / math.factorial(n)
        tay = divdiff.exp_dd(eq_nodes, method=divdiff.EvalMethod.TAYLOR_MATRIX)
        worst = max(worst, abs(eq - tay) / abs(tay))
    return "dd method agreement", worst <= 1e-9, f"max rel diff {worst:.2e}"


def _check_hermite_genocchi() -> tuple[str, bool, str]:
    rng = np.random.default_rng(11)
    ok = True
    detail = []
    for n in range(1, 6):
        nodes = np.sort(rng.uniform(-1.0, 1.5, n + 1))
        direct = divdiff.exp_dd(nodes)
        est = divdiff.hermite_genocchi_oracle(np.exp, nodes, budget=100_000,
                                              method="sampling", seed=123 + n)
        z = abs(est.value - direct) / est.error
        ok &= z <= 4.0
        detail.append(f"n={n} z={z:.2f}")
        if n <= 4:
            q = divdiff.hermite_genocchi_oracle(np.exp, nodes, budget=24, method="quadrature")
            ok &= abs(q.value - direct) <= max(q.error * 4.0, 1e-10)
    return "Hermite-Genocchi oracle", bool(ok), "; ".join(detail)


def _check_oshanin_yor() -> tuple[str, bool, str]:
    worst = 0.0
    for rT in (0.5, 1.0, 2.0):
        for m in range(1, 9):
            binom = moments.oshanin_yor_moment(m, rT)
            nodes = [k * k * rT for k in range(m + 1)]
            dd_form = math.factorial(m) * divdiff.exp_dd(nodes)
            worst = max(worst, abs(binom - dd_form) / abs(dd_form))
            # symmetric-node route: exp[0, rT, .., m^2 rT] = (rT)^-m H[-m..m],
            # H(x) = exp(rT x^2), by the squared-node and scaling identities
            ints = list(range(-m, m + 1))
            h_vals = [math.exp(rT * x * x) for x in ints]
            sym = math.factorial(m) * rT ** (-m) * divdiff.newton_table(h_vals, ints).top
            worst = max(worst, abs(sym - dd_form) / abs(dd_form))
    return "Oshanin-Yor equivalence", worst <= 1e-8, f"max rel diff {worst:.2e}"


def _check_ode_residual() -> tuple[str, bool, str]:
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        c = np.cumsum(rng.uniform(0.05, 0.5, n))
        t = float(rng.uniform(0.1, 5.0))
        worst = max(worst, moments.moment_ode_residual(n, t, c))
    p = GbmParams(r=0.05, sigma=0.2, T=1.0)
    b = moments.BNodes.from_params(p, 3).values[1:]
    worst = max(worst, moments.moment_ode_residual(3, 1.0, b))
    return "moment ODE residual", worst <= 1e-6, f"max residual {worst:.2e}"


def run_oracle_suite() -> list[tuple[str, bool, str]]:
    return [
        _check_method_agreement(),
        _check_hermite_genocchi(),
        _check_oshanin_yor(),
        _check_ode_residual(),
    ]


def _cmd_oracle(_args) -> int:
    results = run_oracle_suite()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_ORACLE


_COMMANDS = {
    "moments": _cmd_moments,
    "corr": _cmd_corr,
    "scan": _cmd_scan,
    "mc": _cmd_mc,
    "price": _cmd_price,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"gbmdd: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"gbmdd: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OverflowError, FloatingPointError) as exc:
        print(f"gbmdd: result outside double range: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
