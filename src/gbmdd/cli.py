"""Command-line front end: analytics, surface scans, Monte Carlo
verification and pricing as subcommands with machine-readable output, and
`oracle`, which prints the cross-checks of `oracles.run_oracle_suite`.

Exit codes: 0 success, 1 usage error, 2 numerical-domain error, failed
allocation or a report that cannot be written, 3 oracle suite failure, 141
stdout closed before the report was written.  Reports go to stdout,
diagnostics to stderr.  A negative value may take exponent form: `--r -1e-3`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys

from . import moments, montecarlo, pricing
from .moments import GbmParams, GridSpec

DEFAULT_SEED = 20240613

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_ORACLE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports when a closed pipe ends a command


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2 for
    numerical-domain errors, 1 for usage; its subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3 and -inf are values too: argparse's own pattern reads them as options
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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
    for field in dataclasses.fields(GridSpec):   # --a-min, ..., --nr
        p_scan.add_argument("--" + field.name.replace("_", "-"),
                            type=type(field.default), default=field.default)
    _add_output_flags(p_scan, formats=("csv", "json"))

    p_mc = subs.add_parser("mc", help="Monte Carlo estimates next to analytic values")
    _add_gbm_flags(p_mc)
    p_mc.add_argument("--paths", type=int, default=100_000)
    p_mc.add_argument("--steps", type=int, default=1000)
    p_mc.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}")
    p_mc.add_argument("--m", type=int, default=None, help="also estimate E A^m")
    p_mc.add_argument("--averaging", choices=montecarlo._AVERAGING, default="trapezoid")
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
    p_price.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}")
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
    spec = GridSpec(**{field.name: getattr(args, field.name)
                       for field in dataclasses.fields(GridSpec)})
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
    cfg = montecarlo.McConfig(paths=args.paths, steps=args.steps, seed=args.seed,
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
        if est.stderr > 0:  # floored at the rounding of the mean and of the analytic value
            z = (est.value - truth) / max(est.stderr, 4 * math.ulp(truth))
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
        cfg = montecarlo.McConfig(paths=args.paths, steps=args.steps, seed=args.seed)
        est = montecarlo.estimate_payoff(p, cfg, payoff)
        doc["mc"] = est.to_dict(cfg)
        # undefined against an MC estimate of 0: null, like an undefined "z"
        doc["relative_gap"] = (quote.value - est.value) / est.value if est.value else None
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_oracle(_args) -> int:
    from . import oracles  # the fast path's one oracle import
    results = oracles.run_oracle_suite()
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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere, so that
        # the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except OSError as exc:
        print(f"gbmdd: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except UsageError as exc:
        print(f"gbmdd: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"gbmdd: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OverflowError, FloatingPointError) as exc:
        print(f"gbmdd: result outside double range: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"gbmdd: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
