"""Span tracing for the traced run, installed from outside the program.

`installed(tracer)` rebinds module attributes of gbmdd to wrappers that
record a span per call and restores them on exit; nothing in the package
changes.  `cli` and `pricing` call into `moments` through module attributes,
and `montecarlo` calls `normal_inv_cdf`, `Philox` and `Generator` through its
own globals, so rebinding those names covers every call the workloads make.

Spans are kept in memory as four flat arrays (name id, start, end, parent)
and written out with `Tracer.save` at the end.  A span's self time is its
duration minus the durations of its children.  The traced loop runs on one
thread, so one span stack suffices.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from gbmdd import cli, divdiff, montecarlo, moments, pricing

LAYERS = ("divdiff", "moments", "pricing", "montecarlo", "cli")
MOMENT_FNS = ("correlation", "moment_table", "mean_A", "second_moment_A",
              "s_statistic", "grid_scan")
PRICING_FNS = ("floating_strike_asian_approx", "fixed_strike_asian_approx")
UNIFORM_SPANS = ("montecarlo.philox", "montecarlo.generator", "montecarlo.random")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        # exp_dd calls: span index and an index into the distinct arguments
        self.dd_span = array("i")
        self.dd_arg = array("i")
        self.dd_args: dict[tuple, int] = {}
        self.counters: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn):
        """`fn` with one span per call."""
        nid = self._id(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def wrap_exp_dd(self, fn):
        """Like `wrap`, also keeping the arguments so that each call can be
        classified by route after the run, outside every span."""
        traced = self.wrap("divdiff.exp_dd", fn)
        names, dd_span, dd_arg, dd_args = self.name, self.dd_span, self.dd_arg, self.dd_args

        def exp_dd(nodes, *args, **kwargs):
            key = (tuple(nodes), args, tuple(kwargs.items()))
            k = dd_args.get(key)
            if k is None:
                k = dd_args[key] = len(dd_args)
            dd_arg.append(k)
            dd_span.append(len(names))
            return traced(nodes, *args, **kwargs)

        return exp_dd

    def wrap_block_stream(self, fn):
        """`iter_terminal_and_average` with one span per `next()` on the block
        stream, counting blocks, paths and path-steps as they arrive."""
        next_block = self.wrap("montecarlo.block", next)
        counters = self.counters

        def blocks(p, cfg, *args, **kwargs):
            it = fn(p, cfg, *args, **kwargs)
            while True:
                try:
                    s_T, a_hat = next_block(it)
                except StopIteration:
                    return
                n = len(s_T)
                counters["blocks"] += 1
                counters["paths"] += n
                counters["path_steps"] += n * cfg.steps
                counters["block_bytes"] = max(counters["block_bytes"], n * cfg.steps * 8)
                yield s_T, a_hat

        return blocks

    def wrap_normal_inv_cdf(self, fn):
        traced = self.wrap("pricing.normal_inv_cdf", fn)
        counters = self.counters

        def normal_inv_cdf(u, *args, **kwargs):
            counters["normal_draws"] += np.size(u)
            return traced(u, *args, **kwargs)

        return normal_inv_cdf

    def wrap_generator(self, cls):
        """A `Generator` constructor whose instances time `.random`."""
        construct = self.wrap("montecarlo.generator", cls)
        random = self.wrap("montecarlo.random", lambda gen, *a, **k: gen.random(*a, **k))

        class TracedGenerator:
            __slots__ = ("_gen",)

            def __init__(self, gen):
                self._gen = gen

            def random(self, *args, **kwargs):
                return random(self._gen, *args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._gen, attr)

        return lambda *args, **kwargs: TracedGenerator(construct(*args, **kwargs))

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path) -> None:
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end, parent=parent)


@contextmanager
def installed(tracer: Tracer):
    """Rebind the traced gbmdd attributes for the duration of the block.  An
    attribute the package no longer has is skipped; its metrics read 0."""
    targets = [(moments, "exp_dd", tracer.wrap_exp_dd)]
    targets += [(moments, fn, lambda f, fn=fn: tracer.wrap(f"moments.{fn}", f)) for fn in MOMENT_FNS]
    targets += [(pricing, fn, lambda f, fn=fn: tracer.wrap(f"pricing.{fn}", f)) for fn in PRICING_FNS]
    targets += [
        (montecarlo, "estimate_suite", lambda f: tracer.wrap("montecarlo.estimate_suite", f)),
        (montecarlo, "estimate_payoff", lambda f: tracer.wrap("montecarlo.estimate_payoff", f)),
        (montecarlo, "iter_terminal_and_average", tracer.wrap_block_stream),
        (montecarlo, "normal_inv_cdf", tracer.wrap_normal_inv_cdf),
        (montecarlo, "Philox", lambda f: tracer.wrap("montecarlo.philox", f)),
        (montecarlo, "Generator", tracer.wrap_generator),
        (cli, "main", lambda f: tracer.wrap("cli.main", f)),
    ]
    saved = [(mod, attr, getattr(mod, attr), make) for mod, attr, make in targets
             if hasattr(mod, attr)]
    try:
        for mod, attr, original, make in saved:
            setattr(mod, attr, make(original))
        yield tracer
    finally:
        for mod, attr, original, _ in saved:
            setattr(mod, attr, original)


def _route(key) -> str:
    """The route `exp_dd` takes for these arguments, as AUTO resolves it."""
    nodes, args, kwargs = key
    kw = dict(kwargs)
    scale = args[0] if args else kw.get("scale", 1.0)
    method = args[1] if len(args) > 1 else kw.get("method", divdiff.EvalMethod.AUTO)
    if method is divdiff.EvalMethod.AUTO:
        method = divdiff.choose_method(nodes, scale)
    return method.value.replace("-", "_")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures from the spans of a traced loop whose operations
    took `wall_s` seconds in all.  Layers the workload never reaches read 0."""
    name, start, end, parent = tracer.arrays()
    n_names = len(tracer.names)
    dur = end - start
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    calls = np.bincount(name, minlength=n_names)
    busy = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_t, minlength=n_names)
    ids = tracer.ids

    def get(arr, span_name):
        return float(arr[ids[span_name]]) if span_name in ids else 0.0

    m: dict[str, float] = {}
    # divdiff: every exp_dd call classified by route and order
    routes = {k: _route(key) for key, k in tracer.dd_args.items()}
    orders = {k: len(key[0]) - 1 for key, k in tracer.dd_args.items()}
    dd_dur = dur[np.frombuffer(tracer.dd_span, dtype=np.int32)]
    per_bucket: dict[tuple[str, int], list[float]] = {}
    for k, d in zip(tracer.dd_arg, dd_dur):
        per_bucket.setdefault((routes[k], orders[k]), []).append(d)
    n_dd = len(dd_dur)
    for route in ("recurrence", "taylor_matrix"):
        m[f"divdiff.exp_dd.calls.{route}"] = float(sum(
            len(v) for (r, _), v in per_bucket.items() if r == route))
    for route, orders_used in (("recurrence", range(1, 4)), ("taylor_matrix", range(1, 9))):
        for order in orders_used:
            v = per_bucket.get((route, order), [])
            m[f"divdiff.exp_dd.us_per_call.{route}.n{order}"] = 1e6 * sum(v) / len(v) if v else 0.0
    m["divdiff.exp_dd.busy_s"] = float(dd_dur.sum())
    m["divdiff.route_share.taylor_matrix"] = (
        m["divdiff.exp_dd.calls.taylor_matrix"] / n_dd if n_dd else 0.0)

    for fn in MOMENT_FNS:
        m[f"moments.{fn}.calls"] = get(calls, f"moments.{fn}")
        m[f"moments.{fn}.self_s"] = get(own, f"moments.{fn}")
    for fn in PRICING_FNS:
        m[f"pricing.{fn}.self_s"] = get(own, f"pricing.{fn}")
    draws = tracer.counters["normal_draws"]
    m["pricing.normal_inv_cdf.calls"] = get(calls, "pricing.normal_inv_cdf")
    m["pricing.normal_inv_cdf.ns_per_draw"] = (
        1e9 * get(busy, "pricing.normal_inv_cdf") / draws if draws else 0.0)

    c = tracer.counters
    uniforms = sum(get(busy, s) for s in UNIFORM_SPANS)
    m["montecarlo.uniforms.busy_s"] = uniforms
    m["montecarlo.uniforms.ns_per_path"] = 1e9 * uniforms / c["paths"] if c["paths"] else 0.0
    m["montecarlo.normal_transform.busy_s"] = get(busy, "pricing.normal_inv_cdf")
    m["montecarlo.path_build.busy_s"] = get(own, "montecarlo.block")
    m["montecarlo.block.wait_s"] = get(busy, "montecarlo.block")
    m["montecarlo.reduce.self_s"] = (get(own, "montecarlo.estimate_suite")
                                     + get(own, "montecarlo.estimate_payoff"))
    m["montecarlo.blocks"] = float(c["blocks"])
    m["montecarlo.path_steps"] = float(c["path_steps"])
    m["montecarlo.block_bytes_computed"] = float(c["block_bytes"])
    m["cli.main.self_s"] = get(own, "cli.main")

    layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in tracer.names], dtype=np.intp)
    layer_self = np.bincount(layer_of[name], weights=self_t, minlength=len(LAYERS))
    for layer, value in zip(LAYERS, layer_self):
        # divdiff and cli have one span each: exp_dd.busy_s and main.self_s
        if layer not in ("divdiff", "cli"):
            m[f"{layer}.self_s"] = float(value)
    m["trace.wall_s"] = wall_s
    m["trace.self_sum_share"] = float(layer_self.sum()) / wall_s
    m["trace.spans"] = float(len(name))
    return m

