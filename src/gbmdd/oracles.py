"""Oracles and the paper's identities, apart from the code results run on:
the Newton tableau and the finite-difference identities, the
Hermite-Genocchi simplex integrals on one nested Gauss-Legendre rule and by
sampling, the ordered iterated integral, the moment identities of
exponential Brownian motion (moments by quadrature, the driftless binomial
sum, the moment ODE) and `run_oracle_suite`, the checks of `gbmdd oracle`.
No fast-path module imports it, but for the CLI's `oracle` subcommand."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divdiff import EvalMethod, _coerce_nodes, exp_dd
from .moments import GbmParams, _b_nodes, _index, _order

__all__ = [
    "DDTable", "newton_table", "equispaced_dd", "symmetric_equispaced_dd",
    "leibniz_dd", "square_nodes_dd",
    "OracleEstimate", "hermite_genocchi_oracle", "SimplexSpec", "simplex_exp_integral",
    "iterated_ordered_exp_integral", "ordered_exp_simplex_quad",
    "pairwise_expectation", "power_expectation",
    "ordered_product_expectation", "moment_bruteforce", "oshanin_yor_moment",
    "moment_ode_residual", "run_oracle_suite",
]


# ---------------------------------------------------------------------------
# Newton tableau and finite-difference identities


@dataclass(frozen=True)
class DDTable:
    """Triangular Newton tableau: entry (i, j) holds f[x_i, ..., x_j]."""

    nodes: tuple[float, ...]
    levels: tuple[tuple[float, ...], ...]

    @property
    def order(self) -> int:
        return len(self.nodes) - 1

    @property
    def top(self) -> float:
        """f[x_0, ..., x_n]."""
        return self.levels[-1][0]

    def entry(self, i: int, j: int) -> float:
        if not 0 <= i <= j <= self.order:
            raise IndexError(f"tableau entry ({i}, {j}) out of range")
        return self.levels[j - i][i]


def newton_table(values: Sequence[float], nodes) -> DDTable:
    """Full divided-difference tableau from function values at distinct nodes."""
    xs = _coerce_nodes(nodes)
    fv = tuple(float(v) for v in values)
    if len(fv) != len(xs):
        raise ValueError(f"{len(fv)} values for {len(xs)} nodes")
    if not all(map(math.isfinite, fv)):
        raise ValueError("function values must be finite")
    if len(set(xs)) != len(xs):
        raise ValueError("coincident nodes require derivative data")
    levels = [fv]
    for k in range(1, len(xs)):
        prev = levels[-1]
        levels.append(tuple(
            (prev[i + 1] - prev[i]) / (xs[i + k] - xs[i])
            for i in range(len(xs) - k)
        ))
    return DDTable(nodes=tuple(xs), levels=tuple(levels))


def equispaced_dd(fvals: Sequence[float], h: float) -> float:
    """Divided difference over x, x+h, ..., x+nh from its n + 1 sampled
    values, by the binomial expansion of the n-th forward difference."""
    if not 0 < h < math.inf:
        raise ValueError("step h must be positive and finite")
    fv = [float(v) for v in fvals]
    if not fv:
        raise ValueError("need at least one value")
    if not all(map(math.isfinite, fv)):
        raise ValueError("function values must be finite")
    n = len(fv) - 1
    if n == 0:
        return fv[0]
    total = math.fsum(
        math.comb(n, k) * (fv[k] if (n - k) % 2 == 0 else -fv[k])
        for k in range(n + 1)
    )
    return total / (math.factorial(n) * h ** n)


def symmetric_equispaced_dd(fvals: Sequence[float], h: float) -> float:
    """Divided difference over -nh, ..., -h, 0, h, ..., nh from its 2n + 1
    sampled values: `equispaced_dd` over the same values."""
    fv = [float(v) for v in fvals]
    if len(fv) % 2 == 0:
        raise ValueError("need an odd number of values (2n+1)")
    return equispaced_dd(fv, h)


def leibniz_dd(vtable: DDTable, wtable: DDTable) -> float:
    """(v*w)[z_0..z_n] = sum_k v[z_0..z_k] w[z_k..z_n] from the two tableaux."""
    if vtable.nodes != wtable.nodes:
        raise ValueError("tables are over different nodes")
    n = vtable.order
    return math.fsum(vtable.entry(0, k) * wtable.entry(k, n) for k in range(n + 1))


def square_nodes_dd(f: Callable[[float], float], a: Sequence[float]) -> tuple[float, float]:
    """Evaluate both sides of f[0, a_1^2, .., a_n^2] = g[-a_n, .., 0, .., a_n]
    with g(z) = f(z*z); returns (lhs, rhs), equal up to roundoff."""
    av = [float(x) for x in a]
    if any(x == 0.0 for x in av):
        raise ValueError("a_i must be nonzero")
    if len({abs(x) for x in av}) != len(av):
        raise ValueError("a_i must be distinct in magnitude")
    sq = [0.0] + [x * x for x in av]
    lhs = newton_table([f(x) for x in sq], sq).top
    sym = sorted([-abs(x) for x in av] + [0.0] + [abs(x) for x in av])
    rhs = newton_table([f(z * z) for z in sym], sym).top
    return lhs, rhs


# ---------------------------------------------------------------------------
# simplex integrals (Hermite-Genocchi)


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    error: float
    method: str


def _finite(x: float, what: str) -> float:
    """x, if finite; OverflowError if infinite, ValueError if nan."""
    if math.isnan(x):
        raise ValueError(f"{what} is nan")
    if math.isinf(x):
        raise OverflowError(f"{what} outside the double range")
    return x


@np.errstate(all="ignore")  # np.exp overflows to inf where math.exp raises
def _simplex_quadrature(g: Callable, nodes, order: int) -> float:
    """Integral of g(t_0 a_0 + ... + t_n a_n) over the standard simplex
    {t_k >= 0, sum t_k <= 1}, by nested Gauss-Legendre rules of `order` points."""
    if _index(order, "order") < 1:
        raise ValueError("order must be positive")
    x, w = np.polynomial.legendre.leggauss(order)
    u, w = 0.5 * (x + 1.0), 0.5 * w   # the rule on [0, 1]
    n = len(nodes) - 1
    arg = np.array([nodes[0]])
    rem = np.array([1.0])
    wt = np.array([1.0])
    for d in range(1, n + 1):
        t = np.outer(rem, u).ravel()
        wt = np.outer(wt * rem, w).ravel()
        arg = (np.repeat(arg, order) + t * (nodes[d] - nodes[0]))
        rem = np.repeat(rem, order) - t
    return _finite(float(np.sum(wt * g(arg))), "simplex quadrature")


@np.errstate(all="ignore")  # a non-finite estimate raises in _finite
def hermite_genocchi_oracle(
    deriv_n: Callable[[float], float],
    nodes,
    budget: int = 100_000,
    method: str = "sampling",
    seed: int = 0,
) -> OracleEstimate:
    """Independent estimate of f[a_0..a_n] as the integral of the n-th
    derivative over the standard simplex; `deriv_n` takes an array of
    points, as `np.exp` does.

    method="sampling": uniform simplex points from sorted uniform spacings,
    `budget` samples (at least 2), reported error is one standard error.
    method="quadrature": deterministic nested Gauss-Legendre (n <= 4),
    `budget` is the points-per-dimension order, at least 4; error is a
    two-order comparison estimate.
    """
    xs = np.asarray(_coerce_nodes(nodes), dtype=float)
    n = len(xs) - 1
    if n < 1:
        raise ValueError("the simplex representation needs n >= 1")
    if _index(budget, "budget") <= 0:
        raise ValueError("budget must be positive")
    volume = 1.0 / math.factorial(n)
    if method == "sampling":
        if budget < 2:
            raise ValueError("sampling needs a budget of at least 2 samples for its error")
        rng = np.random.default_rng(seed)
        u = np.sort(rng.random((budget, n)), axis=1)
        t = np.diff(u, axis=1, prepend=0.0, append=1.0)  # uniform barycentric
        vals = np.asarray(deriv_n(t @ xs), dtype=float)
        k = math.frexp(float(np.abs(vals).max()))[1]
        vals = np.ldexp(vals, -k)  # exact: the sums below keep every bit and stay finite
        est = math.ldexp(volume * _finite(float(vals.mean()), "sampled integral"), k)
        err = math.ldexp(volume * float(vals.std(ddof=1)) / math.sqrt(budget), k)
        return OracleEstimate(est, err, "sampling")
    if method == "quadrature":
        if n > 4:
            raise ValueError("nested quadrature supported for n <= 4 only")
        order = max(4, budget)
        hi = _simplex_quadrature(deriv_n, xs, order)
        lo = _simplex_quadrature(deriv_n, xs, max(4, order - 6))
        err = abs(hi - lo) + 1e-15 * abs(hi)
        return OracleEstimate(hi, err, "quadrature")
    raise ValueError(f"unknown oracle method: {method!r}")


_DET_RTOL = 1e-12   # |det V| against the product of its column norms below this: singular


@dataclass(frozen=True)
class SimplexSpec:
    """Simplex conv{0, v_1, .., v_n} from the columns of a nonsingular V,
    with the linear form coefficients a."""

    V: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise ValueError("V must be a square matrix")
        if a.shape != (V.shape[0],):
            raise ValueError("a must be a vector matching V")
        if not (np.isfinite(V).all() and np.isfinite(a).all()):
            raise ValueError("V and a must be finite")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "a", a)
        # det V = d 2^e from the columns scaled by powers of two to a largest
        # entry in [1/2, 1): d neither overflows nor underflows, and |d|
        # against the column norms is a scale-free test of singularity
        _, e = np.frexp(np.abs(V).max(axis=0, initial=0.0))
        W = np.ldexp(V, -e)
        d = float(np.linalg.det(W))
        if abs(d) <= _DET_RTOL * float(np.prod(np.linalg.norm(W, axis=0))):
            raise ValueError("V is singular to working precision")
        object.__setattr__(self, "_det_parts", (d, int(e.sum())))

    @property
    def det(self) -> float:
        """det V; OverflowError where it is not a normal double."""
        return _times_pow2(*self._det_parts, "det V")


def _times_pow2(x: float, e: int, what: str) -> float:
    """x 2^e; OverflowError where it is not a normal double (above the
    range, from `math.ldexp`)."""
    value = math.ldexp(x, e)
    if abs(value) < sys.float_info.min:
        raise OverflowError(f"{what} below the normal range")
    return value


def simplex_exp_integral(spec: SimplexSpec) -> float:
    """Integral of e^{a.y} over the simplex K(V), |det V| times an
    exponential divided difference, each taken as a mantissa and a power of
    two: OverflowError only where the integral is not a normal double."""
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = spec.V.T @ spec.a
    if not np.isfinite(nodes).all():
        raise OverflowError("a node a.v_j outside the double range")
    d, e = spec._det_parts
    x, k = math.frexp(exp_dd([0.0, *nodes]))
    return _times_pow2(abs(d) * x, e + k, "simplex integral")


def _suffix_nodes(a: Sequence[float]) -> list[float]:
    """0 and the suffix sums a_n, a_n + a_{n-1}, ..., a_1 + ... + a_n: the
    nodes of the ordered iterated integral of exp(sum a_k x_k)."""
    nodes = [0.0]
    for x in reversed([float(v) for v in a]):
        nodes.append(nodes[-1] + x)
    if len(nodes) < 2:
        raise ValueError("need at least one coefficient")
    return nodes


def iterated_ordered_exp_integral(a: Sequence[float]) -> float:
    """Ordered iterated integral of exp(sum a_k x_k) over
    0 <= x_1 <= ... <= x_n <= 1, evaluated as an exponential divided
    difference over the suffix sums of a."""
    return exp_dd(_suffix_nodes(a))


def ordered_exp_simplex_quad(alpha: Sequence[float], order: int = 20) -> float:
    """The ordered iterated integral of exp(sum alpha_k x_k) over
    0 <= x_1 <= ... <= x_n <= 1 by the nested Gauss-Legendre simplex rule:
    by Hermite-Genocchi it is the integral of exp over the simplex spanned
    by 0 and the suffix sums of alpha.

    Quadrature oracle for `iterated_ordered_exp_integral` and for the moment
    brute-force check; independent of `exp_dd`.
    """
    return _simplex_quadrature(np.exp, _suffix_nodes(alpha), order)


# ---------------------------------------------------------------------------
# moment identities of exponential Brownian motion


def pairwise_expectation(p: GbmParams, a: float, b: float) -> float:
    """E S(a) S(b) = exp(a (r + sigma^2) + b r) for 0 <= a <= b."""
    if not (0 <= a <= b < math.inf):
        raise ValueError("times must be finite and satisfy 0 <= a <= b")
    return math.exp(a * (p.r + p.sigma ** 2) + b * p.r)


def power_expectation(p: GbmParams, t: float, k: int) -> float:
    """E S(t)^k = exp(k r t + sigma^2 t k (k-1) / 2) = exp(b_k t)."""
    if _index(k, "k") < 1:
        raise ValueError("k must be a positive integer")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return math.exp(k * p.r * t + p.sigma ** 2 * t * k * (k - 1) / 2.0)


def ordered_product_expectation(p: GbmParams, times: Sequence[float]) -> float:
    """E S(t_1) ... S(t_m) = exp(sum_k (r + (m-k) sigma^2) t_k) for
    nondecreasing nonnegative times."""
    ts = [float(t) for t in times]
    if len(ts) < 1:
        raise ValueError("need at least one time")
    if not all(map(math.isfinite, ts)):
        raise ValueError("times must be finite")
    if ts[0] < 0 or any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("times must be nonnegative and nondecreasing")
    m = len(ts)
    return math.exp(math.fsum(
        (p.r + (m - k) * p.sigma ** 2) * ts[k - 1] for k in range(1, m + 1)
    ))


def moment_bruteforce(p: GbmParams, m: int, order: int = 24) -> OracleEstimate:
    """E A(T)^m by deterministic nested quadrature of the ordered iterated
    integral with coefficients alpha_k = (r + (m-k) sigma^2) T; test oracle
    for `moment_A`, limited to m <= 4 as a cost guard; `order` is
    `ordered_exp_simplex_quad`'s, unused at m = 0, where the moment is 1."""
    if _order(m) > 4:
        raise ValueError("brute-force moment limited to m <= 4")
    if m == 0:
        return OracleEstimate(1.0, 0.0, "quadrature")
    alpha = [(p.r + (m - k) * p.sigma ** 2) * p.T for k in range(1, m + 1)]
    fact = math.factorial(m)
    hi = fact * ordered_exp_simplex_quad(alpha, order=order)
    lo = fact * ordered_exp_simplex_quad(alpha, order=max(4, order - 8))
    return OracleEstimate(hi, abs(hi - lo) + 1e-15 * abs(hi), "quadrature")


def oshanin_yor_moment(m: int, rT: float) -> float:
    """Driftless-case (sigma^2 = 2r) moment of the time average by the
    binomial-sum formula

        (Gamma(m)/Gamma(2m)) (rT)^{-m} [ -1/2 (-1)^m C(2m, m)
            + sum_{l=0}^{m} C(2m, l) (-1)^l e^{rT (m-l)^2} ],

    evaluated with compensated summation.  Equals m! exp[0, rT, 4rT, ...,
    m^2 rT].  The alternating sum loses roughly m^2 rT log10(e) digits of
    headroom as rT shrinks; in double precision trust it for rT >= 0.5 and
    prefer the divided-difference form in production.
    """
    if _index(m, "m") < 1:
        raise ValueError("m must be a positive integer")
    if not 0 < rT < math.inf:
        raise ValueError("rT must be positive and finite")
    terms = [-0.5 * (-1) ** m * math.comb(2 * m, m)]
    terms += [
        math.comb(2 * m, l) * (-1) ** l * math.exp(rT * (m - l) ** 2)
        for l in range(m + 1)
    ]
    prefactor = math.factorial(m - 1) / math.factorial(2 * m - 1)
    return prefactor * rT ** (-m) * math.fsum(terms)


def moment_ode_residual(n: int, t: float, c: Sequence[float]) -> float:
    """Residual |t e_n'(t) - e_n(t)(c_n t - n) - e_{n-1}(t)| of the moment
    recurrence ODE, with e_n(t) = exp[0, c_1 t, ..., c_n t] and e_n' from
    Richardson-extrapolated central differences.

    A small residual certifies the identity; c must be strictly increasing
    and positive.
    """
    if _index(n, "order n") < 1:
        raise ValueError("order n must be at least 1")
    if t <= 0:
        raise ValueError("t must be positive")
    cs = [float(x) for x in c][:n]
    if len(cs) < n:
        raise ValueError(f"need at least {n} coefficients")
    if cs[0] <= 0 or any(cs[i] >= cs[i + 1] for i in range(len(cs) - 1)):
        raise ValueError("c must be strictly increasing and positive")

    def e(k: int, tau: float) -> float:
        return exp_dd([0.0] + [ci * tau for ci in cs[:k]])

    h = 1e-6 * max(1.0, t)
    d_h = (e(n, t + h) - e(n, t - h)) / (2.0 * h)
    d_h2 = (e(n, t + h / 2) - e(n, t - h / 2)) / h
    deriv = (4.0 * d_h2 - d_h) / 3.0
    return abs(t * deriv - e(n, t) * (cs[-1] * t - n) - e(n - 1, t))


# ---------------------------------------------------------------------------
# the oracle suite behind `gbmdd oracle`


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
            rec = exp_dd(nodes, method=EvalMethod.RECURRENCE)
            tay = exp_dd(nodes, method=EvalMethod.TAYLOR_MATRIX)
            worst = max(worst, abs(rec - tay) / abs(tay))
        eq_nodes = (base + np.linspace(0.0, spread, n + 1)).tolist()
        h = (eq_nodes[-1] - eq_nodes[0]) / n
        eq = math.exp(eq_nodes[0]) * (math.expm1(h) / h) ** n / math.factorial(n)
        tay = exp_dd(eq_nodes, method=EvalMethod.TAYLOR_MATRIX)
        worst = max(worst, abs(eq - tay) / abs(tay))
    return "dd method agreement", worst <= 1e-9, f"max rel diff {worst:.2e}"


def _check_hermite_genocchi() -> tuple[str, bool, str]:
    rng = np.random.default_rng(11)
    ok = True
    detail = []
    for n in range(1, 6):
        nodes = np.sort(rng.uniform(-1.0, 1.5, n + 1))
        direct = exp_dd(nodes)
        est = hermite_genocchi_oracle(np.exp, nodes, budget=100_000,
                                      method="sampling", seed=123 + n)
        z = abs(est.value - direct) / est.error
        ok &= z <= 4.0
        detail.append(f"n={n} z={z:.2f}")
        if n <= 4:
            q = hermite_genocchi_oracle(np.exp, nodes, budget=24, method="quadrature")
            ok &= abs(q.value - direct) <= max(q.error * 4.0, 1e-10)
    return "Hermite-Genocchi oracle", bool(ok), "; ".join(detail)


def _check_oshanin_yor() -> tuple[str, bool, str]:
    worst = 0.0
    for rT in (0.5, 1.0, 2.0):
        for m in range(1, 9):
            binom = oshanin_yor_moment(m, rT)
            nodes = [k * k * rT for k in range(m + 1)]
            dd_form = math.factorial(m) * exp_dd(nodes)
            worst = max(worst, abs(binom - dd_form) / abs(dd_form))
            # symmetric-node route: exp[0, rT, .., m^2 rT] = (rT)^-m H[-m..m],
            # H(x) = exp(rT x^2), by the squared-node and scaling identities
            ints = list(range(-m, m + 1))
            h_vals = [math.exp(rT * x * x) for x in ints]
            sym = math.factorial(m) * rT ** (-m) * newton_table(h_vals, ints).top
            worst = max(worst, abs(sym - dd_form) / abs(dd_form))
    return "Oshanin-Yor equivalence", worst <= 1e-8, f"max rel diff {worst:.2e}"


def _check_ode_residual() -> tuple[str, bool, str]:
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        c = np.cumsum(rng.uniform(0.05, 0.5, n))
        t = float(rng.uniform(0.1, 5.0))
        worst = max(worst, moment_ode_residual(n, t, c))
    p = GbmParams(r=0.05, sigma=0.2, T=1.0)
    b = _b_nodes(p, 3, p.T)[1:]
    worst = max(worst, moment_ode_residual(3, 1.0, b))
    return "moment ODE residual", worst <= 1e-6, f"max residual {worst:.2e}"


def run_oracle_suite() -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for each cross-check of `gbmdd oracle`."""
    return [
        _check_method_agreement(),
        _check_hermite_genocchi(),
        _check_oshanin_yor(),
        _check_ode_residual(),
    ]
