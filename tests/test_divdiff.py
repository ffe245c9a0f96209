import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmdd import divdiff
from gbmdd.ddarith import exp_dd_reference
from gbmdd.divdiff import (
    EvalMethod,
    NodeList,
    SimplexSpec,
    choose_method,
    equispaced_dd,
    exp_dd,
    exp_dd_batch,
    hermite_genocchi_oracle,
    iterated_ordered_exp_integral,
    leibniz_dd,
    newton_table,
    ordered_exp_simplex_quad,
    simplex_exp_integral,
    square_nodes_dd,
    symmetric_equispaced_dd,
)

from conftest import load_dd_cases


# ---------------------------------------------------------------------------
# NodeList / DDTable


def test_node_list_validation():
    with pytest.raises(ValueError):
        NodeList(())
    with pytest.raises(ValueError):
        NodeList((1.0, math.inf))
    nl = NodeList((2.0, 1.0, 2.0))
    assert len(nl) == 3
    assert nl.distinct() == ((1.0, 1), (2.0, 2))
    assert nl.spread == 1.0


def test_newton_table_basic():
    t = newton_table([1.0], [0.0])
    assert t.top == 1.0
    t = newton_table([math.exp(x) for x in (0.0, 1.0)], [0.0, 1.0])
    assert t.top == pytest.approx(math.e - 1.0, rel=1e-15)
    t = newton_table([math.exp(x) for x in (0.0, 1.0, 2.0)], [0.0, 1.0, 2.0])
    assert t.top == pytest.approx(1.4762462210062798783, rel=1e-14)
    # tableau entries satisfy the recurrence by construction
    for i in range(t.order):
        for j in range(i + 1, t.order + 1):
            lhs = t.entry(i, j) * (t.nodes[j] - t.nodes[i])
            assert lhs == pytest.approx(t.entry(i + 1, j) - t.entry(i, j - 1), abs=1e-15)
    # diagonal holds the raw values
    assert t.entry(1, 1) == math.e


def test_newton_table_errors():
    with pytest.raises(ValueError, match="coincident nodes"):
        newton_table([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        newton_table([1.0, 2.0, 3.0], [0.0, 1.0])
    with pytest.raises(IndexError):
        newton_table([1.0, 2.0], [0.0, 1.0]).entry(1, 0)


# ---------------------------------------------------------------------------
# exp_dd


@pytest.mark.parametrize("nodes,expected,tol", load_dd_cases("exp_dd_cases.txt"))
def test_exp_dd_frozen_cases(nodes, expected, tol):
    assert exp_dd(nodes) == pytest.approx(expected, rel=tol)


def test_exp_dd_log2_case():
    assert exp_dd([0.0, math.log(2.0)]) == pytest.approx(1.0 / math.log(2.0), rel=1e-14)


def test_exp_dd_scale():
    # scale multiplies the nodes: exp[0, 0.05, 0.14] via scale
    assert exp_dd([0.0, 0.5, 1.4], scale=0.1) == pytest.approx(
        0.53291500034602833099, rel=1e-13)
    with pytest.raises(ValueError):
        exp_dd([0.0, 1.0], scale=math.nan)


@pytest.mark.parametrize("n", range(0, 9))
def test_exp_dd_confluent_exact(n):
    for x in (-5.0, -1.3, 0.0, 0.7, 5.0):
        got = exp_dd([x] * (n + 1))
        want = math.exp(x) / math.factorial(n)
        assert abs(got - want) <= 1e-14 * want


def test_exp_dd_methods_dispatch():
    nodes = [0.0, 0.3, 0.6]
    ref = exp_dd_reference(nodes)
    for m in EvalMethod:
        assert exp_dd(nodes, method=m) == pytest.approx(ref, rel=1e-12), m
    with pytest.raises(ValueError, match="not equispaced"):
        exp_dd([0.0, 0.1, 0.9], method=EvalMethod.EQUISPACED_FORWARD_DIFFERENCE)


def test_choose_method_geometry():
    assert choose_method([0.0, 1.0, 2.0]) is EvalMethod.RECURRENCE
    # tight cluster
    assert choose_method([1.0, 1.001, 1.002]) is EvalMethod.TAYLOR_MATRIX
    # order guard
    assert choose_method(list(range(6))) is EvalMethod.TAYLOR_MATRIX
    # near-coincident pair inside a wide spread
    assert choose_method([0.0, 1.0, 1.0 + 1e-9, 3.0]) is EvalMethod.TAYLOR_MATRIX
    # exact ties stay on the recurrence (confluent-safe)
    assert choose_method([0.0, 1.0, 1.0, 3.0]) is EvalMethod.RECURRENCE
    # scale shrinks the spread below the threshold
    assert choose_method([0.0, 1.0, 2.0], scale=1e-3) is EvalMethod.TAYLOR_MATRIX


def mp_exp_dd(nodes) -> mp.mpf:
    """exp[x_0..x_n] as entry (0, n) of the exponential of the upper
    bidiagonal matrix of the nodes, at 50 digits; confluent nodes included."""
    with mp.workdps(50):
        m = len(nodes)
        M = mp.zeros(m)
        for i, x in enumerate(sorted(nodes)):
            M[i, i] = mp.mpf(float(x))
            if i + 1 < m:
                M[i, i + 1] = 1
        return mp.expm(M)[0, m - 1]


def rel_err(got, want) -> float:
    return float(abs((mp.mpf(float(got)) - want) / want))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-30, max_value=30), st.floats(min_value=-14, max_value=math.log10(30)))
def test_order_one_closed_form_against_mpmath(base, log_gap):
    nodes = [base, base + 10.0 ** log_gap]
    assert choose_method(nodes) is EvalMethod.RECURRENCE
    with mp.workdps(40):
        z0, z1 = (mp.mpf(x) for x in nodes)
        want = mp.exp(z0) * mp.expm1(z1 - z0) / (z1 - z0)
        assert rel_err(exp_dd(nodes), want) <= 2e-15


@pytest.mark.parametrize("top", [-600.0, -30.0, 0.0, 25.0, 600.0])
def test_order_one_closed_form_at_wide_spreads(top):
    # e^{z_0} expm1(g)/g overflowed in expm1 for g > 709.78 although the
    # value, about e^{z_1}/g, is representable
    spreads = np.append(np.geomspace(1.0, 1500.0, 25), [709.0, 710.0, 1500.0])
    rows = [[top - g, top] for g in spreads] + [[top, top - g] for g in spreads]
    batch = exp_dd_batch(rows)
    with mp.workdps(40):
        for row, got in zip(rows, batch):
            z0, z1 = (mp.mpf(x) for x in row)
            want = mp.exp(z0) * mp.expm1(z1 - z0) / (z1 - z0)
            assert rel_err(exp_dd(row), want) <= 2e-15, row
            assert rel_err(got, want) <= 2e-15, row


@pytest.mark.parametrize("top", [-600.0, -30.0, 0.0, 25.0, 600.0])
def test_recurrence_at_wide_spreads(top):
    # the centred recurrence overflowed (expm1 of a gap above 709.78, or
    # e^{z_i - mu}) or lost digits to a subnormal e^mu at orders 2 and 3,
    # although the value is representable
    shapes = ([0.5], [0.01], [0.99], [0.7, 0.3], [0.5, 0.01], [0.999, 0.5])
    spreads = np.append(np.geomspace(50.0, 1500.0, 12), [709.0, 710.0, 1420.0, 1500.0])
    rows = [[top - g] + [top - f * g for f in shape] + [top] for shape in shapes for g in spreads]
    rows += [[0.0, -800.0, -1599.99], [0.0, -709.0, -1418.0, -2127.0]]
    for order in (2, 3):
        same = [row for row in rows if len(row) == order + 1]
        batch = exp_dd_batch(same)
        with mp.workdps(60):
            for row, got in zip(same, batch):
                assert choose_method(row) is EvalMethod.RECURRENCE, row
                z = [mp.mpf(x) for x in row]
                want = mp.fsum(mp.exp(zi) / mp.fprod(zi - zj for zj in z if zj is not zi)
                               for zi in z)
                assert rel_err(exp_dd(row), want) <= 1e-13, row
                assert rel_err(got, want) <= 1e-13, row


def _one_loop_taylor_matrix(zs):
    """The matrix route as a self-contained scaling-and-squaring loop on the
    sorted nodes: the reference `exp_dd`'s matrix route reproduces bit for
    bit."""
    zs = np.sort(np.asarray(zs, dtype=float))
    m = len(zs)
    mu = float(zs.mean())
    Z = np.diag(zs - mu) + np.diag(np.ones(m - 1), 1)
    norm = float(np.abs(Z).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    B = Z / (2.0 ** s)
    F = np.eye(m)
    term = np.eye(m)
    for k in range(1, 64):
        term = term @ B / k
        F = F + term
        if np.abs(term).max() <= 1e-20 * np.abs(F).max():
            break
    for _ in range(s):
        F = F @ F
    return math.exp(mu) * float(F[0, -1])


def test_taylor_matrix_route_bit_identical_to_one_loop_reference():
    rng = np.random.default_rng(37)
    for n in range(1, 13):
        z = _node_rows(rng, n, 40)
        rng.permuted(z, axis=1, out=z)   # unsorted input
        z[::5] *= 1e-7                  # clustered
        for row in z:
            got = exp_dd(row, method=EvalMethod.TAYLOR_MATRIX)
            assert got == _one_loop_taylor_matrix(row), row.tolist()


def test_choose_method_clustered_four_nodes():
    # three nodes within 3e-5 of each other, 0.07 from the fourth: the two
    # cancelling recurrence levels lost 5e-10 here before the guard
    nodes = [-0.1615695561386045, -0.16155523326908003, -0.16154324919496776,
             -0.088235356226954]
    assert choose_method(nodes) is EvalMethod.TAYLOR_MATRIX
    assert rel_err(exp_dd(nodes), mp_exp_dd(nodes)) <= 1e-14
    assert rel_err(exp_dd(nodes, method=EvalMethod.RECURRENCE), mp_exp_dd(nodes)) > 1e-11
    # exact ties inside the cluster stay confluent-safe
    assert choose_method([0.0, 1.0, 1.0, 1.0]) is EvalMethod.RECURRENCE


def _node_rows(rng, n, count):
    """Random sorted node sets of order n; a third carry an exact tie, a
    third a near-tie."""
    base = rng.uniform(-30, 30, (count, 1))
    spread = 10.0 ** rng.uniform(-6, math.log10(30), (count, 1))
    z = np.sort(base + spread * rng.uniform(size=(count, n + 1)), axis=1)
    if n >= 1:
        k = count // 3
        z[:k, 1] = z[:k, 0]
        z[k:2 * k, 1] = z[k:2 * k, 0] + 1e-9 * (1.0 + abs(z[k:2 * k, 0]))
        z = np.sort(z, axis=1)
    return z


@pytest.mark.parametrize("constants", [{}, {"TAYLOR_SPREAD_FACTOR": 0.3},
                                       {"TAYLOR_MIN_GAP_FACTOR": 1e-2},
                                       {"TAYLOR_MAX_AMPLIFICATION": 3.0}])
def test_exp_dd_batch_routes_match_choose_method(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(divdiff, name, value)
    rng = np.random.default_rng(23)
    for n in range(0, 7):
        z = _node_rows(rng, n, 300)
        got = divdiff._taylor_rows(z)
        want = [choose_method(row) is EvalMethod.TAYLOR_MATRIX for row in z]
        assert got.tolist() == want, n


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=3).flatmap(lambda n: st.lists(
    st.tuples(st.floats(min_value=-30, max_value=30),
              st.floats(min_value=-6, max_value=math.log10(30)),
              st.lists(st.floats(min_value=0, max_value=1), min_size=n, max_size=n)),
    min_size=1, max_size=4)))
def test_exp_dd_batch_accuracy(rows):
    nodes = np.array([[base] + [base + 10.0 ** log_spread * f for f in fracs]
                      for base, log_spread, fracs in rows])
    got = exp_dd_batch(nodes)
    assert got.shape == (len(nodes),)
    for row, value in zip(nodes, got):
        assert value == pytest.approx(exp_dd(row), rel=1e-12)
        assert rel_err(value, mp_exp_dd(row)) <= 1e-12


def test_exp_dd_batch_matrix_rows():
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        z = _node_rows(rng, n, 60)
        z[::4] = z[::4, :1] + 1e-3 * np.arange(n + 1)  # clustered: matrix at any order
        assert divdiff._taylor_rows(z[::4]).all()
        got = exp_dd_batch(z)
        want = np.array([exp_dd(row) for row in z])
        assert np.abs(got / want - 1.0).max() <= 1e-12, n
    # one node per row is exp itself; an empty batch is empty
    assert exp_dd_batch([[0.0], [1.0]]) == pytest.approx([1.0, math.e], rel=1e-15)
    assert exp_dd_batch(np.empty((0, 3))).shape == (0,)


def test_exp_dd_batch_validation():
    for bad in ([0.0, 1.0], [[[0.0, 1.0]]], np.empty((2, 0))):
        with pytest.raises(ValueError, match="shape"):
            exp_dd_batch(bad)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            exp_dd_batch([[0.0, 1.0], [0.0, value]])
    with pytest.raises(OverflowError):
        exp_dd_batch([[0.0, 800.0]])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=7),
    st.floats(min_value=-3, max_value=3),
)
def test_exp_dd_shift_identity(nodes, mu):
    lhs = math.exp(mu) * exp_dd(nodes)
    rhs = exp_dd([x + mu for x in nodes])
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=9))
def test_exp_dd_positive(nodes):
    assert exp_dd(nodes) > 0.0


def test_exp_dd_confluent_limit():
    for x in np.linspace(-5.0, 5.0, 11):
        for eps in (1e-4, 1e-6, 1e-9, 1e-12):
            assert abs(exp_dd([x, x + eps]) - math.exp(x)) <= 2.0 * eps * math.exp(x)


def test_exp_dd_permutation_invariance_spot():
    rng = np.random.default_rng(3)
    nodes = list(rng.uniform(-2, 2, 5))
    base = exp_dd(nodes)
    for _ in range(10):
        rng.shuffle(nodes)
        assert exp_dd(nodes) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# polynomial exactness (generic tableau)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_polynomial_exactness(degree):
    rng = np.random.default_rng(degree)
    coeffs = rng.uniform(-2, 2, degree + 1)
    coeffs[-1] = 1.7  # leading coefficient
    poly = np.polynomial.Polynomial(coeffs)
    nodes = np.arange(degree + 1, dtype=float) * 0.7 - 1.0
    top = newton_table(poly(nodes), nodes).top
    assert top == pytest.approx(1.7, rel=1e-12)
    # one order higher annihilates the polynomial
    nodes2 = np.arange(degree + 2, dtype=float) * 0.7 - 1.0
    top2 = newton_table(poly(nodes2), nodes2).top
    assert abs(top2) < 1e-12


# ---------------------------------------------------------------------------
# equispaced forms


def test_equispaced_dd_linear_annihilation():
    f = lambda x: 3.0 * x - 1.0
    vals = [f(0.1 + k * 0.5) for k in range(3)]
    assert equispaced_dd(vals, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_equispaced_dd_exp_cases():
    vals = [math.exp(k) for k in range(2)]
    assert equispaced_dd(vals, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)
    vals = [math.exp(k) for k in range(3)]
    want = (math.exp(2) - 2 * math.e + 1) / 2
    assert equispaced_dd(vals, 1.0) == pytest.approx(want, rel=1e-14)
    # matches the generic tableau
    assert equispaced_dd(vals, 1.0) == pytest.approx(
        newton_table(vals, [0.0, 1.0, 2.0]).top, rel=1e-13)


def test_equispaced_dd_errors():
    with pytest.raises(ValueError):
        equispaced_dd([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        equispaced_dd([1.0, 2.0], 1.0, n=2)


def test_symmetric_equispaced_dd():
    # (e - 2 + 1/e) / 2
    vals = [math.exp(x) for x in (-1.0, 0.0, 1.0)]
    want = (math.e - 2.0 + math.exp(-1.0)) / 2.0
    assert symmetric_equispaced_dd(vals, 1.0) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.54308063481524377848, rel=1e-15)
    # even polynomial of low degree annihilated at order 2n
    g = lambda x: x * x
    vals = [g(x) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)]  # n = 2, order 4 > degree
    assert symmetric_equispaced_dd(vals, 1.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n,h", [(1, 0.5), (2, 0.25), (3, 1.0)])
def test_symmetric_equals_reindexed_equispaced(n, h):
    f = lambda x: math.sin(x) + 2.0
    xs = [(k - n) * h for k in range(2 * n + 1)]
    vals = [f(x) for x in xs]
    assert symmetric_equispaced_dd(vals, h) == pytest.approx(
        equispaced_dd(vals, h), rel=1e-12)


# ---------------------------------------------------------------------------
# Leibniz rule


def test_leibniz_constant_factor():
    nodes = [0.0, 0.5, 1.3, 2.0]
    v = newton_table([math.exp(x) for x in nodes], nodes)
    w = newton_table([1.0] * len(nodes), nodes)
    assert leibniz_dd(v, w) == pytest.approx(v.top, rel=1e-14)


def test_leibniz_identity_squared():
    nodes = [0.0, 1.0]
    ident = newton_table(nodes, nodes)
    assert leibniz_dd(ident, ident) == pytest.approx(1.0, rel=1e-14)


def test_leibniz_product_vs_direct():
    rng = np.random.default_rng(8)
    nodes = np.sort(rng.uniform(-1, 2, 5))
    v_vals = np.sin(nodes) + 2.0
    w_vals = np.exp(nodes)
    v = newton_table(v_vals, nodes)
    w = newton_table(w_vals, nodes)
    direct = newton_table(v_vals * w_vals, nodes).top
    assert leibniz_dd(v, w) == pytest.approx(direct, rel=1e-11)


def test_leibniz_linear_times_exp():
    # (z * exp)[0, c1 t, .., cn t] = exp[c1 t, .., cn t]: the step behind the
    # moment recurrence ODE
    t = 0.8
    cs = [0.3, 0.7, 1.4]
    nodes = [0.0] + [c * t for c in cs]
    v = newton_table(nodes, nodes)  # identity map values
    w = newton_table([math.exp(x) for x in nodes], nodes)
    want = exp_dd([c * t for c in cs])
    assert leibniz_dd(v, w) == pytest.approx(want, rel=1e-12)


def test_leibniz_node_mismatch():
    a = newton_table([1.0, 2.0], [0.0, 1.0])
    b = newton_table([1.0, 2.0], [0.0, 2.0])
    with pytest.raises(ValueError, match="different nodes"):
        leibniz_dd(a, b)


# ---------------------------------------------------------------------------
# squared-node identity


def test_square_nodes_exp_single():
    lhs, rhs = square_nodes_dd(math.exp, [1.0])
    assert lhs == pytest.approx(math.e - 1.0, rel=1e-14)
    assert rhs == pytest.approx(lhs, rel=1e-13)


def test_square_nodes_exp_pair():
    lhs, rhs = square_nodes_dd(math.exp, [1.0, math.sqrt(2.0)])
    assert lhs == pytest.approx(exp_dd([0.0, 1.0, 2.0]), rel=1e-13)
    assert rhs == pytest.approx(lhs, rel=1e-12)


def test_square_nodes_polynomial():
    # cubic with leading coefficient 2.5: the third dd recovers it exactly
    f = lambda x: 2.5 * x ** 3 - x + 4.0
    lhs, rhs = square_nodes_dd(f, [0.8, 1.4, 2.1])
    assert lhs == pytest.approx(2.5, rel=1e-12)
    assert rhs == pytest.approx(2.5, rel=1e-12)


def test_square_nodes_errors():
    with pytest.raises(ValueError, match="nonzero"):
        square_nodes_dd(math.exp, [0.0, 1.0])
    with pytest.raises(ValueError, match="distinct"):
        square_nodes_dd(math.exp, [1.0, -1.0])


# ---------------------------------------------------------------------------
# Hermite-Genocchi oracles


def test_hg_oracle_rejects_order_zero():
    with pytest.raises(ValueError):
        hermite_genocchi_oracle(math.exp, [1.0])


def test_hg_sampling_matches_exp_dd():
    nodes = [0.0, 1.0]
    est = hermite_genocchi_oracle(np.exp, nodes, budget=200_000, seed=5)
    assert est.error > 0
    assert abs(est.value - (math.e - 1.0)) <= 4.0 * est.error
    nodes = [0.0, 0.05, 0.14]
    est = hermite_genocchi_oracle(np.exp, nodes, budget=200_000, seed=6)
    assert abs(est.value - 0.53291500034602833099) <= 4.0 * est.error


def test_hg_sampling_simplex_volume():
    # f^(n) constant 1: the integral is the simplex volume 1/n!
    for n in (1, 2, 3, 5):
        nodes = list(np.linspace(0.0, 1.0, n + 1))
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        est = hermite_genocchi_oracle(one, nodes, budget=20_000, seed=1)
        assert est.value == pytest.approx(1.0 / math.factorial(n), rel=1e-12)
        assert est.error <= 1e-15


def test_hg_sampling_seed_determinism():
    nodes = [0.0, 0.7, 1.1]
    a = hermite_genocchi_oracle(np.exp, nodes, budget=5000, seed=42)
    b = hermite_genocchi_oracle(np.exp, nodes, budget=5000, seed=42)
    c = hermite_genocchi_oracle(np.exp, nodes, budget=5000, seed=43)
    assert a == b
    assert a.value != c.value


@pytest.mark.parametrize("nodes", [[0.0, 1.0], [0.0, 0.05, 0.14], [-1.0, 0.3, 0.9, 2.0],
                                   [0.1, 0.2, 0.3, 0.4, 0.5]])
def test_hg_quadrature_matches_exp_dd(nodes):
    est = hermite_genocchi_oracle(np.exp, nodes, budget=24, method="quadrature")
    assert est.value == pytest.approx(exp_dd(nodes), rel=1e-11)


def test_hg_quadrature_order_guard():
    with pytest.raises(ValueError, match="n <= 4"):
        hermite_genocchi_oracle(np.exp, list(range(6)), budget=8, method="quadrature")


def test_hg_scalar_callable_fallback():
    est = hermite_genocchi_oracle(lambda x: math.exp(x), [0.0, 1.0],
                                  budget=2000, seed=9)
    assert abs(est.value - (math.e - 1.0)) <= 4.0 * est.error


# ---------------------------------------------------------------------------
# simplex integrals


def test_simplex_exp_integral_identity_cases():
    # n = 1, a = 0: the unit segment has length 1 and exp[0, 0] = 1
    spec = SimplexSpec(V=np.eye(1), a=np.zeros(1))
    assert simplex_exp_integral(spec) == pytest.approx(1.0, rel=1e-14)
    # n = 2, a = 0: area of the unit triangle
    spec = SimplexSpec(V=np.eye(2), a=np.zeros(2))
    assert simplex_exp_integral(spec) == pytest.approx(0.5, rel=1e-14)


def test_simplex_exp_integral_lower_triangular_ones():
    # V = [[1, 0], [1, 1]]: integral equals exp[0, a2, a2 + a1]
    V = np.array([[1.0, 0.0], [1.0, 1.0]])
    for a in ([0.5, 0.25], [1.0, -0.7]):
        spec = SimplexSpec(V=V, a=np.array(a))
        want = exp_dd([0.0, a[1], a[1] + a[0]])
        assert simplex_exp_integral(spec) == pytest.approx(want, rel=1e-13)
        # cross-check by nested quadrature over the same simplex
        quad = ordered_exp_simplex_quad(a, order=24)
        assert simplex_exp_integral(spec) == pytest.approx(quad, rel=1e-12)


def test_simplex_exp_integral_general_matrix_vs_mc():
    rng = np.random.default_rng(12)
    V = rng.uniform(-1, 1, (3, 3)) + 2.0 * np.eye(3)
    a = rng.uniform(-1, 1, 3)
    spec = SimplexSpec(V=V, a=a)
    got = simplex_exp_integral(spec)
    # Monte Carlo over K(V) = conv{0, v1, v2, v3}: uniform barycentric
    # coordinates (t0 on the zero vertex), mapped through V
    n = 200_000
    u = np.sort(rng.random((n, 3)), axis=1)
    t = np.diff(u, axis=1, prepend=0.0, append=1.0)  # (n, 4) barycentric
    y = t[:, 1:] @ V.T
    vals = np.exp(y @ a)
    vol = abs(np.linalg.det(V)) / 6.0
    est = vol * vals.mean()
    err = vol * vals.std(ddof=1) / math.sqrt(n)
    assert abs(got - est) <= 4.0 * err


def test_simplex_spec_singular():
    V = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match="singular"):
        SimplexSpec(V=V, a=np.zeros(2))
    with pytest.raises(ValueError):
        SimplexSpec(V=np.eye(2), a=np.zeros(3))


def test_iterated_ordered_exp_integral():
    # all zero coefficients: ordered-simplex volume 1/n!
    for n in (1, 2, 4):
        assert iterated_ordered_exp_integral([0.0] * n) == pytest.approx(
            1.0 / math.factorial(n), rel=1e-13)
    assert iterated_ordered_exp_integral([1.0]) == pytest.approx(math.e - 1.0, rel=1e-14)
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        a = list(rng.uniform(-1.5, 1.5, n))
        assert iterated_ordered_exp_integral(a) == pytest.approx(
            ordered_exp_simplex_quad(a, order=28), rel=1e-11)


def test_method_agreement_on_conditioning_safe_cases():
    # recurrence, matrix and (equispaced nodes) forward-difference paths agree
    rng = np.random.default_rng(7)
    for n, spread in [(1, 0.01), (2, 0.01), (2, 0.1), (3, 0.05), (3, 1.0),
                      (4, 0.5), (5, 1.0), (6, 3.0), (8, 10.0)]:
        base = float(rng.uniform(-1.5, 1.5))
        nodes = base + np.linspace(0.0, spread, n + 1)
        rec = exp_dd(nodes, method=EvalMethod.RECURRENCE)
        tay = exp_dd(nodes, method=EvalMethod.TAYLOR_MATRIX)
        equ = exp_dd(nodes, method=EvalMethod.EQUISPACED_FORWARD_DIFFERENCE)
        assert rec == pytest.approx(tay, rel=1e-9)
        assert equ == pytest.approx(tay, rel=1e-9)
