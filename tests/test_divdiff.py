import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmdd import divdiff, moments
from gbmdd.ddarith import exp_dd_reference
from gbmdd.moments import BNodes, GbmParams, moment_table
from gbmdd.divdiff import (
    TAYLOR_MAX_AMPLIFICATION,
    TAYLOR_MIN_GAP,
    TAYLOR_MIN_ORDER,
    TAYLOR_MIN_SPREAD,
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
from references import (_row_exp_dd_batch, _taylor_rows, anchored_first_row, first_rows,
                        mp_exp_dd, times_exp)


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
    # the nodes are read once, so any iterable will do
    assert exp_dd(x for x in (0.0, 0.5, 1.4)) == exp_dd([0.0, 0.5, 1.4])


def test_nonfinite_scaled_nodes_rejected():
    # finite nodes whose products with a finite scale are not finite gave
    # nan and inf from exp_dd, and choose_method took any scale
    for nodes, scale in (([1.0, 2.0], 1e308), ([1e200], 1e200), ([0.0, -1e300, 1.0], 1e10)):
        with pytest.raises(ValueError, match="finite"):
            exp_dd(nodes, scale=scale)
        with pytest.raises(ValueError, match="finite"):
            choose_method(nodes, scale=scale)
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            choose_method([0.0, 1.0, 2.0], scale=scale)
        with pytest.raises(ValueError, match="finite"):
            exp_dd([0.0, 1.0, 2.0], scale=scale)


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
    with pytest.raises(ValueError, match="unknown evaluation method"):
        exp_dd(nodes, method="equispaced-forward-difference")
    # one node takes a shortcut on either route, but not on an unknown one
    for m in EvalMethod:
        assert exp_dd([0.5], method=m) == math.exp(0.5), m
    with pytest.raises(ValueError, match="unknown evaluation method"):
        exp_dd([0.5], method="no-such-route")


def test_choose_method_geometry():
    assert choose_method([0.0, 1.0, 2.0]) is EvalMethod.RECURRENCE
    # tight cluster
    assert choose_method([1.0, 1.001, 1.002]) is EvalMethod.TAYLOR_MATRIX
    # order guard
    assert choose_method(list(range(6))) is EvalMethod.TAYLOR_MATRIX
    # a near-coincident pair inside a cluster; inside a wide spread it costs
    # the recurrence no more than a generic set of the same s2 * spread
    assert choose_method([0.0, 0.1, 0.1 + 1e-9, 0.3]) is EvalMethod.TAYLOR_MATRIX
    assert choose_method([0.0, 1.0, 1.0 + 1e-9, 3.0]) is EvalMethod.RECURRENCE
    # exact ties stay on the recurrence (confluent-safe)
    assert choose_method([0.0, 1.0, 1.0, 3.0]) is EvalMethod.RECURRENCE
    # scale shrinks the spread below the threshold
    assert choose_method([0.0, 1.0, 2.0], scale=1e-3) is EvalMethod.TAYLOR_MATRIX


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
                want = mp_exp_dd(row)
                assert rel_err(exp_dd(row), want) <= 1e-13, row
                assert rel_err(got, want) <= 1e-13, row


def test_matrix_route_at_wide_spreads():
    # centred on the mean the matrix route overflowed although the value is
    # representable, or multiplied by a subnormal e^mean: 0.0 for the order-10
    # moment nodes of a wide point, whose value is 5.4e-29.  Anchored on the
    # largest node every entry before the factor e^{z_n} lies in [0, 1].
    p = GbmParams(-294.18111374533737, 8.030179567610869, 1.522390629675763)
    rows = [[0.0, -400.0, -800.0, -1200.0, -1600.0], [-740.0, -700.0], [-740.0, -715.0, -710.0],
            list(BNodes.from_params(p, 10).scaled(p.T))]
    shapes = ([0.5], [0.2, 0.7], [0.1, 0.5, 0.6], [0.05, 0.3, 0.6, 0.9], [0.3, 0.31, 0.32, 0.6, 0.95])
    rows += [[top - g] + [top - f * g for f in shape] + [top]
             for top in (-600.0, -300.0, 0.0, 300.0) for g in (700.0, 1000.0, 1600.0)
             for shape in shapes]
    for row in rows:
        with mp.workdps(900):
            want = mp_exp_dd(row)
        bound = 1e-12 * max(1.0, (max(row) - min(row)) / 250.0)
        for method in (EvalMethod.AUTO, EvalMethod.TAYLOR_MATRIX):
            assert rel_err(exp_dd(row, method=method), want) <= bound, (row, method)
    # the batch's matrix rows, stacked by squaring count, keep the scalar bits
    for n in range(2, 11):
        same = [row for row in rows
                if len(row) == n + 1 and choose_method(row) is EvalMethod.TAYLOR_MATRIX]
        if same:
            assert exp_dd_batch(same).tolist() == [exp_dd(row) for row in same], n


def _centred_row(z: np.ndarray):
    """e^mu times the first row of exp(Z), Z with z - mu on its diagonal for
    mu the mean node; None where e^mu is subnormal or overflows, or an entry
    leaves the double range."""
    mu = float(np.add.reduce(z)) / len(z)
    if not math.log(sys.float_info.min) <= mu < math.log(sys.float_info.max):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        row = math.exp(mu) * first_rows(z, mu)
    return row if np.isfinite(row).all() else None


def _centred_matrix_route(zs) -> float:
    """The matrix route centred on the mean node, which `exp_dd` took before
    it anchored on the largest node, kept as an accuracy baseline; it fell
    back on the largest node where `_centred_row` gives None."""
    row = _centred_row(np.sort(np.asarray(zs, dtype=float)))
    return float(row[-1]) if row is not None else exp_dd(zs, method=EvalMethod.TAYLOR_MATRIX)


def _matrix_route_families(rng) -> dict:
    """Seeded node sets the matrix route serves: clustered sets of three and
    four distinct nodes and four-node near-ties that AUTO sends there (400
    each), and sets of orders 5 to 12 at spreads 100 and 1000 (200 each)."""
    families = {}
    for name, n in (("clustered 3", 2), ("clustered 4", 3), ("near-tie 4", 3)):
        rows = []
        while len(rows) < 400:
            if name == "near-tie 4":
                z = _node_rows(rng, n, 300)[100:200]
            else:
                base = rng.uniform(-30.0, 30.0, (300, 1))
                spread = (1.0 + np.abs(base)) * 10.0 ** rng.uniform(-7.0, math.log10(0.05), (300, 1))
                z = np.sort(base + spread * rng.uniform(size=(300, n + 1)), axis=1)
            rows += [row for row in z.tolist() if len(set(row)) == n + 1
                     and divdiff._route(row) is EvalMethod.TAYLOR_MATRIX]
        families[name] = rows[:400]
    for spread in (100.0, 1000.0):
        families[f"orders 5-12, spread {spread:g}"] = [
            (rng.uniform(-300.0, 300.0) - spread * np.sort(np.r_[0.0, rng.uniform(size=n - 1), 1.0])).tolist()
            for n in range(5, 13) for _ in range(25)]
    return families


def test_anchored_matrix_route_at_least_as_accurate_as_centred():
    # on every family of `_matrix_route_families` and on the order-10 moment
    # nodes of a wide point (which the centred route evaluated anchored,
    # e^mean being subnormal) the anchored route's worst error against
    # mpmath stays at or below the mean-centred route's.  `moment_table`'s
    # shared row is not in this guard: it anchors low orders far below their
    # own largest node, and over 400 seeded points its worst error reached
    # 1.4 times the centred row's, its mean 1.05 times (the spread-scaled
    # bound of `test_moment_table_against_mpmath_bidiagonal_expm` holds)
    worst = {}
    for name, rows in _matrix_route_families(np.random.default_rng(61)).items():
        with mp.workdps(60):
            want = [mp_exp_dd(row) for row in rows]
        worst[name] = (max(rel_err(exp_dd(row), w) for row, w in zip(rows, want)),
                       max(rel_err(_centred_matrix_route(row), w) for row, w in zip(rows, want)))
    p = GbmParams(-294.18111374533737, 8.030179567610869, 1.522390629675763)
    nodes = BNodes.from_params(p, 10).scaled(p.T)
    with mp.workdps(900):
        want = mp_exp_dd(nodes)
    worst["wide order 10"] = rel_err(exp_dd(nodes), want), rel_err(_centred_matrix_route(nodes), want)
    for name, (anchored, centred) in worst.items():
        assert anchored <= centred, (name, anchored, centred)


def test_taylor_matrix_route_bit_identical_to_one_loop_reference():
    rng = np.random.default_rng(37)
    for n in range(1, 13):
        z = _node_rows(rng, n, 40)
        rng.permuted(z, axis=1, out=z)   # unsorted input
        z[::5] *= 1e-7                  # clustered
        for row in z:
            got = exp_dd(row, method=EvalMethod.TAYLOR_MATRIX)
            t, x = anchored_first_row(np.sort(row), row.max())
            assert got == times_exp(t, x[-1]), row.tolist()


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


def test_near_tie_guard_keeps_var_A_nodes_accurate():
    # var A(T)'s nodes [0, rT, 2rT, (2r + sigma^2) T] at a small sigma: the
    # TAYLOR_MIN_GAP guard sends the near-tie to the matrix route
    # (worst seen 1.3e-15); without it the recurrence reached 4.5e-13
    rng = np.random.default_rng(73)
    worst = 0.0
    for _ in range(150):
        rT = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.03, 0.3))
        eps = float(10.0 ** rng.uniform(-8.0, -5.5))
        nodes = [0.0, rT, 2.0 * rT, 2.0 * rT + eps]
        worst = max(worst, rel_err(exp_dd(nodes), mp_exp_dd(nodes)))
    assert worst <= 1e-14


def _amplification_bound_sets(rng, count: int) -> list[list[float]]:
    """Sorted four-node sets {lo, lo + u s2, lo + s2, lo + spread}, half of
    them mirrored about their middle, with s2 just large enough that AUTO's
    amplification bound keeps them on the recurrence; only sets of distinct
    nodes that AUTO sends to the recurrence are kept."""
    out = []
    while len(out) < count:
        k = 1024
        lo = rng.uniform(-30.0, 30.0, k)
        spread = 10.0 ** rng.uniform(-1.0, math.log10(30.0), k)
        s2 = 1.0 / (TAYLOR_MAX_AMPLIFICATION * spread) * rng.uniform(1.0, 1.5, k)
        z = np.stack([lo, lo + rng.uniform(0.05, 0.95, k) * s2, lo + s2, lo + spread], axis=1)
        flip = rng.random(k) < 0.5
        z[flip] = (z[flip].min(axis=1) + z[flip].max(axis=1))[:, None] - z[flip]
        out += [row for row in np.sort(z, axis=1).tolist()
                if len(set(row)) == 4 and divdiff._route(row) is EvalMethod.RECURRENCE]
    return out[:count]


def test_recurrence_accuracy_at_the_amplification_bound():
    # four nodes just inside TAYLOR_MAX_AMPLIFICATION stay on the recurrence,
    # whose two cancelling levels amplify rounding the most there (worst seen
    # 7.9e-13 over 100 000 such sets)
    worst = 0.0
    with mp.workdps(60):
        for row in _amplification_bound_sets(np.random.default_rng(7), 3000):
            worst = max(worst, rel_err(exp_dd(row), mp_exp_dd(row)))
    assert worst <= 1e-12


def _centred_recurrence(zs: list[float]) -> float:
    """The recurrence centred on the mean mu of the sorted nodes, which
    `exp_dd` took before it anchored every tableau on the largest node, kept
    as an accuracy baseline: e^mu times the Newton tableau of exp(z - mu),
    whose first level is e^{z_i - mu} expm1(g) / g."""
    n = len(zs)
    mu = math.fsum(zs) / n
    lev = [math.exp(zs[i] - mu) * (math.expm1(g) / g if g != 0.0 else 1.0)
           for i, g in enumerate(b - a for a, b in zip(zs, zs[1:]))]
    for k in range(2, n):
        lev = [math.exp(zs[i] - mu) / math.factorial(k) if zs[i + k] == zs[i]
               else (lev[i + 1] - lev[i]) / (zs[i + k] - zs[i]) for i in range(n - k)]
    return math.exp(mu) * lev[0]


def test_anchored_recurrence_at_least_as_accurate_as_centred():
    # seeded sets of three and four distinct nodes that AUTO sends to the
    # recurrence, and the four-node sets at its amplification bound: the
    # anchored tableau's worst and mean errors stay at or below the centred
    # one's (worst 5.1e-15, 2.5e-13 and 2.6e-13 against 7.3e-15, 4.4e-13 and
    # 5.5e-13)
    rng = np.random.default_rng(5)
    groups = []
    for n in (2, 3):
        rows = []
        while len(rows) < 3000:
            rows += [row for row in _node_rows(rng, n, 512).tolist() if len(set(row)) == n + 1
                     and divdiff._route(row) is EvalMethod.RECURRENCE]
        groups.append(rows[:3000])
    groups.append(_amplification_bound_sets(np.random.default_rng(7), 3000))
    for i, rows in enumerate(groups):
        with mp.workdps(60):
            want = [mp_exp_dd(row) for row in rows]
        got = [rel_err(exp_dd(row), w) for row, w in zip(rows, want)]
        base = [rel_err(_centred_recurrence(row), w) for row, w in zip(rows, want)]
        assert max(got) <= max(base) and np.mean(got) <= np.mean(base), i


def test_underflowed_tableau_raises_for_any_top():
    # at a spread of 1e134 x = exp[z - z_n] underflows to 0; with a top of
    # 700 both forms read 0.0 where the value is 6.8e-98, and now raise
    # OverflowError for any top, as they did above 709.78
    with mp.workdps(60):
        assert rel_err(6.8e-98, mp_exp_dd([-1e134, -5e133, -3e133, 700.0])) < 0.01
    for top in (-700.0, 0.0, 700.0, 1400.0):
        row = [-1e134, -5e133, -3e133, top]
        for method in (EvalMethod.AUTO, EvalMethod.TAYLOR_MATRIX):
            with pytest.raises(OverflowError):
                exp_dd(row, method=method)
        with pytest.raises(OverflowError):
            exp_dd_batch([row, [0.0, 1.0, 2.0, 3.0]])
        assert np.isnan(divdiff._exp_dd_columns(np.array([row]).T)).all()


def test_x_outside_the_normal_range_raises():
    # a subnormal x = exp[z - max z] keeps few digits: e^700 x read 3.1e-5
    # off at the first set, whose value 6.8e-15 is a normal double, and 77%
    # off at the second on the recurrence; a recurrence forced onto five
    # clustered nodes returned a negative value
    rows = [[-1e80, -5e79, -3e79, -1e79, 700.0], [-6.4e161, -3.2e161, 0.0, 1.0]]
    with mp.workdps(60):
        assert 6e-15 < mp_exp_dd(rows[0]) < 7e-15
    for row in rows:
        with pytest.raises(OverflowError):
            exp_dd(row)
        with pytest.raises(OverflowError):
            exp_dd_batch([row, [0.0, 1.0, 2.0, 3.0, 4.0][:len(row)]])
        assert np.isnan(divdiff._exp_dd_columns(np.array([row]).T)).all()
    clustered = [0.34125003469931237, 0.34125076260196946, 0.34125086251458175,
                 0.3412519106533954, 0.34125196209372305]
    assert divdiff._exp_dd_recurrence(clustered) < 0.0
    with pytest.raises(OverflowError):
        exp_dd(clustered, method=EvalMethod.RECURRENCE)
    assert rel_err(exp_dd(clustered), mp_exp_dd(clustered)) <= 1e-14


def test_matrix_route_where_the_top_exponential_overflows():
    # e^{z_n} overflows above z_n = 709.78 although the value may not: the
    # matrix route takes h x h with h = e^{z_n / 2} as the recurrence does,
    # and raises OverflowError where the value overflows too.  Centred, it
    # raised wherever e^mean overflowed (the four sets with a mean above 712)
    rows = [[610.0, 630.0, 650.0, 680.0, 715.0], [700.0, 700.0001, 700.0002, 712.0],
            [714.0 + 0.25 * k for k in range(9)], [712.0 + 0.5 * k for k in range(10)],
            [705.0 + 2.0 * k for k in range(8)], [700.0, 708.0, 712.0, 716.0, 718.0, 719.0, 720.0, 722.0],
            [735.0, 735.0 + 1e-3, 735.0 + 2e-3], [650.0, 700.0, 710.0, 720.0, 730.0, 745.0],
            [740.0, 741.0, 742.0, 743.0, 745.0], [756.0, 757.0, 758.0, 759.0, 759.9]]
    seen = set()
    for row in rows:
        assert choose_method(row) is EvalMethod.TAYLOR_MATRIX, row
        with mp.workdps(60):
            want = mp_exp_dd(row)
        seen.add(want < sys.float_info.max)
        if want < sys.float_info.max:
            assert rel_err(exp_dd(row), want) <= 1e-13, row
            assert rel_err(exp_dd_batch([row])[0], want) <= 1e-13, row
        else:
            with pytest.raises(OverflowError):
                exp_dd(row)
            with pytest.raises(OverflowError):
                exp_dd_batch([row])
    assert seen == {True, False}


def test_recurrence_where_the_top_exponential_overflows():
    # e^{z_n} overflows above z_n = 709.78 although the value may not; there
    # the recurrence takes h x h with h = e^{z_n / 2}, and scalar and batch
    # raise OverflowError where the value overflows too
    p = GbmParams(361.198439088731, 12.887404419744092, 0.8174306735674376)
    assert moments._var_A_dd(p) == 6.134249211933302e+307
    shapes = ([], [0.5], [0.01], [0.99], [0.7, 0.3], [0.5, 0.01], [0.999, 0.5])
    rows = [[0.0, *moments._ddn(p)], [0.0, 800.0]]
    rows += [[top - g] + [top - f * g for f in shape] + [top] for shape in shapes
             for top in (709.8, 712.0, 725.0, 740.0, 759.9) for g in (40.0, 100.0, 300.0, 1500.0)]
    seen = set()
    for row in rows:
        assert choose_method(row) is EvalMethod.RECURRENCE, row
        with mp.workdps(60):
            want = mp_exp_dd(row)
        seen.add(want < sys.float_info.max)
        if want < sys.float_info.max:
            assert rel_err(exp_dd(row), want) <= 1e-13, row
            assert rel_err(exp_dd_batch([row])[0], want) <= 1e-13, row
        else:
            with pytest.raises(OverflowError):
                exp_dd(row)
            with pytest.raises(OverflowError):
                exp_dd_batch([row])
    assert seen == {True, False}
    # at a spread of 1e134 the tableau underflows to 0; the value, 6.9e206,
    # is not taken as 0.0
    with pytest.raises(OverflowError):
        exp_dd([-1e134, -5e133, -3e133, 1400.0])
    with pytest.raises(OverflowError):
        exp_dd_batch([[-1e134, -5e133, -3e133, 1400.0]])


def _flip(matrix, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent doubles a < b in [lo, hi] with matrix(a) and not matrix(b),
    by bisection; matrix(lo) must hold and matrix(hi) must not."""
    assert matrix(lo) and not matrix(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = lo + (hi - lo) / 2.0
        lo, hi = (mid, hi) if matrix(mid) else (lo, mid)
    return lo, hi


def _boundary_node_sets():
    """Pairs of sorted node sets one ulp apart on either side of one of
    AUTO's bounds, the matrix side first; each bound is written out as the
    rule evaluates it, on the sets built here, where no other bound holds."""
    def pair(kind, rows, test, lo, hi):
        a, b = _flip(lambda x: test(rows(x)), lo, hi)
        return kind, rows(a), rows(b)

    for lo in (-700.0, -40.0, -3.0, -0.25, 0.0, 0.7, 2.5, 100.0, 700.0):
        yield pair("spread", lambda x: [lo, lo + (x - lo) / 2.0, x],
                   lambda z: z[-1] - z[0] < TAYLOR_MIN_SPREAD, lo, lo + 1.0)
        # four nodes: a near-tie above lo inside a cluster, and the cluster's
        # spread crossing 1 around a near-tie
        yield pair("gap", lambda x: [lo, x, lo + 0.3, lo + 0.6],
                   lambda z: z[1] - z[0] < TAYLOR_MIN_GAP, math.nextafter(lo, math.inf), lo + 0.1)
        yield pair("cluster", lambda x: [lo, lo + 1e-7, lo + 0.5, x],
                   lambda z: z[-1] - z[0] < 1.0, lo + 0.9, lo + 1.1)
        # the span z_2 - z_0 shrinks onto z_1
        yield pair("amplification", lambda x: [lo, lo + 1e-3, x, lo + 2.0],
                   lambda z: TAYLOR_MAX_AMPLIFICATION * (z[2] - z[0]) * (z[-1] - z[0]) < 1.0,
                   lo + 2e-3, lo + 0.5)


def test_auto_rule_at_its_threshold_boundaries():
    # one ulp either side of each bound: the scalar rule, choose_method and
    # the batch kernel's column rule all switch exactly there
    seen = set()
    for kind, matrix_side, recurrence_side in _boundary_node_sets():
        seen.add(kind)
        for zs, want in ((matrix_side, EvalMethod.TAYLOR_MATRIX),
                         (recurrence_side, EvalMethod.RECURRENCE)):
            assert zs == sorted(zs), (kind, zs)
            assert divdiff._route(zs) is want, (kind, zs)
            assert choose_method(zs[::-1]) is want, (kind, zs)
            taylor = divdiff._taylor_columns(np.array([zs]).T)
            assert taylor.tolist() == [want is EvalMethod.TAYLOR_MATRIX], (kind, zs)
    assert seen == {"spread", "gap", "cluster", "amplification"}


def _threshold_margin(z) -> float:
    """The smallest log-distance of a sorted set's rule quantities from
    AUTO's bounds: the spread of three nodes; of four, the amplification
    product, the spread against 1 and the smallest positive gap."""
    spread = z[-1] - z[0]
    if len(z) == 3:
        q = [spread / TAYLOR_MIN_SPREAD]
    else:
        s2 = min((s for s in (z[2] - z[0], z[3] - z[1]) if s > 0.0), default=math.inf)
        gap = min((b - a for a, b in zip(z, z[1:]) if b > a), default=math.inf)
        q = [TAYLOR_MAX_AMPLIFICATION * s2 * spread, spread, gap / TAYLOR_MIN_GAP]
    return min((abs(math.log(x)) for x in q if 0.0 < x < math.inf), default=math.inf)


def test_auto_route_is_translation_invariant():
    # AUTO reads spans only, so a shape keeps its route at every offset, in
    # the scalar rule and in the batch's column rule; the seeded shapes (a
    # third with an exact tie, a third with a gap of 1e-9 to 1e-3) stay at
    # least 1% away from each bound
    rng = np.random.default_rng(89)
    seen = set()
    for n in (2, 3):
        z = 10.0 ** rng.uniform(-3.0, 0.7, (600, 1)) * rng.uniform(size=(600, n + 1))
        z[:200, 1] = z[:200, 0]
        z[200:400, 1] = z[200:400, 0] + 10.0 ** rng.uniform(-9.0, -3.0, 200)
        z = np.sort(z, axis=1)
        z = z[[_threshold_margin(row) > math.log(1.01) for row in z.tolist()]]
        want = [choose_method(row) for row in z]
        seen.update((n, method) for method in want)
        for offset in (0.0, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0, 700.0, -700.0):
            shifted = z + offset
            assert [divdiff._route(row) for row in shifted.tolist()] == want, (n, offset)
            taylor = divdiff._taylor_columns(shifted.T)
            assert taylor.tolist() == [m is EvalMethod.TAYLOR_MATRIX for m in want], (n, offset)
    assert seen == {(n, m) for n in (2, 3) for m in (EvalMethod.RECURRENCE, EvalMethod.TAYLOR_MATRIX)}


@pytest.mark.parametrize("shape", [lambda L: [-L, -1.0, 0.0], lambda L: [-L, -2.0, -1.0, 0.0],
                                   lambda L: [-L, 0.0, 0.5], lambda L: [-L, -L / 2.0, 0.0, 1.0],
                                   lambda L: [-L, -1e-6, 0.0, 1.0], lambda L: [-L, 0.0, 1e-7, 2.0]],
                         ids=["-L,-1,0", "-L,-2,-1,0", "-L,0,0.5", "-L,-L/2,0,1", "-L,-1e-6,0,1",
                              "-L,0,1e-7,2"])
def test_wide_node_sets_accurate_or_raise(shape):
    # spreads L = 10^k up to 1e300: the matrix route's ~log2(L) squarings
    # returned values up to 2.4 times off without a sign; the recurrence,
    # which AUTO now takes, is within 1e-12 of mpmath or raises
    # OverflowError, and only where x = exp[z - max z] is not a normal double
    returned = 0
    for k in range(1, 301):
        row = shape(10.0 ** k)
        with mp.workdps(60):
            want = mp_exp_dd(row)
            x = want / mp.exp(max(row))
        for f in (exp_dd, lambda r: exp_dd_batch([r])[0]):
            try:
                got = f(row)
            except OverflowError:
                assert x < 2.0 * sys.float_info.min, (row, f)
                continue
            assert rel_err(got, want) <= 1e-12, (row, f)
            returned += 1
    assert returned >= 2 * 150


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


@pytest.mark.parametrize("constants", [{}, {"TAYLOR_MIN_SPREAD": 0.3},
                                       {"TAYLOR_MIN_GAP": 1e-2},
                                       {"TAYLOR_MAX_AMPLIFICATION": 3.0}])
def test_exp_dd_batch_routes_match_choose_method(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(divdiff, name, value)
    rng = np.random.default_rng(23)
    for n in range(0, 7):
        z = _node_rows(rng, n, 300)
        got = divdiff._taylor_columns(z.T)
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
        assert divdiff._taylor_columns(z[::4].T).all()
        got = exp_dd_batch(z)
        want = np.array([exp_dd(row) for row in z])
        assert np.abs(got / want - 1.0).max() <= 1e-12, n
    # one node per row is exp itself; an empty batch is empty
    assert exp_dd_batch([[0.0], [1.0]]) == pytest.approx([1.0, math.e], rel=1e-15)
    assert exp_dd_batch(np.empty((0, 3))).shape == (0,)


def _column_kernel_cases(rng, n):
    """Unsorted node rows of order n: exact and near ties on mixed routes,
    -0.0 next to 0.0, and at orders up to 3 spreads up to 1500, tops down to
    -720, and tops in (709.8, 760), where e^{z_n} overflows and the value
    may or may not."""
    parts = [_node_rows(rng, n, 90),
             rng.choice([-0.0, 0.0, 0.0, 1.5, -2.0], (30, n + 1))]
    if 1 <= n <= 3:
        shapes = {1: [[]], 2: [[0.5], [0.01], [0.99]], 3: [[0.7, 0.3], [0.5, 0.01], [0.999, 0.5]]}
        parts.append([[top - g] + [top - f * g for f in shape] + [top]
                      for shape in shapes[n] for top in (-600.0, 0.0, 600.0)
                      for g in np.geomspace(50.0, 1500.0, 6)])
        parts.append([[top - g] + [top - f * g for f in shape] + [top]
                      for shape in shapes[n] for top in (-720.0, -700.0) for g in (40.0, 300.0)])
        parts.append([[top - g] + [top - f * g for f in shape] + [top]
                      for shape in shapes[n] for top in (712.0, 735.0, 759.0)
                      for g in (40.0, 300.0, 1500.0)])
    z = np.concatenate(parts)
    return rng.permuted(rng.permutation(z), axis=1)


def test_exp_dd_batch_bit_identical_to_row_kernels():
    rng = np.random.default_rng(41)
    for n in range(0, 7):
        z = _column_kernel_cases(rng, n)
        zs = np.sort(z, axis=1)
        with np.errstate(all="ignore"):   # as in exp_dd_batch: inf * 0 on all-tie rows
            taylor = _taylor_rows(zs)
            assert divdiff._taylor_columns(zs.T).tolist() == taylor.tolist(), n
        if 2 <= n <= 3:
            assert 0 < taylor.sum() < len(z), n   # both routes in one batch
        assert np.array_equal(np.stack(divdiff._sort_columns(z.T)), zs.T), n
        got = divdiff._exp_dd_columns(z.T)
        assert got.tobytes() == _row_exp_dd_batch(z).tobytes(), n
        finite = np.isfinite(got)
        assert exp_dd_batch(z[finite]).tobytes() == got[finite].tobytes(), n
        if 1 <= n <= 3:
            # recurrence rows whose e^{z_n} overflows take h x h, h = e^{z_n / 2},
            # and some of those values overflow too
            big = ~taylor & (zs[:, -1] > 709.8)
            assert finite[big].any() and not finite[big].all(), n
        assert exp_dd_batch(np.empty((0, n + 1))).tobytes() == b""


def test_exp_dd_batch_validation():
    for bad in ([0.0, 1.0], [[[0.0, 1.0]]], np.empty((2, 0))):
        with pytest.raises(ValueError, match="shape"):
            exp_dd_batch(bad)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            exp_dd_batch([[0.0, 1.0], [0.0, value]])
    with pytest.raises(OverflowError):
        exp_dd_batch([[0.0, 800.0]])


# The scalar dispatch as it was before `exp_dd` validated, sorted and routed
# its scaled nodes once, kept verbatim (with `_coerce_nodes`) but for the
# anchoring: each route computes x = exp[z - z_n] on the sorted nodes, the
# matrix route by the reference Taylor loop `first_rows`, and `times_exp`
# returns e^{z_n} x.  The single path reproduces it bit for bit.


def _coerce_nodes(nodes) -> tuple[float, ...]:
    if isinstance(nodes, NodeList):
        return nodes.nodes
    vals = tuple(float(x) for x in nodes)
    if len(vals) == 0:
        raise ValueError("need at least one node")
    if not all(math.isfinite(x) for x in vals):
        raise ValueError("nodes must be finite")
    return vals


def _choose_method(nodes, scale: float = 1.0) -> EvalMethod:
    zs = sorted(scale * x for x in _coerce_nodes(nodes))
    n = len(zs) - 1
    if n <= 1:
        return EvalMethod.RECURRENCE
    spread = zs[-1] - zs[0]
    if n >= TAYLOR_MIN_ORDER or n == 2 and spread < TAYLOR_MIN_SPREAD:
        return EvalMethod.TAYLOR_MATRIX
    if n == 3:
        # exact ties are confluent-safe on the recurrence; near-ties in a cluster are not
        spans = [s for s in (zs[2] - zs[0], zs[3] - zs[1]) if s != 0.0]
        if spans and TAYLOR_MAX_AMPLIFICATION * min(spans) * spread < 1.0:
            return EvalMethod.TAYLOR_MATRIX
        min_gap = min((b - a for a, b in zip(zs, zs[1:]) if b != a), default=0.0)
        if spread < 1.0 and 0.0 < min_gap < TAYLOR_MIN_GAP:
            return EvalMethod.TAYLOR_MATRIX
    return EvalMethod.RECURRENCE


def _exp_dd_recurrence(zs: list[float]) -> float:
    """x = exp[z - z_n], the Newton tableau of exp(z - z_n) on the sorted
    nodes, whose first level is e^{z_{i+1} - z_n} (-expm1(-g)) / g and whose
    ties take e^{z_i - z_n} / k!."""
    n, top = len(zs), zs[-1]
    if n == 1:
        return 1.0
    e = [math.exp(z - top) for z in zs]
    lev = [e[i + 1] * (-math.expm1(-g) / g if g != 0.0 else 1.0)
           for i, g in enumerate(b - a for a, b in zip(zs, zs[1:]))]
    for k in range(2, n):
        lev = [e[i] / math.factorial(k) if zs[i + k] == zs[i]
               else (lev[i + 1] - lev[i]) / (zs[i + k] - zs[i]) for i in range(n - k)]
    return lev[0]


def _exp_dd(nodes, scale: float = 1.0, method: EvalMethod = EvalMethod.AUTO) -> float:
    if not math.isfinite(scale):
        raise ValueError("scale must be finite")
    zs = sorted(scale * x for x in _coerce_nodes(nodes))
    if method is EvalMethod.AUTO:
        method = _choose_method(nodes, scale)
    if method is EvalMethod.RECURRENCE:
        return times_exp(zs[-1], _exp_dd_recurrence(zs))
    if method is EvalMethod.TAYLOR_MATRIX:
        t, row = anchored_first_row(np.array(zs), zs[-1])
        return times_exp(t, row[-1])
    raise ValueError(f"unknown evaluation method: {method!r}")


def _moment_table(p, max_m: int) -> list[tuple[int, float, str]]:
    """`moment_table` on the dispatch above, as (order, value, method): one
    first row on the nodes of the highest matrix-route order, anchored as
    the matrix route anchors; an order whose x is not a normal double, or
    whose e^t x overflows, is evaluated on its own."""
    nodes = BNodes.from_params(p, max_m).scaled(p.T)
    methods = [_choose_method(nodes[:m + 1]) for m in range(1, max_m + 1)]
    top = max((m for m, method in enumerate(methods, 1)
               if method is EvalMethod.TAYLOR_MATRIX), default=0)
    t, row = anchored_first_row(np.array(nodes[:top + 1]), max(nodes[:top + 1]))
    row = row.tolist()
    out = [(0, 1.0, "exact")]
    for m, method in enumerate(methods, 1):
        try:
            if method is not EvalMethod.TAYLOR_MATRIX or not sys.float_info.min <= row[m] < math.inf:
                raise OverflowError
            dd = times_exp(t, row[m])
        except OverflowError:
            dd = _exp_dd(nodes[:m + 1])
        value = math.factorial(m) * dd
        if value == math.inf:
            raise OverflowError(f"E A(T)^{m} is outside the double range")
        out.append((m, value, method.value))
    return out


def _outcome(f, *args, **kwargs):
    """f's value, a float as its bits, or the type of the exception it raises."""
    try:
        value = f(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return value.hex() if isinstance(value, float) else value


def test_exp_dd_bit_identical_to_reference_dispatch():
    rng = np.random.default_rng(43)
    for n in range(0, 13):
        if n <= 6:
            z = _column_kernel_cases(rng, n)
        else:
            z = np.concatenate([_node_rows(rng, n, 30),
                                rng.choice([-0.0, 0.0, 0.0, 1.5, -2.0], (10, n + 1))])
            z = rng.permuted(z, axis=1)
        for scale in (1.0, -1.0, 0.37, -2.5):
            for row in z.tolist():
                for method in (EvalMethod.AUTO, EvalMethod.RECURRENCE, EvalMethod.TAYLOR_MATRIX):
                    want = _outcome(_exp_dd, row, scale, method)
                    assert _outcome(exp_dd, row, scale, method) == want, (row, scale, method)
                want = _choose_method(row, scale)
                assert choose_method(row, scale) is want, (row, scale)
                assert choose_method(NodeList(row), scale) is want, (row, scale)


def test_moment_table_bit_identical_to_reference_dispatch():
    rng = np.random.default_rng(47)
    points = [(0.05, 0.2, 1.0), (0.0, 0.3, 2.0), (0.1, 0.0, 1.0), (0.0, 0.0, 1.0),
              (-1.0, 0.1, 1.0), (-800.0, 0.1, 1.0), (-0.0, 0.3, 2.0), (-0.03, 0.0, 2.0)]
    points += zip(rng.uniform(-2.0, 2.0, 150), rng.uniform(0.0, 1.5, 150), rng.uniform(0.01, 5.0, 150))
    for i, (r, sigma, T) in enumerate(points):
        if i % 10 == 9:
            sigma = math.sqrt(10.0 ** rng.uniform(-8.0, -3.0) / T)
        p = GbmParams(r=float(r), sigma=float(sigma), T=float(T))
        for max_m in (0, 1, 3, 8, 12):
            got = _outcome(lambda: [(t.order, t.value.hex(), t.method)
                                    for t in moment_table(p, max_m)])
            want = _outcome(lambda: [(m, v.hex(), method)
                                     for m, v, method in _moment_table(p, max_m)])
            assert got == want, (p, max_m)


def _squarings(zs: np.ndarray) -> int:
    """The squaring count s of `first_rows` anchored on the largest node."""
    m = len(zs)
    Z = np.diag(zs - zs.max()) + np.diag(np.ones(m - 1), 1)
    norm = float(np.abs(Z).sum(axis=0).max())
    return max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0


def _first_tested_step(s: int, m: int) -> int:
    """The first Taylor step whose stopping test can pass: k = m, or
    c^k / k! <= 1e-19 for c = 2^-s."""
    k = 1
    while k < m and 2.0 ** (-s * k) / math.factorial(k) > 1e-19:
        k += 1
    return k


def test_first_row_trimmed_loop_bit_identical_at_skip_boundary():
    # Node sets of 1..13 nodes scaled to every squaring count s from 0 to 16
    # that the bidiagonal matrix allows (norm 0 for one node, else at least
    # 1), at both ends of each count's norm range, each anchored on its
    # largest node.  Then three nodes at s = 68, whose first tested step is
    # 1, the order-10 moment nodes of a wide point, in moment order and
    # sorted (there the low entries underflow to 0), and order-8 moment
    # nodes whose entries 2 to 4 are subnormal.  The
    # scalar loop skips its stopping test before `_first_tested_step`; the
    # reference tests it at every step.  The kernel writes its products into
    # buffers of its own, never into its input.
    rng = np.random.default_rng(59)
    seen = set()
    cases = []
    for m in range(1, 14):
        for s in range(0, 17):
            # the norm is max(span, 1 + the second largest node's distance)
            spans = [0.0] if s <= 2 else [2.0 ** (s - 3) * (1 + 1e-9),
                                           (2.0 ** (s - 2) - 1.0) * (1 - 1e-9)]
            for span, center in ((d, c) for d in spans for c in (0.0, 2.5, -7.0)):
                u = rng.uniform(-1.0, 1.0, m)
                zs = center + span * (u - u.max()) / ((u.max() - u.min()) or 1.0)
                seen.add((_squarings(zs), m))
                cases.append(zs)
    p = GbmParams(-294.18111374533737, 8.030179567610869, 1.522390629675763)
    wide = np.array(BNodes.from_params(p, 10).scaled(p.T))
    sub = np.array(BNodes.from_params(GbmParams(-70.0, math.sqrt(45.0), 1.0), 8).scaled(1.0))
    cases += [np.array([-4e19, 2e19, 2e19]), wide, np.sort(wide), sub]
    for zs in cases:
        before = zs.tobytes()
        got = divdiff._bidiagonal_first_rows(zs, zs.max())
        assert zs.tobytes() == before, zs.tolist()
        assert got.tobytes() == first_rows(zs, zs.max()).tobytes(), zs.tolist()
        assert ((0.0 <= got) & (got <= 1.0)).all(), zs.tolist()
    want = {(0, 1)} | {(s, m) for s in range(2, 17) for m in range(2, 14)}
    assert want <= seen
    assert _squarings(cases[-4]) == 68
    assert 0.0 in divdiff._bidiagonal_first_rows(np.sort(wide), wide.max())
    row = divdiff._bidiagonal_first_rows(sub, sub.max())
    assert ((0.0 < row[2:5]) & (row[2:5] < sys.float_info.min)).all()
    # the skip ends below m for some pairs and reaches m for others
    crossings = {_first_tested_step(s, m) < m for s, m in seen}
    assert crossings == {True, False}


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
    # order 0: the value itself
    assert equispaced_dd([2.5], 0.1) == equispaced_dd([2.5], 0.1, n=0) == 2.5


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
    assert symmetric_equispaced_dd(vals, h) == equispaced_dd(vals, h)


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
    # on equispaced nodes the recurrence, the matrix route and the closed
    # form e^{x_0} (expm1(h)/h)^n / n! of the n-th forward difference agree
    rng = np.random.default_rng(7)
    for n, spread in [(1, 0.01), (2, 0.01), (2, 0.1), (3, 0.05), (3, 1.0),
                      (4, 0.5), (5, 1.0), (6, 3.0), (8, 10.0)]:
        base = float(rng.uniform(-1.5, 1.5))
        nodes = (base + np.linspace(0.0, spread, n + 1)).tolist()
        rec = exp_dd(nodes, method=EvalMethod.RECURRENCE)
        tay = exp_dd(nodes, method=EvalMethod.TAYLOR_MATRIX)
        h = (nodes[-1] - nodes[0]) / n
        equ = math.exp(nodes[0]) * (math.expm1(h) / h) ** n / math.factorial(n)
        assert rec == pytest.approx(tay, rel=1e-9)
        assert equ == pytest.approx(tay, rel=1e-9)
