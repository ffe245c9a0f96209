import math

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from gbmdd.oracles import DD, dd_exp, dd_fsum, exp_dd_reference, two_prod, two_sum

# keep magnitudes away from the subnormal range so error terms stay representable
signed = st.floats(min_value=1e-4, max_value=1e8).flatmap(
    lambda m: st.sampled_from([m, -m]))
finite = st.floats(min_value=-1e10, max_value=1e10, allow_nan=False)


@given(finite, finite)
def test_two_sum_exact(a, b):
    s, e = two_sum(a, b)
    assert s == a + b
    # error term recovers the rounding exactly
    assert mp.mpf(s) + mp.mpf(e) == mp.mpf(a) + mp.mpf(b)


@given(signed, signed)
def test_two_prod_exact(a, b):
    p, e = two_prod(a, b)
    assert mp.mpf(p) + mp.mpf(e) == mp.mpf(a) * mp.mpf(b)


def _rel(dd_val, mp_val):
    got = mp.mpf(dd_val.hi) + mp.mpf(dd_val.lo)
    return abs((got - mp_val) / mp_val)


@given(signed, signed, signed)
def test_dd_add_mul_accuracy(a, b, c):
    with mp.workdps(50):
        got = (DD(a) + DD(b)) * DD(c)
        want = (mp.mpf(a) + mp.mpf(b)) * mp.mpf(c)
        if want != 0:
            assert _rel(got, want) < 1e-30


@given(st.floats(min_value=1e-4, max_value=1e8), st.floats(min_value=1e-4, max_value=1e8))
def test_dd_div_accuracy(a, b):
    with mp.workdps(50):
        assert _rel(DD(a) / DD(b), mp.mpf(a) / mp.mpf(b)) < 1e-30


@pytest.mark.parametrize("x", [1e-4, 0.5, -3.2, 12.7, -40.0, 100.0, 300.0])
def test_dd_exp_accuracy(x):
    with mp.workdps(50):
        assert _rel(dd_exp(DD(x)), mp.e ** mp.mpf(x)) < 1e-30


def test_dd_sqrt():
    with mp.workdps(50):
        assert _rel(DD(2.0).sqrt(), mp.sqrt(2)) < 1e-30
    with pytest.raises(ValueError):
        DD(-1.0).sqrt()


def test_dd_fsum_compensates():
    # 1 + 1e-20 repeated: plain doubles drop the tail, double-double keeps it
    total = dd_fsum([1.0] + [1e-20] * 1000)
    assert total.hi == 1.0
    assert abs(total.lo - 1e-17) < 1e-29


def test_exp_dd_reference_values():
    # exp[0,1] = e - 1, confluent triple = e^x / 2
    assert exp_dd_reference([0.0, 1.0]) == pytest.approx(math.e - 1.0, rel=1e-15)
    assert exp_dd_reference([0.4, 0.4, 0.4]) == pytest.approx(math.exp(0.4) / 2, rel=1e-15)
    # scale folds in exactly: exp[0, 2*0.5] with scale on nodes
    assert exp_dd_reference([0.0, 0.5], scale=2.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_exp_dd_reference_against_mpmath():
    with mp.workdps(60):
        nodes = [0.0, 0.05, 0.14, 0.27, 0.44]
        lev = [mp.e ** mp.mpf(x) for x in nodes]
        for k in range(1, len(nodes)):
            lev = [(lev[i + 1] - lev[i]) / (mp.mpf(nodes[i + k]) - mp.mpf(nodes[i]))
                   for i in range(len(lev) - 1)]
        want = lev[0]
        got = exp_dd_reference(nodes)
        assert abs((mp.mpf(got) - want) / want) < 1e-15
