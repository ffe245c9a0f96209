import pathlib

import pytest

from gbmdd import GbmParams, moments

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_dd_cases(name):
    """Plain-text case tables: nodes (comma-separated), expected value,
    relative tolerance; '#' comments and blank lines allowed."""
    cases = []
    for line in (FIXTURES / name).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        nodes_s, expected_s, tol_s = line.split()
        nodes = [float(x) for x in nodes_s.split(",")]
        cases.append((nodes, float(expected_s), float(tol_s)))
    return cases


@pytest.fixture
def bench():
    """The repository benchmark point."""
    return GbmParams(r=0.05, sigma=0.2, T=1.0)


MEMOISED = (moments.correlation, moments.mean_A, moments._var_A_dd)


@pytest.fixture(autouse=True)
def _clear_moment_memo():
    """Empty the per-point memos around every test, so a test that rebinds
    `exp_dd` or an AUTO constant computes afresh and leaves nothing stale."""
    for fn in MEMOISED:
        fn.cache_clear()
    yield
    for fn in MEMOISED:
        fn.cache_clear()
