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


# every cache in `moments`, found by its `cache_clear`, so a renamed memo
# cannot go stale between tests; the per-point memos are those of one argument
CACHES = [fn for fn in vars(moments).values() if callable(getattr(fn, "cache_clear", None))]
MEMOISED = [fn for fn in CACHES if fn.__wrapped__.__code__.co_argcount == 1]


@pytest.fixture(autouse=True)
def _clear_moment_memo():
    """Empty the per-point memos around every test, so a test that rebinds
    `exp_dd` or an AUTO constant computes afresh and leaves nothing stale."""
    for fn in CACHES:
        fn.cache_clear()
    yield
    for fn in CACHES:
        fn.cache_clear()
