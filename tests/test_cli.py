import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from gbmdd import cli, moments, montecarlo
from gbmdd.cli import DEFAULT_SEED, main
from gbmdd.moments import GbmParams, GridSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """`json.loads` that refuses `NaN`, `Infinity` and `-Infinity`."""
    return json.loads(text, parse_constant=_reject_constant)


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    code, _, err = run_cli(capsys, "corr", "--bogus")
    assert code == 1
    assert "error" in err
    code, _, _ = run_cli(capsys, "price")  # --style is required
    assert code == 1


def test_domain_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "corr", "--sigma", "0")
    assert code == 2
    assert "deterministic" in err
    code, _, _ = run_cli(capsys, "moments", "--T", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "price", "--style", "fixed", "--K", "-1")
    assert code == 2


def test_overflow_exits_2_without_traceback(capsys):
    for argv in (("corr", "--r", "400", "--sigma", "1", "--T", "2"),
                 ("moments", "--max-m", "30", "--sigma", "1", "--T", "5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("gbmdd: ") and "Traceback" not in err


def test_moments_beyond_the_factorial_range_exit_2_at_once(capsys):
    # 171! is not a double: the table fails before it builds any node set
    for max_m in ("171", "100000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "moments", "--max-m", max_m)
        assert time.perf_counter() - start < 1.0, max_m
        assert code == 2
        assert out == ""
        assert err.startswith("gbmdd: ") and "outside the double range" in err


# each fails on its input; 10^7 x 10^7 scan cells (727 TiB) exceed a 47-bit
# address space, so that allocation fails under any overcommit policy
_FAILING_ARGV = [
    ["scan", "--na", "10000000", "--nr", "10000000", "-o", "f"],
    ["moments", "--max-m", "171"],
    ["moments", "--max-m", "-1"],
    ["moments", "--r", "94", "--sigma", "0", "--max-m", "8"],
    ["mc", "--m", "171"],
    ["mc", "--threads", "0"],
    ["mc", "--paths", "1"],
    ["corr", "--sigma", "0"],
    ["corr", "--r", "400", "--sigma", "1", "--T", "2"],
    ["corr", "--T", "inf"],
    ["price", "--style", "fixed", "--K", "nan"],
    ["scan", "--na", "0"],
    ["scan", "--a-min", "nan"],
    ["scan", "--a-max", "inf"],
    ["scan", "--r-min=-inf"],
    ["scan", "--na", "2", "--nr", "2", "--r-max", "1e308", "-o", "f"],
    ["scan", "--na", "2", "--nr", "2", "--a-min=-1.7e308", "--a-max", "1.7e308", "-o", "f"],
    ["mc", "--r", "94", "--sigma", "0.001", "--T", "1", "--m", "8",
     "--paths", "256", "--steps", "4"],
]


@pytest.mark.parametrize("argv", _FAILING_ARGV, ids=" ".join)
def test_failures_exit_1_or_2_at_once_and_quietly(capsys, monkeypatch, tmp_path, argv):
    # an uncaught exception (a traceback on the command line) fails the test
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert code in (1, 2)
    assert elapsed < 1.0
    assert out.out == ""
    assert out.err.startswith("gbmdd: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err and "Warning" not in out.err
    assert [str(w.message) for w in caught] == []


def test_order_one_moment_at_wide_spread_exits_0(capsys):
    # E A(T) = exp[0, -1500]; the centred closed form overflowed in expm1(1500)
    code, out, _ = run_cli(capsys, "moments", "--r", "-1500", "--sigma", "0.1",
                           "--T", "1", "--max-m", "1")
    assert code == 0
    value = json.loads(out)["moments"][1]["value"]
    assert value == pytest.approx(-math.expm1(-1500.0) / 1500.0, rel=1e-15)


def test_second_moment_at_wide_spread_exits_0(capsys):
    # E A^2 = 2 exp[0, b_1, b_2] with b_2 = -1599.99; the centred recurrence
    # overflowed in math.exp(800)
    code, out, _ = run_cli(capsys, "moments", "--r", "-800", "--sigma", "0.1",
                           "--T", "1", "--max-m", "2")
    assert code == 0
    value = json.loads(out)["moments"][2]["value"]
    assert value == pytest.approx(1.5625098e-6, rel=1e-7)


def test_corr_json(capsys):
    code, out, _ = run_cli(capsys, "corr", "--r", "0.05", "--sigma", "0.2", "--T", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["R"] == pytest.approx(0.8663842874183117, rel=1e-12)
    assert doc["s_statistic"] == pytest.approx(2 * doc["R"] ** 2, rel=1e-12)
    # every numeric survives a parse/print round trip untouched
    assert json.loads(json.dumps(doc)) == doc


def test_moments_trivial_table(capsys):
    code, out, _ = run_cli(capsys, "moments", "--r", "0", "--sigma", "0", "--T", "1",
                           "--max-m", "3")
    assert code == 0
    doc = json.loads(out)
    vals = [row["value"] for row in doc["moments"]]
    assert vals == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-12)


def test_moments_csv_format(capsys):
    code, out, _ = run_cli(capsys, "moments", "--max-m", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,value,method"
    assert len(lines) == 4
    m2 = float(lines[3].split(",")[1])
    assert m2 == pytest.approx(1.065830000692056662, rel=1e-12)


def test_scan_csv_and_summary(capsys):
    code, out, _ = run_cli(capsys, "scan", "--a-min", "-2", "--a-max", "2",
                           "--r-min", "0.5", "--r-max", "1.5", "--na", "5", "--nr", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,a,S"
    assert lines[-1].startswith("# min S = ")
    data = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:-1]]
    assert len(data) == 15
    # row-major in r then a
    assert data[0][0] == 0.5 and data[0][1] == -2.0
    assert data[4][0] == 0.5 and data[4][1] == 2.0
    assert data[5][0] == 1.0
    assert all(s >= 1.0 - 1e-9 for _, _, s in data)
    # 17-significant-digit fields round-trip: reformatting reproduces the line
    r0, a0, s0 = data[0]
    assert f"{r0:.17g},{a0:.17g},{s0:.17g}" == lines[1]


def test_scan_window_defaults_are_grid_spec(capsys, monkeypatch):
    specs = []
    scan = moments.grid_scan
    monkeypatch.setattr(moments, "grid_scan", lambda spec: specs.append(spec) or scan(spec))
    code, _, _ = run_cli(capsys, "scan")
    assert code == 0
    assert specs == [GridSpec()]


def test_scan_json_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--a-min", "0", "--a-max", "1",
                           "--r-min", "1", "--r-max", "1", "--na", "2", "--nr", "1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    assert doc["min_S"] >= 1.0


def test_scan_output_file(tmp_path, capsys):
    target = tmp_path / "surface.csv"
    code, out, _ = run_cli(capsys, "scan", "--na", "3", "--nr", "2",
                           "--a-min", "0", "--a-max", "1", "--r-min", "1",
                           "--r-max", "2", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("r,a,S\n")


def test_scan_csv_to_stdout_and_file_match(tmp_path, capsys):
    argv = ["scan", "--na", "7", "--nr", "4", "--a-min", "-3", "--a-max", "5"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "surface.csv"
    code, _, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0
    assert target.read_text() == out
    assert out.count("\n") == 1 + 7 * 4 + 1 and out.splitlines()[-1].startswith("# min S")


def test_consecutive_calls_match_fresh_parser(capsys):
    # main builds its parser once per process: no flag, default or usage
    # error may carry over from one call to the next
    runs = [("scan", "--na", "3", "--nr", "2"), ("scan", "--na", "4", "--nr", "2"),
            ("mc", "--paths", "128", "--steps", "4", "--m", "2"),
            ("mc", "--paths", "128", "--steps", "4"), ("corr", "--bogus"),
            ("scan", "--na", "3", "--nr", "2", "--format", "json")]
    shared = [run_cli(capsys, *argv) for argv in runs]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0]
    assert shared[0][1].count("\n") == 1 + 3 * 2 + 1
    assert shared[1][1].count("\n") == 1 + 4 * 2 + 1
    assert "moment_A_2" in json.loads(shared[2][1])["estimates"]
    assert "moment_A_2" not in json.loads(shared[3][1])["estimates"]


def test_mc_z_scores_small(capsys):
    code, out, _ = run_cli(capsys, "mc", "--paths", "20000", "--steps", "50",
                           "--seed", str(DEFAULT_SEED))
    assert code == 0
    doc = json.loads(out)
    names = {"mean_S", "mean_A", "second_moment_A", "cross_moment_SA", "correlation"}
    assert set(doc["estimates"]) == names
    for name, row in doc["estimates"].items():
        assert abs(row["z"]) <= 4.0, name
        assert row["paths"] == 20000 and row["steps"] == 50


def test_mc_zero_stderr_z_scores(capsys):
    # at sigma = 0 every estimate is exact for its rule; with one step the
    # trapezoid rule is biased, so an estimate off the analytic value has no z
    code, out, _ = run_cli(capsys, "mc", "--paths", "64", "--steps", "1", "--sigma", "0")
    assert code == 0
    rows = json.loads(out)["estimates"]
    assert rows["cross_moment_SA"]["stderr"] == 0.0
    assert rows["cross_moment_SA"]["value"] != rows["cross_moment_SA"]["analytic"]
    assert rows["cross_moment_SA"]["z"] is None and rows["mean_A"]["z"] is None
    # r = 0: every path is identically 1, so estimates equal the analytic values
    code, out, _ = run_cli(capsys, "mc", "--paths", "64", "--steps", "1", "--sigma", "0",
                           "--r", "0")
    assert code == 0
    for name, row in json.loads(out)["estimates"].items():
        assert row["value"] == row["analytic"] and row["z"] == 0.0, name


def test_mc_too_few_paths_for_batch_means_exits_2(capsys):
    code, out, err = run_cli(capsys, "mc", "--paths", "16", "--steps", "4")
    assert code == 2
    assert out == ""
    assert "batch means" in err


def test_mc_extra_moment_flag(capsys):
    code, out, _ = run_cli(capsys, "mc", "--paths", "8000", "--steps", "25",
                           "--m", "3", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert "moment_A_3" in doc["estimates"]
    assert abs(doc["estimates"]["moment_A_3"]["z"]) <= 4.0


def _count_blocks(monkeypatch) -> list:
    """Record every simulated block, (lo, hi), in call order."""
    calls = []
    simulate = montecarlo._simulate_block

    def counted(p, cfg, lo, hi):
        calls.append((lo, hi))
        return simulate(p, cfg, lo, hi)

    monkeypatch.setattr(montecarlo, "_simulate_block", counted)
    return calls


def test_mc_extra_moment_simulates_each_block_once(capsys, monkeypatch):
    calls = _count_blocks(monkeypatch)
    code, out, _ = run_cli(capsys, "mc", "--paths", "8192", "--steps", "25",
                           "--m", "3", "--seed", "1")
    assert code == 0
    assert calls == [(0, 4096), (4096, 8192)]
    rows = json.loads(out)["estimates"]
    # the same numbers as a suite pass followed by a separate E A^3 pass
    p = GbmParams(r=0.05, sigma=0.2, T=1.0)
    cfg = montecarlo.McConfig(paths=8192, steps=25, seed=1)
    want = {**montecarlo.estimate_suite(p, cfg),
            "moment_A_3": montecarlo.estimate_moment_A(p, cfg, 3)}
    assert list(rows) == list(want)
    for name, est in want.items():
        assert (rows[name]["value"], rows[name]["stderr"]) == (est.value, est.stderr), name


def test_mc_negative_moment_order_exits_2_before_simulating(capsys, monkeypatch):
    calls = _count_blocks(monkeypatch)
    code, out, err = run_cli(capsys, "mc", "--paths", "8192", "--steps", "25", "--m", "-1")
    assert code == 2
    assert out == ""
    assert "moment order" in err
    assert calls == []


def test_mc_order_beyond_the_factorial_range_exits_2_before_simulating(capsys, monkeypatch):
    calls = _count_blocks(monkeypatch)
    code, out, err = run_cli(capsys, "mc", "--paths", "8192", "--steps", "25", "--m", "171")
    assert code == 2
    assert out == ""
    assert "outside the double range" in err
    assert calls == []


def test_mc_moment_past_the_double_range_exits_2_before_simulating(capsys, monkeypatch):
    # exp[0, 94, ..., 752] = 1.6e306 is a double; 8! times it is not
    calls = _count_blocks(monkeypatch)
    code, out, err = run_cli(capsys, "mc", "--r", "94", "--sigma", "0.001", "--T", "1",
                             "--m", "8", "--paths", "256", "--steps", "4")
    assert code == 2
    assert out == ""
    assert "outside the double range" in err
    assert calls == []


def test_mc_thread_counts_below_one_exit_1_before_simulating(capsys, monkeypatch):
    calls = _count_blocks(monkeypatch)
    for threads in ("0", "-1"):
        code, out, err = run_cli(capsys, "mc", "--paths", "128", "--steps", "4",
                                 "--threads", threads)
        assert code == 1
        assert out == ""
        assert "--threads must be at least 1" in err
    assert calls == []


def test_mc_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("GBMDD_SEED", "777")
    code, out, _ = run_cli(capsys, "mc", "--paths", "2000", "--steps", "10")
    assert code == 0
    assert json.loads(out)["estimates"]["mean_S"]["seed"] == 777


def test_mc_env_seed_invalid(capsys, monkeypatch):
    monkeypatch.setenv("GBMDD_SEED", "not-a-seed")
    code, _, err = run_cli(capsys, "mc", "--paths", "2000", "--steps", "10")
    assert code == 1
    assert "GBMDD_SEED" in err


def test_price_floating_with_mc(capsys):
    code, out, _ = run_cli(capsys, "price", "--style", "floating", "--compare-mc",
                           "--paths", "20000", "--steps", "64", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "margrabe-approx"
    assert doc["value"] == pytest.approx(0.058617448717988637, rel=1e-10)
    assert abs(doc["relative_gap"]) < 0.10
    assert doc["mc"]["paths"] == 20000


def test_price_gap_to_zero_mc_estimate_is_null(capsys):
    # K = 100 is far out of the money: every one of the 64 paths pays 0
    code, out, _ = run_cli(capsys, "price", "--style", "fixed", "--K", "100", "--compare-mc",
                           "--paths", "64", "--steps", "4", "--seed", "1")
    assert code == 0
    doc = strict_json(out)
    assert doc["mc"]["value"] == 0.0
    assert doc["relative_gap"] is None


def test_json_subcommands_emit_strict_json(capsys):
    for argv in (("moments", "--max-m", "3"), ("corr",),
                 ("scan", "--na", "3", "--nr", "2", "--format", "json"),
                 ("mc", "--paths", "128", "--steps", "4", "--seed", "2"),
                 ("price", "--style", "floating", "--compare-mc", "--paths", "256",
                  "--steps", "4", "--seed", "2")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        strict_json(out)


def test_non_finite_json_field_exits_2(capsys, monkeypatch):
    rep = moments.CorrelationReport(R=math.nan, covariance=1.0, var_S=1.0, var_A=1.0,
                                    s_statistic=math.inf)
    monkeypatch.setattr(moments, "correlation", lambda p: rep)
    code, out, err = run_cli(capsys, "corr")
    assert code == 2
    assert out == ""
    assert err.startswith("gbmdd: ") and "Traceback" not in err


def test_price_fixed(capsys):
    code, out, _ = run_cli(capsys, "price", "--style", "fixed", "--K", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "black-approx"
    assert doc["value"] == pytest.approx(
        math.exp(-0.05) * 1.025421927520480794, rel=1e-12)


def test_oracle_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(ln.startswith("PASS") for ln in lines)


_NO_SCIPY_SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import gbmdd
from gbmdd import cli, pricing
assert not scipy_modules(), ("import gbmdd", scipy_modules())
for argv in (["moments", "--max-m", "3"], ["corr"], ["scan", "--na", "4", "--nr", "3"],
             ["mc", "--paths", "128", "--steps", "4", "--m", "2"],
             ["price", "--style", "floating", "--compare-mc", "--paths", "256", "--steps", "4"],
             ["price", "--style", "fixed", "--compare-mc", "--paths", "256", "--steps", "4"],
             ["oracle"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
out = pricing.normal_cdf(np.array([-1.0, 0.0, 1.0]))
assert out[1] == 0.5 and abs(out[0] + out[2] - 1.0) < 1e-15
assert "scipy.special" in sys.modules
print("ok")
"""


def test_import_and_subcommands_leave_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
