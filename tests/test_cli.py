import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import pytest

from gbmdd import cli, moments, montecarlo
from gbmdd.cli import DEFAULT_SEED, main
from gbmdd.moments import GbmParams, GridSpec

from references import mp_exp_dd


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


@pytest.mark.parametrize("point", [
    ("-0.010761781657632731", "8.529198241897886", "9.80709124445808"),   # var_S overflows
    ("0.07441287097530817", "8.556922838521935", "9.83486049567827"),    # the covariance
])
def test_corr_exits_2_where_a_report_field_overflows(capsys, point):
    # the report held var_S = inf at the first point, and the JSON encoder
    # refused it; now `correlation` raises OverflowError, and the
    # floating-strike quote, which reads only R, still prices
    args = [x for name, v in zip(("--r", "--sigma", "--T"), point) for x in (name, v)]
    code, out, err = run_cli(capsys, "corr", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("gbmdd: result outside double range:") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "price", "--style", "floating", *args)
    assert code == 0
    assert strict_json(out)["value"] == 1.0


def test_overflow_exits_2_without_traceback(capsys):
    for argv in (("corr", "--r", "400", "--sigma", "1", "--T", "2"),
                 ("moments", "--max-m", "30", "--sigma", "1", "--T", "5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("gbmdd: ") and "Traceback" not in err


def test_sigma_squared_overflow_exits_2_naming_it(capsys):
    # from sigma = 1.34e154 on `sigma ** 2` raises with the errno alone, and
    # these printed "(34, 'Numerical result out of range')"; GbmParams takes
    # such a sigma, since E S(T) and E A(T) never square it
    for argv in (["corr"], ["moments"], ["price", "--style", "floating"],
                 ["mc", "--paths", "64", "--steps", "4"]):
        code, out, err = run_cli(capsys, *argv, "--sigma", "1e160")
        assert code == 2, argv
        assert out == ""
        assert err == ("gbmdd: result outside double range: "
                       "sigma^2 is outside the double range at sigma = 1e+160\n"), argv
    p = GbmParams(0.05, 1e160, 1.0)
    assert moments.mean_S(p) == math.exp(0.05)
    assert moments.mean_A(p) == moments.mean_A(GbmParams(0.05, 0.2, 1.0))


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
    ["mc", "--paths", "2", "--sigma", "0"],
    ["price", "--style", "floating", "--compare-mc", "--paths", "2"],
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


def _float_flags():
    """(subcommand, flag) for every option of the parser that takes a float."""
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return [(name, action.option_strings[0]) for name, sub in subs.choices.items()
            for action in sub._actions if action.type is float]


_CHEAP = {"mc": ["--paths", "64", "--steps", "4"], "price": ["--style", "fixed"],
          "scan": ["--na", "2", "--nr", "2"]}


@pytest.mark.parametrize("value", ["-1e-3", "-2E1", "-inf"])
@pytest.mark.parametrize("command,flag",
                         [pytest.param(*cf, id=" ".join(cf)) for cf in _float_flags()])
def test_negative_float_values_are_not_usage_errors(capsys, command, flag, value):
    # argparse's own pattern read -1e-3 and -inf as unknown options: "expected
    # one argument", exit 1; a negative value is a value, in or out of domain
    argv = [command, *_CHEAP.get(command, [])]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code in (0, 2), err
    if code == 0:
        assert out and err == ""
    else:
        assert out == "" and err.startswith("gbmdd: ") and err.count("\n") == 1
    # the same report as the --flag=value form, which argparse always read as a value
    assert run_cli(capsys, *argv, f"{flag}={value}") == (code, out, err)


def test_negative_float_flags_cover_every_subcommand_with_one():
    assert {command for command, _ in _float_flags()} == {"moments", "corr", "scan", "mc", "price"}
    assert ("price", "--K") in _float_flags() and ("scan", "--a-min") in _float_flags()


@pytest.mark.parametrize("argv", [["corr", "-o", "missing/report.json"],
                                  ["scan", "--na", "3", "--nr", "2", "-o", "."]], ids=" ".join)
def test_unwritable_report_exits_2(capsys, monkeypatch, tmp_path, argv):
    # a missing directory, and a directory as the path
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("gbmdd: cannot write the report: ") and err.count("\n") == 1


_WIDE_NEGATIVE_RATE = ["--r", "-268.6425722144426", "--sigma", "7.886271062952987",
                       "--T", "1.9296876647912937"]


@pytest.mark.parametrize("argv", [["corr", *_WIDE_NEGATIVE_RATE],
                                  ["price", "--style", "floating", *_WIDE_NEGATIVE_RATE]],
                         ids=["corr", "price-floating"])
def test_correlation_where_var_S_underflows_exits_0(capsys, argv):
    # exp[2rT, (2r + sigma^2) T] underflows to 0 here: R = 7.24e-27 comes from
    # the scaled form; these exited 2 (and before that 1, with a traceback)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = strict_json(out)
    R = doc["R"] if argv[0] == "corr" else doc["inputs"]["rho"]
    assert R == pytest.approx(7.241482451818302e-27, rel=1e-12)
    if argv[0] == "corr":
        assert doc["var_S"] == 0.0


def test_scan_at_a_far_negative_a_exits_0(capsys, tmp_path):
    # S(1, -1e300) is 2 to within 1e-300; exp[a, 2r] exp[a, 2r, r, 0]
    # underflows, as did its scaled form, and the scan exited 1 with a
    # ZeroDivisionError traceback
    target = tmp_path / "f"
    code, out, err = run_cli(capsys, "scan", "--na", "1", "--nr", "1", "--a-min=-1e300",
                             "--a-max=-1e300", "--r-min", "1", "--r-max", "1", "-o", str(target))
    assert (code, out, err) == (0, "", "")
    header, row, summary = target.read_text().splitlines()
    assert abs(float(row.split(",")[2]) - 2.0) <= 2e-15


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


def test_fourth_moment_at_wide_spread_exits_0(capsys):
    # E A^4's five nodes reach -3199.94 on the matrix route, whose entries
    # centred on the mean overflowed
    code, out, _ = run_cli(capsys, "moments", "--r", "-800", "--sigma", "0.1",
                           "--T", "1", "--max-m", "4")
    assert code == 0
    values = [t["value"] for t in json.loads(out)["moments"]]
    nodes = moments._b_nodes(GbmParams(-800.0, 0.1, 1.0), 4, 1.0)
    with mp.workdps(1600):
        for m in range(1, 5):
            want = math.factorial(m) * mp_exp_dd(nodes[:m + 1])
            bound = 1e-12 * max(1.0, (nodes[0] - nodes[m]) / 250.0)
            assert abs(values[m] / want - 1) <= bound, m


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


def test_mc_too_few_paths_for_jackknife_batches_exits_2(capsys):
    code, out, err = run_cli(capsys, "mc", "--paths", "16", "--steps", "4")
    assert code == 2
    assert out == ""
    assert "need at least 64 paths for the correlation's 32 jackknife batches" in err


def test_mc_below_the_resolution_of_S_exits_2(capsys):
    # every S(T) is one double at sigma = 1e-300; raw power sums printed
    # R = 0.589 with stderr 0
    code, out, err = run_cli(capsys, "mc", "--sigma", "1e-300", "--paths", "4096", "--steps", "4")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("gbmdd: correlation undefined: ")


def test_mc_where_squares_of_S_overflow_exits_0_quietly(capsys):
    # S(T) ~ 2^508: unscaled co-moments overflowed, and the run exited 2 after
    # eight lines of numpy RuntimeWarnings and a JSON "inf" error
    code, out, err = run_cli(capsys, "mc", "--r", "44", "--sigma", "0.2", "--T", "8",
                             "--paths", "4096", "--steps", "16", "--seed", "1")
    assert code == 0 and err == ""
    for name, row in strict_json(out)["estimates"].items():
        assert 0.0 < row["stderr"] < math.inf, name


def test_mc_z_is_floored_at_four_ulps_of_the_analytic_value(capsys):
    # at sigma = 1e-8 the stderr of mean_S is 2.2e-18 and the estimate 1 ulp
    # of 1.05 off the analytic value: an unfloored z read -102
    code, out, _ = run_cli(capsys, "mc", "--r", "0.05", "--T", "1", "--sigma", "1e-8",
                           "--paths", "8192", "--steps", "16", "--seed", "1")
    assert code == 0
    row = json.loads(out)["estimates"]["mean_S"]
    floor = 4 * math.ulp(row["analytic"])
    assert 0 < row["stderr"] < floor
    assert row["z"] == (row["value"] - row["analytic"]) / floor
    assert abs(row["z"]) <= 1.0


@pytest.mark.parametrize("argv", [
    ["mc", "--paths", "3", "--steps", "4", "--sigma", "0"],
    ["mc", "--paths", "3", "--steps", "4", "--sigma", "0", "--m", "3"],
    ["price", "--style", "floating", "--compare-mc", "--paths", "3", "--steps", "4"],
    ["price", "--style", "fixed", "--K", "1", "--compare-mc", "--paths", "3", "--steps", "4"],
], ids=" ".join)
def test_smallest_path_count_gives_finite_estimates(capsys, argv):
    # 3 paths are one antithetic pair and a lone path: two sampling units
    code, out, err = run_cli(capsys, *argv, "--seed", "5")
    assert code == 0 and err == ""
    doc = strict_json(out)
    for row in doc["estimates"].values() if "estimates" in doc else [doc["mc"]]:
        assert row["paths"] == 3 and math.isfinite(row["stderr"]), row


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

    def counted(p, cfg, lo, hi, buf):
        calls.append((lo, hi))
        return simulate(p, cfg, lo, hi, buf)

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


_NUMPY_AND_STDLIB_SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
started = set(sys.modules)  # what the interpreter and its site hooks loaded


def foreign():
    # top-level names of the modules loaded from files since, less gbmdd, numpy
    # and the standard library (numpy's Cython code makes file-less modules)
    tops = {name.partition(".")[0] for name, module in list(sys.modules.items())
            if name not in started and getattr(module, "__file__", None)}
    return sorted(tops - set(sys.stdlib_module_names) - {"gbmdd", "numpy"})


import gbmdd
from gbmdd import cli
assert not foreign(), ("import gbmdd", foreign())
for argv in (["moments", "--max-m", "3"], ["corr"], ["scan", "--na", "4", "--nr", "3"],
             ["mc", "--paths", "128", "--steps", "4", "--m", "2"],
             ["price", "--style", "floating", "--compare-mc", "--paths", "256", "--steps", "4"],
             ["price", "--style", "fixed", "--compare-mc", "--paths", "256", "--steps", "4"],
             ["oracle"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not foreign(), (argv, foreign())
print("ok")
"""


def test_closed_pipe_exits_quietly():
    # a reader that stops after 100 bytes of the published scan's 693 KB CSV
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen([sys.executable, "-m", "gbmdd.cli", "scan"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_PIPE
    assert len(head) == 100
    assert b"Traceback" not in err and err == b"", err


def test_import_and_subcommands_load_only_numpy_and_stdlib():
    # numpy is the one runtime dependency: scipy, say, must never load
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _NUMPY_AND_STDLIB_SCRIPT, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
