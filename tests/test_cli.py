import json
import math

import pytest

from gbmdd.cli import DEFAULT_SEED, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
