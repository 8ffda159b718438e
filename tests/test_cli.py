import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spotvol.cli import main, render_pca_svg, run_bench
from spotvol.estimator import read_vol_csv
from spotvol.spectral import pca_ratios


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    return header, np.array(rows)


def test_simulate_writes_ticks_and_oracle(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    oracle = tmp_path / "oracle.csv"
    code = run(
        ["simulate", "--model", "const-corr", "--d", 2, "--rho", 0.5, "--n", 150,
         "--seed", 1, "--out-ticks", ticks, "--out-oracle", oracle]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 assets" in out and "seed=1" in out
    header = ticks.read_text().splitlines()[0]
    assert header == "asset,time,price"
    assets = {ln.split(",")[0] for ln in ticks.read_text().splitlines()[1:] if ln}
    assert assets == {"A1", "A2"}
    oracle_path = read_vol_csv(oracle)
    np.testing.assert_allclose(oracle_path.matrices[0], [[1.0, 0.5], [0.5, 1.0]])


def test_simulate_factor_poisson_asynchronous(tmp_path):
    ticks = tmp_path / "ticks.csv"
    code = run(
        ["simulate", "--model", "factor", "--d", 12, "--r", 3, "--n", 150,
         "--sampling", "poisson", "--seed", 7,
         "--out-ticks", ticks, "--out-oracle", tmp_path / "oracle.csv"]
    )
    assert code == 0
    from spotvol.market_data import load_csv

    obs = load_csv(ticks)
    assert obs.d == 12
    counts = {s.times.size for s in obs.series}
    assert len(counts) > 1  # asynchronous: tick counts differ across assets


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--model", "sin-vol", "--d", 2, "--a", 1.0, "--b", 0.4,
            "--n", 60, "--sampling", "poisson", "--seed", 3]
    run(args + ["--out-ticks", tmp_path / "t1.csv", "--out-oracle", tmp_path / "o1.csv"])
    run(args + ["--out-ticks", tmp_path / "t2.csv", "--out-oracle", tmp_path / "o2.csv"])
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    assert (tmp_path / "o1.csv").read_bytes() == (tmp_path / "o2.csv").read_bytes()


@pytest.fixture
def small_ticks(tmp_path):
    ticks = tmp_path / "ticks.csv"
    run(["simulate", "--model", "const-corr", "--d", 2, "--rho", 0.5, "--n", 60,
         "--seed", 5, "--out-ticks", ticks, "--out-oracle", tmp_path / "oracle.csv"])
    return ticks


def test_estimate_reference_protocol_flags(small_ticks, tmp_path):
    out = tmp_path / "vol.csv"
    code = run(["estimate", "--input", small_ticks, "--M", 15, "--nodes", 31,
                "--grid", 50, "--kernel", "cauchy", "--gamma", 0.1796, "--out", out])
    assert code == 0
    path = read_vol_csv(out)
    assert len(path) == 50 and path.d == 2
    tr = np.trace(path.matrices, axis1=1, axis2=2)
    assert np.all(tr >= 0.0)


def test_estimate_gaussian_rate_flags(small_ticks, tmp_path):
    for rate in (31.0, 2.36):
        out = tmp_path / f"vol_{rate}.csv"
        code = run(["estimate", "--input", small_ticks, "--kernel", "gaussian",
                    "--l-gauss", rate, "--M", 8, "--grid", 20, "--out", out])
        assert code == 0


def test_estimate_methods_agree(small_ticks, tmp_path):
    outs = {}
    for method in ("psd-factorized", "psd-direct", "generic"):
        out = tmp_path / f"{method}.csv"
        assert run(["estimate", "--input", small_ticks, "--method", method,
                    "--M", 4, "--grid", 8, "--out", out]) == 0
        _, outs[method] = read_rows(out)
    np.testing.assert_allclose(outs["psd-direct"], outs["psd-factorized"], atol=1e-10)
    np.testing.assert_allclose(outs["generic"], outs["psd-direct"], atol=1e-10)
    assert run(["estimate", "--input", small_ticks, "--method", "classical",
                "--M", 4, "--L", 3, "--grid", 8, "--out", tmp_path / "c.csv"]) == 0


def test_estimate_default_flags_and_determinism(small_ticks, tmp_path):
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    # default M=15 with 60 ticks, gaussian kernel, 150-point grid
    assert run(["estimate", "--input", small_ticks, "--out", out1]) == 0
    assert run(["estimate", "--input", small_ticks, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_rows(out1)
    assert header == ["t", "V_1_1", "V_1_2", "V_2_2"]
    assert rows.shape == (150, 4)
    np.testing.assert_allclose(rows[:, 0], np.arange(1, 151) / 150)


def test_estimate_warns_when_cutoff_exceeds_ticks(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    run(["simulate", "--model", "const-corr", "--d", 1, "--rho", 0.0, "--n", 10,
         "--seed", 2, "--out-ticks", ticks, "--out-oracle", tmp_path / "o.csv"])
    capsys.readouterr()
    assert run(["estimate", "--input", ticks, "--M", 15, "--grid", 5,
                "--out", tmp_path / "v.csv"]) == 0
    assert "cutoff M=15" in capsys.readouterr().err


def test_estimate_flag_validation(small_ticks, tmp_path, capsys):
    # gamma only applies to the cauchy kernel
    assert run(["estimate", "--input", small_ticks, "--kernel", "gaussian",
                "--gamma", 0.2, "--out", tmp_path / "v.csv"]) == 1
    assert "--gamma" in capsys.readouterr().err
    # kernel flags are rejected for the classical method
    assert run(["estimate", "--input", small_ticks, "--method", "classical",
                "--nodes", 31, "--out", tmp_path / "v.csv"]) == 1
    err = capsys.readouterr().err
    assert "kernel flags" in err
    # the smoothing order belongs to the classical method alone
    assert run(["estimate", "--input", small_ticks, "--L", 4,
                "--out", tmp_path / "v.csv"]) == 1
    assert "--L" in capsys.readouterr().err


def test_estimate_per_real_time_rescales(tmp_path):
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(
        "asset,time,price\n" + "\n".join(f"A,{t},{100 + t}" for t in range(0, 2001, 10)) + "\n"
    )
    out_n = tmp_path / "vn.csv"
    out_r = tmp_path / "vr.csv"
    base = ["estimate", "--input", ticks, "--price-kind", "raw", "--M", 5, "--grid", 10]
    assert run(base + ["--out", out_n]) == 0
    assert run(base + ["--per-real-time", "--out", out_r]) == 0
    _, rows_n = read_rows(out_n)
    _, rows_r = read_rows(out_r)
    np.testing.assert_allclose(rows_r[:, 1:], rows_n[:, 1:] / 2000.0, rtol=1e-12)


def test_pca_rank_one_input(tmp_path):
    # a rank-1 constant path: r1 is identically 1
    from spotvol.estimator import VolPath, write_vol_csv

    v = np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])
    path = VolPath(times=np.linspace(0.1, 0.9, 9), matrices=np.stack([v] * 9),
                   asset_ids=("A1", "A2", "A3"))
    vol_csv = tmp_path / "vol.csv"
    write_vol_csv(path, vol_csv)
    out_csv, out_svg = tmp_path / "pca.csv", tmp_path / "pca.svg"
    assert run(["pca", "--input", vol_csv, "--out-csv", out_csv, "--out-svg", out_svg]) == 0
    header, rows = read_rows(out_csv)
    assert header == ["t", "lambda_1", "lambda_2", "lambda_3", "r1", "r2", "r3"]
    np.testing.assert_allclose(rows[:, 4], np.ones(9), atol=1e-12)


def test_pca_constant_diagonal_lines(tmp_path):
    from spotvol.estimator import VolPath, write_vol_csv

    path = VolPath(times=np.linspace(0.1, 0.9, 5),
                   matrices=np.stack([np.diag([4.0, 3.0, 2.0, 1.0])] * 5),
                   asset_ids=tuple(f"A{i}" for i in range(1, 5)))
    vol_csv = tmp_path / "vol.csv"
    write_vol_csv(path, vol_csv)
    assert run(["pca", "--input", vol_csv, "--out-csv", tmp_path / "p.csv",
                "--out-svg", tmp_path / "p.svg"]) == 0
    _, rows = read_rows(tmp_path / "p.csv")
    np.testing.assert_allclose(rows[:, 5], np.full(5, 0.4))
    np.testing.assert_allclose(rows[:, 6], np.full(5, 0.7))
    np.testing.assert_allclose(rows[:, 7], np.full(5, 0.9))


def test_pca_reports_failing_time(tmp_path, capsys):
    from spotvol.estimator import VolPath, write_vol_csv

    mats = np.stack([np.diag([1.0, 1.0]), np.diag([-1.0, -1.0])])
    path = VolPath(times=np.array([0.25, 0.75]), matrices=mats, asset_ids=("A1", "A2"))
    vol_csv = tmp_path / "vol.csv"
    write_vol_csv(path, vol_csv)
    assert run(["pca", "--input", vol_csv, "--out-csv", tmp_path / "p.csv",
                "--out-svg", tmp_path / "p.svg"]) == 1
    assert "t=0.75" in capsys.readouterr().err


def test_svg_well_formed_and_self_contained(tmp_path):
    from spotvol.estimator import VolPath

    v = np.diag([3.0, 2.0, 1.0])
    path = VolPath(times=np.linspace(0.05, 0.95, 19), matrices=np.stack([v] * 19),
                   asset_ids=("A1", "A2", "A3"))
    svg = render_pca_svg(pca_ratios(path, top=3))
    root = ET.fromstring(svg)  # well-formed XML
    assert root.tag.endswith("svg")
    assert "href" not in svg and "url(" not in svg and "<image" not in svg
    assert svg.count("<polyline") == 3


def test_bench_small_instance_agreement(capsys):
    report = run_bench(d=2, n=20, m=3, reps=1, grid=2, seed=9)
    out = capsys.readouterr().out
    assert report["agreement"] <= 1e-9
    assert "speedup" in out
    assert report["reference_grid"] > 0.0 and report["factorized_grid"] > 0.0


def test_bench_rejects_zero_reps():
    with pytest.raises(ValueError, match="repetitions"):
        run_bench(d=2, n=10, m=2, reps=0, grid=0, seed=1)
    assert main(["bench", "--d", "2", "--n", "10", "--M", "2", "--reps", "0"]) == 1


def test_cli_error_paths(tmp_path, capsys):
    # unreadable input file
    assert run(["estimate", "--input", tmp_path / "missing.csv"]) == 1
    assert "error:" in capsys.readouterr().err
    # invalid model parameters
    assert run(["simulate", "--model", "sin-vol", "--a", 0.1, "--b", 0.5,
                "--out-ticks", tmp_path / "t.csv", "--out-oracle", tmp_path / "o.csv"]) == 1
    assert "error:" in capsys.readouterr().err
    # unwritable output path
    assert run(["simulate", "--model", "const-corr", "--d", 1, "--rho", 0.0, "--n", 20,
                "--out-ticks", tmp_path / "nodir" / "t.csv",
                "--out-oracle", tmp_path / "o.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_python_dash_m_entry():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "spotvol", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "bench" in proc.stdout
