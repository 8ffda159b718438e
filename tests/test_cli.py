import dataclasses
import timeit
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from spotvol import estimator, market_data, simulation
from spotvol.cli import main, render_pca_svg, run_bench
from spotvol.estimator import read_vol_csv
from spotvol.kernels import KernelParams
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


def test_estimate_cauchy_defaults_gamma_to_the_reference_scale(small_ticks, tmp_path):
    # gamma = (2M+1)^-1/2, 0.1796053020267749 at M = 15
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    base = ["estimate", "--input", small_ticks, "--M", 15, "--kernel", "cauchy", "--grid", 20]
    assert run(base + ["--out", default]) == 0
    assert run(base + ["--gamma", "0.1796053020267749", "--out", explicit]) == 0
    assert default.read_bytes() == explicit.read_bytes()


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


@pytest.mark.parametrize("kernel", [None, "cauchy"])
def test_estimate_writes_the_library_default_measure(small_ticks, tmp_path, kernel):
    # the command line's measure is KernelParams(family=f), resolved by make_measure
    out, want = tmp_path / "cli.csv", tmp_path / "library.csv"
    flags = [] if kernel is None else ["--kernel", kernel]
    assert run(["estimate", "--input", small_ticks, *flags, "--out", out]) == 0
    config = estimator.EstimatorConfig(method="psd_factorized", eval_grid=np.arange(1, 151) / 150,
                                       m=15, kernel=KernelParams(family=kernel or "gaussian"))
    obs = market_data.load_csv(small_ticks)
    estimator.write_vol_csv(estimator.estimate_path(obs, config), want)
    assert out.read_bytes() == want.read_bytes()


def test_estimate_warns_when_cutoff_exceeds_ticks(tmp_path, capsys):
    ticks = tmp_path / "ticks.csv"
    run(["simulate", "--model", "const-corr", "--d", 1, "--rho", 0.0, "--n", 10,
         "--seed", 2, "--out-ticks", ticks, "--out-oracle", tmp_path / "o.csv"])
    capsys.readouterr()
    assert run(["estimate", "--input", ticks, "--M", 15, "--grid", 5,
                "--out", tmp_path / "v.csv"]) == 0
    assert "cutoff M=15" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--method", "psd-factorized", "--L", 4], "method 'psd_factorized' takes no smoothing order l"),
    (["--method", "psd-direct", "--L", 4], "method 'psd_direct' takes no smoothing order l"),
    (["--method", "generic", "--L", 4], "method 'generic' takes no smoothing order l"),
    (["--method", "classical", "--kernel", "gaussian"], "method 'classical' takes no kernel parameters"),
    (["--method", "classical", "--gamma", 0], "method 'classical' takes no kernel parameters"),
    (["--method", "classical", "--l-gauss", 3], "method 'classical' takes no kernel parameters"),
    (["--method", "classical", "--nodes", 5], "method 'classical' takes no kernel parameters"),
    (["--method", "classical", "--wrap"], "method 'classical' takes no kernel parameters"),
    (["--method", "classical", "--kernel", "flat", "--nodes", 5],
     "method 'classical' takes no kernel parameters"),
    (["--kernel", "cauchy", "--l-gauss", 3], "l_gauss applies only to the gaussian family, not 'cauchy'"),
    (["--kernel", "flat", "--nodes", 5],
     "nodes applies only to the continuous families (cauchy, gaussian), not 'flat'"),
    (["--kernel", "fejer", "--nodes", 5],
     "nodes applies only to the continuous families (cauchy, gaussian), not 'fejer'"),
], ids=["L-psd-factorized", "L-psd-direct", "L-generic", "classical-kernel", "classical-gamma-0",
        "classical-l-gauss", "classical-nodes", "classical-wrap", "classical-flat-nodes",
        "cauchy-l-gauss", "flat-nodes", "fejer-nodes"])
def test_estimate_checks_its_flags_before_reading_the_ticks(tmp_path, capsys, flags, message):
    # KernelParams and EstimatorConfig state these rules; the command line passes its flags on
    out = tmp_path / "v.csv"
    assert run(["estimate", "--input", tmp_path / "missing.csv", *flags, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


def test_svg_of_a_one_time_pca_path_and_no_empty_path_to_render():
    from spotvol.estimator import VolPath
    from spotvol.spectral import PcaPath

    with pytest.raises(ValueError, match="report times must be a nonempty 1-d array"):
        PcaPath(reports=())
    path = VolPath(times=[0.5], matrices=np.diag([2.0, 1.0])[None], asset_ids=("A1", "A2"))
    svg = render_pca_svg(pca_ratios(path, top=2))
    assert svg.count("<polyline") == 2 and 'points="360.00,' in svg


def test_bench_small_instance_agreement(capsys):
    report = run_bench(d=2, n=20, m=3, reps=1, grid=2, seed=9)
    out = capsys.readouterr().out
    assert report["agreement"] <= 1e-9
    assert "speedup" in out
    assert report["reference_grid"] > 0.0 and report["factorized_grid"] > 0.0


BENCH_LINES = ("instance:", "agreement at t=0.5:", "reference (fiber sum), single t:",
               "factorized (quadrature), single t:", "speedup, single t:",
               "reference over 2-point grid:", "factorized over 2-point grid:", "speedup, grid:")


@pytest.mark.parametrize("grid, lines", [(2, 8), (0, 5)])
def test_bench_prints_its_lines_in_order(capsys, grid, lines):
    argv = ["bench", "--d", "2", "--n", "20", "--M", "3", "--reps", "1", "--grid", str(grid)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == lines
    for line, label in zip(out, BENCH_LINES):
        assert line.startswith(label), (line, label)


def test_bench_rejects_zero_reps():
    with pytest.raises(ValueError, match="--reps must be a positive integer"):
        run_bench(d=2, n=10, m=2, reps=0, grid=0, seed=1)
    assert main(["bench", "--d", "2", "--n", "10", "--M", "2", "--reps", "0"]) == 1


def test_bench_rejects_a_negative_grid():
    with pytest.raises(ValueError, match="--grid must be a nonnegative integer"):
        run_bench(d=2, n=10, m=2, reps=1, grid=-1, seed=1)


def test_bench_raises_before_timing_when_the_forms_disagree(capsys, monkeypatch):
    exact, timed = estimator.estimate_psd_factorized, []

    def perturbed(*args):
        vol = exact(*args)
        return dataclasses.replace(vol, entries=vol.entries * (1.0 + 1e-6))

    def timer(*args, **kwargs):
        timed.append(args)
        return [0.0]

    monkeypatch.setattr(estimator, "estimate_psd_factorized", perturbed)
    monkeypatch.setattr(timeit, "repeat", timer)
    monkeypatch.setattr(timeit, "timeit", timer)
    with pytest.raises(RuntimeError, match="estimators disagree: relative difference"):
        run_bench(d=2, n=20, m=3, reps=1, grid=2, seed=9)
    assert timed == []
    assert capsys.readouterr().out == ""


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



def test_estimate_writes_nothing_when_the_path_is_not_finite(rng, tmp_path, capsys):
    ticks, vol = tmp_path / "ticks.csv", tmp_path / "vol.csv"
    rows = ["asset,time,price"]
    for asset in ("A", "B", "C"):
        times = np.sort(rng.random(200)).tolist()
        prices = (rng.choice([-1.0, 1.0], 200) * rng.random(200) * 1e300).tolist()
        rows += [f"{asset},{t!r},{p!r}" for t, p in zip(times, prices)]
    ticks.write_text("\n".join(rows) + "\n")
    assert run(["estimate", "--input", ticks, "--out", vol]) == 1
    assert "non-finite volatility matrix at t=0.0066" in capsys.readouterr().err
    assert not vol.exists()


def test_an_overflowing_increment_names_its_asset_time_and_log_prices(tmp_path, capsys):
    # the suite's filter makes a numpy overflow warning from np.diff an error
    ticks, vol = tmp_path / "ticks.csv", tmp_path / "vol.csv"
    ticks.write_text("asset,time,price\nA,0.0,1e308\nA,0.5,-1e308\nA,1.0,0.0\n"
                     "B,0.0,0.0\nB,1.0,1.0\n")
    message = "A: the increment at t=0.5 overflows: log-price 1e+308 to -1e+308"
    with pytest.raises(market_data.MarketDataError) as caught:
        market_data.increments(market_data.load_csv(ticks))
    assert str(caught.value) == message
    assert run(["estimate", "--input", ticks, "--out", vol]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {message}" and "Warning" not in err
    assert not vol.exists()


def test_simulate_writes_nothing_when_a_flag_is_invalid(tmp_path, capsys):
    ticks, oracle = tmp_path / "ticks.csv", tmp_path / "oracle.csv"
    assert run(["simulate", "--model", "const-corr", "--d", 2, "--n", 20, "--grid", 0,
                "--out-ticks", ticks, "--out-oracle", oracle]) == 1
    assert "grid must be a positive integer" in capsys.readouterr().err
    assert not ticks.exists() and not oracle.exists()


@pytest.mark.parametrize("extra", [[], ["--fine-steps", 100]], ids=["default-fine-steps", "fine-steps-100"])
@pytest.mark.parametrize("n", [0, -3])
def test_simulate_names_n_when_it_is_below_one(tmp_path, capsys, n, extra):
    assert run(["simulate", "--model", "const-corr", "--n", n, *extra,
                "--out-ticks", tmp_path / "ticks.csv", "--out-oracle", tmp_path / "oracle.csv"]) == 1
    err = capsys.readouterr().err
    assert "--n must be a positive integer" in err
    assert "fine_steps" not in err and "n_target" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model, flag, value, models", [
    ("factor", "--rho", 0.2, "const-corr and sin-vol"),
    ("sin-vol", "--var", 2.0, "const-corr"),
    ("const-corr", "--a", 7.0, "sin-vol"),
    ("factor", "--b", 0.3, "sin-vol"),
    ("const-corr", "--r", 9, "factor"),
    ("sin-vol", "--eps", 3.0, "factor"),
])
def test_simulate_rejects_a_model_flag_its_model_does_not_read(tmp_path, capsys, monkeypatch,
                                                               model, flag, value, models):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--model", model, flag, value]) == 1
    assert f"error: {flag} applies only to --model {models}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_accepts_a_model_flag_left_at_its_default(tmp_path):
    outs = ["--out-ticks", tmp_path / "ticks.csv", "--out-oracle", tmp_path / "oracle.csv"]
    assert run(["simulate", "--model", "factor", "--rho", 0.5, "--var", 1.0, "--n", 10,
                "--grid", 2, *outs]) == 0


def test_simulate_rejects_fine_steps_below_ten_per_tick(tmp_path, capsys):
    assert run(["simulate", "--model", "const-corr", "--n", 20, "--fine-steps", 199,
                "--out-ticks", tmp_path / "ticks.csv", "--out-oracle", tmp_path / "oracle.csv"]) == 1
    assert "--fine-steps must be at least 10 * n = 200" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bench_names_n_when_it_is_below_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--n", "0"]) == 1
    err = capsys.readouterr().err
    assert "--n must be a positive integer" in err and "fine_steps" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--input", "ticks.csv", "--M", "0"], "--M must be a positive integer"),
    (["estimate", "--input", "ticks.csv", "--M", "-1"], "--M must be a positive integer"),
    (["estimate", "--input", "ticks.csv", "--method", "classical", "--L", "0"],
     "--L must be a positive integer"),
    (["simulate", "--model", "factor", "--r", "0"], "--r must be a positive integer"),
    (["pca", "--input", "vol.csv", "--top", "0"], "--top must be a positive integer"),
    (["estimate", "--input", "ticks.csv", "--nodes", "0"], "--nodes must be a positive integer"),
    (["estimate", "--input", "ticks.csv", "--grid", "0"], "--grid must be a positive integer"),
    (["simulate", "--model", "const-corr", "--grid", "0"], "--grid must be a positive integer"),
    (["bench", "--d", "2", "--n", "10", "--M", "2", "--reps", "0"], "--reps must be a positive integer"),
    (["bench", "--d", "2", "--n", "10", "--M", "2", "--grid", "-1"],
     "--grid must be a nonnegative integer"),
    (["bench", "--d", "0", "--n", "10", "--M", "2"], "--d must be a positive integer"),
    (["bench", "--d", "-2", "--n", "10", "--M", "2"], "--d must be a positive integer"),
    (["bench", "--d", "2", "--n", "10", "--M", "0"], "--M must be a positive integer"),
    (["bench", "--d", "2", "--n", "10", "--M", "-1"], "--M must be a positive integer"),
], ids=["estimate-M-0", "estimate-M--1", "estimate-L-0", "simulate-r-0", "pca-top-0",
        "estimate-nodes-0", "estimate-grid-0", "simulate-grid-0", "bench-reps-0", "bench-grid--1",
        "bench-d-0", "bench-d--2", "bench-M-0", "bench-M--1"])
def test_counts_are_named_before_anything_is_read_or_simulated(tmp_path, capsys, monkeypatch,
                                                               argv, message):
    def not_yet(*args, **kwargs):
        raise AssertionError("read or simulated before the flags were checked")

    for module, name in ((market_data, "load_csv"), (estimator, "read_vol_csv"),
                         (simulation, "random_loadings"), (simulation, "simulate")):
        monkeypatch.setattr(module, name, not_yet)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert list(tmp_path.iterdir()) == []


# sha256 of the README round trip, seed 7. Like the path pins in
# tests/test_simulation.py these hold for the numpy/BLAS build they were
# recorded with: the path mixes its streams with a BLAS product, and the
# estimate and the eigenvalues come from BLAS and LAPACK.
README_ROUND_TRIP = {
    "ticks.csv": "5ed66ef7eca3878766362b4812f7699376290f7fb60054df10489f1dbc035a85",
    "oracle.csv": "24dac4392f8f2c0c30fb9002650eaff3b329de6f0cbc2caafd858405cf83aa6c",
    "vol.csv": "0e03236b74ab7636fe3143d4b1c515720fd0998841cd631d0d143733be9b7361",
    "pca.csv": "bf2b216b4fd647c03bff9023216e035fe0879602480d1c6b802b7ab4b5a32c24",
}


def test_readme_round_trip_bytes_are_pinned(tmp_path):
    import hashlib

    f = {name: tmp_path / name for name in (*README_ROUND_TRIP, "pca.svg")}
    assert run(["simulate", "--model", "factor", "--d", 12, "--r", 3, "--n", 150,
                "--sampling", "poisson", "--seed", 7,
                "--out-ticks", f["ticks.csv"], "--out-oracle", f["oracle.csv"]]) == 0
    assert run(["estimate", "--input", f["ticks.csv"], "--out", f["vol.csv"]]) == 0
    assert run(["pca", "--input", f["vol.csv"], "--out-csv", f["pca.csv"],
                "--out-svg", f["pca.svg"]]) == 0
    got = {name: hashlib.sha256(f[name].read_bytes()).hexdigest() for name in README_ROUND_TRIP}
    assert got == README_ROUND_TRIP


def test_python_dash_m_entry():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the subprocess does not inherit pytest's pythonpath; put the checkout's src first
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "spotvol", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "bench" in proc.stdout


def test_python_dash_m_entry_in_process(monkeypatch, capsys):
    # the line tracer of scripts/untested_lines.py sees this run, not the subprocess above
    import runpy
    import sys

    monkeypatch.setattr(sys, "argv", ["spotvol", "--help"])
    with pytest.raises(SystemExit) as caught:
        runpy.run_module("spotvol", run_name="__main__")
    assert caught.value.code == 0
    assert "simulate" in capsys.readouterr().out


def run_piped(args, data: bytes):
    """``python -m spotvol`` with ``data`` on a pipe as its stdin; returns the process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "spotvol", *map(str, args)], input=data,
                          capture_output=True, env=env, timeout=120)


def test_estimate_and_pca_read_their_input_from_a_pipe(tmp_path):
    # a pipe cannot be rewound, so each reader must take it in one pass
    ticks, vol, pca = tmp_path / "ticks.csv", tmp_path / "vol.csv", tmp_path / "pca.csv"
    assert run(["simulate", "--model", "const-corr", "--d", 2, "--n", 40, "--grid", 5,
                "--out-ticks", ticks, "--out-oracle", tmp_path / "oracle.csv"]) == 0
    assert run(["estimate", "--input", ticks, "--out", vol]) == 0
    assert run(["pca", "--input", vol, "--out-csv", pca, "--out-svg", tmp_path / "pca.svg"]) == 0
    piped_vol, piped_pca = tmp_path / "piped-vol.csv", tmp_path / "piped-pca.csv"
    proc = run_piped(["estimate", "--input", "/dev/stdin", "--out", piped_vol], ticks.read_bytes())
    assert proc.returncode == 0, proc.stderr
    assert piped_vol.read_bytes() == vol.read_bytes()
    proc = run_piped(["pca", "--input", "/dev/stdin", "--out-csv", piped_pca,
                      "--out-svg", tmp_path / "piped-pca.svg"], vol.read_bytes())
    assert proc.returncode == 0, proc.stderr
    assert piped_pca.read_bytes() == pca.read_bytes()
