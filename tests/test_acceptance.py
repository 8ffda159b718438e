"""Acceptance checklist.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failing tests) and asserts the criterion at its stated
tolerance, including the runtime budget.

AC-5 is expected to fail: the weight table it prescribes (circular triangle
divided by M) does not reduce to the classical estimator with smoothing
order L = M on the synchronous grid. On that grid the prescribed table
collapses to per-tick weights K_M((l0-l)/N) while classical L = M collapses
to K_{M+1}((l0-l)/N); those kernels differ by the factor (M+1)/M at nonzero
grid points and M/(M+1) at zero, so no constant reconciles them and the
observed relative gaps sit between 1/M and 1, far above the 1e-9 tolerance.
The two consistent pairings (divide by M+1 with L = M; divide by M with
L = M-1) hold to machine precision and are covered by the sync-grid
reduction tests in test_estimator.py.
"""

import time

import numpy as np
import pytest

import spotvol as sv
from spotvol.cli import main as cli_main, run_bench
from spotvol.estimator import build_fiber
from spotvol.market_data import AssetIncrements, IncrementTable

# produced once by scripts/oracle_baseline.py (brute-force reference path,
# const-corr d=2 rho=0.5, n=150 sync, M=15, gaussian rate 31, seeds 1..20)
ORACLE_BASELINE = 0.39844524616675187

PINNED_ASYNC = IncrementTable(
    assets=(
        AssetIncrements("A1", np.array([0.21, 0.55, 0.83, 1.0]), np.array([0.9, -0.4, 0.3, 0.2])),
        AssetIncrements("A2", np.array([0.12, 0.47, 0.62, 0.91]), np.array([-0.5, 0.7, 0.1, -0.6])),
    )
)

FAMILIES = (
    sv.KernelParams(family="flat"),
    sv.KernelParams(family="cauchy", gamma=0.18),
    sv.KernelParams(family="gaussian", l_gauss=31.0),
    sv.KernelParams(family="fejer"),
)


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{name}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s exceeded {budget}s"


def _random_table(rng, d, n_max, m_max):
    d = int(rng.integers(1, d + 1))
    m = int(rng.integers(1, m_max + 1))
    assets = []
    for j in range(d):
        n = int(rng.integers(2, n_max + 1))
        times = np.unique(rng.random(n))
        while times.size < 2:
            times = np.unique(rng.random(n))
        assets.append(AssetIncrements(f"A{j + 1}", times, rng.standard_normal(times.size) * 0.3))
    return IncrementTable(assets=tuple(assets)), m


def test_ac01_fiber_sum_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(1, 6))
        fiber = build_fiber(m)
        a1 = rng.standard_normal(4 * m + 1) + 1j * rng.standard_normal(4 * m + 1)
        a2 = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
        a3 = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
        lhs = sum(
            a1[k + 2 * m] * a2[s + m] * a3[sp + m]
            for k, pairs in fiber.items()
            for s, sp in pairs
        )
        rhs = sum(
            a1[u + up + 2 * m] * a2[up + m] * a3[u + m]
            for u in range(-m, m + 1)
            for up in range(-m, m + 1)
        )
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    elapsed = time.perf_counter() - start
    _report("AC-1 fiber-sum identity", worst <= 1e-10, f"max rel err {worst:.2e}", elapsed, 1.0)


def test_ac02_psd_guarantee():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_eig = np.inf
    worst_asym = 0.0
    for params in FAMILIES:
        for _ in range(200):
            inc, m = _random_table(rng, d=6, n_max=40, m_max=8)
            mu = sv.make_measure(params, m)
            v = sv.estimate_psd_factorized(inc, mu, m, float(rng.random())).entries
            tr = float(np.trace(v))
            lam = np.linalg.eigvalsh(v)[0]
            worst_eig = min(worst_eig, lam / max(tr, 1e-300))
            worst_asym = max(worst_asym, float(np.max(np.abs(v - v.T))))
    ok = worst_eig >= -1e-10 and worst_asym == 0.0
    elapsed = time.perf_counter() - start
    _report(
        "AC-2 PSD guarantee (800 instances)",
        ok,
        f"min eig/trace {worst_eig:.2e}, max asym {worst_asym:.1e}",
        elapsed,
        30.0,
    )


def test_ac03_dual_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(50):
        inc, m = _random_table(rng, d=5, n_max=30, m_max=8)
        params = FAMILIES[trial % len(FAMILIES)]
        mu = sv.make_measure(params, m)
        c = sv.c_from_measure(mu, m)
        t = float(rng.random())
        vf = sv.estimate_psd_factorized(inc, mu, m, t).entries
        vd = sv.estimate_psd_direct(inc, c, t).entries
        worst = max(worst, np.linalg.norm(vf - vd) / max(np.linalg.norm(vd), 1e-300))
    elapsed = time.perf_counter() - start
    _report("AC-3 dual-form equivalence", worst <= 1e-9, f"max rel diff {worst:.2e}", elapsed, 30.0)


def test_ac04_generic_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(20):
        inc, _ = _random_table(rng, d=3, n_max=15, m_max=1)
        m = int(rng.integers(1, 5))
        params = FAMILIES[trial % len(FAMILIES)]
        c = sv.c_from_measure(sv.make_measure(params, m), m)
        t = float(rng.random())
        vd = sv.estimate_psd_direct(inc, c, t).entries
        vg = sv.estimate_generic(inc, sv.generic_spec_from_psd(c), t).entries
        scale = max(np.max(np.abs(vd)), 1e-300)
        worst = max(worst, float(np.max(np.abs(vd - vg))) / scale)
    elapsed = time.perf_counter() - start
    _report("AC-4 generic-form equivalence", worst <= 1e-10, f"max rel diff {worst:.2e}", elapsed, 30.0)


def test_ac05_synchronous_reduction_as_stated():
    # Deliberately implemented exactly as stated; see the module docstring for
    # why this pairing cannot hold and where the consistent pairings are tested.
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (3, 5, 7, 31):
        m = (n - 1) // 2
        times = np.arange(1, n + 1) / n
        assets = tuple(
            AssetIncrements(f"A{j + 1}", times.copy(), rng.standard_normal(n) * 0.3)
            for j in range(2)
        )
        inc = IncrementTable(assets=assets)
        ks = np.arange(-2 * m, 2 * m + 1)
        dist = np.minimum(np.abs(ks), n - np.abs(ks))
        c = sv.PSDFunction(m=m, values=((1.0 - dist / m) / n).astype(complex))
        for l0 in range(n):
            t = l0 / n
            vd = sv.estimate_psd_direct(inc, c, t).entries
            vc = sv.estimate_classical(inc, m, m, t).entries
            worst = max(worst, np.linalg.norm(vd - vc) / max(np.linalg.norm(vc), 1e-300))
    elapsed = time.perf_counter() - start
    _report(
        "AC-5 synchronous reduction (as stated)",
        worst <= 1e-9,
        f"max rel diff {worst:.2e}; the stated table/order pairing is off by one, "
        "see tests/test_acceptance.py docstring and test_estimator.py sync-grid tests",
        elapsed,
        10.0,
    )


def test_ac06_kernel_closed_forms():
    start = time.perf_counter()
    xs = np.linspace(-2.0, 2.0, 2001)
    worst = 0.0
    fejer_min = np.inf
    for order in range(1, 9):
        s = np.arange(-order, order + 1)
        d_direct = np.cos(2.0 * np.pi * np.outer(xs, s)).sum(axis=1)
        k = np.arange(-(order - 1), order)
        f_direct = (np.cos(2.0 * np.pi * np.outer(xs, k)) * (1.0 - np.abs(k) / order)).sum(axis=1)
        d_closed = sv.dirichlet_eval(order, xs)
        f_closed = sv.fejer_eval(order, xs)
        worst = max(worst, float(np.max(np.abs(d_closed - d_direct))))
        worst = max(worst, float(np.max(np.abs(f_closed - f_direct))))
        fejer_min = min(fejer_min, float(np.min(f_closed)))
    ok = worst <= 1e-11 and fejer_min >= 0.0
    elapsed = time.perf_counter() - start
    _report(
        "AC-6 kernel closed forms",
        ok,
        f"max err {worst:.2e}, fejer min {fejer_min:.2e}",
        elapsed,
        5.0,
    )


def test_ac07_oracle_accuracy_gate():
    start = time.perf_counter()
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    kernel = sv.KernelParams(family="gaussian", l_gauss=31.0)
    errors = []
    for seed in range(1, 21):
        fine, oracle = sv.simulate(sv.ConstCorrModel(covariance=cov), 1500, seed)
        obs = sv.sample(fine, sv.SamplingScheme(kind="sync", n_target=150), seed)
        config = sv.EstimatorConfig(
            method="psd_factorized", eval_grid=np.arange(1, 151) / 150, m=15, kernel=kernel
        )
        path = sv.estimate_path(obs, config)
        errors.append(sv.score(path, oracle).mean_rel_frobenius)
    mean_err = float(np.mean(errors))
    bound = ORACLE_BASELINE * 1.10
    elapsed = time.perf_counter() - start
    _report(
        "AC-7 oracle accuracy",
        mean_err <= bound,
        f"mean rel err {mean_err:.6f} vs baseline {ORACLE_BASELINE:.6f} (+10% = {bound:.6f})",
        elapsed,
        120.0,
    )


def test_ac08_protocol_pipeline(tmp_path):
    start = time.perf_counter()
    ticks = tmp_path / "ticks.csv"
    vol = tmp_path / "vol.csv"
    pca_csv = tmp_path / "pca.csv"
    pca_svg = tmp_path / "pca.svg"
    assert cli_main([
        "simulate", "--model", "factor", "--d", "12", "--r", "3", "--n", "150",
        "--sampling", "poisson", "--seed", "7",
        "--out-ticks", str(ticks), "--out-oracle", str(tmp_path / "oracle.csv"),
    ]) == 0
    assert cli_main([
        "estimate", "--input", str(ticks), "--M", "15", "--nodes", "31",
        "--kernel", "gaussian", "--l-gauss", "31", "--grid", "150", "--out", str(vol),
    ]) == 0
    assert cli_main([
        "pca", "--input", str(vol), "--out-csv", str(pca_csv), "--out-svg", str(pca_svg),
    ]) == 0
    elapsed = time.perf_counter() - start
    rows = np.loadtxt(pca_csv, delimiter=",", skiprows=1)
    ts, r3 = rows[:, 0], rows[:, -1]
    interior = r3[(ts >= 0.1) & (ts <= 0.9)]
    worst = float(np.min(interior))
    _report(
        "AC-8 protocol pipeline (d=12, N=150, M=15)",
        worst >= 0.8,
        f"min r3 on [0.1, 0.9] = {worst:.4f}",
        elapsed,
        5.0,
    )


def test_ac09_flat_measure_rank_one_path():
    start = time.perf_counter()
    cov = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.6], [0.3, 0.6, 1.0]])
    fine, _ = sv.simulate(sv.ConstCorrModel(covariance=cov), 800, 13)
    obs = sv.sample(fine, sv.SamplingScheme(kind="poisson", n_target=80), 13)
    config = sv.EstimatorConfig(
        method="psd_factorized",
        eval_grid=np.arange(1, 41) / 40,
        m=8,
        kernel=sv.KernelParams(family="flat"),
    )
    path = sv.estimate_path(obs, config)
    counts = []
    for mat in path.matrices:
        w = np.linalg.eigvalsh(mat)
        counts.append(int(np.sum(w > 1e-10 * np.trace(mat))))
    ok = all(c == 1 for c in counts)
    elapsed = time.perf_counter() - start
    _report(
        "AC-9 flat-measure rank bound",
        ok,
        f"eigenvalue counts per time in {sorted(set(counts))}",
        elapsed,
        5.0,
    )


def test_ac10_bench_gate(capsys):
    start = time.perf_counter()
    report = run_bench(d=12, n=150, m=15, reps=1, grid=0, seed=42)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print()
        _report(
            "AC-10 bench gate",
            report["agreement"] <= 1e-9 and report["speedup_single_t"] >= 10.0,
            f"agreement {report['agreement']:.2e}, speedup {report['speedup_single_t']:.0f}x",
            elapsed,
            120.0,
        )


def test_ac11_fejer_measure_exactness():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 9):
        c = sv.c_from_measure(sv.make_measure(sv.KernelParams(family="fejer"), m), m)
        for k in range(-2 * m, 2 * m + 1):
            want = (1.0 - abs(k) / (2 * m + 1)) / (2 * m + 1)
            worst = max(worst, abs(c.value(k) - want))
    elapsed = time.perf_counter() - start
    _report("AC-11 fejer-measure exactness", worst <= 1e-12, f"max err {worst:.2e}", elapsed, 1.0)


def test_ac12_classical_asymmetry_regression():
    start = time.perf_counter()
    vc = sv.estimate_classical(PINNED_ASYNC, 3, 3, 0.5).entries
    gap = abs(vc[0, 1] - vc[1, 0])
    mu = sv.make_measure(sv.KernelParams(family="gaussian", l_gauss=7.0), 3)
    vf = sv.estimate_psd_factorized(PINNED_ASYNC, mu, 3, 0.5).entries
    sym_gap = abs(vf[0, 1] - vf[1, 0])
    elapsed = time.perf_counter() - start
    _report(
        "AC-12 classical asymmetry regression",
        gap > 1e-6 and sym_gap == 0.0,
        f"classical |V12-V21| = {gap:.3e}, factorized {sym_gap:.1e}",
        elapsed,
        1.0,
    )
