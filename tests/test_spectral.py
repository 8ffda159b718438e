import csv
import re

import numpy as np
import pytest

from spotvol.estimator import EstimatorConfig, VolPath, estimate_path
from spotvol.kernels import KernelParams
from spotvol.market_data import ObservationSet, TickSeries
from spotvol.spectral import (
    EigenReport,
    PcaPath,
    pca_ratios,
    write_pca_csv,
)


def rand_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def _path_of(matrices, times=None):
    matrices = np.asarray(matrices, dtype=float)
    n = matrices.shape[0]
    d = matrices.shape[1]
    if times is None:
        times = np.arange(1, n + 1) / (n + 1)
    return VolPath(
        times=np.asarray(times, dtype=float),
        matrices=matrices,
        asset_ids=tuple(f"A{i + 1}" for i in range(d)),
    )


def test_pca_ratios_constant_diagonal():
    path = _path_of([np.diag([4.0, 3.0, 2.0, 1.0])] * 5)
    pca = pca_ratios(path, top=3)
    for rep in pca.reports:
        np.testing.assert_allclose(rep.ratios, [0.4, 0.7, 0.9])
        np.testing.assert_allclose(rep.eigenvalues, [4.0, 3.0, 2.0, 1.0])


def test_pca_ratios_rank_one():
    v = np.array([1.0, -2.0, 0.5])
    path = _path_of([np.outer(v, v)] * 3)
    pca = pca_ratios(path, top=3)
    for rep in pca.reports:
        assert abs(rep.ratios[0] - 1.0) < 1e-12
        assert np.all(rep.ratios <= 1.0 + 1e-15)


def test_pca_ratios_monotone_and_clamped(rng):
    mats = []
    for _ in range(6):
        a = rand_symmetric(rng, 5)
        mats.append(a @ a.T + 1e-3 * np.eye(5))  # PSD
    pca = pca_ratios(_path_of(mats), top=3)
    for rep in pca.reports:
        assert np.all(np.diff(rep.ratios) >= -1e-15)
        assert np.all(rep.eigenvalues >= 0.0)
        assert rep.ratios[-1] <= 1.0 + 1e-15


def test_pca_ratios_rejects_bad_matrices():
    with pytest.raises(ValueError, match="trace"):
        pca_ratios(_path_of([np.zeros((2, 2))]))
    with pytest.raises(ValueError, match="not positive semi-definite"):
        pca_ratios(_path_of([np.diag([1.0, -0.5])]))
    with pytest.raises(ValueError, match="not symmetric"):
        pca_ratios(_path_of([np.array([[1.0, 0.4], [0.1, 1.0]])]))


def test_pca_ratios_rejects_non_finite():
    nan_offdiag = np.array([[1.0, np.nan], [np.nan, 1.0]])
    inf_diag = np.diag([np.inf, 1.0])
    for bad in (nan_offdiag, inf_diag):
        with pytest.raises(ValueError, match=r"non-finite volatility matrix at t=0\.75"):
            pca_ratios(_path_of([np.eye(2), bad], times=[0.25, 0.75]))


def test_pca_ratios_names_first_failing_time():
    good = np.eye(2)
    not_psd = np.diag([1.0, -0.5])
    asym = np.array([[1.0, 0.4], [0.1, 1.0]])
    times = [0.2, 0.4, 0.6]
    # the PSD floor is checked after the eigenvalues, but the earlier time still wins
    with pytest.raises(ValueError, match=r"t=0\.4: matrix is not positive semi-definite"):
        pca_ratios(_path_of([good, not_psd, asym], times))
    with pytest.raises(ValueError, match=r"at t=0\.4: matrix is not symmetric"):
        pca_ratios(_path_of([good, asym, not_psd], times))
    with pytest.raises(ValueError, match=r"degenerate volatility matrix at t=0\.2"):
        pca_ratios(_path_of([np.zeros((2, 2)), asym, not_psd], times))


def test_pca_ratios_rejects_a_subnormal_matrix_by_name(rng):
    tiny = np.finfo(float).tiny
    pca_ratios(_path_of([np.eye(2) * tiny]))  # the smallest normal scale passes
    with pytest.raises(ValueError, match=r"subnormal volatility matrix at t=0\.6: max\|A\| = 1\.1"):
        pca_ratios(_path_of([np.eye(2), np.eye(2) * tiny / 2], times=[0.2, 0.6]))
    # a psd_direct estimate of 1e-160 increments underflows, so it never reaches pca_ratios
    series = []
    for j in range(3):
        times = np.concatenate([[0.0], np.sort(rng.random(198)), [1.0]])
        series.append(TickSeries(f"A{j + 1}", times, np.cumsum(rng.standard_normal(200)) * 1e-160))
    config = EstimatorConfig(method="psd_direct", eval_grid=np.arange(1, 151) / 150, m=15,
                             kernel=KernelParams(family="gaussian", l_gauss=31.0))
    with pytest.raises(ValueError, match=r"volatility matrix underflows at t=0\.0066\d*: max\|V\| = "
                                         r"\d\.\d{3}e-31\d is below the smallest normal double"):
        estimate_path(ObservationSet(series=tuple(series)), config)


def test_pca_ratios_names_an_overflowing_time_with_no_numpy_warning():
    # the suite turns numpy's overflow warnings into errors
    (rep,) = pca_ratios(_path_of([np.diag([1e308, 5e307])]))  # the trace is still finite
    np.testing.assert_allclose(rep.ratios, [2 / 3, 1.0], rtol=1e-15)
    with pytest.raises(ValueError, match=r"overflowing volatility matrix at t=0\.6: trace = inf"):
        pca_ratios(_path_of([np.eye(2), np.diag([1e308, 1e308])], times=[0.2, 0.6]))
    with pytest.raises(ValueError, match=r"at t=0\.6: matrix is not symmetric: max\|A - A\.T\| = inf"):
        pca_ratios(_path_of([np.eye(2), [[1.0, 1e308], [-1e308, 1.0]]], times=[0.2, 0.6]))



def test_pca_ratios_names_a_trace_of_inf_minus_inf_as_an_overflow():
    # np.trace sums eight entries pairwise: (1e308 + 1e308) + (-1e308 - 1e308) is inf - inf
    a = np.diag([1e308, 1e308, -1e308, -1e308, 1e308, 1e308, -1e308, -1e308])
    message = ("overflowing volatility matrix at t=0.5: trace = nan and eigenvalue sum = inf "
               "must both be finite")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pca_ratios(_path_of([a], times=[0.5]))


TINY = np.finfo(float).tiny  # the smallest normal double


@pytest.mark.parametrize("matrix, message", [
    ([[TINY / 4, TINY / 8], [0.0, TINY / 4]], r"subnormal volatility matrix at t=0\.6"),  # also asymmetric
    ([[1.0, 3.0], [0.0, 1.0]], r"at t=0\.6: matrix is not symmetric"),  # its upper triangle is not PSD
    (np.diag([1e308, -1e308, 1e308]),  # not PSD either
     r"overflowing volatility matrix at t=0\.6: trace = 1\.000e\+308 and eigenvalue sum = inf"),
], ids=["subnormal-before-asymmetric", "asymmetric-before-psd", "overflow-before-psd"])
def test_pca_ratios_reports_the_first_rule_a_time_breaks(matrix, message):
    eye = np.eye(len(matrix))
    with pytest.raises(ValueError, match=message):
        pca_ratios(_path_of([eye, matrix, -eye], times=[0.2, 0.6, 0.8]))


def test_pca_full_ratio_reaches_one(rng):
    a = rand_symmetric(rng, 5)
    pca = pca_ratios(_path_of([a @ a.T + 0.1 * np.eye(5)]), top=5)
    rep = pca.reports[0]
    assert rep.ratios.size == 5
    assert abs(rep.ratios[-1] - 1.0) < 1e-14


def test_clamping_moves_negligible_mass_on_psd_estimates(rng):
    from spotvol.estimator import estimate_psd_factorized
    from spotvol.kernels import KernelParams, make_measure
    from conftest import random_increments

    for _ in range(10):
        inc = random_increments(rng, 4, 20)
        m = int(rng.integers(1, 7))
        mu = make_measure(KernelParams(family="cauchy", gamma=0.2), m)
        v = estimate_psd_factorized(inc, mu, m, float(rng.random())).entries
        w = np.linalg.eigvalsh(v)
        lost = float(np.sum(np.abs(np.minimum(w, 0.0))))
        assert lost <= 1e-10 * max(np.trace(v), 1e-300)


def test_write_pca_csv_layout(tmp_path):
    path = _path_of([np.diag([4.0, 3.0, 2.0, 1.0])] * 2)
    pca = pca_ratios(path, top=3)
    out = tmp_path / "pca.csv"
    write_pca_csv(pca, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,lambda_1,lambda_2,lambda_3,lambda_4,r1,r2,r3"
    assert len(lines) == 3


@pytest.mark.parametrize("eigenvalues, ratios, shape", [
    ([3.0, 2.0, 1.0], [0.5, 5 / 6], "3 eigenvalues and 2 ratios"),
    ([2.0, 1.0], [2 / 3, 1.0, 1.0], "2 eigenvalues and 3 ratios"),
])
def test_pca_path_rejects_reports_of_another_shape(eigenvalues, ratios, shape):
    first = EigenReport(t=0.25, eigenvalues=np.array([2.0, 1.0]), ratios=np.array([2 / 3]))
    same = EigenReport(t=0.5, eigenvalues=np.array([3.0, 1.0]), ratios=np.array([0.75]))
    other = EigenReport(t=0.75, eigenvalues=np.array(eigenvalues), ratios=np.array(ratios))
    with pytest.raises(ValueError, match=f"report at t=0.75 has {shape}; the first report has 2 and 1"):
        PcaPath(reports=(first, same, other))


@pytest.mark.parametrize("eigenvalues, ratios", [
    ([np.nan, -1.0], [np.inf]),
    ([2.0, -np.inf], [0.5]),
    ([2.0, 1.0], [np.nan]),
])
@pytest.mark.parametrize("before", [0, 1])
def test_pca_path_rejects_a_non_finite_report_by_its_time(eigenvalues, ratios, before):
    first = EigenReport(t=0.25, eigenvalues=np.array([2.0, 1.0]), ratios=np.array([2 / 3]))
    bad = EigenReport(t=0.5, eigenvalues=np.array(eigenvalues), ratios=np.array(ratios))
    last = EigenReport(t=0.75, eigenvalues=np.array([np.inf, 1.0]), ratios=np.array([0.5]))
    with pytest.raises(ValueError, match=r"^report at t=0\.5 has non-finite eigenvalues or ratios$"):
        PcaPath(reports=(first,) * before + (bad, last))


def test_pca_path_rejects_unordered_times_and_an_empty_path():
    first = EigenReport(t=0.5, eigenvalues=np.array([2.0, 1.0]), ratios=np.array([2 / 3]))
    second = EigenReport(t=0.5, eigenvalues=np.array([3.0, 1.0]), ratios=np.array([0.75]))
    with pytest.raises(ValueError, match="report times must be strictly increasing"):
        PcaPath(reports=(first, second))
    with pytest.raises(ValueError, match="report times must be a nonempty 1-d array"):
        PcaPath(reports=())


def per_row_pca_csv(pca, path):
    """The PCA file written one ``writerow`` call per report."""
    d = pca.reports[0].eigenvalues.size
    k = pca.reports[0].ratios.size
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"lambda_{i + 1}" for i in range(d)] + [f"r{m + 1}" for m in range(k)])
        for rep in pca.reports:
            writer.writerow([repr(rep.t)] + [repr(float(x)) for x in rep.eigenvalues]
                            + [repr(float(x)) for x in rep.ratios])


def test_write_pca_csv_bytes_match_the_per_row_writer(rng, tmp_path):
    d = 12  # two-digit header names
    a = rng.standard_normal((3, d, d))
    pca = pca_ratios(_path_of(a @ np.swapaxes(a, 1, 2), times=[0.25, 1 / 3, 0.5]), top=10)
    special = np.array([1e308, 1 / 3, 5e-324, -0.0] + [0.0] * (d - 4))
    pca = PcaPath(reports=pca.reports + (EigenReport(t=1.0, eigenvalues=special, ratios=special[:10]),))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_pca_csv(pca, got)
    per_row_pca_csv(pca, want)
    assert got.read_bytes() == want.read_bytes()
    text = got.read_text()
    assert text.startswith("t,lambda_1,") and ",lambda_12,r1," in text and text.count(",r10\n") == 1
    assert "\n1.0,1e+308,0.3333333333333333,5e-324,-0.0,0.0," in text
