"""The output checks accept the program's paths and reject perturbed ones."""

import dataclasses

import numpy as np
import pytest

import checks
from spotvol import estimator, market_data
from spotvol.spectral import EigenReport, PcaPath, pca_ratios
from workloads import IntradayGrid, PaperD12, factor_panel


@pytest.fixture(scope="module")
def intraday(tmp_path_factory):
    wl = IntradayGrid(d=4, n=300, m=6, grid=24)
    directory = tmp_path_factory.mktemp("intraday")
    wl.generate(3, directory)
    inputs = wl.load(directory)
    return wl, inputs, wl.run_pass(inputs, directory)


def _with_matrices(path, matrices):
    return dataclasses.replace(path, matrices=matrices)


def _names(failures):
    return {f.split(":")[0] for f in failures}


def test_unperturbed_pass_passes(intraday):
    wl, inputs, out = intraday
    assert wl.check(inputs, out, out) == []


def test_rejects_asymmetric_path(intraday):
    wl, inputs, out = intraday
    bad = out["psd_factorized"].matrices.copy()
    bad[5, 0, 1] += 1e-6 * np.max(np.abs(bad[5]))
    failures = wl.check(inputs, {**out, "psd_factorized": _with_matrices(out["psd_factorized"], bad)})
    assert "psd_factorized.symmetric" in _names(failures)


def test_rejects_non_psd_path(intraday):
    wl, inputs, out = intraday
    bad = out["psd_direct"].matrices.copy()
    w, v = np.linalg.eigh(bad[7])
    bad[7] -= 2.0 * w[-1] * np.outer(v[:, -1], v[:, -1])  # flip the top eigenvalue's sign
    failures = wl.check(inputs, {**out, "psd_direct": _with_matrices(out["psd_direct"], bad)})
    assert "psd_direct.psd" in _names(failures)
    assert "psd_direct.symmetric" not in _names(failures)


def test_rejects_cross_form_mismatch(intraday):
    wl, inputs, out = intraday
    bad = out["psd_direct"].matrices * (1.0 + 1e-7)
    failures = wl.check(inputs, {**out, "psd_direct": _with_matrices(out["psd_direct"], bad)})
    assert _names(failures) == {"factorized_vs_direct"}


def test_rejects_a_pass_that_differs_from_the_warm_up(intraday):
    wl, inputs, out = intraday
    moved = _with_matrices(out["psd_factorized"], out["psd_factorized"].matrices * (1.0 + 1e-9))
    failures = wl.check(inputs, {**out, "psd_factorized": moved}, out)
    assert "repeatable" in _names(failures)


def test_pca_check_rejects_wrong_eigenvalues(intraday):
    _, _, out = intraday
    path = out["psd_factorized"]
    pca = pca_ratios(path, top=3)
    assert checks.check_pca(pca, path.times, path.matrices, 3) == []
    first = pca.reports[0]
    wrong = EigenReport(t=first.t, eigenvalues=first.eigenvalues * 1.01, ratios=first.ratios)
    bad = PcaPath(reports=(wrong,) + pca.reports[1:])
    assert _names(checks.check_pca(bad, path.times, path.matrices, 3)) == {"pca.eigenvalues"}


def test_classical_reference_matches_the_program():
    obs, _ = factor_panel(3, 60, seed=5)
    inc = market_data.increments(obs)
    for t in (0.0, 0.37, 1.0):
        got = estimator.estimate_classical(inc, 7, 5, t).entries
        ref = checks.classical_reference(obs, 7, 5, t)
        assert checks.rel_frob(got, ref) < 1e-11


def test_once_per_run_checks_pass_on_the_program(tmp_path):
    wl = PaperD12(d=3, n=40, m=4)
    wl.generate(2, tmp_path)
    inputs = wl.load(tmp_path)
    out = wl.run_pass(inputs, tmp_path)
    assert wl.check(inputs, out, out) == []
    assert wl.check_once(inputs, out) == []
    classical = out["classical"]
    moved = _with_matrices(classical, classical.matrices * (1.0 + 1e-6))
    assert _names(wl.check_once(inputs, {**out, "classical": moved})) == {"classical_vs_reference"}
