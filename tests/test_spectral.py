import numpy as np
import pytest

from spotvol.estimator import VolPath
from spotvol.spectral import (
    EigenReport,
    pca_ratios,
    rank_estimate,
    symm_eigen,
    write_pca_csv,
)


def rand_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def test_symm_eigen_identity():
    w, q = symm_eigen(np.eye(3))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)


def test_symm_eigen_diagonal():
    w, _ = symm_eigen(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(w, [3.0, 1.0])


def test_symm_eigen_2x2():
    w, q = symm_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_symm_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symm_eigen(np.array([[1.0, 0.5], [0.3, 1.0]]))


def test_symm_eigen_zero_matrix():
    w, q = symm_eigen(np.zeros((4, 4)))
    np.testing.assert_array_equal(w, np.zeros(4))
    np.testing.assert_array_equal(q, np.eye(4))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 25])
def test_symm_eigen_reconstruction_and_orthogonality(rng, n):
    a = rand_symmetric(rng, n, scale=3.0)
    w, q = symm_eigen(a)
    norm = np.linalg.norm(a)
    assert np.linalg.norm(q @ np.diag(w) @ q.T - a) <= 1e-9 * max(norm, 1.0)
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
    assert np.all(np.diff(w) <= 1e-12 * max(norm, 1.0))  # descending


def test_symm_eigen_matches_numpy(rng):
    for n in (2, 5, 9):
        a = rand_symmetric(rng, n)
        w, _ = symm_eigen(a)
        np.testing.assert_allclose(w, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-10)


def test_symm_eigen_trace_and_frobenius_preserved(rng):
    for _ in range(10):
        a = rand_symmetric(rng, 7, scale=2.0)
        w, _ = symm_eigen(a)
        assert abs(w.sum() - np.trace(a)) <= 1e-10 * max(abs(np.trace(a)), 1.0)
        assert abs(np.linalg.norm(w) - np.linalg.norm(a)) <= 1e-10 * np.linalg.norm(a)


def test_symm_eigen_permutation_equivariance(rng):
    a = rand_symmetric(rng, 6)
    perm = rng.permutation(6)
    p = np.eye(6)[perm]
    w1, q1 = symm_eigen(a)
    w2, q2 = symm_eigen(p @ a @ p.T)
    np.testing.assert_allclose(w1, w2, atol=1e-10)
    # distinct spectrum: eigenvectors match after permutation, by the sign convention
    np.testing.assert_allclose(np.abs(q2), np.abs(p @ q1), atol=1e-8)


def test_symm_eigen_sign_convention_deterministic(rng):
    a = rand_symmetric(rng, 5)
    _, q1 = symm_eigen(a)
    _, q2 = symm_eigen(a.copy())
    np.testing.assert_array_equal(q1, q2)
    for col in range(5):
        nz = np.flatnonzero(np.abs(q1[:, col]) > 1e-12)
        assert q1[nz[0], col] > 0


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
        path = _path_of([np.eye(2), bad], times=[0.25, 0.75])
        with pytest.raises(ValueError, match=r"non-finite volatility matrix at t=0\.75"):
            pca_ratios(path)


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
        pca_ratios(_path_of([np.zeros((2, 2)), asym, np.diag([1.0, np.nan])], times))


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
        w, _ = symm_eigen(v)
        lost = float(np.sum(np.abs(np.minimum(w, 0.0))))
        assert lost <= 1e-10 * max(np.trace(v), 1e-300)


def test_rank_estimate_cases():
    rep = EigenReport(t=0.5, eigenvalues=np.array([4.0, 3.0, 2.0, 1.0]), ratios=np.array([0.4, 0.7, 0.9]))
    assert rank_estimate(rep, 0.65) == 2
    rank_one = EigenReport(t=0.5, eigenvalues=np.array([2.0, 0.0]), ratios=np.array([1.0, 1.0]))
    assert rank_estimate(rank_one, 0.99) == 1
    equal = EigenReport(t=0.5, eigenvalues=np.ones(4), ratios=np.array([0.25, 0.5, 0.75]))
    assert rank_estimate(equal, 0.6) == 3
    # nothing reaches the threshold within the computed ratios -> d
    assert rank_estimate(equal, 0.9) == 4
    with pytest.raises(ValueError):
        rank_estimate(rep, 1.0)


def test_write_pca_csv_layout(tmp_path):
    path = _path_of([np.diag([4.0, 3.0, 2.0, 1.0])] * 2)
    pca = pca_ratios(path, top=3)
    out = tmp_path / "pca.csv"
    write_pca_csv(pca, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,lambda_1,lambda_2,lambda_3,lambda_4,r1,r2,r3"
    assert len(lines) == 3
