"""Output checks, run on every pass outside the timed region.

Each check returns a list of failure messages; every message starts with
the check's name, so a failed pass says which guarantee broke.
"""

from __future__ import annotations

import numpy as np

SYMMETRY_RTOL = 1e-10  # max|V - V.T| against max|V|
PSD_RTOL = 1e-10       # min eigenvalue against -trace
AGREE_RTOL = 1e-9      # relative Frobenius difference between two forms
PCA_RTOL = 1e-9        # eigenvalues against trace


def rel_frob(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relative Frobenius difference ||a - b|| / ||b|| over the last two axes."""
    num = np.linalg.norm(a - b, axis=(-2, -1))
    return num / np.maximum(np.linalg.norm(b, axis=(-2, -1)), 1e-300)


def _first(name: str, bad: np.ndarray, times: np.ndarray, detail: str) -> list[str]:
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return []
    return [f"{name}: {detail} at {idx.size} of {bad.size} times, first t={times[idx[0]]:g}"]


def check_psd(form: str, times: np.ndarray, matrices: np.ndarray) -> list[str]:
    """Symmetric within 1e-10 * max|V| and min eigenvalue >= -1e-10 * trace at every time."""
    scale = np.max(np.abs(matrices), axis=(1, 2))
    gap = np.max(np.abs(matrices - np.swapaxes(matrices, 1, 2)), axis=(1, 2))
    asym = gap > SYMMETRY_RTOL * scale
    failures = _first(f"{form}.symmetric", asym, times, "max|V - V.T| above 1e-10 * max|V|")
    low = np.linalg.eigvalsh(matrices)[:, 0]
    trace = np.trace(matrices, axis1=1, axis2=2)
    not_psd = ~asym & (low < -PSD_RTOL * trace)
    failures += _first(f"{form}.psd", not_psd, times, "min eigenvalue below -1e-10 * trace")
    return failures


def check_agree(name: str, times: np.ndarray, a: np.ndarray, b: np.ndarray,
                rtol: float = AGREE_RTOL) -> list[str]:
    diff = rel_frob(a, b)
    return _first(name, diff > rtol, times, f"relative Frobenius difference {diff.max():.3e} > {rtol:g}")


def check_equal(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """Bit-for-bit equality, for outputs that round-trip through a file."""
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} differs from {want.shape}"]
    if not np.array_equal(got, want):
        return [f"{name}: {int(np.sum(got != want))} values differ"]
    return []


def check_pca(pca, times: np.ndarray, matrices: np.ndarray, top: int) -> list[str]:
    """Eigenvalues against eigvalsh within 1e-9 * trace; shares in [0, 1] and nondecreasing."""
    got_t = np.array([r.t for r in pca.reports])
    if got_t.shape != times.shape or not np.array_equal(got_t, times):
        return ["pca.times: report times differ from the path times"]
    eig = np.array([r.eigenvalues for r in pca.reports])
    ratios = np.array([r.ratios for r in pca.reports])
    want = np.maximum(np.linalg.eigvalsh(matrices)[:, ::-1], 0.0)
    trace = np.trace(matrices, axis1=1, axis2=2)
    err = np.max(np.abs(eig - want), axis=1)
    failures = _first("pca.eigenvalues", err > PCA_RTOL * trace, times,
                      "eigenvalues differ from eigvalsh by more than 1e-9 * trace")
    if ratios.shape[1] != min(top, matrices.shape[1]):
        return failures + [f"pca.shares: {ratios.shape[1]} shares, expected {top}"]
    out_of_range = np.any((ratios < 0.0) | (ratios > 1.0), axis=1)
    failures += _first("pca.shares", out_of_range, times, "share outside [0, 1]")
    decreasing = np.any(np.diff(ratios, axis=1) < 0.0, axis=1)
    failures += _first("pca.shares", decreasing, times, "cumulative shares decrease")
    return failures


def classical_reference(obs, m: int, l: int, t: float) -> np.ndarray:
    """(2M+1)^-1 sum_{l,l'} K_{L+1}(t - t_l) D_M(t_l - t'_l') dX_l dX'_l', by frequency sums.

    Both kernels are expanded into their exponential sums instead of the
    closed sine ratios the program uses: D_M(x) = sum_{|s|<=M} e^{2 pi i s x}
    and K_{L+1}(x) = sum_{|k|<=L} (1 - |k|/(L+1)) e^{2 pi i k x}. The row
    asset carries the time kernel, as in the classical form.
    """
    s = np.arange(-m, m + 1)
    k = np.arange(-l, l + 1)
    fejer_w = 1.0 - np.abs(k) / (l + 1)
    left, right = [], []
    for series in obs.series:
        times, dx = series.times[1:], np.diff(series.values)
        kern = np.cos(2 * np.pi * np.outer(t - times, k)) @ fejer_w
        left.append(np.exp(2j * np.pi * np.outer(s, times)) @ (kern * dx))
        right.append(np.exp(-2j * np.pi * np.outer(s, times)) @ dx)
    return (np.array(left) @ np.array(right).T).real / (2 * m + 1)


def rel_frob_err(times: np.ndarray, matrices: np.ndarray, oracle, burn: float = 0.1) -> float:
    """Mean relative Frobenius error against the oracle on [burn, 1 - burn]."""
    mask = (times >= burn) & (times <= 1.0 - burn)
    truth = np.stack([oracle(t) for t in times[mask]])
    return float(np.mean(rel_frob(matrices[mask], truth)))
