"""Symmetric eigendecomposition and dynamic principal component analysis.

Eigenvalues come from LAPACK through numpy: ``pca_ratios`` makes one batched
``np.linalg.eigvalsh`` call on the whole (n, d, d) stack of a path, and
``symm_eigen`` wraps ``np.linalg.eigh`` for a single matrix. Both read the
upper triangle. Every tolerance below is relative to max|A| or to the trace,
so LAPACK's normwise accuracy is all the explained-variance ratios need.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .estimator import VolPath

SYMMETRY_RTOL = 1e-10   # gate on max|A - A.T| relative to max|A|
CLAMP_RTOL = 1e-10      # eigenvalues below -CLAMP_RTOL * trace are an error


def _asymmetry(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max|A - A.T| and max|A| over the last two axes."""
    asym = np.max(np.abs(mats - np.swapaxes(mats, -1, -2)), axis=(-2, -1))
    return asym, np.max(np.abs(mats), axis=(-2, -1))


def _asymmetry_message(asym: float, scale: float) -> str:
    return (
        f"matrix is not symmetric: max|A - A.T| = {asym:.3e} exceeds "
        f"{SYMMETRY_RTOL:.0e} * max|A| = {SYMMETRY_RTOL * scale:.3e}"
    )


def symm_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix (LAPACK ``eigh``).

    Returns ``(w, q)`` with eigenvalues ``w`` sorted descending and orthonormal
    eigenvectors in the columns of ``q``, so that ``a ~= q @ diag(w) @ q.T``.
    Ties keep LAPACK's order, and each eigenvector is normalized to have its
    first nonzero component positive, so repeated runs produce identical
    output.

    Raises ``ValueError`` when ``a`` is not symmetric within
    ``1e-10 * max|a|``; a harmless asymmetry below the gate is resolved by
    reading the upper triangle.
    """
    mat = np.array(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] == 0:
        raise ValueError("expected a nonempty matrix")
    asym, scale = _asymmetry(mat)
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(_asymmetry_message(asym, scale))
    eigvals, vecs = np.linalg.eigh(mat, UPLO="U")
    order = np.argsort(-eigvals, kind="stable")
    eigvals, vecs = eigvals[order], vecs[:, order]
    first = np.argmax(np.abs(vecs) > 1e-12, axis=0)
    flip = vecs[first, np.arange(vecs.shape[1])] < 0.0
    vecs[:, flip] *= -1.0
    return eigvals, vecs


@dataclass(frozen=True)
class EigenReport:
    """Eigenvalues and cumulative explained-variance ratios at one time."""

    t: float
    eigenvalues: np.ndarray  # descending, clamped to be >= 0
    ratios: np.ndarray       # cumulative shares, length min(top, d)


@dataclass(frozen=True)
class PcaPath:
    """Sequence of eigen reports over a strictly increasing time grid."""

    reports: tuple[EigenReport, ...]

    def __post_init__(self) -> None:
        times = [r.t for r in self.reports]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("report times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.reports])


def pca_ratios(path: "VolPath | Sequence", top: int = 3) -> PcaPath:
    """Eigenvalues and cumulative explained-variance ratios along a matrix path.

    Eigenvalues in ``[-1e-10 * trace, 0)`` are clamped to zero before the
    ratios are formed, so every ratio lies in [0, 1]. Each time is checked in
    turn: a non-finite entry, a nonpositive trace, an asymmetry above
    ``1e-10 * max|A|``, or an eigenvalue below ``-1e-10 * trace`` (the input
    did not come from a positive semi-definite estimator) raises
    ``ValueError`` naming the first time that fails.
    """
    if top < 1:
        raise ValueError("top must be a positive integer")
    times = np.asarray(path.times, dtype=float)
    mats = np.asarray(path.matrices, dtype=float)
    finite = np.all(np.isfinite(mats), axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        traces = np.trace(mats, axis1=1, axis2=2)
        asym, scale = _asymmetry(mats)
    bad = ~finite | ~(traces > 0.0) | (asym > SYMMETRY_RTOL * scale)
    n_ok = int(np.argmax(bad)) if bad.any() else bad.size
    # times before the first malformed matrix may still fail the PSD floor
    eigvals = np.linalg.eigvalsh(mats[:n_ok], UPLO="U")[:, ::-1]
    below = eigvals[:, -1] < -CLAMP_RTOL * traces[:n_ok]
    if below.any():
        i = int(np.argmax(below))
        raise ValueError(
            f"eigenvalue {eigvals[i, -1]:.6e} below -1e-10 * trace at t={times[i]}: "
            "matrix is not positive semi-definite within tolerance"
        )
    if n_ok < bad.size:
        t = times[n_ok]
        if not finite[n_ok]:
            raise ValueError(f"non-finite volatility matrix at t={t}")
        if not traces[n_ok] > 0.0:
            raise ValueError(f"degenerate volatility matrix at t={t}: trace={traces[n_ok]:.3e}")
        raise ValueError(f"at t={t}: {_asymmetry_message(asym[n_ok], scale[n_ok])}")
    clamped = np.maximum(eigvals, 0.0)
    count = min(top, clamped.shape[1])
    ratios = np.cumsum(clamped[:, :count], axis=1) / np.sum(clamped, axis=1)[:, None]
    reports = tuple(
        EigenReport(t=float(t), eigenvalues=w, ratios=r) for t, w, r in zip(times, clamped, ratios)
    )
    return PcaPath(reports=reports)


def rank_estimate(report: EigenReport, threshold: float) -> int:
    """Smallest m with cumulative share >= threshold; d when none reaches it."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    for m, r in enumerate(report.ratios, start=1):
        if r >= threshold:
            return m
    return int(report.eigenvalues.size)


def write_pca_csv(pca: PcaPath, path) -> None:
    """Write a PCA path as CSV: t, lambda_1..lambda_d, r1..r_k."""
    if not pca.reports:
        raise ValueError("cannot write an empty PCA path")
    d = pca.reports[0].eigenvalues.size
    k = pca.reports[0].ratios.size
    header = ["t"] + [f"lambda_{i + 1}" for i in range(d)] + [f"r{m + 1}" for m in range(k)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rep in pca.reports:
            row = [repr(rep.t)]
            row += [repr(float(x)) for x in rep.eigenvalues]
            row += [repr(float(x)) for x in rep.ratios]
            writer.writerow(row)
