"""Dynamic principal component analysis of a volatility matrix path.

Eigenvalues come from LAPACK through numpy: ``pca_ratios`` makes one batched
``np.linalg.eigvalsh`` call on the whole (n, d, d) stack of a path, reading
the upper triangle. Every tolerance below is relative to max|A| or to the
trace, so LAPACK's normwise accuracy is all the explained-variance ratios
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .kernels import is_positive_int
from .market_data import write_rows

if TYPE_CHECKING:  # pragma: no cover
    from .estimator import VolPath

SYMMETRY_RTOL = 1e-10   # gate on max|A - A.T| relative to max|A|
CLAMP_RTOL = 1e-10      # eigenvalues below -CLAMP_RTOL * trace are an error


@dataclass(frozen=True)
class EigenReport:
    """Eigenvalues and cumulative explained-variance ratios at one time."""

    t: float
    eigenvalues: np.ndarray  # descending, clamped to be >= 0
    ratios: np.ndarray       # cumulative shares, length min(top, d)


@dataclass(frozen=True)
class PcaPath:
    """Sequence of eigen reports over a strictly increasing time grid, all of one shape."""

    reports: tuple[EigenReport, ...]

    def __post_init__(self) -> None:
        times = [r.t for r in self.reports]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("report times must be strictly increasing")
        shapes = [(r.eigenvalues.size, r.ratios.size) for r in self.reports]
        for rep, (e, k) in zip(self.reports, shapes):
            if (e, k) != shapes[0]:
                raise ValueError(f"report at t={rep.t} has {e} eigenvalues and {k} ratios; "
                                 f"the first report has {shapes[0][0]} and {shapes[0][1]}")

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.reports])


def pca_ratios(path: "VolPath", top: int = 3) -> PcaPath:
    """Eigenvalues and cumulative explained-variance ratios along a matrix path.

    Eigenvalues in ``[-1e-10 * trace, 0)`` are clamped to zero before the
    ratios are formed, so every ratio lies in [0, 1]. Each time is checked in
    turn: a non-finite entry, a nonpositive trace, a subnormal max|A| (whose
    tolerances would underflow to 0), an asymmetry above ``1e-10 * max|A|``,
    or an eigenvalue below ``-1e-10 * trace`` (the input did not come from a
    positive semi-definite estimator) raises ``ValueError`` naming the first
    time that fails.
    """
    if not is_positive_int(top):
        raise ValueError("top must be a positive integer")
    times = np.asarray(path.times, dtype=float)
    mats = np.asarray(path.matrices, dtype=float)
    finite = np.all(np.isfinite(mats), axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        traces = np.trace(mats, axis1=1, axis2=2)
        asym = np.max(np.abs(mats - np.swapaxes(mats, 1, 2)), axis=(1, 2))
        scale = np.max(np.abs(mats), axis=(1, 2))
    tiny = np.finfo(float).tiny  # below it, the relative tolerances underflow to 0
    bad = ~finite | ~(traces > 0.0) | (scale < tiny) | (asym > SYMMETRY_RTOL * scale)
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
        if scale[n_ok] < tiny:
            raise ValueError(
                f"subnormal volatility matrix at t={t}: max|A| = {scale[n_ok]:.3e} is below the "
                f"smallest normal double {tiny:.3e}, so no tolerance relative to it holds"
            )
        raise ValueError(
            f"at t={t}: matrix is not symmetric: max|A - A.T| = {asym[n_ok]:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} * max|A| = {SYMMETRY_RTOL * scale[n_ok]:.3e}"
        )
    clamped = np.maximum(eigvals, 0.0)
    count = min(top, clamped.shape[1])
    ratios = np.cumsum(clamped[:, :count], axis=1) / np.sum(clamped, axis=1)[:, None]
    reports = tuple(
        EigenReport(t=float(t), eigenvalues=w, ratios=r) for t, w, r in zip(times, clamped, ratios)
    )
    return PcaPath(reports=reports)


def rank_estimate(report: EigenReport, threshold: float) -> int:
    """Smallest m whose top-m share of the trace reaches threshold; d when none does."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    shares = np.cumsum(report.eigenvalues) / np.sum(report.eigenvalues)  # nondecreasing: w >= 0
    return min(int(np.searchsorted(shares, threshold)) + 1, shares.size)


def write_pca_csv(pca: PcaPath, path) -> None:
    """Write a PCA path as CSV: t, lambda_1..lambda_d, r1..r_k."""
    if not pca.reports:
        raise ValueError("cannot write an empty PCA path")
    d = pca.reports[0].eigenvalues.size
    k = pca.reports[0].ratios.size
    header = ["t"] + [f"lambda_{i + 1}" for i in range(d)] + [f"r{m + 1}" for m in range(k)]
    rows = np.array([[rep.t, *rep.eigenvalues, *rep.ratios] for rep in pca.reports])
    write_rows(path, header, rows)
