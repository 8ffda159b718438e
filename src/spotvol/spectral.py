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

from .kernels import PSD_FLOOR_RTOL, SYMMETRY_RTOL, require_count
from .market_data import require_times, write_rows

if TYPE_CHECKING:  # pragma: no cover
    from .estimator import VolPath


@dataclass(frozen=True)
class EigenReport:
    """Eigenvalues and cumulative explained-variance ratios at one time."""

    t: float
    eigenvalues: np.ndarray  # descending, clamped to be >= 0
    ratios: np.ndarray       # cumulative shares, length min(top, d)


@dataclass(frozen=True)
class PcaPath:
    """Finite eigen reports, all of the first one's shape, over times ``require_times`` accepts."""

    reports: tuple[EigenReport, ...]

    def __post_init__(self) -> None:
        require_times([r.t for r in self.reports], ValueError, "report ")
        shapes = [(r.eigenvalues.size, r.ratios.size) for r in self.reports]
        for rep, (e, k) in zip(self.reports, shapes):
            if (e, k) != shapes[0]:
                raise ValueError(f"report at t={rep.t} has {e} eigenvalues and {k} ratios; "
                                 f"the first report has {shapes[0][0]} and {shapes[0][1]}")
        # one check over every report: a check per report costs ~10x as much
        values = np.concatenate([x for r in self.reports for x in (r.eigenvalues, r.ratios)])
        finite = np.isfinite(values).reshape(len(self.reports), -1).all(axis=1)
        if not finite.all():
            t = self.reports[np.argmin(finite)].t
            raise ValueError(f"report at t={t} has non-finite eigenvalues or ratios")

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
    ratios are formed, so every ratio lies in [0, 1]. The matrices are finite
    (``VolPath`` holds no other). Five rules are checked at every time, in
    this order: a nonpositive trace, a subnormal max|A| (whose tolerances
    would underflow to 0), an asymmetry above ``1e-10 * max|A|``, a trace
    (one summing to inf - inf included) or eigenvalue sum that overflows,
    and an eigenvalue below ``-1e-10 * trace`` (the input did not come from
    a positive semi-definite estimator). The first time that breaks any rule
    raises ``ValueError`` with the message of the first rule it breaks.
    """
    require_count("top", top)
    times, mats = path.times, path.matrices
    with np.errstate(over="ignore", invalid="ignore"):  # a trace may overflow or be inf - inf
        traces = np.trace(mats, axis1=1, axis2=2)
        asym = np.max(np.abs(mats - np.swapaxes(mats, 1, 2)), axis=(1, 2))
        scale = np.max(np.abs(mats), axis=(1, 2))
        eigvals = np.linalg.eigvalsh(mats, UPLO="U")[:, ::-1]
        clamped = np.maximum(eigvals, 0.0)
        totals = np.sum(clamped, axis=1)
    tiny = np.finfo(float).tiny  # below it, the relative tolerances underflow to 0
    rules = (
        traces <= 0.0,
        scale < tiny,
        asym > SYMMETRY_RTOL * scale,
        ~(np.isfinite(traces) & np.isfinite(totals)),
        eigvals[:, -1] < -PSD_FLOOR_RTOL * traces,
    )
    broken = np.logical_or.reduce(rules)
    if broken.any():
        i = int(np.argmax(broken))
        t = times[i]
        messages = (
            f"degenerate volatility matrix at t={t}: trace={traces[i]:.3e}",
            f"subnormal volatility matrix at t={t}: max|A| = {scale[i]:.3e} is below the "
            f"smallest normal double {tiny:.3e}, so no tolerance relative to it holds",
            f"at t={t}: matrix is not symmetric: max|A - A.T| = {asym[i]:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} * max|A| = {SYMMETRY_RTOL * scale[i]:.3e}",
            f"overflowing volatility matrix at t={t}: trace = {traces[i]:.3e} "
            f"and eigenvalue sum = {totals[i]:.3e} must both be finite",
            f"eigenvalue {eigvals[i, -1]:.6e} below -{PSD_FLOOR_RTOL:.0e} * trace at t={t}: "
            "matrix is not positive semi-definite within tolerance",
        )
        raise ValueError(next(msg for msg, mask in zip(messages, rules) if mask[i]))
    count = min(top, clamped.shape[1])
    ratios = np.cumsum(clamped[:, :count], axis=1) / totals[:, None]
    reports = tuple(
        EigenReport(t=float(t), eigenvalues=w, ratios=r) for t, w, r in zip(times, clamped, ratios)
    )
    return PcaPath(reports=reports)


def write_pca_csv(pca: PcaPath, path) -> None:
    """Write a PCA path as CSV: t, lambda_1..lambda_d, r1..r_k."""
    d, k = pca.reports[0].eigenvalues.size, pca.reports[0].ratios.size
    header = ["t"] + [f"lambda_{i + 1}" for i in range(d)] + [f"r{m + 1}" for m in range(k)]
    rows = np.array([[rep.t, *rep.eigenvalues, *rep.ratios] for rep in pca.reports])
    write_rows(path, header, rows)
