"""Fourier spot-volatility estimators.

Four estimators of the instantaneous covariance matrix V(t) from per-asset
increment series, all built from windowed Fourier sums of the increments:

* ``estimate_generic``      reference form: an explicit sum over a frequency
  set, a fiber of frequency pairs, and a weight table. Quadratic in the tick
  counts; kept for tests and benchmarks.
* ``estimate_classical``    kernel-product form
  (1/(2M+1)) sum_{l,l'} K_{L+1}(t - t^j_l) D_M(t^j_l - t^{j'}_{l'}) dX dX',
  evaluated as the Fejér sum Re sum_{|k|<=L} e^{2 pi i k t} w_k R(k) of the
  convolution R_{jj'}(k) = sum_{|u|<=M} a_j(k - u) a_{j'}(u) of the price
  Fourier sums (Malliavin & Mancino 2009), w_k = (1 - |k|/(L+1)) / (2M+1):
  O((M+L) sum_j N_j + L M d^2) once per path, O(L d^2) per time. Not
  symmetric in general, hence unsuitable for eigenanalysis.
* ``estimate_psd_direct``   double frequency sum
  sum_{u,u'} c(u - u') g_j(u) conj(g_{j'}(u')) with a Hermitian PSD weight
  table c; output is PSD with eigenvalues above -1e-10 * trace.
* ``estimate_psd_factorized``  quadrature form
  sum_q w_q S_j(t, y_q) S_{j'}(t, y_q) over a nonnegative measure; exactly
  symmetric (each entry computed once), PSD, and fast: after an
  O(M sum_j N_j) precomputation each time point costs O(Q (M d + d^2)).

The per-asset Fourier sums a_j(s) = sum_l e^{-2 pi i s t^j_l} dX^j_l are
precomputed once per path and shared by every form except the generic
reference. They are built by power recurrence, multiplying each tick's
phase by e^{-2 pi i t^j_l} from one frequency to the next and re-seeding
from an exact exp every ``RESEED`` powers, so the pass is O(M N_j) products
in O(N_j) memory per asset. ``estimate_path`` evaluates the three fast
forms on blocks of grid times with batched products; each pointwise
estimator is the block of one time.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .kernels import (
    KernelParams,
    PSDFunction,
    SpectralMeasure,
    c_from_measure,
    is_positive_int,
    make_measure,
)
from .market_data import IncrementTable, ObservationSet, increments

METHODS = ("generic", "classical", "psd_direct", "psd_factorized")

IMAG_RESIDUE_RTOL = 1e-9

GRID_BLOCK = 32  # evaluation times per block in estimate_path
RESEED = 32      # powers between exact exp re-seeds in fourier_coefficients


class EstimationError(ValueError):
    """Raised when an estimator is configured or applied inconsistently."""


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise EstimationError(f"evaluation time must lie in [0, 1], got {t!r}")
    return t


@dataclass(frozen=True)
class GenericSpec:
    """Frequency set, fiber of frequency pairs, and weight table.

    ``fiber[k]`` holds the pairs (s, s') with s + s' = k summed at frequency
    k; ``coeffs`` maps each frequency to its complex weight. Built without
    weights by ``build_fiber`` and completed via ``with_coeffs``.
    """

    frequencies: tuple[int, ...]
    fiber: Mapping[int, tuple[tuple[int, int], ...]]
    coeffs: Mapping[int, complex] | None = None

    def __post_init__(self) -> None:
        freq = tuple(self.frequencies)
        object.__setattr__(self, "frequencies", freq)
        if len(set(freq)) != len(freq):
            raise EstimationError("frequencies must be distinct")
        if set(self.fiber) != set(freq):
            raise EstimationError("fiber keys must match the frequency set")
        for k, pairs in self.fiber.items():
            for s, sp in pairs:
                if s + sp != k:
                    raise EstimationError(f"fiber pair ({s}, {sp}) does not sum to {k}")
        if self.coeffs is not None and not set(freq) <= set(self.coeffs):
            raise EstimationError("weight table must cover every frequency")

    def with_coeffs(self, coeffs: Mapping[int, complex]) -> "GenericSpec":
        return GenericSpec(frequencies=self.frequencies, fiber=self.fiber, coeffs=dict(coeffs))

    def fiber_size(self, k: int) -> int:
        return len(self.fiber[k])


def build_fiber(m: int) -> GenericSpec:
    """Fiber over {-2m, ..., 2m} whose estimator is positive semi-definite.

    For k >= 0 the pairs are (-m + k + v, m - v) for v = 0..2m-k, and for
    k < 0 they are (m + k - v, -m + v) for v = 0..2m+k, so |fiber[k]| is
    2m + 1 - |k| and every component lies in [-m, m]. Returned without a
    weight table.
    """
    if not is_positive_int(m):
        raise EstimationError("cutoff must be a positive integer")
    fiber: dict[int, tuple[tuple[int, int], ...]] = {}
    for k in range(-2 * m, 2 * m + 1):
        if k >= 0:
            pairs = tuple((-m + k + v, m - v) for v in range(2 * m - k + 1))
        else:
            pairs = tuple((m + k - v, -m + v) for v in range(2 * m + k + 1))
        fiber[k] = pairs
    return GenericSpec(frequencies=tuple(range(-2 * m, 2 * m + 1)), fiber=fiber)


def generic_spec_from_psd(c: PSDFunction) -> GenericSpec:
    """The PSD fiber at the table's cutoff, weighted by the table itself."""
    return build_fiber(c.m).with_coeffs({k: c.value(k) for k in range(-2 * c.m, 2 * c.m + 1)})


@dataclass(frozen=True)
class FourierCoefficients:
    """Per-asset windowed Fourier sums a_j(s) for s in [-order, order].

    ``tables[j, s + order]`` holds a_j(s); real increments give the conjugate
    symmetry a_j(-s) = conj(a_j(s)), which is exact here because the negative
    half is mirrored from the positive half.
    """

    order: int
    asset_ids: tuple[str, ...]
    tables: np.ndarray  # complex, shape (d, 2*order + 1)

    @property
    def d(self) -> int:
        return len(self.asset_ids)

    def coeff(self, asset: int, s: int) -> complex:
        if abs(s) > self.order:
            raise EstimationError(f"s={s} outside [-{self.order}, {self.order}]")
        return complex(self.tables[asset, s + self.order])


def fourier_coefficients(inc: IncrementTable, order: int) -> FourierCoefficients:
    """Compute a_j(s) = sum_l e^{-2 pi i s t^j_l} dX^j_l for all assets.

    Power recurrence per asset: with z_l = e^{-2 pi i t^j_l} and
    p_l = e^{-2 pi i s t^j_l} dX^j_l, a_j(s) is the sum of p and the next
    frequency is p * z. Every ``RESEED`` powers p is re-seeded from an exact
    exp, so the rounding drift of the products stays bounded at large order.
    Memory is O(N_j) per asset; no (order+1) x N_j exp table is built. The
    negative half is the exact conjugate mirror of s = 0..order.
    """
    if not is_positive_int(order):
        raise EstimationError("order must be a positive integer")
    tables = np.empty((inc.d, 2 * order + 1), dtype=complex)
    for j, asset in enumerate(inc.assets):
        z = np.exp(-2j * np.pi * asset.times)
        pos = tables[j, order:]
        for s in range(order + 1):
            if s % RESEED == 0:
                p = np.exp((-2j * np.pi * s) * asset.times)
                p *= asset.dx
            else:
                p *= z
            pos[s] = p.sum()
        tables[j, :order] = np.conj(pos[1:])[::-1]
    return FourierCoefficients(order=order, asset_ids=inc.asset_ids, tables=tables)


@dataclass(frozen=True)
class VolMatrix:
    """Estimated spot volatility matrix at one time."""

    t: float
    entries: np.ndarray  # (d, d)


@dataclass(frozen=True)
class VolPath:
    """Estimated matrices over a strictly increasing evaluation grid."""

    times: np.ndarray
    matrices: np.ndarray  # (n, d, d)
    asset_ids: tuple[str, ...]
    config: "EstimatorConfig | None" = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        matrices = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", matrices)
        if times.ndim != 1 or times.size == 0:
            raise EstimationError("a volatility path needs at least one time")
        if not np.all(np.isfinite(times)):
            raise EstimationError("path times must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise EstimationError("path times must be strictly increasing")
        d = len(self.asset_ids)
        if matrices.shape != (times.size, d, d):
            raise EstimationError(
                f"matrix block has shape {matrices.shape}, expected {(times.size, d, d)}"
            )

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, i: int) -> VolMatrix:
        return VolMatrix(t=float(self.times[i]), entries=self.matrices[i])

    @property
    def d(self) -> int:
        return len(self.asset_ids)


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selection and parameters for path estimation.

    m is the frequency cutoff (Dirichlet order). l is the classical
    estimator's smoothing order and defaults to m. kernel selects the
    smoothing measure for the PSD methods (and the generic reference, whose
    weights are the transform of that measure).
    """

    method: str
    eval_grid: np.ndarray
    m: int = 15
    l: int | None = None
    kernel: KernelParams | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise EstimationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not is_positive_int(self.m):
            raise EstimationError("cutoff must be a positive integer")
        if self.l is not None and not is_positive_int(self.l):
            raise EstimationError("smoothing order must be a positive integer")
        grid = np.asarray(self.eval_grid, dtype=float)
        object.__setattr__(self, "eval_grid", grid)
        if grid.ndim != 1 or grid.size == 0:
            raise EstimationError("eval_grid must be a nonempty 1-d array")
        if not np.all((grid >= 0.0) & (grid <= 1.0)):
            raise EstimationError("eval_grid times must lie in [0, 1]")
        if np.any(np.diff(grid) <= 0.0):
            raise EstimationError("eval_grid times must be strictly increasing")
        if self.method in ("psd_direct", "psd_factorized", "generic") and self.kernel is None:
            raise EstimationError(f"method {self.method!r} requires kernel parameters")

    @property
    def effective_l(self) -> int:
        return self.m if self.l is None else self.l


def _direct_at(coeffs: FourierCoefficients, c: PSDFunction, times: np.ndarray) -> np.ndarray:
    if coeffs.order != c.m:
        raise EstimationError(
            f"weight table covers [-{2 * c.m}, {2 * c.m}] but the Fourier sums "
            f"were built at cutoff {coeffs.order}"
        )
    u = np.arange(-c.m, c.m + 1)
    g = np.exp(2j * np.pi * times[:, None] * u)[:, :, None] * coeffs.tables.T  # (G, 2m+1, d)
    return (np.swapaxes(g, 1, 2) @ c.toeplitz() @ np.conj(g)).real


def _factorized_at(coeffs: FourierCoefficients, mu: SpectralMeasure, times: np.ndarray) -> np.ndarray:
    """B^T B with B[g, q, j] = sqrt(w_q) sum_{|s| <= m} e^{2 pi i s (t_g + y_q)} a_j(s).

    The phase splits as e^{2 pi i s t} e^{2 pi i s y}, so the sum over s is
    one batched product of the atom phases with the time-shifted sums.
    """
    m = coeffs.order
    s_pos = np.arange(1, m + 1)
    shift = np.exp(2j * np.pi * np.outer(mu.atoms, s_pos))  # (Q, m)
    at_t = np.exp(2j * np.pi * times[:, None] * s_pos)[:, :, None] * coeffs.tables[:, m + 1:].T
    smooth = coeffs.tables[:, m].real + 2.0 * (shift @ at_t).real  # (G, Q, d)
    b = np.sqrt(mu.weights)[:, None] * smooth
    v = np.swapaxes(b, 1, 2) @ b
    # mirror the upper triangle so entry (j, j') and (j', j) are the same float
    return np.triu(v) + np.swapaxes(np.triu(v, 1), 1, 2)


def _classical_lags(inc: IncrementTable, m: int, l: int) -> np.ndarray:
    """The classical form's lag stack w_k R(k) for |k| <= l, shape (2l+1, d, d).

    The sums come from one table at order m + l, whose order-m slice is the
    order-m table bit for bit; R is one gather and one batched product.
    """
    a = fourier_coefficients(inc, m + l).tables  # a[j, s + m + l] = a_j(s)
    k = np.arange(-l, l + 1)
    shifted = a.T[k[:, None] - np.arange(-m, m + 1) + m + l]  # [k, u, j] = a_j(k - u)
    shifted *= ((1.0 - np.abs(k) / (l + 1)) / (2 * m + 1))[:, None, None]  # w_k
    return np.swapaxes(shifted, 1, 2) @ a[:, l:l + 2 * m + 1].T  # w_k R(k), summed over |u| <= m


def _classical_at(lagged: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Re sum_{|k| <= l} e^{2 pi i k t} w_k R(k) from the stack of ``_classical_lags``."""
    l = lagged.shape[0] // 2
    phase = np.exp(2j * np.pi * times[:, None] * np.arange(-l, l + 1))  # (G, 2l+1)
    # one matvec per time (not one gemm) so each time sums in the same order
    v = (phase[:, None, :] @ lagged.reshape(2 * l + 1, -1))[:, 0]
    return v.real.reshape(times.size, *lagged.shape[1:])


def _generic_at(inc: IncrementTable, spec: GenericSpec, t: float) -> np.ndarray:
    assets = inc.assets
    d = len(assets)
    raw = np.empty((d, d), dtype=complex)
    for j in range(d):
        tj, dxj = assets[j].times, assets[j].dx
        for jp in range(d):
            tp, dxp = assets[jp].times, assets[jp].dx
            acc = 0.0 + 0.0j
            for k in spec.frequencies:
                ck = complex(spec.coeffs[k])
                if ck == 0.0:
                    continue
                inner = 0.0 + 0.0j
                for s, sp in spec.fiber[k]:
                    left = np.exp(-2j * np.pi * s * tj) @ dxj
                    right = np.exp(-2j * np.pi * sp * tp) @ dxp
                    inner += left * right
                acc += ck * np.exp(2j * np.pi * k * t) * inner
            raw[j, jp] = acc
    scale = float(np.max(np.abs(raw)))
    residue = float(np.max(np.abs(raw.imag)))
    if residue > IMAG_RESIDUE_RTOL * max(scale, 1e-300):
        warnings.warn(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_RTOL:.0e} of the "
            f"entry scale {scale:.3e}; the weight table is likely not Hermitian",
            RuntimeWarning,
            stacklevel=3,
        )
    return raw.real


def estimate_generic(inc: IncrementTable, spec: GenericSpec, t: float) -> VolMatrix:
    """Reference evaluation of the generic estimator at one time.

    Sums weight * phase * (sum_l e^{-2 pi i s t^j_l} dX^j_l)
    (sum_{l'} e^{-2 pi i s' t^{j'}_{l'}} dX^{j'}_{l'}) over every frequency
    and fiber pair, recomputing the inner sums for each pair (no table
    reuse). Intended for tests and small inputs; the real part is returned
    and a warning is emitted when the imaginary residue is large.
    """
    t = _check_time(t)
    if spec.coeffs is None:
        raise EstimationError("generic spec carries no weight table; call with_coeffs first")
    return VolMatrix(t=t, entries=_generic_at(inc, spec, t))


def estimate_classical(inc: IncrementTable, m: int, l: int | None, t: float) -> VolMatrix:
    """Kernel-product estimator with time smoothing K_{l+1} and cutoff m.

    ``l`` defaults to ``m``. The output is not symmetric in general: the
    time-smoothing kernel attaches to the row asset's ticks only.
    """
    t = _check_time(t)
    if not is_positive_int(m):
        raise EstimationError("cutoff must be a positive integer")
    l_eff = m if l is None else l
    if not is_positive_int(l_eff):
        raise EstimationError("smoothing order must be a positive integer")
    return VolMatrix(t=t, entries=_classical_at(_classical_lags(inc, m, l_eff), np.array([t]))[0])


def estimate_psd_direct(inc: IncrementTable, c: PSDFunction, t: float) -> VolMatrix:
    """PSD estimator from a Hermitian weight table (double frequency sum)."""
    t = _check_time(t)
    coeffs = fourier_coefficients(inc, c.m)
    return VolMatrix(t=t, entries=_direct_at(coeffs, c, np.array([t]))[0])


def estimate_psd_factorized(inc: IncrementTable, mu: SpectralMeasure, m: int, t: float) -> VolMatrix:
    """PSD estimator factorized through a nonnegative measure (quadrature sum).

    Rank of the output is at most min(d, number of atoms); the matrix is
    exactly symmetric and positive semi-definite up to rounding.
    """
    t = _check_time(t)
    if not is_positive_int(m):
        raise EstimationError("cutoff must be a positive integer")
    coeffs = fourier_coefficients(inc, m)
    return VolMatrix(t=t, entries=_factorized_at(coeffs, mu, np.array([t]))[0])


def estimate_path(obs: ObservationSet, config: EstimatorConfig) -> VolPath:
    """Apply the configured estimator across the evaluation grid.

    Per-path work (increments, Fourier sums, measure, the classical lag stack)
    is done once. The fast forms then evaluate the grid in blocks of
    ``GRID_BLOCK`` times, bounding the per-block tables (the classical form
    costs O(L d^2) per time); the generic reference runs one time at a time.
    Each pointwise estimator is the one-time block, so a path equals its
    pointwise evaluations bit for bit.
    """
    inc = increments(obs)
    m, grid = config.m, config.eval_grid
    if config.method == "generic":
        spec = generic_spec_from_psd(c_from_measure(make_measure(config.kernel, m), m))
        matrices = np.stack([_generic_at(inc, spec, t) for t in grid])
    else:
        if config.method == "classical":
            form, args = _classical_at, (_classical_lags(inc, m, config.effective_l),)
        elif config.method == "psd_direct":
            form, args = _direct_at, (fourier_coefficients(inc, m),
                                      c_from_measure(make_measure(config.kernel, m), m))
        else:
            form, args = _factorized_at, (fourier_coefficients(inc, m), make_measure(config.kernel, m))
        matrices = np.empty((grid.size, inc.d, inc.d))
        for start in range(0, grid.size, GRID_BLOCK):
            matrices[start:start + GRID_BLOCK] = form(*args, grid[start:start + GRID_BLOCK])
    return VolPath(times=grid.copy(), matrices=matrices, asset_ids=obs.asset_ids, config=config)


def write_vol_csv(path: VolPath, file) -> None:
    """Serialize a path as CSV: t plus the row-major upper triangle V_i_j."""
    d = path.d
    header = ["t"] + [f"V_{i + 1}_{j + 1}" for i in range(d) for j in range(i, d)]
    iu, ju = np.triu_indices(d)
    with open(file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t, mat in zip(path.times, path.matrices):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in mat[iu, ju]])


def read_vol_csv(file) -> VolPath:
    """Load a path written by ``write_vol_csv``, mirroring the upper triangle."""
    with open(file, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "t":
            raise EstimationError(f"{file}: expected a header starting with 't'")
        k = len(header) - 1
        d = int((np.sqrt(8 * k + 1) - 1) / 2)
        if d * (d + 1) != 2 * k:
            raise EstimationError(f"{file}: {k} matrix columns do not form an upper triangle")
        expected = ["t"] + [f"V_{i + 1}_{j + 1}" for i in range(d) for j in range(i, d)]
        if header != expected:
            raise EstimationError(f"{file}: unexpected header {header}")
        times = []
        mats = []
        iu, ju = np.triu_indices(d)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != k + 1:
                raise EstimationError(f"{file}:{lineno}: expected {k + 1} columns")
            vals = np.array([float(x) for x in row])
            if not np.all(np.isfinite(vals)):
                raise EstimationError(f"{file}:{lineno}: non-finite time or matrix entry")
            times.append(vals[0])
            mat = np.zeros((d, d))
            mat[iu, ju] = vals[1:]
            mat[ju, iu] = vals[1:]
            mats.append(mat)
    if not times:
        raise EstimationError(f"{file}: no data rows")
    ids = tuple(f"A{i + 1}" for i in range(d))
    return VolPath(times=np.array(times), matrices=np.stack(mats), asset_ids=ids, config=None)
