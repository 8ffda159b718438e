"""Fourier spot-volatility estimators.

Four estimators of the instantaneous covariance matrix V(t) from per-asset
increment series, all built from windowed Fourier sums of the increments:

* ``estimate_generic``      reference form: an explicit sum over a mirrored
  fiber of frequency pairs, checked once by ``GenericSpec``, weighted by a
  ``PSDFunction``, Hermitian by construction, so the sum is real. Quadratic
  in the tick counts; kept for tests and benchmarks.
* ``estimate_classical``    kernel-product form
  (1/(2M+1)) sum_{l,l'} K_{L+1}(t - t^j_l) D_M(t^j_l - t^{j'}_{l'}) dX dX',
  evaluated as the Fejér sum Re sum_{|k|<=L} e^{2 pi i k t} w_k R(k) of the
  convolution R_{jj'}(k) = sum_{|u|<=M} a_j(k - u) a_{j'}(u) of the price
  Fourier sums (Malliavin & Mancino 2009), w_k = (1 - |k|/(L+1)) / (2M+1):
  O((M+L) sum_j N_j + L M d^2) once per path, O(L d^2) per time. Not
  symmetric in general, hence unsuitable for eigenanalysis.
* ``estimate_psd_direct``   double frequency sum
  Re sum_{u,u'} c(u - u') g_j(u) conj(g_{j'}(u')), g_j(u) = e^{2 pi i u t} a_j(u),
  with a Hermitian PSD weight table c; output is PSD with eigenvalues above
  -1e-10 * trace. Evaluated as the real form h^T S h: g(-u) = conj(g(u)),
  so h stacks a_j(0) with Re and Im of g_j(u) for u = 1..M, and S is the
  Toeplitz matrix of c with its mirrored rows and columns folded.
  (2M+1)^2 d + (2M+1) d^2 real multiply-adds per time.
* ``estimate_psd_factorized``  quadrature form
  sum_q w_q S_j(t, y_q) S_{j'}(t, y_q) over a nonnegative measure; exactly
  symmetric (each entry computed once), PSD, and fast: after an
  O(M sum_j N_j) precomputation each time point costs O(Q (M d + d^2)).
  Evaluated as b^T b with b = Phi h, the same real stack h as the direct
  form and the real (Q, 2M+1) rows Phi of the measure, with Phi^T Phi = S
  up to rounding: Q (2M+1) d + Q d^2 multiply-adds per time.

The per-asset Fourier sums a_j(s) = sum_l e^{-2 pi i s t^j_l} dX^j_l are
precomputed once per path and shared by every form except the generic
reference. ``fourier_coefficients`` returns them up to order M as one
complex (d, 2M+1) array a, laid out as a[j, s + M] = a_j(s). They are
built by baby-step/giant-step products (Paterson &
Stockmeyer 1973): with z = e^{-2 pi i t^j_l} and s = kB + r, a_j(s) is
entry r of Z P[k], the baby steps Z[r] = z^r times the giant step
P[k] = dX z^{kB}, over chunks of at most ``CHUNK`` ticks. Short assets share
a chunk, so the exp, the baby steps and each giant step are one call per
chunk, not per asset; the matrix-vector products stay one per asset and
giant step. The pass is O(M sum_j N_j) multiply-adds, mostly inside those
products, in O(B CHUNK) memory. The error at order s is
O(s eps sum_l |dX^j_l|), the same order as an exact exp, whose phase
2 pi s t already carries O(s eps) rounding.

Every estimator takes one route, ``_on_grid``: each form takes its
estimator's public inputs, does its per-path work once (its checks, the
Fourier sums, the classical lag stack, the folded table S or the rows Phi,
and the psd forms' work arrays), and evaluates the times in blocks of
``GRID_BLOCK``. ``estimate_path`` only chooses a form and its inputs, and a
pointwise estimator hands the same form its one time, so a path equals its
pointwise evaluations bit for bit. Both psd forms share one per-path core,
``_stacker``: it builds the Fourier sums, the real stack h, one product
scratch and the first product S h or Phi h, all in work arrays made once per
path, so the forms allocate nothing per block. The direct form keeps only S
and h^T (S h); the factorized form keeps only Phi, b^T b and its triangle
mirror. The second product is written straight into the path's matrices.
S and Phi are C-contiguous, so BLAS reads them in place. A path, or a
pointwise value, with a non-finite matrix raises ``EstimationError``, and so
does one whose matrices underflow below the smallest normal double. Every
time axis here, a grid, a path's times or one time, follows
``market_data.require_times`` and breaks it with an ``EstimationError``.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .kernels import (
    KernelParams,
    PSDFunction,
    SpectralMeasure,
    c_from_measure,
    make_measure,
    require_count,
)
from .market_data import (IncrementTable, ObservationSet, floats, increments, read_rows,
                          require_times, require_unique_ids, write_rows)

METHODS = ("generic", "classical", "psd_direct", "psd_factorized")
KERNEL_METHODS = ("generic", "psd_direct", "psd_factorized")  # weights come from a measure

GRID_BLOCK = 32  # evaluation times per block in estimate_path
B = 8  # baby steps z^0..z^{B-1} per tick in fourier_coefficients
CHUNK = 4096  # ticks per chunk in fourier_coefficients


class EstimationError(ValueError):
    """Raised when an estimator is configured or applied inconsistently."""


def _require_finite(times, matrices: np.ndarray) -> None:
    """Raise ``EstimationError`` at the first of ``times`` whose matrix is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        screen = np.sum(matrices)  # one pass, no temporary; finite entries can overflow it too
    if not np.isfinite(screen):
        finite = np.isfinite(matrices).all(axis=(1, 2))
        if not finite.all():
            raise EstimationError(f"non-finite volatility matrix at t={times[np.argmin(finite)]}")


@dataclass(frozen=True)
class GenericSpec:
    """Fiber of frequency pairs and weight table, checked once so the generic estimator is real.

    ``fiber[k]`` holds the pairs (s, s') with s + s' = k summed at frequency
    k, and ``fiber[-k]`` their negations. ``table`` gives each frequency its
    weight c(k); as a ``PSDFunction`` it is finite and Hermitian, and it
    covers every key of the fiber.
    """

    fiber: Mapping[int, tuple[tuple[int, int], ...]]
    table: PSDFunction

    def __post_init__(self) -> None:
        for k, pairs in self.fiber.items():
            for s, sp in pairs:
                if s + sp != k:
                    raise EstimationError(f"fiber pair ({s}, {sp}) does not sum to {k}")
            if abs(k) > 2 * self.table.m:
                raise EstimationError(f"weight table must cover every frequency: k={k} lies "
                                      f"outside [-{2 * self.table.m}, {2 * self.table.m}]")
            mirror = sorted((-s, -sp) for s, sp in pairs)
            if -k not in self.fiber or sorted(self.fiber[-k]) != mirror:
                raise EstimationError(f"fiber is not mirrored: fiber[{-k}] must hold the "
                                      f"negated pairs of fiber[{k}]")


def build_fiber(m: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Fiber over {-2m, ..., 2m} whose estimator is positive semi-definite.

    For k >= 0 the pairs are (-m + k + v, m - v) for v = 0..2m-k, and for
    k < 0 they are (m + k - v, -m + v) for v = 0..2m+k, so |fiber[k]| is
    2m + 1 - |k| and every component lies in [-m, m].
    """
    require_count("cutoff", m, EstimationError)
    fiber: dict[int, tuple[tuple[int, int], ...]] = {}
    for k in range(-2 * m, 2 * m + 1):
        if k >= 0:
            pairs = tuple((-m + k + v, m - v) for v in range(2 * m - k + 1))
        else:
            pairs = tuple((m + k - v, -m + v) for v in range(2 * m + k + 1))
        fiber[k] = pairs
    return fiber


def generic_spec_from_psd(c: PSDFunction) -> GenericSpec:
    """The PSD fiber at the table's cutoff, weighted by the table itself."""
    return GenericSpec(build_fiber(c.m), c)


def fourier_coefficients(inc: IncrementTable, order: int) -> np.ndarray:
    """Compute a_j(s) = sum_l e^{-2 pi i s t^j_l} dX^j_l for every asset and |s| <= order.

    Returns the complex (d, 2 order + 1) array a with a[j, s + order] = a_j(s),
    one row per asset of ``inc``. Real increments give the conjugate symmetry
    a_j(-s) = conj(a_j(s)), which is exact here: the negative half is the
    conjugate mirror of s = 0..order.

    Baby-step/giant-step products (Paterson & Stockmeyer 1973): with
    z_l = e^{-2 pi i t^j_l} and s = kB + r, the baby steps Z[r] = z^r
    (r < B) and the giant steps P[k] = dX z^{kB} give a_j(kB + r) as entry r
    of the matrix-vector product Z P[k], one product per giant step. Both are
    power recurrences, so the error at order s is O(s eps sum_l |dX^j_l|),
    the order of an exact exp, whose phase 2 pi s t carries O(s eps)
    rounding. Ticks go in chunks of at most ``CHUNK`` (``_chunks``): whole
    assets of 2 to ``CHUNK`` ticks share a chunk, and a longer asset is split
    every ``CHUNK`` ticks into chunks of its own. A chunk takes one exp, one
    baby-step fill and one z^B, and each giant step one scaling of its P;
    each asset of the chunk then takes its own product Z P[k] on its columns,
    which gives the bits of its own single-asset table. Every chunk's baby
    steps fill one array made once per call, so memory is O(B CHUNK); no
    (order+1) x N_j exp table is built. Each giant step is its own product,
    never one gemm over all of them, so a table's first entries do not
    depend on its order: the order-m slice of a larger table is the order-m
    table bit for bit.
    """
    require_count("order", order, EstimationError)
    giant = -(-(order + 1) // B)  # ceil((order + 1) / B)
    a = np.empty((inc.d, 2 * order + 1), dtype=complex)
    acc = np.zeros((inc.d, giant, B), dtype=complex)  # acc[j, k, r] = a_j(kB + r)
    chunks = _chunks([asset.times.size for asset in inc.assets])
    work = np.empty(B * max(chunk[-1][2].stop for chunk in chunks), dtype=complex)  # baby steps
    for chunk in chunks:
        parts = [(inc.assets[j], ticks) for j, ticks, _ in chunk]
        z = np.exp(-2j * np.pi * np.concatenate([asset.times[ticks] for asset, ticks in parts]))
        p = np.concatenate([asset.dx[ticks] for asset, ticks in parts], dtype=complex)
        baby = work[:B * z.size].reshape(B, z.size)
        baby[0] = 1.0
        for r in range(1, B):
            np.multiply(baby[r - 1], z, out=baby[r])
        step = baby[B - 1] * z  # z^B
        views = [(acc[j], baby[:, cols], p[cols]) for j, _, cols in chunk]  # p is scaled in place
        for k in range(giant):
            for acc_j, baby_j, p_j in views:
                acc_j[k] += baby_j @ p_j
            p *= step
    # a row at a time: one whole-array write here left perfbench's intraday-grid
    # at a peak RSS of 78.3 MB against 73.6 MB, by where the heap placed later arrays
    for j in range(inc.d):
        pos = a[j, order:]
        pos[:] = acc[j].ravel()[:order + 1]
        a[j, :order] = np.conj(pos[1:])[::-1]
    return a


def _chunks(sizes: list[int]) -> list[list[tuple[int, slice, slice]]]:
    """The chunks of ``fourier_coefficients``, each a list of pieces (j, ticks, cols).

    A piece puts the ticks ``ticks`` of asset j in the columns ``cols`` of its
    chunk. Whole assets of 2 to ``CHUNK`` ticks share a chunk, in their listed
    order, while their ticks fit in ``CHUNK``. A longer asset takes chunks of
    its own, split every ``CHUNK`` ticks. So does an asset of one tick: its
    (B, 1) product on a column of a shared chunk takes another BLAS route
    than on its own array, and gives other bits.
    """
    chunks, shared, fill = [], [], 0
    for j, n in enumerate(sizes):
        alone = n == 1 or n > CHUNK
        if shared and (alone or fill + n > CHUNK):
            chunks.append(shared)
            shared, fill = [], 0
        if alone:
            chunks += [[(j, slice(lo, lo + CHUNK), slice(0, min(CHUNK, n - lo)))]
                       for lo in range(0, n, CHUNK)]
        else:
            shared.append((j, slice(0, n), slice(fill, fill + n)))
            fill += n
    return chunks + [shared] if shared else chunks


@dataclass(frozen=True)
class VolMatrix:
    """Estimated finite square matrix at one time that ``require_times`` accepts."""

    t: float
    entries: np.ndarray  # (d, d)

    def __post_init__(self) -> None:
        require_times([self.t], EstimationError)
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise EstimationError(f"matrix has shape {entries.shape}, expected a square 2-d array")
        _require_finite([self.t], entries[None])


@dataclass(frozen=True)
class VolPath:
    """Estimated finite matrices, over times that ``require_times`` accepts and unique asset ids."""

    times: np.ndarray
    matrices: np.ndarray  # (n, d, d)
    asset_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        times = require_times(self.times, EstimationError)
        matrices = np.asarray(self.matrices, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", matrices)
        require_unique_ids(self.asset_ids, EstimationError)
        d = len(self.asset_ids)
        if matrices.shape != (times.size, d, d):
            raise EstimationError(
                f"matrix block has shape {matrices.shape}, expected {(times.size, d, d)}"
            )
        _require_finite(times, matrices)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def d(self) -> int:
        return len(self.asset_ids)


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selection and parameters for path estimation.

    m is the frequency cutoff (Dirichlet order). l is the classical
    estimator's smoothing order and defaults to m. kernel selects the
    smoothing measure for the PSD methods (and the generic reference, whose
    weights are the transform of that measure). A method given a parameter
    it does not use is rejected.
    """

    method: str
    eval_grid: np.ndarray
    m: int = 15
    l: int | None = None
    kernel: KernelParams | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise EstimationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        require_count("cutoff", self.m, EstimationError)
        if self.l is not None:
            require_count("smoothing order", self.l, EstimationError)
        object.__setattr__(self, "eval_grid", require_times(self.eval_grid, EstimationError))
        if self.method in KERNEL_METHODS and self.kernel is None:
            raise EstimationError(f"method {self.method!r} requires kernel parameters")
        if self.method not in KERNEL_METHODS and self.kernel is not None:
            raise EstimationError(f"method {self.method!r} takes no kernel parameters")
        if self.method != "classical" and self.l is not None:
            raise EstimationError(f"method {self.method!r} takes no smoothing order l")


def _on_grid(form, args, times) -> np.ndarray:
    """V at each of ``times``, evaluated in blocks of ``GRID_BLOCK`` times: the one block loop.

    ``form(*args, block)`` takes its estimator's inputs, the increment table
    first, and does the form's per-path work for blocks of up to ``block``
    times: its checks, the Fourier sums, its table and, for the psd forms,
    their work arrays. It returns ``at(times, out)``, which writes V at each
    time of one block into ``out``. The blocks are written straight into the
    returned array, and each is screened as it is written by its per-time
    max and min, for ``_require_normal``.

    Increments near the end of the double range overflow V, so numpy's
    overflow warnings are off here. A non-finite matrix is returned as it
    comes: the ``VolPath`` or ``VolMatrix`` built from the matrices rejects it.
    """
    times, inc = require_times(times, EstimationError), args[0]
    n = times.size
    top = np.empty(n)  # max|V| per time
    with np.errstate(over="ignore", invalid="ignore"):
        at = form(*args, min(GRID_BLOCK, n))
        # after the form's arrays, so freeing those leaves no heap top to trim
        out = np.empty((n, inc.d, inc.d))
        for start in range(0, n, GRID_BLOCK):
            rows = slice(start, start + GRID_BLOCK)
            at(times[rows], out[rows])
            np.maximum(out[rows].max(axis=(1, 2)), -out[rows].min(axis=(1, 2)), out=top[rows])
        _require_normal(inc, times, top)  # its comparisons may meet a nan
    return out


def _require_normal(inc: IncrementTable, times: np.ndarray, top: np.ndarray) -> None:
    """Raise ``EstimationError`` at the first time whose matrix underflowed; ``top`` is max|V|.

    A matrix underflowed where max|V| is positive but below the smallest
    normal double, at a time before any non-finite one (``VolPath`` names
    that); or at the first time, when every matrix is 0 while the largest
    |increment| is positive but its square is below the smallest normal
    double. Exact zeros from increments whose squares are normal are kept:
    a constant panel, a zero weight table, or a lone increment seen at a zero
    of the Fejér kernel. The message names the asset with the largest |increment|.
    """
    tiny = np.finfo(float).tiny
    i = int(np.argmax((top != 0.0) & ~((top >= tiny) & (top < np.inf))))  # subnormal or non-finite
    if not (0.0 < top[i] < tiny or not top.any()):
        return
    sizes = [float(np.max(np.abs(asset.dx), initial=0.0)) for asset in inc.assets]
    j = int(np.argmax(sizes))
    if top.any():
        why = f"max|V| = {top[i]:.3e} is below the smallest normal double {tiny:.3e}"
    elif 0.0 < sizes[j] < np.sqrt(tiny):
        why = f"every matrix is 0 and the largest |increment| squared is below {tiny:.3e}"
    else:
        return
    raise EstimationError(f"volatility matrix underflows at t={times[i]}: {why}; the largest "
                          f"|increment| is {sizes[j]:.3e}, of asset {inc.assets[j].asset_id!r}")


def _stacker(inc: IncrementTable, m: int, table: np.ndarray, block: int):
    """The psd forms' per-path core: stack(times) returns (h, table @ h) for up to ``block`` times.

    h = [a(0); Re g(1..m); Im g(1..m)], shape (G, 2m+1, d), is the real stack
    of g_j(u) = e^{2 pi i u t_g} a_j(u) over the order-m Fourier sums. Real
    increments give g(-u) = conj(g(u)), so h holds every g_j(u), |u| <= m.
    With c + i s = e^{2 pi i u t}, Re g = c Re a - s Im a and
    Im g = c Im a + s Re a, from real products: numpy's complex multiply
    picks a fused or a plain loop by operand layout, so a time would get
    different bits in blocks of different sizes. Each product is an
    ``einsum`` that broadcasts a block's phases across the assets, written
    into h or one (block, m, d) scratch with ``out=``; the IEEE operations
    and their order are those of the two expressions above, so a time gets
    the same bits in any block.

    The Fourier sums, Re and Im of a(1..m), h (with h[:, 0] = a(0) written
    once), the scratch and the first product, (block, rows of table, d), are
    made here once per path and every block reuses them. The first product
    is one ``matmul`` per time, not one over the block, so a time sums alike
    in any block.
    """
    coeffs = fourier_coefficients(inc, m)
    a = coeffs[:, m + 1:].T  # (m, d)
    a_re, a_im = a.real.copy(), a.imag.copy()
    h = np.empty((block, 2 * m + 1, inc.d))
    h[:, 0] = coeffs[:, m].real
    scratch = np.empty((block, m, inc.d))
    th = np.empty((block, table.shape[0], inc.d))

    def stack(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phase = np.exp(2j * np.pi * times[:, None] * np.arange(1, m + 1))  # (G, m)
        n = times.size
        c, s, re, im, tmp = phase.real, phase.imag, h[:n, 1:m + 1], h[:n, m + 1:], scratch[:n]
        np.einsum("gu,uj->guj", c, a_re, out=re)  # Re g = c Re a - s Im a
        np.einsum("gu,uj->guj", c, a_im, out=im)  # Im g = c Im a + s Re a
        np.subtract(re, np.einsum("gu,uj->guj", s, a_im, out=tmp), out=re)
        np.add(im, np.einsum("gu,uj->guj", s, a_re, out=tmp), out=im)
        return h[:n], np.matmul(table, h[:n], out=th[:n])

    return stack


def _folded_toeplitz(c: PSDFunction) -> np.ndarray:
    """The real symmetric S = Re(W^T T conj(W)), (2m+1, 2m+1), of ``_direct_form``, C-contiguous.

    g = W h is the fixed complex map from the real stack h of ``_stacker``
    to g(u), |u| <= m, and T[u, u'] = c(u - u'). S is T with its mirrored
    rows and columns folded, an O(m^2) gather. The real part of the complex
    fold is a strided view, so S is copied out once here and every block's
    S h gets a BLAS-ready operand.
    """
    m = c.m

    def fold(x):  # W^T x: rows u = 0, u + (-u) and i (u - (-u)) for u = 1..m
        pos, neg = x[m + 1:], x[m - 1::-1]
        return np.concatenate([x[m:m + 1], pos + neg, 1j * (pos - neg)])

    return np.ascontiguousarray(fold(fold(c.toeplitz()).conj().T).real.T)


def _direct_form(inc: IncrementTable, c: PSDFunction, block: int):
    """Re g^T T conj(g) with g_j(u) = e^{2 pi i u t} a_j(u), T[u, u'] = c(u - u'), as a real form.

    The Fourier sums and S = ``_folded_toeplitz(c)`` both come from the one
    table c, at its cutoff. With the real stack h and S h from ``_stacker``,
    V = h^T (S h) exactly, written straight into the path's matrices. Each
    time costs two real products, (2m+1)^2 d + (2m+1) d^2 multiply-adds, a
    quarter of the complex form's.
    """
    stack = _stacker(inc, c.m, _folded_toeplitz(c), block)

    def at(times: np.ndarray, out: np.ndarray) -> None:
        h, sh = stack(times)
        np.matmul(np.swapaxes(h, 1, 2), sh, out=out)

    return at


def _quadrature_rows(mu: SpectralMeasure, m: int) -> np.ndarray:
    """Phi[q] = sqrt(w_q) [1, 2 cos(2 pi u y_q), -2 sin(2 pi u y_q)] for u = 1..m, shape (Q, 2m+1).

    Phi h is the smoothed sum of ``_factorized_form``, and Phi^T Phi is, up
    to rounding, the folded table S of ``_direct_form`` for
    c = c_from_measure(mu, m).
    """
    shift = np.exp(2j * np.pi * np.outer(mu.atoms, np.arange(1, m + 1)))  # (Q, m)
    rows = np.hstack([np.ones((mu.atoms.size, 1)), 2.0 * shift.real, -2.0 * shift.imag])
    return np.sqrt(mu.weights)[:, None] * rows


def _factorized_form(inc: IncrementTable, mu: SpectralMeasure, m: int, block: int):
    """b^T b with b[g, q, j] = sqrt(w_q) sum_{|s| <= m} e^{2 pi i s (t_g + y_q)} a_j(s).

    The phase splits as e^{2 pi i s t} e^{2 pi i s y}, and the sum over s is
    real, so b = Phi h: the rows Phi of ``_quadrature_rows`` times the real
    stack h, the first product of ``_stacker``. b^T b is written straight
    into the path's matrices, and its upper triangle is mirrored there in
    place, so the output is exactly symmetric whichever product numpy picks.
    """
    require_count("cutoff", m, EstimationError)
    stack = _stacker(inc, m, _quadrature_rows(mu, m), block)

    def at(times: np.ndarray, out: np.ndarray) -> None:
        b = stack(times)[1]
        np.matmul(np.swapaxes(b, 1, 2), b, out=out)
        # mirror the upper triangle in place, a row at a time, so entry (j, j') and (j', j)
        # are the same float
        for j in range(1, inc.d):
            out[:, j, :j] = out[:, :j, j]

    return at


def _classical_form(inc: IncrementTable, m: int, l: int | None, block: int):
    """Re sum_{|k| <= l} e^{2 pi i k t} w_k R(k), from the lag stack w_k R(k) built once per path.

    The smoothing order l defaults to the cutoff m. The sums come from one
    table at order m + l, whose order-m slice is the order-m table bit for
    bit; the lag stack, |k| <= l, is one gather and one batched product.
    """
    require_count("cutoff", m, EstimationError)
    l = m if l is None else l
    require_count("smoothing order", l, EstimationError)
    a = fourier_coefficients(inc, m + l)  # a[j, s + m + l] = a_j(s)
    k = np.arange(-l, l + 1)
    shifted = a.T[k[:, None] - np.arange(-m, m + 1) + m + l]  # [k, u, j] = a_j(k - u)
    shifted *= ((1.0 - np.abs(k) / (l + 1)) / (2 * m + 1))[:, None, None]  # w_k
    lagged = np.swapaxes(shifted, 1, 2) @ a[:, l:l + 2 * m + 1].T  # w_k R(k), summed over |u| <= m

    def at(times: np.ndarray, out: np.ndarray) -> None:
        phase = np.exp(2j * np.pi * times[:, None] * k)  # (G, 2l+1)
        # one matvec per time (not one gemm) so each time sums in the same order
        v = (phase[:, None, :] @ lagged.reshape(2 * l + 1, -1))[:, 0]
        out[...] = v.real.reshape(out.shape)

    return at


def _generic_form(inc: IncrementTable, spec: GenericSpec, block: int):
    """``_on_grid``'s form of sum_k c_k e^{2 pi i k t} sum_{(s, s') in fiber[k]} a_j(s) a_{j'}(s').

    Each a_j(s) is its own exp sum over the ticks, and the fiber sums, which
    do not depend on t, are built once per block. Phases are accumulated over
    k elementwise, so a time sums alike in a block of any size.
    """
    assets = inc.assets
    d = len(assets)

    def at(times: np.ndarray, out: np.ndarray) -> None:
        raw = np.zeros((times.size, d, d), dtype=complex)
        for j in range(d):
            tj, dxj = assets[j].times, assets[j].dx
            for jp in range(d):
                tp, dxp = assets[jp].times, assets[jp].dx
                for k, pairs in spec.fiber.items():
                    ck = spec.table.value(k)
                    if ck == 0.0:
                        continue
                    inner = 0.0 + 0.0j
                    for s, sp in pairs:
                        left = np.exp(-2j * np.pi * s * tj) @ dxj
                        right = np.exp(-2j * np.pi * sp * tp) @ dxp
                        inner += left * right
                    raw[:, j, jp] += ck * inner * np.exp(2j * np.pi * k * times)
        out[...] = raw.real

    return at


def estimate_generic(inc: IncrementTable, spec: GenericSpec, t: float) -> VolMatrix:
    """Reference evaluation of the generic estimator at one time.

    Every fiber pair recomputes its exp sums over the ticks (no table reuse).
    Intended for tests and small inputs. ``spec`` holds a mirrored fiber and
    a Hermitian weight table, so the sum is real up to rounding; its real
    part is returned.
    """
    return VolMatrix(t=float(t), entries=_on_grid(_generic_form, (inc, spec), [t])[0])


def estimate_classical(inc: IncrementTable, m: int, l: int | None, t: float) -> VolMatrix:
    """Kernel-product estimator with time smoothing K_{l+1} and cutoff m.

    ``l`` defaults to ``m``. The output is not symmetric in general: the
    time-smoothing kernel attaches to the row asset's ticks only.
    """
    return VolMatrix(t=float(t), entries=_on_grid(_classical_form, (inc, m, l), [t])[0])


def estimate_psd_direct(inc: IncrementTable, c: PSDFunction, t: float) -> VolMatrix:
    """PSD estimator from a Hermitian weight table (double frequency sum)."""
    return VolMatrix(t=float(t), entries=_on_grid(_direct_form, (inc, c), [t])[0])


def estimate_psd_factorized(inc: IncrementTable, mu: SpectralMeasure, m: int, t: float) -> VolMatrix:
    """PSD estimator factorized through a nonnegative measure (quadrature sum).

    Rank of the output is at most min(d, number of atoms); the matrix is
    exactly symmetric and positive semi-definite up to rounding.
    """
    return VolMatrix(t=float(t), entries=_on_grid(_factorized_form, (inc, mu, m), [t])[0])


def estimate_path(obs: ObservationSet, config: EstimatorConfig) -> VolPath:
    """Apply the configured estimator across the evaluation grid.

    The increments and, for the kernel methods, the measure are built once.
    The configured form then gets its inputs and the grid through
    ``_on_grid``, the route each pointwise estimator takes with its one
    time, so a path equals its pointwise evaluations bit for bit. The form
    does its per-path work (the Fourier sums, the classical lag stack, the
    folded table S or the rows Phi, and the psd forms' work arrays) once and
    evaluates the grid in blocks of ``GRID_BLOCK`` times.
    """
    inc = increments(obs)
    m, grid = config.m, config.eval_grid
    mu = make_measure(config.kernel, m) if config.method in KERNEL_METHODS else None
    if config.method == "classical":
        form, args = _classical_form, (inc, m, config.l)
    elif config.method == "generic":
        form, args = _generic_form, (inc, generic_spec_from_psd(c_from_measure(mu, m)))
    elif config.method == "psd_direct":
        form, args = _direct_form, (inc, c_from_measure(mu, m))
    else:
        form, args = _factorized_form, (inc, mu, m)
    matrices = _on_grid(form, args, grid)
    return VolPath(times=grid.copy(), matrices=matrices, asset_ids=obs.asset_ids)


def default_asset_ids(d: int) -> tuple[str, ...]:
    """The ids A1..Ad, given to assets that come without names."""
    return tuple(f"A{i + 1}" for i in range(d))


def _vol_header(d: int) -> list[str]:
    return ["t"] + [f"V_{i + 1}_{j + 1}" for i in range(d) for j in range(i, d)]


def write_vol_csv(path: VolPath, file) -> None:
    """Serialize a path as CSV: t plus the row-major upper triangle V_i_j, read back bit for bit."""
    iu, ju = np.triu_indices(path.d)
    rows = np.column_stack([path.times, path.matrices[:, iu, ju]])
    write_rows(file, _vol_header(path.d), rows)


def read_vol_csv(file) -> VolPath:
    """Load a path written by ``write_vol_csv``, mirroring the upper triangle; ``VolPath`` checks it.

    Rows are read by ``market_data.read_rows``, under the tick reader's row rules.
    """
    with closing(read_rows(file, EstimationError)) as rows:
        header = next(rows)
        if not header or header[0] != "t":
            raise EstimationError(f"{file}: expected a header starting with 't'")
        k = len(header) - 1
        if k == 0:
            raise EstimationError(f"{file}: no matrix columns after 't'")
        d = int((np.sqrt(8 * k + 1) - 1) / 2)
        if d * (d + 1) != 2 * k:
            raise EstimationError(f"{file}: {k} matrix columns do not form an upper triangle")
        if header != _vol_header(d):
            raise EstimationError(f"{file}: unexpected header {header}")
        table = np.array([floats(file, lineno, cells, EstimationError) for lineno, cells in rows])
    if not table.size:
        raise EstimationError(f"{file}: no data rows")
    iu, ju = np.triu_indices(d)
    mats = np.zeros((len(table), d, d))
    mats[:, iu, ju] = mats[:, ju, iu] = table[:, 1:]
    try:
        return VolPath(times=table[:, 0], matrices=mats, asset_ids=default_asset_ids(d))
    except EstimationError as exc:
        raise EstimationError(f"{file}: {exc}") from exc
