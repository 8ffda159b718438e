"""Synthetic semimartingale paths with known spot volatility, plus scoring.

Paths are generated by Euler steps on an equispaced fine grid and then
sampled onto per-asset tick grids (shared uniform or independent Poisson
arrivals). Three model families cover the cases the estimators must handle:
constant covariance, sinusoidally time-varying volatility, and a low-rank
factor structure. Each has a closed-form spot volatility oracle, built from
the same law as its path: the constant models' covariance, or
``SinVolModel.vol_at`` scaled by the path's ``equicorrelation`` matrix.

Randomness comes from xoshiro256++ generators seeded through splitmix64.
Sub-streams are derived by mixing the user seed with a purpose salt and a
stream index, so asset paths, sampling arrivals, and model setup draw from
independent streams. The normals and the Poisson tick times are
bit-reproducible from (model, scheme, seed) alone on any platform; the
paths are bit-reproducible for a given numpy/BLAS build.

All the streams one call needs advance together: each state word of S
generators is one Python int with a 64-bit lane per generator, so one
xor, shift or masked rotate steps every stream at once, and the ++ output
function runs afterwards in numpy uint64. The draws equal those of
``Xoshiro256PP.next_u64``, the scalar reference, bit for bit. Normals and
Poisson gaps take their logarithms from ``math`` and Box-Muller's cosines
and sines from ``cmath.rect``, which calls libm's cos and sin as
``math.cos`` and ``math.sin`` do, not from numpy, whose vectorized
transcendentals may differ between machines. One map of each takes every
stream's draws at once. The paths then also pass through a BLAS product
(and ``np.sin`` for SinVolModel).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence, Union

import numpy as np

from .market_data import ObservationSet, TickSeries
from .estimator import VolPath, default_asset_ids
from .kernels import PSD_FLOOR_RTOL, is_positive_int, require_count, require_finite, require_scalar
from . import spectral

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SALT_MULT = 0xD1B54A32D192ED03

SALT_PATH = 1      # Brownian increments driving the fine path
SALT_SAMPLING = 2  # Poisson arrival times
SALT_MODEL = 3     # model setup draws (factor loadings)

SAMPLING_KINDS = ("sync", "poisson")  # a shared uniform grid, or per-asset Poisson arrivals
BURN = 0.1  # score leaves out the times within BURN of either end

_TWO_NEG53 = 2.0 ** -53


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit scrambler."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Xoshiro256PP:
    """xoshiro256++ with its state filled from a splitmix64 chain."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state = (state + _GOLDEN) & _MASK64
            words.append(_mix64(state))
        self._s0, self._s1, self._s2, self._s3 = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s0 + s3) & _MASK64
        result = (((x << 23) | (x >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller; pairs drawn as (u1, u2), u1 in (0, 1]."""
        return _box_muller(_lockstep_u64([self], 2 * ((n + 1) // 2)), n)[0]


def _lanes(words: Sequence[int]) -> int:
    """One int holding 64-bit words, word k in bits 64k to 64k + 63."""
    return int.from_bytes(np.array(words, dtype="<u8").tobytes(), "little")


def _lockstep_u64(rngs: Sequence[Xoshiro256PP], steps: int) -> np.ndarray:
    """The next ``steps`` outputs of every generator, as a (steps, S) uint64 array.

    Column k equals ``steps`` calls of ``rngs[k].next_u64()``, and every
    generator is left in the state those calls would leave. The state
    update needs no carries, so it runs on the packed lanes; a shift is
    masked so no bit crosses into the next lane.
    """
    nbytes = 8 * len(rngs)
    clear17 = _lanes([(_MASK64 << 17) & _MASK64] * len(rngs))
    clear45 = _lanes([(_MASK64 << 45) & _MASK64] * len(rngs))
    keep45 = _lanes([(1 << 45) - 1] * len(rngs))
    s0, s1, s2, s3 = (_lanes([getattr(g, w) for g in rngs]) for w in Xoshiro256PP.__slots__)
    out = np.empty((steps, len(rngs)), dtype=np.uint64)
    chunk = 256  # steps kept as Python ints between conversions, bounding their memory

    def unpack(records: list[int]) -> np.ndarray:
        data = b"".join([x.to_bytes(nbytes, "little") for x in records])
        return np.frombuffer(data, dtype="<u8").reshape(len(records), len(rngs))

    for start in range(0, steps, chunk):
        rec0, rec3 = [], []
        for _ in range(min(chunk, steps - start)):
            rec0.append(s0)
            rec3.append(s3)
            t = (s1 << 17) & clear17
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & clear45) | ((s3 >> 19) & keep45)
        a = unpack(rec0)
        x = a + unpack(rec3)
        out[start:start + len(rec0)] = ((x << 23) | (x >> 41)) + a
    for w, state in zip(Xoshiro256PP.__slots__, (s0, s1, s2, s3)):
        for g, word in zip(rngs, unpack([state])[0].tolist()):
            setattr(g, w, word)
    return out


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) with 53 random bits: (x >> 11) 2^-53 for each raw draw x."""
    return (raw >> 11).astype(float) * _TWO_NEG53


def _each(f, *xs: np.ndarray, dtype=float) -> np.ndarray:
    """f at every element of xs, all of one shape, which gives the same bits on every machine.

    f is a ``math`` or ``cmath`` function of as many floats as there are
    arrays. The elements go to f a row at a time, so only one row of each
    array is ever held as Python floats.
    """
    rows = zip(*(np.atleast_2d(x) for x in xs))
    values = chain.from_iterable(map(f, *(row.tolist() for row in group)) for group in rows)
    return np.fromiter(values, dtype, xs[0].size).reshape(xs[0].shape)


def _box_muller(raw: np.ndarray, n: int) -> np.ndarray:
    """The first n normals of each stream in a (steps, streams) block of raw draws, as (streams, n).

    Each stream's uniforms, in pairs (u, v) from ``_uniforms``, give the radius
    sqrt(-2 log(u + 2^-53)), an exact sum in (0, 1], and the angle 2 pi v.
    numpy does only exact conversions, single IEEE sums and products and the
    correctly rounded square root; the log is ``math``'s. ``cmath.rect``
    gives the pair (r cos(2 pi v), r sin(2 pi v)) as one complex, with libm's
    cos and sin and one product each, so viewed as floats the complex array
    already holds each stream's normals in draw order.
    """
    u, angle = _uniforms(raw[0::2].T), _uniforms(raw[1::2].T)
    del raw  # the draws are freed once the caller holds no other reference
    u += _TWO_NEG53
    r = _each(math.log, u)
    del u
    r *= -2.0
    np.sqrt(r, out=r)
    angle *= 2.0 * math.pi
    return _each(cmath.rect, r, angle, dtype=complex).view(float)[:, :n]


def _path_normals(seed: int, count: int, n: int) -> np.ndarray:
    """n normals from each of the path streams 0..count-1, as (count, n)."""
    rngs = [substream(seed, SALT_PATH, i) for i in range(count)]
    return _box_muller(_lockstep_u64(rngs, 2 * ((n + 1) // 2)), n)


def substream(seed: int, salt: int, index: int) -> Xoshiro256PP:
    """Independent generator for (seed, salt, index), derived by seed mixing."""
    mixed = _mix64((seed & _MASK64) ^ (((index + 1) * _GOLDEN) & _MASK64) ^ ((salt * _SALT_MULT) & _MASK64))
    return Xoshiro256PP(mixed)


@dataclass(frozen=True)
class ConstCorrModel:
    """Martingale with constant spot covariance matrix."""

    covariance: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "covariance", cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
            raise ValueError("covariance must be a nonempty square matrix")
        require_finite("covariance", cov)
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(cov))))):
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals[0] < -PSD_FLOOR_RTOL * max(eigvals[-1], 1.0):
            raise ValueError(f"covariance is not positive semi-definite (min eigenvalue {eigvals[0]:.3e})")

    @property
    def d(self) -> int:
        return int(self.covariance.shape[0])


@dataclass(frozen=True)
class SinVolModel:
    """Per-asset volatility a_i + b_i sin(2 pi t) with common Brownian correlation rho."""

    base: np.ndarray   # a_i
    swing: np.ndarray  # b_i
    corr: float

    def __post_init__(self) -> None:
        base = np.atleast_1d(np.asarray(self.base, dtype=float))
        swing = np.atleast_1d(np.asarray(self.swing, dtype=float))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "swing", swing)
        if base.shape != swing.shape or base.ndim != 1 or base.size == 0:
            raise ValueError("base and swing must be nonempty 1-d arrays of equal length")
        require_scalar("corr", self.corr)
        for name, value in (("base", base), ("swing", swing), ("corr", self.corr)):
            require_finite(name, value)
        if np.any(swing < 0.0) or np.any(base - swing <= 0.0):
            raise ValueError("need a_i > b_i >= 0 so volatility stays positive")
        d = base.size
        if d > 1 and not (-1.0 / (d - 1) <= self.corr <= 1.0):
            raise ValueError(f"corr={self.corr} does not give a valid correlation matrix for d={d}")

    @property
    def d(self) -> int:
        return int(self.base.size)

    def vol_at(self, t: float) -> np.ndarray:
        return self.base + self.swing * math.sin(2.0 * math.pi * t)


@dataclass(frozen=True)
class FactorModel:
    """Low-rank diffusion: d log-prices driven by r factors plus idiosyncratic noise."""

    loadings: np.ndarray  # (d, r)
    idio: float

    def __post_init__(self) -> None:
        loadings = np.asarray(self.loadings, dtype=float)
        object.__setattr__(self, "loadings", loadings)
        if loadings.ndim != 2 or loadings.shape[0] < 1 or loadings.shape[1] < 1:
            raise ValueError("loadings must be a (d, r) matrix")
        require_finite("loadings", loadings)
        require_scalar("idio", self.idio)
        if not (math.isfinite(self.idio) and self.idio >= 0.0):
            raise ValueError(f"idio must be finite and nonnegative, got {self.idio!r}")

    @property
    def d(self) -> int:
        return int(self.loadings.shape[0])

    @property
    def r(self) -> int:
        return int(self.loadings.shape[1])


SimModel = Union[ConstCorrModel, SinVolModel, FactorModel]


def equicorrelation(d: int, rho: float) -> np.ndarray:
    """The d x d correlation matrix (1 - rho) I + rho 11^T: every pair correlated rho."""
    return (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))


def random_loadings(d: int, r: int, seed: int) -> np.ndarray:
    """Deterministic (d, r) loadings: standard normals scaled by 1/sqrt(r)."""
    require_count("d", d)
    require_count("r", r)
    rng = substream(seed, SALT_MODEL, 0)
    return rng.normals(d * r).reshape(d, r) / math.sqrt(r)


@dataclass(frozen=True)
class FinePath:
    """Log-price paths on the equispaced fine grid, started at zero; ``sample`` names them A1..Ad."""

    times: np.ndarray      # (steps + 1,)
    values: np.ndarray     # (d, steps + 1)


@dataclass(frozen=True)
class OracleVolPath:
    """Analytic spot volatility, evaluable at any time in [0, 1]."""

    fn: Callable[[float], np.ndarray]

    def at(self, t: float) -> np.ndarray:
        return self.fn(float(t))

    def path(self, times) -> np.ndarray:
        return np.stack([self.at(t) for t in np.asarray(times, dtype=float)])


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """A matrix A with A A^T = cov; Cholesky when possible, eigen square root otherwise."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, vecs = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 0.0)
        return vecs * np.sqrt(eigvals)[None, :]


def simulate(model: SimModel, fine_steps: int, seed: int) -> tuple[FinePath, OracleVolPath]:
    """Euler path on an equispaced fine grid plus the model's volatility oracle.

    Deterministic given (model, fine_steps, seed): asset i's Brownian
    increments come from substream(seed, SALT_PATH, i); the factor model uses
    streams 0..r-1 for the factors and r..r+d-1 for the idiosyncratic parts.
    """
    if not isinstance(model, SimModel):
        raise TypeError(f"unknown model type {type(model).__name__}")
    if not (is_positive_int(fine_steps) and fine_steps >= 2):
        raise ValueError("fine_steps must be an integer of at least 2")
    d = model.d
    sqrt_dt = math.sqrt(1.0 / fine_steps)
    tgrid = np.arange(fine_steps + 1) / fine_steps
    if isinstance(model, SinVolModel):
        corr = equicorrelation(d, model.corr)
        db = (_psd_factor(corr) @ _path_normals(seed, d, fine_steps)) * sqrt_dt
        sig = model.base[:, None] + model.swing[:, None] * np.sin(2.0 * np.pi * tgrid[:-1])[None, :]
        dx = sig * db

        def vol(t: float) -> np.ndarray:
            s = model.vol_at(t)
            return np.outer(s, s) * corr
    else:
        if isinstance(model, ConstCorrModel):
            dx = (_psd_factor(model.covariance) @ _path_normals(seed, d, fine_steps)) * sqrt_dt
            cov = model.covariance.copy()
        else:
            r = model.r
            z = _path_normals(seed, r + d, fine_steps)
            dx = (model.loadings @ z[:r] + model.idio * z[r:]) * sqrt_dt
            cov = model.loadings @ model.loadings.T + model.idio**2 * np.eye(d)

        def vol(t: float) -> np.ndarray:
            return cov.copy()
    values = np.concatenate([np.zeros((d, 1)), np.cumsum(dx, axis=1)], axis=1)
    return FinePath(times=tgrid, values=values), OracleVolPath(vol)


@dataclass(frozen=True)
class SamplingScheme:
    """Tick sampling: shared uniform grid or per-asset Poisson arrivals."""

    kind: str
    n_target: int

    def __post_init__(self) -> None:
        if self.kind not in SAMPLING_KINDS:
            raise ValueError(f"unknown sampling kind {self.kind!r}")
        require_count("n_target", self.n_target)


def _poisson_indices(rngs: Sequence[Xoshiro256PP], rate: int, steps: int) -> list[np.ndarray]:
    """Fine-grid indices of Poisson arrivals at ``rate`` on [0, 1], one array per generator.

    Arrival times are the running sums of gaps -log(1 - u) / rate, added in
    draw order and stopped at the first sum >= 1. The streams draw ahead
    together, and one log map and one running sum take every stream's block;
    a stream whose sums stay below 1 draws another block alone.
    """
    ahead = rate + 8 * math.isqrt(rate) + 16

    def gaps(raw: np.ndarray) -> np.ndarray:
        return -_each(math.log, 1.0 - _uniforms(raw)) / rate

    out = []
    for rng, times in zip(rngs, np.cumsum(gaps(_lockstep_u64(rngs, ahead).T), axis=1)):
        parts = []
        while True:
            stop = int(np.searchsorted(times, 1.0, side="left"))
            parts.append(times[:stop])
            if stop < times.size:
                break
            times = np.cumsum(np.concatenate((times[-1:], gaps(_lockstep_u64([rng], ahead)[:, 0]))))[1:]
        ticks = np.rint(np.concatenate(parts) * steps).astype(np.int64)  # half to even, as round
        out.append(np.unique(np.concatenate(([0], ticks, [steps]))))
    return out


def sample(fine: FinePath, scheme: SamplingScheme, seed: int) -> ObservationSet:
    """Sample the fine path onto tick grids; arrivals snap to the fine grid.

    sync puts every asset on l / n_target for l = 0..n_target, and
    poisson draws per-asset exponential gaps with rate n_target (endpoints
    forced, duplicates removed after snapping); asset j draws once from
    substream j * 101. The endpoints give every asset at least 2 ticks once
    the fine grid has a step; on a one-point grid ``TickSeries`` rejects it.
    """
    steps = fine.times.size - 1
    d = fine.values.shape[0]
    if scheme.kind == "sync":
        n = scheme.n_target
        if n > steps:
            raise ValueError(f"n_target={n} exceeds the fine resolution of {steps} steps")
        indices = [np.unique(np.rint(np.arange(n + 1) * steps / n).astype(int))] * d
    else:
        rngs = [substream(seed, SALT_SAMPLING, j * 101) for j in range(d)]
        indices = _poisson_indices(rngs, scheme.n_target, steps)
    ids = default_asset_ids(d)
    series = tuple(
        TickSeries(ids[j], fine.times[idx], fine.values[j, idx])
        for j, idx in enumerate(indices)
    )
    return ObservationSet(series=series, time_span=1.0)


@dataclass(frozen=True)
class ScoreCard:
    """Accuracy of an estimated path against the oracle, away from the edges."""

    times: np.ndarray
    rel_frobenius: np.ndarray
    mean_rel_frobenius: float
    ratio_error: np.ndarray
    mean_ratio_error: float
    max_ratio_error: float


def score(est: VolPath, oracle: OracleVolPath) -> ScoreCard:
    """Relative Frobenius error and eigen-ratio error on [BURN, 1 - BURN].

    The boundary is excluded because the smoothing kernels degrade there.
    """
    mask = (est.times >= BURN) & (est.times <= 1.0 - BURN)
    if not np.any(mask):
        raise ValueError(f"no evaluation times inside [{BURN}, {1.0 - BURN}]")
    times = est.times[mask]
    est_mats = est.matrices[mask]
    true_mats = oracle.path(times)
    denom = np.linalg.norm(true_mats, axis=(1, 2))
    if not denom.all():
        raise ValueError(f"oracle matrix vanishes at t={times[np.argmin(denom)]}")
    rel = np.linalg.norm(est_mats - true_mats, axis=(1, 2)) / denom

    def ratios(mats: np.ndarray) -> np.ndarray:
        path = VolPath(times=times, matrices=mats, asset_ids=est.asset_ids)
        return np.array([rep.ratios for rep in spectral.pca_ratios(path, top=min(3, est.d))])

    ratio_err = np.max(np.abs(ratios(est_mats) - ratios(true_mats)), axis=1)
    return ScoreCard(
        times=times,
        rel_frobenius=rel,
        mean_rel_frobenius=float(np.mean(rel)),
        ratio_error=ratio_err,
        mean_ratio_error=float(np.mean(ratio_err)),
        max_ratio_error=float(np.max(ratio_err)),
    )
