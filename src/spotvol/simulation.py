"""Synthetic semimartingale paths with known spot volatility, plus scoring.

Paths are generated by Euler steps on an equispaced fine grid and then
sampled onto per-asset tick grids (shared uniform or independent Poisson
arrivals). Three model families cover the cases the estimators must handle:
constant covariance, sinusoidally time-varying volatility, and a low-rank
factor structure. Each has a closed-form spot volatility oracle.

Randomness comes from xoshiro256++ generators seeded through splitmix64.
Sub-streams are derived by mixing the user seed with a purpose salt and a
stream index, so asset paths, sampling arrivals, and model setup draw from
independent streams and every output is bit-reproducible from (model,
scheme, seed) alone, independent of platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .market_data import ObservationSet, TickSeries
from .estimator import VolPath
from .kernels import is_positive_int
from . import spectral

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SALT_MULT = 0xD1B54A32D192ED03

SALT_PATH = 1      # Brownian increments driving the fine path
SALT_SAMPLING = 2  # Poisson arrival times
SALT_MODEL = 3     # model setup draws (factor loadings)

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

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _TWO_NEG53

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)])

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller; pairs drawn as (u1, u2), u1 in (0, 1]."""
        out = np.empty(2 * ((n + 1) // 2))
        for i in range(0, out.size, 2):
            u1 = ((self.next_u64() >> 11) + 1) * _TWO_NEG53
            u2 = (self.next_u64() >> 11) * _TWO_NEG53
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(2.0 * math.pi * u2)
            out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        return out[:n]


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
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(cov))))):
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals[0] < -1e-10 * max(eigvals[-1], 1.0):
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
        if base.shape != swing.shape or base.ndim != 1:
            raise ValueError("base and swing must be 1-d arrays of equal length")
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
        if self.idio < 0.0:
            raise ValueError("idiosyncratic level must be nonnegative")

    @property
    def d(self) -> int:
        return int(self.loadings.shape[0])

    @property
    def r(self) -> int:
        return int(self.loadings.shape[1])


SimModel = Union[ConstCorrModel, SinVolModel, FactorModel]


def random_loadings(d: int, r: int, seed: int) -> np.ndarray:
    """Deterministic (d, r) loadings: standard normals scaled by 1/sqrt(r)."""
    if not (is_positive_int(d) and is_positive_int(r)):
        raise ValueError("d and r must be positive integers")
    rng = substream(seed, SALT_MODEL, 0)
    return rng.normals(d * r).reshape(d, r) / math.sqrt(r)


@dataclass(frozen=True)
class FinePath:
    """Log-price paths on the equispaced fine grid, started at zero."""

    times: np.ndarray      # (steps + 1,)
    values: np.ndarray     # (d, steps + 1)
    asset_ids: tuple[str, ...]

    @property
    def steps(self) -> int:
        return int(self.times.size - 1)


@dataclass(frozen=True)
class OracleVolPath:
    """Analytic spot volatility, evaluable at any time in [0, 1]."""

    dim: int
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


def _asset_ids(d: int) -> tuple[str, ...]:
    return tuple(f"A{i + 1}" for i in range(d))


def simulate(model: SimModel, fine_steps: int, seed: int) -> tuple[FinePath, OracleVolPath]:
    """Euler path on an equispaced fine grid plus the model's volatility oracle.

    Deterministic given (model, fine_steps, seed): asset i's Brownian
    increments come from substream(seed, SALT_PATH, i); the factor model uses
    streams 0..r-1 for the factors and r..r+d-1 for the idiosyncratic parts.
    """
    if not (is_positive_int(fine_steps) and fine_steps >= 2):
        raise ValueError("fine_steps must be an integer of at least 2")
    d = model.d
    dt = 1.0 / fine_steps
    sqrt_dt = math.sqrt(dt)
    tgrid = np.arange(fine_steps + 1) / fine_steps
    if isinstance(model, ConstCorrModel):
        factor = _psd_factor(model.covariance)
        z = np.stack([substream(seed, SALT_PATH, i).normals(fine_steps) for i in range(d)])
        dx = (factor @ z) * sqrt_dt
        cov = model.covariance.copy()
        oracle = OracleVolPath(dim=d, fn=lambda t: cov.copy())
    elif isinstance(model, SinVolModel):
        corr = (1.0 - model.corr) * np.eye(d) + model.corr * np.ones((d, d))
        factor = _psd_factor(corr)
        z = np.stack([substream(seed, SALT_PATH, i).normals(fine_steps) for i in range(d)])
        db = (factor @ z) * sqrt_dt
        sig = model.base[:, None] + model.swing[:, None] * np.sin(2.0 * np.pi * tgrid[:-1])[None, :]
        dx = sig * db

        base, swing, rho = model.base, model.swing, model.corr

        def sin_oracle(t: float) -> np.ndarray:
            s = base + swing * math.sin(2.0 * math.pi * t)
            return np.outer(s, s) * ((1.0 - rho) * np.eye(d) + rho * np.ones((d, d)))

        oracle = OracleVolPath(dim=d, fn=sin_oracle)
    elif isinstance(model, FactorModel):
        r = model.r
        zf = np.stack([substream(seed, SALT_PATH, i).normals(fine_steps) for i in range(r)])
        zi = np.stack([substream(seed, SALT_PATH, r + i).normals(fine_steps) for i in range(d)])
        dx = (model.loadings @ zf + model.idio * zi) * sqrt_dt
        cov = model.loadings @ model.loadings.T + model.idio**2 * np.eye(d)
        oracle = OracleVolPath(dim=d, fn=lambda t: cov.copy())
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    values = np.concatenate([np.zeros((d, 1)), np.cumsum(dx, axis=1)], axis=1)
    return FinePath(times=tgrid, values=values, asset_ids=_asset_ids(d)), oracle


@dataclass(frozen=True)
class SamplingScheme:
    """Tick sampling: shared uniform grid or per-asset Poisson arrivals."""

    kind: str
    n_target: int

    def __post_init__(self) -> None:
        if self.kind not in ("sync_uniform", "poisson"):
            raise ValueError(f"unknown sampling kind {self.kind!r}")
        if not is_positive_int(self.n_target):
            raise ValueError("n_target must be a positive integer")


def _poisson_indices(rng: Xoshiro256PP, rate: int, steps: int) -> np.ndarray:
    arrivals = [0]
    t = 0.0
    while True:
        u = rng.uniform()
        t += -math.log(1.0 - u) / rate
        if t >= 1.0:
            break
        arrivals.append(int(round(t * steps)))
    arrivals.append(steps)
    return np.unique(arrivals)


def sample(fine: FinePath, scheme: SamplingScheme, seed: int) -> ObservationSet:
    """Sample the fine path onto tick grids; arrivals snap to the fine grid.

    sync_uniform puts every asset on l / n_target for l = 0..n_target, and
    poisson draws per-asset exponential gaps with rate n_target (endpoints
    forced, duplicates removed after snapping); asset j draws once from
    substream j * 101. The endpoints give every asset at least 2 ticks once
    the fine grid has a step; on a one-point grid ``TickSeries`` rejects it.
    """
    steps = fine.steps
    d = fine.values.shape[0]
    series = []
    if scheme.kind == "sync_uniform":
        n = scheme.n_target
        if n > steps:
            raise ValueError(f"n_target={n} exceeds the fine resolution of {steps} steps")
        idx = np.unique(np.rint(np.arange(n + 1) * steps / n).astype(int))
        for j in range(d):
            series.append(
                TickSeries(fine.asset_ids[j], fine.times[idx], fine.values[j, idx])
            )
    else:
        for j in range(d):
            idx = _poisson_indices(substream(seed, SALT_SAMPLING, j * 101), scheme.n_target, steps)
            series.append(
                TickSeries(fine.asset_ids[j], fine.times[idx], fine.values[j, idx])
            )
    return ObservationSet(series=tuple(series), time_span=1.0)


@dataclass(frozen=True)
class ScoreCard:
    """Accuracy of an estimated path against the oracle, away from the edges."""

    times: np.ndarray
    rel_frobenius: np.ndarray
    mean_rel_frobenius: float
    max_rel_frobenius: float
    ratio_error: np.ndarray
    mean_ratio_error: float
    max_ratio_error: float


def score(est: VolPath, oracle: OracleVolPath, burn: float = 0.1) -> ScoreCard:
    """Relative Frobenius error and eigen-ratio error on [burn, 1 - burn].

    The boundary is excluded because the smoothing kernels degrade there;
    burn must lie in [0, 0.5).
    """
    if not 0.0 <= burn < 0.5:
        raise ValueError("burn must lie in [0, 0.5)")
    mask = (est.times >= burn) & (est.times <= 1.0 - burn)
    if not np.any(mask):
        raise ValueError(f"no evaluation times inside [{burn}, {1.0 - burn}]")
    times = est.times[mask]
    est_mats = est.matrices[mask]
    true_mats = oracle.path(times)
    rel = np.empty(times.size)
    for i in range(times.size):
        denom = float(np.linalg.norm(true_mats[i]))
        if denom == 0.0:
            raise ValueError(f"oracle matrix vanishes at t={times[i]}")
        rel[i] = float(np.linalg.norm(est_mats[i] - true_mats[i])) / denom
    top = min(3, est.d)
    est_ratios = spectral.pca_ratios(
        VolPath(times=times, matrices=est_mats, asset_ids=est.asset_ids), top=top
    )
    true_ratios = spectral.pca_ratios(
        VolPath(times=times, matrices=true_mats, asset_ids=est.asset_ids), top=top
    )
    ratio_err = np.array(
        [
            float(np.max(np.abs(a.ratios - b.ratios)))
            for a, b in zip(est_ratios.reports, true_ratios.reports)
        ]
    )
    return ScoreCard(
        times=times,
        rel_frobenius=rel,
        mean_rel_frobenius=float(np.mean(rel)),
        max_rel_frobenius=float(np.max(rel)),
        ratio_error=ratio_err,
        mean_ratio_error=float(np.mean(ratio_err)),
        max_ratio_error=float(np.max(ratio_err)),
    )
