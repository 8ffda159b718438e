#!/usr/bin/env python3
"""Print two sha256 digests: one over the estimators' outputs, one over tick ingest.

A change meant to keep every output bit prints the same digests before and
after. The first covers the classical, psd_direct and psd_factorized forms,
the latter two under the gaussian, cauchy, flat and fejer measures, on six
seeded random panels of (d, N, M, G): d assets, N ticks per asset, cutoff M
and a G-point grid. For each form and measure it hashes the path and the
pointwise estimates at t = 0, 0.37 and 1. The second asset of the smallest
panel never moves, so its increments are all zero.

The second covers ``load_csv`` of each panel written by ``write_csv``: the
ids, times, values and time span it returns, for the log-prices and for
their exponentials read as raw prices, each from the file as written (one
asset after another) and from a copy with the assets' rows interleaved.

A multithreaded BLAS may split a product differently with more threads, so
the digest is pinned for one BLAS thread; OPENBLAS_NUM_THREADS defaults to 1
here. Run from the repository root:  PYTHONPATH=src python3 scripts/path_hashes.py
"""

import hashlib
import os
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import spotvol as sv  # noqa: E402

SIZES = ((40, 2000, 40, 390), (3, 23400, 75, 150), (12, 150, 15, 4), (1, 50, 3, 7),
         (100, 300, 15, 45), (2, 30, 5, 33))
POINTS = (0.0, 0.37, 1.0)


def kernels(m: int):
    """The four measure families, gaussian and cauchy at the command line's defaults for M = m."""
    yield sv.KernelParams(family="gaussian", l_gauss=float(2 * m + 1))
    yield sv.KernelParams(family="cauchy", gamma=(2 * m + 1) ** -0.5)
    yield sv.KernelParams(family="flat")
    yield sv.KernelParams(family="fejer")


def panel(d: int, n: int, seed: int) -> sv.ObservationSet:
    """d assets of n ticks at sorted uniform times, the first at 0 and the last at 1."""
    rng = np.random.default_rng(seed)
    series = []
    for j in range(d):
        times = np.concatenate([[0.0], np.sort(rng.random(n - 2)), [1.0]])
        values = np.cumsum(rng.standard_normal(n)) * 0.01
        if d == 2 and j == 1:
            values = np.zeros(n)  # a zero-increment asset
        series.append(sv.TickSeries(f"A{j + 1}", times, values))
    return sv.ObservationSet(series=tuple(series))


def matrices(obs: sv.ObservationSet, m: int, grid: np.ndarray):
    """Each form's path on the grid, then its pointwise estimates at POINTS."""
    inc = sv.increments(obs)
    config = sv.EstimatorConfig(method="classical", eval_grid=grid, m=m)
    yield sv.estimate_path(obs, config).matrices
    for t in POINTS:
        yield sv.estimate_classical(inc, m, None, t).entries
    for kernel in kernels(m):
        mu = sv.make_measure(kernel, m)
        c = sv.c_from_measure(mu, m)
        for method in ("psd_direct", "psd_factorized"):
            config = sv.EstimatorConfig(method=method, eval_grid=grid, m=m, kernel=kernel)
            yield sv.estimate_path(obs, config).matrices
        for t in POINTS:
            yield sv.estimate_psd_direct(inc, c, t).entries
            yield sv.estimate_psd_factorized(inc, mu, m, t).entries


def ingested(obs: sv.ObservationSet, directory: Path):
    """load_csv's output for obs written as log-prices and, exponentiated, as raw prices."""
    raw = sv.ObservationSet(tuple(sv.TickSeries(s.asset_id, s.times, np.exp(s.values))
                                  for s in obs.series))
    for kind, written in (("log", obs), ("raw", raw)):
        path = directory / f"{kind}.csv"
        sv.write_csv(written, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        mixed = directory / f"{kind}-interleaved.csv"  # row i of every asset, then row i + 1
        mixed.write_text(header + "".join(np.array(rows).reshape(obs.d, -1).T.ravel()),
                         encoding="utf-8")
        for file in (path, mixed):
            back = sv.load_csv(file, price_kind=kind)
            yield repr(back.time_span).encode()
            for s in back.series:
                yield s.asset_id.encode()
                yield s.times.tobytes()
                yield s.values.tobytes()


def main() -> None:
    digest, ingest = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed, (d, n, m, g) in enumerate(SIZES):
            obs = panel(d, n, seed)
            grid = np.arange(1, g + 1) / g
            for v in matrices(obs, m, grid):
                digest.update(np.ascontiguousarray(v).tobytes())
            for chunk in ingested(obs, Path(tmp)):
                ingest.update(chunk)
    print(digest.hexdigest())
    print(ingest.hexdigest())


if __name__ == "__main__":
    main()
