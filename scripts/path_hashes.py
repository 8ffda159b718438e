#!/usr/bin/env python3
"""Check five sha256 digests: of the estimators, tick ingest, the simulator, PCA and the row parser.

Each digest is printed with ``ok`` when it equals its value in ``EXPECTED``
and ``CHANGED`` when it does not; the script exits 1 if any changed. A
change meant to keep every output bit prints ``ok`` five times; one meant to
move bits updates ``EXPECTED`` with them.

The first covers the classical, psd_direct and psd_factorized forms, the
latter two under the gaussian, cauchy, flat and fejer measures, on six
seeded random panels of (d, N, M, G): d assets, N ticks per asset, cutoff M
and a G-point grid. For each form and measure it hashes the path and the
pointwise estimates at t = 0, 0.37 and 1. The second asset of the smallest
panel never moves, so its increments are all zero.

The second covers ``load_csv`` of each panel written by ``write_csv``: the
ids, times, values and time span it returns, for the log-prices and for
their exponentials read as raw prices, each from the file as written (one
asset after another) and from a copy with the assets' rows interleaved.

The third covers the simulator: for each of the three models at two seeds
and on an odd and an even fine grid, the fine path, its oracle at a few
times and the ticks ``sample`` takes from it under both sampling kinds;
then ``Xoshiro256PP.normals`` at odd and even counts and ``random_loadings``
with an odd count.

The fourth covers the PCA stage: the eigenvalues and ratios ``pca_ratios``
gives at top = 1, 3 and d + 2 on three psd_factorized paths of the README's
factor model (d = 12, r = 3, 150 Poisson ticks, seed 7, M = 15, 150 times):
under the gaussian measure, under the flat measure (rank one), and of its
first asset alone (d = 1), with the ``write_pca_csv`` and ``render_pca_svg``
bytes of each.

The fifth covers ``market_data._load_rows``, the row parser that is
``load_csv``'s reference and error path, on every file the second reads:
the same ids, times, values and time span, under the file's own price kind,
and the raw-price files also read as log-prices.

Like the test pins, the expected values hold for the numpy/BLAS build they
were recorded with (``RECORDED_WITH``): products, eigenvalues and ``np.sin``
may round differently on another build or CPU. A multithreaded BLAS may
split a product differently with more threads, so the digests are pinned for
one BLAS thread; OPENBLAS_NUM_THREADS defaults to 1 here. Run from the
repository root:  PYTHONPATH=src python3 scripts/path_hashes.py
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads its BLAS

import numpy as np  # noqa: E402

import spotvol as sv  # noqa: E402
from spotvol import market_data, simulation  # noqa: E402
from spotvol.cli import render_pca_svg  # noqa: E402

SIZES = ((40, 2000, 40, 390), (3, 23400, 75, 150), (12, 150, 15, 4), (1, 50, 3, 7),
         (100, 300, 15, 45), (2, 30, 5, 33))
POINTS = (0.0, 0.37, 1.0)
# The four measure families, each at the defaults make_measure resolves from M.
KERNELS = tuple(sv.KernelParams(family=f) for f in ("gaussian", "cauchy", "flat", "fejer"))
SIM_SEEDS = (3, 2**64 - 1)

RECORDED_WITH = "numpy 2.4.6, scipy-openblas 0.3.31.188.0 (DYNAMIC_ARCH), one BLAS thread, x86_64"
EXPECTED = {
    "estimators": "aceda811556f519f7a505cce921e793d98ba2a5a60a53fb432f83d210c1ef4ed",
    "ingest": "21271817f1ce0ead1cb5f0a1f3d691fc9c5a685da314d2b6c50dbe563b378795",
    "simulator": "95398f9f7010098ae19c6762bd43012ff1aeb1fa36ab1b52f4e572ddb13ec927",
    "pca": "d07bd2f282583420e5246c208b664aa541346ed6b2bf5216d3b0ce3d16535372",
    "row-parser": "ba41e92901eccc8ad056d84af313de24b22700b371ee4732ae698208e7b7af4c",
}


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
    for kernel in KERNELS:
        mu = sv.make_measure(kernel, m)
        c = sv.c_from_measure(mu, m)
        for method in ("psd_direct", "psd_factorized"):
            config = sv.EstimatorConfig(method=method, eval_grid=grid, m=m, kernel=kernel)
            yield sv.estimate_path(obs, config).matrices
        for t in POINTS:
            yield sv.estimate_psd_direct(inc, c, t).entries
            yield sv.estimate_psd_factorized(inc, mu, m, t).entries


def tick_files(obs: sv.ObservationSet, directory: Path):
    """obs written as log-prices and, exponentiated, as raw prices: each file with its kind."""
    raw = sv.ObservationSet(tuple(sv.TickSeries(s.asset_id, s.times, np.exp(s.values))
                                  for s in obs.series))
    for kind, written in (("log", obs), ("raw", raw)):
        path = directory / f"{kind}.csv"
        sv.write_csv(written, path)
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        mixed = directory / f"{kind}-interleaved.csv"  # row i of every asset, then row i + 1
        mixed.write_text(header + "".join(np.array(rows).reshape(obs.d, -1).T.ravel()),
                         encoding="utf-8")
        yield path, kind
        yield mixed, kind


def observed(obs: sv.ObservationSet):
    """The time span, then each asset's id, times and values."""
    yield repr(obs.time_span).encode()
    for s in obs.series:
        yield s.asset_id.encode()
        yield s.times.tobytes()
        yield s.values.tobytes()


def simulated():
    """The bytes of each model's paths and sampled ticks, then of the raw normals and loadings."""
    for seed in SIM_SEEDS:
        models = (
            sv.ConstCorrModel(covariance=0.04 * simulation.equicorrelation(3, 0.3)),
            sv.SinVolModel(base=np.array([0.3, 0.2, 0.25]), swing=np.array([0.1, 0.05, 0.0]),
                           corr=0.2),
            sv.FactorModel(loadings=sv.random_loadings(5, 2, seed), idio=0.1),
        )
        for model in models:
            for fine_steps in (1001, 1500):
                fine, oracle = sv.simulate(model, fine_steps, seed)
                yield fine.times.tobytes()
                yield fine.values.tobytes()
                yield oracle.path(POINTS).tobytes()
                for kind in simulation.SAMPLING_KINDS:
                    obs = sv.sample(fine, sv.SamplingScheme(kind=kind, n_target=150), seed)
                    for s in obs.series:
                        yield s.times.tobytes()
                        yield s.values.tobytes()
        for n in (1, 2, 7, 1001):
            yield simulation.Xoshiro256PP(seed).normals(n).tobytes()
        yield sv.random_loadings(7, 3, seed).tobytes()


def pca_stage(directory: Path):
    """The bytes of the PCA of three README-model paths, and of their CSV and SVG files."""
    fine, _ = sv.simulate(sv.FactorModel(loadings=sv.random_loadings(12, 3, 7), idio=0.05), 1500, 7)
    obs = sv.sample(fine, sv.SamplingScheme(kind="poisson", n_target=150), 7)
    grid = np.arange(1, 151) / 150
    gaussian = sv.KernelParams(family="gaussian")
    cases = ((obs, gaussian), (obs, sv.KernelParams(family="flat")),
             (sv.ObservationSet(series=obs.series[:1]), gaussian))
    for panel_obs, kernel in cases:
        config = sv.EstimatorConfig(method="psd_factorized", eval_grid=grid, m=15, kernel=kernel)
        path = sv.estimate_path(panel_obs, config)
        for top in (1, 3, panel_obs.d + 2):
            pca = sv.pca_ratios(path, top=top)
            for rep in pca:
                yield rep.eigenvalues.tobytes()
                yield rep.ratios.tobytes()
            sv.write_pca_csv(pca, directory / "pca.csv")
            yield (directory / "pca.csv").read_bytes()
            yield render_pca_svg(pca).encode()


def digests() -> dict[str, str]:
    """The five digests, keyed as in EXPECTED."""
    hashes = {name: hashlib.sha256() for name in EXPECTED}
    with tempfile.TemporaryDirectory() as tmp:
        for seed, (d, n, m, g) in enumerate(SIZES):
            obs = panel(d, n, seed)
            grid = np.arange(1, g + 1) / g
            for v in matrices(obs, m, grid):
                hashes["estimators"].update(np.ascontiguousarray(v).tobytes())
            for file, kind in tick_files(obs, Path(tmp)):
                for chunk in observed(sv.load_csv(file, price_kind=kind)):
                    hashes["ingest"].update(chunk)
                for read_as in (kind, "log") if kind == "raw" else (kind,):
                    for chunk in observed(market_data._load_rows(file, read_as)):
                        hashes["row-parser"].update(chunk)
        for chunk in pca_stage(Path(tmp)):
            hashes["pca"].update(chunk)
    for chunk in simulated():
        hashes["simulator"].update(chunk)
    return {name: h.hexdigest() for name, h in hashes.items()}


def main() -> int:
    changed = 0
    for name, got in digests().items():
        ok = got == EXPECTED[name]
        changed += not ok
        print(f"{got}  {'ok' if ok else 'CHANGED'}  {name}")
    if changed:
        print(f"{changed} digest(s) changed; the expected values hold for {RECORDED_WITH}, "
              f"and this run has numpy {np.__version__}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
