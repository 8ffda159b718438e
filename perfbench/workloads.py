"""The benchmark's three workloads: inputs from a seed, one pass, its checks.

Each pass is closed-loop: one client in one process, and the next pass
starts when the previous one ends. Inputs come only from the seed, so the
same seed gives the same inputs. Program functions are called through
their modules (``estimator.estimate_path``, not an imported name) so the
traced run's wrappers see every call.

The sizes keep each workload's balance of layers while letting one
measured run hold a few dozen passes: the day panel keeps a trading day of
ticks per asset but has few assets, and the paper comparison keeps the
paper's d, N and M on a short grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spotvol import cli, estimator, kernels, market_data, simulation, spectral

import checks

FACTORS = 3
IDIO = 0.05


def eval_grid(points: int) -> np.ndarray:
    """Evaluation times l / points for l = 1..points, as ``spotvol estimate --grid``."""
    return np.arange(1, points + 1) / points


def gaussian(m: int) -> kernels.KernelParams:
    """The reference measure: gaussian with rate 2M+1 on the default 2M+1 nodes."""
    return kernels.KernelParams(family="gaussian", l_gauss=float(2 * m + 1))


def factor_panel(d: int, n: int, seed: int) -> tuple[market_data.ObservationSet, np.ndarray]:
    """Asynchronous factor-model panel with Poisson ticks and its constant covariance.

    Each asset has Poisson(n) interior ticks plus the endpoints 0 and 1. Log
    prices are L F(t) + IDIO W_j(t) with FACTORS common Brownian factors F,
    simulated on the union of all tick times, and one independent Brownian
    motion W_j per asset, so the spot covariance is L L^T + IDIO^2 I.
    """
    rng = np.random.default_rng(seed)
    loadings = rng.standard_normal((d, FACTORS)) / np.sqrt(FACTORS)
    cov = loadings @ loadings.T + IDIO**2 * np.eye(d)
    times = [np.unique(np.concatenate([[0.0], rng.random(rng.poisson(n)), [1.0]])) for _ in range(d)]
    union = np.unique(np.concatenate(times))
    steps = rng.standard_normal((FACTORS, union.size - 1)) * np.sqrt(np.diff(union))
    factors = np.concatenate([np.zeros((FACTORS, 1)), np.cumsum(steps, axis=1)], axis=1)
    series = []
    for j, t in enumerate(times):
        own = rng.standard_normal(t.size - 1) * np.sqrt(np.diff(t))
        idio = np.concatenate([[0.0], np.cumsum(own)])
        values = loadings[j] @ factors[:, np.searchsorted(union, t)] + IDIO * idio
        series.append(market_data.TickSeries(f"A{j + 1}", t, values))
    return market_data.ObservationSet(series=tuple(series)), cov


def _config(method: str, grid: int, m: int) -> estimator.EstimatorConfig:
    kernel = None if method == "classical" else gaussian(m)
    return estimator.EstimatorConfig(method=method, eval_grid=eval_grid(grid), m=m, kernel=kernel)


def _repeatable(out: dict, first: dict | None) -> list[str]:
    """A pass must give the warm-up's factorized path again (no state kept between passes)."""
    if first is None:
        return []
    return checks.check_agree("repeatable", out["psd_factorized"].times,
                              out["psd_factorized"].matrices, first["psd_factorized"].matrices,
                              rtol=1e-12)


def _vol_csv(file: Path, path) -> list[str]:
    """The written path, parsed independently of ``read_vol_csv``, equals the path."""
    table = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
    iu, ju = np.triu_indices(path.d)
    want = np.column_stack([path.times, path.matrices[:, iu, ju]])
    return checks.check_equal("vol_csv", table, want)


class _Workload:
    """Defaults shared by the workloads: no once-per-run checks, error against a known covariance."""

    def check_once(self, inputs, out: dict) -> list[str]:
        return []

    def accuracy(self, inputs, out: dict) -> dict:
        fac = out["psd_factorized"]
        return {"rel_frob_err": checks.rel_frob_err(fac.times, fac.matrices, inputs.oracle)}


@dataclass(frozen=True)
class DayEstimate(_Workload):
    """``spotvol estimate`` in-process on a trading day of Poisson ticks."""

    d: int = 3
    n: int = 23_400
    m: int = 75
    grid: int = 150
    name = "day-estimate"
    forms = ("psd_factorized",)

    def generate(self, seed: int, directory: Path) -> None:
        obs, cov = factor_panel(self.d, self.n, seed)
        market_data.write_csv(obs, directory / "ticks.csv")
        np.save(directory / "oracle.npy", cov)

    def load(self, directory: Path) -> SimpleNamespace:
        cov = np.load(directory / "oracle.npy")
        return SimpleNamespace(csv=directory / "ticks.csv", oracle=lambda t: cov)

    def run_pass(self, inputs, workdir: Path) -> dict:
        obs = market_data.load_csv(inputs.csv)
        path = estimator.estimate_path(obs, _config("psd_factorized", self.grid, self.m))
        estimator.write_vol_csv(path, workdir / "vol.csv")
        return {"psd_factorized": path, "vol_csv": workdir / "vol.csv"}

    def check(self, inputs, out: dict, first: dict | None = None) -> list[str]:
        fac = out["psd_factorized"]
        return (checks.check_psd("psd_factorized", fac.times, fac.matrices)
                + _vol_csv(out["vol_csv"], fac) + _repeatable(out, first))


@dataclass(frozen=True)
class PaperD12(_Workload):
    """The README round trip plus the paper's comparison of three estimator forms."""

    d: int = 12
    n: int = 150
    m: int = 15
    grid: int = 4
    top: int = 3
    name = "paper-d12"
    forms = ("psd_factorized", "psd_direct", "classical")
    probes = (0.25, 0.5)  # grid times for the once-per-run reference checks

    def generate(self, seed: int, directory: Path) -> None:
        np.save(directory / "loadings.npy", simulation.random_loadings(self.d, FACTORS, seed))
        (directory / "seed.json").write_text(json.dumps({"seed": seed}))

    def load(self, directory: Path) -> SimpleNamespace:
        return SimpleNamespace(
            loadings=np.load(directory / "loadings.npy"),
            seed=json.loads((directory / "seed.json").read_text())["seed"],
        )

    def run_pass(self, inputs, workdir: Path) -> dict:
        model = simulation.FactorModel(loadings=inputs.loadings, idio=IDIO)
        fine, oracle = simulation.simulate(model, 10 * self.n, inputs.seed)
        scheme = simulation.SamplingScheme(kind="poisson", n_target=self.n)
        sampled = simulation.sample(fine, scheme, inputs.seed)
        market_data.write_csv(sampled, workdir / "ticks.csv")
        obs = market_data.load_csv(workdir / "ticks.csv")
        out = {f: estimator.estimate_path(obs, _config(f, self.grid, self.m)) for f in self.forms}
        estimator.write_vol_csv(out["psd_factorized"], workdir / "vol.csv")
        back = estimator.read_vol_csv(workdir / "vol.csv")
        pca = spectral.pca_ratios(back, top=self.top)
        spectral.write_pca_csv(pca, workdir / "pca.csv")
        (workdir / "pca.svg").write_text(cli.render_pca_svg(pca), encoding="utf-8")
        card = simulation.score(out["psd_factorized"], oracle)
        out.update(obs=obs, oracle=oracle, back=back, pca=pca, card=card,
                   pca_csv=workdir / "pca.csv", svg=workdir / "pca.svg")
        return out

    def check(self, inputs, out: dict, first: dict | None = None) -> list[str]:
        fac, direct, back = out["psd_factorized"], out["psd_direct"], out["back"]
        failures = checks.check_psd("psd_factorized", fac.times, fac.matrices)
        failures += checks.check_psd("psd_direct", direct.times, direct.matrices)
        failures += checks.check_agree("factorized_vs_direct", fac.times, fac.matrices,
                                       direct.matrices)
        failures += checks.check_equal("vol_csv_round_trip", back.matrices, fac.matrices)
        failures += checks.check_pca(out["pca"], back.times, back.matrices, self.top)
        pca_rows = np.loadtxt(out["pca_csv"], delimiter=",", skiprows=1, ndmin=2)
        want = np.array([[r.t, *r.eigenvalues, *r.ratios] for r in out["pca"].reports])
        failures += checks.check_equal("pca_csv", pca_rows, want)
        if out["svg"].read_text(encoding="utf-8").count("<polyline") != self.top:
            failures.append(f"pca_svg: expected {self.top} share curves")
        own = self.accuracy(inputs, out)["rel_frob_err"]
        scored = out["card"].mean_rel_frobenius
        if abs(scored - own) > 1e-12 * own:
            failures.append(f"score: mean relative Frobenius error {scored!r} != {own!r}")
        return failures + _repeatable(out, first)

    def check_once(self, inputs, out: dict) -> list[str]:
        """Factorized against the generic reference, classical against frequency sums."""
        fac, classical, obs = out["psd_factorized"], out["classical"], out["obs"]
        failures = []
        inc = market_data.increments(obs)
        mu = kernels.make_measure(gaussian(self.m), self.m)
        spec = estimator.generic_spec_from_psd(kernels.c_from_measure(mu, self.m))
        i = int(np.flatnonzero(fac.times == 0.5)[0])
        ref = estimator.estimate_generic(inc, spec, 0.5).entries
        failures += checks.check_agree("factorized_vs_generic", fac.times[i:i + 1],
                                       fac.matrices[i:i + 1], ref[None])
        for t in self.probes:
            i = int(np.flatnonzero(classical.times == t)[0])
            ref = checks.classical_reference(obs, self.m, self.m, t)
            failures += checks.check_agree("classical_vs_reference", classical.times[i:i + 1],
                                           classical.matrices[i:i + 1], ref[None])
        return failures

    def accuracy(self, inputs, out: dict) -> dict:
        fac = out["psd_factorized"]
        return {
            "rel_frob_err": checks.rel_frob_err(fac.times, fac.matrices, out["oracle"].at),
            "ratio_err": out["card"].mean_ratio_error,
        }


@dataclass(frozen=True)
class IntradayGrid(_Workload):
    """Library use in memory: two PSD forms on one evaluation time per trading minute."""

    d: int = 40
    n: int = 2_000
    m: int = 40
    grid: int = 390
    name = "intraday-grid"
    forms = ("psd_factorized", "psd_direct")

    def generate(self, seed: int, directory: Path) -> None:
        obs, cov = factor_panel(self.d, self.n, seed)
        arrays = {"cov": cov}
        for j, s in enumerate(obs.series):
            arrays[f"t{j}"], arrays[f"x{j}"] = s.times, s.values
        np.savez(directory / "panel.npz", **arrays)

    def load(self, directory: Path) -> SimpleNamespace:
        with np.load(directory / "panel.npz") as panel:
            cov = panel["cov"]
            series = tuple(
                market_data.TickSeries(f"A{j + 1}", panel[f"t{j}"], panel[f"x{j}"])
                for j in range(cov.shape[0])
            )
        return SimpleNamespace(obs=market_data.ObservationSet(series=series), oracle=lambda t: cov)

    def run_pass(self, inputs, workdir: Path) -> dict:
        return {f: estimator.estimate_path(inputs.obs, _config(f, self.grid, self.m))
                for f in self.forms}

    def check(self, inputs, out: dict, first: dict | None = None) -> list[str]:
        fac, direct = out["psd_factorized"], out["psd_direct"]
        failures = checks.check_psd("psd_factorized", fac.times, fac.matrices)
        failures += checks.check_psd("psd_direct", direct.times, direct.matrices)
        failures += checks.check_agree("factorized_vs_direct", fac.times, fac.matrices,
                                       direct.matrices)
        return failures + _repeatable(out, first)


WORKLOADS = {w.name: w for w in (DayEstimate, PaperD12, IntradayGrid)}
