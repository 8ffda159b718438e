"""Command-line interface: simulate, estimate, pca, bench.

Defaults reproduce the reference experimental protocol on any input: cutoff
M = 15, a Gaussian smoothing measure discretized on 2M+1 = 31 nodes of
[-1/2, 1/2), and 150 equispaced evaluation times. Every subcommand is
deterministic given its flags, including seeds: rerunning writes identical
bytes.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import estimator as est_mod
from . import kernels, market_data, simulation, spectral

def _eval_grid(points: int) -> np.ndarray:
    if points < 1:
        raise ValueError("grid must be a positive integer")
    return np.arange(1, points + 1) / points


def _kernel_params(args, m: int) -> kernels.KernelParams:
    family = args.kernel if args.kernel is not None else "gaussian"
    if args.gamma is not None and family != "cauchy":
        raise ValueError("--gamma applies only to --kernel cauchy")
    if args.l_gauss is not None and family != "gaussian":
        raise ValueError("--l-gauss applies only to --kernel gaussian")
    if args.wrap and family not in ("cauchy", "gaussian"):
        raise ValueError("--wrap applies only to the cauchy and gaussian kernels")
    gamma = args.gamma
    l_gauss = args.l_gauss
    if family == "cauchy" and gamma is None:
        gamma = (2 * m + 1) ** -0.5
    if family == "gaussian" and l_gauss is None:
        l_gauss = float(2 * m + 1)
    return kernels.KernelParams(
        family=family,
        gamma=gamma,
        l_gauss=l_gauss,
        nodes=args.nodes,
        wrap=args.wrap,
    )


def _build_model(args) -> simulation.SimModel:
    d = args.d
    if d < 1:
        raise ValueError("--d must be a positive integer")
    if args.model == "const-corr":
        cov = args.var * ((1.0 - args.rho) * np.eye(d) + args.rho * np.ones((d, d)))
        return simulation.ConstCorrModel(covariance=cov)
    if args.model == "sin-vol":
        return simulation.SinVolModel(
            base=np.full(d, args.a), swing=np.full(d, args.b), corr=args.rho
        )
    loadings = simulation.random_loadings(d, args.r, args.seed)
    return simulation.FactorModel(loadings=loadings, idio=args.eps)


def _cmd_simulate(args) -> int:
    model = _build_model(args)
    fine_steps = args.fine_steps if args.fine_steps is not None else 10 * args.n
    if fine_steps < 10 * args.n:
        raise ValueError(f"--fine-steps must be at least 10 * n = {10 * args.n}")
    fine, oracle = simulation.simulate(model, fine_steps, args.seed)
    kind = "sync_uniform" if args.sampling == "sync" else "poisson"
    obs = simulation.sample(fine, simulation.SamplingScheme(kind=kind, n_target=args.n), args.seed)
    market_data.write_csv(obs, args.out_ticks)
    grid = _eval_grid(args.grid)
    oracle_path = est_mod.VolPath(
        times=grid, matrices=oracle.path(grid), asset_ids=obs.asset_ids, config=None
    )
    est_mod.write_vol_csv(oracle_path, args.out_oracle)
    counts = ", ".join(f"{s.asset_id}:{s.times.size}" for s in obs.series)
    print(f"simulated {obs.d} assets (model={args.model}, seed={args.seed})")
    print(f"ticks per asset: {counts}")
    print(f"wrote {args.out_ticks} and {args.out_oracle}")
    return 0


def _cmd_estimate(args) -> int:
    obs = market_data.load_csv(args.input, price_kind=args.price_kind)
    method = args.method.replace("-", "_")
    min_ticks = min(s.n_increments for s in obs.series)
    if args.M >= min_ticks:
        print(
            f"warning: cutoff M={args.M} is at or above the smallest increment "
            f"count ({min_ticks}); the frequency window exceeds the data resolution",
            file=sys.stderr,
        )
    if args.L is not None and method != "classical":
        raise ValueError("--L applies only to --method classical")
    kernel = None
    if method in ("psd_factorized", "psd_direct", "generic"):
        kernel = _kernel_params(args, args.M)
    elif (
        args.kernel is not None
        or args.gamma is not None
        or args.l_gauss is not None
        or args.nodes is not None
        or args.wrap
    ):
        raise ValueError("kernel flags apply only to the psd-* and generic methods")
    config = est_mod.EstimatorConfig(
        method=method,
        eval_grid=_eval_grid(args.grid),
        m=args.M,
        l=args.L,
        kernel=kernel,
    )
    path = est_mod.estimate_path(obs, config)
    if args.per_real_time:
        path = est_mod.VolPath(
            times=path.times,
            matrices=path.matrices / obs.time_span,
            asset_ids=path.asset_ids,
            config=config,
        )
    est_mod.write_vol_csv(path, args.out)
    print(f"estimated {path.d}x{path.d} volatility at {len(path)} times -> {args.out}")
    return 0


def _panel_svg(lines: list[str], x0: int, y0: int, w: int, h: int, ts, rs, label: str) -> None:
    lines.append(
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        gx = x0 + frac * w
        gy = y0 + (1.0 - frac) * h
        lines.append(
            f'<text x="{gx:.1f}" y="{y0 + h + 16}" font-size="11" text-anchor="middle">{frac:g}</text>'
        )
        lines.append(
            f'<text x="{x0 - 6}" y="{gy + 4:.1f}" font-size="11" text-anchor="end">{frac:g}</text>'
        )
        if 0.0 < frac < 1.0:
            lines.append(
                f'<line x1="{x0}" y1="{gy:.1f}" x2="{x0 + w}" y2="{gy:.1f}" '
                'stroke="lightgray" stroke-width="0.5"/>'
            )
    pts = " ".join(
        f"{x0 + t * w:.2f},{y0 + (1.0 - min(max(r, 0.0), 1.0)) * h:.2f}" for t, r in zip(ts, rs)
    )
    lines.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    lines.append(f'<text x="{x0 + 4}" y="{y0 + 14}" font-size="12">{label}</text>')


def render_pca_svg(pca: spectral.PcaPath) -> str:
    """Self-contained SVG: one stacked panel per cumulative eigenvalue share."""
    ts = pca.times
    n_curves = pca.reports[0].ratios.size
    margin_left, margin_right, margin_top = 50, 20, 20
    panel_w, panel_h, panel_gap = 620, 160, 40
    width = margin_left + panel_w + margin_right
    height = margin_top + n_curves * (panel_h + panel_gap)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for m in range(n_curves):
        rs = [rep.ratios[m] for rep in pca.reports]
        y0 = margin_top + m * (panel_h + panel_gap)
        _panel_svg(lines, margin_left, y0, panel_w, panel_h, ts, rs, f"r{m + 1}")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_pca(args) -> int:
    path = est_mod.read_vol_csv(args.input)
    pca = spectral.pca_ratios(path, top=args.top)
    spectral.write_pca_csv(pca, args.out_csv)
    with open(args.out_svg, "w", encoding="utf-8") as fh:
        fh.write(render_pca_svg(pca))
    print(f"pca over {len(pca)} times -> {args.out_csv}, {args.out_svg}")
    return 0


def run_bench(d: int, n: int, m: int, reps: int, grid: int, seed: int, out=None) -> dict:
    """Time the reference estimator against the factorized one on one instance.

    Asserts numerical agreement (1e-9 relative Frobenius) at the probe time
    before timing anything; returns the timing report as a dict.
    """
    if out is None:
        out = sys.stdout
    if reps < 1:
        raise ValueError("repetitions must be a positive integer")
    if grid < 0:
        raise ValueError("grid must be nonnegative")
    cov = (1.0 - 0.3) * np.eye(d) + 0.3 * np.ones((d, d))
    fine, _ = simulation.simulate(simulation.ConstCorrModel(covariance=cov), 10 * n, seed)
    obs = simulation.sample(fine, simulation.SamplingScheme(kind="poisson", n_target=n), seed)
    inc = market_data.increments(obs)
    kernel = kernels.KernelParams(family="gaussian", l_gauss=float(2 * m + 1))
    mu = kernels.make_measure(kernel, m)
    spec = est_mod.generic_spec_from_psd(kernels.c_from_measure(mu, m))
    t_probe = 0.5
    ref = est_mod.estimate_generic(inc, spec, t_probe).entries
    fac = est_mod.estimate_psd_factorized(inc, mu, m, t_probe).entries
    diff = float(np.linalg.norm(ref - fac)) / max(float(np.linalg.norm(ref)), 1e-300)
    if diff > 1e-9:
        raise RuntimeError(
            f"reference and factorized estimators disagree: relative difference {diff:.3e}"
        )

    def best_of(fn) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    ref_single = best_of(lambda: est_mod.estimate_generic(inc, spec, t_probe))
    fac_single = best_of(lambda: est_mod.estimate_psd_factorized(inc, mu, m, t_probe))
    report = {
        "d": d,
        "n": n,
        "m": m,
        "agreement": diff,
        "reference_single_t": ref_single,
        "factorized_single_t": fac_single,
        "speedup_single_t": ref_single / fac_single,
    }
    print(f"instance: d={d}, n={n} ticks/asset (poisson), M={m}, seed={seed}", file=out)
    print(f"agreement at t={t_probe}: relative Frobenius difference {diff:.3e}", file=out)
    print(f"reference (fiber sum), single t:  {ref_single:.6f} s", file=out)
    print(f"factorized (quadrature), single t: {fac_single:.6f} s", file=out)
    print(f"speedup, single t: {report['speedup_single_t']:.1f}x", file=out)
    if grid > 0:
        grid_times = _eval_grid(grid)
        gen_cfg = est_mod.EstimatorConfig(method="generic", eval_grid=grid_times, m=m, kernel=kernel)
        fac_cfg = est_mod.EstimatorConfig(
            method="psd_factorized", eval_grid=grid_times, m=m, kernel=kernel
        )
        start = time.perf_counter()
        est_mod.estimate_path(obs, gen_cfg)
        ref_grid = time.perf_counter() - start
        start = time.perf_counter()
        est_mod.estimate_path(obs, fac_cfg)
        fac_grid = time.perf_counter() - start
        report["reference_grid"] = ref_grid
        report["factorized_grid"] = fac_grid
        report["speedup_grid"] = ref_grid / fac_grid
        print(f"reference over {grid}-point grid:  {ref_grid:.6f} s", file=out)
        print(f"factorized over {grid}-point grid: {fac_grid:.6f} s", file=out)
        print(f"speedup, grid: {report['speedup_grid']:.1f}x", file=out)
    return report


def _cmd_bench(args) -> int:
    run_bench(d=args.d, n=args.n, m=args.M, reps=args.reps, grid=args.grid, seed=args.seed)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotvol",
        description="Spot volatility matrix estimation from asynchronous tick data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic ticks with a known oracle")
    p_sim.add_argument("--model", choices=("const-corr", "sin-vol", "factor"), required=True)
    p_sim.add_argument("--d", type=int, default=2, help="number of assets")
    p_sim.add_argument("--rho", type=float, default=0.5, help="pairwise correlation")
    p_sim.add_argument("--var", type=float, default=1.0, help="const-corr diagonal variance")
    p_sim.add_argument("--a", type=float, default=1.0, help="sin-vol volatility base level")
    p_sim.add_argument("--b", type=float, default=0.5, help="sin-vol volatility swing")
    p_sim.add_argument("--r", type=int, default=3, help="factor count for the factor model")
    p_sim.add_argument("--eps", type=float, default=0.05, help="factor model idiosyncratic level")
    p_sim.add_argument("--n", type=int, default=150, help="target ticks per asset")
    p_sim.add_argument("--sampling", choices=("sync", "poisson"), default="sync")
    p_sim.add_argument("--fine-steps", type=int, default=None, help="fine grid steps (default 10*n)")
    p_sim.add_argument("--grid", type=int, default=150, help="oracle evaluation points")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-ticks", default="ticks.csv")
    p_sim.add_argument("--out-oracle", default="oracle.csv")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_est = sub.add_parser(
        "estimate",
        help="estimate the spot volatility path from a tick CSV",
        description=(
            "Estimate the spot volatility matrix path. Defaults mirror the "
            "reference protocol: M=15, gaussian kernel with l-gauss=2M+1, "
            "nodes=2M+1, 150 evaluation times at l/150. Useful recipes: "
            "cauchy gamma=(2M+1)^-1/2 (0.1796 at M=15) or (2M+1)^-1/4 "
            "(0.4238); gaussian l-gauss=2M+1 (31) or (M+1)^(1/4) (2.36)."
        ),
    )
    p_est.add_argument("--input", required=True, help="tick CSV with header asset,time,price")
    p_est.add_argument("--price-kind", choices=("log", "raw"), default="log")
    p_est.add_argument("--method", choices=[m.replace("_", "-") for m in est_mod.METHODS],
                       default="psd-factorized")
    p_est.add_argument("--M", type=int, default=15, help="frequency cutoff")
    p_est.add_argument("--L", type=int, default=None, help="classical smoothing order (default M)")
    p_est.add_argument("--kernel", choices=kernels.FAMILIES, default=None,
                       help="smoothing measure family (default gaussian)")
    p_est.add_argument("--gamma", type=float, default=None, help="cauchy scale")
    p_est.add_argument("--l-gauss", dest="l_gauss", type=float, default=None, help="gaussian rate")
    p_est.add_argument("--nodes", type=int, default=None, help="quadrature nodes (default 2M+1)")
    p_est.add_argument("--wrap", action="store_true", help="periodize the kernel density")
    p_est.add_argument("--grid", type=int, default=150, help="evaluation points (times l/grid)")
    p_est.add_argument(
        "--per-real-time",
        action="store_true",
        help="rescale output by 1/time_span for per-real-time units",
    )
    p_est.add_argument("--out", default="vol.csv")
    p_est.set_defaults(fn=_cmd_estimate)

    p_pca = sub.add_parser("pca", help="dynamic PCA of an estimated volatility path")
    p_pca.add_argument("--input", required=True, help="volatility CSV from 'estimate'")
    p_pca.add_argument("--top", type=int, default=3, help="number of cumulative shares")
    p_pca.add_argument("--out-csv", default="pca.csv")
    p_pca.add_argument("--out-svg", default="pca.svg")
    p_pca.set_defaults(fn=_cmd_pca)

    p_bench = sub.add_parser("bench", help="time the reference form against the factorized one")
    p_bench.add_argument("--d", type=int, default=12)
    p_bench.add_argument("--n", type=int, default=150)
    p_bench.add_argument("--M", type=int, default=15)
    p_bench.add_argument("--reps", type=int, default=3, help="timing repetitions (best-of)")
    p_bench.add_argument("--grid", type=int, default=10, help="grid points for path timing (0 skips)")
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
