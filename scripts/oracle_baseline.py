#!/usr/bin/env python3
"""Produce the golden accuracy baseline for the oracle-accuracy gate.

Runs the constant-covariance experiment (d=2, rho=0.5, n=150 synchronous
ticks, M=15, gaussian kernel with rate 31) over the 20 pinned seeds 1..20,
estimating with the brute-force reference path (fiber sum) rather than the
production factorized path. The printed mean relative Frobenius error on
t in [0.1, 0.9] is frozen into tests/test_acceptance.py; the production
estimator must stay within 10% of it.

Run from the repository root:  python3 scripts/oracle_baseline.py
"""

import time

import numpy as np

import spotvol as sv

SEEDS = tuple(range(1, 21))


def run_one(seed: int) -> float:
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    fine, oracle = sv.simulate(sv.ConstCorrModel(covariance=cov), 1500, seed)
    obs = sv.sample(fine, sv.SamplingScheme(kind="sync", n_target=150), seed)
    config = sv.EstimatorConfig(
        method="generic",
        eval_grid=np.arange(1, 151) / 150,
        m=15,
        kernel=sv.KernelParams(family="gaussian"),
    )
    path = sv.estimate_path(obs, config)
    return sv.score(path, oracle).mean_rel_frobenius


def main() -> None:
    start = time.perf_counter()
    per_seed = []
    for seed in SEEDS:
        err = run_one(seed)
        per_seed.append(err)
        print(f"seed {seed:2d}: mean relative Frobenius error {err:.6f}", flush=True)
    baseline = float(np.mean(per_seed))
    print(f"\nbaseline over {len(SEEDS)} seeds: {baseline!r}")
    print(f"elapsed: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
