import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from spotvol import simulation
from spotvol.estimator import EstimatorConfig, VolPath, estimate_path
from spotvol.kernels import KernelParams
from spotvol.market_data import MarketDataError
from spotvol.simulation import (
    ConstCorrModel,
    FactorModel,
    FinePath,
    SamplingScheme,
    SinVolModel,
    Xoshiro256PP,
    random_loadings,
    sample,
    score,
    simulate,
    substream,
)
from spotvol.spectral import pca_ratios

from conftest import scalar_normals, scalar_poisson_indices


def test_xoshiro_reference_stream():
    # first outputs of xoshiro256++ from the splitmix64-expanded state for seed 0
    rng1 = Xoshiro256PP(0)
    rng2 = Xoshiro256PP(0)
    draws1 = [rng1.next_u64() for _ in range(5)]
    draws2 = [rng2.next_u64() for _ in range(5)]
    assert draws1 == draws2
    assert all(0 <= x < 2**64 for x in draws1)
    assert len(set(draws1)) == 5
    assert Xoshiro256PP(1).next_u64() != draws1[0]


def test_uniforms_and_normals_shape_and_range():
    rng = Xoshiro256PP(123)
    u = simulation._uniforms(simulation._lockstep_u64([rng], 1000)[:, 0])
    assert u.shape == (1000,)
    assert np.all((0.0 <= u) & (u < 1.0))
    z = Xoshiro256PP(123).normals(1001)
    assert z.shape == (1001,)
    assert abs(np.mean(z)) < 0.15
    assert abs(np.std(z) - 1.0) < 0.1


def test_substreams_are_independent_streams():
    a = substream(5, 1, 0).next_u64()
    b = substream(5, 1, 1).next_u64()
    c = substream(5, 2, 0).next_u64()
    d = substream(6, 1, 0).next_u64()
    assert len({a, b, c, d}) == 4


def test_simulate_deterministic_bit_identical():
    model = ConstCorrModel(covariance=np.array([[1.0, 0.5], [0.5, 1.0]]))
    fine1, _ = simulate(model, 200, 11)
    fine2, _ = simulate(model, 200, 11)
    np.testing.assert_array_equal(fine1.values, fine2.values)
    obs1 = sample(fine1, SamplingScheme(kind="poisson", n_target=15), 11)
    obs2 = sample(fine2, SamplingScheme(kind="poisson", n_target=15), 11)
    for s1, s2 in zip(obs1.series, obs2.series):
        np.testing.assert_array_equal(s1.times, s2.times)
        np.testing.assert_array_equal(s1.values, s2.values)
    fine3, _ = simulate(model, 200, 12)
    assert not np.array_equal(fine1.values, fine3.values)


def test_const_corr_oracle_constant():
    model = ConstCorrModel(covariance=np.array([[1.0]]))
    _, oracle = simulate(model, 100, 3)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_array_equal(oracle.at(t), [[1.0]])


def test_const_corr_rejects_non_psd():
    with pytest.raises(ValueError, match="positive semi-definite"):
        ConstCorrModel(covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        ConstCorrModel(covariance=np.array([[1.0, 0.4], [0.1, 1.0]]))


def test_const_corr_at_rho_one_takes_the_eigen_square_root():
    cov = simulation.equicorrelation(3, 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)  # singular: simulate falls back on the eigen square root
    factor = simulation._psd_factor(cov)
    np.testing.assert_allclose(factor @ factor.T, cov, atol=1e-14)
    fine, oracle = simulate(ConstCorrModel(covariance=cov), 200, 4)
    assert np.all(np.isfinite(fine.values))
    # perfectly correlated unit-variance assets move together
    np.testing.assert_allclose(fine.values[1:], np.broadcast_to(fine.values[0], (2, 201)), atol=1e-12)
    np.testing.assert_array_equal(oracle.at(0.5), cov)


def test_sin_vol_zero_swing_reduces_to_const():
    model = SinVolModel(base=np.array([1.0]), swing=np.array([0.0]), corr=0.0)
    fine, oracle = simulate(model, 300, 5)
    const = ConstCorrModel(covariance=np.array([[1.0]]))
    fine_c, _ = simulate(const, 300, 5)
    np.testing.assert_allclose(fine.values, fine_c.values, atol=1e-12)
    np.testing.assert_array_equal(oracle.at(0.37), [[1.0]])


def test_sin_vol_oracle_formula():
    model = SinVolModel(base=np.array([1.0, 2.0]), swing=np.array([0.5, 0.25]), corr=0.3)
    _, oracle = simulate(model, 100, 1)
    t = 0.2
    s = model.vol_at(t)
    want = np.outer(s, s) * np.array([[1.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(oracle.at(t), want, atol=1e-14)


def test_sin_vol_validation():
    with pytest.raises(ValueError, match="a_i > b_i"):
        SinVolModel(base=np.array([1.0]), swing=np.array([1.0]), corr=0.0)
    with pytest.raises(ValueError, match="correlation"):
        SinVolModel(base=np.array([1.0, 1.0, 1.0]), swing=np.array([0.1, 0.1, 0.1]), corr=-0.9)
    # a list corr once built at d = 1 and raised a bare TypeError at d > 1
    for d, corr in [(1, [0.1, 0.2]), (2, [0.1]), (3, np.full((3, 3), 0.2))]:
        msg = f"corr must be a scalar, got an array of shape {np.shape(corr)}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            SinVolModel(base=[1.0] * d, swing=[0.5] * d, corr=corr)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: ConstCorrModel(covariance=np.zeros((0, 0))), "covariance must be a nonempty"),
        (lambda: ConstCorrModel(covariance=np.array([[1.0, np.nan], [np.nan, 1.0]])), "covariance must be finite"),
        (lambda: ConstCorrModel(covariance=np.array([[np.inf]])), "covariance must be finite"),
        (lambda: SinVolModel(base=np.array([]), swing=np.array([]), corr=0.0), "base and swing must be nonempty"),
        (lambda: SinVolModel(base=np.array([np.nan]), swing=np.array([0.1]), corr=0.0), "base must be finite"),
        (lambda: SinVolModel(base=np.array([1.0]), swing=np.array([np.nan]), corr=0.0), "swing must be finite"),
        (lambda: SinVolModel(base=np.array([1.0]), swing=np.array([0.1]), corr=np.nan), "corr must be finite"),
        (lambda: FactorModel(loadings=np.array([[0.5], [np.nan]]), idio=0.1), "loadings must be finite"),
        (lambda: FactorModel(loadings=np.ones((2, 1)), idio=np.nan), "idio must be finite"),
        (lambda: FactorModel(loadings=np.ones((2, 1)), idio=np.inf), "idio must be finite"),
        (lambda: FactorModel(loadings=np.ones((0, 2)), idio=0.1), r"loadings must be a \(d, r\) matrix"),
        (lambda: FactorModel(loadings=np.ones((2, 0)), idio=0.1), r"loadings must be a \(d, r\) matrix"),
        (lambda: FactorModel(loadings=np.ones(3), idio=0.1), r"loadings must be a \(d, r\) matrix"),
    ],
    ids=[
        "const-corr-empty", "const-corr-nan", "const-corr-inf", "sin-vol-empty", "sin-vol-nan-base",
        "sin-vol-nan-swing", "sin-vol-nan-corr", "factor-nan-loadings", "factor-nan-idio", "factor-inf-idio",
        "factor-no-assets", "factor-no-factors", "factor-1-d-loadings",
    ],
)
def test_models_reject_empty_and_non_finite_parameters(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_simulate_names_an_unknown_model_type_before_reading_it():
    with pytest.raises(TypeError, match="unknown model type object"):
        simulate(object(), 10, 1)
    with pytest.raises(TypeError, match="unknown model type dict"):
        simulate({"d": 2}, 1, 1)  # the type is checked before fine_steps too


def test_factor_oracle_low_rank_spectrum():
    loadings = random_loadings(6, 2, 99)
    model = FactorModel(loadings=loadings, idio=0.01)
    _, oracle = simulate(model, 100, 99)
    v = oracle.at(0.5)
    np.testing.assert_allclose(v, loadings @ loadings.T + 1e-4 * np.eye(6), atol=1e-14)
    w = np.linalg.eigvalsh(v)[::-1]
    r2 = (w[0] + w[1]) / w.sum()
    assert r2 >= 0.99


def test_oracle_paths_are_psd():
    models = [
        ConstCorrModel(covariance=np.array([[1.0, 0.7], [0.7, 1.0]])),
        SinVolModel(base=np.array([1.0, 1.5]), swing=np.array([0.4, 0.2]), corr=0.5),
        FactorModel(loadings=random_loadings(4, 2, 2), idio=0.0),
    ]
    for model in models:
        _, oracle = simulate(model, 50, 1)
        for t in np.linspace(0.0, 1.0, 7):
            v = oracle.at(t)
            w = np.linalg.eigvalsh(v)[::-1]
            assert w[-1] >= -1e-12 * max(np.trace(v), 1e-300)


def test_sample_sync_uniform_grid():
    model = ConstCorrModel(covariance=np.eye(1))
    fine, _ = simulate(model, 40, 0)
    obs = sample(fine, SamplingScheme(kind="sync", n_target=4), 0)
    np.testing.assert_allclose(obs.series[0].times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sample_sync_rejects_too_many_ticks():
    fine, _ = simulate(ConstCorrModel(covariance=np.eye(1)), 10, 0)
    with pytest.raises(ValueError, match="fine resolution"):
        sample(fine, SamplingScheme(kind="sync", n_target=20), 0)


def test_sample_poisson_counts_and_asynchrony():
    model = ConstCorrModel(covariance=np.array([[1.0, 0.2], [0.2, 1.0]]))
    fine, _ = simulate(model, 1500, 21)
    for seed in (1, 2, 3):
        obs = sample(fine, SamplingScheme(kind="poisson", n_target=150), seed)
        for s in obs.series:
            assert 75 <= s.times.size <= 300
            assert s.times[0] == 0.0 and s.times[-1] == 1.0
            assert np.all(np.diff(s.times) > 0)
        # different substreams: the two assets are asynchronous
        t1, t2 = obs.series[0].times, obs.series[1].times
        assert t1.size != t2.size or not np.array_equal(t1, t2)


@pytest.mark.parametrize("seed, ticks", [
    (3, [[0, 19, 60], [0, 4, 20, 45, 55, 60]]),
    (11, [[0, 26, 46, 60], [0, 6, 8, 13, 22, 42, 44, 58, 60]]),
])
def test_sample_poisson_ticks_are_pinned(seed, ticks):
    # fine-grid indices of the Poisson ticks, one draw per asset from substream j * 101
    fine, _ = simulate(ConstCorrModel(covariance=np.array([[1.0, 0.3], [0.3, 1.0]])), 60, seed)
    obs = sample(fine, SamplingScheme(kind="poisson", n_target=6), seed)
    for s, idx in zip(obs.series, ticks):
        np.testing.assert_array_equal(s.times, fine.times[idx])
        np.testing.assert_array_equal(s.values, fine.values[int(s.asset_id[1:]) - 1, idx])


def test_sample_poisson_on_a_one_point_grid_names_the_asset():
    fine = FinePath(times=np.array([0.0]), values=np.zeros((1, 1)), asset_ids=("A1",))
    with pytest.raises(MarketDataError, match="A1: at least 2 ticks"):
        sample(fine, SamplingScheme(kind="poisson", n_target=5), 0)


def test_sample_scheme_validation():
    with pytest.raises(ValueError, match="kind"):
        SamplingScheme(kind="refresh", n_target=10)
    with pytest.raises(ValueError, match="n_target"):
        SamplingScheme(kind="poisson", n_target=0)


def test_quadratic_variation_sanity():
    # realized covariation on the full fine grid approaches the integrated oracle
    fine_steps = 2000
    models = [
        ConstCorrModel(covariance=np.array([[1.0, 0.5], [0.5, 1.0]])),
        SinVolModel(base=np.array([1.0, 1.2]), swing=np.array([0.3, 0.4]), corr=0.4),
    ]
    integrated = [
        models[0].covariance,
        # integral of (a_i + b_i sin 2 pi t)(a_j + b_j sin 2 pi t) R_ij over [0,1]
        (np.outer([1.0, 1.2], [1.0, 1.2]) + 0.5 * np.outer([0.3, 0.4], [0.3, 0.4]))
        * np.array([[1.0, 0.4], [0.4, 1.0]]),
    ]
    for model, target in zip(models, integrated):
        for seed in (4, 5):
            fine, _ = simulate(model, fine_steps, seed)
            dx = np.diff(fine.values, axis=1)
            qv = dx @ dx.T
            scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
            assert np.max(np.abs(qv - target) / scale) <= 5.0 / np.sqrt(fine_steps)


def test_constant_vol_estimates_nearly_constant():
    # three interior evaluation times on constant-covariance data give similar matrices
    model = ConstCorrModel(covariance=np.array([[1.0, 0.5], [0.5, 1.0]]))
    fine, oracle = simulate(model, 10_000, 8)
    obs = sample(fine, SamplingScheme(kind="sync", n_target=1000), 8)
    config = EstimatorConfig(
        method="psd_factorized",
        eval_grid=np.array([0.25, 0.5, 0.75]),
        m=15,
        kernel=KernelParams(family="gaussian", l_gauss=31.0),
    )
    mats = estimate_path(obs, config).matrices
    target = np.linalg.norm(model.covariance)
    for i in range(3):
        for j in range(3):
            assert np.linalg.norm(mats[i] - mats[j]) <= 0.4 * target


def test_two_factor_model_recovers_rank(rng):
    loadings = random_loadings(6, 2, 101)
    model = FactorModel(loadings=loadings, idio=0.01)
    fine, oracle = simulate(model, 1500, 101)
    obs = sample(fine, SamplingScheme(kind="poisson", n_target=150), 101)
    config = EstimatorConfig(
        method="psd_factorized",
        eval_grid=np.arange(1, 31) / 31,
        m=15,
        kernel=KernelParams(family="gaussian", l_gauss=31.0),
    )
    path = estimate_path(obs, config)
    pca = pca_ratios(path, top=3)
    interior = [rep.ratios[1] for rep in pca.reports if 0.1 <= rep.t <= 0.9]
    assert min(interior) >= 0.95


def test_score_exact_and_scaled():
    model = ConstCorrModel(covariance=np.array([[2.0, 0.5], [0.5, 1.0]]))
    _, oracle = simulate(model, 100, 0)
    times = np.linspace(0.15, 0.85, 9)
    exact = VolPath(times=times, matrices=oracle.path(times), asset_ids=("A1", "A2"))
    card = score(exact, oracle, burn=0.1)
    assert card.mean_rel_frobenius == 0.0
    assert card.max_ratio_error == 0.0

    doubled = VolPath(times=times, matrices=2.0 * oracle.path(times), asset_ids=("A1", "A2"))
    card2 = score(doubled, oracle, burn=0.1)
    np.testing.assert_allclose(card2.rel_frobenius, np.ones(9))
    assert card2.max_ratio_error <= 1e-12  # scaling keeps the eigen shares


def test_score_burn_window():
    model = ConstCorrModel(covariance=np.eye(2))
    _, oracle = simulate(model, 100, 0)
    times = np.array([0.05, 0.5, 0.95])
    path = VolPath(times=times, matrices=oracle.path(times), asset_ids=("A1", "A2"))
    card = score(path, oracle, burn=0.1)
    np.testing.assert_array_equal(card.times, [0.5])
    with pytest.raises(ValueError, match="burn"):
        score(path, oracle, burn=0.6)


def test_score_names_the_window_when_no_time_falls_inside_it():
    model = ConstCorrModel(covariance=np.eye(2))
    _, oracle = simulate(model, 100, 0)
    times = np.array([0.05, 0.95])
    path = VolPath(times=times, matrices=oracle.path(times), asset_ids=("A1", "A2"))
    with pytest.raises(ValueError, match=r"^no evaluation times inside \[0\.1, 0\.9\]$"):
        score(path, oracle, burn=0.1)


def test_score_matches_the_per_time_reference(rng):
    model = SinVolModel(base=np.array([1.0, 1.5, 2.0]), swing=np.array([0.4, 0.2, 0.9]), corr=0.3)
    _, oracle = simulate(model, 100, 0)
    times = np.linspace(0.15, 0.85, 9)
    a = rng.standard_normal((9, 3, 3))
    est = VolPath(times=times, matrices=a @ np.swapaxes(a, 1, 2), asset_ids=("A1", "A2", "A3"))
    card = score(est, oracle, burn=0.1)
    truth = oracle.path(times)
    # a norm over the matrix axes sums the squares in another order than a per-matrix norm
    want = [np.linalg.norm(e - o) / np.linalg.norm(o) for e, o in zip(est.matrices, truth)]
    np.testing.assert_allclose(card.rel_frobenius, want, rtol=8 * np.finfo(float).eps)
    est_pca = pca_ratios(est, top=3)
    true_pca = pca_ratios(VolPath(times=times, matrices=truth, asset_ids=est.asset_ids), top=3)
    np.testing.assert_array_equal(
        card.ratio_error, [np.max(np.abs(e.ratios - o.ratios)) for e, o in zip(est_pca, true_pca)])


def test_score_names_the_first_time_the_oracle_vanishes():
    oracle = simulation.OracleVolPath(lambda t: np.eye(2) * (t < 0.3 or t > 0.7))
    times = np.array([0.2, 0.4, 0.6, 0.8])
    path = VolPath(times=times, matrices=np.stack([np.eye(2)] * 4), asset_ids=("A1", "A2"))
    with pytest.raises(ValueError, match=r"oracle matrix vanishes at t=0\.4$"):
        score(path, oracle, burn=0.1)


# ------------------------------------------------ pinned bits and the lockstep engine


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:32]


PINNED_MODELS = {
    "const": lambda: ConstCorrModel(covariance=np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3],
                                                         [0.2, 0.3, 1.0]])),
    "sin": lambda: SinVolModel(base=np.array([1.0, 1.5]), swing=np.array([0.4, 0.2]), corr=0.5),
    "factor": lambda: FactorModel(loadings=random_loadings(12, 3, 7), idio=0.05),
}

# sha256 prefixes of the outputs of the one-draw-at-a-time simulator. The path
# pins hold for the numpy/BLAS build they were recorded with: every model mixes
# its streams with a BLAS product, and sin-vol also calls np.sin, whose last
# bits may differ on another CPU or BLAS build. The loadings and Poisson tick
# time pins below come from the integer streams and `math` alone, so they hold
# on any platform.
PINNED_PATHS = {
    ("const", 2, 1): "31a48fb450245798d0d8458a93f42301",
    ("const", 2, 2): "cb40be242bbf6923ae08282cb1bcbbdf",
    ("const", 3, 1): "4f19dbe55478ab2ebe0ea1cc3bf14dd6",
    ("const", 3, 2): "44d8e63fa70ddc2651df9e4c32e7b7b7",
    ("const", 1500, 1): "6d1b36d4ff543d013a0e64265a7386ba",
    ("const", 1500, 2): "5e40b0cf600b70e8e0b0c975ada2d56e",
    ("const", 1501, 1): "a3a5290dff41825515245d63671931f1",
    ("const", 1501, 2): "d88642f15def215d4fc28fae958326ce",
    ("sin", 2, 1): "56e69d247b5f0766fcd86f08c04b8671",
    ("sin", 2, 2): "9fdea320ff40db87df821a74107d88c5",
    ("sin", 3, 1): "3d45db9c53963fa7d98a4edbc141be89",
    ("sin", 3, 2): "e05244efe77841c889293a756f07c9cb",
    ("sin", 1500, 1): "7b9ae71b09c8588bd027dfe939d361f7",
    ("sin", 1500, 2): "65e826da09cc3eb8423ed5b44f6c62b4",
    ("sin", 1501, 1): "dba05ada6b0164f4c44ee326e1277120",
    ("sin", 1501, 2): "aff4b001e7623f179297493fb566ae57",
    ("factor", 2, 1): "63b61c8989feeeac446fe11750a43bc3",
    ("factor", 2, 2): "ed09bc0e495d198646a936bbe505c6ac",
    ("factor", 3, 1): "764a9f068eed7f19bcfd6ea3395866de",
    ("factor", 3, 2): "04ca6c793dd0bef4a90f80ead629f481",
    ("factor", 1500, 1): "5ecb8be34d55fdc9d7d3fb922ac4964b",
    ("factor", 1500, 2): "c5034e4412d522a57315218e1c6dc163",
    ("factor", 1501, 1): "373ec015aead3d29ac019f0ee65dedc1",
    ("factor", 1501, 2): "b42eeef2b62a0b3ac8218b8c0de0c4ed",
}


@pytest.mark.parametrize("model, steps, seed", sorted(PINNED_PATHS))
def test_simulate_paths_are_pinned(model, steps, seed):
    fine, _ = simulate(PINNED_MODELS[model](), steps, seed)
    assert digest(fine.values) == PINNED_PATHS[model, steps, seed]


@pytest.mark.parametrize("seed, want", [
    (1, "03ee0f560659a9251f6c30723d1a673a"),
    (2, "0f33cf7ae3ccc8a51cdf35c349b76e84"),
    (7, "1a96e799636d8ad77af29a9b66c2cdc4"),
])
def test_random_loadings_are_pinned(seed, want):
    assert digest(random_loadings(12, 3, seed)) == want


@pytest.mark.parametrize("n_target, seed, want", [
    (6, 1, "58ca7d82455a2a475a071d5bbf2e9f1e"),
    (6, 2, "c5ef605c8caaf9b12e371ac84d57d31f"),
    (150, 1, "4173353a4c88b2b77a3d4026cfd820a2"),
    (150, 2, "2de8a8eeb9c8c91c95214404e07bf8ce"),
])
def test_sample_poisson_tick_times_are_pinned(n_target, seed, want):
    fine, _ = simulate(PINNED_MODELS["factor"](), 1500, 3)
    obs = sample(fine, SamplingScheme(kind="poisson", n_target=n_target), seed)
    assert digest(np.concatenate([s.times for s in obs.series])) == want


SEEDS_AND_SALTS = [(0, 1), (7, 2), (2**64 - 1, 3)]


@pytest.mark.parametrize("streams", [1, 2, 15, 53])
@pytest.mark.parametrize("steps", [1, 255, 256, 257])
def test_lockstep_streams_equal_the_scalar_generator(streams, steps):
    for seed, salt in SEEDS_AND_SALTS:
        gens = [substream(seed, salt, i) for i in range(streams)]
        refs = [substream(seed, salt, i) for i in range(streams)]
        raw = simulation._lockstep_u64(gens, steps)
        assert raw.dtype == np.uint64 and raw.shape == (steps, streams)
        assert raw.T.tolist() == [[r.next_u64() for _ in range(steps)] for r in refs]
        # a block leaves every generator where the scalar calls leave it
        assert simulation._lockstep_u64(gens, 3).T.tolist() == [
            [r.next_u64() for _ in range(3)] for r in refs
        ]
        assert [g.next_u64() for g in gens] == [r.next_u64() for r in refs]


def same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513])
def test_normals_and_uniforms_equal_the_scalar_draws(n):
    for seed in (0, 5, 2**64 - 1):
        gen, ref = Xoshiro256PP(seed), Xoshiro256PP(seed)
        same_bits(gen.normals(n), scalar_normals(ref, n))
        same_bits(gen.normals(3), scalar_normals(ref, 3))
        same_bits(simulation._uniforms(simulation._lockstep_u64([gen], n)[:, 0]),
                  np.array([(ref.next_u64() >> 11) * 2**-53 for _ in range(n)]))
        assert gen.next_u64() == ref.next_u64()


@pytest.mark.parametrize("streams", [1, 2, 15, 53])
def test_path_streams_equal_the_scalar_normals(streams):
    for seed, _ in SEEDS_AND_SALTS:
        for n in (1, 257, 512):
            want = np.stack([scalar_normals(substream(seed, simulation.SALT_PATH, i), n)
                             for i in range(streams)])
            same_bits(simulation._path_normals(seed, streams, n), want)


def test_path_normals_peak_memory_is_a_few_times_their_output():
    # measured 2.56 times the output at (43, 2000); holding the raw draws to the end read 3.56
    tracemalloc.start()
    try:
        z = simulation._path_normals(7, 43, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * z.nbytes


@pytest.mark.parametrize("block", [None, 1, 3])
def test_poisson_ticks_equal_the_scalar_draws(monkeypatch, block):
    if block is not None:
        # short draw-ahead blocks: every stream continues from its own generator
        engine = simulation._lockstep_u64
        monkeypatch.setattr(simulation, "_lockstep_u64",
                            lambda gens, steps: engine(gens, min(steps, block)))
    for seed, rate, steps in [(1, 1, 60), (2, 2, 1), (3, 6, 60), (4, 150, 1500),
                              (5, 2000, 1501), (6, 17, 0)]:
        gens = [substream(seed, simulation.SALT_SAMPLING, j * 101) for j in range(3)]
        got = simulation._poisson_indices(gens, rate, steps)
        for j, idx in enumerate(got):
            want = scalar_poisson_indices(
                substream(seed, simulation.SALT_SAMPLING, j * 101), rate, steps)
            assert idx.dtype == want.dtype
            np.testing.assert_array_equal(idx, want)
