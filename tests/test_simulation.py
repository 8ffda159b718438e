import numpy as np
import pytest

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
from spotvol.spectral import pca_ratios, symm_eigen


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
    u = rng.uniforms(1000)
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


def test_factor_oracle_low_rank_spectrum():
    loadings = random_loadings(6, 2, 99)
    model = FactorModel(loadings=loadings, idio=0.01)
    _, oracle = simulate(model, 100, 99)
    v = oracle.at(0.5)
    np.testing.assert_allclose(v, loadings @ loadings.T + 1e-4 * np.eye(6), atol=1e-14)
    w, _ = symm_eigen(v)
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
            w, _ = symm_eigen(v)
            assert w[-1] >= -1e-12 * max(np.trace(v), 1e-300)


def test_sample_sync_uniform_grid():
    model = ConstCorrModel(covariance=np.eye(1))
    fine, _ = simulate(model, 40, 0)
    obs = sample(fine, SamplingScheme(kind="sync_uniform", n_target=4), 0)
    np.testing.assert_allclose(obs.series[0].times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sample_sync_rejects_too_many_ticks():
    fine, _ = simulate(ConstCorrModel(covariance=np.eye(1)), 10, 0)
    with pytest.raises(ValueError, match="fine resolution"):
        sample(fine, SamplingScheme(kind="sync_uniform", n_target=20), 0)


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
    obs = sample(fine, SamplingScheme(kind="sync_uniform", n_target=1000), 8)
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
