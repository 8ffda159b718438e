import numpy as np
import pytest

from spotvol.estimator import (
    EstimationError,
    EstimatorConfig,
    GenericSpec,
    build_fiber,
    estimate_classical,
    estimate_generic,
    estimate_path,
    estimate_psd_direct,
    estimate_psd_factorized,
    fourier_coefficients,
    generic_spec_from_psd,
    read_vol_csv,
    write_vol_csv,
    VolPath,
)
from spotvol.kernels import (
    INTEGER_GUARD,
    KernelParams,
    PSDFunction,
    c_from_measure,
    dirichlet_eval,
    make_measure,
)
from spotvol.market_data import AssetIncrements, IncrementTable

from conftest import random_increments


def one_asset(times, dx, asset_id="A1"):
    return IncrementTable(
        assets=(AssetIncrements(asset_id=asset_id, times=np.asarray(times, float), dx=np.asarray(dx, float)),)
    )


# ---------------------------------------------------------------- coefficients


def test_fourier_coefficients_single_increment():
    coeffs = fourier_coefficients(one_asset([0.5], [1.0]), 1)
    assert abs(coeffs.coeff(0, -1) - (-1.0)) < 1e-15  # e^{i pi}
    assert abs(coeffs.coeff(0, 0) - 1.0) < 1e-15
    assert abs(coeffs.coeff(0, 1) - (-1.0)) < 1e-15


def test_fourier_coefficients_zero_increments():
    coeffs = fourier_coefficients(one_asset([0.2, 0.5, 0.9], [0.0, 0.0, 0.0]), 4)
    assert np.all(coeffs.tables == 0.0)


def test_fourier_coefficients_match_direct_sum(rng):
    times = np.sort(rng.random(10))
    dx = rng.standard_normal(10)
    coeffs = fourier_coefficients(one_asset(times, dx), 4)
    for s in range(-4, 5):
        direct = np.sum(np.exp(-2j * np.pi * s * times) * dx)
        assert abs(coeffs.coeff(0, s) - direct) < 1e-13


def test_fourier_coefficients_conjugate_symmetry(rng):
    inc = random_increments(rng, 3, 20)
    coeffs = fourier_coefficients(inc, 6)
    np.testing.assert_array_equal(coeffs.tables[:, ::-1], np.conj(coeffs.tables))


# ----------------------------------------------------------------------- fiber


def test_build_fiber_m1():
    spec = build_fiber(1)
    assert set(spec.fiber[0]) == {(-1, 1), (0, 0), (1, -1)}
    assert spec.fiber[2] == ((1, 1),)
    assert spec.fiber_size(0) == 3


def test_build_fiber_m2_negative_k():
    spec = build_fiber(2)
    assert set(spec.fiber[-1]) == {(1, -2), (0, -1), (-1, 0), (-2, 1)}
    assert spec.fiber_size(-1) == 4


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_fiber_shape_properties(m):
    spec = build_fiber(m)
    assert spec.frequencies == tuple(range(-2 * m, 2 * m + 1))
    for k in spec.frequencies:
        pairs = spec.fiber[k]
        assert len(pairs) == 2 * m + 1 - abs(k)
        for s, sp in pairs:
            assert s + sp == k
            assert -m <= s <= m and -m <= sp <= m


def test_fiber_sum_identity(rng):
    # sum over the fiber of a1(k) a2(s) a3(s') equals the double frequency sum
    for m in (1, 2, 3, 5):
        spec = build_fiber(m)
        for _ in range(5):
            a1 = rng.standard_normal(4 * m + 1) + 1j * rng.standard_normal(4 * m + 1)
            a2 = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
            a3 = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
            lhs = 0j
            for k in spec.frequencies:
                for s, sp in spec.fiber[k]:
                    lhs += a1[k + 2 * m] * a2[s + m] * a3[sp + m]
            u = np.arange(-m, m + 1)
            rhs = sum(
                a1[uu + up + 2 * m] * a2[up + m] * a3[uu + m]
                for uu in u
                for up in u
            )
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_generic_spec_validation():
    with pytest.raises(EstimationError, match="sum to"):
        GenericSpec(frequencies=(0,), fiber={0: ((1, 2),)})
    with pytest.raises(EstimationError, match="cover"):
        GenericSpec(frequencies=(0, 1), fiber={0: ((0, 0),), 1: ((0, 1),)}, coeffs={0: 1.0})


# --------------------------------------------------------------------- generic


def test_generic_zero_coeffs_gives_zero(rng):
    inc = random_increments(rng, 2, 8)
    spec = build_fiber(2).with_coeffs({k: 0.0 for k in range(-4, 5)})
    np.testing.assert_array_equal(estimate_generic(inc, spec, 0.3).entries, np.zeros((2, 2)))


def test_generic_single_increment_trivial_fiber():
    # K = {0}, S(0) = {(0, 0)}, c(0) = 1: all exponentials cancel
    inc = one_asset([0.37], [1.0])
    spec = GenericSpec(frequencies=(0,), fiber={0: ((0, 0),)}, coeffs={0: 1.0})
    for t in (0.0, 0.25, 1.0):
        assert abs(estimate_generic(inc, spec, t).entries[0, 0] - 1.0) < 1e-14


def test_generic_requires_coeffs(rng):
    inc = random_increments(rng, 1, 5)
    with pytest.raises(EstimationError, match="weight table"):
        estimate_generic(inc, build_fiber(1), 0.5)


def test_generic_warns_on_non_hermitian_coeffs(rng):
    inc = random_increments(rng, 1, 6)
    coeffs = {k: 1.0 for k in range(-2, 3)}
    coeffs[1] = 1.0 + 0.9j  # breaks c(-k) = conj(c(k))
    spec = build_fiber(1).with_coeffs(coeffs)
    with pytest.warns(RuntimeWarning, match="imaginary residue"):
        estimate_generic(inc, spec, 0.4)


# ------------------------------------------------------------------- classical


def test_classical_zero_increments():
    inc = one_asset([0.2, 0.6, 0.9], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(estimate_classical(inc, 3, 3, 0.5).entries, np.zeros((1, 1)))


def test_classical_single_increment_at_t():
    sigma = 0.7
    inc = one_asset([0.5], [sigma])
    for l in (1, 2, 5):
        got = estimate_classical(inc, 3, l, 0.5).entries[0, 0]
        assert abs(got - (l + 1) * sigma**2) < 1e-12 * (l + 1)


def test_classical_default_l_equals_m(rng):
    inc = random_increments(rng, 2, 10)
    a = estimate_classical(inc, 4, None, 0.3).entries
    b = estimate_classical(inc, 4, 4, 0.3).entries
    np.testing.assert_array_equal(a, b)


def classical_spectral_form(inc, m, l, t):
    """Frequency-sum form of the kernel-product estimator (test oracle)."""
    coeffs = fourier_coefficients(inc, m + l)
    d = inc.d
    out = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for jp in range(d):
            acc = 0j
            for k in range(-l, l + 1):
                inner = sum(coeffs.coeff(j, k - s) * coeffs.coeff(jp, s) for s in range(-m, m + 1))
                acc += (1.0 - abs(k) / (l + 1)) * np.exp(2j * np.pi * k * t) * inner
            out[j, jp] = acc
    return out.real / (2 * m + 1)


def test_classical_dual_formula(rng):
    for _ in range(5):
        inc = random_increments(rng, 2, 12)
        t = float(rng.random())
        got = estimate_classical(inc, 3, 3, t).entries
        want = classical_spectral_form(inc, 3, 3, t)
        scale = max(np.max(np.abs(want)), 1e-12)
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


PINNED_ASYNC = IncrementTable(
    assets=(
        AssetIncrements("A1", np.array([0.21, 0.55, 0.83, 1.0]), np.array([0.9, -0.4, 0.3, 0.2])),
        AssetIncrements("A2", np.array([0.12, 0.47, 0.62, 0.91]), np.array([-0.5, 0.7, 0.1, -0.6])),
    )
)


def test_classical_asymmetry_witness():
    v = estimate_classical(PINNED_ASYNC, 3, 3, 0.5).entries
    assert abs(v[0, 1] - v[1, 0]) > 1e-6


def two_assets(t1, dx1, t2, dx2):
    return IncrementTable(
        assets=(
            AssetIncrements("A1", np.asarray(t1, float), np.asarray(dx1, float)),
            AssetIncrements("A2", np.asarray(t2, float), np.asarray(dx2, float)),
        )
    )


CLASSICAL_EDGE_CASES = {
    # cross-asset gaps inside the band where the closed-form Dirichlet kernel takes its limit
    "sub-guard-gaps": (
        two_assets([0.2, 0.5, 0.8], [0.6, -0.3, 0.4],
                   [0.2 + 0.1 * INTEGER_GUARD, 0.5 - 0.5 * INTEGER_GUARD, 0.8 + 0.9 * INTEGER_GUARD],
                   [-0.2, 0.5, 0.7]),
        3, 3,
    ),
    "ticks-at-0-and-1": (
        two_assets([0.0, 0.4, 1.0], [0.5, -0.2, 0.3], [0.0, 0.7, 1.0], [0.1, 0.6, -0.4]),
        3, 2,
    ),
    "d-1": (one_asset([0.15, 0.35, 0.9], [0.4, -0.7, 0.2]), 4, 4),
    "m-at-least-n": (
        two_assets([0.3, 0.6], [0.8, -0.5], [0.1, 0.45, 0.7], [0.2, 0.3, -0.6]),
        8, 3,
    ),
}


@pytest.mark.parametrize("case", sorted(CLASSICAL_EDGE_CASES))
def test_classical_edge_inputs_match_frequency_form(case):
    inc, m, l = CLASSICAL_EDGE_CASES[case]
    for t in (0.0, 0.37, 0.5, 1.0):
        got = estimate_classical(inc, m, l, t).entries
        want = classical_spectral_form(inc, m, l, t)
        scale = max(np.max(np.abs(want)), 1e-12)
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


# ------------------------------------------------------------------ psd direct


def test_psd_direct_single_increment_rank_one():
    m = 3
    c = c_from_measure(make_measure(KernelParams(family="flat"), m), m)
    t1 = 0.3
    inc = one_asset([t1], [1.0])
    for t in (0.0, 0.41, 0.9):
        want = dirichlet_eval(m, t - t1) ** 2 / (2 * m + 1)
        got = estimate_psd_direct(inc, c, t).entries[0, 0]
        assert abs(got - want) < 1e-12
        assert got >= 0.0


def test_psd_direct_hand_evaluated_zero():
    # flat c at m=1 and increments +1 at 1/3, -1 at 2/3 evaluated at t=0:
    # D_1 vanishes at +-1/3, so the smoothed sum and the estimate are 0
    m = 1
    c = c_from_measure(make_measure(KernelParams(family="flat"), m), m)
    inc = one_asset([1.0 / 3.0, 2.0 / 3.0], [1.0, -1.0])
    want = (dirichlet_eval(m, -1.0 / 3.0) - dirichlet_eval(m, -2.0 / 3.0)) ** 2 / 3.0
    got = estimate_psd_direct(inc, c, 0.0).entries[0, 0]
    assert abs(want) < 1e-25
    assert abs(got) < 1e-25


def test_psd_direct_rejects_mismatched_table(rng):
    inc = random_increments(rng, 1, 6)
    c = c_from_measure(make_measure(KernelParams(family="flat"), 3), 3)
    coeffs = fourier_coefficients(inc, 2)
    from spotvol.estimator import _direct_at

    with pytest.raises(EstimationError, match="cutoff"):
        _direct_at(coeffs, c, 0.5)


def test_psd_direct_matches_generic(rng):
    for _ in range(4):
        inc = random_increments(rng, 2, 6)
        m = 1
        mu = make_measure(KernelParams(family="flat"), m)
        c = c_from_measure(mu, m)
        t = float(rng.random())
        direct = estimate_psd_direct(inc, c, t).entries
        generic = estimate_generic(inc, generic_spec_from_psd(c), t).entries
        scale = max(np.max(np.abs(direct)), 1e-12)
        assert np.max(np.abs(direct - generic)) <= 1e-10 * scale


def test_psd_direct_symmetric_within_rounding(rng):
    for _ in range(5):
        inc = random_increments(rng, 4, 18)
        m = int(rng.integers(1, 8))
        c = c_from_measure(make_measure(KernelParams(family="gaussian", l_gauss=13.0), m), m)
        v = estimate_psd_direct(inc, c, float(rng.random())).entries
        assert np.max(np.abs(v - v.T)) <= 1e-12 * max(np.max(np.abs(v)), 1e-300)


def test_psd_direct_matches_generic_three_assets(rng):
    inc = random_increments(rng, 3, 8)
    m = 2
    c = c_from_measure(make_measure(KernelParams(family="cauchy", gamma=0.3), m), m)
    t = 0.61
    direct = estimate_psd_direct(inc, c, t).entries
    generic = estimate_generic(inc, generic_spec_from_psd(c), t).entries
    scale = max(np.max(np.abs(direct)), 1e-12)
    assert np.max(np.abs(direct - generic)) <= 1e-10 * scale


# -------------------------------------------------------------- psd factorized


def test_factorized_flat_measure_rank_one(rng):
    inc = random_increments(rng, 4, 15)
    m = 4
    mu = make_measure(KernelParams(family="flat"), m)
    v = estimate_psd_factorized(inc, mu, m, 0.5).entries
    eigvals = np.linalg.eigvalsh(v)
    assert np.sum(eigvals > 1e-10 * np.trace(v)) <= 1
    # rank-one characterization: every 2x2 minor vanishes
    for i in range(4):
        for j in range(4):
            assert abs(v[i, j] ** 2 - v[i, i] * v[j, j]) <= 1e-12 * max(np.trace(v) ** 2, 1e-30)


def test_factorized_zero_asset_row(rng):
    times = np.sort(rng.random(6))
    assets = (
        AssetIncrements("A1", times, rng.standard_normal(6)),
        AssetIncrements("A2", np.sort(rng.random(5)), np.zeros(5)),
    )
    inc = IncrementTable(assets=assets)
    mu = make_measure(KernelParams(family="gaussian", l_gauss=9.0), 3)
    v = estimate_psd_factorized(inc, mu, 3, 0.4).entries
    assert np.all(v[1, :] == 0.0)
    assert np.all(v[:, 1] == 0.0)


@pytest.mark.parametrize(
    "params",
    [
        KernelParams(family="flat"),
        KernelParams(family="cauchy", gamma=0.18),
        KernelParams(family="gaussian", l_gauss=15.0),
        KernelParams(family="fejer"),
    ],
)
def test_factorized_matches_direct(rng, params):
    for _ in range(3):
        inc = random_increments(rng, 3, 14)
        m = int(rng.integers(1, 6))
        mu = make_measure(params, m)
        c = c_from_measure(mu, m)
        t = float(rng.random())
        vf = estimate_psd_factorized(inc, mu, m, t).entries
        vd = estimate_psd_direct(inc, c, t).entries
        scale = max(np.linalg.norm(vd), 1e-12)
        assert np.linalg.norm(vf - vd) <= 1e-9 * scale


def test_factorized_bitwise_symmetric_and_psd(rng):
    for _ in range(10):
        inc = random_increments(rng, 5, 20)
        m = int(rng.integers(1, 8))
        mu = make_measure(KernelParams(family="cauchy", gamma=0.25), m)
        v = estimate_psd_factorized(inc, mu, m, float(rng.random())).entries
        assert np.max(np.abs(v - v.T)) == 0.0
        tr = np.trace(v)
        assert np.linalg.eigvalsh(v).min() >= -1e-10 * max(tr, 1e-300)


def test_factorized_rank_bound(rng):
    inc = random_increments(rng, 6, 25)
    m = 5
    mu = make_measure(KernelParams(family="gaussian", l_gauss=11.0, nodes=3), m)
    v = estimate_psd_factorized(inc, mu, m, 0.5).entries
    eigvals = np.linalg.eigvalsh(v)
    assert np.sum(eigvals > 1e-10 * np.trace(v)) <= min(6, 3)


def test_scaling_equivariance(rng):
    inc = random_increments(rng, 3, 10)
    alpha = 2.5
    scaled_assets = list(inc.assets)
    a0 = scaled_assets[0]
    scaled_assets[0] = AssetIncrements(a0.asset_id, a0.times, alpha * a0.dx)
    scaled = IncrementTable(assets=tuple(scaled_assets))
    m = 3
    mu = make_measure(KernelParams(family="fejer"), m)
    v = estimate_psd_factorized(inc, mu, m, 0.45).entries
    vs = estimate_psd_factorized(scaled, mu, m, 0.45).entries
    np.testing.assert_allclose(vs[0, 1:], alpha * v[0, 1:], rtol=1e-12)
    np.testing.assert_allclose(vs[1:, 1:], v[1:, 1:], rtol=1e-12)
    assert abs(vs[0, 0] - alpha**2 * v[0, 0]) <= 1e-12 * abs(vs[0, 0])


def test_estimators_reject_time_outside_unit_interval(rng):
    inc = random_increments(rng, 1, 5)
    mu = make_measure(KernelParams(family="flat"), 2)
    with pytest.raises(EstimationError, match=r"\[0, 1\]"):
        estimate_psd_factorized(inc, mu, 2, 1.2)
    with pytest.raises(EstimationError, match=r"\[0, 1\]"):
        estimate_classical(inc, 2, 2, -0.1)


# ------------------------------------------------- synchronous-grid reduction


def sync_instance(rng, m, d=2):
    n = 2 * m + 1
    times = np.arange(1, n + 1) / n
    assets = tuple(
        AssetIncrements(f"A{j + 1}", times.copy(), rng.standard_normal(n) * 0.3) for j in range(d)
    )
    return IncrementTable(assets=assets)


def circular_triangle_table(m, denom):
    n = 2 * m + 1
    ks = np.arange(-2 * m, 2 * m + 1)
    dist = np.minimum(np.abs(ks), n - np.abs(ks))
    return PSDFunction(m=m, values=((1.0 - dist / denom) / n).astype(complex))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sync_grid_reduction_to_classical(rng, m):
    # circular triangle with denominator m+1 <-> smoothing order l = m
    n = 2 * m + 1
    inc = sync_instance(rng, m)
    c = circular_triangle_table(m, m + 1)
    for l0 in range(n):
        t = l0 / n
        direct = estimate_psd_direct(inc, c, t).entries
        classical = estimate_classical(inc, m, m, t).entries
        scale = max(np.linalg.norm(classical), 1e-12)
        assert np.linalg.norm(direct - classical) <= 1e-9 * scale


@pytest.mark.parametrize("m", [2, 3])
def test_sync_grid_reduction_offset_pairing(rng, m):
    # circular triangle with denominator m <-> smoothing order l = m-1
    n = 2 * m + 1
    inc = sync_instance(rng, m)
    c = circular_triangle_table(m, m)
    for l0 in range(n):
        t = l0 / n
        direct = estimate_psd_direct(inc, c, t).entries
        classical = estimate_classical(inc, m, m - 1, t).entries
        scale = max(np.linalg.norm(classical), 1e-12)
        assert np.linalg.norm(direct - classical) <= 1e-9 * scale


# ------------------------------------------------------------------ path level


def test_estimate_path_single_time_matches_pointwise(rng):
    from spotvol.market_data import ObservationSet, TickSeries, increments as make_increments

    times = np.concatenate([[0.0], np.sort(rng.random(12)), [1.0]])
    values = np.cumsum(rng.standard_normal(times.size)) * 0.1
    obs = ObservationSet(series=(TickSeries("A1", times, values),))
    kernel = KernelParams(family="gaussian", l_gauss=9.0)
    config = EstimatorConfig(method="psd_factorized", eval_grid=np.array([0.5]), m=4, kernel=kernel)
    path = estimate_path(obs, config)
    assert len(path) == 1
    mu = make_measure(kernel, 4)
    single = estimate_psd_factorized(make_increments(obs), mu, 4, 0.5).entries
    np.testing.assert_array_equal(path.matrices[0], single)


def pointwise_estimators(kernel, m):
    mu = make_measure(kernel, m)
    c = c_from_measure(mu, m)
    spec = generic_spec_from_psd(c)
    return {
        "generic": lambda inc, t: estimate_generic(inc, spec, t),
        "classical": lambda inc, t: estimate_classical(inc, m, None, t),
        "psd_direct": lambda inc, t: estimate_psd_direct(inc, c, t),
        "psd_factorized": lambda inc, t: estimate_psd_factorized(inc, mu, m, t),
    }


@pytest.mark.parametrize("method", ["generic", "classical", "psd_direct", "psd_factorized"])
def test_estimate_path_matches_pointwise_estimators(rng, method):
    from spotvol.market_data import ObservationSet, TickSeries, increments as make_increments

    series = []
    for j in range(2):
        times = np.concatenate([[0.0], np.sort(rng.random(7)), [1.0]])
        values = np.cumsum(rng.standard_normal(times.size)) * 0.1
        series.append(TickSeries(f"A{j + 1}", times, values))
    obs = ObservationSet(series=tuple(series))
    kernel = KernelParams(family="cauchy", gamma=0.2)
    grid = np.array([0.0, 0.3, 0.55, 1.0])
    path = estimate_path(obs, EstimatorConfig(method=method, eval_grid=grid, m=3, kernel=kernel))
    pointwise = pointwise_estimators(kernel, 3)[method]
    inc = make_increments(obs)
    for t, mat in zip(grid, path.matrices):
        np.testing.assert_array_equal(mat, pointwise(inc, t).entries)


def test_estimate_path_attaches_failing_time(rng, monkeypatch):
    from spotvol import estimator as est_mod
    from spotvol.market_data import ObservationSet, TickSeries

    times = np.concatenate([[0.0], np.sort(rng.random(8)), [1.0]])
    values = np.cumsum(rng.standard_normal(times.size)) * 0.1
    obs = ObservationSet(series=(TickSeries("A1", times, values),))

    def broken(inc, m, l, t):
        if t == 0.5:
            raise FloatingPointError("synthetic failure")
        return np.ones((1, 1))

    monkeypatch.setattr(est_mod, "_classical_at", broken)
    config = EstimatorConfig(method="classical", eval_grid=np.array([0.25, 0.5, 0.75]), m=2)
    with pytest.raises(EstimationError, match="t=0.5"):
        estimate_path(obs, config)


def test_estimator_config_validation():
    kernel = KernelParams(family="flat")
    with pytest.raises(EstimationError, match="nonempty"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([]), kernel=kernel)
    with pytest.raises(EstimationError, match=r"\[0, 1\]"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([0.5, 1.5]), kernel=kernel)
    with pytest.raises(EstimationError, match="strictly increasing"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([0.5, 0.5]), kernel=kernel)
    with pytest.raises(EstimationError, match="kernel"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([0.5]))
    with pytest.raises(EstimationError, match="method"):
        EstimatorConfig(method="welch", eval_grid=np.array([0.5]))


def test_vol_csv_roundtrip(rng):
    mats = []
    for _ in range(4):
        a = rng.standard_normal((3, 3))
        mats.append(a @ a.T)
    path = VolPath(
        times=np.array([0.2, 0.4, 0.6, 0.8]),
        matrices=np.stack(mats),
        asset_ids=("A1", "A2", "A3"),
    )
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        f = os.path.join(tmp, "vol.csv")
        write_vol_csv(path, f)
        loaded = read_vol_csv(f)
        with open(f) as fh:
            assert fh.readline().strip() == "t,V_1_1,V_1_2,V_1_3,V_2_2,V_2_3,V_3_3"
    np.testing.assert_array_equal(loaded.times, path.times)
    np.testing.assert_array_equal(loaded.matrices, path.matrices)


@pytest.mark.parametrize("row", ["0.5,1.0,nan,1.0", "0.5,inf,0.0,1.0", "nan,1.0,0.0,1.0"])
def test_read_vol_csv_rejects_non_finite(tmp_path, row):
    f = tmp_path / "vol.csv"
    f.write_text(f"t,V_1_1,V_1_2,V_2_2\n0.25,1.0,0.0,1.0\n{row}\n")
    with pytest.raises(EstimationError, match=r"vol\.csv:3: non-finite"):
        read_vol_csv(f)
