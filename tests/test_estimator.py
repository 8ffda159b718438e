import csv
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spotvol import estimator
from spotvol.estimator import (
    CHUNK,
    GRID_BLOCK,
    B,
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
    VolMatrix,
    VolPath,
    _factorized_form,
    _folded_toeplitz,
    _on_grid,
    _quadrature_rows,
    _require_normal,
    _stacker,
)
from spotvol.kernels import (
    INTEGER_GUARD,
    KernelParams,
    PSDFunction,
    SpectralMeasure,
    c_from_measure,
    dirichlet_eval,
    make_measure,
)
from spotvol.market_data import (
    AssetIncrements,
    IncrementTable,
    MarketDataError,
    ObservationSet,
    TickSeries,
)
from spotvol.simulation import ConstCorrModel, simulate
from spotvol.spectral import pca_ratios

from conftest import (
    broadcast_phase_stack,
    classical_tick_form,
    direct_complex_form,
    factorized_smooth_form,
    fourier_power_recurrence,
    random_increments,
)


def one_asset(times, dx, asset_id="A1"):
    return IncrementTable(
        assets=(AssetIncrements(asset_id=asset_id, times=np.asarray(times, float), dx=np.asarray(dx, float)),)
    )


# ---------------------------------------------------------------- coefficients


def test_fourier_coefficients_single_increment():
    a = fourier_coefficients(one_asset([0.5], [1.0]), 1)  # a[j, s + 1] = a_j(s)
    assert abs(a[0, 0] - (-1.0)) < 1e-15  # e^{i pi}
    assert abs(a[0, 1] - 1.0) < 1e-15
    assert abs(a[0, 2] - (-1.0)) < 1e-15


def test_fourier_coefficients_zero_increments():
    a = fourier_coefficients(one_asset([0.2, 0.5, 0.9], [0.0, 0.0, 0.0]), 4)
    assert np.all(a == 0.0)


def test_fourier_coefficients_match_direct_sum(rng):
    times = np.sort(rng.random(10))
    dx = rng.standard_normal(10)
    a = fourier_coefficients(one_asset(times, dx), 4)
    for s in range(-4, 5):
        direct = np.sum(np.exp(-2j * np.pi * s * times) * dx)
        assert abs(a[0, s + 4] - direct) < 1e-13


def test_fourier_coefficients_conjugate_symmetry(rng):
    inc = random_increments(rng, 3, 20)
    a = fourier_coefficients(inc, 6)
    np.testing.assert_array_equal(a[:, ::-1], np.conj(a))


@pytest.mark.parametrize("order", [31, 69, 300])
def test_fourier_coefficients_recurrence_matches_exp_sums(rng, order):
    # ticks exactly at 0 and 1, and gaps inside the near-integer guard band
    interior = np.sort(rng.random(200))
    close = 0.4 + np.array([0.0, 0.3, 0.9]) * INTEGER_GUARD
    times = np.sort(np.concatenate([[0.0], interior, close, [1.0]]))
    dx = rng.standard_normal(times.size)
    a = fourier_coefficients(one_asset(times, dx), order)
    direct = np.exp(-2j * np.pi * np.outer(np.arange(-order, order + 1), times)) @ dx
    err = np.max(np.abs(a[0] - direct))
    assert err <= 1e-12 * np.sum(np.abs(dx))


# (ticks, order): fewer ticks than baby steps, one chunk exactly, a chunk and
# one tick, order + 1 not a multiple of B, an order below B, a single tick
BSGS_SIZES = [(B - 3, 20), (CHUNK - 1, 2 * B - 1), (CHUNK, 2 * B), (CHUNK + 1, 3 * B + 2),
              (500, 75), (300, B - 3), (1, 40)]


@pytest.mark.parametrize("n, order", BSGS_SIZES)
def test_fourier_coefficients_match_the_power_recurrence(rng, n, order):
    times = np.sort(rng.random(n))
    dx = rng.standard_normal(n)
    inc = one_asset(times, dx)
    err = np.max(np.abs(fourier_coefficients(inc, order) - fourier_power_recurrence(inc, order)))
    assert err <= 1e-13 * np.sum(np.abs(dx))


@pytest.mark.parametrize("order", [5, 40])
@pytest.mark.parametrize("reverse", [False, True], ids=["listed order", "reversed"])
def test_fourier_coefficients_rows_equal_their_single_asset_tables(rng, order, reverse):
    # every chunk views one baby-step array sized by the largest chunk; the second panel
    # packs short assets: two that sum to CHUNK, two that overflow a chunk by one tick,
    # a 1-tick and a 2-tick asset between short ones, and short ones after a 1-tick tail
    for counts in ([1, B - 1, CHUNK + 1, 2 * CHUNK, 3, 50],
                   [CHUNK - 50, 50, 2000, CHUNK - 1999, 3, 1, 2, 5, CHUNK + 1, 4, 7]):
        assets = tuple(
            AssetIncrements(asset_id=f"A{j + 1}", times=np.sort(rng.random(n)),
                            dx=rng.standard_normal(n))
            for j, n in enumerate(counts[::-1] if reverse else counts)
        )
        tables = fourier_coefficients(IncrementTable(assets=assets), order)
        for row, asset in zip(tables, assets):
            own = fourier_coefficients(IncrementTable(assets=(asset,)), order)[0]
            assert row.tobytes() == own.tobytes()


def test_fourier_coefficients_are_exact_to_rounding_at_high_order():
    # one tick just below 1: an exp of the rounded phase 2 pi s t errs by
    # O(s eps), so the reference takes each phase from the exact fractional
    # part of s t
    t, order = 0.999999937, 2000
    a = fourier_coefficients(one_asset([t], [1.0]), order)
    exact_t = Fraction(t)
    ref = np.empty(2 * order + 1, dtype=complex)
    for s in range(-order, order + 1):
        phase = 2.0 * math.pi * float(exact_t * s % 1)
        ref[s + order] = complex(math.cos(phase), -math.sin(phase))
    assert np.max(np.abs(a[0] - ref)) <= 1e-12  # sum |dX| = 1


def test_fourier_coefficients_memory_is_linear_in_ticks(rng):
    n, order = 23_400, 75
    inc = one_asset(np.sort(rng.random(n)), rng.standard_normal(n))
    tracemalloc.start()
    try:
        fourier_coefficients(inc, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 16  # a few length-N complex arrays, no (order+1) x N table


# ----------------------------------------------------------------------- fiber


def test_build_fiber_m1():
    fiber = build_fiber(1)
    assert set(fiber[0]) == {(-1, 1), (0, 0), (1, -1)}
    assert fiber[2] == ((1, 1),)
    assert len(fiber[0]) == 3


def test_build_fiber_m2_negative_k():
    fiber = build_fiber(2)
    assert set(fiber[-1]) == {(1, -2), (0, -1), (-1, 0), (-2, 1)}
    assert len(fiber[-1]) == 4


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_fiber_shape_properties(m):
    fiber = build_fiber(m)
    assert tuple(fiber) == tuple(range(-2 * m, 2 * m + 1))
    for k, pairs in fiber.items():
        assert len(pairs) == 2 * m + 1 - abs(k)
        for s, sp in pairs:
            assert s + sp == k
            assert -m <= s <= m and -m <= sp <= m


UNIT_TABLE = PSDFunction(m=1, values=[0, 0, 1, 0, 0])  # c(0) = 1, c(k) = 0 otherwise


def test_generic_spec_validation():
    with pytest.raises(EstimationError, match="sum to"):
        GenericSpec(fiber={0: ((1, 2),)}, table=UNIT_TABLE)
    with pytest.raises(EstimationError, match=r"cover every frequency: k=3 lies outside \[-2, 2\]"):
        GenericSpec(fiber={0: ((0, 0),), 3: ((1, 2),), -3: ((-1, -2),)}, table=UNIT_TABLE)
    with pytest.raises(EstimationError, match=r"not mirrored: fiber\[-1\] must hold the negated "
                                              r"pairs of fiber\[1\]"):
        GenericSpec(fiber={0: ((0, 0),), 1: ((0, 1),)}, table=UNIT_TABLE)
    with pytest.raises(EstimationError, match=r"not mirrored: fiber\[-1\]"):
        GenericSpec(fiber={0: ((0, 0),), 1: ()}, table=UNIT_TABLE)


# --------------------------------------------------------------------- generic


def test_generic_zero_coeffs_gives_zero(rng):
    inc = random_increments(rng, 2, 8)
    spec = GenericSpec(fiber=build_fiber(2), table=PSDFunction(m=2, values=np.zeros(9)))
    np.testing.assert_array_equal(estimate_generic(inc, spec, 0.3).entries, np.zeros((2, 2)))


def test_generic_single_increment_trivial_fiber():
    # K = {0}, S(0) = {(0, 0)}, c(0) = 1: all exponentials cancel
    inc = one_asset([0.37], [1.0])
    spec = GenericSpec(fiber={0: ((0, 0),)}, table=UNIT_TABLE)
    for t in (0.0, 0.25, 1.0):
        assert abs(estimate_generic(inc, spec, t).entries[0, 0] - 1.0) < 1e-14


def test_generic_no_residue_warning_where_the_matrix_vanishes():
    # V(t) vanishes at zeros of the flat measure's kernel while its terms do not
    inc = one_asset([1.0], [0.375])
    mu = make_measure(KernelParams(family="flat"), 4)
    spec = generic_spec_from_psd(c_from_measure(mu, 4))
    grid = np.arange(10) / 9
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [estimate_generic(inc, spec, t).entries for t in grid]
    for t, v in zip(grid, values):
        assert abs(v[0, 0] - estimate_psd_factorized(inc, mu, 4, t).entries[0, 0]) <= 1e-14


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
    a = fourier_coefficients(inc, m + l)  # a[j, s + m + l] = a_j(s)
    d = inc.d
    out = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for jp in range(d):
            acc = 0j
            for k in range(-l, l + 1):
                inner = sum(a[j, k - s + m + l] * a[jp, s + m + l] for s in range(-m, m + 1))
                acc += (1.0 - abs(k) / (l + 1)) * np.exp(2j * np.pi * k * t) * inner
            out[j, jp] = acc
    return out.real / (2 * m + 1)


# the frequency-sum form above, and the paper's definition summed over tick pairs
CLASSICAL_ORACLES = {"frequency": classical_spectral_form, "tick": classical_tick_form}


@pytest.mark.parametrize("oracle", sorted(CLASSICAL_ORACLES))
def test_classical_dual_formula(rng, oracle):
    for _ in range(5):
        inc = random_increments(rng, 2, 12)
        t = float(rng.random())
        got = estimate_classical(inc, 3, 3, t).entries
        want = CLASSICAL_ORACLES[oracle](inc, 3, 3, t)
        scale = max(np.max(np.abs(want)), 1e-12)
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


@pytest.mark.parametrize("m, l", [(3, 2), (15, 15), (40, 7)])
def test_classical_lags_read_the_order_m_table_bit_for_bit(rng, m, l):
    # _classical_form takes the order-m sums from the slice of its order-(m + l) table
    inc = random_increments(rng, 3, 60)
    wide = fourier_coefficients(inc, m + l)[:, l:l + 2 * m + 1]
    narrow = fourier_coefficients(inc, m)
    np.testing.assert_array_equal(wide.view(np.int64), narrow.view(np.int64))


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


@pytest.mark.parametrize("oracle", sorted(CLASSICAL_ORACLES))
@pytest.mark.parametrize("case", sorted(CLASSICAL_EDGE_CASES))
def test_classical_edge_inputs_match_frequency_form(case, oracle):
    inc, m, l = CLASSICAL_EDGE_CASES[case]
    for t in (0.0, 0.37, 0.5, 1.0):
        got = estimate_classical(inc, m, l, t).entries
        want = CLASSICAL_ORACLES[oracle](inc, m, l, t)
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


def test_psd_direct_symmetric_within_rounding(rng):
    for _ in range(5):
        inc = random_increments(rng, 4, 18)
        m = int(rng.integers(1, 8))
        c = c_from_measure(make_measure(KernelParams(family="gaussian", l_gauss=13.0), m), m)
        v = estimate_psd_direct(inc, c, float(rng.random())).entries
        assert np.max(np.abs(v - v.T)) <= 1e-12 * max(np.max(np.abs(v)), 1e-300)


def gaussian_table(m):
    return c_from_measure(make_measure(KernelParams(family="gaussian", l_gauss=2 * m + 1.0), m), m)


DIRECT_EDGE_CASES = {
    "d-1-m-1": (one_asset([0.15, 0.35, 0.9], [0.4, -0.7, 0.2]), gaussian_table(1)),
    "ticks-at-0-and-1": (
        two_assets([0.0, 0.4, 1.0], [0.5, -0.2, 0.3], [0.0, 0.7, 1.0], [0.1, 0.6, -0.4]),
        gaussian_table(5),
    ),
    "sub-guard-gaps": (CLASSICAL_EDGE_CASES["sub-guard-gaps"][0], gaussian_table(4)),
    # atoms placed off-centre give c(k) an imaginary part; the quadrature grids
    # of the families are symmetric up to the atom at -1/2, where sin vanishes
    "asymmetric-measure": (
        two_assets([0.1, 0.3, 0.65], [0.3, -0.8, 0.5], [0.2, 0.45, 0.9], [-0.4, 0.2, 0.6]),
        c_from_measure(SpectralMeasure(atoms=[-0.2, 0.05, 0.3], weights=[0.5, 0.3, 0.2]), 3),
    ),
}


@pytest.mark.parametrize("case", sorted(DIRECT_EDGE_CASES))
def test_psd_direct_matches_the_complex_form(case):
    inc, c = DIRECT_EDGE_CASES[case]
    times = np.array([0.0, 0.2 + 0.5 * INTEGER_GUARD, 0.37, 0.5, 1.0 - 0.3 * INTEGER_GUARD, 1.0])
    coeffs = fourier_coefficients(inc, c.m)
    got = np.stack([estimate_psd_direct(inc, c, t).entries for t in times])
    want = direct_complex_form(coeffs, c, times)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if case == "asymmetric-measure":
        assert np.max(np.abs(c.values.imag)) > 1e-3 * np.max(np.abs(c.values))


def test_psd_direct_path_over_two_blocks_matches_the_complex_form(rng):
    from spotvol.market_data import ObservationSet, TickSeries, increments as make_increments

    series = []
    for j in range(3):
        times = np.concatenate([[0.0], np.sort(rng.random(30)), [1.0]])
        series.append(TickSeries(f"A{j + 1}", times, np.cumsum(rng.standard_normal(times.size)) * 0.1))
    obs = ObservationSet(series=tuple(series))
    kernel, m = KernelParams(family="cauchy", gamma=0.2), 6
    grid = np.linspace(0.0, 1.0, GRID_BLOCK + 5)
    path = estimate_path(obs, EstimatorConfig(method="psd_direct", eval_grid=grid, m=m, kernel=kernel))
    c = c_from_measure(make_measure(kernel, m), m)
    want = direct_complex_form(fourier_coefficients(make_increments(obs), m), c, grid)
    assert np.max(np.abs(path.matrices - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 3, 40])
@pytest.mark.parametrize("size", [1, 5, GRID_BLOCK])
def test_real_stack_matches_the_broadcast_phase_stack_bit_for_bit(rng, d, size):
    inc, m = random_increments(rng, d, 30), 9
    coeffs, table = fourier_coefficients(inc, m), np.eye(2 * m + 1)
    times = np.sort(rng.random(size))
    want = broadcast_phase_stack(coeffs, times).tobytes()
    assert _stacker(inc, m, table, times.size)(times)[0].tobytes() == want
    # and in per-path work arrays of a full block, after another block has filled them
    stack = _stacker(inc, m, table, GRID_BLOCK)
    stack(np.sort(rng.random(GRID_BLOCK)))
    assert stack(times)[0].tobytes() == want


@pytest.mark.parametrize("method", ["psd_direct", "psd_factorized"])
def test_psd_paths_with_a_zero_asset_equal_their_pointwise_values_at_the_grid_ends(rng, method):
    from spotvol.market_data import ObservationSet, TickSeries, increments as make_increments

    series = []
    for j, moves in enumerate((True, False, True)):
        times = np.concatenate([[0.0], np.sort(rng.random(40)), [1.0]])
        values = np.cumsum(rng.standard_normal(times.size)) if moves else np.full(times.size, 0.7)
        series.append(TickSeries(f"A{j + 1}", times, values))
    obs = ObservationSet(series=tuple(series))
    kernel, m = KernelParams(family="cauchy", gamma=0.2), 7
    grid = np.linspace(0.0, 1.0, GRID_BLOCK + 5)  # two blocks, from 0 to 1
    path = estimate_path(obs, EstimatorConfig(method=method, eval_grid=grid, m=m, kernel=kernel))
    inc, mu = make_increments(obs), make_measure(kernel, m)
    if method == "psd_direct":
        c = c_from_measure(mu, m)
        points = [estimate_psd_direct(inc, c, t).entries for t in grid]
    else:
        points = [estimate_psd_factorized(inc, mu, m, t).entries for t in grid]
    assert path.matrices.tobytes() == np.stack(points).tobytes()
    assert np.all(path.matrices[:, 1, :] == 0.0)
    assert np.all(path.matrices[:, :, 1] == 0.0)
    assert np.all(np.diagonal(path.matrices, axis1=1, axis2=2)[:, [0, 2]] > 0.0)


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


SMOOTH_SUM_MEASURES = {
    "flat": KernelParams(family="flat"),
    "cauchy": KernelParams(family="cauchy", gamma=0.18),
    "cauchy-wrapped": KernelParams(family="cauchy", gamma=0.4, wrap=True),
    "gaussian": KernelParams(family="gaussian", l_gauss=15.0),
    "gaussian-wrapped": KernelParams(family="gaussian", l_gauss=3.0, wrap=True),
    "fejer": KernelParams(family="fejer"),
    # off-centre atoms, as in the psd_direct edge cases
    "asymmetric": SpectralMeasure(atoms=[-0.2, 0.05, 0.3], weights=[0.5, 0.3, 0.2]),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_SUM_MEASURES))
def test_factorized_matches_the_smooth_sum_form(rng, name):
    # b = Phi h against the smoothed sum in the atom phases it rewrites
    inc = random_increments(rng, 4, 40)
    m = 6
    mu = SMOOTH_SUM_MEASURES[name]
    if isinstance(mu, KernelParams):
        mu = make_measure(mu, m)
    times = np.array([0.0, 0.2 + 0.5 * INTEGER_GUARD, 0.37, 0.5, 1.0 - 0.3 * INTEGER_GUARD, 1.0])
    got = np.stack([estimate_psd_factorized(inc, mu, m, t).entries for t in times])
    want = factorized_smooth_form(fourier_coefficients(inc, m), mu, times)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(SMOOTH_SUM_MEASURES))
def test_psd_tables_are_c_contiguous_float64(name):
    # every block multiplies by S or Phi, which BLAS then reads without a copy
    m = 7
    mu = SMOOTH_SUM_MEASURES[name]
    if isinstance(mu, KernelParams):
        mu = make_measure(mu, m)
    for table in (_folded_toeplitz(c_from_measure(mu, m)), _quadrature_rows(mu, m)):
        assert table.dtype == np.float64
        assert table.flags.c_contiguous


class _CopiedTranspose:
    """numpy, but ``swapaxes`` returns a copy, so ``swapaxes(b) @ b`` no longer aliases b."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def swapaxes(a, axis1, axis2):
        return np.swapaxes(a, axis1, axis2).copy()


def test_factorized_mirror_symmetrizes_a_plain_product(rng, monkeypatch):
    # numpy evaluates the aliased b^T b as a symmetric rank-k update, which fills both
    # triangles alike; a copied transpose forces a plain product whose triangles differ
    inc = random_increments(rng, 100, 40)
    m, times = 15, np.array([0.1, 0.35, 0.6, 0.85])
    mu = make_measure(KernelParams(family="gaussian", l_gauss=31.0), m)
    b = _stacker(inc, m, _quadrature_rows(mu, m), times.size)(times)[1]
    plain = np.swapaxes(b, 1, 2).copy() @ b
    if np.array_equal(plain, np.swapaxes(plain, 1, 2)):
        pytest.skip("a plain b^T b is bitwise symmetric with this BLAS")
    monkeypatch.setattr(estimator, "np", _CopiedTranspose())
    v = _on_grid(_factorized_form, (inc, mu, m), times)
    np.testing.assert_array_equal(np.triu(v), np.triu(plain))  # the plain product was used
    np.testing.assert_array_equal(v, np.swapaxes(v, 1, 2))


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
    # one asset, one increment, M = 1: the one-time block's products have a single entry
    one_asset_panel = ObservationSet(series=(TickSeries("A1", np.array([0.0, 1.0]),
                                                        np.array([0.0, 1e-3])),))
    for obs, kernel, m in ((obs, KernelParams(family="cauchy", gamma=0.2), 3),
                           (one_asset_panel, KernelParams(family="flat"), 1)):
        pointwise = pointwise_estimators(kernel, m)[method]
        inc = make_increments(obs)
        # the second grid spans more than one evaluation block
        for grid in (np.array([0.0, 0.3, 0.55, 1.0]), np.linspace(0.0, 1.0, GRID_BLOCK + 5)):
            config = EstimatorConfig(method=method, eval_grid=grid, m=m,
                                     kernel=None if method == "classical" else kernel)
            path = estimate_path(obs, config)
            for t, mat in zip(grid, path.matrices):
                np.testing.assert_array_equal(mat, pointwise(inc, t).entries)


@pytest.mark.parametrize("method", ["generic", "classical", "psd_direct", "psd_factorized"])
def test_an_overflowing_path_raises_with_no_numpy_warning(rng, method):
    # increments near 1e300 overflow V; the suite turns numpy's overflow warning into an error
    from spotvol.market_data import ObservationSet, TickSeries, increments as make_increments

    series = []
    for j in range(3):
        times = np.concatenate([[0.0], np.sort(rng.random(20)), [1.0]])
        values = rng.choice([-1.0, 1.0], times.size) * rng.random(times.size) * 1e300
        series.append(TickSeries(f"A{j + 1}", times, values))
    obs = ObservationSet(series=tuple(series))
    kernel, m = KernelParams(family="gaussian", l_gauss=9.0), 4
    config = EstimatorConfig(method=method, eval_grid=[0.25, 0.5, 0.75], m=m,
                             kernel=None if method == "classical" else kernel)
    with pytest.raises(EstimationError, match=r"non-finite volatility matrix at t=0\.25"):
        estimate_path(obs, config)
    with pytest.raises(EstimationError, match=r"non-finite volatility matrix at t=0\.5"):
        pointwise_estimators(kernel, m)[method](make_increments(obs), 0.5)


def _overflow_walk_panel():
    """Three assets of 40 ticks with log-prices in [-1.5, 1.5]; the third jumps by about 2.4."""
    rng = np.random.default_rng(5)
    series = []
    for j in range(3):
        times = np.concatenate([[0.0], np.sort(rng.random(38)), [1.0]])
        values = np.cumsum(rng.standard_normal(40))
        values /= np.max(np.abs(values))
        if j == 2:
            values = 0.3 * values + np.where(np.arange(40) < 20, -1.2, 1.2)
        series.append((f"A{j + 1}", times, values))
    return series


@pytest.mark.parametrize("k", [0, 256, 512, 900, 1000, 1020, 1023])
@pytest.mark.parametrize("method", ["classical", "psd_direct", "psd_factorized"])
def test_log_prices_scaled_to_the_overflow_end_give_a_path_or_one_clear_error(k, method):
    obs = ObservationSet(series=tuple(TickSeries(a, t, v * 2.0**k)
                                      for a, t, v in _overflow_walk_panel()))
    config = EstimatorConfig(method=method, eval_grid=np.linspace(0.0, 1.0, 7), m=5,
                             kernel=None if method == "classical" else
                             KernelParams(family="gaussian", l_gauss=11.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to either outcome
        try:
            path = estimate_path(obs, config)
            pca = None if method == "classical" else pca_ratios(path)
        except ValueError as exc:  # MarketDataError and EstimationError among them
            assert k > 0 and str(exc)
            if k == 1023:  # the third asset's jump of about 2.4 overflows its increment
                assert type(exc) is MarketDataError and str(exc).startswith("A3: the increment")
            return
    assert k < 1023 and np.all(np.isfinite(path.matrices))
    if pca is not None:
        ratios = np.array([rep.ratios for rep in pca])
        assert np.all((ratios >= 0.0) & (ratios <= 1.0))


@pytest.mark.parametrize("k", [0, 256, 500, 512, 520, 540, 600, 1074])
@pytest.mark.parametrize("method", ["classical", "psd_direct", "psd_factorized"])
def test_log_prices_scaled_to_the_underflow_end_give_a_path_or_the_underflow_error(k, method):
    obs = ObservationSet(series=tuple(TickSeries(a, t, v * 2.0**-k)
                                      for a, t, v in _overflow_walk_panel()))
    config = EstimatorConfig(method=method, eval_grid=np.linspace(0.0, 1.0, 7), m=5,
                             kernel=None if method == "classical" else
                             KernelParams(family="gaussian", l_gauss=11.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to either outcome
        try:
            path = estimate_path(obs, config)
            pca = None if method == "classical" else pca_ratios(path)
        except EstimationError as exc:
            # products of about 2^-1024 are subnormal, and of 2^-1080 and below are 0
            why = "every matrix is 0" if k >= 540 else "max|V| = "
            assert k >= 512 and str(exc).startswith(f"volatility matrix underflows at t=0.0: {why}")
            assert str(exc).endswith("of asset 'A3'")  # its jump is the largest increment
            return
    assert k <= 500 and np.abs(path.matrices).max() >= np.finfo(float).tiny
    if pca is not None:
        ratios = np.array([rep.ratios for rep in pca])
        assert np.all((ratios >= 0.0) & (ratios <= 1.0))


@pytest.mark.parametrize("method", ["classical", "psd_direct", "psd_factorized"])
def test_a_constant_panel_still_gives_exact_zeros(method):
    obs = ObservationSet(series=tuple(TickSeries(a, t, np.full(t.size, 1.5))
                                      for a, t, _ in _overflow_walk_panel()))
    config = EstimatorConfig(method=method, eval_grid=np.linspace(0.0, 1.0, 7), m=5,
                             kernel=None if method == "classical" else
                             KernelParams(family="gaussian", l_gauss=11.0))
    np.testing.assert_array_equal(estimate_path(obs, config).matrices, np.zeros((7, 3, 3)))


def test_underflow_screen_leaves_a_non_finite_time_to_vol_path_and_keeps_exact_zeros():
    tiny, times = np.finfo(float).tiny, np.array([0.25, 0.5, 0.75])
    inc = IncrementTable(assets=(AssetIncrements("A1", np.array([0.5, 1.0]), np.array([0.0, 1e-160])),
                                 AssetIncrements("A2", np.array([0.5, 1.0]), np.array([-1e-170, 0.0]))))
    _require_normal(inc, times, np.array([1.0, np.nan, tiny / 4]))  # VolPath names t=0.5
    _require_normal(inc, times, np.array([0.0, np.inf, tiny / 4]))
    with pytest.raises(EstimationError, match=r"underflows at t=0\.75: max\|V\| = 5\.563e-309 is "
                                              r"below the smallest normal double 2\.225e-308; "
                                              r"the largest \|increment\| is 1\.000e-160, of asset 'A1'$"):
        _require_normal(inc, times, np.array([1.0, 0.0, tiny / 4]))
    with pytest.raises(EstimationError, match=r"underflows at t=0\.25: every matrix is 0"):
        _require_normal(inc, times, np.zeros(3))
    # zeros from an increment whose square is normal are exact: a zero weight table, say
    normal = IncrementTable(assets=(AssetIncrements("A1", np.array([0.5, 1.0]), np.array([0.0, 1e-150])),))
    _require_normal(normal, times, np.zeros(3))


def test_vol_path_names_the_first_non_finite_time_and_passes_a_finite_sum_overflow():
    # entries of 1e308 overflow the path's sum but are finite
    grid = np.linspace(0.0, 1.0, GRID_BLOCK + 5)
    mats = np.full((grid.size, 2, 2), 1e308)
    assert np.all(VolPath(times=grid, matrices=mats, asset_ids=("A1", "A2")).matrices == 1e308)
    mats[GRID_BLOCK + 2:] = np.inf
    with pytest.raises(EstimationError, match=f"non-finite volatility matrix at t={grid[GRID_BLOCK + 2]}"):
        VolPath(times=grid, matrices=mats, asset_ids=("A1", "A2"))


@pytest.mark.parametrize("method", ["psd_factorized", "psd_direct"])
def test_paths_share_no_work_arrays(rng, method):
    # the work arrays are per path: a second path on a grid of the same size neither
    # aliases nor rewrites the first
    from spotvol.market_data import ObservationSet, TickSeries

    def panel(n):
        series = []
        for j in range(4):
            times = np.concatenate([[0.0], np.sort(rng.random(n)), [1.0]])
            series.append(TickSeries(f"A{j + 1}", times, np.cumsum(rng.standard_normal(times.size)) * 0.1))
        return ObservationSet(series=tuple(series))

    kernel = KernelParams(family="gaussian", l_gauss=11.0)
    first = estimate_path(panel(40), EstimatorConfig(method=method, m=5, kernel=kernel,
                                                     eval_grid=np.linspace(0.0, 1.0, GRID_BLOCK + 5)))
    kept = first.matrices.tobytes()
    second = estimate_path(panel(25), EstimatorConfig(method=method, m=5, kernel=kernel,
                                                      eval_grid=np.linspace(0.05, 0.95, GRID_BLOCK + 5)))
    assert not np.shares_memory(first.matrices, second.matrices)
    assert first.matrices.tobytes() == kept


def test_classical_path_memory_at_trading_day_size(rng):
    from spotvol.market_data import ObservationSet, TickSeries

    n, m = 23_400, 75
    series = []
    for j in range(3):
        times = np.concatenate([[0.0], np.sort(rng.random(n - 2)), [1.0]])
        series.append(TickSeries(f"A{j + 1}", times, np.cumsum(rng.standard_normal(n)) * 1e-3))
    config = EstimatorConfig(method="classical", eval_grid=np.linspace(0.0, 1.0, 150), m=m, l=m)
    obs = ObservationSet(series=tuple(series))
    tracemalloc.start()
    try:
        estimate_path(obs, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20  # no per-block table over the ticks


def test_estimator_config_validation():
    kernel = KernelParams(family="flat")
    with pytest.raises(EstimationError, match="nonempty"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([]), kernel=kernel)
    with pytest.raises(EstimationError, match=r"\[0, 1\]"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([0.5, 1.5]), kernel=kernel)
    with pytest.raises(EstimationError, match="strictly increasing"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([0.5, 0.5]), kernel=kernel)
    for grid in ([0.5, np.nan], [np.nan], [0.2, np.inf]):
        with pytest.raises(EstimationError, match=r"\[0, 1\]"):
            EstimatorConfig(method="psd_factorized", eval_grid=np.array(grid), kernel=kernel)
    with pytest.raises(EstimationError, match="kernel"):
        EstimatorConfig(method="psd_factorized", eval_grid=np.array([0.5]))
    with pytest.raises(EstimationError, match="method"):
        EstimatorConfig(method="welch", eval_grid=np.array([0.5]))


@pytest.mark.parametrize("method, extra, match", [
    ("classical", {"kernel": KernelParams(family="flat")}, "no kernel"),
    ("psd_factorized", {"l": 7}, "no smoothing order"),
    ("psd_direct", {"l": 7}, "no smoothing order"),
    ("generic", {"l": 7}, "no smoothing order"),
], ids=["classical-kernel", "psd_factorized-l", "psd_direct-l", "generic-l"])
def test_config_rejects_parameters_its_method_does_not_use(method, extra, match):
    needed = {} if method == "classical" else {"kernel": KernelParams(family="flat")}
    with pytest.raises(EstimationError, match=match):
        EstimatorConfig(method=method, eval_grid=[0.5], **needed, **extra)


COUNT_ENTRY_POINTS = {
    "simulate-fine_steps": (lambda k: simulate(ConstCorrModel(covariance=np.eye(2)), k, 0), "fine_steps"),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True, 0, -1], ids=["2.5", "3.0", "True", "0", "-1"])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_must_be_positive_integers(entry, value):
    call, name = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be") as excinfo:
        call(value)
    assert excinfo.type is ValueError


def test_vol_path_validation():
    with pytest.raises(EstimationError, match="finite"):
        VolPath(times=np.array([np.nan]), matrices=np.ones((1, 1, 1)), asset_ids=("A1",))
    with pytest.raises(EstimationError, match="finite"):
        VolPath(times=np.array([0.2, np.inf]), matrices=np.ones((2, 1, 1)), asset_ids=("A1",))
    with pytest.raises(EstimationError, match="^asset ids must be unique$"):
        VolPath(times=np.array([0.5]), matrices=np.ones((1, 2, 2)), asset_ids=("A", "A"))


@pytest.mark.parametrize("t, message", [
    (float("nan"), "non-finite time nan: times must be finite and lie in [0, 1]"),
    (7.0, "out-of-range time 7.0: times must be finite and lie in [0, 1]"),
])
def test_vol_matrix_follows_the_time_rule(t, message):
    with pytest.raises(EstimationError) as caught:
        VolMatrix(t=t, entries=np.eye(2))
    assert str(caught.value) == message


def test_vol_matrix_holds_a_float_array():
    v = VolMatrix(t=0.5, entries=[[1.0, 0.0], [0.0, 1]])
    assert isinstance(v.entries, np.ndarray) and v.entries.dtype == float
    np.testing.assert_array_equal(v.entries, np.eye(2))


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2), ()])
def test_vol_matrix_requires_a_square_matrix(shape):
    with pytest.raises(EstimationError) as caught:
        VolMatrix(t=0.5, entries=np.ones(shape))
    assert str(caught.value) == f"matrix has shape {shape}, expected a square 2-d array"


def test_increment_table_validation():
    with pytest.raises(MarketDataError, match="^increment table must contain at least one asset$"):
        IncrementTable(assets=())
    asset = AssetIncrements("A", np.array([0.5, 1.0]), np.array([0.1, -0.2]))
    with pytest.raises(MarketDataError, match="^asset ids must be unique$"):
        IncrementTable(assets=(asset, asset))


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


def per_row_vol_csv(path, file):
    """The vol file written one ``writerow`` call per time."""
    d = path.d
    iu, ju = np.triu_indices(d)
    with open(file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"V_{i + 1}_{j + 1}" for i in range(d) for j in range(i, d)])
        for t, mat in zip(path.times, path.matrices):
            writer.writerow([repr(float(t))] + [repr(float(x)) for x in mat[iu, ju]])


def test_write_vol_csv_bytes_match_the_per_row_writer_and_round_trip(rng, tmp_path):
    d = 11  # two-digit header names
    iu, ju = np.triu_indices(d)
    upper = rng.standard_normal((3, iu.size))
    upper[0, :4] = [-0.0, 5e-324, 1e308, 1 / 3]
    mats = np.zeros((3, d, d))
    mats[:, iu, ju] = upper
    mats[:, ju, iu] = upper
    path = VolPath(times=np.array([1 / 3, 0.5, 1.0]), matrices=mats,
                   asset_ids=tuple(f"A{i + 1}" for i in range(d)))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_vol_csv(path, got)
    per_row_vol_csv(path, want)
    assert got.read_bytes() == want.read_bytes()
    assert b",V_10_11,V_11_11\n0.3333333333333333,-0.0,5e-324,1e+308,0.3333333333333333," in got.read_bytes()
    back = read_vol_csv(got)
    np.testing.assert_array_equal(back.times.view(np.int64), path.times.view(np.int64))
    np.testing.assert_array_equal(back.matrices.view(np.int64), mats.view(np.int64))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_write_vol_csv_refuses_a_non_finite_matrix_before_opening_the_file(tmp_path, entry):
    mats = np.stack([np.eye(2)] * 3)
    mats[1:, 0, 1] = entry  # the first bad time is named
    f = tmp_path / "vol.csv"
    with pytest.raises(EstimationError, match=r"non-finite volatility matrix at t=0\.5"):
        write_vol_csv(VolPath(times=np.array([0.25, 0.5, 0.75]), matrices=mats, asset_ids=("A", "B")), f)
    assert not f.exists()


def test_read_vol_csv_skips_a_blank_line_between_rows(tmp_path):
    f = tmp_path / "vol.csv"
    f.write_text("t,V_1_1\n0.25,1.0\n\n0.5,2.0\n")
    path = read_vol_csv(f)
    np.testing.assert_array_equal(path.times, [0.25, 0.5])
    np.testing.assert_array_equal(path.matrices, [[[1.0]], [[2.0]]])


@pytest.mark.parametrize("blank", [" ", "\t", "  \t "])
def test_read_vol_csv_skips_a_whitespace_only_row_as_the_tick_reader_does(tmp_path, blank):
    with_blank, without = tmp_path / "vol.csv", tmp_path / "plain.csv"
    with_blank.write_text(f"t,V_1_1,V_1_2,V_2_2\n0.25,1.0,0.5,2.0\n{blank}\n0.5,3.0,-0.5,4.0\n")
    without.write_text("t,V_1_1,V_1_2,V_2_2\n0.25,1.0,0.5,2.0\n0.5,3.0,-0.5,4.0\n")
    got, want = read_vol_csv(with_blank), read_vol_csv(without)
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.matrices, want.matrices)


@pytest.mark.parametrize("row", ["0.5,1.0,nan,1.0", "0.5,inf,0.0,1.0", "nan,1.0,0.0,1.0"])
def test_read_vol_csv_rejects_non_finite(tmp_path, row):
    f = tmp_path / "vol.csv"
    f.write_text(f"t,V_1_1,V_1_2,V_2_2\n0.25,1.0,0.0,1.0\n{row}\n")
    with pytest.raises(EstimationError, match=r"vol\.csv: non-finite"):
        read_vol_csv(f)


@pytest.mark.parametrize("text, match", [
    ("\nt,V_1_1\n0.5,1.0\n", r"vol\.csv: expected a header starting with 't'"),
    ("t\n0.5\n", r"vol\.csv: no matrix columns"),
    ("t,V_1_1\n0.25,1.0\n0.25,2.0\n", r"vol\.csv: times must be strictly increasing, got 0\.25 after 0\.25"),
    ("t,V_1_1\n0.5,1.0\n0.25,2.0\n", r"vol\.csv: times must be strictly increasing"),
    ("t,V_1_1\n0.5,1.0\n0.75,abc\n", r"vol\.csv:3: could not convert string to float: 'abc'"),
    ("t,V_1_1,V_1_3,V_2_2\n0.5,1.0,0.0,1.0\n", r"vol\.csv: unexpected header"),
    ("t,V_1_1,V_1_2\n0.5,1.0,0.0\n", r"vol\.csv: 2 matrix columns do not form an upper triangle"),
    ("t,V_1_1\n0.5,1.0,2.0\n", r"vol\.csv:2: expected 2 columns"),
    ("t,V_1_1\n", r"vol\.csv: no data rows"),
], ids=["blank-header", "no-matrix-columns", "repeated-time", "decreasing-time", "bad-entry",
        "wrong-names", "not-a-triangle", "wrong-column-count", "header-only"])
def test_read_vol_csv_rejects_a_bad_header_and_unordered_times(tmp_path, text, match):
    f = tmp_path / "vol.csv"
    f.write_text(text)
    with pytest.raises(EstimationError, match=match):
        read_vol_csv(f)


@pytest.mark.parametrize("times, matrices, match", [
    (np.array([]), np.ones((0, 1, 1)), "nonempty"),
    (np.array([0.5, 0.5]), np.ones((2, 1, 1)), "strictly increasing"),
    (np.array([0.25, 0.75]), np.ones((2, 2, 2)), r"shape \(2, 2, 2\), expected \(2, 1, 1\)"),
], ids=["empty-grid", "repeated-time", "wrong-shape"])
def test_vol_path_rejects_an_empty_grid_unordered_times_and_a_wrong_shape(times, matrices, match):
    with pytest.raises(EstimationError, match=match):
        VolPath(times=times, matrices=matrices, asset_ids=("A1",))
