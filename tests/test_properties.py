"""Property tests for the estimator forms on random asynchronous panels.

Panels hold 1 to 4 assets, each with 2 to 40 ticks that include exactly 0 and
1, and the orders M, L range over 1..8, so both M >= N and M + L >> N occur.
The PSD forms are drawn with every measure family, the continuous ones also
periodized. Examples are derandomized, so every run draws the same panels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvol.estimator import (
    GRID_BLOCK,
    EstimatorConfig,
    estimate_classical,
    estimate_generic,
    estimate_path,
    estimate_psd_direct,
    estimate_psd_factorized,
    generic_spec_from_psd,
)
from spotvol.kernels import KernelParams, c_from_measure, dirichlet_eval, make_measure
from spotvol.market_data import AssetIncrements, IncrementTable, ObservationSet, TickSeries, increments

from conftest import classical_tick_form

PROPERTY = settings(derandomize=True, deadline=None, database=None)

ORDERS = st.integers(1, 8)
TIMES = st.floats(0.0, 1.0)
# increments away from the subnormal range, where products underflow to 0 in any order
INCREMENTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def panels(draw) -> ObservationSet:
    series = []
    for j in range(draw(st.integers(1, 4))):
        interior = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                 max_size=38, unique=True))
        times = np.array([0.0, *sorted(interior), 1.0])
        dx = draw(st.lists(INCREMENTS, min_size=times.size - 1, max_size=times.size - 1))
        series.append(TickSeries(f"A{j + 1}", times, np.concatenate([[0.0], np.cumsum(dx)])))
    return ObservationSet(series=tuple(series))


def max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def path_scale(inc: IncrementTable, m: int, l: int) -> float:
    """max|V| over a coarse grid of times, by the tick oracle.

    V can vanish at one time while its terms do not (a single increment at
    t = 1 seen at a zero of the Fejér kernel), so agreement is measured
    against the size of the path, not of the one matrix.
    """
    return max(max_abs(classical_tick_form(inc, m, l, s)) for s in np.linspace(0.0, 1.0, 9))


@PROPERTY
@given(panels(), ORDERS, ORDERS, TIMES)
def test_classical_matches_tick_oracle(obs, m, l, t):
    inc = increments(obs)
    want = classical_tick_form(inc, m, l, t)
    got = estimate_classical(inc, m, l, t).entries
    assert max_abs(got - want) <= 1e-10 * max(max_abs(want), path_scale(inc, m, l))


@PROPERTY
@given(panels(), ORDERS, ORDERS, TIMES, st.data())
def test_classical_permutes_with_the_assets(obs, m, l, t, data):
    inc = increments(obs)
    perm = data.draw(st.permutations(range(inc.d)))
    v = estimate_classical(inc, m, l, t).entries
    permuted = IncrementTable(assets=tuple(inc.assets[i] for i in perm))
    got = estimate_classical(permuted, m, l, t).entries
    assert max_abs(got - v[np.ix_(perm, perm)]) <= 1e-12 * path_scale(inc, m, l)


@PROPERTY
@given(panels(), ORDERS, ORDERS, TIMES, st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
def test_classical_scales_with_the_square(obs, m, l, t, c):
    inc = increments(obs)
    v = estimate_classical(inc, m, l, t).entries
    scaled = IncrementTable(assets=tuple(
        AssetIncrements(a.asset_id, a.times, c * a.dx) for a in inc.assets
    ))
    got = estimate_classical(scaled, m, l, t).entries
    assert max_abs(got - c * c * v) <= 1e-12 * c * c * path_scale(inc, m, l)


@PROPERTY
@given(panels(), ORDERS, ORDERS,
       st.lists(TIMES, min_size=GRID_BLOCK + 1, max_size=2 * GRID_BLOCK + 3, unique=True))
def test_classical_path_equals_pointwise_bitwise(obs, m, l, grid):
    grid = np.array(sorted(grid))
    path = estimate_path(obs, EstimatorConfig(method="classical", eval_grid=grid, m=m, l=l))
    inc = increments(obs)
    for t, mat in zip(grid, path.matrices):
        np.testing.assert_array_equal(mat, estimate_classical(inc, m, l, t).entries)


# ----------------------------------------------------------------- PSD forms

KERNELS = st.one_of(
    st.sampled_from([KernelParams(family="flat"), KernelParams(family="fejer")]),
    st.builds(KernelParams, family=st.just("cauchy"), gamma=st.floats(0.02, 2.0), wrap=st.booleans()),
    st.builds(KernelParams, family=st.just("gaussian"), l_gauss=st.floats(1.0, 100.0),
              wrap=st.booleans()),
)
PSD_FORMS = ("psd_factorized", "psd_direct")


def psd_pointwise(kernel: KernelParams, m: int):
    """The two PSD forms and the generic reference at one time, by method name."""
    mu = make_measure(kernel, m)
    c = c_from_measure(mu, m)
    spec = generic_spec_from_psd(c)
    return {
        "psd_factorized": lambda inc, t: estimate_psd_factorized(inc, mu, m, t).entries,
        "psd_direct": lambda inc, t: estimate_psd_direct(inc, c, t).entries,
        "generic": lambda inc, t: estimate_generic(inc, spec, t).entries,
    }


def psd_scale(obs: ObservationSet, kernel: KernelParams, m: int) -> float:
    """max|V| of the factorized path over a coarse grid of times."""
    config = EstimatorConfig(method="psd_factorized", eval_grid=np.linspace(0.0, 1.0, 9),
                             m=m, kernel=kernel)
    return max_abs(estimate_path(obs, config).matrices)


def assert_psd(v: np.ndarray) -> None:
    """Symmetric within the PCA gate of 1e-10 max|V|, min eigenvalue >= -1e-10 trace."""
    assert max_abs(v - v.T) <= 1e-10 * max_abs(v)
    assert np.linalg.eigvalsh(v)[0] >= -1e-10 * np.trace(v)


@PROPERTY
@given(panels(), KERNELS, st.integers(1, 4), TIMES)
def test_psd_forms_agree_with_the_generic_reference(obs, kernel, m, t):
    inc = increments(obs)
    fac, direct, generic = (form(inc, t) for form in psd_pointwise(kernel, m).values())
    tol = 1e-10 * max(max_abs(fac), psd_scale(obs, kernel, m))
    assert max_abs(fac - direct) <= tol
    assert max_abs(fac - generic) <= tol
    assert_psd(fac)
    assert_psd(direct)


@PROPERTY
@given(panels(), KERNELS, ORDERS, TIMES, st.sampled_from(PSD_FORMS), st.data())
def test_psd_forms_permute_with_the_assets(obs, kernel, m, t, method, data):
    inc = increments(obs)
    perm = data.draw(st.permutations(range(inc.d)))
    form = psd_pointwise(kernel, m)[method]
    permuted = IncrementTable(assets=tuple(inc.assets[i] for i in perm))
    got = form(permuted, t)
    assert max_abs(got - form(inc, t)[np.ix_(perm, perm)]) <= 1e-12 * psd_scale(obs, kernel, m)


@PROPERTY
@given(panels(), KERNELS, ORDERS, TIMES, st.sampled_from(PSD_FORMS),
       st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)))
def test_psd_forms_scale_with_the_square(obs, kernel, m, t, method, c):
    inc = increments(obs)
    form = psd_pointwise(kernel, m)[method]
    scaled = IncrementTable(assets=tuple(
        AssetIncrements(a.asset_id, a.times, c * a.dx) for a in inc.assets
    ))
    got = form(scaled, t)
    assert max_abs(got - c * c * form(inc, t)) <= 1e-12 * c * c * psd_scale(obs, kernel, m)


@PROPERTY
@given(panels(), KERNELS, ORDERS, st.sampled_from(PSD_FORMS),
       st.lists(TIMES, min_size=GRID_BLOCK + 1, max_size=2 * GRID_BLOCK + 3, unique=True))
def test_psd_path_equals_pointwise_bitwise(obs, kernel, m, method, grid):
    grid = np.array(sorted(grid))
    path = estimate_path(obs, EstimatorConfig(method=method, eval_grid=grid, m=m, kernel=kernel))
    form = psd_pointwise(kernel, m)[method]
    inc = increments(obs)
    for t, mat in zip(grid, path.matrices):
        np.testing.assert_array_equal(mat, form(inc, t))


@PROPERTY
@pytest.mark.parametrize("eps", [1e-3, 1e-9])
@pytest.mark.parametrize("method", PSD_FORMS)
@given(t=st.floats(0.1, 0.9), delta=st.floats(1e-3, 0.05), m=ORDERS)
def test_psd_forms_hold_the_floor_under_cancellation(eps, method, t, delta, m):
    # flat measure: V = w S S^T with S_j = eps D_m(delta) for both assets, trace ~ eps^2
    times = np.array([t - delta, t + delta])
    inc = IncrementTable(assets=(
        AssetIncrements("A1", times, np.array([1.0, -(1.0 - eps)])),
        AssetIncrements("A2", times, np.array([-(1.0 - eps), 1.0])),
    ))
    v = psd_pointwise(KernelParams(family="flat"), m)[method](inc, t)
    exact = 2.0 * (eps * dirichlet_eval(m, delta)) ** 2 / (2 * m + 1)
    assert abs(np.trace(v) - exact) <= 1e-3 * exact
    assert_psd(v)
