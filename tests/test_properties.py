"""Property tests for the classical kernel-product form on random asynchronous panels.

Panels hold 1 to 4 assets, each with 2 to 40 ticks that include exactly 0 and
1, and the orders M, L range over 1..8, so both M >= N and M + L >> N occur.
Examples are derandomized, so every run draws the same panels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvol.estimator import GRID_BLOCK, EstimatorConfig, estimate_classical, estimate_path
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
