import math

import numpy as np
import pytest

from spotvol.market_data import (
    AssetIncrements,
    MarketDataError,
    ObservationSet,
    TickSeries,
    increments,
    load_csv,
    write_csv,
)


def _write(tmp_path, text, name="ticks.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_raw_prices_affine_map_and_log(tmp_path):
    path = _write(
        tmp_path,
        "asset,time,price\n"
        f"X,10,{math.exp(0)}\n"
        f"X,20,{math.exp(1)}\n"
        f"X,30,{math.exp(1)}\n",
    )
    obs = load_csv(path, price_kind="raw")
    s = obs.series[0]
    np.testing.assert_allclose(s.times, [0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(s.values, [0.0, 1.0, 1.0], atol=1e-12)
    assert obs.time_span == 20.0


def test_load_csv_global_span_shared_across_assets(tmp_path):
    path = _write(
        tmp_path,
        "asset,time,price\nA,0,1.0\nA,50,1.1\nA,100,1.2\nB,0,2.0\nB,100,2.2\n",
    )
    obs = load_csv(path, price_kind="log")
    a = obs.series[0]
    assert a.times[1] == 0.5
    assert obs.time_span == 100.0
    # interleaved rows across assets are accepted
    path2 = _write(
        tmp_path,
        "asset,time,price\nA,0,1.0\nB,0,2.0\nA,50,1.1\nB,100,2.2\nA,100,1.2\n",
        name="interleaved.csv",
    )
    obs2 = load_csv(path2, price_kind="log")
    np.testing.assert_array_equal(obs2.series[0].times, a.times)


def test_load_csv_duplicate_timestamp_names_asset_and_time(tmp_path):
    path = _write(tmp_path, "asset,time,price\nA,5,1.0\nA,5,1.1\nA,7,1.2\n")
    with pytest.raises(MarketDataError, match=r"'A'.*duplicate timestamp 5\.0"):
        load_csv(path)


def test_load_csv_rejects_out_of_order_rows(tmp_path):
    path = _write(tmp_path, "asset,time,price\nA,5,1.0\nA,7,1.1\nA,6,1.2\n")
    with pytest.raises(MarketDataError, match="strictly increasing"):
        load_csv(path)


def test_load_csv_rejects_nonpositive_raw_price(tmp_path):
    path = _write(tmp_path, "asset,time,price\nA,1,1.0\nA,2,-0.5\n")
    with pytest.raises(MarketDataError, match="non-positive raw price"):
        load_csv(path, price_kind="raw")
    # the same file is fine as log-prices
    load_csv(path, price_kind="log")


def test_load_csv_rejects_single_tick_asset(tmp_path):
    path = _write(tmp_path, "asset,time,price\nA,1,1.0\nA,2,1.1\nB,1.5,2.0\n")
    with pytest.raises(MarketDataError, match="'B'.*at least 2 ticks"):
        load_csv(path)


def test_load_csv_rejects_bad_header_and_empty(tmp_path):
    with pytest.raises(MarketDataError, match="header"):
        load_csv(_write(tmp_path, "a,b,c\n1,2,3\n"))
    with pytest.raises(MarketDataError, match="no data rows"):
        load_csv(_write(tmp_path, "asset,time,price\n", name="empty.csv"))


def test_normalization_idempotent_via_roundtrip(tmp_path):
    path = _write(
        tmp_path,
        "asset,time,price\nA,3,0.1\nA,9,0.4\nA,15,0.2\nB,3,1.0\nB,10,0.9\nB,15,1.3\n",
    )
    obs1 = load_csv(path)
    out = tmp_path / "rt.csv"
    write_csv(obs1, out)
    obs2 = load_csv(out)
    for s1, s2 in zip(obs1.series, obs2.series):
        np.testing.assert_array_equal(s1.times, s2.times)
        np.testing.assert_array_equal(s1.values, s2.values)
    # already-normalized spans stay put: renormalizing is the identity
    assert obs2.series[0].times[0] == 0.0
    assert obs2.series[0].times[-1] == 1.0


def test_normalization_preserves_order(rng, tmp_path):
    raw = np.unique(rng.random(40)) * 1000.0 + 50.0
    rows = "\n".join(f"A,{float(t)!r},{float(p)!r}" for t, p in zip(raw, rng.random(raw.size) + 1.0))
    path = _write(tmp_path, "asset,time,price\n" + rows + "\n")
    obs = load_csv(path)
    normed = obs.series[0].times
    assert np.all(np.diff(normed) > 0.0)
    assert normed[0] == 0.0 and normed[-1] == 1.0
    # order statistics survive the affine map
    assert np.array_equal(np.argsort(normed), np.argsort(raw))


def test_increments_values_and_telescoping():
    s = TickSeries("A", np.array([0.0, 0.4, 1.0]), np.array([0.0, 1.0, 1.0]))
    table = increments(ObservationSet(series=(s,)))
    np.testing.assert_array_equal(table.assets[0].dx, [1.0, 0.0])
    np.testing.assert_array_equal(table.assets[0].times, [0.4, 1.0])

    s2 = TickSeries("B", np.array([0.0, 0.3, 0.7, 1.0]), np.array([2.0, 2.0, 2.0, 2.0]))
    table2 = increments(ObservationSet(series=(s2,)))
    assert np.all(table2.assets[0].dx == 0.0)

    s3 = TickSeries("C", np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.3, 0.1]))
    dx = increments(ObservationSet(series=(s3,))).assets[0].dx
    np.testing.assert_allclose(dx, [0.3, -0.2])
    assert abs(dx.sum() - (0.1 - 0.0)) <= 1e-12 * 0.3


def test_telescoping_property(rng):
    for _ in range(25):
        n = int(rng.integers(2, 60))
        times = np.unique(rng.random(n + 1))
        values = np.cumsum(rng.standard_normal(times.size)) * 10.0
        s = TickSeries("A", times, values)
        dx = increments(ObservationSet(series=(s,))).assets[0].dx
        scale = np.max(np.abs(values))
        assert abs(dx.sum() - (values[-1] - values[0])) <= 1e-12 * max(scale, 1.0)


def test_tick_series_validation():
    with pytest.raises(MarketDataError, match="strictly increasing"):
        TickSeries("A", np.array([0.0, 0.5, 0.5]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(MarketDataError, match="at least 2"):
        TickSeries("A", np.array([0.3]), np.array([1.0]))
    with pytest.raises(MarketDataError, match="finite"):
        TickSeries("A", np.array([0.0, 1.0]), np.array([1.0, np.inf]))
    with pytest.raises(MarketDataError, match=r"\[0, 1\]"):
        TickSeries("A", np.array([0.0, 1.5]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("times, dx, match", [
    ([0.2, 0.5, 1.0], [0.1, -0.2], "equal length"),
    ([[0.2, 0.5]], [[0.1, -0.2]], "1-d"),
    ([0.2, np.nan], [0.1, -0.2], "finite"),
    ([0.2, 0.5], [0.1, np.inf], "finite"),
])
def test_asset_increments_validation(times, dx, match):
    with pytest.raises(MarketDataError, match=f"B7: .*{match}"):
        AssetIncrements("B7", np.array(times), np.array(dx))


def test_asset_increments_accept_unsorted_times():
    inc = AssetIncrements("B7", [0.5, 0.2], [1, -2])
    assert inc.times.dtype == float and inc.dx.dtype == float


def test_observation_set_validation():
    s = TickSeries("A", np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(MarketDataError, match="unique"):
        ObservationSet(series=(s, s))
    with pytest.raises(MarketDataError, match="at least one"):
        ObservationSet(series=())
