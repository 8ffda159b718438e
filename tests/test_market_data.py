import csv
import math
import os
import tracemalloc

import numpy as np
import pytest

from spotvol import market_data
from spotvol.estimator import EstimationError, EstimatorConfig, VolPath
from spotvol.kernels import KernelParams
from spotvol.market_data import (
    AssetIncrements,
    MarketDataError,
    ObservationSet,
    TickSeries,
    increments,
    load_csv,
    write_csv,
)
from spotvol.spectral import EigenReport, PcaPath


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


def test_load_csv_rejects_a_time_span_that_overflows(tmp_path):
    path = _write(tmp_path, "asset,time,price\nA,-1e308,1\nA,1e308,2\n")
    with pytest.raises(MarketDataError, match=r"ticks\.csv: time span .* is not finite"):
        load_csv(path)


def test_load_csv_rejects_an_out_of_order_tick_whose_shift_overflows(tmp_path):
    # the span is finite, but 1e308 - (-1e308) is not: no overflow warning before the fallback
    path = _write(tmp_path, "asset,time,price\nA,-1e308,1\nA,1e308,2\nA,0,3\n")
    assert market_data._load_fast(path, "log") is None
    with pytest.raises(MarketDataError, match="strictly increasing"):
        load_csv(path)


def test_load_csv_rejects_times_that_collapse_when_normalized(tmp_path):
    # strictly increasing raw times, but 5e-324 / 2 rounds to 0
    path = _write(tmp_path, "asset,time,price\nA,0,1\nA,5e-324,2\nA,2,3\n")
    with pytest.raises(MarketDataError,
                       match=r"ticks\.csv: asset 'A': times 0\.0 and 5e-324 coincide"):
        load_csv(path)


def test_load_csv_names_the_line_of_a_non_numeric_field(tmp_path):
    path = _write(tmp_path, "asset,time,price\nA,abc,1\nA,1,2\n")
    with pytest.raises(MarketDataError, match=r"ticks\.csv:2: could not convert string to float: 'abc'"):
        load_csv(path)


@pytest.mark.parametrize("last, match", [
    ("A,abc,1", r"could not convert string to float: 'abc'"),
    ("A,1", r"expected 3 columns, got 2"),
], ids=["bad float", "short row"])
def test_load_csv_numbers_rows_by_physical_line(tmp_path, last, match):
    # each quoted "d\ne" id spans two lines, so the last row is on line 6, not record 4
    path = _write(tmp_path, f'asset,time,price\n"d\ne",0,1\n"d\ne",1,2\n{last}\n', name="q.csv")
    with pytest.raises(MarketDataError, match=rf"q\.csv:6: {match}$"):
        load_csv(path)


@pytest.mark.parametrize("body, price_kind, match", [
    ("A,5,1.0\nA,5,1.1\nA,7,1.2\n", "log", r"ticks\.csv:3: asset 'A': duplicate timestamp 5\.0$"),
    ("A,5,1.0\nA,7,1.1\nA,6,1.2\n", "log",
     r"ticks\.csv:4: asset 'A': timestamps must be strictly increasing \(got 6\.0 after 7\.0\)$"),
    ("A,1,1.0\nA,2,1.1\nB,1.5,2.0\n", "log", r"ticks\.csv: asset 'B': at least 2 ticks are required$"),
    ("A,1,1.0\nA,2,-0.5\n", "raw", r"ticks\.csv: asset 'A': non-positive raw price -0\.5$"),
], ids=["duplicate time", "time out of order", "one tick", "non-positive raw price"])
def test_load_csv_errors_name_the_file(tmp_path, body, price_kind, match):
    path = _write(tmp_path, "asset,time,price\n" + body)
    with pytest.raises(MarketDataError, match=match) as info:
        load_csv(path, price_kind)
    assert str(info.value).startswith(f"{path}:")


@pytest.mark.parametrize("body, match", [
    ("A,nan,1.0\nA,1,1.1\nB,0,2.0\nB,2,2.1\n", r"ticks\.csv:2: non-finite"),
    ("A,0,1.0\nA,2,1.1\nB,nan,2.0\nB,1,2.1\n", r"ticks\.csv:4: non-finite"),
    ("A,0,1.0\nB,1,2.0\nA,2,1.1\nB,inf,2.1\n", r"ticks\.csv:5: non-finite"),
    ("A,0,1.0\nB,1,2.0\nA,2,1.1\n", r"'B'.*at least 2 ticks"),
    ("A,0,1.0\nA,1\nA,2,1.1\n", r"ticks\.csv:3: expected 3 columns, got 2$"),
], ids=["nan first tick of the first asset", "nan first tick", "inf last tick", "one tick",
        "short row"])
def test_load_csv_leaves_what_tick_series_rejects_to_the_row_parser(tmp_path, body, match):
    path = _write(tmp_path, "asset,time,price\n" + body)
    assert market_data._load_fast(path, "log") is None
    with pytest.raises(MarketDataError, match=match):
        load_csv(path)


TWO_ASSETS = "asset,time,price\nA,0,1.5\nB,1,2.0\nA,2,1.25\nB,3,2.5\nA,4,1.75\n"


def loaded(obs):
    return obs.time_span, [(s.asset_id, s.times.tobytes(), s.values.tobytes()) for s in obs.series]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_load_csv_reads_a_plain_file_with_a_compressed_suffix_by_the_row_parser(tmp_path, suffix):
    # np.loadtxt would open such a name through a decompressor
    path = _write(tmp_path, TWO_ASSETS, name="ticks.csv" + suffix)
    assert market_data._load_fast(path, "log") is None
    assert loaded(load_csv(path)) == loaded(market_data._load_rows(path, "log"))


def test_load_csv_reads_a_name_like_a_url_by_the_row_parser(tmp_path, monkeypatch):
    # np.loadtxt would fetch such a name as a URL although a local file has it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file:" / "localhost").mkdir(parents=True)
    name = "file://localhost/ticks.csv"
    (tmp_path / name).write_text(TWO_ASSETS, encoding="utf-8")
    assert market_data._load_fast(name, "log") is None
    assert loaded(load_csv(name)) == loaded(market_data._load_rows(name, "log"))


def test_load_csv_gives_one_result_for_a_path_a_str_and_a_file_descriptor(tmp_path):
    path = _write(tmp_path, TWO_ASSETS)
    want = loaded(market_data._load_rows(path, "raw"))
    assert market_data._load_fast(str(path), "raw") is not None
    assert loaded(load_csv(path, "raw")) == loaded(load_csv(str(path), "raw")) == want
    fd = os.open(path, os.O_RDONLY)  # the row parser reads it, and closes it
    assert market_data._load_fast(fd, "raw") is None
    assert loaded(load_csv(fd, "raw")) == want



def test_load_csv_hands_np_loadtxt_a_str_path(tmp_path, monkeypatch):
    # np.loadtxt parses in C blocks only from a path; a handle it reads line by line
    first_args = []

    def spy(fname, *args, **kwargs):
        first_args.append(fname)
        return loadtxt(fname, *args, **kwargs)

    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", spy)
    path = _write(tmp_path, TWO_ASSETS)
    assert loaded(load_csv(path)) == loaded(market_data._load_rows(path, "log"))
    assert len(first_args) == 1 and type(first_args[0]) is str


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_load_csv_reads_a_pipe_by_the_row_parser(tmp_path):
    # the fast path must not read a byte of input it cannot read twice
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, TWO_ASSETS.encode())
        os.close(write_end)  # the pipe is complete, so no read blocks
        name = f"/proc/self/fd/{read_end}"
        assert market_data._load_fast(name, "raw") is None
        assert loaded(load_csv(name, "raw")) == loaded(load_csv(_write(tmp_path, TWO_ASSETS), "raw"))
    finally:
        os.close(read_end)


def test_load_csv_rejects_an_unknown_price_kind(tmp_path):
    with pytest.raises(MarketDataError, match=r"^price_kind must be 'log' or 'raw', got 'bad'$"):
        load_csv(_write(tmp_path, TWO_ASSETS), price_kind="bad")


def test_load_csv_peak_memory_is_a_few_times_its_output(rng, tmp_path):
    # one structured parse (32 B a row), its sort order (8 B) and the output (16 B)
    series = []
    for j in range(3):
        times = np.concatenate([[0.0], np.sort(rng.random(20_000)), [1.0]])
        series.append(TickSeries(f"A{j + 1}", times, np.cumsum(rng.standard_normal(times.size))))
    path = tmp_path / "panel.csv"
    write_csv(ObservationSet(series=tuple(series)), path)
    tracemalloc.start()
    try:
        obs = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.times.size for s in obs.series) >= 50_000
    assert peak <= 4 * sum(s.times.nbytes + s.values.nbytes for s in obs.series)


def per_row_csv(obs, path):
    """The tick file written one ``writerow`` call per tick."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["asset", "time", "price"])
        for s in obs.series:
            for t, v in zip(s.times, s.values):
                writer.writerow([s.asset_id, repr(float(t)), repr(float(v))])


def test_write_csv_bytes_match_the_per_row_writer_and_round_trip(rng, tmp_path):
    ids = ('A,"x', "B", " c", "d\ne")  # a comma, a quote and a newline force csv quoting
    series = []
    for j, asset in enumerate(ids):
        times = np.unique(np.concatenate([[0.0, 1.0], rng.random(5 + j)]))
        series.append(TickSeries(asset, times, rng.standard_normal(times.size) * 10.0 ** (3 * j)))
    obs = ObservationSet(series=tuple(series))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(obs, got)
    per_row_csv(obs, want)
    assert got.read_bytes() == want.read_bytes()
    assert b'"A,""x"' in got.read_bytes() and b'"d\ne"' in got.read_bytes()
    back = load_csv(got)
    assert back.asset_ids == ('A,"x', "B", "c", "d\ne")  # the reader strips ids
    for s, r in zip(obs.series, back.series):
        np.testing.assert_array_equal(r.times, s.times)
        np.testing.assert_array_equal(r.values, s.values)


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
    for times, values in (([0.0, 0.5, 1.0], [1.0, 2.0]), ([[0.0, 1.0]], [[1.0, 2.0]])):
        with pytest.raises(MarketDataError, match="A: times and values must be 1-d of equal length"):
            TickSeries("A", np.array(times), np.array(values))


# each time axis of the package: how to build it on given times, its error class and its prefix
TIME_AXES = {
    "tick-series": (lambda t: TickSeries("A", t, np.zeros(t.size)), MarketDataError, "A: "),
    "estimator-config": (lambda t: EstimatorConfig("psd_factorized", t, kernel=KernelParams("gaussian")),
                         EstimationError, ""),
    "vol-path": (lambda t: VolPath(t, np.ones((t.size, 1, 1)), ("A",)), EstimationError, ""),
    "pca-path": (lambda t: PcaPath(tuple(EigenReport(x, np.ones(1), np.ones(1)) for x in t)),
                 ValueError, "report "),
}


@pytest.mark.parametrize("times, message", [
    ([], "times must be a nonempty 1-d array"),
    ([np.nan, 0.5], "non-finite time nan: times must be finite and lie in [0, 1]"),
    ([0.2, 1.5], "out-of-range time 1.5: times must be finite and lie in [0, 1]"),
    ([0.5, 0.5], "times must be strictly increasing, got 0.5 after 0.5"),
], ids=["empty", "nan", "out-of-range", "repeated"])
@pytest.mark.parametrize("axis", TIME_AXES)
def test_every_time_axis_follows_the_one_rule_with_its_own_error(axis, times, message):
    build, error, prefix = TIME_AXES[axis]
    with pytest.raises(error) as caught:
        build(np.array(times, dtype=float))
    assert type(caught.value) is error
    assert str(caught.value) == prefix + message


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
    for span in (0.0, -1.0, np.nan):
        with pytest.raises(MarketDataError, match="time_span must be positive"):
            ObservationSet(series=(s,), time_span=span)
