"""Property tests for the estimator forms on random asynchronous panels.

Panels hold 1 to 4 assets, each with 2 to 40 ticks that include exactly 0 and
1, and the orders M, L range over 1..8, so both M >= N and M + L >> N occur.
The PSD forms are drawn with every measure family, the continuous ones also
periodized. Tick ingest is checked on generated tick files: ``load_csv``
against its row parser on clean and mutated files, and the price and time
scalings the reading must not see. Examples are derandomized, so every run
draws the same panels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvol import market_data
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


# ----------------------------------------------------------------- tick ingest

ID_CHARS = "ABXYZabz019_.-é"


@st.composite
def tick_files(draw, lo=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
               span=st.floats(1e-3, 1e3)) -> list[list[str]]:
    """Rows of a tick file: 1 to 4 assets interleaved, ticks at the global endpoints.

    Times are lo + span k / 1000 for integers k in [0, 1000], so they stay
    distinct once normalized. The first asset holds both ends, k = 0 and
    1000; the others hold each end or not. Prices are positive, so the rows
    read under both price kinds.
    """
    lo, span = draw(lo), draw(span)
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=6), min_size=1, max_size=4,
                        unique=True))
    ticks = []
    for j, asset in enumerate(ids):
        steps = set(draw(st.lists(st.integers(1, 999), max_size=10)))
        steps |= {0, 1000} if j == 0 else {k for k in (0, 1000) if draw(st.booleans())}
        if len(steps) < 2:
            steps = {0, 1000}
        times = [lo + span * k / 1000 for k in sorted(steps)]
        prices = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(times), max_size=len(times)))
        ticks.append([[asset, repr(t), repr(p)] for t, p in zip(times, prices)])
    # interleave: the k-th appearance of asset j in the drawn order is its k-th tick
    slots = draw(st.permutations([j for j, rows in enumerate(ticks) for _ in rows]))
    per_asset = [iter(rows) for rows in ticks]
    return [next(per_asset[j]) for j in slots]


def tick_text(rows: list[list[str]], newline: str = "\n") -> str:
    return newline.join(["asset,time,price", *(",".join(r) for r in rows)]) + newline


def read_outcome(reader, path, price_kind):
    """The observation set as bytes, or the type and message of the error."""
    try:
        obs = reader(path, price_kind)
    except Exception as exc:  # any error must be the row parser's own
        return type(exc), str(exc)
    return obs.time_span, [(s.asset_id, s.times.tobytes(), s.values.tobytes()) for s in obs.series]


# id changes apply to every row of the chosen row's asset
ID_MUTATIONS = {
    "empty id": lambda a: "",
    "id with a space": lambda a: " " + a,
    "id with an inner space": lambda a: a[:1] + " " + a[1:],
    "quoted id": lambda a: f'"{a}"',
    "# in an id": lambda a: a + "#1",
    "id of 20 characters": lambda a: (a * 20)[:20],
    "NUL ending an id": lambda a: a + "\0",
}


def mutate(rows: list[list[str]], i: int, name: str) -> str:
    rows = [list(r) for r in rows]
    row = rows[i]
    if name in ID_MUTATIONS:
        asset = row[0]
        for r in rows:
            if r[0] == asset:
                r[0] = ID_MUTATIONS[name](asset)
    elif name == "-0.0 for one asset":
        for r in rows:
            if r[0] == row[0] and r[1] == "0.0":
                r[1] = "-0.0"
    elif name == "duplicate time":
        rows.insert(i + 1, list(row))
    elif name == "time out of order":
        rows.append(rows.pop(i))
    elif name in ("nan time", "inf price"):
        row[1 if name == "nan time" else 2] = name.split()[0]
    elif name == "2 columns":
        del row[2]
    elif name == "4 columns":
        row.append("1.0")
    elif name == "one-tick asset":
        rows.insert(i, ["Z9", row[1], row[2]])
    elif name == "price <= 0":
        row[2] = "0.0" if i % 2 else "-" + row[2]
    elif name == "blank line":
        rows.insert(i, [])
    elif name == "1_0 price":
        row[2] = "1_0"
    elif name == "full-width digit":
        row[2] = "１"
    elif name == "CRLF":
        return tick_text(rows, "\r\n")
    return tick_text(rows)


MUTATIONS = (*ID_MUTATIONS, "-0.0 for one asset", "duplicate time", "time out of order",
             "nan time", "inf price", "2 columns", "4 columns", "one-tick asset", "price <= 0",
             "blank line", "1_0 price", "full-width digit", "CRLF")


@pytest.fixture(scope="module")
def tick_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ticks")


@PROPERTY
@given(tick_files())
def test_load_csv_reads_clean_files_by_the_fast_path(tick_dir, rows):
    path = tick_dir / "clean.csv"
    path.write_bytes(tick_text(rows).encode("utf-8"))
    for price_kind in ("log", "raw"):
        assert market_data._load_fast(path, price_kind) is not None
        want = read_outcome(market_data._load_rows, path, price_kind)
        assert read_outcome(market_data.load_csv, path, price_kind) == want


@settings(PROPERTY, max_examples=20)
@pytest.mark.parametrize("mutation", MUTATIONS)
@given(rows=tick_files(), data=st.data())
def test_load_csv_matches_the_row_parser_on_mutated_files(tick_dir, mutation, rows, data):
    path = tick_dir / "mutated.csv"
    i = data.draw(st.integers(0, len(rows) - 1))
    path.write_bytes(mutate(rows, i, mutation).encode("utf-8"))
    for price_kind in ("log", "raw"):
        want = read_outcome(market_data._load_rows, path, price_kind)
        assert read_outcome(market_data.load_csv, path, price_kind) == want


def rescaled(rows: list[list[str]], time=lambda t: t, price=lambda p: p) -> str:
    return tick_text([[a, repr(time(float(t))), repr(price(float(p)))] for a, t, p in rows])


@PROPERTY
@given(tick_files(), st.sampled_from([1e-8, 1e8]))
def test_raw_price_scale_leaves_log_increments_and_the_path(tick_dir, rows, c):
    base, scaled = tick_dir / "base.csv", tick_dir / "scaled.csv"
    base.write_text(rescaled(rows), encoding="utf-8")
    scaled.write_text(rescaled(rows, price=lambda p: c * p), encoding="utf-8")
    obs, obs_c = (market_data.load_csv(f, price_kind="raw") for f in (base, scaled))
    dx, dx_c = (np.concatenate([a.dx for a in increments(o).assets]) for o in (obs, obs_c))
    assert max_abs(dx_c - dx) <= 1e-10 * max_abs(dx)
    config = EstimatorConfig(method="psd_factorized", eval_grid=np.linspace(0.0, 1.0, 9), m=4,
                             kernel=KernelParams(family="gaussian", l_gauss=9.0))
    v, v_c = (estimate_path(o, config).matrices for o in (obs, obs_c))
    assert max_abs(v_c - v) <= 1e-10 * max_abs(v)


# times k/1000 of [0, 1]: |c t + b| stays within 2c, so the map costs a few ulp of [0, 1]
AFFINE = (st.floats(1e-3, 1e3), st.floats(-1.0, 1.0))


@PROPERTY
@given(tick_files(lo=st.just(0.0), span=st.just(1.0)), *AFFINE)
def test_affine_time_change_leaves_normalized_times(tick_dir, rows, c, shift):
    base, moved = tick_dir / "base.csv", tick_dir / "moved.csv"
    base.write_text(rescaled(rows), encoding="utf-8")
    moved.write_text(rescaled(rows, time=lambda t: c * t + c * shift), encoding="utf-8")
    obs, obs_c = market_data.load_csv(base), market_data.load_csv(moved)
    assert abs(obs_c.time_span - c * obs.time_span) <= 1e-15 * c * obs.time_span
    for s, s_c in zip(obs.series, obs_c.series):
        assert max_abs(s_c.times - s.times) <= 1e-15
        np.testing.assert_array_equal(s_c.values, s.values)


@settings(PROPERTY, max_examples=25)
@given(tick_files(lo=st.just(0.0), span=st.just(1.0)), *AFFINE)
def test_per_real_time_output_scales_with_the_time_unit(tick_dir, rows, c, shift):
    from spotvol.cli import main

    base, moved = tick_dir / "base.csv", tick_dir / "moved.csv"
    base.write_text(rescaled(rows), encoding="utf-8")
    moved.write_text(rescaled(rows, time=lambda t: c * t + c * shift), encoding="utf-8")
    out = []
    for ticks in (base, moved):
        vol = ticks.with_suffix(".vol.csv")
        assert main(["estimate", "--input", str(ticks), "--M", "3", "--grid", "5",
                     "--per-real-time", "--out", str(vol)]) == 0
        out.append(np.loadtxt(vol, delimiter=",", skiprows=1, ndmin=2)[:, 1:])
    assert max_abs(out[1] - out[0] / c) <= 1e-10 * max_abs(out[0]) / c
