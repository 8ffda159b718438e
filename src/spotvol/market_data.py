"""Tick observations: ingestion, validation, and the package's one CSV row writer.

Each asset carries its own strictly increasing observation times; nothing is
aligned or interpolated. Timestamps are mapped onto [0, 1] with one global
affine transformation (per-asset scaling would distort cross terms), and all
estimation happens in normalized time. Assets whose first or last tick does
not touch the global endpoints keep interior times; the estimators only use
sums over increments, so that is well defined.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

PRICE_KINDS = ("log", "raw")
TICK_HEADER = ("asset", "time", "price")  # columns of the long tick format
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")  # np.loadtxt opens these decompressing


class MarketDataError(ValueError):
    """Raised when tick input fails validation."""


@dataclass(frozen=True)
class TickSeries:
    """One asset's observation times in [0, 1] and log-price values."""

    asset_id: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise MarketDataError(f"{self.asset_id}: times and values must be 1-d of equal length")
        if times.size < 2:
            raise MarketDataError(f"{self.asset_id}: at least 2 ticks are required")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise MarketDataError(f"{self.asset_id}: times and values must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise MarketDataError(f"{self.asset_id}: times must be strictly increasing")
        if times[0] < 0.0 or times[-1] > 1.0:
            raise MarketDataError(f"{self.asset_id}: times must lie in [0, 1]")

    @property
    def n_increments(self) -> int:
        return int(self.times.size - 1)


@dataclass(frozen=True)
class ObservationSet:
    """A panel of tick series on a common normalized time interval.

    time_span is the original real-world duration; output of the estimators
    is variance per unit of normalized time and can be rescaled by
    1/time_span for per-real-time units.
    """

    series: tuple[TickSeries, ...]
    time_span: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "series", tuple(self.series))
        if not self.series:
            raise MarketDataError("observation set must contain at least one asset")
        ids = [s.asset_id for s in self.series]
        if len(set(ids)) != len(ids):
            raise MarketDataError("asset ids must be unique")
        if not self.time_span > 0.0:
            raise MarketDataError("time_span must be positive")

    @property
    def d(self) -> int:
        return len(self.series)

    @property
    def asset_ids(self) -> tuple[str, ...]:
        return tuple(s.asset_id for s in self.series)


@dataclass(frozen=True)
class AssetIncrements:
    """Per-asset first differences paired with their right-endpoint times."""

    asset_id: str
    times: np.ndarray  # t_l for l = 1..N
    dx: np.ndarray     # value[l] - value[l-1]

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        dx = np.asarray(self.dx, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "dx", dx)
        if times.ndim != 1 or dx.ndim != 1 or times.size != dx.size:
            raise MarketDataError(f"{self.asset_id}: times and dx must be 1-d of equal length")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(dx)):
            raise MarketDataError(f"{self.asset_id}: times and dx must be finite")


@dataclass(frozen=True)
class IncrementTable:
    """Increment series for every asset of an observation set."""

    assets: tuple[AssetIncrements, ...]

    @property
    def d(self) -> int:
        return len(self.assets)

    @property
    def asset_ids(self) -> tuple[str, ...]:
        return tuple(a.asset_id for a in self.assets)


def increments(obs: ObservationSet) -> IncrementTable:
    """Exact first differences of the log-prices, keyed by right endpoints."""
    return IncrementTable(
        assets=tuple(
            AssetIncrements(asset_id=s.asset_id, times=s.times[1:].copy(), dx=np.diff(s.values))
            for s in obs.series
        )
    )


def load_csv(path, price_kind: str = "log") -> ObservationSet:
    """Load long-format tick data: header ``asset,time,price``.

    Rows must be sorted by time within each asset (any interleaving across
    assets is fine). Timestamps are normalized to [0, 1] with the global
    minimum and maximum over all assets; the original span is recorded as
    time_span. With ``price_kind="raw"`` prices must be positive and are
    log-transformed; with ``"log"`` the price column is taken as is.

    The file is parsed in one pass of numpy's C reader, which ``np.loadtxt``
    feeds in blocks from the path; its rows are grouped by asset with one
    stable sort of the ids, and each asset's ``TickSeries`` checks its ticks.
    A ``path`` that is not a ``str`` or ``os.PathLike`` (an open file
    descriptor, say), a name ending in one of ``COMPRESSED_SUFFIXES`` or
    holding ``://``, and any file that fails a check or looks unusual, are
    read by the row parser, which gives the same result on valid input and
    alone raises, naming the file and line.
    """
    if price_kind not in PRICE_KINDS:
        raise MarketDataError(f"price_kind must be 'log' or 'raw', got {price_kind!r}")
    obs = _load_fast(path, price_kind)
    return obs if obs is not None else _load_rows(path, price_kind)


def _load_fast(path, price_kind: str) -> ObservationSet | None:
    """The row parser's result from ``np.loadtxt``, or None where it must decide.

    numpy parses in C blocks only when it is given the path, and it picks its
    opener by that path: it would decompress a name ending in one of
    ``COMPRESSED_SUFFIXES`` and may fetch one holding ``://`` as a URL. Such
    a name, or a ``path`` that is not a ``str`` or ``os.PathLike`` naming a
    ``str``, falls back before anything is opened.

    A prescan by its own handle checks the header. Input that cannot be read
    twice, such as a pipe, falls back before a byte of it is read. Ids are
    read as 16-byte latin-1 fields: an id that may have been cut short falls
    back, and so does a file holding a NUL, which such a field would drop
    from the end of an id. A blank body falls back before ``loadtxt``, which
    warns on it. An error opening the file propagates, as it would from the
    row parser.

    One stable sort of the ids groups the rows by asset; ``TickSeries`` and
    ``ObservationSet`` alone check the ticks, and any error they raise falls back.
    """
    name = os.fspath(path) if isinstance(path, os.PathLike) else path
    if not isinstance(name, str) or name.endswith(COMPRESSED_SUFFIXES) or "://" in name:
        return None
    try:
        with open(name, newline="", encoding="utf-8") as fh:
            if not fh.seekable():
                return None
            if fh.readline() != ",".join(TICK_HEADER) + "\n":
                return None
            blank = True
            for chunk in iter(lambda: fh.read(1 << 16), ""):
                if "\0" in chunk:
                    return None
                blank = blank and chunk.isspace()
        if blank:
            return None
        rows = np.loadtxt(name, skiprows=1, encoding="utf-8", delimiter=",", comments=None,
                          ndmin=1, dtype=[("a", "S16"), ("t", float), ("p", float)])
    except ValueError:
        return None
    order = np.argsort(rows["a"], kind="stable")  # ids grouped, file order kept within each
    ids = rows["a"][order]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    ends = np.append(starts[1:], ids.size)
    rank = np.argsort(order[starts])  # assets in order of first appearance
    starts, ends = starts[rank], ends[rank]
    ids = ids[starts]
    names = [i.decode("latin-1") for i in ids]
    if any(len(i) >= ids.itemsize or not n or n != n.strip() or '"' in n
           for i, n in zip(ids, names)):
        return None
    times, prices = rows["t"][order], rows["p"][order]
    del rows, order  # the peak is one parse, its sort order and the output
    if price_kind == "raw" and not (prices > 0.0).all():
        return None
    # min and max over the assets' end ticks in the row parser's order: same zero sign
    t_min = min(times[starts].tolist())
    span = max(times[ends - 1].tolist()) - t_min
    if not 0.0 < span < math.inf:
        return None
    # an out-of-order tick may overflow here; TickSeries rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        times -= t_min
        times /= span
    if price_kind == "raw":
        np.log(prices, out=prices)
    try:  # strictly increasing after the monotone map implies it before
        series = tuple(TickSeries(n, times[a:b], prices[a:b]) for n, a, b in zip(names, starts, ends))
        return ObservationSet(series=series, time_span=span)
    except MarketDataError:
        return None


def _load_rows(path, price_kind: str) -> ObservationSet:
    """The row-by-row reader: the reference for ``load_csv`` and its error path."""
    order: list[str] = []
    raw_times: dict[str, list[float]] = {}
    raw_prices: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TICK_HEADER:
            raise MarketDataError(f"{path}: expected header '{','.join(TICK_HEADER)}', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise MarketDataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            asset = row[0].strip()
            if not asset:
                raise MarketDataError(f"{path}:{lineno}: empty asset id")
            try:
                t = float(row[1])
                p = float(row[2])
            except ValueError as exc:
                raise MarketDataError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(t) and math.isfinite(p)):
                raise MarketDataError(f"{path}:{lineno}: non-finite time or price")
            if asset not in raw_times:
                order.append(asset)
                raw_times[asset] = []
                raw_prices[asset] = []
            prev = raw_times[asset]
            if prev:
                if t == prev[-1]:
                    raise MarketDataError(f"asset {asset!r}: duplicate timestamp {t!r}")
                if t < prev[-1]:
                    raise MarketDataError(
                        f"asset {asset!r}: timestamps must be strictly increasing "
                        f"(got {t!r} after {prev[-1]!r})"
                    )
            prev.append(t)
            raw_prices[asset].append(p)
    if not order:
        raise MarketDataError(f"{path}: no data rows")
    for asset in order:
        if len(raw_times[asset]) < 2:
            raise MarketDataError(f"asset {asset!r}: at least 2 ticks are required")
        if price_kind == "raw":
            bad = [p for p in raw_prices[asset] if p <= 0.0]
            if bad:
                raise MarketDataError(f"asset {asset!r}: non-positive raw price {bad[0]!r}")
    t_min = min(ts[0] for ts in raw_times.values())
    t_max = max(ts[-1] for ts in raw_times.values())
    span = t_max - t_min  # positive: every asset has two strictly increasing ticks
    if not span < math.inf:
        raise MarketDataError(f"{path}: time span from {t_min!r} to {t_max!r} is not finite")
    series = []
    for asset in order:
        times = (np.asarray(raw_times[asset]) - t_min) / span
        collapsed = np.flatnonzero(np.diff(times) <= 0.0)
        if collapsed.size:
            i = int(collapsed[0])
            raise MarketDataError(
                f"{path}: asset {asset!r}: times {raw_times[asset][i]!r} and "
                f"{raw_times[asset][i + 1]!r} coincide once normalized to [0, 1]"
            )
        values = np.asarray(raw_prices[asset])
        if price_kind == "raw":
            values = np.log(values)
        series.append(TickSeries(asset_id=asset, times=times, values=values))
    return ObservationSet(series=tuple(series), time_span=span)


def write_rows(path, header, rows) -> None:
    """Write the header, then a line per row of a 2-d float array; floats by repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in rows)


def write_csv(obs: ObservationSet, path) -> None:
    """Write an observation set in the long tick format (prices as log-prices).

    Round-trips through ``load_csv(..., price_kind="log")``: once the global
    tick span is exactly [0, 1], renormalizing is the identity. Floats are
    written by ``repr``, taken over each column at once, and each asset's
    rows are joined into one string, so memory follows the largest asset.
    """
    def block(s: TickSeries) -> str:
        field = io.StringIO()  # the id as in a full row, so one holding a newline is quoted
        csv.writer(field, lineterminator="\n").writerow([s.asset_id, ""])
        prefix = field.getvalue()[:-1]
        cols = zip(map(repr, s.times.tolist()), map(repr, s.values.tolist()))
        return "".join([f"{prefix}{t},{v}\n" for t, v in cols])

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TICK_HEADER) + "\n")
        fh.writelines(map(block, obs.series))
