"""Tick observations: ingestion, validation, and the package's one CSV row reader and writer.

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
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .kernels import require_finite, require_scalar

PRICE_KINDS = ("log", "raw")
TICK_HEADER = ("asset", "time", "price")  # columns of the long tick format
COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")  # np.loadtxt opens these decompressing


class MarketDataError(ValueError):
    """Raised when tick input fails validation."""


def require_times(times, error, prefix: str = "") -> np.ndarray:
    """``times`` as a float array, if nonempty, 1-d, in [0, 1] and strictly increasing.

    The one time-axis rule: of tick series, grids, vol matrices, vol and PCA paths. A breach
    raises ``error``, its message led by ``prefix`` and naming the first bad time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise error(f"{prefix}times must be a nonempty 1-d array")
    steps = np.diff(times)
    if times[0] >= 0.0 and times[-1] <= 1.0 and (steps > 0.0).all():
        return times  # increasing from and to a time in [0, 1], so all of them lie in it
    outside = ~((times >= 0.0) & (times <= 1.0))
    if outside.any():
        bad = float(times[outside][0])
        kind = "out-of-range" if np.isfinite(bad) else "non-finite"
        raise error(f"{prefix}{kind} time {bad!r}: times must be finite and lie in [0, 1]")
    i = int(np.argmax(steps <= 0.0))
    raise error(f"{prefix}times must be strictly increasing, got {times[i + 1]} after {times[i]}")


def require_unique_ids(ids, error) -> None:
    """The one asset-id rule, of panels, increment tables and vol paths: no id repeats."""
    if not _distinct(ids):
        raise error("asset ids must be unique")


@dataclass(frozen=True)
class TickSeries:
    """One asset's 2 or more ticks: times that ``require_times`` accepts, finite log-prices."""

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
        require_times(times, MarketDataError, f"{self.asset_id}: ")
        if times.size < 2:
            raise MarketDataError(f"{self.asset_id}: at least 2 ticks are required")
        require_finite(f"{self.asset_id}: values", values, error=MarketDataError)


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
        require_unique_ids([s.asset_id for s in self.series], MarketDataError)
        require_scalar("time_span", self.time_span, error=MarketDataError)
        if not self.time_span > 0.0:
            raise MarketDataError("time_span must be positive")
        require_finite("time_span", self.time_span, error=MarketDataError)

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
        require_finite(f"{self.asset_id}: times and dx", times, dx, error=MarketDataError)


@dataclass(frozen=True)
class IncrementTable:
    """Increment series for every asset of an observation set: at least one asset, ids unique."""

    assets: tuple[AssetIncrements, ...]

    def __post_init__(self) -> None:
        if not self.assets:
            raise MarketDataError("increment table must contain at least one asset")
        require_unique_ids([a.asset_id for a in self.assets], MarketDataError)

    @property
    def d(self) -> int:
        return len(self.assets)


def increments(obs: ObservationSet) -> IncrementTable:
    """Exact first differences of the log-prices, keyed by right endpoints.

    The first that overflows raises ``MarketDataError`` naming its asset, time and log-prices.
    """
    assets = []
    for s in obs.series:
        with np.errstate(over="ignore"):
            dx = np.diff(s.values)
        if not np.isfinite(dx).all():
            l = int(np.argmin(np.isfinite(dx)))
            raise MarketDataError(f"{s.asset_id}: the increment at t={s.times[l + 1]} overflows: "
                                  f"log-price {s.values[l]} to {s.values[l + 1]}")
        assets.append(AssetIncrements(asset_id=s.asset_id, times=s.times[1:].copy(), dx=dx))
    return IncrementTable(assets=tuple(assets))


def load_csv(path, price_kind: str = "log") -> ObservationSet:
    """Load long-format tick data: header ``asset,time,price``.

    Rows must be sorted by time within each asset (any interleaving across
    assets is fine). Timestamps are normalized to [0, 1] with the global
    minimum and maximum over all assets; the original span is recorded as
    time_span. With ``price_kind="raw"`` prices must be positive and are
    log-transformed; with ``"log"`` the price column is taken as is.

    The file is parsed in one pass of numpy's C reader, which ``np.loadtxt``
    feeds in blocks from the path. A file whose assets each come in one run
    of rows, as ``write_csv`` writes them, is cut into those runs; any other
    is grouped by asset with one stable sort of the ids. A ``path`` that is
    not a ``str`` or ``os.PathLike`` (an open file descriptor, say), a name
    ending in one of ``COMPRESSED_SUFFIXES`` or holding ``://``, and any
    file that fails a check or looks unusual, are read by the row parser.
    Both end in one core, ``_panel``, so they give one result. The row parser
    alone raises; each of its errors names the file, and the physical line
    where one row is at fault.
    """
    if price_kind not in PRICE_KINDS:
        raise MarketDataError(
            f"price_kind must be {' or '.join(map(repr, PRICE_KINDS))}, got {price_kind!r}")
    obs = _load_fast(path, price_kind)
    return obs if obs is not None else _load_rows(path, price_kind)


def _load_fast(path, price_kind: str) -> ObservationSet | None:
    """The row parser's result from ``np.loadtxt``, or None where it must decide.

    numpy parses in C blocks only when it is given the path, and it picks its
    opener by that path: it would decompress a name ending in one of
    ``COMPRESSED_SUFFIXES`` and may fetch one holding ``://`` as a URL. Such
    a name, or a ``path`` that is not a ``str`` or ``os.PathLike`` naming a
    ``str``, falls back before anything is opened.

    A prescan of the bytes by its own handle checks the header. Input that
    cannot be read twice, such as a pipe, falls back before a byte of it is
    read. Ids are read as 16-byte latin-1 fields: an id that may have been
    cut short falls back, and so does a file holding a NUL, which such a
    field would drop from the end of an id. A body of ASCII whitespace falls
    back before ``loadtxt``, which warns on it; on a body that is not UTF-8,
    or holds only other whitespace (U+3000, say), ``loadtxt`` raises a
    ``ValueError``, which falls back. An error opening the file propagates,
    as it would from the row parser.

    One scan of the parsed ids finds their runs. If no id opens a second
    run, as in a file ``write_csv`` wrote, each asset is one run and its rows
    are slices of the parsed columns; otherwise one stable sort of the ids
    groups the rows by asset. Either way the rows of each asset keep their
    file order. Their views go to ``_panel``, the row parser's core, and any
    error it raises falls back. The run route peaks at the parse, a copy of
    its prices and the output times; the sort route at the parse, its sort
    order and the gathered columns.
    """
    name = os.fspath(path) if isinstance(path, os.PathLike) else path
    if not isinstance(name, str) or name.endswith(COMPRESSED_SUFFIXES) or "://" in name:
        return None
    try:
        with open(name, "rb") as fh:
            if not fh.seekable():
                return None
            if fh.readline() != (",".join(TICK_HEADER) + "\n").encode():
                return None
            blank = True
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                if b"\0" in chunk:
                    return None
                blank = blank and chunk.isspace()
        if blank:
            return None
        rows = np.loadtxt(name, skiprows=1, encoding="utf-8", delimiter=",", comments=None,
                          ndmin=1, dtype=[("a", "S16"), ("t", float), ("p", float)])
    except ValueError:
        return None
    ids = rows["a"]
    starts, ends = _runs(ids)
    if _distinct(ids[starts]):  # each asset is one run: its rows, in file order
        times, prices = rows["t"], rows["p"].copy()  # copied, so the output holds none of the parse
    else:  # an id recurs after another asset's rows
        order = np.argsort(ids, kind="stable")  # ids grouped, file order kept within each
        ids = ids[order]
        starts, ends = _runs(ids)
        rank = np.argsort(order[starts])  # assets in order of first appearance
        starts, ends = starts[rank], ends[rank]
        times, prices = rows["t"][order], rows["p"][order]
        del order
    del rows
    ids = ids[starts]
    names = [i.decode("latin-1") for i in ids]
    if any(len(i) >= ids.itemsize or not n or n != n.strip() or '"' in n
           for i, n in zip(ids, names)):
        return None
    try:
        return _panel(path, [(n, times[a:b], prices[a:b]) for n, a, b in zip(names, starts, ends)],
                      price_kind)
    except MarketDataError:
        return None


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal ids in a 16-byte id column starts, and where it ends.

    Two ids are equal when their bytes are, so each is compared as two 8-byte words.
    """
    words = ids.view(np.dtype((np.uint64, 2)))
    new = (words[1:, 0] != words[:-1, 0]) | (words[1:, 1] != words[:-1, 1])
    starts = np.flatnonzero(np.concatenate(([True], new)))
    return starts, np.append(starts[1:], ids.size)


def _distinct(ids) -> bool:
    """Whether no id repeats; it stops at the first that does."""
    seen = set()
    for i in ids:
        if i in seen:
            return False
        seen.add(i)
    return True


def _load_rows(path, price_kind: str) -> ObservationSet:
    """The row-by-row reader: the reference for ``load_csv`` and its error path.

    It checks each row, then ends in ``_panel``. Every error names the file,
    and the physical line where one row is at fault.
    """
    ticks: dict[str, tuple[list[float], list[float]]] = {}  # asset: (times, prices), in file order
    with closing(read_rows(path, MarketDataError)) as rows:
        header = next(rows)
        if header is None or tuple(h.strip() for h in header) != TICK_HEADER:
            raise MarketDataError(f"{path}: expected header '{','.join(TICK_HEADER)}', got {header}")
        for lineno, (asset, *cells) in rows:
            asset = asset.strip()
            if not asset:
                raise MarketDataError(f"{path}:{lineno}: empty asset id")
            t, p = floats(path, lineno, cells, MarketDataError)
            if not (math.isfinite(t) and math.isfinite(p)):
                raise MarketDataError(f"{path}:{lineno}: non-finite time or price")
            times, prices = ticks.setdefault(asset, ([], []))
            if times and t <= times[-1]:
                raise MarketDataError(f"{path}:{lineno}: asset {asset!r}: " + (
                    f"duplicate timestamp {t!r}" if t == times[-1] else
                    f"timestamps must be strictly increasing (got {t!r} after {times[-1]!r})"))
            times.append(t)
            prices.append(p)
    if not ticks:
        raise MarketDataError(f"{path}: no data rows")
    return _panel(path, [(a, np.array(t), np.array(p)) for a, (t, p) in ticks.items()], price_kind)


def _panel(path, assets, price_kind: str) -> ObservationSet:
    """The panel of ``(id, raw times, prices)`` per asset, in order of first appearance.

    The one core of both tick readers: 2 ticks an asset, positive raw prices,
    one global affine map onto [0, 1] into new arrays (raw times stay for the
    messages) and the log of raw prices in place.
    Each error names the file; the fast path may hand in out-of-order ticks.
    """
    for asset, times, prices in assets:
        if times.size < 2:
            raise MarketDataError(f"{path}: asset {asset!r}: at least 2 ticks are required")
        if price_kind == "raw" and not (prices > 0.0).all():
            bad = prices[np.argmin(prices > 0.0)].item()
            raise MarketDataError(f"{path}: asset {asset!r}: non-positive raw price {bad!r}")
    # Python floats over the end ticks in asset order: min and max keep the first of 0.0 and -0.0
    t_min = min(times[0].item() for _, times, _ in assets)
    t_max = max(times[-1].item() for _, times, _ in assets)
    span = t_max - t_min  # positive from the row parser: each asset has 2 increasing ticks
    if not 0.0 < span < math.inf:
        raise MarketDataError(f"{path}: time span from {t_min!r} to {t_max!r} is not finite")
    series = []
    for asset, raw, prices in assets:
        with np.errstate(over="ignore", invalid="ignore"):  # out-of-order ticks from the fast path
            times = raw - t_min
            times /= span
        collapsed = np.flatnonzero(times[1:] <= times[:-1])
        if collapsed.size:
            i = int(collapsed[0])
            raise MarketDataError(f"{path}: asset {asset!r}: times {raw[i].item()!r} and "
                                  f"{raw[i + 1].item()!r} coincide once normalized to [0, 1]")
        if price_kind == "raw":
            np.log(prices, out=prices)
        series.append(TickSeries(asset_id=asset, times=times, values=prices))
    return ObservationSet(series=tuple(series), time_span=span)


def read_rows(path, error):
    """Yield a CSV file's header row (None if the file is empty), then (lineno, cells) per data row.

    The one row reader of the tick and vol files. The file is opened as
    ``write_rows`` writes it: UTF-8, ``newline=""``. ``lineno`` is the
    physical line a row ends on. A blank row, with no cells or one cell of
    whitespace, is skipped, and a row not as wide as the header raises
    ``error`` naming the file and line. A caller wraps it in
    ``contextlib.closing``, so the file is closed when the caller raises.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        yield header
        for cells in reader:
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) != len(header):
                raise error(f"{path}:{reader.line_num}: "
                            f"expected {len(header)} columns, got {len(cells)}")
            yield reader.line_num, cells


def floats(path, lineno: int, cells, error) -> list[float]:
    """The cells of one row of ``read_rows`` as floats; a cell that is not one raises ``error``."""
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise error(f"{path}:{lineno}: {exc}") from exc


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
