"""Site and plant time-series data model, file formats and alignment.

All timestamps are UTC instants on a uniform grid. Missing samples are
represented as NaN and are excluded from every downstream fit; they are
never imputed.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

PLANT_CSV_HEADER = "timestamp,power_w,temp_c"
# the stamps datetime can hold, so parse_timestamp reads every one of them
DATETIME_RANGE = (np.datetime64("0001-01-01T00:00:00"), np.datetime64("9999-12-31T23:59:59"))


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class SettingError(InputError):
    """A setting outside the range it needs; ``field`` names it."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def check_settings(settings, needs) -> None:
    """Raise a SettingError for the first ``(field, ok, need)`` that is not ok.

    Write each ``ok`` as a chained comparison, which NaN fails.
    """
    for field, ok, need in needs:
        if not ok:
            raise SettingError(field, f"must be {need}, got {getattr(settings, field)!r}")


@dataclass(frozen=True)
class Site:
    """Geographic location and ground properties of the neighborhood."""

    latitude: float
    longitude: float
    altitude: float = 0.0
    albedo: float = 0.2

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise InputError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise InputError(f"longitude out of range: {self.longitude}")
        if not 0.0 <= self.albedo <= 1.0:
            raise InputError(f"albedo out of range: {self.albedo}")
        if not math.isfinite(self.altitude):
            raise InputError("altitude must be finite")


@dataclass(frozen=True)
class PlantSeries:
    """One plant's AC power and ambient temperature record.

    ``timestamps`` is a strictly increasing, uniformly sampled
    datetime64[s] array. ``power`` (W) and ``temperature`` (degC) use NaN
    for missing samples; an infinite value is an InputError.
    """

    plant_id: str
    timestamps: np.ndarray
    power: np.ndarray
    temperature: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[s]")
        p = np.asarray(self.power, dtype=float)
        t = np.asarray(self.temperature, dtype=float)
        if ts.size == 0:
            raise InputError(f"{self.plant_id}: empty series")
        if len(p) != len(ts) or len(t) != len(ts):
            raise InputError(f"{self.plant_id}: column length mismatch")
        deltas = np.diff(ts.astype("int64"))
        if ts.size > 1:
            if np.any(deltas <= 0):
                raise InputError(f"{self.plant_id}: non-monotonic timestamps")
            if np.any(deltas != deltas[0]):
                raise InputError(f"{self.plant_id}: non-uniform sampling period")
        if np.isinf(p).any() or np.isinf(t).any():
            raise InputError(f"{self.plant_id}: infinite power or temperature sample")
        if np.any(p[np.isfinite(p)] < 0):
            raise InputError(f"{self.plant_id}: negative power sample")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "power", p)
        object.__setattr__(self, "temperature", t)
        for arr in (ts, p, t):
            arr.flags.writeable = False

    @property
    def sampling_seconds(self) -> int:
        if len(self.timestamps) < 2:
            return 0
        return int(np.diff(self.timestamps.astype("int64"))[0])

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class AlignedDataset:
    """Plants re-indexed onto one shared timestamp grid."""

    timestamps: np.ndarray
    plants: tuple[PlantSeries, ...]
    site: Site

    @property
    def n_plants(self) -> int:
        return len(self.plants)

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    @property
    def sampling_seconds(self) -> int:
        return self.plants[0].sampling_seconds

    def power_matrix(self) -> np.ndarray:
        """(T, n_plants) power array, NaN where missing."""
        return np.column_stack([p.power for p in self.plants])

    def mean_temperature(self) -> np.ndarray:
        """Per-timestep ambient temperature, averaged over reporting plants.

        Gaps left by all plants are filled by interpolation so the forward
        model always has a temperature to work with; the corresponding
        power samples stay missing.
        """
        temps = np.column_stack([p.temperature for p in self.plants])
        with np.errstate(invalid="ignore"):
            mean = np.nanmean(temps, axis=1)
        if np.isnan(mean).all():
            return np.zeros(len(mean)) + 15.0
        if np.isnan(mean).any():
            idx = np.arange(len(mean))
            good = ~np.isnan(mean)
            mean = np.interp(idx, idx[good], mean[good])
        return mean


def parse_timestamp(text: str) -> int:
    """Seconds since 1970-01-01 UTC of an ISO-8601 timestamp.

    Naive stamps are taken as UTC; explicit offsets are converted.
    """
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def read_series_csv(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a timestamped CSV whose header line is exactly ``header``.

    Returns the datetime64[s] stamps of the data rows and a float array
    with one row per value column. Blank lines are skipped; empty,
    unparseable or non-finite (``inf``, ``nan``) numbers are NaN. A
    missing or unreadable file, another header, a row with the wrong
    number of fields, a bad timestamp or no data rows is an InputError
    naming the file.
    """
    try:
        with open(path, newline="") as fh:
            return _parse_series(path, header, csv.reader(fh))
    except FileNotFoundError:
        raise InputError(f"{path}: file not found") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from None


def _parse_series(path, header: str, rows) -> tuple[np.ndarray, np.ndarray]:
    rows = [row for row in rows if "".join(row).strip()]
    if not rows:
        raise InputError(f"{path}: empty file")
    if ",".join(h.strip() for h in rows[0]) != header:
        raise InputError(f"{path}: expected header {header}")
    body = rows[1:]
    n_fields = header.count(",") + 1
    for k, row in enumerate(body, start=1):
        if len(row) != n_fields:
            raise InputError(
                f"{path}: data row {k}: expected {n_fields} fields, got {len(row)}"
            )
    if not body:
        raise InputError(f"{path}: no data rows")
    stamps, *columns = zip(*body)
    values = [_parse_column(column) for column in columns]
    return _parse_stamps(path, stamps), np.array(values, dtype=float)


def _parse_stamps(path, stamps) -> np.ndarray:
    """The stamps as ``parse_timestamp`` reads them, as datetime64[s].

    A column wholly in the form ``write_series_csv`` writes
    (``YYYY-MM-DDTHH:MM:SSZ``) is parsed by numpy in one call: formatting
    the result back gives every stamp unchanged only for that form. Any
    other column is read row by row, and the first bad stamp is named by
    its data row.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy warns of a zone it drops
        try:
            fast = np.array([text[:-1] for text in stamps], dtype="datetime64[s]")
        except ValueError:
            fast = None
    if (
        fast is not None
        and np.datetime_as_string(fast, timezone="UTC").tolist() == list(stamps)
        and DATETIME_RANGE[0] <= fast.min()
        and fast.max() <= DATETIME_RANGE[1]
    ):
        return fast
    seconds = []
    try:
        for text in stamps:
            seconds.append(parse_timestamp(text))
    except (ValueError, OverflowError):
        k = len(seconds) + 1
        raise InputError(f"{path}: data row {k}: bad timestamp {stamps[k - 1]!r}") from None
    return np.array(seconds, dtype="datetime64[s]")


def _parse_column(texts) -> np.ndarray:
    """The numbers of one column in one pass; only a column holding an
    empty or bad field is read field by field. Empty, bad and non-finite
    fields are NaN."""
    try:
        values = np.array(texts, dtype=float)
    except ValueError:
        values = np.array([_parse_float(text) for text in texts])
    values[np.isinf(values)] = np.nan
    return values


def write_series_csv(path, header: str, timestamps, columns) -> None:
    """Write a timestamped CSV that ``read_series_csv`` reads back bit-exactly.

    Stamps are written in ISO-8601 UTC at their own unit (a datetime64[D]
    stamp is a date). Floats are written by ``repr`` and NaN as an empty
    field; integer and boolean columns are written as integers. Lines
    end in ``\\n``.
    """
    stamps = np.datetime_as_string(np.asarray(timestamps), timezone="UTC").tolist()
    columns = [np.asarray(c) for c in columns]
    is_int = [c.dtype.kind in "biu" for c in columns]
    values = [c.astype(np.int64 if i else float).tolist() for c, i in zip(columns, is_int)]
    # one row at a time, so no text copy of the whole file is held
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for stamp, *row in zip(stamps, *values):
            text = (str(v) if i else "" if v != v else repr(v) for v, i in zip(row, is_int))
            fh.write(",".join((stamp, *text)) + "\n")


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_json(path):
    """Parse a JSON file; a missing, unreadable or invalid file is an InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: cannot read JSON ({exc})") from None


def expect(value, where: str, kind=(int, float)):
    """``value`` if it is a ``kind``, by default a number; booleans never are.

    Checks one value read from a JSON file; anything else is an
    InputError naming ``where``.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        name = getattr(kind, "__name__", "number")
        raise InputError(f"{where}: expected {name}, got {value!r}")
    return value


def load_plant_csv(path, plant_id: str) -> PlantSeries:
    """Load one plant record from a ``timestamp,power_w,temp_c`` CSV.

    Unparseable power or temperature fields and negative power become
    missing samples; see ``read_series_csv`` for what is rejected.
    """
    stamps, (power, temp) = read_series_csv(path, PLANT_CSV_HEADER)
    power[power < 0] = np.nan
    return PlantSeries(plant_id, stamps, power, temp)


def save_plant_csv(series: PlantSeries, path) -> None:
    """Write a PlantSeries back out; round-trips numeric fields bit-exactly."""
    write_series_csv(
        path, PLANT_CSV_HEADER, series.timestamps, (series.power, series.temperature)
    )


def align(plants: list[PlantSeries], site: Site) -> AlignedDataset:
    """Re-index plants onto the intersection of their timestamp ranges.

    All plants must share one sampling period; grid points a plant does
    not cover become missing samples. Raises InputError on mismatched
    periods or an empty intersection.
    """
    if not plants:
        raise InputError("no plants to align")
    periods = {p.sampling_seconds for p in plants}
    if len(periods) > 1:
        raise InputError(f"mismatched sampling periods: {sorted(periods)}")
    start = max(p.timestamps[0] for p in plants)
    end = min(p.timestamps[-1] for p in plants)
    if start > end:
        raise InputError("empty timestamp intersection")
    base = plants[0].timestamps
    grid = base[(base >= start) & (base <= end)]
    if grid.size == 0:
        raise InputError("empty timestamp intersection")
    grid_i = grid.astype("int64")
    aligned = []
    for p in plants:
        ts_i = p.timestamps.astype("int64")
        pos = np.searchsorted(ts_i, grid_i)
        pos_c = np.clip(pos, 0, len(ts_i) - 1)
        hit = ts_i[pos_c] == grid_i
        if not hit.any():
            raise InputError(f"{p.plant_id}: no samples on the shared grid")
        power = np.full(grid.size, np.nan)
        temp = np.full(grid.size, np.nan)
        power[hit] = p.power[pos_c[hit]]
        temp[hit] = p.temperature[pos_c[hit]]
        aligned.append(replace(p, timestamps=grid, power=power, temperature=temp))
    return AlignedDataset(grid, tuple(aligned), site)
