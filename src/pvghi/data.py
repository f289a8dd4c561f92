"""Site and plant time-series data model, file formats and alignment.

All timestamps are UTC instants on a uniform grid. Missing samples are
represented as NaN and are excluded from every downstream fit; they are
never imputed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

PLANT_CSV_HEADER = "timestamp,power_w,temp_c"
# m; the standard atmosphere's pressure (proxy.pressure_at_altitude) is zero at 44,330.8 m
MAX_ALTITUDE = 44330.0


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
    """Geographic location, ground properties and shared sky of the neighborhood."""

    latitude: float
    longitude: float
    altitude: float = 0.0
    albedo: float = 0.2
    linke_turbidity: float = 3.0  # of the sky the plants share, read by solar.clearsky_ghi

    def __post_init__(self):
        check_settings(self, (
            ("latitude", -90.0 <= self.latitude <= 90.0, "in [-90, 90]"),
            ("longitude", -180.0 <= self.longitude <= 180.0, "in [-180, 180]"),
            ("altitude", -np.inf < self.altitude < MAX_ALTITUDE,
             f"finite and below {MAX_ALTITUDE:g} m"),
            ("albedo", 0.0 <= self.albedo <= 1.0, "in [0, 1]"),
            ("linke_turbidity", 1.0 <= self.linke_turbidity < np.inf, "finite and >= 1"),
        ))


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
    """Plants, each id once, re-indexed onto one shared timestamp grid."""

    timestamps: np.ndarray
    plants: tuple[PlantSeries, ...]
    site: Site

    def __post_init__(self):
        ids = [p.plant_id for p in self.plants]
        for n, plant_id in enumerate(ids):
            if plant_id in ids[:n]:
                raise InputError(f"plant {plant_id!r} listed twice")

    @property
    def n_plants(self) -> int:
        return len(self.plants)

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

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
        with np.errstate(invalid="ignore"):  # 0 / 0 is NaN where no plant reports
            mean = np.nansum(temps, axis=1) / (~np.isnan(temps)).sum(axis=1)
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


LAST_STAMP_TEXT = "9999-12-31T23:59:59Z"  # the last instant parse_timestamp reads
LAST_STAMP = parse_timestamp(LAST_STAMP_TEXT)


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
    number of fields, a bad timestamp, a stamp not after the one before
    it or no data rows is an InputError naming the file. A file in the
    form ``write_series_csv`` writes is split in whole-text passes and
    any other by ``csv.reader`` row by row; both give the same result.
    The file is read as UTF-8, and a leading byte-order mark is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InputError(f"{path}: file not found") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from None
    columns = _split_plain(text, header)
    if columns is None:
        try:
            columns = _split_rows(path, header, csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:
            raise InputError(f"{path}: cannot read ({exc})") from None
    stamps, *texts = columns
    times = _parse_stamps(path, stamps)
    back = np.flatnonzero(np.diff(times.astype("int64")) <= 0)
    if back.size:
        k = int(back[0]) + 2
        raise InputError(
            f"{path}: data row {k}: non-monotonic timestamps, "
            f"{stamps[k - 1]!r} is not after {stamps[k - 2]!r}"
        )
    values = [_parse_column(column) for column in texts]
    return times, np.array(values, dtype=float)


def _split_plain(text: str, header: str) -> list[list[str]] | None:
    """The columns of ``text`` if splitting it at every comma and newline
    gives what ``_split_rows`` gives, else None.

    That holds for ASCII text with no quote, carriage return or NUL (an
    error to ``csv.reader`` before Python 3.11) that starts with the
    header line and ends in a newline, and whose data lines each hold one
    field per header column, fit the csv module's field limit and start
    with a character that is neither blank nor a comma, so that no line
    is a blank row.
    """
    n_fields = header.count(",") + 1
    if not (
        text.isascii()
        and text.startswith(header + "\n")
        and text.endswith("\n")
        and len(text) > len(header) + 1
        and not any(c in text for c in '"\r\0')
    ):
        return None
    body = text[len(header) + 1:]
    codes = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    seps = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    row = np.array([ord(",")] * (n_fields - 1) + [ord("\n")], dtype=np.uint8)
    if seps.size % n_fields or (codes[seps].reshape(-1, n_fields) != row).any():
        return None
    ends = seps[n_fields - 1::n_fields]
    first = codes[np.concatenate(([0], ends[:-1] + 1))]
    if (
        (first <= ord(" ")).any()
        or (first == ord(",")).any()
        or np.diff(ends, prepend=-1).max() > csv.field_size_limit()
    ):
        return None
    fields = body.replace("\n", ",").split(",")
    return [fields[k:-1:n_fields] for k in range(n_fields)]


def _split_rows(path, header: str, rows) -> list[tuple[str, ...]]:
    """The columns of ``csv.reader`` rows, blank rows skipped."""
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
    return list(zip(*body))


# "0" marks a digit; the trailing comma is the separator _canonical_stamps joins with
_STAMP_FORM = np.frombuffer(b"0000-00-00T00:00:00Z,", dtype=np.uint8)
_STAMP_DIGIT = _STAMP_FORM == ord("0")


def _canonical_stamps(stamps) -> np.ndarray | None:
    """The stamps as datetime64[s] if every one is a valid instant in the
    form ``write_series_csv`` writes, ``YYYY-MM-DDTHH:MM:SSZ``, else None.

    The stamps are joined with commas, so each takes one row of 21 codes
    only if all are 20 characters long and none holds a comma.
    """
    joined = ",".join(stamps) + ","
    if len(joined) != 21 * len(stamps) or not joined.isascii():
        return None
    codes = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(-1, 21)
    digits = codes[:, _STAMP_DIGIT]
    if (
        (codes[:, ~_STAMP_DIGIT] != _STAMP_FORM[~_STAMP_DIGIT]).any()
        or (digits < ord("0")).any()
        or (digits > ord("9")).any()
    ):
        return None
    d = digits.astype(np.int64) - ord("0")
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hour, minute, second = (d[:, k] * 10 + d[:, k + 1] for k in range(4, 14, 2))
    if not (
        (year >= 1) & (month >= 1) & (month <= 12) & (hour < 24) & (minute < 60) & (second < 60)
    ).all():
        return None
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    if (days.astype("datetime64[M]") != months).any():  # day 0, or past the month's end
        return None
    return days.astype("datetime64[s]") + (hour * 3600 + minute * 60 + second)


def _parse_stamps(path, stamps) -> np.ndarray:
    """The stamps as ``parse_timestamp`` reads them, as datetime64[s].

    A column wholly in the form ``write_series_csv`` writes is read from
    its digit codes in one pass. Any other column is read row by row,
    and the first bad stamp is named by its data row.
    """
    fast = _canonical_stamps(stamps)
    if fast is not None:
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


def _format_column(column) -> list[str]:
    """One field per value: integers and booleans as integers, floats by
    ``repr`` and NaN as an empty field."""
    column = np.asarray(column)
    values = column.astype(np.int64 if column.dtype.kind in "biu" else float).tolist()
    # a list's repr is its items' reprs joined by ", "; "nan" is no other float's repr
    return repr(values)[1:-1].replace("nan", "").split(", ") if values else []


def write_series_csv(path, header: str, timestamps, columns) -> None:
    """Write a timestamped CSV that ``read_series_csv`` reads back bit-exactly.

    Stamps are written in ISO-8601 UTC at their own unit (a datetime64[D]
    stamp is a date). Floats are written by ``repr`` and NaN as an empty
    field; integer and boolean columns are written as integers. Lines
    end in ``\\n``.
    """
    stamps = np.datetime_as_string(np.asarray(timestamps), timezone="UTC").tolist()
    rows = map(",".join, zip(stamps, *(_format_column(c) for c in columns)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([header, *rows, ""]))


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


def load_clearsky_csv(path, timestamps: np.ndarray) -> np.ndarray:
    """Read a ``timestamp,ghi_clear_wm2`` override CSV onto the requested grid.

    Every requested timestamp must be in the file with a finite,
    non-negative value; the file's stamps must be strictly increasing.
    """
    stamps, (values,) = read_series_csv(path, "timestamp,ghi_clear_wm2")
    wanted = np.asarray(timestamps, dtype="datetime64[s]")
    out, _ = _at_stamps(stamps, values, wanted)
    bad = ~(np.isfinite(out) & (out >= 0))
    if bad.any():
        raise InputError(
            f"{path}: no finite non-negative value for {int(bad.sum())} requested timestamps "
            f"(first: {wanted[bad][0]})"
        )
    return out


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
    base = plants[0].timestamps
    grid = base[(base >= start) & (base <= end)]
    if grid.size == 0:
        raise InputError("empty timestamp intersection")
    aligned = []
    for p in plants:
        (power, temp), hit = _at_stamps(p.timestamps, np.stack((p.power, p.temperature)), grid)
        if not hit.any():
            raise InputError(f"{p.plant_id}: no samples on the shared grid")
        aligned.append(replace(p, timestamps=grid, power=power, temperature=temp))
    return AlignedDataset(grid, tuple(aligned), site)


def _at_stamps(stamps, values, wanted) -> tuple[np.ndarray, np.ndarray]:
    """``values``, whose last axis runs over the strictly increasing
    ``stamps``, at the stamps ``wanted`` (NaN where ``stamps`` lacks
    one), and the mask of ``wanted`` found in ``stamps``."""
    have = stamps.astype("int64")
    want = np.asarray(wanted, dtype="datetime64[s]").astype("int64")
    pos = np.clip(np.searchsorted(have, want), 0, len(have) - 1)
    hit = have[pos] == want
    out = np.full(values.shape[:-1] + hit.shape, np.nan)
    out[..., hit] = values[..., pos[hit]]
    return out, hit
