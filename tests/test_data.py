import csv
import math
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pvghi import InputError, PlantSeries, Site, align, load_plant_csv
from pvghi.data import (
    AlignedDataset,
    SettingError,
    load_clearsky_csv,
    parse_timestamp,
    read_series_csv,
    save_plant_csv,
    write_series_csv,
)


def write_csv(path, rows):
    path.write_text("timestamp,power_w,temp_c\n" + "\n".join(rows) + "\n")
    return path


def test_load_three_row_file(tmp_path):
    p = write_csv(
        tmp_path / "p.csv",
        [
            "2021-06-01T10:00:00Z,1200.5,18.2",
            "2021-06-01T10:10:00Z,1300.0,18.4",
            "2021-06-01T10:20:00Z,1250.25,18.6",
        ],
    )
    series = load_plant_csv(p, "p")
    assert len(series) == 3
    assert series.sampling_seconds == 600
    np.testing.assert_allclose(series.power, [1200.5, 1300.0, 1250.25])


def test_duplicate_timestamp_rejected(tmp_path):
    p = write_csv(
        tmp_path / "p.csv",
        [
            "2021-06-01T10:00:00Z,1,10",
            "2021-06-01T10:00:00Z,2,10",
            "2021-06-01T10:10:00Z,3,10",
        ],
    )
    with pytest.raises(InputError, match="non-monotonic"):
        load_plant_csv(p, "p")


def test_nan_power_becomes_missing(tmp_path):
    p = write_csv(
        tmp_path / "p.csv",
        [
            "2021-06-01T10:00:00Z,NaN,10",
            "2021-06-01T10:10:00Z,,10",
            "2021-06-01T10:20:00Z,5,10",
        ],
    )
    series = load_plant_csv(p, "p")
    assert len(series) == 3
    assert np.isnan(series.power[0])
    assert np.isnan(series.power[1])
    assert series.power[2] == 5


def test_missing_file_and_empty_file(tmp_path):
    with pytest.raises(InputError, match="not found"):
        load_plant_csv(tmp_path / "absent.csv", "x")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError, match="empty"):
        load_plant_csv(empty, "x")
    header_only = tmp_path / "h.csv"
    header_only.write_text("timestamp,power_w,temp_c\n")
    with pytest.raises(InputError, match="no data rows"):
        load_plant_csv(header_only, "x")


def test_bad_header_rejected(tmp_path):
    p = tmp_path / "p.csv"
    p.write_text("time,power,temp\n2021-06-01T10:00:00Z,1,2\n")
    with pytest.raises(InputError, match="header"):
        load_plant_csv(p, "p")


def test_negative_power_flagged_missing_by_loader(tmp_path):
    p = write_csv(
        tmp_path / "p.csv",
        ["2021-06-01T10:00:00Z,-5,10", "2021-06-01T10:10:00Z,5,10"],
    )
    series = load_plant_csv(p, "p")
    assert np.isnan(series.power[0])


def test_roundtrip_bit_exact(tmp_path):
    p = write_csv(
        tmp_path / "p.csv",
        [
            "2021-06-01T10:00:00Z,1200.123456789012,18.20000000001",
            "2021-06-01T10:10:00Z,,17.9",
            "2021-06-01T10:20:00Z,0.1,",
        ],
    )
    first = load_plant_csv(p, "p")
    out = tmp_path / "copy.csv"
    save_plant_csv(first, out)
    second = load_plant_csv(out, "p")
    assert np.array_equal(first.timestamps, second.timestamps)
    assert np.array_equal(first.power, second.power, equal_nan=True)
    assert np.array_equal(first.temperature, second.temperature, equal_nan=True)


def test_a_byte_order_mark_is_skipped(tmp_path):
    """A file saved as Excel's "CSV UTF-8" starts with a byte-order mark."""
    body = b"timestamp,power_w,temp_c\n2021-06-01T10:00:00Z,1,10\n2021-06-01T10:10:00Z,2,11\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body)
    assert read_outcome(read_series_csv, marked) == read_outcome(read_series_csv, plain)


def clearsky_file(path, rows):
    path.write_text("timestamp,ghi_clear_wm2\n" + "".join(f"{t},{v}\n" for t, v in rows))
    return path


def test_clearsky_override_passthrough(tmp_path):
    ts = np.datetime64("2021-06-10T10:00:00") + np.arange(3) * np.timedelta64(600, "s")
    stamps = np.datetime_as_string(ts, timezone="UTC")
    path = clearsky_file(tmp_path / "clear.csv", zip(stamps, ["100.0", "200.0", "300.0"]))
    np.testing.assert_array_equal(load_clearsky_csv(path, ts), [100.0, 200.0, 300.0])


def test_clearsky_override_missing_timestamp(tmp_path):
    ts = np.datetime64("2021-06-10T10:00:00") + np.arange(3) * np.timedelta64(600, "s")
    path = clearsky_file(tmp_path / "clear.csv", [("2021-06-10T10:00:00Z", "100.0")])
    with pytest.raises(
        InputError, match="no finite non-negative value for 2 requested timestamps "
        r"\(first: 2021-06-10T10:10:00\)"
    ):
        load_clearsky_csv(path, ts)


def make_series(pid, start, n, step=600, power=None):
    ts = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(step, "s")
    power = np.arange(n, dtype=float) if power is None else power
    return PlantSeries(pid, ts, power, np.full(n, 15.0))


def test_align_identical_grids(site):
    a = make_series("a", "2021-06-01T00:00:00", 10)
    b = make_series("b", "2021-06-01T00:00:00", 10)
    ds = align([a, b], site)
    assert ds.n_steps == 10
    assert ds.n_plants == 2
    assert not np.isnan(ds.power_matrix()).any()


def test_align_offset_overlap(site):
    # b starts 5 steps later: overlap is the last 5 samples of a
    a = make_series("a", "2021-06-01T00:00:00", 10)
    b = make_series("b", "2021-06-01T00:50:00", 10)
    ds = align([a, b], site)
    assert ds.n_steps == 5
    np.testing.assert_array_equal(ds.plants[0].power, [5, 6, 7, 8, 9])
    np.testing.assert_array_equal(ds.plants[1].power, [0, 1, 2, 3, 4])


def test_align_mismatched_period(site):
    a = make_series("a", "2021-06-01T00:00:00", 10, step=60)
    b = make_series("b", "2021-06-01T00:00:00", 10, step=600)
    with pytest.raises(InputError, match="sampling period"):
        align([a, b], site)


def test_align_empty_intersection(site):
    a = make_series("a", "2021-06-01T00:00:00", 10)
    b = make_series("b", "2021-06-02T00:00:00", 10)
    with pytest.raises(InputError, match="empty"):
        align([a, b], site)


def test_a_plant_id_given_twice_is_an_input_error(site):
    """``load_omegas`` would refuse the coefficients identified for such a dataset."""
    a = make_series("a", "2021-06-01T00:00:00", 10)
    b = make_series("b", "2021-06-01T00:00:00", 10)
    with pytest.raises(InputError, match="plant 'a' listed twice"):
        align([a, a], site)
    with pytest.raises(InputError, match="plant 'b' listed twice"):
        AlignedDataset(a.timestamps, (a, b, b), site)


def test_align_idempotent(site):
    a = make_series("a", "2021-06-01T00:00:00", 12)
    b = make_series("b", "2021-06-01T00:20:00", 12)
    once = align([a, b], site)
    twice = align(list(once.plants), site)
    assert np.array_equal(once.timestamps, twice.timestamps)
    for p1, p2 in zip(once.plants, twice.plants):
        assert np.array_equal(p1.power, p2.power, equal_nan=True)


def test_mean_temperature_interpolates_a_gap_every_plant_shares(site):
    """A step where no plant reports takes the interpolation of its
    neighbours, without a warning; the others average the plants that report."""
    ts = np.datetime64("2021-06-01T00:00:00", "s") + np.arange(4) * np.timedelta64(600, "s")
    a = PlantSeries("a", ts, np.ones(4), np.array([10.0, 12.0, np.nan, 14.0]))
    b = PlantSeries("b", ts, np.ones(4), np.array([20.0, np.nan, np.nan, 16.0]))
    mean = AlignedDataset(ts, (a, b), site).mean_temperature()
    np.testing.assert_array_equal(mean, [15.0, 12.0, 13.5, 15.0])


def test_site_validation():
    with pytest.raises(InputError):
        Site(latitude=95.0, longitude=0.0)
    with pytest.raises(InputError):
        Site(latitude=0.0, longitude=200.0)
    with pytest.raises(InputError):
        Site(latitude=0.0, longitude=0.0, albedo=1.5)
    for turbidity in (0.5, np.nan, np.inf):
        with pytest.raises(SettingError, match="linke_turbidity: must be finite and >= 1"):
            Site(latitude=0.0, longitude=0.0, linke_turbidity=turbidity)


def test_timestamps_with_offset_converted():
    from pvghi.data import parse_timestamp

    a = parse_timestamp("2021-06-01T12:00:00+02:00")
    b = parse_timestamp("2021-06-01T10:00:00Z")
    assert a == b


def test_unparseable_timestamp_rejected(tmp_path):
    p = write_csv(tmp_path / "p.csv", ["not-a-time,1,2"])
    with pytest.raises(InputError, match="bad timestamp"):
        load_plant_csv(p, "p")


def test_align_single_plant_identity(site):
    a = make_series("a", "2021-06-01T00:00:00", 8)
    ds = align([a], site)
    assert ds.n_steps == 8
    np.testing.assert_array_equal(ds.plants[0].power, a.power)


def test_series_csv_roundtrip_nan_int_bool(tmp_path):
    ts = np.datetime64("2021-06-01T10:00:00", "s") + np.arange(4) * np.timedelta64(600, "s")
    floats = np.array([0.1, np.nan, -1.5e-300, 1234.5678901234567])
    ints = np.array([0, 7, -3, 2**40])
    flags = np.array([True, False, True, False])
    path = tmp_path / "series.csv"
    write_series_csv(path, "timestamp,x,n,flag", ts, (floats, ints, flags))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.splitlines()[2] == b"2021-06-01T10:10:00Z,,7,0"
    stamps, (x, n, flag) = read_series_csv(path, "timestamp,x,n,flag")
    assert np.array_equal(stamps, ts)
    assert x.tobytes() == floats.tobytes()
    assert np.array_equal(n, ints)
    assert np.array_equal(flag, flags)


def test_bad_number_mid_column_is_nan_in_that_cell_only(tmp_path):
    p = write_csv(
        tmp_path / "p.csv",
        [
            "2021-06-01T10:00:00Z,1200.5,18.2",
            "2021-06-01T10:10:00Z,bright,18.4",
            "2021-06-01T10:20:00Z,1250.25,",
            "2021-06-01T10:30:00Z,1300.0,18.8",
        ],
    )
    stamps, (power, temp) = read_series_csv(p, "timestamp,power_w,temp_c")
    assert len(stamps) == 4
    np.testing.assert_array_equal(power, [1200.5, np.nan, 1250.25, 1300.0])
    np.testing.assert_array_equal(temp, [18.2, 18.4, np.nan, 18.8])


@pytest.mark.parametrize("bad", ["bright", "-Infinity"])
def test_non_finite_numbers_are_missing(tmp_path, bad):
    """``inf``, ``nan`` and an overflowing number read as empty fields do.

    A bad field makes the reader parse its column field by field; without
    one, the column is parsed in one pass. Both give NaN.
    """
    p = write_csv(
        tmp_path / "p.csv",
        [
            "2021-06-01T10:00:00Z,inf,18.2",
            "2021-06-01T10:10:00Z,1250.25,nan",
            f"2021-06-01T10:20:00Z,1e999,{bad}",
            "2021-06-01T10:30:00Z,1300.0,-inf",
        ],
    )
    stamps, (power, temp) = read_series_csv(p, "timestamp,power_w,temp_c")
    np.testing.assert_array_equal(power, [np.nan, 1250.25, np.nan, 1300.0])
    np.testing.assert_array_equal(temp, [18.2, np.nan, np.nan, np.nan])


@pytest.mark.parametrize("column", ["power", "temperature"])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_sample_names_the_plant(column, value):
    ts = np.arange(0, 1800, 600).astype("datetime64[s]")
    series = {"power": np.full(3, 1000.0), "temperature": np.full(3, 15.0)}
    series[column][1] = value
    with pytest.raises(InputError, match="roof-7: infinite"):
        PlantSeries("roof-7", ts, **series)


@pytest.mark.parametrize(
    "bad",
    ["not-a-time", "2021-06-01T10:10:00+25:00", "2021-06-01T10:10:00X", "0000-01-01T00:00:00Z"],
)
def test_bad_stamp_after_blank_lines_names_its_data_row(tmp_path, bad):
    p = tmp_path / "p.csv"
    p.write_text(
        "timestamp,power_w,temp_c\n\n"
        "2021-06-01T10:00:00Z,1,2\n\n   \n"
        f"{bad},1,2\n"
        "2021-06-01T10:20:00Z,1,2\n"
    )
    with pytest.raises(InputError, match=re.escape(f"data row 2: bad timestamp {bad!r}")):
        read_series_csv(p, "timestamp,power_w,temp_c")


@pytest.mark.parametrize(
    "stamps",
    [
        ["2021-06-01T10:00:00Z", "2021-06-01T10:10:00Z", "9999-12-31T23:59:59Z"],
        ["2021-06-01T12:00:00+02:00", "2021-06-01T12:10:00+02:00"],
        ["2021-06-01T10:00:01", "2021-06-01T10:10:01"],
        ["2021-06-01T10:00:00Z", "2021-06-01T12:10:00+02:00", "2021-06-01T10:20:00z"],
        ["0001-01-01T00:00:00Z", " 2021-06-01T10:10:00Z", "2021-06-01 10:20:00Z"],
    ],
)
def test_stamps_read_as_parse_timestamp_reads_them(tmp_path, stamps):
    from pvghi.data import parse_timestamp

    p = write_csv(tmp_path / "p.csv", [f"{s},1,2" for s in stamps])
    got, _ = read_series_csv(p, "timestamp,power_w,temp_c")
    assert got.dtype == np.dtype("datetime64[s]")
    assert got.astype("int64").tolist() == [parse_timestamp(s) for s in stamps]


HEADER = "timestamp,power_w,temp_c"


def read_rows_reference(path, header):
    """The row-by-row reader the whole-column one replaced: ``csv.reader``
    rows, blank ones skipped, each stamp read by ``parse_timestamp`` and
    each number by ``float``; the stamps must increase."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from None
    if not rows:
        raise InputError(f"{path}: empty file")
    if ",".join(h.strip() for h in rows[0]) != header:
        raise InputError(f"{path}: expected header {header}")
    n_fields = header.count(",") + 1
    for k, row in enumerate(rows[1:], start=1):
        if len(row) != n_fields:
            raise InputError(f"{path}: data row {k}: expected {n_fields} fields, got {len(row)}")
    if len(rows) == 1:
        raise InputError(f"{path}: no data rows")
    seconds = []
    for k, row in enumerate(rows[1:], start=1):
        try:
            seconds.append(parse_timestamp(row[0]))
        except (ValueError, OverflowError):
            raise InputError(f"{path}: data row {k}: bad timestamp {row[0]!r}") from None
    for k in range(2, len(seconds) + 1):
        if seconds[k - 1] <= seconds[k - 2]:
            raise InputError(
                f"{path}: data row {k}: non-monotonic timestamps, "
                f"{rows[k][0]!r} is not after {rows[k - 1][0]!r}"
            )
    values = []
    for row in rows[1:]:
        numbers = []
        for text in row[1:]:
            try:
                numbers.append(float(text))
            except ValueError:
                numbers.append(math.nan)
        values.append([math.nan if math.isinf(v) else v for v in numbers])
    return np.array(seconds, dtype="datetime64[s]"), np.array(values, dtype=float).T.copy()


def write_rows_reference(path, header, timestamps, columns):
    """The row loop the whole-column writer replaced."""
    stamps = np.datetime_as_string(np.asarray(timestamps), timezone="UTC").tolist()
    columns = [np.asarray(c) for c in columns]
    is_int = [c.dtype.kind in "biu" for c in columns]
    values = [c.astype(np.int64 if i else float).tolist() for c, i in zip(columns, is_int)]
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for stamp, *row in zip(stamps, *values):
            text = (str(v) if i else "" if v != v else repr(v) for v, i in zip(row, is_int))
            fh.write(",".join((stamp, *text)) + "\n")


def read_outcome(read, path):
    try:
        stamps, values = read(path, HEADER)
    except InputError as exc:
        return str(exc)
    return (
        stamps.dtype, stamps.astype("int64").tolist(), values.dtype, values.shape, values.tobytes()
    )


# per calendar field, values at and past its edges
CALENDAR_EDGES = (
    [0, 1, 1900, 2000, 2024, 9999, 10000], [0, 1, 2, 12, 13], [0, 1, 28, 29, 30, 31, 32],
    [0, 23, 24], [0, 59, 60], [0, 59, 60],
)


INSTANTS = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda t: t.replace(microsecond=0)
)


@st.composite
def stamp_texts(draw, form="Z", t=None):
    """A stamp of ``t`` (or of a drawn instant) in the form pvghi writes
    or in ``form``; the "calendar" form moves one field of a valid stamp
    to one of ``CALENDAR_EDGES`` or makes it Feb 29."""
    if form == "junk":
        return draw(st.sampled_from(["", " ", "yesterday", "2021-06-01", "\uff11"]))
    t = draw(INSTANTS) if t is None else t
    parts = [t.year, t.month, t.day, t.hour, t.minute, t.second]
    if form == "calendar":
        k = draw(st.integers(0, len(parts)))
        if k == len(parts):
            parts[:3] = [draw(st.sampled_from([1900, 2000, 2023, 2024, 2100])), 2, 29]
        else:
            parts[k] = draw(st.sampled_from(CALENDAR_EDGES[k]))
    text = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format(*parts)
    return {
        "naive": text,
        "offset": text + draw(st.sampled_from(["+02:00", "-05:30", "+00:00"])),
        "z": text + "z",
        "space": text.replace("T", " ") + "Z",
    }.get(form, text + "Z")


NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-nan", "NaN", "inf", "-inf", "1e999", "bright", " 1.5", "1_0"]),
)
STAMP_FORMS = ["naive", "offset", "z", "space", "junk"]
INSERTED_CHARS = list('\0\r\n,"\x0c\x1c\x85\xa0')
BENDS = [
    "header", "blank", "quotes", "calendar", "stamps", "repeat", "fields", "endings",
    "no final newline", "char",
]


@st.composite
def series_files(draw):
    """The text of a plant file as pvghi writes it, with none, one or a
    few of ``BENDS`` applied, each to a row or two: the reader must either
    read it as the row-by-row reader does or reject it with the same
    message. Unbent rows hold increasing instants; the "repeat" bend
    gives a row the instant of the row before it."""
    n_rows = draw(st.integers(0, 12))
    n_bends = draw(st.sampled_from([0, 0, 1, 1, 2, 3]))
    bends = {
        bend: draw(st.sets(st.integers(0, max(n_rows - 1, 0)), min_size=1, max_size=2))
        for bend in draw(st.lists(st.sampled_from(BENDS), min_size=n_bends, max_size=n_bends))
    }

    def bent(bend, row):
        return row in bends.get(bend, ())

    header = HEADER
    if "header" in bends:
        header = draw(
            st.sampled_from([" timestamp, power_w ,temp_c"] * 3 + ["time,p,t", "", ",,"])
        )
    times = sorted(draw(st.lists(INSTANTS, min_size=n_rows, max_size=n_rows, unique=True)))
    lines = [header]
    for row in range(n_rows):
        if bent("blank", row):
            lines.append(draw(st.sampled_from(["", "   ", "\t", ",,", " , ,", "\t, ,\xa0"])))
        form = "calendar" if bent("calendar", row) else "Z"
        form = draw(st.sampled_from(STAMP_FORMS)) if bent("stamps", row) else form
        t = times[row - 1] if row and bent("repeat", row) else times[row]
        fields = [draw(stamp_texts(form, t)), draw(NUMBER_TEXTS), draw(NUMBER_TEXTS)]
        if bent("quotes", row):
            fields = [f'"{text}"' for text in fields]
        if bent("fields", row):
            fields = fields[:draw(st.integers(1, 2))] if draw(st.booleans()) else fields + ["1"]
        if bent("char", row):
            line = ",".join(fields)
            at = draw(st.integers(0, len(line)))
            fields = [line[:at] + draw(st.sampled_from(INSERTED_CHARS)) + line[at:]]
        lines.append(",".join(fields))
    ending = "\n"
    if "endings" in bends:
        ending = draw(st.sampled_from(["\r\n", "\r", "mixed"]))
    text = "".join(
        line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ending == "mixed" else ending)
        for line in lines
    )
    if "no final newline" in bends:
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=400)
@given(series_files())
def test_read_matches_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    path.write_bytes(text.encode())
    assert read_outcome(read_series_csv, path) == read_outcome(read_rows_reference, path)


@settings(max_examples=300)
@given(st.lists(stamp_texts(), min_size=1, max_size=4), stamp_texts("calendar"), st.data())
def test_stamp_at_a_calendar_edge_reads_as_parse_timestamp_reads_it(
    tmp_path_factory, stamps, edge, data
):
    """One stamp at or past a calendar field's edge among stamps pvghi
    writes, in time order; an edge stamp that parses takes its place in it."""
    stamps = sorted(set(stamps))  # one width, so text order is time order
    try:
        at = sum(parse_timestamp(s) < parse_timestamp(edge) for s in stamps)
    except (ValueError, OverflowError):
        at = data.draw(st.integers(0, len(stamps)))
    stamps.insert(at, edge)
    path = write_csv(tmp_path_factory.mktemp("csv") / "p.csv", [f"{s},1,2" for s in stamps])
    assert read_outcome(read_series_csv, path) == read_outcome(read_rows_reference, path)


def test_read_matches_row_reader_on_a_field_over_the_csv_limit(tmp_path):
    too_long = "9" * (csv.field_size_limit() + 1)
    path = write_csv(tmp_path / "p.csv", [f"2021-06-01T10:00:00Z,1,{too_long}"])
    assert read_outcome(read_series_csv, path) == read_outcome(read_rows_reference, path)
    assert "cannot read" in read_outcome(read_series_csv, path)


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, 0.30000000000000004, 1.7976931348623157e308]),
)


@st.composite
def series_columns(draw):
    n = draw(st.integers(0, 20))
    unit = draw(st.sampled_from(["s", "D"]))
    stamps = draw(arrays(np.int64, n, elements=st.integers(-719162, 2932896))).astype(
        "datetime64[D]"
    ).astype(f"datetime64[{unit}]") + draw(st.integers(0, 86399) if unit == "s" else st.just(0))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["f", "i", "u", "b"]), min_size=1, max_size=4)):
        columns.append(draw({
            "f": arrays(np.float64, n, elements=FLOATS),
            "i": arrays(np.int64, n),
            "u": arrays(np.uint8, n),
            "b": arrays(np.bool_, n),
        }[kind]))
    return stamps, columns


@given(series_columns())
def test_write_matches_row_writer(tmp_path_factory, series):
    stamps, columns = series
    header = ",".join(["timestamp"] + [f"c{k}" for k in range(len(columns))])
    folder = tmp_path_factory.mktemp("csv")
    write_series_csv(folder / "new.csv", header, stamps, columns)
    write_rows_reference(folder / "old.csv", header, stamps, columns)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
