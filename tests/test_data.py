import re

import numpy as np
import pytest

from pvghi import InputError, PlantSeries, Site, align, load_plant_csv
from pvghi.data import read_series_csv, save_plant_csv, write_series_csv


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


def test_align_idempotent(site):
    a = make_series("a", "2021-06-01T00:00:00", 12)
    b = make_series("b", "2021-06-01T00:20:00", 12)
    once = align([a, b], site)
    twice = align(list(once.plants), site)
    assert np.array_equal(once.timestamps, twice.timestamps)
    for p1, p2 in zip(once.plants, twice.plants):
        assert np.array_equal(p1.power, p2.power, equal_nan=True)


def test_site_validation():
    with pytest.raises(InputError):
        Site(latitude=95.0, longitude=0.0)
    with pytest.raises(InputError):
        Site(latitude=0.0, longitude=200.0)
    with pytest.raises(InputError):
        Site(latitude=0.0, longitude=0.0, albedo=1.5)


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
