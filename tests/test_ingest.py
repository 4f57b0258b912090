"""Station CSV ingestion: schema handling, unit audit, hourly averaging."""

import logging
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from windcast.errors import InvalidInputError, LoadError
from windcast.ingest import (
    CANONICAL_SCHEMA,
    MATH_TOWARD,
    RawRecords,
    SchemaConfig,
    hourly_average,
    load_network_dir,
    read_raw,
    read_stations_csv,
    write_station_csv,
    write_stations_csv,
)
from windcast.series import Network, StationMeta, StationSeries
from windcast.timeutil import epoch_hour

META = StationMeta(id="PICT", latitude=33.6, longitude=-100.8, elevation=700.0)

FIVE_MIN_SCHEMA = SchemaConfig(
    columns={"time": "ts", "station": "site", "speed": "spd",
             "direction": "dir", "temperature": "t", "pressure": "p"},
    units={"speed": "m_s", "direction": "deg", "temperature": "celsius",
           "pressure": "hpa"},
    expected_per_hour=12,
)


def _write(path, rows, header="ts,site,spd,dir,t,p"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def _five_min_rows(day="2008-01-01", hours=24, speed=5.0, direction=90.0):
    rows = []
    for h in range(hours):
        for m in range(0, 60, 5):
            rows.append(f"{day}T{h:02d}:{m:02d}:00Z,PICT,{speed},{direction},15.0,920.0")
    return rows


def load_station_csv(path, schema, meta):
    """One station file as the hourly series load_network_dir reads from it."""
    return hourly_average(read_raw(path, schema, station_id=meta.id), schema, meta)


class TestLoading:
    def test_full_day_aggregates_to_24_hours(self, tmp_path):
        path = tmp_path / "pict.csv"
        _write(path, _five_min_rows())
        series = load_station_csv(path, FIVE_MIN_SCHEMA, META)
        assert series.n == 24
        assert np.all(np.isfinite(series.wind_speed))
        assert series.wind_speed == pytest.approx(np.full(24, 5.0))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(LoadError):
            read_raw(path, FIVE_MIN_SCHEMA)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write(path, ["2008-01-01T00:00:00Z,PICT,5.0,90.0,15.0"],
               header="ts,site,spd,dir,t")
        with pytest.raises(LoadError, match=r"\['p'\]"):
            read_raw(path, FIVE_MIN_SCHEMA)

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write(path, ["2008-01-01T00:00:00Z,PICT,5.0,90.0,15.0,920.0",
                      "not-a-time,PICT,5.0,90.0,15.0,920.0"])
        with pytest.raises(LoadError, match=":3:"):
            read_raw(path, FIVE_MIN_SCHEMA)

    def test_sentinel_treated_missing(self, tmp_path):
        path = tmp_path / "s.csv"
        rows = _five_min_rows(hours=1)
        rows[0] = rows[0].replace("5.0,90.0", "-999,90.0")
        _write(path, rows)
        raw = read_raw(path, FIVE_MIN_SCHEMA)
        assert np.isnan(raw.speed[0])
        series = hourly_average(raw, FIVE_MIN_SCHEMA, META)
        # 11 of 12 records remain: above the 75% threshold, sentinel excluded
        assert series.wind_speed[0] == pytest.approx(5.0)

    def test_malformed_numeric_counted(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = _five_min_rows(hours=1)
        rows[3] = rows[3].replace("15.0,920.0", "oops,920.0")
        _write(path, rows)
        raw = read_raw(path, FIVE_MIN_SCHEMA)
        assert raw.n_malformed == 1

    def test_undeclared_unit_rejected(self):
        with pytest.raises(LoadError, match="furlong"):
            SchemaConfig(
                columns=FIVE_MIN_SCHEMA.columns,
                units={"speed": "furlong", "direction": "deg",
                       "temperature": "celsius", "pressure": "hpa"})

    def test_unit_conversion(self, tmp_path):
        schema = SchemaConfig(
            columns=FIVE_MIN_SCHEMA.columns,
            units={"speed": "mph", "direction": "deg", "temperature": "kelvin",
                   "pressure": "pa"},
            expected_per_hour=1)
        path = tmp_path / "u.csv"
        _write(path, ["2008-01-01T00:00:00Z,PICT,10.0,180.0,288.15,92000.0"])
        series = load_station_csv(path, schema, META)
        assert series.wind_speed[0] == pytest.approx(4.4704)
        assert series.temperature[0] == pytest.approx(15.0)
        assert series.pressure[0] == pytest.approx(920.0)

    def test_station_filter(self, tmp_path):
        path = tmp_path / "two.csv"
        _write(path, ["2008-01-01T00:00:00Z,PICT,5.0,90.0,15.0,920.0",
                      "2008-01-01T00:00:00Z,JAYT,9.0,90.0,15.0,920.0"])
        raw = read_raw(path, FIVE_MIN_SCHEMA, station_id="PICT")
        assert raw.speed.tolist() == [5.0]


class TestHourlyAverage:
    def test_identical_records(self, tmp_path):
        path = tmp_path / "c.csv"
        _write(path, _five_min_rows(hours=2, speed=3.25))
        series = load_station_csv(path, FIVE_MIN_SCHEMA, META)
        assert series.wind_speed == pytest.approx([3.25, 3.25])

    def test_direction_circular_mean(self):
        # {350 deg, 10 deg} meteorological -> mean wraps to 0 deg, not 180
        times = np.array([epoch_hour("2008-01-01T00:00") * 60,
                          epoch_hour("2008-01-01T00:05") * 60 + 5], dtype=np.int64)
        met = [350.0, 10.0]
        toward = [(1.5 * math.pi - math.radians(d)) % (2 * math.pi) for d in met]
        raw = RawRecords(times_min=times, speed=np.ones(2),
                         direction=np.array(toward), temperature=np.full(2, 15.0),
                         pressure=np.full(2, 920.0))
        schema = SchemaConfig(columns=FIVE_MIN_SCHEMA.columns,
                              units=FIVE_MIN_SCHEMA.units, expected_per_hour=2,
                              min_fraction=0.75)
        series = hourly_average(raw, schema, META)
        # meteorological 0 deg maps to math angle 3*pi/2
        assert series.wind_direction[0] == pytest.approx(1.5 * math.pi, abs=1e-12)

    def test_75_percent_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = _five_min_rows(hours=1)
        _write(path, rows[:8])  # 8 of 12 records: below threshold
        series = load_station_csv(path, FIVE_MIN_SCHEMA, META)
        assert np.isnan(series.wind_speed[0])
        _write(path, rows[:9])  # 9 of 12: exactly at threshold
        series = load_station_csv(path, FIVE_MIN_SCHEMA, META)
        assert series.wind_speed[0] == pytest.approx(5.0)

    def test_idempotent_on_hourly_data(self, tmp_path):
        rng = np.random.default_rng(3)
        t0 = epoch_hour("2008-01-01T00:00")
        times = np.arange(t0, t0 + 48, dtype=np.int64)
        series = StationSeries(
            meta=META, times=times,
            wind_speed=np.abs(rng.normal(5, 2, 48)),
            wind_direction=rng.uniform(0, 2 * math.pi, 48),
            temperature=rng.normal(15, 5, 48),
            pressure=rng.normal(920, 3, 48),
        )
        path = tmp_path / "h.csv"
        write_station_csv(series, path)
        back = load_station_csv(path, CANONICAL_SCHEMA, META)
        assert np.array_equal(back.times, series.times)
        assert back.wind_speed == pytest.approx(series.wind_speed, abs=1e-12)
        assert back.wind_direction == pytest.approx(series.wind_direction, abs=1e-12)
        assert back.temperature == pytest.approx(series.temperature, abs=1e-12)
        assert back.pressure == pytest.approx(series.pressure, abs=1e-12)

    def test_gap_becomes_nan(self, tmp_path):
        path = tmp_path / "g.csv"
        rows = _five_min_rows(hours=1) + _five_min_rows(day="2008-01-01", hours=0)
        rows += [f"2008-01-01T03:{m:02d}:00Z,PICT,4.0,90.0,15.0,920.0"
                 for m in range(0, 60, 5)]
        _write(path, rows)
        series = load_station_csv(path, FIVE_MIN_SCHEMA, META)
        assert series.n == 4
        assert np.isnan(series.wind_speed[1]) and np.isnan(series.wind_speed[2])


def test_math_toward_convention(tmp_path):
    schema = SchemaConfig(
        columns=FIVE_MIN_SCHEMA.columns,
        units={"speed": "m_s", "direction": "rad", "temperature": "celsius",
               "pressure": "hpa"},
        direction_convention=MATH_TOWARD, expected_per_hour=1)
    path = tmp_path / "m.csv"
    _write(path, [f"2008-01-01T00:00:00Z,PICT,5.0,{math.pi/4},15.0,920.0"])
    series = load_station_csv(path, schema, META)
    assert series.wind_direction[0] == pytest.approx(math.pi / 4, abs=1e-12)


def test_load_network_dir_warns_per_station_with_malformed_rows(tmp_path, caplog):
    metas = [META, StationMeta("JAYT", 33.25, -100.57, 640.0)]
    write_stations_csv(metas, tmp_path / "stations.csv")
    header = "time_utc,station,wind_speed_ms,wind_dir_deg,temp_c,pressure_hpa"
    rows = [f"2008-01-01T{h:02d}:00Z,{{id}},5.0,90.0,15.0,920.0" for h in range(4)]
    good = [r.format(id="JAYT") for r in rows]
    bad = [r.format(id="PICT") for r in rows]
    bad[1] = bad[1].replace("5.0", "fast")
    bad[2] = bad[2].replace("920.0", "high").replace("15.0", "warm")
    _write(tmp_path / "PICT.csv", bad, header=header)
    _write(tmp_path / "JAYT.csv", good, header=header)
    with caplog.at_level(logging.WARNING, logger="windcast.ingest"):
        series = load_network_dir(tmp_path)
    assert [s.meta.id for s in series] == ["PICT", "JAYT"]
    assert np.isnan(series[0].wind_speed[1]) and np.isnan(series[0].pressure[2])
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1
    assert "PICT" in warnings[0] and "2 rows" in warnings[0]


def test_unread_roles_are_absent(tmp_path, caplog):
    """A load reads only the roles it is given: the others are None, not
    NaN, and a malformed cell in an unread column is not counted."""
    write_stations_csv([META], tmp_path / "stations.csv")
    header = "time_utc,station,wind_speed_ms,wind_dir_deg,temp_c,pressure_hpa"
    rows = [f"2008-01-01T{h:02d}:00Z,PICT,fast,,15.0,{920 + h}" for h in range(4)]
    _write(tmp_path / "PICT.csv", rows, header=header)
    with caplog.at_level(logging.WARNING, logger="windcast.ingest"):
        series = load_network_dir(tmp_path, roles=("temperature", "pressure"))
    assert not caplog.records
    assert series[0].wind_speed is None and series[0].wind_direction is None
    assert series[0].pressure.tolist() == [920.0, 921.0, 922.0, 923.0]
    network = Network.from_series(series)
    assert network.wind_speed is None and network.temperature.shape == (1, 4)
    assert network.subset(["PICT"]).wind_direction is None
    raw = read_raw(tmp_path / "PICT.csv", CANONICAL_SCHEMA, roles=("speed",))
    assert raw.n_malformed == 4 and raw.temperature is None and np.isnan(raw.speed).all()
    with pytest.raises(InvalidInputError, match="different fields"):
        Network.from_series([series[0], load_station_csv(tmp_path / "PICT.csv",
                                                         CANONICAL_SCHEMA, META)])


def test_stations_metadata_round_trip(tmp_path):
    metas = [META, StationMeta("JAYT", 33.25, -100.57, 640.0)]
    path = tmp_path / "stations.csv"
    write_stations_csv(metas, path)
    back = read_stations_csv(path)
    assert back == metas


def test_load_network_dir_in_a_pool_warns_in_station_order(tmp_path, caplog):
    ids = ["PICT", "JAYT", "ASPR"]
    write_stations_csv([StationMeta(i, 33.25, -100.57, 640.0) for i in ids],
                       tmp_path / "stations.csv")
    header = "time_utc,station,wind_speed_ms,wind_dir_deg,temp_c,pressure_hpa"
    for n_bad, station in zip((2, 0, 1), ids):
        rows = [f"2008-01-01T{h:02d}:00Z,{station},5.0,90.0,15.0,920.0" for h in range(4)]
        rows[:n_bad] = [r.replace(",5.0,", ",fast,") for r in rows[:n_bad]]
        _write(tmp_path / f"{station}.csv", rows, header=header)
    with caplog.at_level(logging.WARNING, logger="windcast.ingest"), \
            ProcessPoolExecutor(max_workers=2) as pool:
        series = load_network_dir(tmp_path, pool=pool)
    assert [s.meta.id for s in series] == ids
    assert np.isnan(series[0].wind_speed[:2]).all() and np.isfinite(series[1].wind_speed).all()
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 2
    assert "PICT" in warnings[0] and "2 rows" in warnings[0]
    assert "ASPR" in warnings[1] and "1 rows" in warnings[1]


def test_load_network_dir_without_stations_csv(tmp_path):
    header = "time_utc,station,wind_speed_ms,wind_dir_deg,temp_c,pressure_hpa"
    _write(tmp_path / "PICT.csv", ["2008-01-01T00:00Z,PICT,5.0,90.0,15.0,920.0"], header=header)
    with pytest.raises(LoadError, match="stations.csv"):
        load_network_dir(tmp_path)
