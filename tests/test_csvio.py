"""Columnar CSV layer: exact round trips, input syntax, errors, frozen bytes."""

import hashlib
import math

import numpy as np
import pytest

from windcast.csvio import read_columns, write_columns
from windcast.errors import LoadError
from windcast.forecast import ForecastRecord, read_records_csv, write_records_csv
from windcast.ingest import (
    CANONICAL_SCHEMA,
    SchemaConfig,
    read_raw,
    write_station_csv,
)
from windcast.series import StationMeta, StationSeries
from windcast.timeutil import epoch_hour

T0 = epoch_hour("2008-01-01T00:00")
KINDS = {"time": "time", "station": "str", "speed": "float"}
SCHEMA = SchemaConfig(
    columns={"time": "time", "station": "station", "speed": "speed",
             "direction": "dir", "temperature": "t", "pressure": "p"},
    units={"speed": "m_s", "direction": "deg", "temperature": "celsius", "pressure": "hpa"},
    expected_per_hour=1,
)

EDGE_FLOATS = [1e16, 1e-5, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.7976931348623157e308,
               -123.456, float("nan"), float("inf")]


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRoundTrip:
    def test_repr_exact(self, tmp_path):
        path = tmp_path / "f.csv"
        values = np.array(EDGE_FLOATS)
        write_columns(path, ["x", "n", "flag"],
                      [values, np.arange(values.size), values > 0], ["provenance"])
        text = path.read_bytes().decode()
        assert text.startswith("# provenance\nx,n,flag\r\n1e+16,0,1\r\n1e-05,1,1\r\n-0.0,2,0\r\n")
        assert text.endswith("\r\n,8,0\r\n,9,1\r\n")  # non-finite cells are blank
        back = read_columns(path, {"x": "float", "n": "int", "flag": "int"})
        finite = np.isfinite(values)
        assert back["x"][finite].tobytes() == values[finite].tobytes()  # -0.0 keeps its sign
        assert np.isnan(back["x"][~finite]).all()
        assert back["n"].tolist() == list(range(values.size))
        assert not back.malformed.any()

    def test_nonfinite_repr_on_request(self, tmp_path):
        path = tmp_path / "f.csv"
        write_columns(path, ["x"], [np.array([np.nan, -np.inf, 1.5])], nonfinite=None)
        assert path.read_text().splitlines() == ["x", "nan", "-inf", "1.5"]

    def test_many_chunks(self, tmp_path, monkeypatch):
        import windcast.csvio

        monkeypatch.setattr(windcast.csvio, "CHUNK_ROWS", 7)
        rng = np.random.default_rng(4)
        values = rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100)
        path = tmp_path / "f.csv"
        write_columns(path, ["x", "name"], [values, [f"s{i}" for i in range(100)]])
        back = read_columns(path, {"name": "str", "x": "float"})
        assert back["x"].tobytes() == values.tobytes()
        assert back["name"].tolist() == [f"s{i}" for i in range(100)]


class TestSyntax:
    def test_quotes_crlf_padding_blanks(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b'# comment, with "a quote\r\n'
                         b'time,"station",speed\r\n'
                         b'"2008-01-01T00:00Z","S,1", 1.5 \r\n'
                         b'2008-01-01 01:00,S2,\n'
                         b'\n'
                         b'  2008-01-01T02:00:00Z ,S3,  \r\n'
                         b'2008-01-01T03:07,S4\n')
        back = read_columns(path, KINDS)
        assert back["station"].tolist() == ["S,1", "S2", "S3", "S4"]
        assert (back["time"] - 60 * T0).tolist() == [0, 60, 120, 187]
        assert back["speed"][0] == 1.5
        assert np.isnan(back["speed"][1:]).all()  # blank, all-space and missing cells
        assert not back.malformed.any()

    def test_quotes_without_comments(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text('time,station,speed\n2008-01-01T00:00,"S1",1\n"2008-01-01T01:00",S2,"2"\n')
        back = read_columns(path, KINDS)
        assert back["station"].tolist() == ["S1", "S2"]
        assert back["speed"].tolist() == [1.0, 2.0]

    def test_quoted_line_break_across_chunks(self, tmp_path, monkeypatch):
        import windcast.csvio

        monkeypatch.setattr(windcast.csvio, "CHUNK_ROWS", 2)
        path = tmp_path / "f.csv"
        path.write_text("time,station,speed\n2008-01-01T00:00,S1,1\n2008-01-01T01:00,S2,2\n"
                        '2008-01-01T02:00,"S\n3",3\n# late comment\n2008-01-01T03:00,S4,4\n'
                        "soon,S5,5\n")
        with pytest.raises(LoadError, match=r":8: unparseable time 'soon'"):
            read_columns(path, KINDS)
        path.write_text(path.read_text().replace("soon", "2008-01-01T04:00"))
        back = read_columns(path, KINDS)
        assert back["station"].tolist() == ["S1", "S2", "S\n3", "S4", "S5"]
        assert back["speed"].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_long_and_short_rows_in_one_chunk(self, tmp_path):
        # one extra field and one missing field: the rows between must not shift
        path = tmp_path / "f.csv"
        path.write_text("time,station,speed\n2008-01-01T00:00,S1,1,extra\n"
                        "2008-01-01T01:00,S2,2\n2008-01-01T02:00,S3\n2008-01-01T03:00,S4,4\n")
        back = read_columns(path, KINDS)
        assert back["station"].tolist() == ["S1", "S2", "S3", "S4"]
        assert (back["time"] - 60 * T0).tolist() == [0, 60, 120, 180]
        assert back["speed"][[0, 1, 3]].tolist() == [1.0, 2.0, 4.0]
        assert np.isnan(back["speed"][2])

    def test_malformed_float_flagged_or_refused(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time,station,speed\n2008-01-01T00:00,S1,oops\n"
                        "2008-01-01T01:00,S1,2.5\n")
        back = read_columns(path, KINDS, lenient=True)
        assert back.malformed.tolist() == [True, False]
        assert np.isnan(back["speed"][0]) and back["speed"][1] == 2.5
        with pytest.raises(LoadError, match=r":2: unparseable float 'oops'"):
            read_columns(path, KINDS)

    def test_empty_and_missing_columns(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# only provenance\n\n")
        with pytest.raises(LoadError, match="empty file"):
            read_columns(path, KINDS)
        path.write_text("time,station\n")
        with pytest.raises(LoadError, match=r"\['speed'\]"):
            read_columns(path, KINDS)
        back = read_columns(path, {"time": "time", "station": "str"})
        assert back["time"].dtype == np.int64 and back["time"].size == 0


class TestErrorsAndFilters:
    def test_bad_timestamp_physical_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# one\n# two\ntime,station,speed\n2008-01-01T00:00Z,S1,1\n"
                        "# three\n\n2008-01-01T01:00Z,S1,1\nsoon,S1,1\n")
        with pytest.raises(LoadError, match=r"f\.csv:8: unparseable time 'soon'"):
            read_columns(path, KINDS)

    def test_blank_timestamp_is_an_error(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time,station,speed\n2008-01-01T00:00Z,S1,1\n,S1,1\n")
        with pytest.raises(LoadError, match=r":3: unparseable time ''"):
            read_columns(path, KINDS)

    def test_bad_integer_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("n\n1\n2\nthree\n")
        with pytest.raises(LoadError, match=r":4: unparseable int 'three'"):
            read_columns(path, {"n": "int"})
        path.write_text("n\n1\n99999999999999999999\n")
        with pytest.raises(LoadError, match=r":3: unparseable int"):
            read_columns(path, {"n": "int"})

    def test_multi_station_filter(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time,station,speed,dir,t,p\n"
                        "2008-01-01T00:00Z,PICT,5.0,90,15,920\n"
                        "bad time,JAYT,9.0,90,15,920\n"
                        "2008-01-01T00:00Z,JAYT,oops,90,15,920\n"
                        "2008-01-01T01:00Z,PICT,6.0,-999,15,920\n")
        raw = read_raw(path, SCHEMA, station_id="PICT")
        assert raw.speed.tolist() == [5.0, 6.0]
        assert math.isnan(raw.direction[1])  # sentinel
        assert raw.n_malformed == 0  # the malformed JAYT row is filtered out
        with pytest.raises(LoadError, match=":3:"):
            read_raw(path, SCHEMA, station_id="JAYT")
        with pytest.raises(LoadError, match=":3:"):
            read_raw(path, SCHEMA)


def _station_series():
    n = 30
    i = np.arange(n, dtype=float)
    speed = 3.0 + 0.7 * np.sin(i / 3.0)
    speed[[4, 11]] = [np.nan, -0.0]
    direction = (i * 0.37) % (2.0 * math.pi)
    direction[7] = np.nan
    temperature = 10.0 + np.cos(i) / 3.0
    temperature[2] = 1e16
    pressure = 920.0 + i * 1e-5
    pressure[20] = 5e-324
    meta = StationMeta("S07", 33.6, -100.8, 712.5)
    return StationSeries(meta=meta, times=np.arange(T0, T0 + n, dtype=np.int64),
                         wind_speed=speed, wind_direction=direction,
                         temperature=temperature, pressure=pressure)


def _forecast_records():
    out = []
    for j in range(20):
        prob = j % 3 != 0
        mu = 4.0 + j / 7.0 if prob else math.nan
        out.append(ForecastRecord("S0%d" % (1 + j % 2), T0 + j, 1 + j % 6,
                                  mu, 0.5 + j / 11.0 if prob else math.nan,
                                  -0.0 if j == 5 else 4.0 + j / 9.0, j % 4 == 0,
                                  math.nan if j == 8 else 3.0 + j / 13.0))
    return out


class TestFrozenBytes:
    """sha256 of the files written before the columnar layer existed."""

    def test_station_csv(self, tmp_path):
        path = tmp_path / "S07.csv"
        write_station_csv(_station_series(), path, header_lines=["frozen"])
        assert _sha(path) == "e4af626cdb7a7ca0739939d67500bc5094a1c48724606c08cfb69a9d85c1e248"
        back = read_raw(path, CANONICAL_SCHEMA)
        assert back.speed[11] == 0.0 and math.copysign(1.0, back.speed[11]) < 0

    def test_records_csv(self, tmp_path):
        records = _forecast_records()
        path = tmp_path / "PSS.csv"
        write_records_csv(records, path, header_lines=["frozen"])
        assert _sha(path) == "91087b260246eda1b07ea37b91396f269ea36307bc9e8f210c6d78fd173302ac"
        back = read_records_csv(path)
        assert len(back) == len(records)
        for a, b in zip(back, records):
            assert (a.station, a.issue_time, a.horizon, a.fallback) == \
                (b.station, b.issue_time, b.horizon, b.fallback)
            for name in ("mu", "sigma", "point", "observed"):
                x, y = getattr(a, name), getattr(b, name)
                assert (math.isnan(x) and math.isnan(y)) or \
                    np.float64(x).tobytes() == np.float64(y).tobytes()
