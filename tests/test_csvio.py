"""Columnar CSV layer: exact round trips, input syntax, errors, frozen bytes."""

import csv
import hashlib
import math
import os
import re

import numpy as np
import pytest

import windcast.csvio
import windcast.forecast
import windcast.geostrophy
import windcast.ingest
import windcast.verification
from windcast import synth
from windcast.csvio import SIDECAR_SUFFIX, _numbers, read_columns, write_columns
from windcast.errors import InvalidInputError, LoadError
from windcast.forecast import ForecastColumns, read_records_csv, write_records_csv
from windcast.geostrophy import GeoWindSeries
from windcast.ingest import (
    CANONICAL_SCHEMA,
    SchemaConfig,
    read_raw,
    read_stations_csv,
    write_station_csv,
    write_stations_csv,
)
from windcast.series import StationMeta, StationSeries
from windcast.timeutil import RENDER_SAMPLE, epoch_hour, iso_hours, parse_timestamp, render_once
from windcast.verification import read_scores_csv, score_groups, write_pit_csv, write_scores_csv

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
    j = np.arange(20)
    prob = j % 3 != 0
    return ForecastColumns(
        station=np.array(["S0%d" % (1 + i % 2) for i in range(20)]), issue_time=T0 + j,
        horizon=1 + j % 6, mu=np.where(prob, 4.0 + j / 7.0, math.nan),
        sigma=np.where(prob, 0.5 + j / 11.0, math.nan),
        point=np.where(j == 5, -0.0, 4.0 + j / 9.0), fallback=j % 4 == 0,
        observed=np.where(j == 8, math.nan, 3.0 + j / 13.0))


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
        for name in ("station", "issue_time", "horizon", "fallback"):
            assert getattr(back, name).tolist() == getattr(records, name).tolist(), name
        for name in ("mu", "sigma", "point", "observed"):
            x, y = getattr(back, name), getattr(records, name)
            same = (np.isnan(x) & np.isnan(y)) | (x.view(np.int64) == y.view(np.int64))
            assert same.all(), name


def _csv_writer_reference(path, header, columns, header_lines=(), nonfinite=""):
    """write_columns as it was built on csv.writer: the bytes it must match."""
    import windcast.csvio

    def cells(values):
        if values.dtype.kind == "b":
            return values.astype(np.int64).tolist()
        out = values.tolist()
        if values.dtype.kind == "f" and nonfinite is not None:
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                out[i] = nonfinite
        return out

    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    chunk = windcast.csvio.CHUNK_ROWS
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, n, chunk):
            writer.writerows(zip(*(cells(c[lo:lo + chunk]) for c in columns)))


TEXT_CELLS = ["plain", "a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\n", " lead",
              "trail ", "  both  ", "", '"', ",", "", "tab\tok", "#not a comment", "ünï"]


class TestWriterBytes:
    """write_columns writes the bytes csv.writer writes, on every kind of cell."""

    def _same(self, tmp_path, header, columns, **kw):
        ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
        write_columns(ours, header, columns, **kw)
        _csv_writer_reference(theirs, header, columns, **kw)
        assert ours.read_bytes() == theirs.read_bytes()
        return ours.read_bytes()

    def test_text_cells(self, tmp_path):
        n = len(TEXT_CELLS)
        self._same(tmp_path, ["text", "x"], [TEXT_CELLS, np.arange(n) / 4.0])
        self._same(tmp_path, ["text", "x"], [np.array(TEXT_CELLS), np.arange(n)])
        self._same(tmp_path, ["a,b", 'q"', "lf\n", ""], [TEXT_CELLS[::-1]] * 4,
                   header_lines=["provenance, with a comma"])

    def test_single_column_with_empty_cells(self, tmp_path):
        data = self._same(tmp_path, ["name"], [["a", "", "b,c", ""]])
        assert data == b'name\r\na\r\n""\r\n"b,c"\r\n""\r\n'
        assert self._same(tmp_path, [""], [["", "x"]]) == b'""\r\n""\r\nx\r\n'
        self._same(tmp_path, ["x"], [np.array([np.nan, 1.0, np.inf])])

    @pytest.mark.parametrize("nonfinite", ["", None, "NA", "n,a"])
    def test_nonfinite_and_signed_zero(self, tmp_path, nonfinite):
        values = np.array(EDGE_FLOATS + [-np.inf, -0.0, np.nan])
        data = self._same(tmp_path, ["x", "y"], [values, values[::-1].copy()],
                          nonfinite=nonfinite)
        assert b"-0.0" in data

    def test_bool_and_int_columns(self, tmp_path):
        n = np.array([0, -1, 2**62, -2**63, 7], dtype=np.int64)
        flags = np.array([True, False, True, True, False])
        data = self._same(tmp_path, ["n", "flag", "u", "i32"],
                          [n, flags, n.view(np.uint64), n.astype(np.int32)])
        assert data.splitlines()[1] == b"0,1,0,0"
        self._same(tmp_path, ["flag"], [[True, False]])

    def test_block_columns(self, tmp_path):
        # verification._write_blocks: lists of python ints, floats and text
        blocks = [(["S01"] * 2, ["PSS"] * 2, [2, 2], ["2010-01", "overall"], [31, 31],
                   [0.5, float("nan")]),
                  (["S02"], ["TDDGW-MD"], [6], ["overall"], [0], [math.inf])]
        columns = [[v for block in blocks for v in block[i]] for i in range(6)]
        self._same(tmp_path, list("svhmnx"), columns, header_lines=["blocks"])
        self._same(tmp_path, list("svhmnx"), [[]] * 6)

    def test_zero_rows(self, tmp_path):
        data = self._same(tmp_path, ["t", "x"], [[], np.zeros(0)], header_lines=["p"])
        assert data == b"# p\nt,x\r\n"
        assert self._same(tmp_path, [], []) == b"\r\n"

    def test_several_chunks(self, tmp_path, monkeypatch):
        import windcast.csvio

        monkeypatch.setattr(windcast.csvio, "CHUNK_ROWS", 3)
        rng = np.random.default_rng(8)
        values = rng.standard_normal(11)
        values[[2, 9]] = np.nan
        text = (TEXT_CELLS * 2)[:11]
        self._same(tmp_path, ["t", "x", "n", "f"],
                   [text, values, np.arange(11), values > 0], nonfinite="")
        self._same(tmp_path, ["t"], [text])


# NaN with another payload than numpy's: it must still write as a NaN
OTHER_NAN = float(np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64))
REPEATED_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, 1.5, -7.25, OTHER_NAN]


class TestRenderOnce:
    """Chunks whose values repeat are rendered one distinct value at a time
    (timeutil.render_once), to the bytes csv.writer writes."""

    same = TestWriterBytes._same

    @pytest.mark.parametrize("nonfinite", ["", None, "NA", "n,a"])
    def test_repeated_chunks(self, tmp_path, monkeypatch, nonfinite):
        import windcast.csvio

        monkeypatch.setattr(windcast.csvio, "CHUNK_ROWS", 40)
        rng = np.random.default_rng(11)
        floats = rng.choice(np.array(REPEATED_FLOATS), 200)
        ints = rng.choice(np.array([0, -1, 7, 2**40, -2**63]), 200)
        columns = [floats, floats.astype(np.float32), ints, ints.astype(np.int32), floats > 0,
                   np.repeat(floats[:25], 8)]  # runs of 8 straddle chunk boundaries
        data = self.same(tmp_path, ["f8", "f4", "i8", "i4", "b", "run"], columns,
                         nonfinite=nonfinite)
        assert b"-0.0," in data and b",0.0," in data

    def test_distinct_sample_then_repeats(self, tmp_path, monkeypatch):
        import windcast.csvio

        monkeypatch.setattr(windcast.csvio, "CHUNK_ROWS", 1000)
        rng = np.random.default_rng(12)
        values = np.concatenate([rng.standard_normal(RENDER_SAMPLE),
                                 rng.choice(np.array(REPEATED_FLOATS), 1500)])
        self.same(tmp_path, ["x", "n"], [values, np.arange(values.size) // 300])

    def test_sample_decides_the_path(self):
        rendered = []

        def render(values):
            rendered.append(values.size)
            return list(map(repr, values.tolist()))

        head = np.arange(RENDER_SAMPLE, dtype=np.float64)
        distinct_first = np.concatenate([head, np.zeros(744)])
        assert render_once(distinct_first, render) == list(map(repr, distinct_first.tolist()))
        repeated_first = np.concatenate([np.zeros(RENDER_SAMPLE), -head])
        assert render_once(repeated_first, render) == list(map(repr, repeated_first.tolist()))
        assert rendered == [1000, RENDER_SAMPLE + 1]  # -0.0 is not 0.0

    @pytest.mark.parametrize("case", ["repeated", "unsorted", "single", "distinct"])
    def test_iso_hours(self, case):
        rng = np.random.default_rng(13)
        hours = T0 + np.arange(-30, 500)
        eh = {"repeated": np.repeat(hours, 6), "unsorted": rng.choice(hours, 3000),
              "single": hours[:1], "distinct": hours}[case]
        expected = [f"{np.datetime64(h, 'h')}:00Z" for h in eh.tolist()]
        assert iso_hours(eh) == expected
        assert iso_hours(eh.tolist()) == expected


def _float_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


class TestFloatText:
    """Floats are written as float.__repr__ writes them, although orjson
    formats most of them: _numbers equals repr cell for cell, and the file
    equals csv.writer's."""

    same = TestWriterBytes._same

    def _check(self, tmp_path, values, nonfinite=""):
        want = [nonfinite if nonfinite is not None and not math.isfinite(v) else repr(v)
                for v in values.tolist()]
        assert _numbers(values, nonfinite) == want
        self.same(tmp_path, ["x"], [values], nonfinite=nonfinite)

    def test_random_bit_patterns(self, tmp_path):
        """2**20 finite bit patterns: half over every exponent, half over the
        binades from 2**-17 to 2**57, across both ends of orjson's range."""
        rng = np.random.default_rng(21)
        n = 1 << 19
        anywhere = _float_bits(rng.integers(0, 2**64, n, dtype=np.uint64))
        exponent = rng.integers(1023 - 17, 1023 + 58, n, dtype=np.uint64)
        near = _float_bits(rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
                           | exponent << np.uint64(52)
                           | rng.integers(0, 2**52, n, dtype=np.uint64))
        values = np.concatenate([anywhere[np.isfinite(anywhere)], near])
        assert values.size >= 10**6
        self._check(tmp_path, values)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = np.array([10.0 ** k for k in range(-5, 18)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        assert 1e16 in values and np.nextafter(1e-4, 0) in values
        self._check(tmp_path, values)

    def test_zeros_and_subnormals(self, tmp_path):
        rng = np.random.default_rng(22)
        subnormal = _float_bits(rng.integers(1, 2**52, 1000, dtype=np.uint64))
        values = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  2.2250738585072014e-308], subnormal, -subnormal])
        self._check(tmp_path, values)

    @pytest.mark.parametrize("nonfinite", ["", None])
    def test_nonfinite(self, tmp_path, nonfinite):
        nans = _float_bits([0x7FF8000000000000, 0xFFF8000000000001])  # two payloads
        values = np.array([math.inf, 1.5, -math.inf, *nans, 0.0, 1e16, 1e-5, *nans, -2.5])
        self._check(tmp_path, values, nonfinite)

    @pytest.mark.parametrize("layout", ["float32", "strided", "big-endian", "big-endian-f4"])
    def test_input_layouts(self, tmp_path, layout):
        """Digits are those of float(v), whatever the dtype, byte order or
        strides of the column."""
        rng = np.random.default_rng(23)
        wind = np.concatenate([rng.gamma(2.0, 3.0, 3000), rng.uniform(0, 360, 3000),
                               rng.normal(1013.25, 12, 3000), [1e-5, 1e16, 0.1, -0.0]])
        values = {"float32": wind.astype(np.float32),
                  "strided": np.column_stack([wind, -wind])[:, 1],
                  "big-endian": wind.astype(">f8"),
                  "big-endian-f4": wind.astype(">f4")}[layout]
        self._check(tmp_path, values)

    def test_empty_chunk(self, tmp_path):
        assert _numbers(np.zeros(0), "") == []
        self._check(tmp_path, np.zeros(0, dtype=np.float32), None)


def _typed_and_reference(monkeypatch, path, kinds, keep=None, lenient=False):
    """read_columns as it reads ``path``, whether its typed loadtxt pass took
    the file, and the csv.reader path's reading of the same file."""
    import windcast.csvio

    typed = windcast.csvio._typed
    taken = []

    def spy(*args):
        out = typed(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(windcast.csvio, "_typed", spy)
    result = read_columns(path, kinds, keep=keep, lenient=lenient)
    monkeypatch.setattr(windcast.csvio, "_typed", lambda *args: None)
    reference = read_columns(path, kinds, keep=keep, lenient=lenient)
    monkeypatch.setattr(windcast.csvio, "_typed", typed)
    return result, taken == [True], reference


def _assert_same(result, reference):
    assert list(result) == list(reference)
    for name in reference:
        assert result[name].dtype == reference[name].dtype, name
        assert result[name].tobytes() == reference[name].tobytes(), name
    assert result.malformed.tobytes() == reference.malformed.tobytes()


ROWS = "2008-01-01T00:00Z,S1,1.5\n2008-01-01T01:00Z,S2,2.5\n"
# name -> (file bytes, kinds, keep, whether the typed pass reads it)
CORPUS = {
    "plain LF": (b"time,station,speed\n" + ROWS.encode(), KINDS, None, True),
    "CRLF": (b"time,station,speed\r\n" + ROWS.replace("\n", "\r\n").encode(), KINDS, None, True),
    "provenance and blank lines first": (
        b'# a "quoted, comment\n\n# more\r\n\ntime,station,speed\n' + ROWS.encode(),
        KINDS, None, True),
    "quoted commas, doubled quotes and line breaks": (
        b'time,"station",speed\n"2008-01-01T00:00Z","S,1","1.5"\n'
        b'2008-01-01T01:00Z,"S""2",2\n2008-01-01T02:00Z,"S\n3",3\n', KINDS, None, True),
    "quotes in a CRLF file": (
        b'time,station,speed\r\n2008-01-01T00:00Z,"S\r\n1",1.5\r\n', KINDS, None, False),
    "padded cells": (
        b"time,station,speed\n  2008-01-01T00:00Z , S1 , 1.5 \n"
        b"2008-01-01 01:00,S2,\t2.5\n2008-01-01T02:00:59Z,S3,3\n", KINDS, None, True),
    "blank lines between rows and extra fields": (
        b"time,station,speed\n\n2008-01-01T00:00Z,S1,1.5,x\n\r\n2008-01-01T01:00Z,S2,2.5\n",
        KINDS, None, True),
    "columns in another order": (
        b"speed,x,station,time\n1.5,0,S1,2008-01-01T00:00Z\n2.5,0,S2,2008-01-01T01:00Z\n",
        KINDS, None, True),
    "keep drops rows": (
        b"time,station,speed\n" + (ROWS * 3).encode(), KINDS, ("station", "S2"), True),
    "keep drops every row": (
        b"time,station,speed\n" + ROWS.encode(), KINDS, ("station", "S9"), True),
    "keep on a float column": (
        b"time,station,speed\n" + ROWS.encode(), KINDS, ("speed", "2.5"), False),
    "no data rows": (b"# x\ntime,station,speed\n", KINDS, None, False),
    "one data row, no final newline": (
        b"time,station,speed\n2008-01-01T00:00Z,S1,1", KINDS, None, True),
    "ints and non-ASCII text": (
        "n,name\n-0,Zürich\n+5,São Paulo\n 7 ,x\n".encode(), {"n": "int", "name": "str"},
        None, True),
    "blank cells": (b"time,station,speed\n2008-01-01T00:00Z,S1,\n2008-01-01T01:00Z,,2\n",
                    KINDS, None, True),
    "short row": (b"time,station,speed\n2008-01-01T00:00Z,S1\n", KINDS, None, False),
    "late comment": (b"time,station,speed\n" + ROWS.encode() + b"# x,y,z\n", KINDS, None, False),
    "malformed float": (b"time,station,speed\n2008-01-01T00:00Z,S1,oops\n", KINDS, None, False),
}
GAPPY_KINDS = {"speed": "float", "time": "time", "station": "str", "n": "int"}
GAPPY_ROWS = (b"speed,time,station,n,temp\n"
              b",2008-01-01T00:00Z,S1,1,\n"  # blanks at the start and end of a row
              b"1.5,2008-01-01T01:00Z,,2,3\n"  # a blank str cell
              b"2.5,2008-01-01T02:00Z,S3,3,4\n"
              b",2008-01-01T03:00Z,S1,4,")  # a blank last cell at EOF
# gappy station and forecast files: blank cells that the typed pass reads
CORPUS.update({
    "gappy station file": (GAPPY_ROWS, GAPPY_KINDS, None, True),
    "gappy station file, CRLF": (GAPPY_ROWS.replace(b"\n", b"\r\n"), GAPPY_KINDS, None, True),
    "gappy, blank unread column only": (GAPPY_ROWS, {"time": "time", "n": "int"}, None, True),
    "gappy, keep": (GAPPY_ROWS, GAPPY_KINDS, ("station", "S1"), True),
    "gappy, all blank float column": (
        b"a,mu,b\n1,,x\n2,,y\n", {"a": "int", "mu": "float", "b": "str"}, None, True),
    "gappy, blank-only row": (b"a,b,c\n1,2,3\n,,\n", {"a": "float", "c": "str"}, None, True),
    "gappy, space-only and padded floats": (
        b"x,y,z\n1, ,\n \t2 ,3,\n", {"x": "float", "y": "float"}, None, True),
    "gappy, python-only number syntax": (
        b"x,y\n1_0,\n,2\n", {"x": "float", "y": "float"}, None, True),
    "gappy, malformed float flagged": (
        b"x,y\noops,\n1,nan(1)\n2,\xc2\xb2\n", {"x": "float", "y": "float"}, None, True),
    "gappy, non-Latin-1 float cell": (
        "x,y\n1,\n2,\u0101\n".encode(), {"x": "float", "y": "float"}, None, False),
    "gappy, non-ASCII text": (
        "n,name,x\n1,Zürich,\n2,\u0101,3\n".encode(), {"n": "int", "name": "str", "x": "float"},
        None, True),
    "gappy, quoted commas and line breaks": (
        b'time,station,speed\n2008-01-01T00:00Z,"S,\n1",\n2008-01-01T01:00Z,"S""2",2\n',
        KINDS, None, True),
    "gappy, wide float cell": (
        b"x,y\n1,\n" + b"0" * 30 + b"1,2\n", {"x": "float", "y": "float"}, None, False),
    "NUL bytes": (b"a,b,c\n1,2\0,x\0\n3,,y\n", {"a": "float", "b": "float", "c": "str"},
                  None, False),
    "gappy forecast file": (
        b"station,issue_time,horizon,mu,sigma,point,fallback,observed\r\n"
        b"S01,2010-01-01T00:00Z,1,,,4.5,0,5.25\r\nS01,2010-01-01T00:00Z,2,,,4.5,0,\r\n"
        b"S02,2010-01-01T01:00Z,1,3.5,0.5,,1,-0.0\r\n",
        {"station": "str", "issue_time": "time", "horizon": "int", "mu": "float",
         "sigma": "float", "point": "float", "fallback": "int", "observed": "float"}, None, True),
})
# timestamps off the byte fast path, each read by the typed pass through parse_timestamp
TIMES = {
    "space separator": "2008-01-01 05:00",
    "seconds": "2008-01-01T05:00:59Z",
    "no Z": "2008-01-01T05:00",
    "date only": "2008-01-01",
    "year 10000": "10000-01-01T00:00Z",
    "year -1": "-0001-01-01T00:00Z",
    "year 0": "0000-01-01T00:00Z",
    "padded": " 2008-01-01T05:00Z ",
}
# timestamps that are errors on either path
BAD_TIMES = {"day 30 of February": "2008-02-30T00:00Z", "NaT": "NaT",
             "UTC offset": "2008-01-01T05:00+02:00", "lowercase z": "2008-01-01T05:00z",
             "now": "now", "text after the Z": "2008-01-01T05:00Z0"}


class TestTypedPath:
    """The typed loadtxt pass reads exactly what the csv.reader path reads."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, tmp_path, monkeypatch, name):
        data, kinds, keep, typed = CORPUS[name]
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        result, taken, reference = _typed_and_reference(
            monkeypatch, path, kinds, keep, lenient=True)
        _assert_same(result, reference)
        assert taken == typed

    @pytest.mark.parametrize("gappy", [False, True])
    @pytest.mark.parametrize("name", TIMES)
    def test_non_canonical_times(self, tmp_path, monkeypatch, name, gappy):
        path = tmp_path / "f.csv"
        path.write_text(f"time,station,speed\n2008-01-01T00:00Z,S1,1\n{TIMES[name]},S2,"
                        f"{'' if gappy else 2}\n")
        result, taken, reference = _typed_and_reference(monkeypatch, path, KINDS)
        _assert_same(result, reference)
        assert taken

    @pytest.mark.parametrize("gappy", [False, True])
    @pytest.mark.parametrize("name", BAD_TIMES)
    def test_bad_times_on_both_paths(self, tmp_path, monkeypatch, name, gappy):
        import windcast.csvio

        path = tmp_path / "f.csv"
        path.write_text(f"time,station,speed\n2008-01-01T00:00Z,S1,1\n\n{BAD_TIMES[name]},S2,"
                        f"{'' if gappy else 2}\n")
        message = r"f\.csv:4: unparseable time " + re.escape(repr(BAD_TIMES[name]))
        with pytest.raises(LoadError, match=message):  # typed, then csv.reader
            read_columns(path, KINDS)
        monkeypatch.setattr(windcast.csvio, "_typed", lambda *args: None)
        with pytest.raises(LoadError, match=message):  # csv.reader only
            read_columns(path, KINDS)

    def test_utc_offsets_are_refused_without_a_warning(self):
        import warnings

        for text in ("2008-01-01T05:00+02:00", "2008-01-01T05:00z", "2008-01-01T05:00-0700",
                     "2008-01-01T05:00:00.5Z+01"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match="unparseable timestamp"):
                    parse_timestamp(text)
        assert parse_timestamp("2008-01-01T05:00:30.Z") == np.datetime64("2008-01-01T05:00")

    @pytest.mark.parametrize("kind", ["int", "time"])
    def test_blank_int_or_time_goes_to_csv_reader(self, tmp_path, monkeypatch, kind):
        import windcast.csvio

        calls = []
        monkeypatch.setattr(windcast.csvio, "_field_chunks",
                            lambda *a, _f=windcast.csvio._field_chunks: calls.append(1) or _f(*a))
        path = tmp_path / "f.csv"
        good = "2008-01-01T00:00Z" if kind == "time" else "1"
        path.write_text(f"a,b\n{good},\n,2\n")
        with pytest.raises(LoadError, match=rf"f\.csv:3: unparseable {kind} ''"):
            read_columns(path, {"a": kind, "b": "float"})
        assert calls  # the typed pass gave the file up

    @pytest.mark.parametrize("rows", [3 * 16, 3 * 16 + 5])
    def test_gappy_chunks(self, tmp_path, monkeypatch, rows):
        """A gappy file is read CHUNK_ROWS rows at a time, with the same
        arrays, also when the rows fill the last chunk exactly."""
        import windcast.csvio

        monkeypatch.setattr(windcast.csvio, "CHUNK_ROWS", 16)
        path = tmp_path / "f.csv"
        speed = np.where(np.arange(rows) % 7 == 3, np.nan, np.arange(rows) / 3.0)
        write_columns(path, ["time", "station", "speed"],
                      [iso_hours(T0 + np.arange(rows)), [f"S{i % 5}" for i in range(rows)],
                       speed], ["provenance"])
        result, taken, reference = _typed_and_reference(
            monkeypatch, path, KINDS, keep=("station", "S2"))
        _assert_same(result, reference)
        assert taken and result["speed"].tobytes() == speed[np.arange(rows) % 5 == 2].tobytes()

    def test_gappy_loadtxt_sees_at_most_chunk_rows(self, tmp_path, monkeypatch):
        from windcast.csvio import CHUNK_ROWS

        seen = []

        def spy(*args, _loadtxt=np.loadtxt, **kwargs):
            table = _loadtxt(*args, **kwargs)
            seen.append(len(table))
            return table

        rows = 3 * CHUNK_ROWS + 5
        path = tmp_path / "f.csv"
        speed = np.where(np.arange(rows) % 2 == 0, np.nan, 1.5)
        write_columns(path, ["time", "station", "speed"],
                      [iso_hours(T0 + np.arange(rows)), ["S1"] * rows, speed])
        monkeypatch.setattr(np, "loadtxt", spy)
        back = read_columns(path, KINDS)
        assert back["speed"].tobytes() == speed.tobytes()
        assert seen == [CHUNK_ROWS] * 3 + [5]

    def test_blank_forecast_columns_stay_typed(self, tmp_path, monkeypatch):
        """A 104,256-row persistence forecast file, with mu and sigma blank on
        every row, is read without the csv.reader path."""
        import windcast.csvio

        def fail(*args):
            raise AssertionError("the csv.reader path read a forecast file")

        n = 104_256
        j = np.arange(n)
        cols = ForecastColumns(
            station=np.array(["S01", "S02", "S03", "S04"])[j % 4], issue_time=T0 + j // 24,
            horizon=1 + j % 6, mu=np.full(n, math.nan), sigma=np.full(n, math.nan),
            point=np.where(j % 1000 == 7, math.nan, j / 7.0), fallback=j % 5 == 0,
            observed=np.where(j % 999 == 0, math.nan, -j / 9.0))
        path = tmp_path / "PSS.csv"
        write_records_csv(cols, path)
        monkeypatch.setattr(windcast.csvio, "_field_chunks", fail)
        back = read_records_csv(path)
        for name in ("station", "issue_time", "horizon", "mu", "sigma", "point", "fallback",
                     "observed"):
            assert getattr(back, name).tobytes() == getattr(cols, name).tobytes(), name

    @pytest.mark.parametrize("nonfinite", ["", None])
    def test_edge_floats(self, tmp_path, monkeypatch, nonfinite):
        path = tmp_path / "f.csv"
        values = np.array(EDGE_FLOATS + [-np.inf])
        rows = np.arange(values.size)
        write_columns(path, ["t", "x", "n", "s"],
                      [iso_hours(T0 + rows), values, rows - 3, [f"s{i}" for i in rows]],
                      ["provenance"], nonfinite=nonfinite)
        kinds = {"s": "str", "x": "float", "t": "time", "n": "int"}
        result, taken, reference = _typed_and_reference(monkeypatch, path, kinds)
        _assert_same(result, reference)
        assert taken  # blank non-finite cells read NaN on the typed path too
        if nonfinite is None:
            assert result["x"].tobytes() == values.tobytes()

    def test_late_comment_with_the_header_width(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_text("a,b,c\nx,y,z\n# a,b,c\nu,v,w\n")
        kinds = {"a": "str", "b": "str", "c": "str"}
        result, _, reference = _typed_and_reference(monkeypatch, path, kinds)
        _assert_same(result, reference)
        assert result["a"].tolist() == ["x", "u"]

    @pytest.mark.parametrize("extra", [0, 9])
    @pytest.mark.parametrize("kept", ["cut", "wide"])
    def test_wide_text_is_not_cut(self, tmp_path, monkeypatch, extra, kept):
        from windcast.csvio import TEXT_WIDTH

        wide = "W" * (TEXT_WIDTH + extra)
        path = tmp_path / "f.csv"
        path.write_text(f"time,station,speed\n2008-01-01T00:00Z,{wide},1\n"
                        f"2008-01-01T01:00Z,S2,2\n")
        # a cut cell would match the first value, and not match the second
        keep = "W" * TEXT_WIDTH if kept == "cut" else wide
        result, taken, reference = _typed_and_reference(
            monkeypatch, path, KINDS, keep=("station", keep))
        _assert_same(result, reference)
        assert not taken and result["station"].tolist() == ([wide] if keep == wide else [])
        assert read_columns(path, KINDS)["station"].tolist() == [wide, "S2"]

    def test_int_with_a_fraction_is_refused(self, tmp_path):
        # numpy 1.24-1.26 loadtxt reads '1.0' as an int, with a DeprecationWarning
        path = tmp_path / "f.csv"
        path.write_text("n\n1\n1.0\n")
        with pytest.raises(LoadError, match=r":3: unparseable int '1.0'"):
            read_columns(path, {"n": "int"})

    def test_nat_text_is_an_error(self, tmp_path):
        # numpy reads the text 'NaT' as a time; parse_timestamp refuses it
        path = tmp_path / "f.csv"
        path.write_text("time,station,speed\n2008-01-01T00:00Z,S1,1\nNaT,S1,2\n")
        with pytest.raises(LoadError, match=r":3: unparseable time 'NaT'"):
            read_columns(path, KINDS)

    def test_python_only_number_syntax(self, tmp_path, monkeypatch):
        # float() and int() read underscores and non-ASCII digits; loadtxt does not
        path = tmp_path / "f.csv"
        path.write_text("x,n\n1_0,2_0\n١٢,٣\n", encoding="utf-8")
        result, taken, reference = _typed_and_reference(
            monkeypatch, path, {"x": "float", "n": "int"})
        _assert_same(result, reference)
        assert result["x"].tolist() == [10.0, 12.0] and result["n"].tolist() == [20, 3]

    @pytest.mark.parametrize("body, plain", [
        (b"a,b\n1,2\r\n3,4", True),
        (b"# x,,y\n#\n\na,b\n1,2\n", True),
        (b"a,b\n1,,2\n", False),
        (b"a,b\n1,\n", False),
        (b"a,b\r\n1,\r\n", False),
        (b"a,b\n,2\n", False),
        (b"a,b\n1,2\n#\n", False),
        (b"a,b\n1,", False),
        (b'a,b\n"1",2\n', True),
        (b'a,b\r\n"1",2\r\n', False),
    ])
    def test_prescan(self, body, plain):
        from windcast.csvio import _prescan

        assert (_prescan(body) == "plain") is plain

    @pytest.mark.parametrize("body, shape", [
        (b"a,b\n1,,2\n", "gappy"),
        (b"a,b\n1,\n", "gappy"),
        (b"a,b\r\n1,\r\n", "gappy"),
        (b"a,b\n,2\n", "gappy"),
        (b"a,b\n1,", "gappy"),
        (b'a,b\n"1",\n', "gappy"),
        (b"a,b\n1,2\n#\n", None),
        (b"a,b\n1,\n#\n", None),
        (b'a,b\r\n"1",2\r\n', None),
        (b'a,b\r\n"1",\r\n', None),
        (b"a,b\n1,2\0\n", None),
    ])
    def test_prescan_gappy_or_refused(self, body, shape):
        from windcast.csvio import _prescan

        assert _prescan(body) == shape

    def test_refused_file_skips_loadtxt(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_text("time,station,speed\n" + ROWS * 50 + "# late\n2008-01-02T00:00Z,S1,\n")

        def fail(*args, **kwargs):
            raise AssertionError("loadtxt called on a file with a '#' line after its header")

        monkeypatch.setattr(np, "loadtxt", fail)
        back = read_columns(path, KINDS)
        assert back["speed"].size == 101 and np.isnan(back["speed"][-1])


# ---------------------------------------------------------------------------
# sidecars: a CSV written with a cache directory is read back from the arrays
# stored there, which must be the arrays a parse of its text gives


def _no_parse(*args):
    raise AssertionError("parsed, not served from the sidecar")


def _served_and_parsed(monkeypatch, path, kinds, keep, lenient, cache):
    """read_columns served from the sidecar in ``cache`` with every parse
    path disabled, and read_columns parsing the same file."""
    with monkeypatch.context() as patch:
        patch.setattr(windcast.csvio, "_typed", _no_parse)
        patch.setattr(windcast.csvio, "_field_chunks", _no_parse)
        served = read_columns(path, kinds, keep=keep, lenient=lenient, cache=cache)
    return served, read_columns(path, kinds, keep=keep, lenient=lenient)


def _reader_requests(monkeypatch, module, read) -> list:
    """The (path, kinds, keep, lenient) of each read_columns call that
    ``read()`` makes through ``module``."""
    calls, real = [], module.read_columns

    def spy(path, kinds, keep=None, lenient=False, cache=None):
        calls.append((path, dict(kinds), keep, lenient))
        return real(path, kinds, keep=keep, lenient=lenient, cache=cache)

    with monkeypatch.context() as patch:
        patch.setattr(module, "read_columns", spy)
        read()
    assert calls
    return calls


def _edge_station(station_id):
    series = _station_series()
    series.meta = StationMeta(station_id, 33.6, -100.8, 712.5)
    series.temperature[[5, 6]] = [math.inf, -math.inf]
    return series


def _edge_geowind():
    n = 12
    values = np.linspace(-3.0, 3.0, n)
    values[[1, 2, 3, 4]] = [math.nan, math.inf, -math.inf, -0.0]
    return GeoWindSeries(times=np.arange(T0, T0 + n, dtype=np.int64), u_g=values,
                         v_g=values[::-1].copy(), w_g=np.abs(values), theta_g=values / 7.0,
                         n_stations=np.arange(n) % 13, rms_residual=np.full(n, 0.25))


def _reports(records):
    return list(score_groups(records, "PSS").values())


# writer -> (module whose read_columns the reader calls, write(path, cache), readers)
SIDECAR_WRITERS = {
    "station": (windcast.ingest,
                lambda p, c: write_station_csv(_edge_station('S,"7'), p, ["prov"], cache=c),
                [lambda p, c: read_raw(p, CANONICAL_SCHEMA, 'S,"7', cache=c),
                 lambda p, c: read_raw(p, CANONICAL_SCHEMA, "S99", ("speed",), cache=c),
                 lambda p, c: read_raw(p, CANONICAL_SCHEMA, None, ("pressure",), cache=c)]),
    "station non-ASCII": (windcast.ingest,
                          lambda p, c: write_station_csv(_edge_station("Zürich"), p, cache=c),
                          [lambda p, c: read_raw(p, CANONICAL_SCHEMA, "Zürich", cache=c)]),
    "stations": (windcast.ingest,
                 lambda p, c: write_stations_csv(
                     [StationMeta('a,"b', 1.5, -0.0, 3.0),
                      StationMeta("Zürich", 47.4, 8.5, 408.0),
                      StationMeta(" S3 ", 1e-5, -179.99999999999997, -2.5)], p, cache=c),
                 [lambda p, c: read_stations_csv(p, cache=c)]),
    "truth": (windcast.geostrophy,
              lambda p, c: synth.generate(synth.SynthConfig(seed=5, days=2))[1].to_csv(
                  p, ["truth"], cache=c),
              [lambda p, c: GeoWindSeries.from_csv(p, cache=c)]),
    "geowind": (windcast.geostrophy,
                lambda p, c: _edge_geowind().to_csv(p, ["prov"], cache=c),
                [lambda p, c: GeoWindSeries.from_csv(p, cache=c)]),
    "forecast": (windcast.forecast,
                 lambda p, c: write_records_csv(_forecast_records(), p, ["prov"], cache=c),
                 [lambda p, c: read_records_csv(p, cache=c)]),
    "forecast empty": (windcast.forecast,
                       lambda p, c: write_records_csv(_forecast_records().take([]), p, cache=c),
                       [lambda p, c: read_records_csv(p, cache=c)]),
    "scores": (windcast.verification,
               lambda p, c: write_scores_csv(_reports(_forecast_records()), p, ["prov"], cache=c),
               [lambda p, c: read_scores_csv(p, cache=c)]),
}
PIT_KINDS = {"station": "str", "variant": "str", "horizon": "int", "bin_lo": "float",
             "bin_hi": "float", "count": "int", "expected": "float"}


def _sidecars(cache) -> list:
    return sorted(cache.glob("*" + SIDECAR_SUFFIX)) if cache.is_dir() else []


class TestSidecars:
    """A sidecar read gives the arrays a parse gives: names, dtypes (text
    widths too) and bits, and the malformed flags."""

    @pytest.mark.parametrize("writer", sorted(SIDECAR_WRITERS))
    def test_every_reader_request_served_as_parsed(self, tmp_path, monkeypatch, writer):
        module, write, readers = SIDECAR_WRITERS[writer]
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        write(path, cache)
        assert len(_sidecars(cache)) == 1
        for read in readers:
            for _, kinds, keep, lenient in _reader_requests(
                    monkeypatch, module, lambda: read(path, cache)):
                _assert_same(*_served_and_parsed(monkeypatch, path, kinds, keep, lenient, cache))

    def test_pit_served_as_parsed(self, tmp_path, monkeypatch):
        path, cache = tmp_path / "pit.csv", tmp_path / "cache"
        write_pit_csv(_reports(_forecast_records()), path, ["prov"], cache=cache)
        _assert_same(*_served_and_parsed(monkeypatch, path, PIT_KINDS, None, False, cache))

    @pytest.mark.parametrize("nonfinite", ["", None])
    def test_nonfinite_signed_zero_and_text(self, tmp_path, monkeypatch, nonfinite):
        """NaN, ±inf and -0.0 in either nonfinite mode; quoted, padded,
        multi-line and non-ASCII text; ints and bools read as int."""
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        x = np.array([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16])
        text = ['a,"b"', " pad ", "", "Zürich", "x\ny", "q\r\nz", "not # first", "é"]
        times = iso_hours(T0 + np.arange(-3, 5) * 1000)
        write_columns(path, ["x", "s", "t", "i", "b", "f32"],
                      [x, text, times, np.arange(-4, 4), x > 0, x.astype(np.float32)],
                      header_lines=["a provenance line"], nonfinite=nonfinite, cache=cache)
        kinds = {"x": "float", "s": "str", "t": "time", "i": "int", "b": "int", "f32": "float"}
        served, parsed = _served_and_parsed(monkeypatch, path, kinds, None, False, cache)
        _assert_same(served, parsed)
        assert served["s"].tolist() == text and served["s"].dtype == np.dtype("U11")
        expected = x.copy()
        expected[np.isnan(x) if nonfinite is None else ~np.isfinite(x)] = math.nan
        assert np.array_equal(served["x"].view(np.uint64),
                              np.where(np.isnan(expected), math.nan, expected).view(np.uint64))

    @pytest.mark.parametrize("keep", [("s", "b"), ("s", "zz"), ("s", "long " * 6)])
    def test_keep_and_lenient(self, tmp_path, monkeypatch, keep):
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        write_columns(path, ["t", "s", "v"],
                      [iso_hours(T0 + np.arange(6)), ["a", "b", "ccc", "b", "long " * 6, "b"],
                       [1.0, math.nan, 2.5, -0.0, 3.0, 4.0]], cache=cache)
        kinds = {"t": "time", "s": "str", "v": "float"}
        for lenient in (False, True):
            served, parsed = _served_and_parsed(monkeypatch, path, kinds, keep, lenient, cache)
            _assert_same(served, parsed)
        assert served["s"].tolist() == [keep[1]] * served["s"].size

    def test_empty_tables(self, tmp_path, monkeypatch):
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        write_columns(path, ["t", "s", "x", "i"],
                      [[], [], np.zeros(0), np.zeros(0, dtype=int)], cache=cache)
        kinds = {"t": "time", "s": "str", "x": "float", "i": "int"}
        _assert_same(*_served_and_parsed(monkeypatch, path, kinds, None, False, cache))
        # a table of text columns only, as write_scores_csv writes no cells:
        # its int and float requests are parsed
        scores = tmp_path / "scores.csv"
        write_scores_csv([], scores, cache=cache)
        assert read_scores_csv(scores, cache=cache) == read_scores_csv(scores) == []

    @pytest.mark.parametrize("header, columns, kw", [
        (["s", "v"], [["#x", "y"], [1.0, 2.0]], {}),
        (["v", "s"], [[1.0, 2.0], ["a\n#b", "y"]], {}),
        (["v", "s"], [[1.0, 2.0], ["a\r\n#b", "y"]], {}),
        (["s", "v"], [["a\0b", "y"], [1.0, 2.0]], {}),
        (["#s", "v"], [["a", "y"], [1.0, 2.0]], {}),
        (["s", "v"], [["a", "y"], [1.0, math.nan]], {"nonfinite": "NA"}),
        (["s", "v"], [["a", "y"], [1.0, 2.0]], {"header_lines": ["one\ntwo"]}),
    ], ids=["hash-first-cell", "hash-after-LF", "hash-after-CRLF", "NUL", "hash-header",
            "nonfinite-text", "multiline-provenance"])
    def test_no_sidecar_for_text_that_reads_otherwise(self, tmp_path, header, columns, kw):
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        write_columns(path, header, columns, cache=cache, **kw)
        assert not _sidecars(cache)

    def test_strided_columns(self, tmp_path, monkeypatch):
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        table = np.asfortranarray(np.arange(12.0).reshape(4, 3) - 5.5)
        write_columns(path, ["x", "i"], [table[:, 1], np.arange(8)[::2]], cache=cache)
        kinds = {"x": "float", "i": "int"}
        served, parsed = _served_and_parsed(monkeypatch, path, kinds, None, False, cache)
        _assert_same(served, parsed)
        assert served["x"].tolist() == table[:, 1].tolist()

    def test_repeated_column_name_serves_the_first(self, tmp_path, monkeypatch):
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        write_columns(path, ["v", "v"], [[1.0, 2.0], [3.0, 4.0]], cache=cache)
        served, parsed = _served_and_parsed(monkeypatch, path, {"v": "float"}, None, False, cache)
        _assert_same(served, parsed)
        assert served["v"].tolist() == [1.0, 2.0]

    def test_unstored_kind_is_parsed(self, tmp_path):
        """An int column read as float, a float read as str, or time text in
        another form than YYYY-MM-DDTHH:MMZ is not in the sidecar as read, so
        the file is parsed."""
        path, cache = tmp_path / "f.csv", tmp_path / "cache"
        times = ["2008-01-01 01:00", "2008-01-01T02:00:00", "2008-01-01", " 2008-01-01T04:00Z"]
        write_columns(path, ["i", "x", "t"], [[1, 2, 3, 4], [0.5, 1.5, -0.0, 2.0], times],
                      cache=cache)
        for kinds in ({"i": "float"}, {"x": "str"}, {"t": "time", "i": "int"}):
            _assert_same(read_columns(path, kinds, cache=cache), read_columns(path, kinds))

    def test_bytes_are_deterministic(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            cache = tmp_path / name
            write_records_csv(_forecast_records(), tmp_path / f"{name}.csv", cache=cache)
            blobs.append([p.read_bytes() for p in _sidecars(cache)])
        assert blobs[0] == blobs[1] and len(blobs[0]) == 1


class TestSidecarFaults:
    """A sidecar that does not serve the file as it is on disk is passed
    over: the file is parsed, and nothing crashes."""

    KINDS = {"issue_time": "time", "station": "str", "horizon": "int", "point": "float"}

    def _written(self, tmp_path):
        path, cache = tmp_path / "PSS.csv", tmp_path / "cache"
        write_records_csv(_forecast_records(), path, ["prov"], cache=cache)
        (sidecar,) = _sidecars(cache)
        return path, cache, sidecar

    def test_csv_edited_after_writing(self, tmp_path):
        path, cache, _ = self._written(tmp_path)
        text = path.read_text()
        path.write_text(text.replace("\nS01,", "\nS09,", 1).replace("2008-01-01T05:00Z",
                                                                    "2008-01-01T05:30Z"))
        back = read_columns(path, self.KINDS, cache=cache)
        _assert_same(back, read_columns(path, self.KINDS))
        assert "S09" in back["station"].tolist()
        assert back["issue_time"][5] == 60 * (T0 + 5) + 30

    @pytest.mark.parametrize("cut", [0, 5, 9, -2, 0.5, -1])
    def test_truncated_sidecar(self, tmp_path, cut):
        path, cache, sidecar = self._written(tmp_path)
        blob = sidecar.read_bytes()
        head = blob.index(b"\n") + 1
        size = {-2: head, 0.5: len(blob) // 2, -1: len(blob) - 1}.get(cut, cut)
        sidecar.write_bytes(blob[:size])
        _assert_same(read_columns(path, self.KINDS, cache=cache), read_columns(path, self.KINDS))

    @pytest.mark.parametrize("where", ["crc", "header", "first data byte", "last data byte",
                                       "garbage", "other file"])
    def test_corrupt_sidecar(self, tmp_path, where):
        path, cache, sidecar = self._written(tmp_path)
        blob = bytearray(sidecar.read_bytes())
        head = blob.index(b"\n")
        if where == "garbage":
            blob = bytearray(b"\x93NUMPY garbage \xff\n" * 50)
        elif where == "other file":  # a valid sidecar, of other bytes, under this name
            other = tmp_path / "other"
            write_records_csv(_forecast_records().take([0, 1]), tmp_path / "o.csv", cache=other)
            blob = bytearray(_sidecars(other)[0].read_bytes())
        else:
            i = {"crc": 3, "header": head - 5, "first data byte": head + 1,
                 "last data byte": len(blob) - 1}[where]
            blob[i] ^= 0x10
        sidecar.write_bytes(bytes(blob))
        _assert_same(read_columns(path, self.KINDS, cache=cache), read_columns(path, self.KINDS))

    def test_cache_missing(self, tmp_path):
        path, cache, _ = self._written(tmp_path)
        for sidecar in _sidecars(cache):
            sidecar.unlink()
        cache.rmdir()
        _assert_same(read_columns(path, self.KINDS, cache=cache), read_columns(path, self.KINDS))

    def test_file_in_place_of_the_cache(self, tmp_path):
        path, cache = tmp_path / "PSS.csv", tmp_path / "cache"
        cache.write_text("not a directory")
        write_records_csv(_forecast_records(), path, cache=cache)
        assert cache.read_text() == "not a directory"
        _assert_same(read_columns(path, self.KINDS, cache=cache), read_columns(path, self.KINDS))
        write_records_csv(_forecast_records(), path, cache=cache / "below")  # no crash

    def test_unwritable_cache(self, tmp_path):
        """A cache that cannot be written to is skipped (as root, the write
        may still succeed; the reads are the same either way)."""
        path, cache = tmp_path / "PSS.csv", tmp_path / "cache"
        cache.mkdir()
        os.chmod(cache, 0o500)
        try:
            write_records_csv(_forecast_records(), path, cache=cache)
            assert not list(cache.glob("*.tmp"))
            _assert_same(read_columns(path, self.KINDS, cache=cache),
                         read_columns(path, self.KINDS))
        finally:
            os.chmod(cache, 0o700)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path, cache = tmp_path / "PSS.csv", tmp_path / "cache"

        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(windcast.csvio.os, "replace", full)
        write_records_csv(_forecast_records(), path, cache=cache)
        assert list(cache.iterdir()) == []
