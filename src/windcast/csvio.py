"""Columnar CSV reading and writing for every file the pipeline exchanges.

Reading skips ``#`` lines and blank lines, checks the header, and converts
each column a chunk of rows at a time. Fields may be double-quoted, rows
may end in LF or CRLF, cells may carry surrounding spaces, a short row
reads as blank cells and extra fields are ignored. Kinds: ``"float"`` (a
blank cell is NaN), ``"int"``, ``"str"`` (text unchanged) and ``"time"``
(ISO-8601 UTC to int64 epoch minutes as ``timeutil.parse_timestamp`` reads
it). An unparseable cell is a LoadError naming its physical line, except a
float cell in a lenient read, which reads NaN and flags its row as malformed.

A file with no ``#`` line after its header, no NUL byte and, if it has CR
line ends, no quote is read by typed ``numpy.loadtxt`` passes (numpy's C
tokenizer) over the requested columns only. A file with no blank cell takes
one path-based call. A file with blank cells is streamed from one open file,
``CHUNK_ROWS`` rows per call, with its float columns as bytes: a blank float
reads NaN, and every other float goes through numpy's bytes-to-float64 cast,
which parses as ``float()`` does; a blank str cell reads ``''``. Time columns
are read as bytes too: a column whose every cell is ``YYYY-MM-DDTHH:MMZ`` is
converted by one cast of its first 16 bytes (``timeutil.canonical_minutes``,
which the ``csv.reader`` path's chunks also try first), and any other column
through ``iso_text``, as on the ``csv.reader`` path. A cell that the typed
passes might read otherwise (a blank int or time, an unparseable or too wide
cell, a short row, or any warning) sends the file to ``csv.reader``, which
reads all other files, names the line of a bad cell and defines the
semantics: the arrays are the same either way. On the archive-io
benchmark's seed-424242 files (a 2-vCPU x86 VM, Python 3.11, numpy 2.4.6),
reading the temperature and pressure of geowind's 12 barometer files takes
0.26-0.34 s, the speed, direction and temperature of forecast's 4 station
files 0.12-0.18 s, and the 104,256-row persistence forecast file, whose
``mu`` and ``sigma`` are blank, 0.12-0.22 s. Parsing the floats' 17-digit
text is most of that.

Writing puts floats as ``repr`` writes them (shortest round-trip text, so
reading back is bit-exact) and non-finite floats as ``""`` unless asked
otherwise. A float column chunk is formatted at once by ``orjson``'s
shortest round-trip writer, whose text equals ``repr``'s for 0 and for
magnitudes in [1e-4, 1e16); the other cells go through ``repr`` one by one.
Rows are built a chunk at a time: each column's cells are formatted as a
list of text, the lists are joined with ``","`` row by row, and the chunk
goes to the file in one write. The bytes are those ``csv.writer``'s default
dialect writes (QUOTE_MINIMAL, CRLF rows): a cell holding ``,``, ``"``, CR
or LF is quoted with its quotes doubled, and a row whose only cell is empty
reads ``""``. Only text cells can need quoting, and one regex scan of a
column chunk tells whether any does.

A numeric or bool column chunk whose values repeat, as a persistence
forecast's points do over its horizons, is formatted once per distinct
value, and each cell shares its value's text (``timeutil.render_once``,
which ``iso_hours`` uses for timestamps too). The chunk's first 256 values
decide: when more than half of them are distinct, as in station files,
every cell is formatted in turn, without sorting.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
import warnings
from typing import Mapping, Sequence

import numpy as np
import orjson

from .errors import LoadError
from .timeutil import canonical_minutes, epoch_minutes, iso_text, render_once

#: Rows parsed, converted or formatted at a time; bounds peak memory.
CHUNK_ROWS = 8192
#: Width of a str or time field on the loadtxt path; a cell this long or
#: longer could have been cut, so its file takes the csv.reader path.
TEXT_WIDTH = 24
_DTYPE = {"float": "f8", "int": "i8", "str": f"U{TEXT_WIDTH}", "time": f"S{TEXT_WIDTH}"}
_LOADTXT = {"comments": None, "delimiter": ",", "ndmin": 1, "encoding": None, "quotechar": '"'}
_PREAMBLE = re.compile(rb"(?:(?:#[^\r\n]*)?(?:\r\n?|\n))*")  # '#' and blank lines
_SPECIAL = re.compile(r'[,"\r\n]')  # a written cell holding one of these is quoted


class Columns(dict):
    """Column name -> array in file order; ``malformed`` flags the rows with
    an unparseable float cell (lenient reads only)."""

    malformed: np.ndarray


class _BadCell(ValueError):
    """An unparseable cell; args are its text and kind."""


def _uncommented(lines):
    # blank the '#' lines so that the csv reader's line_num stays physical
    for line in lines:
        yield "\n" if line.startswith("#") else line


def _line_of(path, col: int, text: str, keep) -> int | None:
    """Physical line of the first data row whose field ``col`` reads ``text``."""
    with open(path, newline="") as fh:
        reader = csv.reader(_uncommented(fh))
        next(filter(None, reader), None)  # header
        for row in reader:
            if col < len(row) and row[col] == text and (
                    keep is None or (keep[0] < len(row) and row[keep[0]] == keep[1])):
                return reader.line_num
    return None


def _number(cell: str) -> float:
    return float(cell) if cell.strip() else math.nan


_PARSE = {"float": _number, "int": int, "time": epoch_minutes}


def _convert(cells, kind: str, lenient: bool):
    """One column chunk as an array, plus its malformed-cell mask or None."""
    if kind == "str":
        return np.array(cells, dtype=str), None
    try:  # the whole chunk at once
        if kind == "time":
            minutes = canonical_minutes(np.array(cells, dtype=str))
            if minutes is not None:
                return minutes, None
            minutes = np.array(list(map(iso_text, cells)), dtype="datetime64[m]")
            if not np.isnat(minutes).any():
                return minutes.astype(np.int64), None
        elif kind == "float":
            text = [c or "nan" for c in cells] if "" in cells else cells
            return np.fromiter(map(float, text), np.float64, len(cells)), None
        else:
            return np.fromiter(map(int, cells), np.int64, len(cells)), None
    except (ValueError, OverflowError):
        pass
    values = np.empty(len(cells), dtype=np.float64 if kind == "float" else np.int64)
    bad = np.zeros(len(cells), dtype=bool)
    for i, cell in enumerate(cells):  # one cell at a time, to find the bad ones
        try:
            values[i] = _PARSE[kind](cell)
        except (ValueError, OverflowError):
            if kind != "float" or not lenient:
                raise _BadCell(cell, kind) from None
            values[i], bad[i] = math.nan, True
    return values, bad


def _field_chunks(reader, width: int):
    """The data rows in chunks, each as one sequence per column; a short row
    reads as blank cells, extra fields are ignored and blank lines skipped."""
    pad = [""] * width
    while rows := list(itertools.islice(reader, CHUNK_ROWS)):
        if set(map(len, rows)) != {width}:
            rows = [(row + pad)[:width] for row in rows if row]
        if rows:
            yield list(zip(*rows))


def _prescan(data: bytes) -> str | None:
    """How the typed pass may read a file, from its bytes after the header:
    "plain" (no blank cell), "gappy" (blank cells), or None for a '#' line,
    a NUL (numpy drops trailing NULs from text fields) or, if there is a CR,
    a quote (loadtxt would read a quoted CRLF as LF)."""
    start = _PREAMBLE.match(data).end()
    if data.find(b"\0", start) >= 0 or b"\r" in data and data.find(b'"', start) >= 0:
        return None
    blank = data.endswith(b",")
    for lo in range(start, len(data), 1 << 16):  # cache-sized pieces
        b = np.frombuffer(data, np.uint8, min(len(data) - lo, (1 << 16) + 1), lo)
        sep, end = b == ord(","), (b == ord("\n")) | (b == ord("\r"))
        if (end[:-1] & (b[1:] == ord("#"))).any():
            return None
        blank = blank or bool((sep[:-1] & (sep[1:] | end[1:]) | end[:-1] & sep[1:]).any())
    return "gappy" if blank else "plain"


def _column(field: np.ndarray, kind: str, lenient: bool):
    """One loadtxt field as the csv.reader path returns it, plus its
    malformed-cell mask or None; ValueError if a cell may have been cut to
    the field width or is not what the csv.reader path reads there."""
    if field.dtype.kind in "fi":
        return np.ascontiguousarray(field), None
    if kind == "str":
        width = int(np.char.str_len(field).max(initial=0))
        if width >= TEXT_WIDTH:
            raise ValueError(f"a cell of {width} characters")
        return field.astype(f"U{max(1, width)}"), None  # as np.array(cells, dtype=str)
    cells = np.ascontiguousarray(field)  # bytes: a time, or a float of a gappy file
    if cells.view(np.uint8).reshape(-1, TEXT_WIDTH)[:, -1].any():
        raise ValueError("a cell as wide as the field")
    if kind == "time":
        minutes = canonical_minutes(cells)
        if minutes is not None:
            return minutes, None
    else:  # a blank float reads NaN
        values, blank = np.full(cells.size, math.nan), cells == b""
        try:
            values[~blank] = cells[~blank].astype(np.float64)  # parsed as float() parses
            return values, None
        except ValueError:
            pass
    text = [cell.decode("latin-1") for cell in cells.tolist()]  # loadtxt's encoding
    return _convert(text, kind, lenient)  # a bad cell raises _BadCell


def _gappy_tables(path, dtype, usecols: list, skip: int):
    """A file with blank cells as loadtxt tables of at most CHUNK_ROWS rows,
    streamed from one open file, which decodes as numpy's path-based read does."""
    with open(path) as fh:
        for _ in itertools.islice(fh, skip):
            pass
        while len(table := np.loadtxt(fh, dtype, max_rows=CHUNK_ROWS, usecols=usecols,
                                      **_LOADTXT)) == CHUNK_ROWS:
            yield table
        yield table


def _typed(path, kinds: Mapping[str, str], index: dict, keep, skip: int,
           lenient: bool) -> Columns | None:
    """read_columns in typed numpy.loadtxt passes, or None where they could
    read otherwise than csv.reader."""
    if keep and (kinds[keep[0]] != "str" or len(keep[1]) >= TEXT_WIDTH):
        return None  # a cell cut to the field width would not match a wide value
    with open(path, "rb") as fh:
        shape = _prescan(fh.read())
    if shape is None:
        return None
    gappy = shape == "gappy"  # float fields as bytes, for blank cells to read NaN
    dtype = [(name, f"S{TEXT_WIDTH}" if gappy and kind == "float" else _DTYPE[kind])
             for name, kind in kinds.items()]
    usecols = list(index.values())
    chunks = {name: [] for name in kinds}
    flags, rows_read = [], 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. numpy < 2 reading '1.0' as an int
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            tables = (_gappy_tables(path, dtype, usecols, skip) if gappy else
                      [np.loadtxt(path, dtype, skiprows=skip, usecols=usecols, **_LOADTXT)])
            for table in tables:
                rows_read += len(table)
                if keep is not None and not (rows := table[keep[0]] == keep[1]).all():
                    table = table[rows]
                malformed = np.zeros(len(table), dtype=bool)
                for name, kind in kinds.items():
                    values, bad = _column(table[name], kind, lenient)
                    chunks[name].append(values)
                    if bad is not None:
                        malformed |= bad
                flags.append(malformed)
    except (ValueError, Warning):
        return None
    if not rows_read:
        return None
    out = Columns((name, np.concatenate(parts)) for name, parts in chunks.items())
    out.malformed = np.concatenate(flags)
    return out


def read_columns(path, kinds: Mapping[str, str], keep: tuple | None = None,
                 lenient: bool = False) -> Columns:
    """Read the columns named in ``kinds`` (name -> kind); other columns are
    ignored. ``keep=(column, value)`` reads only the rows whose cell in that
    column, one of ``kinds``, equals ``value``."""
    chunks = {name: [] for name in kinds}
    flags = []
    with open(path, newline="") as fh:
        reader = csv.reader(_uncommented(fh))
        header = next(filter(None, reader), None)
        if header is None:
            raise LoadError(f"{path}: empty file")
        missing = [c for c in kinds if c not in header]
        if missing:
            raise LoadError(f"{path}: columns {missing} not found in header {header}")
        index = {name: header.index(name) for name in kinds}
        typed = _typed(path, kinds, index, keep, reader.line_num, lenient)
        if typed is not None:
            return typed
        keep = None if keep is None else (index[keep[0]], keep[1])
        for fields in _field_chunks(reader, len(header)):
            if keep is not None:
                mask = [cell == keep[1] for cell in fields[keep[0]]]
                if not all(mask):
                    fields = {i: list(itertools.compress(fields[i], mask))
                              for i in index.values()}
            malformed = np.zeros(len(fields[next(iter(index.values()))]), dtype=bool)
            for name, i in index.items():
                try:
                    values, bad = _convert(fields[i], kinds[name], lenient)
                except _BadCell as exc:
                    text, kind = exc.args
                    raise LoadError(f"{path}:{_line_of(path, i, text, keep)}: unparseable "
                                    f"{kind} {text!r} in column {name!r}") from None
                chunks[name].append(values)
                if bad is not None:
                    malformed |= bad
            flags.append(malformed)
    out = Columns((name, np.concatenate(parts) if parts else _convert((), kinds[name], lenient)[0])
                  for name, parts in chunks.items())
    out.malformed = np.concatenate(flags) if flags else np.zeros(0, dtype=bool)
    return out


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _SPECIAL.search(cell) else cell


def _cells(values, nonfinite: str | None) -> list:
    """One column chunk as cell text: numbers and bools as ``_numbers``
    formats them, once per distinct value where values repeat; text as it
    is but quoted where it needs to be; other values by str."""
    if isinstance(values, list):  # text
        cells = values
    elif values.dtype.kind in "biuf":
        return render_once(values, lambda v: _numbers(v, nonfinite))
    else:
        cells = list(map(str, values.tolist()))
    return list(map(_quote, cells)) if _SPECIAL.search("".join(cells)) else cells


def _numbers(values: np.ndarray, nonfinite: str | None) -> list:
    """Floats as ``repr`` writes them (non-finite ones as ``nonfinite``
    unless it is None), bools as 0 and 1, integers by str."""
    if values.dtype.kind == "f":
        # orjson reads native C-ordered float64 only; the cast keeps float(v)'s digits
        values = np.ascontiguousarray(values, dtype=np.float64)
        if not values.size:
            return []
        cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        # orjson writes repr's text for 0 and for 1e-4 <= |v| < 1e16, and only there:
        # elsewhere it writes '1e16' for '1e+16', '0.00001' for '1e-05', 'null' for NaN
        size = np.abs(values)
        other = np.flatnonzero(~((size >= 1e-4) & (size < 1e16) | (values == 0)))
        for i, v in zip(other.tolist(), values[other].tolist()):
            cells[i] = nonfinite if nonfinite is not None and not math.isfinite(v) else repr(v)
        return cells
    ints = values.view(np.uint8) if values.dtype.kind == "b" else values
    return list(map(str, ints.tolist()))


def _rows(cells: Sequence[list]) -> list:
    """Rows from their columns of cell text; a row whose only cell is empty
    is written as '""', so that it does not read as a blank line."""
    if len(cells) == 1:
        return ['""' if c == "" else c for c in cells[0]]
    return list(map(",".join, zip(*cells)))


def write_columns(path, header: Sequence[str], columns: Sequence,
                  header_lines: Sequence[str] = (), nonfinite: str | None = "") -> None:
    """Write ``# line`` provenance lines, the header, then one CRLF-ended row
    per index of the equal-length ``columns``. Non-finite floats are written
    as ``nonfinite``, or by ``repr`` ('nan', 'inf') when it is None.

    A column is an array, or a sequence that ``numpy.asarray`` reads; a list
    of ``str`` is taken as it is. Each chunk of ``CHUNK_ROWS`` rows becomes
    one list of cell text per column (floats as ``repr`` writes them, bools
    as 0 and 1, other values by ``str``, text quoted as the module docstring
    says); the rows are joined with ``","`` and the chunk is written at once."""
    columns = [c if isinstance(c, list) and {str} >= set(map(type, c)) else np.asarray(c)
               for c in columns]
    if nonfinite is not None:
        nonfinite = _quote(nonfinite)
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write("".join(_rows([[_quote(name)] for name in header])) + "\r\n")
        for lo in range(0, n, CHUNK_ROWS):
            rows = _rows([_cells(c[lo:lo + CHUNK_ROWS], nonfinite) for c in columns])
            fh.write("\r\n".join(rows) + "\r\n")
