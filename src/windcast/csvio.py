"""Columnar CSV reading and writing for every file the pipeline exchanges.

Reading skips ``#`` lines and blank lines, checks the header, and converts
each column a chunk of rows at a time. Fields may be double-quoted, rows
may end in LF or CRLF, cells may carry surrounding spaces, a short row
reads as blank cells and extra fields are ignored. Kinds: ``"float"`` (a
blank cell is NaN), ``"int"``, ``"str"`` (text unchanged) and ``"time"``
(ISO-8601 UTC to int64 epoch minutes as ``timeutil.parse_timestamp`` reads
it). An unparseable cell is a LoadError naming its physical line, except a
float cell in a lenient read, which reads NaN and flags its row as malformed.

A read takes one of two paths: a sidecar, or ``csv.reader``, which defines
the semantics; both give the same arrays. Given a ``cache`` directory,
``write_columns`` stores there a sidecar named by the sha256 of the CSV's
bytes: a ``<CRC-32 hex> <JSON>`` line (the digest; each column's name,
dtype, length and CRC-32), then the column arrays as a parse of the text
reads them (floats as float64, NaN for blank and NaN cells; ints and bools
as int64; ASCII text as bytes, other text as str). It stores none for text
that would read back otherwise: a cell or name that starts with ``#`` or
holds a NUL or a ``#`` after a line break, a provenance line with a line
break, or a ``nonfinite`` text other than ``""`` or None. ``read_columns``
given the cache hashes the file and serves a matching sidecar that holds
every requested column: text answers ``"str"`` at the width of its widest
kept cell and ``"time"`` through ``canonical_minutes``; ``keep`` applies as
on the parse; no row is malformed. On the archive-io benchmark's
seed-424242 files (a 2-vCPU x86 VM, Python 3.11, numpy 2.4.6), sidecars
serve geowind's 12 barometer files in 45-47 ms, forecast's 4 station files
in 16-17 ms, ``geowind.csv`` in 4 ms and the persistence forecast file in
19-21 ms.

No cache, a stale, truncated or damaged sidecar, a column it lacks, time
text of another form, or an external archive leaves the file to
``csv.reader``, ``CHUNK_ROWS`` rows at a time. Each requested column of a
chunk is converted at once: floats by ``float()``, ints by ``int()``, and
time text of the form ``YYYY-MM-DDTHH:MMZ`` by one cast
(``timeutil.canonical_minutes``), other forms through ``iso_text``. A chunk
with a cell that does not convert is converted again cell by cell, to find
it. On the same files the parse of geowind's 12 barometer files
(temperature and pressure) takes 0.61-0.62 s, of forecast's 4 station files
(speed) 0.18-0.19 s, of ``geowind.csv`` 0.07 s and of the 104,256-row
persistence forecast file 0.25 s.

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

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import re
import zlib
from typing import Mapping, Sequence

import numpy as np
import orjson

from .errors import LoadError
from .timeutil import canonical_minutes, epoch_minutes, iso_text, render_once

#: Rows parsed, converted or formatted at a time; bounds peak memory.
CHUNK_ROWS = 8192
#: A sidecar's file name in its cache directory: the sha256 of the CSV's bytes, then this.
SIDECAR_SUFFIX = ".columns"
_SPECIAL = re.compile(r'[,"\r\n]')  # a written cell holding one of these is quoted
#: The dtype kinds a sidecar may store a column in, for each kind it is read as.
_STORED = {"float": "f", "int": "i", "str": "SU", "time": "SU"}


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


def _from_sidecar(cache, digest: str, kinds: Mapping[str, str], keep) -> Columns | None:
    """read_columns served from the sidecar of a file whose bytes have the
    sha256 ``digest``; None when there is none, it is damaged, or it lacks a
    requested column in a dtype that reads as requested."""
    columns = {}
    try:
        with open(os.path.join(cache, digest + SIDECAR_SUFFIX), "rb") as fh:
            check, _, head = fh.readline().rstrip(b"\n").partition(b" ")
            meta = json.loads(head) if check == b"%08x" % zlib.crc32(head) else {}
            if meta.get("sha256") != digest:
                return None
            for name, dtype, size, crc in meta["columns"]:
                dtype = np.dtype(dtype)
                if name not in kinds or dtype.kind not in _STORED[kinds[name]]:
                    fh.seek(dtype.itemsize * size, os.SEEK_CUR)
                    continue
                values = columns[name] = np.empty(size, dtype)
                if fh.readinto(values) != values.nbytes or zlib.crc32(values) != crc:
                    return None
    except (OSError, ValueError):
        return None
    if not kinds or len(columns) < len(kinds) or keep and columns[keep[0]].dtype.kind not in "SU":
        return None
    if keep is not None:
        text = columns[keep[0]]
        if not (rows := text == (keep[1].encode() if text.dtype.kind == "S" else keep[1])).all():
            columns = {name: values[rows] for name, values in columns.items()}
    out = Columns()
    for name, kind in kinds.items():
        values = columns[name]
        if kind == "str":  # as wide as its widest kept cell; each ASCII byte is a code point
            if values.dtype.kind == "S":
                values = values.view(np.uint8).astype(np.uint32).view(f"U{values.itemsize}")
            values = values.astype(f"U{max(1, int(np.char.str_len(values).max(initial=0)))}")
        elif kind == "time" and (values := canonical_minutes(values)) is None:
            return None  # a form other than YYYY-MM-DDTHH:MMZ, which the parse reads
        out[name] = values
    out.malformed = np.zeros(len(values), dtype=bool)
    return out


def read_columns(path, kinds: Mapping[str, str], keep: tuple | None = None,
                 lenient: bool = False, cache=None) -> Columns:
    """Read the columns named in ``kinds`` (name -> kind); other columns are
    ignored. ``keep=(column, value)`` reads only the rows whose cell in that
    column, one of ``kinds``, equals ``value``. With a ``cache`` directory, a
    sidecar there that ``write_columns`` wrote for these very bytes is read
    instead of the text when it holds every requested column."""
    if cache is not None:
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        served = _from_sidecar(cache, digest, kinds, keep)
        if served is not None:
            return served
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


def _text_array(cells: Sequence[str]) -> np.ndarray | None:
    """Text cells as a sidecar stores them, as bytes if they are ASCII; None
    if they would read back otherwise: a cell, or a line in one, that starts
    with '#' (a comment line if it starts a row), or a NUL."""
    text = "".join(cells)
    if "\n#" in text or "\r#" in text or "\0" in text:
        return None
    if not text.isascii():
        array = np.array(cells, dtype=str)
    elif len(widths := set(map(len, cells))) == 1 and (width := widths.pop()):
        array = np.frombuffer(text.encode(), f"S{width}")  # 10 times faster than np.array
    else:
        array = np.array(cells, dtype="S")
    return None if np.strings.startswith(array, array.dtype.type("#")).any() else array


def _write_sidecar(cache, path, header, columns: list, header_lines, nonfinite) -> None:
    """Store in ``cache`` the sidecar of the bytes ``path`` now holds, named by
    their sha256: by column name (the first of a repeated name), the floats,
    ints, bools and text that the module docstring says; other columns are
    left out. None is stored for text that would read back otherwise, for
    unequal columns, or when the cache cannot be written."""
    if (nonfinite not in ("", None) or not header or _text_array(header) is None
            or re.search("[\r\n]", "".join(header_lines)) or len(set(map(len, columns))) > 1):
        return
    arrays = {}
    for name, column in zip(header, columns):
        if isinstance(column, list) or column.dtype.kind == "U":
            text = _text_array(column if isinstance(column, list) else column.tolist())
            if text is None:
                return
            arrays.setdefault(name, text)
        elif column.dtype.kind == "f":
            values = np.ascontiguousarray(column, dtype=np.float64)
            other = np.isnan(values) if nonfinite is None else ~np.isfinite(values)
            arrays.setdefault(name, np.where(other, math.nan, values) if other.any() else values)
        elif column.dtype.kind in "bi":
            arrays.setdefault(name, np.ascontiguousarray(column, dtype=np.int64))
    with open(path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    head = json.dumps({"sha256": digest, "columns": [[name, a.dtype.str, a.size, zlib.crc32(a)]
                                                     for name, a in arrays.items()]}).encode()
    final = os.path.join(cache, digest + SIDECAR_SUFFIX)
    tmp = f"{final}.{os.getpid()}.tmp"
    try:
        os.makedirs(cache, exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(b"%08x %s\n" % (zlib.crc32(head), head))
            fh.writelines(arrays.values())
        os.replace(tmp, final)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def write_columns(path, header: Sequence[str], columns: Sequence,
                  header_lines: Sequence[str] = (), nonfinite: str | None = "",
                  cache=None) -> None:
    """Write ``# line`` provenance lines, the header, then one CRLF-ended row
    per index of the equal-length ``columns``. Non-finite floats are written
    as ``nonfinite``, or by ``repr`` ('nan', 'inf') when it is None.

    A column is an array, or a sequence that ``numpy.asarray`` reads; a list
    of ``str`` is taken as it is. Each chunk of ``CHUNK_ROWS`` rows becomes
    one list of cell text per column (floats as ``repr`` writes them, bools
    as 0 and 1, other values by ``str``, text quoted as the module docstring
    says); the rows are joined with ``","`` and the chunk is written at once.
    With a ``cache`` directory, the written file's sidecar goes there."""
    columns = [c if isinstance(c, list) and {str} >= set(map(type, c)) else np.asarray(c)
               for c in columns]
    quoted = nonfinite if nonfinite is None else _quote(nonfinite)
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write("".join(_rows([[_quote(name)] for name in header])) + "\r\n")
        for lo in range(0, n, CHUNK_ROWS):
            rows = _rows([_cells(c[lo:lo + CHUNK_ROWS], quoted) for c in columns])
            fh.write("\r\n".join(rows) + "\r\n")
    if cache is not None:
        _write_sidecar(cache, path, header, columns, header_lines, nonfinite)
