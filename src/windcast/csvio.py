"""Columnar CSV reading and writing for every file the pipeline exchanges.

Reading skips ``#`` lines and blank lines, checks the header, and converts
each column a chunk of rows at a time. Fields may be double-quoted, rows
may end in LF or CRLF, cells may carry surrounding spaces, a short row
reads as blank cells and extra fields are ignored. Kinds: ``"float"`` (a
blank cell is NaN), ``"int"``, ``"str"`` (text unchanged) and ``"time"``
(ISO-8601 UTC to int64 epoch minutes as ``timeutil.parse_timestamp`` reads
it). An unparseable cell is a LoadError naming its physical line, except a
float cell in a lenient read, which reads NaN and flags its row as malformed.

Writing puts floats as ``repr`` (shortest round-trip text, so reading back
is bit-exact) and non-finite floats as ``""`` unless asked otherwise.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from .errors import LoadError
from .timeutil import epoch_minutes, iso_text

#: Rows parsed, converted or formatted at a time; bounds peak memory.
CHUNK_ROWS = 8192


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


def _cells(values: np.ndarray, nonfinite: str | None) -> list:
    """One column chunk as csv cells; the csv writer renders floats by repr."""
    if values.dtype.kind == "b":
        return values.astype(np.int64).tolist()
    cells = values.tolist()
    if values.dtype.kind == "f" and nonfinite is not None:
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            cells[i] = nonfinite
    return cells


def write_columns(path, header: Sequence[str], columns: Sequence,
                  header_lines: Sequence[str] = (), nonfinite: str | None = "") -> None:
    """Write ``# line`` provenance lines, the header, then one CRLF-ended row
    per index of the equal-length ``columns``. Non-finite floats are written
    as ``nonfinite``, or by ``repr`` ('nan', 'inf') when it is None."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, n, CHUNK_ROWS):
            writer.writerows(zip(*(_cells(c[lo:lo + CHUNK_ROWS], nonfinite)
                                   for c in columns)))
