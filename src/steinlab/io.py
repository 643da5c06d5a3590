"""File formats: sample CSV, dataset CSV, INI configs, result JSON, JSONL.

Writes are atomic (temp file in the destination directory, then rename) and
floats are serialized with full round-trip precision, so re-running a
command with the same config and seed reproduces output files byte for
byte.  Sample CSVs carry a ``x1..xd`` header; lines starting with ``#`` are
reproducibility metadata and are skipped on read.  A sample CSV is read
once, and its rows are parsed by numpy's reader, or, where that reader
might read a file differently or fails, by a line parser that names the
line of any fault.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import tempfile
import warnings
from io import BytesIO, StringIO

import numpy as np

from .discrepancy import SampleBatch
from .errors import ConfigError


def fmt_float(x) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def atomic_write_text(path, text):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".steinlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_block(meta) -> str:
    if not meta:
        return ""
    return "".join(f"# {key} = {value}\n" for key, value in meta.items())


def write_samples_csv(path, batch: SampleBatch, meta=None):
    # The repr of each Python float is fmt_float's string, and no value
    # needs CSV quoting.
    lines = [",".join(f"x{j + 1}" for j in range(batch.dim))]
    lines += [",".join(map(repr, row)) for row in batch.points.tolist()]
    atomic_write_text(path, _meta_block(meta) + "\n".join(lines) + "\n")


def _file_bytes(path, what=""):
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read {what}{path}: {err}") from err


def _text_lines(path, data):
    """The lines of ``path``'s bytes ``data`` as UTF-8 text, split as text
    mode splits them; a byte that is not UTF-8 is a ``ConfigError`` naming
    its line."""
    try:
        return StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as err:
        # The bad byte ends no line, so the lines up to it number its own.
        line = len(data[: err.start + 1].splitlines())
        raise ConfigError(f"{path}:{line}: byte {data[err.start]:#04x} is not "
                          "UTF-8") from None


def _data_lines(path, data):
    """Yield (line_number, stripped_line) skipping blanks and # comments."""
    for number, raw in enumerate(_text_lines(path, data), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped


def _header_width(path, number, line, sample_header):
    """Width of the header ``line``, which must name its columns, not be
    numbers; with ``sample_header`` it must be ``x1..xd`` for its width d."""
    header = [h.strip() for h in next(csv.reader([line]))]
    if sample_header:
        expected = [f"x{j + 1}" for j in range(len(header))]
        if header != expected:
            raise ConfigError(
                f"{path}:{number}: expected header {','.join(expected)}, "
                f"got {','.join(header)}"
            )
    try:
        [float(cell) for cell in header]
    except ValueError:
        pass
    else:
        raise ConfigError(f"{path}:{number}: expected a header row naming "
                          f"the columns, got numbers {','.join(header)}")
    return len(header)


def _parse_rows(path, data, sample_header=False):
    """File line numbers and float rows of the data rows of a CSV file's
    bytes ``data``, read in one pass."""
    lines = list(_data_lines(path, data))
    if not lines:
        raise ConfigError(f"{path}: no data rows")
    width = _header_width(path, *lines[0], sample_header)
    numbers, rows = [], []
    for number, line in lines[1:]:
        cells = next(csv.reader([line]))
        if len(cells) != width:
            raise ConfigError(
                f"{path}:{number}: expected {width} columns, got {len(cells)}"
            )
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ConfigError(
                    f"{path}:{number}: column {col}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise ConfigError(
                    f"{path}:{number}: column {col}: {cell!r} is not finite"
                )
            parsed.append(value)
        numbers.append(number)
        rows.append(parsed)
    if not rows:
        raise ConfigError(f"{path}: header but no data rows")
    return numbers, np.asarray(rows, dtype=np.float64)


# ASCII bytes that numpy's reader strips from a cell as whitespace and
# float() does not.
_NUMPY_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_rows(path, data):
    """The sample rows of a CSV file's bytes ``data`` from numpy's reader,
    or None where its result might differ from :func:`_parse_rows`'s.

    The header is found and checked as the line parser does.  The reader
    sees only ASCII files whose carriage returns all end CRLF lines, so
    its lines are the parser's, and no cell that float() rejects; where
    both read a cell they give the same float.  Whatever it rejects or
    warns about (an empty body, blank-looking lines of spaces, ``#`` lines
    in the body, quoted cells, ragged rows, underscores) and any non-finite
    value is left to the line parser, which names the line."""
    if (not data.isascii() or data.count(b"\r") != data.count(b"\r\n")
            or any(space in data for space in _NUMPY_ONLY_SPACES)):
        return None
    start, number = 0, 1
    while True:
        end = data.find(b"\n", start)
        line = data[start:] if end < 0 else data[start:end]
        line = line.decode("ascii").strip()
        if line and not line.startswith("#"):
            break
        if end < 0:
            return None
        start, number = end + 1, number + 1
    width = _header_width(path, number, line, sample_header=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(BytesIO(data), delimiter=",", comments=None,
                              skiprows=number, ndmin=2)
        except (ValueError, Warning):
            return None
    if rows.shape[0] == 0 or rows.shape[1] != width or not np.isfinite(rows).all():
        return None
    return rows


def read_samples_csv(path) -> SampleBatch:
    """Load a sample CSV with header ``x1..xd``, read once and parsed by
    numpy's reader, or by the line parser that names the line of any
    fault."""
    data = _file_bytes(path)
    rows = _loadtxt_rows(path, data)
    if rows is None:
        _, rows = _parse_rows(path, data, sample_header=True)
    return SampleBatch(rows)


def read_observations_csv(path) -> np.ndarray:
    """Load a one-column observation CSV (header row, one row per value)."""
    _, rows = _parse_rows(path, _file_bytes(path))
    if rows.shape[1] != 1:
        raise ConfigError(
            f"{path}: expected a single observation column, got {rows.shape[1]}"
        )
    return rows[:, 0]


def read_labeled_csv(path):
    """Load a dataset CSV whose final column is a 0/1 label."""
    numbers, rows = _parse_rows(path, _file_bytes(path))
    if rows.shape[1] < 2:
        raise ConfigError(f"{path}: need at least one feature column plus a label")
    X = rows[:, :-1]
    y = rows[:, -1]
    bad = ~np.isin(y, (0.0, 1.0))
    if bad.any():
        row = int(np.argmax(bad))
        raise ConfigError(
            f"{path}:{numbers[row]}: column {rows.shape[1]}: "
            f"label {float(y[row])!r} is not 0 or 1"
        )
    return X, y


def write_table_csv(path, rows, meta=None):
    """Dict rows under a header of the first row's keys, which every row has in order."""
    header = list(rows[0]) if rows else []
    if not header or any(list(row) != header for row in rows):
        raise ValueError(f"{path}: table rows must all have the first row's keys, in order")
    buf = StringIO()
    buf.write(_meta_block(meta))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([header, *(row.values() for row in rows)])
    atomic_write_text(path, buf.getvalue())


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_jsonl(path, records, meta=None):
    buf = StringIO()
    buf.write(_meta_block(meta))
    for record in records:
        buf.write(json.dumps(record, sort_keys=True) + "\n")
    atomic_write_text(path, buf.getvalue())


def load_config(path) -> dict:
    """Parse an INI config into ``{section: {key: value}}`` (string values)."""
    # Without interpolation a '%' in a value is read as itself.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    lines = _text_lines(path, _file_bytes(path, "config "))
    try:
        parser.read_file(lines, source=os.fspath(path))
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err
    if parser.defaults():
        # configparser would copy these keys into every section.
        raise ConfigError(
            f"{path}: [DEFAULT] gives {', '.join(parser.defaults())} to every "
            f"section; set each key in its own section"
        )
    return {section: dict(parser[section]) for section in parser.sections()}
