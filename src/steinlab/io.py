"""File formats: sample CSV, dataset CSV, INI configs, result JSON, JSONL.

Writes are atomic (temp file in the destination directory, then rename) and
floats are serialized with full round-trip precision, so re-running a
command with the same config and seed reproduces output files byte for
byte.  Sample CSVs carry a ``x1..xd`` header; lines starting with ``#`` are
reproducibility metadata and are skipped on read.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import tempfile
from io import StringIO

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
    buf = StringIO()
    buf.write(_meta_block(meta))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{j + 1}" for j in range(batch.dim)])
    for row in batch.points:
        writer.writerow([fmt_float(v) for v in row])
    atomic_write_text(path, buf.getvalue())


def _text_lines(path):
    """The lines of a UTF-8 text file, split as text mode splits them; a byte
    that is not UTF-8 is a ``ConfigError`` naming its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as err:
        # The bad byte ends no line, so the lines up to it number its own.
        line = len(data[: err.start + 1].splitlines())
        raise ConfigError(f"{path}:{line}: byte {data[err.start]:#04x} is not "
                          "UTF-8") from None


def _data_lines(path):
    """Yield (line_number, raw_line) skipping blanks and # comments."""
    try:
        lines = _text_lines(path)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    for number, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield number, stripped


def _parse_rows(path, sample_header=False):
    """File line numbers and float rows of a CSV's data rows, read in one
    pass; with ``sample_header`` the header must be ``x1..xd`` for its
    width d, and any header must name its columns, not be numbers."""
    lines = list(_data_lines(path))
    if not lines:
        raise ConfigError(f"{path}: no data rows")
    header_no, header_line = lines[0]
    header = next(csv.reader([header_line]))
    header = [h.strip() for h in header]
    if sample_header:
        expected = [f"x{j + 1}" for j in range(len(header))]
        if header != expected:
            raise ConfigError(
                f"{path}:{header_no}: expected header {','.join(expected)}, "
                f"got {','.join(header)}"
            )
    try:
        [float(cell) for cell in header]
    except ValueError:
        pass
    else:
        raise ConfigError(f"{path}:{header_no}: expected a header row naming "
                          f"the columns, got numbers {','.join(header)}")
    numbers, rows = [], []
    for number, line in lines[1:]:
        cells = next(csv.reader([line]))
        if len(cells) != len(header):
            raise ConfigError(
                f"{path}:{number}: expected {len(header)} columns, got {len(cells)}"
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


def read_samples_csv(path) -> SampleBatch:
    """Load a sample CSV with header ``x1..xd``."""
    _, rows = _parse_rows(path, sample_header=True)
    return SampleBatch(rows)


def read_observations_csv(path) -> np.ndarray:
    """Load a one-column observation CSV (header row, one row per value)."""
    _, rows = _parse_rows(path)
    if rows.shape[1] != 1:
        raise ConfigError(
            f"{path}: expected a single observation column, got {rows.shape[1]}"
        )
    return rows[:, 0]


def read_labeled_csv(path):
    """Load a dataset CSV whose final column is a 0/1 label."""
    numbers, rows = _parse_rows(path)
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
    try:
        parser.read_file(_text_lines(path), source=os.fspath(path))
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err
    if parser.defaults():
        # configparser would copy these keys into every section.
        raise ConfigError(
            f"{path}: [DEFAULT] gives {', '.join(parser.defaults())} to every "
            f"section; set each key in its own section"
        )
    return {section: dict(parser[section]) for section in parser.sections()}
