"""CSV/JSON serialization and the run manifest.

Density tables are CSV with an ``x`` first column (the grid) and one
column per subject, and move as ``(DensitySample, ids)``.  Transformed
tables use ``t`` as the first column and move as
``(t grid, (n, m) array, ids)``; whether the grid is the transform's
domain is checked by ``transforms.inverse_rows``.
All floats are written with 17 significant digits so a write/read round
trip reproduces binary64 values exactly.

Tables move as arrays.  A read streams the file: it decodes one line
at a time, skips blank lines, and hands the body to one ``np.loadtxt``
through a generator that checks each line's field count as it passes,
so the text is never held whole.  Every fault of a file raises
``CsvFormatError`` naming it, the first in file order when there are
several: text that does not decode (with its byte offset in the file),
an empty file, no data rows, fewer than two columns, a row of the wrong
field count, a field that is no number (with its line), a first column
that is not a uniform grid of at least 3 points over a finite width, and
a subject id that repeats in a density table or a response file.  A
write formats and writes the body one row at a time with one format
string, the same bytes as ``csv.writer`` (CRLF line ends).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .density import DensitySample, Grid, normalize_rows
from .errors import CsvFormatError

FLOAT_FMT = "%.17g"


def _uniform_grid_from(path, points: np.ndarray) -> Grid:
    lo, hi, m = float(points[0]), float(points[-1]), len(points)
    if m < 3:
        raise CsvFormatError(f"{path}: the first column needs at least 3 rows, got {m}")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise CsvFormatError(f"{path}: the first column must rise between finite ends, got {lo!r} to {hi!r}")
    if not np.isfinite(hi - lo):
        raise CsvFormatError(f"{path}: the first column spans {lo!r} to {hi!r}, a width that overflows")
    grid = Grid(lo, hi, m)
    if not np.all(np.abs(points - grid.points) <= 1e-9 * max(abs(lo), abs(hi), 1.0)):
        raise CsvFormatError(f"{path}: the first column is not a uniform grid")
    return grid


def _unique(path, ids: list) -> list:
    """``ids``, unless one of them repeats."""
    seen = set()
    for sid in ids:
        if sid in seen:
            raise CsvFormatError(f"{path}: subject id {sid!r} appears more than once")
        seen.add(sid)
    return ids


def _write_table(path, first_name: str, points: np.ndarray, columns, ids):
    table = np.column_stack([points, *columns])
    line = ",".join([FLOAT_FMT] * (len(ids) + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([first_name, *ids])
        for row in table:  # one line at a time: the text of the whole table is never held
            fh.write(line % tuple(row.tolist()))


def _not_text(path, exc: UnicodeDecodeError, offset: int = 0) -> CsvFormatError:
    return CsvFormatError(f"{path}: byte {offset + exc.start} is not {exc.encoding} text")


def _read_text(path) -> str:
    """The text of a file, line ends as they are."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_text(path, exc) from None


def _lines(path):
    """``(line number, line)`` of each line of a file that is not blank,
    decoded one line at a time and numbered as ``str.splitlines`` numbers
    the whole text."""
    n = offset = 0
    with open(path, "rb") as fh:
        for raw in fh:  # split at b"\n", which no multi-byte UTF-8 character holds
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _not_text(path, exc, offset) from None
            offset += len(raw)
            for line in text.splitlines():
                n += 1
                if line:
                    yield n, line


def _first_non_number(body) -> str | None:
    """Where the first field of the ``(line number, line)`` pairs ``body``
    that is no number lies, if ``float`` finds one."""
    for n, line in body:
        for j, text in enumerate(line.split(","), start=1):
            try:
                float(text.strip('"'))
            except ValueError:
                return f"line {n}, field {j} is not a number: {text!r}"
    return None


def _read_table(path):
    lines = _lines(path)
    first = next(lines, None)
    if first is None:
        raise CsvFormatError(f"{path}: file is empty")
    header, row = next(csv.reader([first[1]])), next(lines, None)
    if row is None:
        raise CsvFormatError(f"{path}: header but no data rows")
    if len(header) < 2:
        raise CsvFormatError(f"{path}: needs a grid column and at least one function column")

    def body():
        for n, line in itertools.chain([row], lines):
            fields = line.count(",") + 1
            if fields != len(header):
                raise CsvFormatError(f"{path}: line {n} has {fields} fields, the header has {len(header)}")
            yield line

    try:
        data = np.loadtxt(body(), delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError as exc:  # its row index counts data rows, not file lines
        where = _first_non_number(itertools.islice(_lines(path), 1, None))
        raise CsvFormatError(f"{path}: {where or exc}") from None
    # contiguous rows sum in the same order as one column at a time
    return header, data[:, 0], np.ascontiguousarray(data[:, 1:].T)


def write_density_csv(path, sample: DensitySample, ids=None):
    """Write a :class:`DensitySample`, one column per density."""
    ids = ids or [f"subject_{i + 1}" for i in range(len(sample))]
    _write_table(path, "x", sample.grid.points, sample.values, ids)


def read_density_csv(path) -> tuple[DensitySample, list]:
    """The sample of a density table and its column ids, each column
    floored at ``DEFAULT_FLOOR`` (as ``estimate`` writes them) and
    renormalized to the grid quadrature.  The floor is absolute, so a
    table on a wide support, whose values are small, does not read back
    as written (see :func:`density.normalize_rows`)."""
    header, points, columns = _read_table(path)
    ids = _unique(path, header[1:])
    grid = _uniform_grid_from(path, points)
    return DensitySample(normalize_rows(columns, grid), grid), ids


def write_transformed_csv(path, tgrid: Grid, x: np.ndarray, ids=None):
    """Write the ``(n, m)`` transformed values ``x`` on ``tgrid``, one column per row."""
    ids = ids or [f"subject_{i + 1}" for i in range(len(x))]
    _write_table(path, "t", tgrid.points, x, ids)


def read_transformed_csv(path) -> tuple[Grid, np.ndarray, list]:
    """The t grid, the ``(n, m)`` transformed values and the column ids."""
    header, points, columns = _read_table(path)
    return _uniform_grid_from(path, points), columns, header[1:]


def _id_value_rows(path) -> list:
    """(id, value) pairs of a CSV whose header is ``subject_id,value``."""
    rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
    if not rows:
        raise CsvFormatError(f"{path}: file is empty")
    if [h.strip().lower() for h in rows[0][:2]] != ["subject_id", "value"]:
        raise CsvFormatError(f"{path}: header must be 'subject_id,value', got {rows[0]!r}")
    pairs = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 2:
            raise CsvFormatError(f"{path}: line {line} needs 'subject_id,value', got {row!r}")
        try:
            pairs.append((row[0], float(row[1])))
        except ValueError:
            raise CsvFormatError(f"{path}: line {line}: {row[1]!r} is not a number") from None
    return pairs


def read_samples_csv(path):
    """Two-column ``subject_id,value`` CSV -> ordered {id: samples array}."""
    groups: dict[str, list[float]] = {}
    for sid, value in _id_value_rows(path):
        groups.setdefault(sid, []).append(value)
    return {k: np.asarray(v) for k, v in groups.items()}


def read_response_csv(path):
    """Two-column ``subject_id,value`` CSV of scalar responses, one per subject."""
    pairs = _id_value_rows(path)
    _unique(path, [sid for sid, _ in pairs])
    return dict(pairs)


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record written alongside every output file."""

    command: str
    argv: list
    seed: int | None
    inputs: dict = field(default_factory=dict)  # path -> sha256 of bytes
    artifact_version: str = __version__
    timestamp: str = ""
    python_version: str = field(init=False, default=platform.python_version())
    numpy_version: str = field(init=False, default=np.__version__)

    def write(self, out_path):
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        write_json(f"{out_path}.manifest.json", asdict(self))

