"""CSV/JSON serialization and the run manifest.

Density tables are CSV with an ``x`` first column (the grid) and one
column per subject, and move as ``(DensitySample, ids)``.  Transformed
tables use ``t`` as the first column and move as
``(t grid, (n, m) array, ids)``; whether the grid is the transform's
domain is checked by ``transforms.inverse_rows``.
All floats are written with 17 significant digits so a write/read round
trip reproduces binary64 values exactly.

Tables move as arrays.  A read checks the shape line by line (an empty
file, no data rows, fewer than two columns or a row of the wrong field
count raise ``CsvFormatError``), skipping blank lines, then parses the
body with one ``np.loadtxt``; a field that is no number raises
``ValueError``.  A write formats and writes the body one row at a time
with one format string, the same bytes as ``csv.writer`` (CRLF line
ends).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata

import numpy as np

from .density import DensitySample, Grid, normalize_rows
from .errors import CsvFormatError

ARTIFACT_VERSION = "0.1.0"
FLOAT_FMT = "%.17g"


def _uniform_grid_from(points: np.ndarray) -> Grid:
    lo, hi, m = float(points[0]), float(points[-1]), len(points)
    grid = Grid(lo, hi, m)
    if np.abs(points - grid.points).max() > 1e-9 * max(abs(lo), abs(hi), 1.0):
        raise ValueError("first CSV column is not a uniform grid")
    return grid


def _write_table(path, first_name: str, points: np.ndarray, columns, ids):
    table = np.column_stack([points, *columns])
    line = ",".join([FLOAT_FMT] * (len(ids) + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([first_name, *ids])
        for row in table:  # one line at a time: the text of the whole table is never held
            fh.write(line % tuple(row.tolist()))


def _read_table(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if not lines:
        raise CsvFormatError(f"{path}: file is empty")
    header, body = next(csv.reader(lines[:1])), lines[1:]
    if not body:
        raise CsvFormatError(f"{path}: header but no data rows")
    if len(header) < 2:
        raise CsvFormatError(f"{path}: needs a grid column and at least one function column")
    for i, line in enumerate(body, start=1):
        fields = line.count(",") + 1
        if fields != len(header):
            raise CsvFormatError(
                f"{path}: data row {i} has {fields} fields, the header has {len(header)}"
            )
    data = np.loadtxt(body, delimiter=",", comments=None, quotechar='"', ndmin=2)
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
    grid = _uniform_grid_from(points)
    return DensitySample(normalize_rows(columns, grid), grid), header[1:]


def write_transformed_csv(path, tgrid: Grid, x: np.ndarray, ids=None):
    """Write the ``(n, m)`` transformed values ``x`` on ``tgrid``, one column per row."""
    ids = ids or [f"subject_{i + 1}" for i in range(len(x))]
    _write_table(path, "t", tgrid.points, x, ids)


def read_transformed_csv(path) -> tuple[Grid, np.ndarray, list]:
    """The t grid, the ``(n, m)`` transformed values and the column ids."""
    header, points, columns = _read_table(path)
    return _uniform_grid_from(points), columns, header[1:]


def _id_value_rows(path) -> tuple[list, list]:
    """Header and (id, value) pairs of a ``subject_id,value`` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CsvFormatError(f"{path}: file is empty")
    pairs = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 2:
            raise CsvFormatError(f"{path}: line {line} needs 'subject_id,value', got {row!r}")
        pairs.append((row[0], float(row[1])))
    return rows[0], pairs


def read_samples_csv(path):
    """Two-column ``subject_id,value`` CSV -> ordered {id: samples array}."""
    header, pairs = _id_value_rows(path)
    if [h.strip().lower() for h in header[:2]] != ["subject_id", "value"]:
        raise ValueError("sample CSV must have header 'subject_id,value'")
    groups: dict[str, list[float]] = {}
    for sid, value in pairs:
        groups.setdefault(sid, []).append(value)
    return {k: np.asarray(v) for k, v in groups.items()}


def read_response_csv(path):
    """Two-column ``subject_id,value`` CSV of scalar responses."""
    return dict(_id_value_rows(path)[1])


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


@functools.cache
def _scipy_version() -> str:
    """SciPy's version from the installed metadata, read once per process
    (about 2 ms a read); importing SciPy would load it on every command."""
    return metadata.version("scipy")


@dataclass
class RunManifest:
    """Reproducibility record written alongside every output file."""

    command: str
    argv: list
    seed: int | None
    inputs: dict = field(default_factory=dict)  # path -> sha256 of bytes
    artifact_version: str = ARTIFACT_VERSION
    timestamp: str = ""
    python_version: str = field(init=False, default=platform.python_version())
    numpy_version: str = field(init=False, default=np.__version__)
    scipy_version: str = field(init=False, default_factory=_scipy_version)

    def write(self, out_path):
        self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        write_json(f"{out_path}.manifest.json", asdict(self))

