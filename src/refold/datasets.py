"""Dataset loading from delimited text files, plus the benchmark registry.

Files are plain delimited text (default comma), one sample per row, at most
one label column, every other kept column a numeric feature. Parsing is
deliberately strict: the delimiter is taken literally, decimal points only,
ASCII digits only, and any malformed cell fails with its row and column
named. A well-formed file is read in one vectorized pass; any other goes
through the row-by-row parse, which alone decides what is rejected and how.
There is no network access anywhere; benchmark files are supplied locally
and checked against the registry table below (expected class/sample/dimension
counts) so a wrong or modified file fails loudly instead of skewing results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .textio import parse_float, read_text

DATA_DIR_ENV = "REFOLD_DATA_DIR"
DEFAULT_DATA_DIR = "data"


@dataclass(frozen=True)
class DatasetSchema:
    """How to read one delimited file.

    label_column is a 0-based index (negative counts from the end), with
    header=True a column name, or None for a label-free file. Every column
    except the label and drop_columns is a feature. Indices in drop_columns
    refer to raw file columns.
    """

    delimiter: str = ","
    label_column: int | str | None = -1
    drop_columns: tuple[int, ...] = ()
    header: bool = False

    def __post_init__(self):
        if not self.delimiter or len(self.delimiter) != 1:
            raise ConfigError("delimiter must be a single character")
        if self.delimiter in "\r\n":
            # files are read with universal newlines, so every line break
            # ends a row and a line-break delimiter would never be seen
            raise ConfigError("delimiter must not be a line break")
        if isinstance(self.label_column, str) and not self.header:
            raise ConfigError("named label column requires header=True")


@dataclass(frozen=True)
class Dataset:
    """Parsed dataset: (N, D) float features plus per-row class labels."""

    name: str
    features: np.ndarray
    labels: tuple[str, ...]
    class_names: tuple[str, ...]
    task_prefix: str = ""

    def __post_init__(self):
        if not self.task_prefix:
            object.__setattr__(self, "task_prefix", self.name)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_dims(self) -> int:
        return self.features.shape[1]

    def class_flags(self, name: str) -> np.ndarray:
        """Per-row flags: True on the rows labeled `name`."""
        if name not in self.class_names:
            raise ConfigError(
                f"target class {name!r} not in dataset classes {self.class_names}"
            )
        return np.array([lab == name for lab in self.labels])


def load_dataset(
    path, schema: DatasetSchema | None = None, name: str = "", task_prefix: str = ""
) -> Dataset:
    """Parse one delimited file under the schema; errors name row and column.

    Without a label column, labels and class_names are empty.
    """
    schema = schema or DatasetSchema()
    path = os.fspath(path)
    lines = read_text(path, DataFormatError).split("\n")
    # allow trailing blank lines only
    while lines and lines[-1] == "":
        lines.pop()

    row_offset = 0
    header_names: list[str] | None = None
    if schema.header:
        if not lines:
            raise DataFormatError(f"{path}: empty file, header expected")
        header_names = [c.strip() for c in lines[0].split(schema.delimiter)]
        row_offset = 1

    if not lines[row_offset:]:
        raise DataFormatError(f"{path}: no data rows")

    width = len(lines[row_offset].split(schema.delimiter))
    if header_names is not None and len(header_names) != width:
        raise DataFormatError(
            f"{path}: header has {len(header_names)} fields, first data row has {width}"
        )
    label_idx = _resolve_label(schema, header_names, width, path)
    for c in schema.drop_columns:
        if not 0 <= c < width:
            raise DataFormatError(f"{path}: drop column {c} outside 0..{width - 1}")
    dropped = set(schema.drop_columns)
    cols = [c for c in range(width) if c != label_idx and c not in dropped]
    if not cols:
        raise DataFormatError(f"{path}: no feature columns left after selection")

    data = lines[row_offset:]
    matrix = _loadtxt(data, schema.delimiter, width, cols)
    if matrix is None:
        matrix = _parse_rows(data, schema.delimiter, width, cols, path, row_offset)
    labels = []
    if label_idx is not None:
        # every row has `width` fields by now, so one split bounded at the
        # label column, from the nearer end, isolates the label cell
        d, after = schema.delimiter, width - 1 - label_idx
        if label_idx <= after:
            labels = [line.split(d, label_idx + 1)[label_idx].strip() for line in data]
        else:
            labels = [line.rsplit(d, after + 1)[-after - 1].strip() for line in data]
        if not all(labels):
            lineno = labels.index("") + row_offset + 1
            raise DataFormatError(f"{path}: row {lineno} column {label_idx}: blank label")
    matrix.setflags(write=False)
    return Dataset(
        name=name or os.path.splitext(os.path.basename(path))[0],
        features=matrix,
        labels=tuple(labels),
        class_names=tuple(dict.fromkeys(labels)),
        task_prefix=task_prefix,
    )


def _loadtxt(lines, delimiter, width, cols) -> np.ndarray | None:
    """The feature matrix from one np.loadtxt call, or None to defer to
    _parse_rows, which decides what is accepted and names any bad cell.

    The guards cover what np.loadtxt alone lets through: with usecols it
    reads a ragged row that holds the used columns, it skips blank lines,
    and it parses nan and inf. What it does accept, it reads
    bit-identically to _parse_cell (tests/test_properties.py holds the two
    to the same result).
    """
    if any(line.count(delimiter) != width - 1 for line in lines):
        return None
    try:
        m = np.loadtxt(
            lines, delimiter=delimiter, usecols=cols, comments=None,
            dtype=np.float64, ndmin=2,
        )
    except ValueError:
        return None
    if m.shape[0] != len(lines) or not np.isfinite(m).all():
        return None
    return m


def _parse_rows(lines, delimiter, width, cols, path, row_offset) -> np.ndarray:
    """Strict row-by-row parse; the first bad row or cell raises, named."""
    rows = []
    for lineno, line in enumerate(lines, start=row_offset + 1):
        cells = line.split(delimiter)
        if len(cells) != width:
            raise DataFormatError(
                f"{path}: row {lineno} has {len(cells)} fields, expected {width}"
            )
        rows.append([_parse_cell(cells[col], path, lineno, col) for col in cols])
    return np.array(rows, dtype=np.float64)


def _parse_cell(cell: str, path, lineno: int, col: int) -> float:
    """Strict numeric cell: ASCII, decimal point only, finite, no digit separators."""
    try:
        value = parse_float(cell.strip())
    except ValueError:
        raise DataFormatError(
            f"{path}: row {lineno} column {col}: not a number: {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(
            f"{path}: row {lineno} column {col}: non-finite value {cell!r}"
        )
    return value


def _resolve_label(schema, header_names, width, path) -> int | None:
    if schema.label_column is None:
        return None
    if isinstance(schema.label_column, str):
        if schema.label_column not in header_names:
            raise DataFormatError(
                f"{path}: label column {schema.label_column!r} not in header"
            )
        return header_names.index(schema.label_column)
    idx = schema.label_column
    if idx < 0:
        idx += width
    if not 0 <= idx < width:
        raise DataFormatError(
            f"{path}: label column {schema.label_column} outside 0..{width - 1}"
        )
    return idx


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class RegistryEntry:
    """One benchmark dataset: its file under the data directory (see
    data/README.md for how to obtain it), how to parse it (by default comma
    delimited, no header, label last), the task name prefix, and the
    class/sample/dimension counts the loader verifies. note is free text
    surfaced in benchmark report headers.
    """

    name: str
    filename: str
    task_prefix: str
    classes: int
    samples: int
    dims: int
    schema: DatasetSchema = DatasetSchema()
    note: str = ""


_REGISTRY = {entry.name: entry for entry in (
    RegistryEntry("iris", "iris.csv", "Iris", classes=3, samples=150, dims=4),
    RegistryEntry(
        "seeds", "seeds.csv", "Seed", classes=3, samples=210, dims=7,
        note="converted from the tab-separated original: collapse runs of tabs to single "
             "commas",
    ),
    RegistryEntry(
        "ionosphere", "ionosphere.csv", "Ion", classes=2, samples=351, dims=32,
        schema=DatasetSchema(drop_columns=(0, 1)),
        note="raw columns 0 (binary) and 1 (always zero) dropped to get the 32 continuous "
             "pulse features",
    ),
    RegistryEntry("sonar", "sonar.csv", "Son", classes=2, samples=208, dims=60),
    RegistryEntry(
        "bankruptcy", "bankruptcy.csv", "Bank", classes=2, samples=250, dims=6,
        note="qualitative P/A/N ratings encoded as 2/1/0; any equally spaced increasing "
             "encoding gives identical scores",
    ),
    RegistryEntry(
        "happiness", "happiness.csv", "Happ", classes=2, samples=143, dims=6,
        schema=DatasetSchema(label_column=0),
        note="survey file re-encoded from UTF-16 to UTF-8; label (D) is the first column",
    ),
)}


def registry() -> dict[str, RegistryEntry]:
    """The benchmark datasets, keyed by name."""
    return _REGISTRY


def resolve_data_dir(data_dir: str | None = None) -> str:
    """Explicit argument, else $REFOLD_DATA_DIR, else ./data."""
    return data_dir or os.environ.get(DATA_DIR_ENV) or DEFAULT_DATA_DIR


def load_registry_dataset(name: str, data_dir: str | None = None) -> Dataset:
    """Load a registry dataset and verify its (C, N, D) against expectations."""
    reg = registry()
    if name not in reg:
        raise DataFormatError(
            f"unknown dataset {name!r}; registry lists: {', '.join(sorted(reg))}"
        )
    entry = reg[name]
    path = os.path.join(resolve_data_dir(data_dir), entry.filename)
    ds = load_dataset(path, entry.schema, name=entry.name, task_prefix=entry.task_prefix)
    problems = []
    if len(ds.class_names) != entry.classes:
        problems.append(f"classes {len(ds.class_names)} != {entry.classes}")
    if ds.n_samples != entry.samples:
        problems.append(f"samples {ds.n_samples} != {entry.samples}")
    if ds.n_dims != entry.dims:
        problems.append(f"dims {ds.n_dims} != {entry.dims}")
    if problems:
        raise DataFormatError(
            f"{path} does not match the registry for {name!r}: " + "; ".join(problems)
        )
    return ds
