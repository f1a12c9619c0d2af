"""Dataset loading from delimited text files, plus the benchmark registry.

Files are plain delimited text (default comma), one sample per row, at most
one label column, every other kept column a numeric feature. Parsing is
deliberately strict: the delimiter is taken literally, decimal points only,
ASCII digits only, and any malformed cell fails with its row and column
named. A well-formed file is read in one vectorized pass; any other goes
through the row-by-row parse, which alone decides what is rejected and how.
There is no network access anywhere; benchmark files are supplied locally
and checked against the packaged manifest (expected class/sample/dimension
counts) so a wrong or modified file fails loudly instead of skewing results.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from importlib import resources

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
    source: str
    schema: DatasetSchema
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
        labels = [line.split(schema.delimiter)[label_idx].strip() for line in data]
    matrix.setflags(write=False)
    return Dataset(
        name=name or os.path.splitext(os.path.basename(path))[0],
        features=matrix,
        labels=tuple(labels),
        class_names=tuple(dict.fromkeys(labels)),
        source=path,
        schema=schema,
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
    """Manifest record for one benchmark dataset: file, schema, expected shape."""

    name: str
    filename: str
    task_prefix: str
    classes: int
    samples: int
    dims: int
    schema: DatasetSchema
    note: str = ""


_registry_cache: dict[str, RegistryEntry] | None = None


def registry() -> dict[str, RegistryEntry]:
    """Benchmark datasets from the packaged manifest, keyed by name."""
    global _registry_cache
    if _registry_cache is None:
        text = resources.files("refold").joinpath("manifest.txt").read_text("utf-8")
        _registry_cache = parse_manifest(text)
    return _registry_cache


def parse_manifest(text: str) -> dict[str, RegistryEntry]:
    """Parse the key-value manifest listing expected (C, N, D) per dataset."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    entries = {}
    for section in parser.sections():
        sec = parser[section]
        try:
            drop = tuple(
                int(c) for c in sec.get("drop_columns", "").split(",") if c.strip()
            )
            label_raw = sec.get("label_column", "-1").strip()
            schema = DatasetSchema(
                delimiter=sec.get("delimiter", ","),
                label_column=int(label_raw),
                drop_columns=drop,
                header=sec.getboolean("header", False),
            )
            entries[section] = RegistryEntry(
                name=section,
                filename=sec["file"],
                task_prefix=sec["prefix"],
                classes=sec.getint("classes"),
                samples=sec.getint("samples"),
                dims=sec.getint("dims"),
                schema=schema,
                note=sec.get("note", ""),
            )
        except (KeyError, ValueError) as exc:
            raise DataFormatError(f"manifest section [{section}]: {exc}") from None
    return entries


def resolve_data_dir(data_dir: str | None = None) -> str:
    """Explicit argument, else $REFOLD_DATA_DIR, else ./data."""
    return data_dir or os.environ.get(DATA_DIR_ENV) or DEFAULT_DATA_DIR


def load_registry_dataset(name: str, data_dir: str | None = None) -> Dataset:
    """Load a manifest dataset and verify its (C, N, D) against expectations."""
    reg = registry()
    if name not in reg:
        raise DataFormatError(
            f"unknown dataset {name!r}; manifest lists: {', '.join(sorted(reg))}"
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
            f"{path} does not match the manifest for {name!r}: " + "; ".join(problems)
        )
    return ds


def dataset_available(name: str, data_dir: str | None = None) -> bool:
    """True if the manifest dataset's file exists locally."""
    entry = registry().get(name)
    if entry is None:
        return False
    return os.path.isfile(os.path.join(resolve_data_dir(data_dir), entry.filename))
