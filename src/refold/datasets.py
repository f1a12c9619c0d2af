"""Dataset loading from delimited text files, plus the benchmark registry.

Files are plain delimited text (default comma), one sample per row, at most
one label column, every other kept column a numeric feature. Parsing is
deliberately strict: the delimiter is taken literally, decimal points only,
ASCII digits only, and any malformed cell fails with its row and column
named. Lines come from textio.read_lines a chunk at a time, trailing blank
lines dropped, so one chunk's text is held at once. A well-formed chunk is
read in one vectorized pass; any other goes through the row-by-row parse,
which alone decides what is rejected and how. read_chunks yields each
chunk's matrix and labels, for callers that score or filter rows as they
are read; load_dataset joins the chunks into one Dataset.

A regular file whose first chunk comes back full (so the file may hold
more) is parsed in two processes where it may run on two CPUs: a forked
helper reads the file again and converts every other chunk of read_lines
(1, 3, 5, ...) as this process would, until the first one it cannot
convert in one pass, sending each matrix down a pipe; for a caller that
scores the chunks (predict and eval), it scores them too and sends the
scores. This process still decodes every chunk, reads every label and
converts and scores the rest, so errors and warnings are raised here alone,
with the same text. Faults of one kind are reported
in file order, but a chunk is decoded whole before its cells are read, so
a non-UTF-8 byte is reported before an earlier bad cell of the same chunk,
or of the text layer's 8 KB read-ahead. The bits, labels and first error
are those of a one-process parse. The file must not change while it is
read.

There is no network access anywhere; benchmark files are supplied locally
and checked against the registry table below (expected class/sample/dimension
counts) so a wrong or modified file fails loudly instead of skewing results.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigError, DataFormatError
from .helper import Helper, may_fork, send
from .textio import as_tuple, is_int, parse_float, read_lines

DATA_DIR_ENV = "REFOLD_DATA_DIR"
DEFAULT_DATA_DIR = "data"

# lines parsed per np.loadtxt call: the text held at once stays one chunk's,
# and larger chunks peak higher on np.loadtxt's own temporaries
_CHUNK_LINES = 8192

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
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be a single character, got {self.delimiter!r}")
        if self.delimiter in "\r\n":
            # files are read with universal newlines, so every line break
            # ends a row and a line-break delimiter would never be seen
            raise ConfigError("delimiter must not be a line break")
        label = self.label_column
        if not (label is None or isinstance(label, str) or is_int(label)):
            raise ConfigError(f"label_column must be an integer, a name or None, got {label!r}")
        if isinstance(label, str) and not self.header:
            raise ConfigError("named label column requires header=True")
        drop = as_tuple(self.drop_columns)
        if drop is None or not all(map(is_int, drop)):
            raise ConfigError(f"drop_columns must be a sequence of integers, "
                              f"got {self.drop_columns!r}")
        object.__setattr__(self, "drop_columns", drop)


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
        check_class(name, self.class_names)
        return np.array([lab == name for lab in self.labels])


def read_chunks(path, schema: DatasetSchema | None = None, apply=None):
    """Parse one delimited file under the schema, a chunk of lines at a time:
    yields each chunk's (matrix, labels), an (n, D) float64 matrix and a list
    of n label strings, empty without a label column. Errors name row and
    column; a blank label raises once every chunk has been read, so the
    first fault reported is the one a whole-file parse meets first.

    With apply given, a function that maps a chunk's matrix to its n float64
    scores, each chunk's scores are yielded in place of its matrix. A forked
    helper applies it to the chunks it converts; a chunk on which it raises
    or warns there is converted and scored here, which raises or warns as a
    one-process parse would.
    """
    schema = schema or DatasetSchema()
    path = os.fspath(path)
    d = schema.delimiter
    # closed on return or raise, not when the generator is collected: the
    # helper, if one was started, is killed and reaped first
    with closing(read_lines(path, DataFormatError, _CHUNK_LINES)) as chunks, \
            closing(Helper()) as helper:
        lines = next(chunks, [])
        full = len(lines) == _CHUNK_LINES  # the file may hold more chunks
        header_names: list[str] | None = None
        if schema.header:
            if not lines:
                raise DataFormatError(f"{path}: empty file, header expected")
            header_names = [c.strip() for c in lines.pop(0).split(d)]
        # chunks are counted as read_lines yields them: where the header
        # fills chunk 0 alone, the data starts at chunk 1, which is odd
        row, odd = int(schema.header), not lines
        lines = lines or next(chunks, [])

        if not lines:
            raise DataFormatError(f"{path}: no data rows")

        width = len(lines[0].split(d))
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

        # the helper reads the file again, which it cannot do with a pipe
        if full and os.path.isfile(path) and may_fork():
            helper.start(_send_odd_chunks, path, d, width, cols, apply)
        names: dict[str, str] = {}
        blank = None  # file row of the first blank label
        while lines:
            shape = (len(lines), len(cols)) if apply is None else (len(lines),)
            values = helper.read(shape) if odd else None  # the matrix, or its scores
            if values is None:
                values = _loadtxt(lines, d, width, cols)
                if values is None:
                    values = _parse_rows(lines, d, width, cols, path, row)
                if apply is not None:
                    values = apply(values)
            labels = []
            if label_idx is not None:
                # every row has `width` fields by now, so one split bounded at
                # the label column, from the nearer end, isolates the label cell
                after = width - 1 - label_idx
                if label_idx <= after:
                    cells = (line.split(d, label_idx + 1)[label_idx] for line in lines)
                else:
                    cells = (line.rsplit(d, after + 1)[-after - 1] for line in lines)
                # one string object per class, however many rows carry it
                labels = [names.setdefault(x, x) for x in map(str.strip, cells)]
                if blank is None and "" in names:
                    blank = row + labels.index("") + 1
            yield values, labels
            row, odd = row + len(lines), not odd
            # dropped before the next chunk is read: one chunk's text is alive
            del lines, values, labels
            lines = next(chunks, [])
    # checked once every chunk's cells are, as a whole-file parse would order them
    if blank is not None:
        raise DataFormatError(f"{path}: row {blank} column {label_idx}: blank label")


def load_dataset(
    path, schema: DatasetSchema | None = None, name: str = "", task_prefix: str = "",
    target_class: str | None = None,
) -> Dataset:
    """The chunks of read_chunks joined into one Dataset.

    Each chunk's rows are written into one matrix, grown as chunks arrive,
    so the file's rows are held once. With target_class given, only the rows
    of that class are kept, chunk by chunk, while class_names still lists
    every class of the file; a class the file lacks raises ConfigError. The
    features are then a writable matrix of the kept rows, which no other
    object holds, so a caller may fit in place on it; any other load returns
    them read-only. Without a label column, labels and class_names are empty.
    """
    path = os.fspath(path)
    matrix, labels, names = None, [], {}
    # closed on a raise here too, which stops the parse's helper at once
    with closing(read_chunks(path, schema)) as chunks:
        for chunk, chunk_labels in chunks:
            names.update(dict.fromkeys(chunk_labels))
            if target_class is not None:
                keep = [i for i, lab in enumerate(chunk_labels) if lab == target_class]
                chunk, chunk_labels = chunk[keep], [target_class] * len(keep)
            if matrix is None:
                matrix = np.empty((0, chunk.shape[1]))
            n = len(matrix)
            # grown to the rows it holds, so no spare capacity is touched:
            # realloc extends the block or remaps its pages. No view of
            # matrix exists for the resize to invalidate.
            matrix.resize((n + len(chunk), chunk.shape[1]), refcheck=False)
            matrix[n:] = chunk
            labels += chunk_labels
            del chunk  # not held while the next chunk is parsed
    if target_class is not None:
        check_class(target_class, tuple(names))
    matrix.setflags(write=target_class is not None)
    return Dataset(
        name=name or os.path.splitext(os.path.basename(path))[0],
        features=matrix,
        labels=tuple(labels),
        class_names=tuple(names),
        task_prefix=task_prefix,
    )


def check_class(name: str, class_names: tuple[str, ...]) -> None:
    """Raise ConfigError unless `name` is one of class_names."""
    if name not in class_names:
        raise ConfigError(f"target class {name!r} not in dataset classes {class_names}")


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


def _send_odd_chunks(out, path, delimiter, width, cols, apply) -> None:
    """The helper's work: for each odd chunk of the file's read_lines, its
    _loadtxt matrix, or with apply given its scores. The first chunk that
    _loadtxt defers, or any error or warning, ends the helper."""
    with closing(read_lines(path, DataFormatError, _CHUNK_LINES)) as chunks:
        for lines in islice(chunks, 1, None, 2):
            m = _loadtxt(lines, delimiter, width, cols)
            if m is None:
                return
            send(out, m if apply is None else apply(m))
            del lines, m  # one chunk's text is alive, as in read_chunks


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
