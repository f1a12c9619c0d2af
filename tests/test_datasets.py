"""Tests for dataset parsing, schema handling, and the benchmark registry."""

import os
import signal
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child, load_outcome, needs_fork, parse_on_cpus

from refold import datasets
from refold.datasets import (
    Dataset,
    DatasetSchema,
    load_dataset,
    load_registry_dataset,
    registry,
)
from refold.errors import ConfigError, DataFormatError

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ------------------------------------------------------------------ parsing

def test_load_basic_csv(tmp_path):
    p = write(tmp_path, "1.0,2.0,a\n3.0,4.0,b\n5.5,6.5,a\n")
    ds = load_dataset(p)
    assert ds.n_samples == 3
    assert ds.n_dims == 2
    assert ds.labels == ("a", "b", "a")
    assert ds.class_names == ("a", "b")  # order of first appearance
    np.testing.assert_array_equal(ds.features[2], [5.5, 6.5])


def test_label_column_first(tmp_path):
    p = write(tmp_path, "x,1,2\ny,3,4\n")
    ds = load_dataset(p, DatasetSchema(label_column=0))
    assert ds.labels == ("x", "y")
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_header_and_named_label(tmp_path):
    p = write(tmp_path, "f1,f2,species\n1,2,cat\n3,4,dog\n")
    ds = load_dataset(p, DatasetSchema(header=True, label_column="species"))
    assert ds.labels == ("cat", "dog")
    assert ds.n_dims == 2


@pytest.mark.parametrize("label_column", [0, 1, 2, 3, 4, -1, -3, -5])
def test_label_cell_from_either_end(tmp_path, label_column):
    """The label is the cell a full split of the row gives, whichever end of
    the row it is taken from, and a blank one names its row and column."""
    rows = [[str(10 * r + c) for c in range(5)] for r in range(3)]
    for row, label in zip(rows, [" x ", "y", "z"]):
        row[label_column] = label
    p = write(tmp_path, "".join(",".join(row) + "\n" for row in rows))
    ds = load_dataset(p, DatasetSchema(label_column=label_column))
    assert ds.labels == ("x", "y", "z")
    assert ds.features[1].tolist() == [10 + c for c in range(5) if c != label_column % 5]
    rows[1][label_column] = " "
    p = write(tmp_path, "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(DataFormatError, match=f"row 2 column {label_column % 5}: blank label"):
        load_dataset(p, DatasetSchema(label_column=label_column))


@pytest.mark.parametrize("text, fields, width", [
    ("a,b,c,label\n1,2,3\n", 4, 3),  # wider: the label would index past the row
    ("a,label\n1,2,x\n", 2, 3),  # narrower: the label would shift onto a feature
], ids=["wider", "narrower"])
def test_header_width_must_match_the_first_row(tmp_path, text, fields, width):
    p = write(tmp_path, text)
    with pytest.raises(DataFormatError,
                       match=f"header has {fields} fields, first data row has {width}"):
        load_dataset(p, DatasetSchema(header=True, label_column="label"))


@pytest.mark.parametrize("row_parse", [False, True], ids=["one-pass", "row-by-row"])
@pytest.mark.parametrize("text, header, row", [
    ("1,2,a\n3,4, \n5,6,\n", False, 2),
    ("h1,h2,h3\n1,2,a\n3,4,\n", True, 3),
], ids=["no-header", "header"])
def test_blank_label_rejected(tmp_path, monkeypatch, row_parse, text, header, row):
    if row_parse:
        monkeypatch.setattr(datasets, "_loadtxt", lambda *args: None)
    p = write(tmp_path, text)
    with pytest.raises(DataFormatError, match=f"row {row} column 2: blank label"):
        load_dataset(p, DatasetSchema(header=header))


def test_class_flags(tmp_path):
    ds = load_dataset(write(tmp_path, "1,2,a\n3,4,b\n5,6,a\n"))
    np.testing.assert_array_equal(ds.class_flags("a"), [True, False, True])
    with pytest.raises(ConfigError,
                       match=r"target class 'c' not in dataset classes \('a', 'b'\)"):
        ds.class_flags("c")


def test_alternative_delimiter(tmp_path):
    p = write(tmp_path, "1;2;a\n3;4;b\n")
    ds = load_dataset(p, DatasetSchema(delimiter=";"))
    assert ds.n_dims == 2


def test_drop_columns(tmp_path):
    p = write(tmp_path, "9,1,2,a\n9,3,4,b\n")
    ds = load_dataset(p, DatasetSchema(drop_columns=(0,)))
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("drop", [(4,), (99,), (-1,), (0, 4)])
def test_drop_column_outside_file_rejected(tmp_path, drop):
    p = write(tmp_path, "9,1,2,a\n9,3,4,b\n")
    bad = next(c for c in drop if not 0 <= c < 4)
    with pytest.raises(DataFormatError, match=rf"drop column {bad} outside 0\.\.3"):
        load_dataset(p, DatasetSchema(drop_columns=drop))


def test_drop_column_may_name_the_label(tmp_path):
    p = write(tmp_path, "1,2,a\n3,4,b\n")
    ds = load_dataset(p, DatasetSchema(drop_columns=(2,)))
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.labels == ("a", "b")


# ------------------------------------------------------------- label-free

UNLABELED = DatasetSchema(label_column=None)


def test_label_free_file(tmp_path):
    p = write(tmp_path, "1,2,3\n4,5,6\n")
    ds = load_dataset(p, UNLABELED)
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert ds.labels == ds.class_names == ()
    assert not ds.features.flags.writeable


def test_label_free_header_skipped(tmp_path):
    p = write(tmp_path, "f1,f2\n1,2\n3,4\n")
    ds = load_dataset(p, DatasetSchema(label_column=None, header=True))
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.labels == ds.class_names == ()


def test_label_free_drop_columns(tmp_path):
    p = write(tmp_path, "9,1,2\n9,3,4\n")
    ds = load_dataset(p, DatasetSchema(label_column=None, drop_columns=(0,)))
    np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DataFormatError, match="no feature columns left"):
        load_dataset(p, DatasetSchema(label_column=None, drop_columns=(0, 1, 2)))


def test_label_free_ragged_row_names_row(tmp_path):
    p = write(tmp_path, "f1,f2\n1,2\n3,4\n5\n")
    with pytest.raises(DataFormatError, match="row 4 has 1 fields, expected 2"):
        load_dataset(p, DatasetSchema(label_column=None, header=True))


def test_label_free_bad_cell_names_row_and_column(tmp_path):
    p = write(tmp_path, "1,2\n3,1_0\n")
    with pytest.raises(DataFormatError, match="row 2 column 1: not a number"):
        load_dataset(p, UNLABELED)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    p = write(tmp_path, "1.0,2.0,a\n3.0,oops,b\n")
    with pytest.raises(DataFormatError, match=r"row 2 column 1"):
        load_dataset(p)


def test_non_finite_cell_rejected(tmp_path):
    p = write(tmp_path, "1.0,nan,a\n3.0,4.0,b\n")
    with pytest.raises(DataFormatError, match=r"row 1 column 1"):
        load_dataset(p)


def test_ragged_row_rejected(tmp_path):
    p = write(tmp_path, "1.0,2.0,a\n3.0,b\n")
    with pytest.raises(DataFormatError, match=r"row 2"):
        load_dataset(p)


def test_missing_file():
    with pytest.raises(DataFormatError, match="not found"):
        load_dataset("/nonexistent/nowhere.csv")


def test_empty_file_rejected(tmp_path):
    p = write(tmp_path, "")
    with pytest.raises(DataFormatError):
        load_dataset(p)


def test_locale_independent_parsing(tmp_path):
    # comma decimals must fail, not silently misparse
    p = write(tmp_path, '1;2,5;a\n2;3,5;b\n')
    with pytest.raises(DataFormatError, match="row 1 column 1"):
        load_dataset(p, DatasetSchema(delimiter=";"))


def test_scientific_notation_ok(tmp_path):
    p = write(tmp_path, "1e-3,2E2,a\n-1.5e1,0.25,b\n")
    ds = load_dataset(p)
    np.testing.assert_array_equal(ds.features[0], [0.001, 200.0])


def test_underscore_separators_rejected(tmp_path):
    # Python float() would read "1_0" as 10; the loader must not
    p = write(tmp_path, "1_0,2,a\n3,4,b\n")
    with pytest.raises(DataFormatError, match="row 1 column 0"):
        load_dataset(p)


def test_empty_cell_rejected(tmp_path):
    p = write(tmp_path, "1,,a\n3,4,b\n")
    with pytest.raises(DataFormatError, match="row 1 column 1"):
        load_dataset(p)


@pytest.mark.parametrize("cell", ["\u0661\u0662", "\uff13"])
def test_non_ascii_digits_rejected(tmp_path, cell):
    # float() reads Arabic-Indic "١٢" as 12.0 and fullwidth "３" as 3.0
    p = write(tmp_path, f"1,2,a\n3,{cell},b\n")
    with pytest.raises(DataFormatError, match="row 2 column 1: not a number"):
        load_dataset(p)


def test_non_ascii_padding_accepted(tmp_path):
    p = write(tmp_path, "\xa01\xa0,\u20032,a\n3,4,b\n")
    np.testing.assert_array_equal(load_dataset(p).features, [[1.0, 2.0], [3.0, 4.0]])


def test_clean_file_parsed_in_one_pass(tmp_path, monkeypatch):
    def per_row(*args):
        raise AssertionError("row-by-row parse used on a clean file")

    monkeypatch.setattr(datasets, "_parse_rows", per_row)
    p = write(tmp_path, "h1,h2,h3\n1.5,-2e3,a\n 3 ,4,b\n")
    ds = load_dataset(p, DatasetSchema(header=True))
    np.testing.assert_array_equal(ds.features, [[1.5, -2000.0], [3.0, 4.0]])
    assert ds.labels == ("a", "b")


def test_blank_line_rejected_in_one_column_file(tmp_path):
    # np.loadtxt skips blank lines; the reader must not
    p = write(tmp_path, "1\n\n3\n")
    with pytest.raises(DataFormatError, match="row 2 column 0: not a number: ''"):
        load_dataset(p, UNLABELED)


def test_schema_validation():
    with pytest.raises(ConfigError):
        DatasetSchema(delimiter=",,")
    # files are read with universal newlines, so "1\r2\n" with delimiter
    # "\r" would read as two rows of one column
    for delimiter in ("\n", "\r"):
        with pytest.raises(ConfigError, match="must not be a line break"):
            DatasetSchema(delimiter=delimiter)
    with pytest.raises(ConfigError):
        DatasetSchema(label_column="name", header=False)


def test_schema_holds_columns_to_the_integer_rule(tmp_path):
    # a fraction used to drop nothing, a bool to stand for column 1, and an
    # int delimiter to raise a raw TypeError
    for kwargs, message in [
        ({"drop_columns": (1.5,)}, "drop_columns must be a sequence of integers, got (1.5,)"),
        ({"drop_columns": (True,)}, "drop_columns must be a sequence of integers, got (True,)"),
        ({"drop_columns": None}, "drop_columns must be a sequence of integers, got None"),
        ({"label_column": True}, "label_column must be an integer, a name or None, got True"),
        ({"label_column": 1.0}, "label_column must be an integer, a name or None, got 1.0"),
        ({"delimiter": 5}, "delimiter must be a single character, got 5"),
    ]:
        with pytest.raises(ConfigError) as exc:
            DatasetSchema(**kwargs)
        assert str(exc.value) == message
    # numpy integers are integers, and a list of drop columns reads as a tuple
    p = write(tmp_path, "1,2,3,a\n4,5,6,b\n")
    schema = DatasetSchema(label_column=np.int64(3), drop_columns=[np.int32(1)])
    assert schema.drop_columns == (1,)
    ds = load_dataset(p, schema)
    assert ds.features.tolist() == [[1.0, 3.0], [4.0, 6.0]] and ds.labels == ("a", "b")


def test_features_read_only(tmp_path):
    p = write(tmp_path, "1,2,a\n3,4,b\n")
    ds = load_dataset(p)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0


# --------------------------------------------------------- chunked reading

def rows_text(n, bad=None, line_end="\n"):
    """n rows "i,-i,a|b", row `bad` (1-based) replaced by the given text."""
    rows = [f"{i},{-i},{'ab'[i % 2]}" for i in range(1, n + 1)]
    if bad is not None:
        rows[bad[0] - 1] = bad[1]
    return "".join(r + line_end for r in rows)


@pytest.mark.parametrize("header", [False, True])
def test_bad_cell_in_a_later_chunk_named_by_file_row(tmp_path, monkeypatch, header):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    text = ("h1,h2,h3\n" if header else "") + rows_text(10, bad=(9 - header, "9,x,a"))
    with pytest.raises(DataFormatError, match=r"row 9 column 1: not a number: 'x'$"):
        load_dataset(write(tmp_path, text), DatasetSchema(header=header))


def test_ragged_row_in_a_later_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    p = write(tmp_path, rows_text(10, bad=(7, "7,a")))
    with pytest.raises(DataFormatError, match=r"row 7 has 2 fields, expected 3$"):
        load_dataset(p)


def test_blank_label_in_a_later_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    p = write(tmp_path, rows_text(10, bad=(6, "6,-6, ")))
    with pytest.raises(DataFormatError, match=r"row 6 column 2: blank label$"):
        load_dataset(p)


def test_read_chunks_yields_what_load_dataset_joins(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    p = write(tmp_path, "x,y,cls\n" + rows_text(10))
    schema = DatasetSchema(header=True, label_column="cls")
    chunks = list(datasets.read_chunks(p, schema))
    assert [len(m) for m, _ in chunks] == [3, 4, 3]
    ds = load_dataset(p, schema)
    np.testing.assert_array_equal(np.concatenate([m for m, _ in chunks]), ds.features)
    assert tuple(lab for _, labels in chunks for lab in labels) == ds.labels
    assert [labels for _, labels in datasets.read_chunks(write(tmp_path, "1\n2\n", "x.csv"),
                                                         DatasetSchema(label_column=None))] == [[]]


def test_read_chunks_reports_a_blank_label_after_the_last_chunk(tmp_path, monkeypatch):
    # a bad cell later in the file is reported first, as by a whole-file read
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    text = rows_text(10, bad=(2, "2,-2, "))
    chunks = datasets.read_chunks(write(tmp_path, text))
    assert [len(next(chunks)[0]) for _ in range(3)] == [4, 4, 2]
    with pytest.raises(DataFormatError, match=r"row 2 column 2: blank label$"):
        next(chunks)
    text = rows_text(10, bad=(2, "2,-2, ")).replace("9,-9", "9,x")
    with pytest.raises(DataFormatError, match=r"row 9 column 1: not a number: 'x'$"):
        list(datasets.read_chunks(write(tmp_path, text)))


def test_load_dataset_keeps_the_target_class_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 3)
    p = write(tmp_path, "5,0,c\n" + rows_text(7))
    ds = load_dataset(p, target_class="a")
    np.testing.assert_array_equal(ds.features, [[2, -2], [4, -4], [6, -6]])
    assert ds.labels == ("a",) * 3 and ds.class_names == ("c", "b", "a")
    with pytest.raises(ConfigError,
                       match=r"^target class 'd' not in dataset classes \('c', 'b', 'a'\)$"):
        load_dataset(p, target_class="d")


@pytest.mark.parametrize("chunk_lines", [1, 2, 3, 7, 8192])
def test_load_dataset_is_bit_identical_at_every_chunk_size(tmp_path, monkeypatch,
                                                           chunk_lines):
    """The grown matrix holds the file's rows bit for bit however the file
    is cut into chunks, chunks without a target row included. Only a
    target-class load is writable, and its matrix is no view."""
    values = np.random.default_rng(8).standard_normal((40, 3)) * 10.0 ** np.arange(-3, 3, 2)
    classes = ["c" if i in (5, 6, 31) else "ab"[i % 2] for i in range(40)]
    rows = [",".join("%.17g" % v for v in row) + "," + c
            for row, c in zip(values.tolist(), classes)]
    rows[9] = rows[9].replace(",", " , ", 1)  # a cell padded with spaces
    p = write(tmp_path, "\n".join(rows) + "\n")
    monkeypatch.setattr(datasets, "_CHUNK_LINES", chunk_lines)
    ds = load_dataset(p)
    assert ds.features.tobytes() == values.tobytes() and ds.labels == tuple(classes)
    assert not ds.features.flags.writeable
    for target in ("a", "b", "c"):
        kept = load_dataset(p, target_class=target)
        flags = np.array(classes) == target
        assert kept.features.tobytes() == values[flags].tobytes()
        assert kept.labels == (target,) * flags.sum() and kept.class_names == ("a", "b", "c")
        assert kept.features.flags.writeable and kept.features.flags.owndata
    for schema in (DatasetSchema(label_column=None, drop_columns=(3,)),
                   DatasetSchema(label_column=0, drop_columns=(3,))):
        assert not load_dataset(p, schema).features.flags.writeable


@pytest.mark.parametrize("blank", [3, 4], ids=["ends-chunk", "starts-chunk"])
def test_blank_line_on_a_chunk_boundary_rejected(tmp_path, monkeypatch, blank):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 3)
    p = write(tmp_path, rows_text(8, bad=(blank, "")))
    with pytest.raises(DataFormatError, match=rf"row {blank} has 1 fields, expected 3$"):
        load_dataset(p)


def test_trailing_blank_lines_across_chunks_accepted(tmp_path, monkeypatch):
    expected = load_dataset(write(tmp_path, rows_text(5), "plain.csv"))
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 2)
    ds = load_dataset(write(tmp_path, rows_text(5) + "\n" * 7))
    np.testing.assert_array_equal(ds.features, expected.features)
    assert ds.labels == expected.labels and ds.class_names == ("b", "a")


def test_header_alone_in_the_first_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 1)
    ds = load_dataset(write(tmp_path, "x,y,cls\n" + rows_text(3)),
                      DatasetSchema(header=True, label_column="cls"))
    np.testing.assert_array_equal(ds.features, [[1, -1], [2, -2], [3, -3]])
    assert ds.labels == ("b", "a", "b")
    with pytest.raises(DataFormatError, match="header has 2 fields, first data row has 3"):
        load_dataset(write(tmp_path, "x,cls\n" + rows_text(3)), DatasetSchema(header=True))
    with pytest.raises(DataFormatError, match="no data rows"):
        load_dataset(write(tmp_path, "x,y,cls\n\n\n"), DatasetSchema(header=True))


@pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_across_chunks(tmp_path, monkeypatch, line_end):
    expected = load_dataset(write(tmp_path, rows_text(7), "plain.csv"))
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 2)
    p = tmp_path / "data.csv"
    p.write_bytes(rows_text(7, line_end=line_end).encode("utf-8"))
    ds = load_dataset(p)
    np.testing.assert_array_equal(ds.features, expected.features)
    assert ds.labels == expected.labels
    p.write_bytes(rows_text(7, bad=(6, "6,x,a"), line_end=line_end).encode("utf-8"))
    with pytest.raises(DataFormatError, match="row 6 column 1"):
        load_dataset(p)


# ------------------------------------------------------ two-process parse

def both_ways(monkeypatch, forks, path, schema=None):
    """The outcome with a forked helper, once it is checked equal to the
    outcome in one process, and that either leaves no child behind."""
    forks.clear()
    parse_on_cpus(monkeypatch, 2)
    helped = load_outcome(path, schema)
    assert forks, "no helper was forked"
    assert_no_child()
    parse_on_cpus(monkeypatch, 1)
    assert load_outcome(path, schema) == helped
    assert_no_child()
    return helped


@needs_fork
def test_helper_converts_the_odd_chunks(tmp_path, monkeypatch, forks):
    """Chunks 1, 3, 5, ... of read_lines come from the helper, bit for bit
    what this process converts, up to the first chunk that it defers; a
    file of one chunk forks none."""
    received = []
    matrix = datasets._Helper.matrix

    def spy(self, n, ncols):
        received.append(matrix(self, n, ncols))
        return received[-1]

    monkeypatch.setattr(datasets._Helper, "matrix", spy)
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    values = np.random.default_rng(3).standard_normal((38, 3)) * 10.0 ** np.arange(-4, 5, 4)
    text = "".join(",".join("%.17g" % v for v in row) + ",a\n" for row in values.tolist())
    p = write(tmp_path, text)
    shape, bits, _, _ = both_ways(monkeypatch, forks, p)
    assert shape == values.shape and bits == values.tobytes()
    # chunks 1, 3, 5, 7, 9 of 10 from the helper, none in one process
    assert [None if m is None else len(m) for m in received] == [4, 4, 4, 4, 2] + [None] * 5
    # a header alone in chunk 0: the data rows of chunks 1, 3, ..., 37 from the helper
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 1)
    received.clear()
    header = write(tmp_path, "x,y,z,cls\n" + text, "header.csv")
    assert both_ways(monkeypatch, forks, header, DatasetSchema(header=True))[1] == bits
    assert np.concatenate(received[:19]).tobytes() == values[::2].tobytes()
    assert [m is None for m in received] == [False] * 19 + [True] * 19
    # a chunk that _loadtxt defers but that parses stops the helper, and this
    # process converts chunks 1 and 3. np.loadtxt (numpy 2.4.6) reads
    # non-ASCII padding, so _loadtxt is made to defer the padded cell.
    loadtxt = datasets._loadtxt
    monkeypatch.setattr(datasets, "_loadtxt", lambda lines, *args: None if any(
        "\xa0" in line for line in lines) else loadtxt(lines, *args))
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    received.clear()
    padded = write(tmp_path, TWO_PROCESS_FILES["padded-cell"][0], "padded.csv")
    assert both_ways(monkeypatch, forks, padded)[0] == (16, 2)
    assert [m is None for m in received] == [True] * 4
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 40)
    forks.clear()
    parse_on_cpus(monkeypatch, 2)
    assert load_outcome(p)[1] == values.tobytes() and not forks


# each file spans at least three chunks of 4 lines, and a fault sits in
# chunk 1 or 3, which the helper converts: (text, schema, error's end or None)
TWO_PROCESS_FILES = {
    "bad-cell": (rows_text(16, bad=(6, "6,x,a")), {}, "row 6 column 1: not a number: 'x'"),
    "bad-cell-in-the-last-chunk": (rows_text(15, bad=(14, "14,-14e,a")), {},
                                   "row 14 column 1: not a number: '-14e'"),
    "ragged-row": (rows_text(16, bad=(7, "7,a")), {}, "row 7 has 2 fields, expected 3"),
    "padded-cell": (rows_text(16, bad=(5, "5,\u00a0-5,b")), {}, None),
    "blank-label-after-the-last-chunk": (rows_text(16, bad=(2, "2,-2, ")), {},
                                         "row 2 column 2: blank label"),
    "blank-label-then-a-bad-cell": (rows_text(16, bad=(2, "2,-2, ")).replace("14,-14", "14,x"),
                                    {}, "row 14 column 1: not a number: 'x'"),
    "header": ("x,y,cls\n" + rows_text(16), {"header": True, "label_column": "cls"}, None),
    "header-and-a-bad-cell": ("x,y,cls\n" + rows_text(16, bad=(6, "6,x,a")), {"header": True},
                              "row 7 column 1: not a number: 'x'"),
    "trailing-blank-lines": (rows_text(14) + "\n" * 9, {}, None),
    "blank-line-in-an-odd-chunk": (rows_text(14, bad=(6, "")), {},
                                   "row 6 has 1 fields, expected 3"),
    "crlf": (rows_text(17, line_end="\r\n"), {}, None),
    "cr": (rows_text(17, line_end="\r"), {}, None),
    "cr-and-a-bad-cell": (rows_text(17, bad=(13, "13,1..3,b"), line_end="\r"), {},
                          "row 13 column 1: not a number: '1..3'"),
    "label-first": ("".join(f"{'ab'[i % 2]},{i},{-i}\n" for i in range(13)),
                    {"label_column": 0}, None),
}


@needs_fork
@pytest.mark.parametrize("case", sorted(TWO_PROCESS_FILES))
def test_helper_changes_no_outcome(tmp_path, monkeypatch, forks, case):
    """Bits, labels and class names, or the error's type and text, are
    those of the parse in one process."""
    text, schema, error = TWO_PROCESS_FILES[case]
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    got = both_ways(monkeypatch, forks, write(tmp_path, text), DatasetSchema(**schema))
    if error is None:
        assert got[0][0] >= 13
    else:
        assert got[0] is DataFormatError and got[1].endswith(error)


# 3,000 rows of 10 bytes, chunks of 512 lines (about 5 KB) against the text
# layer's 8 KB read blocks
UTF8_CHUNKS = "".join(f"{i % 10}.5,{i % 7}.5,{'ab'[i % 2]}\n" for i in range(3000))


@needs_fork
@pytest.mark.parametrize("at, cell", [(9_000, 500), (18_000, 6_000), (22_000, 12_000),
                                      (29_000, 18_760)],
                         ids=["chunk-1", "chunk-3", "chunk-3-reads-ahead", "chunk-4"])
def test_helper_changes_no_non_utf8_outcome(tmp_path, monkeypatch, forks, at, cell):
    """A bad byte is named at its offset when the chunk whose lines reach
    its read block is read, and a bad cell in a chunk read before that,
    converted by either process, is reported first."""
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 512)
    data = bytearray(UTF8_CHUNKS.encode("utf-8"))
    data[at] = 0xFF
    p = tmp_path / "data.csv"
    p.write_bytes(bytes(data))
    got = both_ways(monkeypatch, forks, p)
    assert got == (DataFormatError, f"{p}: not UTF-8 text (invalid start byte at byte {at}); "
                                    "re-encode the file as UTF-8")
    data[cell:cell + 10] = b"1.5,x.5,a\n"
    p.write_bytes(bytes(data))
    assert both_ways(monkeypatch, forks, p) == (
        DataFormatError, f"{p}: row {cell // 10 + 1} column 1: not a number: 'x.5'")


@needs_fork
def test_no_helper_is_left_behind(tmp_path, monkeypatch, forks):
    """The helper is reaped when the parse ends, fails in a chunk it
    converts, is closed early, or is interrupted from the consumer."""
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    parse_on_cpus(monkeypatch, 2)
    good, bad = write(tmp_path, rows_text(40)), write(tmp_path, rows_text(40, bad=(6, "6,x,a")),
                                                       "bad.csv")
    assert len(list(datasets.read_chunks(good))) == 10
    assert_no_child()
    with pytest.raises(DataFormatError, match="row 6 column 1"):
        load_dataset(bad)
    assert_no_child()
    chunks = datasets.read_chunks(good)
    next(chunks), next(chunks)
    chunks.close()
    assert_no_child()
    with pytest.raises(KeyboardInterrupt):
        with closing(datasets.read_chunks(good)) as chunks:
            for k, _ in enumerate(chunks):
                if k == 3:
                    raise KeyboardInterrupt
    assert_no_child()
    assert len(forks) == 4


@needs_fork
def test_parse_outlives_a_killed_helper(tmp_path, monkeypatch, forks):
    """A helper killed mid-file leaves this process to convert the rest
    alone, to the same bits."""
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    values = np.random.default_rng(4).standard_normal((60, 2))
    p = write(tmp_path, "".join("%.17g,%.17g,a\n" % tuple(row) for row in values.tolist()))
    parse_on_cpus(monkeypatch, 2)
    parts = []
    with closing(datasets.read_chunks(p)) as chunks:
        for k, (m, _) in enumerate(chunks):
            parts.append(m)
            if k == 3:
                os.kill(forks[0], signal.SIGKILL)
    assert np.concatenate(parts).tobytes() == values.tobytes()
    assert_no_child()


def test_one_cpu_forks_no_helper(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(datasets, "_CHUNK_LINES", 4)
    parse_on_cpus(monkeypatch, 1)
    assert load_dataset(write(tmp_path, rows_text(40))).n_samples == 40
    assert not forks


# 20,000 rows of 10 bytes: past two default chunks of lines and many of
# the text layer's read blocks
UTF8_ROWS = "".join(f"{i % 10}.5,{i % 7}.5,{'ab'[i % 2]}\n" for i in range(20_000))


def test_non_utf8_byte_named_from_the_start_of_the_file(tmp_path):
    p = tmp_path / "data.csv"
    p.write_bytes(UTF8_ROWS.encode("utf-8") + b"\xff" + b"1,2,a\n")
    with pytest.raises(DataFormatError) as exc:
        load_dataset(p)
    assert str(exc.value) == (f"{p}: not UTF-8 text (invalid start byte at byte 200000); "
                              "re-encode the file as UTF-8")


def test_bad_row_named_before_a_later_non_utf8_byte(tmp_path):
    # rows are read a chunk at a time, so the first chunk's bad row is found
    # before the text layer decodes the bad byte
    p = tmp_path / "data.csv"
    p.write_bytes(b"1,x,a\n" + UTF8_ROWS.encode("utf-8") + b"\xff\n")
    with pytest.raises(DataFormatError, match=r"row 1 column 1: not a number: 'x'$"):
        load_dataset(p)


def test_directory_is_a_format_error(tmp_path):
    with pytest.raises(DataFormatError, match=r"cannot read .*: Is a directory$"):
        load_dataset(tmp_path)


def test_parse_peak_memory_stays_near_the_matrix(tmp_path):
    """Python-side allocations while parsing a 50,000 x 20 labeled file stay
    below 3x the feature matrix (the whole text, split into line strings,
    took 5.4x); a chunk of text is held beside the matrix, not the file."""
    import tracemalloc

    values = np.random.default_rng(0).standard_normal((1000, 20))
    block = "".join(",".join("%.17g" % v for v in row) + (",a\n" if i % 2 else ",b\n")
                    for i, row in enumerate(values.tolist()))
    p = write(tmp_path, block * 50)
    tracemalloc.start()
    try:
        ds = load_dataset(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (50_000, 20) and ds.class_names == ("b", "a")
    assert peak < 3 * ds.features.nbytes, peak / ds.features.nbytes


def test_failed_parse_peak_memory_stays_near_the_matrix(tmp_path):
    """A trailing non-UTF-8 byte fails the same 50,000 x 20 parse below 3x
    the matrix it would have given: the byte is named from the decoder's
    position, not by reading the whole file again (which took 9.1x)."""
    import tracemalloc

    values = np.random.default_rng(0).standard_normal((1000, 20))
    block = "".join(",".join("%.17g" % v for v in row) + (",a\n" if i % 2 else ",b\n")
                    for i, row in enumerate(values.tolist()))
    p = tmp_path / "data.csv"
    p.write_bytes((block * 50).encode("utf-8") + b"\xff")
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match=rf"at byte {len(block) * 50}\);"):
            load_dataset(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 50_000 * 20 * 8, peak / (50_000 * 20 * 8)


# ----------------------------------------------------------------- registry

def test_registry_lists_six_benchmarks():
    reg = registry()
    assert set(reg) == {
        "iris", "seeds", "ionosphere", "sonar", "bankruptcy", "happiness",
    }
    iris = reg["iris"]
    assert (iris.classes, iris.samples, iris.dims) == (3, 150, 4)
    assert reg["sonar"].dims == 60
    assert reg["ionosphere"].dims == 32
    assert reg["ionosphere"].schema.drop_columns == (0, 1)
    assert reg["happiness"].schema.label_column == 0


def test_registry_iris_loads_and_verifies():
    ds = load_registry_dataset("iris", data_dir=str(DATA_DIR))
    assert ds.n_samples == 150
    assert ds.n_dims == 4
    assert len(ds.class_names) == 3
    assert ds.task_prefix == "Iris"
    assert ds.class_names[0] == "setosa"


def test_registry_unknown_name():
    with pytest.raises(DataFormatError, match="unknown dataset"):
        load_registry_dataset("mnist", data_dir=str(DATA_DIR))


def test_registry_mismatch_fails_loudly(tmp_path):
    # an iris file with a row missing must be rejected by the registry check
    truncated = (DATA_DIR / "iris.csv").read_text().splitlines()[:-1]
    write(tmp_path, "\n".join(truncated) + "\n", name="iris.csv")
    with pytest.raises(DataFormatError, match="does not match the registry"):
        load_registry_dataset("iris", data_dir=str(tmp_path))


def test_dataset_available():
    filename = registry()["iris"].filename
    assert os.path.isfile(os.path.join(DATA_DIR, filename))
    assert not os.path.isfile(os.path.join("/nonexistent", filename))
    assert "nope" not in registry()


def test_registry_table_invariants():
    reg = registry()
    assert all(key == entry.name for key, entry in reg.items())
    prefixes = [entry.task_prefix for entry in reg.values()]
    assert len(set(prefixes)) == len(prefixes)
    for entry in reg.values():
        assert entry.classes >= 2
        assert entry.samples > entry.classes
        assert entry.dims >= 1


def test_data_readme_table_matches_registry():
    # rows of the file table: | file | source file | classes | samples | feature dims |
    lines = (DATA_DIR / "README.md").read_text(encoding="utf-8").splitlines()
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines if line.startswith("| ") and ".csv" in line.split("|")[1]]
    documented = [(f, int(c), int(n), int(d.split()[0])) for f, _, c, n, d in rows]
    assert documented == [(e.filename, e.classes, e.samples, e.dims)
                          for e in registry().values()]


def test_task_prefix_defaults_to_name(tmp_path):
    p = write(tmp_path, "1,2,a\n3,4,b\n", name="mydata.csv")
    ds = load_dataset(p)
    assert ds.name == "mydata"
    assert ds.task_prefix == "mydata"


def test_iris_task_construction():
    from refold.evaluation import make_occ_tasks

    ds = load_registry_dataset("iris", data_dir=str(DATA_DIR))
    tasks = make_occ_tasks(ds)
    assert [t.name for t in tasks] == ["Iris1", "Iris2", "Iris3"]
    assert [t.target_class for t in tasks] == ["setosa", "versicolor", "virginica"]
    # 70% of each 50-sample class trains on 35 targets
    from refold.evaluation import make_split_plan

    plan = make_split_plan(ds.labels, "setosa", seed=1)
    train, _ = plan.splits[0]
    assert sum(1 for i in train if ds.labels[i] == "setosa") == 35
