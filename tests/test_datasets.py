"""Tests for dataset parsing, schema handling, and the benchmark registry."""

import os
from pathlib import Path

import numpy as np
import pytest

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
