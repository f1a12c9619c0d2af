"""Tests for dataset parsing, schema handling, and the registry manifest."""

from pathlib import Path

import numpy as np
import pytest

from refold import datasets
from refold.datasets import (
    Dataset,
    DatasetSchema,
    RegistryEntry,
    dataset_available,
    load_dataset,
    load_registry_dataset,
    parse_manifest,
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
    # an iris file with a row missing must be rejected by the manifest check
    truncated = (DATA_DIR / "iris.csv").read_text().splitlines()[:-1]
    write(tmp_path, "\n".join(truncated) + "\n", name="iris.csv")
    with pytest.raises(DataFormatError, match="does not match the manifest"):
        load_registry_dataset("iris", data_dir=str(tmp_path))


def test_dataset_available():
    assert dataset_available("iris", data_dir=str(DATA_DIR))
    assert not dataset_available("iris", data_dir="/nonexistent")
    assert not dataset_available("nope", data_dir=str(DATA_DIR))


def test_parse_manifest_roundtrip():
    entries = parse_manifest(
        "[toy]\nfile = toy.csv\nprefix = Toy\nclasses = 2\nsamples = 10\ndims = 3\n"
    )
    assert entries["toy"] == RegistryEntry(
        name="toy",
        filename="toy.csv",
        task_prefix="Toy",
        classes=2,
        samples=10,
        dims=3,
        schema=DatasetSchema(),
    )


def test_parse_manifest_bad_section():
    with pytest.raises(DataFormatError, match=r"\[broken\]"):
        parse_manifest("[broken]\nprefix = X\n")


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
