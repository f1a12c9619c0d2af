"""Property tests for the text formats: bench specs, models and data files."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from refold.bench import BenchSpec, parse_bench_spec, serialize_bench_spec
from refold.core import DISTANCES, FOLD_OPS, RefModel, StandardizerStep, score, train_ref
from refold import datasets
from refold.datasets import DatasetSchema, load_dataset
from refold.errors import ConfigError, DataFormatError, ModelFormatError
from refold.model_io import FORMAT_VERSION, parse_model, serialize_model

import oracle

# derandomized so every run tries the same examples, with no example
# database to replay from
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=200)

positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
dataset_names = st.text(
    st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-"),
    min_size=1, max_size=12,
)


@st.composite
def bench_specs(draw):
    return BenchSpec(
        datasets=tuple(draw(st.lists(dataset_names, min_size=1, max_size=4))),
        fold=draw(st.sampled_from(FOLD_OPS)),
        dist=draw(st.sampled_from(DISTANCES)),
        iterations=draw(st.integers(1, 10**6)),
        threshold_mode=draw(st.sampled_from(("fixed", "grid"))),
        threshold=draw(positive_floats),
        grid=tuple(sorted(draw(st.sets(positive_floats, min_size=1, max_size=6)))),
        cv_folds=draw(st.integers(2, 50)),
        train_fraction=draw(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        ),
        repetitions=draw(st.integers(1, 10**4)),
        seed=draw(st.integers(0, 2**64 - 1)),
        include_base=draw(st.booleans()),
    )


@PROPERTY_SETTINGS
@given(bench_specs())
def test_spec_serialize_parse_roundtrip(spec):
    assert parse_bench_spec(serialize_bench_spec(spec)) == spec


# text that mostly reaches the value converters: known keys with arbitrary
# values, mixed with arbitrary lines
spec_keys = st.sampled_from((
    "datasets", "fold", "dist", "iterations", "threshold_mode", "threshold",
    "grid", "cv_folds", "train_fraction", "repetitions", "seed", "include_base",
))
spec_lines = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}", spec_keys, st.text(max_size=20)),
    st.text(max_size=30),
)


@PROPERTY_SETTINGS
@given(st.one_of(st.text(), st.lists(spec_lines, max_size=8).map("\n".join)))
def test_spec_parser_raises_only_config_error(text):
    try:
        parse_bench_spec(text)
    except ConfigError:
        pass


# ------------------------------------------------------------------ models

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
sigma_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def ref_models(draw):
    dim = draw(st.integers(1, 5))
    steps = tuple(
        StandardizerStep(
            mu=np.array(draw(st.lists(finite_floats, min_size=dim, max_size=dim))),
            sigma=np.array(draw(st.lists(sigma_floats, min_size=dim, max_size=dim))),
        )
        for _ in range(draw(st.integers(1, 4)))
    )
    return RefModel(steps=steps, fold=draw(st.sampled_from(FOLD_OPS)))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


@PROPERTY_SETTINGS
@given(ref_models())
def test_model_serialize_parse_roundtrip(model):
    text = serialize_model(model)
    parsed = parse_model(text)
    assert parsed.fold == model.fold
    assert len(parsed.steps) == len(model.steps)
    for got, want in zip(parsed.steps, model.steps):
        assert bits(got.mu) == bits(want.mu)  # -0.0 and subnormals included
        assert bits(got.sigma) == bits(want.sigma)
    assert serialize_model(parsed) == text


# mostly well-formed model text: a real header with arbitrary step lines
model_tokens = st.one_of(
    st.sampled_from(("0", "1", "-0", "1e-320", "1_0", "nan", "inf", "0x10", "", "abc")),
    finite_floats.map(repr),
)
model_texts = st.builds(
    lambda fold, j, d, steps: "\n".join(
        [FORMAT_VERSION, f"fold={fold}", f"iterations={j}", f"dim={d}"]
        + [" ".join(line) for line in steps]
    ),
    st.sampled_from(FOLD_OPS + ("bogus",)),
    st.integers(-1, 3),
    st.integers(-1, 3),
    st.lists(st.lists(model_tokens, max_size=6), max_size=4),
)


@PROPERTY_SETTINGS
@given(st.one_of(st.text(), model_texts))
def test_model_parser_raises_only_model_format_error(text):
    try:
        parse_model(text)
    except ModelFormatError:
        pass


# ------------------------------------------------------------- data files

def load_text(text, schema):
    """load_dataset on a file holding exactly `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return load_dataset(path, schema)


data_cells = st.one_of(
    st.sampled_from(("1", "-2.5", "1e3", " 4 ", "nan", "inf", "", "a", "1_0",
                     "0x10", "2,5", "\r")),
    finite_floats.map(repr),
)
data_texts = st.lists(
    st.lists(data_cells, min_size=1, max_size=4).map(",".join), max_size=5,
).map("\n".join)


@PROPERTY_SETTINGS
@given(
    st.one_of(st.text(), data_texts),
    st.sampled_from((-1, 0, None)),
    st.booleans(),
)
def test_data_reader_raises_only_format_or_config_error(text, label, header):
    try:
        ds = load_text(text, DatasetSchema(label_column=label, header=header))
    except (DataFormatError, ConfigError):
        return
    assert np.isfinite(ds.features).all()
    assert len(ds.labels) == (0 if label is None else ds.n_samples)


# cells the number-token rule accepts (decimals, 17-digit values, exponents,
# signed zeros, padding, non-ASCII padding included) and cells it rejects
# (nan/inf, digit separators, empty cells, non-ASCII digits, other text)
accepted_cells = st.one_of(
    st.sampled_from((
        "1", "-2.5", ".5", "5.", "1e3", "-1.5E-7", "-0", "-0.0", "+0", " 4 ",
        "\t7", "\xa04\xa0", "\u20035", "\x0c6\x1c", "\u20288\u2029",
    )),
    finite_floats.map(lambda v: "%.17g" % v),
)
rejected_cells = st.sampled_from((
    "1e400", "nan", "-inf", "Infinity", "1_0", "0x10", "", " ", "\u0661\u0662",
    "\uff13", "1\u20282", "a", '"1"', "#1", "1\x00",
))


@st.composite
def fast_path_files(draw):
    """(text, schema): full rows of accepted cells, plus up to two faults
    that the reader must reject: a rejected cell, a row one cell longer or
    shorter (np.loadtxt reads it when usecols skip that cell) or a blank
    line (np.loadtxt skips it)."""
    delimiter = draw(st.sampled_from((",", ";", "\t", " ")))
    width = draw(st.integers(1, 4))
    row = st.lists(accepted_cells, min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    for fault in draw(st.lists(
        st.sampled_from(("cell", "longer", "shorter", "blank")), max_size=2,
    )):
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "cell":
            at = draw(st.integers(0, width - 1))
            rows[i] = rows[i][:at] + [draw(rejected_cells)] + rows[i][at + 1:]
        elif fault == "longer":
            rows[i] = rows[i] + [draw(accepted_cells)]
        elif fault == "shorter":
            rows[i] = rows[i][:-1]
        else:
            rows.insert(i, [])
    header = draw(st.booleans())
    lines = [delimiter.join(r) for r in rows]
    if header:
        lines.insert(0, delimiter.join(f"c{i}" for i in range(width)))
    label = draw(st.sampled_from((-1, 0, None)))
    drop = tuple(draw(st.sets(st.integers(0, width - 1), max_size=2)))
    schema = DatasetSchema(delimiter=delimiter, label_column=label,
                           drop_columns=drop, header=header)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n"))), schema


def load_outcome(path, schema):
    """What load_dataset gives: the features' bits and labels, or the error."""
    try:
        ds = load_dataset(path, schema)
    except (DataFormatError, ConfigError) as exc:
        return type(exc), str(exc)
    return ds.features.shape, bits(ds.features), ds.labels, ds.class_names


@PROPERTY_SETTINGS
@given(fast_path_files())
def test_fast_parse_agrees_with_row_parse(case):
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast = load_outcome(path, schema)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datasets, "_loadtxt", lambda *args: None)
            strict = load_outcome(path, schema)
    assert fast == strict


# ------------------------------------------------------------------ oracle

# values on a 1/8 grid in [-1000, 1000]: a column's std is then 0 (and
# sanitized to 1) or at least 1/32, so no case overflows before folding
grid_values = st.integers(-8000, 8000).map(lambda k: k / 8)


@st.composite
def oracle_cases(draw):
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    rows = st.lists(grid_values, min_size=d, max_size=d)
    X = np.array(draw(st.lists(rows, min_size=n, max_size=n)))
    y = np.array(draw(rows))
    return X, y, draw(st.integers(1, 12)), draw(st.sampled_from(FOLD_OPS))


@PROPERTY_SETTINGS
@given(oracle_cases())
def test_matches_oracle_over_generated_shapes(case):
    X, y, iterations, fold = case
    model = train_ref(X, iterations=iterations, fold=fold)
    mus, sigmas, _ = oracle.train(X.tolist(), iterations, fold)
    scores = [score(y, model, dist) for dist in DISTANCES]
    want = [oracle.score(y.tolist(), mus, sigmas, fold, dist) for dist in DISTANCES]
    if fold == "tanh":
        # numpy's tanh and math.tanh may differ in the last bit
        for step, mu, sigma in zip(model.steps, mus, sigmas):
            np.testing.assert_allclose(step.mu, mu, rtol=0, atol=1e-13)
            np.testing.assert_allclose(step.sigma, sigma, rtol=1e-13, atol=0)
        np.testing.assert_allclose(scores, want, rtol=1e-12, atol=1e-12)
    else:
        assert [s.mu.tolist() for s in model.steps] == mus
        assert [s.sigma.tolist() for s in model.steps] == sigmas
        assert scores == want
