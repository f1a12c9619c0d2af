"""Property tests for the text formats (bench specs, models and data files),
for the stacked fit kernel, for confusion counting, Gmean and threshold
selection, for the split streams, plans and CV folds against tests/oracle.py,
and a check that a failing property test reports its example."""

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from refold.bench import BenchSpec, parse_bench_spec, serialize_bench_spec
from refold.core import DISTANCES, FOLD_OPS, RefModel, fit_stack, score, train_ref
from refold import datasets, evaluation
from refold.datasets import DatasetSchema, load_dataset
from refold.core import ClassifierConfig
from refold.errors import (ConfigError, DataFormatError, EvaluationError, ModelFormatError,
                           NumericError, SelectionError)
from refold.evaluation import (
    best_threshold,
    confusion_counts,
    gmeans,
    make_split_plan,
    select_thresholds,
)
from refold.model_io import FORMAT_VERSION, parse_model, serialize_model
from refold.rng import SplitMix64

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
    steps = draw(st.integers(1, 4))

    def matrix(values):
        row = st.lists(values, min_size=dim, max_size=dim)
        return np.array(draw(st.lists(row, min_size=steps, max_size=steps)))

    return RefModel(matrix(finite_floats), matrix(sigma_floats),
                    draw(st.sampled_from(FOLD_OPS)))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


@PROPERTY_SETTINGS
@given(ref_models())
def test_model_serialize_parse_roundtrip(model):
    text = serialize_model(model)
    parsed = parse_model(text)
    assert parsed.fold == model.fold
    assert bits(parsed.mu) == bits(model.mu)  # -0.0 and subnormals included
    assert bits(parsed.sigma) == bits(model.sigma)
    assert serialize_model(parsed) == text


# mostly well-formed model text: a real header whose integers may be spelled
# in a form int() reads but serialize_model never writes, then either step
# lines that fit the header or arbitrary ones
model_tokens = st.one_of(
    st.sampled_from(("0", "1", "-0", "1e-320", "1_0", "nan", "inf", "0x10", "", "abc")),
    finite_floats.map(repr),
)


def header_int(n):
    return st.sampled_from(
        (str(n), f"+{n}", f"-{n}", f"0{n}", f" {n}", f"{n} ", f"0_{n}", chr(0x660 + n))
    )


@st.composite
def model_texts(draw):
    j, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    fitting = [
        " ".join(map(repr, draw(st.lists(finite_floats, min_size=d, max_size=d))
                     + draw(st.lists(sigma_floats, min_size=d, max_size=d))))
        for _ in range(j)
    ]
    arbitrary = st.lists(st.lists(model_tokens, max_size=6).map(" ".join), max_size=4)
    return "\n".join(
        [FORMAT_VERSION,
         f"fold={draw(st.sampled_from(FOLD_OPS + ('bogus',)))}",
         f"iterations={draw(header_int(j))}",
         f"dim={draw(header_int(d))}"]
        + draw(st.one_of(st.just(fitting), arbitrary))
    )


@PROPERTY_SETTINGS
@given(st.one_of(st.text(), model_texts()))
def test_model_parser_raises_only_model_format_error(text):
    try:
        model = parse_model(text)
    except ModelFormatError:
        return
    # an accepted header is canonical: it re-serializes to the same bytes
    assert serialize_model(model).split("\n")[:4] == text.split("\n")[:4]


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
        np.testing.assert_allclose(model.mu, mus, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.sigma, sigmas, rtol=1e-13, atol=0)
        np.testing.assert_allclose(scores, want, rtol=1e-12, atol=1e-12)
    else:
        assert model.mu.tolist() == mus
        assert model.sigma.tolist() == sigmas
        assert scores == want


# ------------------------------------------------------------ stacked kernel

@st.composite
def kernel_cases(draw):
    """One read-only matrix, so that any write raises, with constant
    columns, and at times a 1e200 entry, which overflows under sqr, or a
    column of +-1.7e308 entries, whose total or deviations overflow. R fits
    take 2..n of its rows and R score sets 1..6 rows, in any order and with
    repeats, so both sides are ragged."""
    r, n, d = draw(st.integers(1, 4)), draw(st.integers(2, 40)), draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3)))
    for j, constant in enumerate(draw(st.lists(st.booleans(), min_size=d, max_size=d))):
        if constant:
            X[:, j] = X[0, j]
    if draw(st.booleans()):
        X[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = 1e200
    if draw(st.integers(0, 3)) == 0:
        column = draw(st.lists(st.sampled_from((1.7e308, -1.7e308)), min_size=n, max_size=n))
        X[:, draw(st.integers(0, d - 1))] = column
    X.setflags(write=False)

    def index_arrays(low, high):
        index = st.lists(st.integers(0, n - 1), min_size=low, max_size=high)
        return [np.array(a) for a in draw(st.lists(index, min_size=r, max_size=r))]

    fit, rows = index_arrays(2, n), index_arrays(1, 6)
    fold = draw(st.sampled_from(FOLD_OPS))
    iterations = draw(st.integers(1, 6))
    depths = draw(st.sets(st.integers(1, iterations), min_size=1))
    return X, fit, rows, iterations, fold, depths, draw(st.sampled_from(DISTANCES))


@PROPERTY_SETTINGS
@given(kernel_cases())
def test_fit_stack_matches_per_slice_fits(case):
    """Bit for bit: the stack's step vectors are the train_ref model of each
    fit's rows, and its distances are score() of each score set with that
    model truncated to each requested depth. When a fit goes non-finite, the
    stack raises the NumericError of the earliest failing iteration over the
    fits; the benchmark runner then replays the fits one by one to raise the
    first fit's error."""
    X, fit, rows, iterations, fold, depths, dist = case
    models, failed_at = [], []
    # warnings off: far-out rows may overflow or turn NaN in both paths alike
    with np.errstate(all="ignore"):
        for index in fit:
            try:
                models.append(train_ref(X[index], iterations, fold))
            except NumericError as exc:
                failed_at.append(int(str(exc).rsplit(" ", 1)[1]))
        mu = np.empty((iterations, len(fit), X.shape[1]))
        sigma = np.empty_like(mu)
        if failed_at:
            with pytest.raises(NumericError) as exc:
                fit_stack(X, fit, iterations, fold, rows, depths, dist, (mu, sigma))
            assert str(exc.value) == (
                f"non-finite working values at iteration {min(failed_at)}"
            )
            return
        scores = fit_stack(X, fit, iterations, fold, rows, depths, dist, (mu, sigma))
        assert set(scores) == depths
        for k, model in enumerate(models):
            assert mu[:, k].tobytes() == model.mu.tobytes()
            assert sigma[:, k].tobytes() == model.sigma.tobytes()
            for depth in depths:
                assert scores[depth].shape == (len(fit), max(map(len, rows)))
                want = score(X[rows[k]], model.truncated(depth), dist)
                assert scores[depth][k, :len(rows[k])].tobytes() == want.tobytes()


# ------------------------------------------------------- confusion counting

@st.composite
def confusion_cases(draw):
    """A (K, M) accepted mask and target flags shared by every row (M,) or
    given per row (K, M)."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(0, 12))
    flags_shape = draw(st.sampled_from(((m,), (k, m))))
    return draw(arrays(bool, (k, m))), draw(arrays(bool, flags_shape))


def plain_counts(row, flags):
    pairs = list(zip(row, flags))
    return [
        sum(a and t for a, t in pairs),
        sum(not a and t for a, t in pairs),
        sum(not a and not t for a, t in pairs),
        sum(a and not t for a, t in pairs),
    ]


@PROPERTY_SETTINGS
@given(confusion_cases())
def test_confusion_counts_match_a_plain_count(case):
    accepted, is_target = case
    want = [plain_counts(row, flags) for row, flags in
            zip(accepted.tolist(), np.broadcast_to(is_target, accepted.shape).tolist())]
    got = confusion_counts(accepted, is_target)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, np.array(want, dtype=np.intp).reshape(len(accepted), 4))


@st.composite
def fold_threshold_masks(draw):
    """A (F, G, M) accepted mask, as grid selection builds for F folds and G
    thresholds, with flags per fold (F, 1, M) or shared (M,)."""
    f, g, m = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 10))
    flags_shape = draw(st.sampled_from(((f, 1, m), (m,))))
    return draw(arrays(bool, (f, g, m))), draw(arrays(bool, flags_shape))


@PROPERTY_SETTINGS
@given(fold_threshold_masks())
def test_confusion_counts_over_fold_threshold_masks(case):
    accepted, is_target = case
    flags = np.broadcast_to(is_target, accepted.shape)
    got = confusion_counts(accepted, is_target)
    assert got.shape == accepted.shape[:2] + (4,)
    for f, g in np.ndindex(*accepted.shape[:2]):
        assert got[f, g].tolist() == plain_counts(accepted[f, g].tolist(), flags[f, g].tolist())


# below 2**53 every count and every class total converts to float64 exactly
class_totals = st.integers(0, 2**53 - 1)


@st.composite
def count_rows(draw):
    """(tp, fn, tn, fp) with both class totals below 2**53; a total is
    sometimes 0."""
    pos, neg = draw(class_totals), draw(class_totals)
    tp, tn = draw(st.integers(0, pos)), draw(st.integers(0, neg))
    return [tp, pos - tp, tn, neg - tn]


@PROPERTY_SETTINGS
@given(st.lists(count_rows(), min_size=1, max_size=5))
def test_gmeans_equal_scalar_arithmetic_bit_for_bit(rows):
    counts = np.array(rows, dtype=np.int64)
    if any(tp + fn == 0 for tp, fn, _, _ in rows):
        with pytest.raises(EvaluationError, match="no target samples"):
            gmeans(counts)
        return
    if any(tn + fp == 0 for _, _, tn, fp in rows):
        with pytest.raises(EvaluationError, match="no outlier samples"):
            gmeans(counts)
        return
    want_tpr = [tp / (tp + fn) for tp, fn, _, _ in rows]
    want_tnr = [tn / (tn + fp) for _, _, tn, fp in rows]
    want_g = [math.sqrt(a * b) for a, b in zip(want_tpr, want_tnr)]
    tpr, tnr, g = gmeans(counts)
    assert bits(tpr) == bits(want_tpr)
    assert bits(tnr) == bits(want_tnr)
    assert bits(g) == bits(want_g)
    assert bits(gmeans(counts[0])) == bits(oracle.gmean(*rows[0]))


@st.composite
def selection_cases(draw):
    """Pools of rows of one feature matrix with their CV seeds, a grid of 1
    to 3 thresholds, k up to 10, and whether to replace the grid by scores
    of the first fold, so that thresholds tie with scores."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(12, 40)), draw(st.integers(1, 3))
    is_target = rng.random(n) < draw(st.floats(0.4, 0.9))
    features = rng.normal(size=(n, d)) * np.where(is_target, 1.0, 3.0)[:, np.newaxis]
    size = draw(st.integers(6, n))
    pools = [rng.permutation(n)[:draw(st.sampled_from((size, draw(st.integers(6, n)))))]
             for _ in range(draw(st.integers(1, 3)))]
    grid = tuple(sorted(draw(st.sets(st.sampled_from((0.3, 0.5, 0.8, 1.0, 1.1, 1.5, 2.5)),
                                     min_size=1, max_size=3))))
    config = ClassifierConfig(draw(st.sampled_from(FOLD_OPS)), draw(st.integers(1, 4)),
                              draw(st.sampled_from(DISTANCES)))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(pools),
                          max_size=len(pools)))
    return (features, pools, is_target, config, grid, draw(st.integers(2, 10)), seeds,
            draw(st.booleans()))


def loop_fold_scores(features, pools, is_target, config, k, seeds):
    """Per pool, (validation scores, validation flags) of every CV fold, from
    one train_ref per fold; every pool's folds are planned first, one pool
    at a time."""
    folds = [evaluation._cv_plan([pool], is_target, k, [seed]) for pool, seed in zip(pools, seeds)]
    return [[(score(features[val], train_ref(features[fit], config.iterations, config.fold),
                    config.dist), is_target[val]) for _, fit, val in pool_folds]
            for pool_folds in folds]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ConfigError, SelectionError) as exc:
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(selection_cases())
def test_select_thresholds_picks_what_a_gmean_loop_picks(case):
    """The picks, and the Gmean tables they are picked from, equal those of a
    loop calling the oracle's count and Gmean once per (fold, threshold) pair."""
    features, pools, is_target, config, grid, k, seeds, tie = case
    fold_scores = outcome(loop_fold_scores, features, pools, is_target, config, k, seeds)
    if isinstance(fold_scores, tuple):
        args = (features, pools, is_target, config, grid, k, seeds)
        assert outcome(select_thresholds, *args) == fold_scores
        return
    if tie and fold_scores[0]:
        grid = tuple(sorted({float(s) for s in fold_scores[0][0][0] if s > 0}))[:3] or grid
    tables = [[[oracle.gmean(*oracle.confusion(s.tolist(), flags.tolist(), t))[2]
                for t in grid] for s, flags in pool] for pool in fold_scores]
    want = outcome(lambda: [best_threshold(table, grid) for table in tables])
    with mock.patch.object(evaluation, "best_threshold", wraps=best_threshold) as spy:
        got = outcome(select_thresholds, features, pools, is_target, config, grid, k, seeds)
    assert got == want
    seen = [bits(c.args[0]) for c in spy.call_args_list]
    assert seen == [bits(table) for table in tables[:len(seen)]]


# ------------------------------------------------------ split plans and folds

seeds64 = st.integers(0, 2**64 - 1)


@PROPERTY_SETTINGS
@given(st.lists(seeds64, min_size=1, max_size=6), st.integers(1, 40), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
def test_stream_shuffles_match_the_reference(seeds, n, m, values):
    """Each row of an (R, n) shuffle, then of an (R, m) shuffle on the same
    streams, is one reference stream shuffling that row."""
    rows = np.random.default_rng(values).integers(-50, 50, size=(len(seeds), n))
    refs = [oracle.Stream(seed) for seed in seeds]
    g = SplitMix64(seeds)
    for items in (rows, np.tile(np.arange(m), (len(seeds), 1))):
        want = [ref.shuffle(row) for ref, row in zip(refs, items.tolist())]
        assert g.shuffle(items).tolist() == want


@PROPERTY_SETTINGS
@given(st.lists(st.booleans(), min_size=2, max_size=40).filter(lambda f: 0 < sum(f) < len(f)),
       st.floats(0.05, 0.95), st.integers(1, 6), seeds64)
def test_split_plans_match_the_reference(flags, fraction, repetitions, seed):
    labels = ["t" if f else "o" for f in flags]
    plan = make_split_plan(labels, "t", fraction, repetitions, seed)
    want = oracle.split_plan(labels, "t", fraction, repetitions, seed)
    assert plan.split_seeds == tuple(s for s, _, _ in want)
    assert plan.train.tolist() == [train for _, train, _ in want]
    assert plan.test.tolist() == [test for _, _, test in want]
    assert plan.splits == tuple((tuple(train), tuple(test)) for _, train, test in want)


@st.composite
def fold_cases(draw):
    """k, and pools whose lengths repeat and include k itself, with seeds."""
    k = draw(st.integers(2, 6))
    lengths = draw(st.lists(st.one_of(st.just(k), st.integers(1, 20)), min_size=1,
                            max_size=6))
    return k, lengths, draw(st.lists(seeds64, min_size=len(lengths), max_size=len(lengths)))


@PROPERTY_SETTINGS
@given(fold_cases())
def test_batched_folds_match_the_reference(case):
    """The folds of pools planned together, one shuffle per distinct length,
    are each pool's reference kfold; pools shorter than k get none."""
    k, lengths, seeds = case
    folds = evaluation._kfolds(lengths, k, seeds)
    assert sorted(folds) == [p for p, n in enumerate(lengths) if n >= k]
    for p, pool_folds in folds.items():
        want = oracle.kfold(range(lengths[p]), k, seeds[p])
        assert [(train.tolist(), val.tolist()) for train, val in pool_folds] == want
        assert evaluation.kfold(range(lengths[p]), k, seeds[p]) == [
            (tuple(train), tuple(val)) for train, val in want]


# ------------------------------------------------------------- suite harness

def test_failing_property_test_reports_its_example(tmp_path):
    """Under this suite's conftest, whose warning filter makes every warning
    an error, a failing property test prints its falsifying example and the
    session goes on to the next test."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 10\n\n"
        "def test_later():\n"
        "    pass\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "Falsifying example: test_fails(" in proc.stdout, proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
