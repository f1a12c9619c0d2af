"""Unit and property tests for the core classifier."""

import math
import os
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracle
from conftest import assert_no_child, needs_fork, on_cpus
from refold import core
from refold.core import (
    DEFAULT_DISTANCE,
    DEFAULT_FOLD,
    DEFAULT_ITERATIONS,
    _column_totals,
    _fold_matrix,
    DISTANCES,
    FOLD_OPS,
    RefModel,
    distance_to_origin,
    fit_stack,
    score,
    train_ref,
    transform_ref,
)
from refold.helper import MAY_FORK, Helper, send
from refold.model_io import parse_model, serialize_model
from refold.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    NumericError,
    ShapeError,
)

SQRT_THIRD = math.sqrt(1.0 / 3.0)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


# ---------------------------------------------------------------- fold ops

def fold(op, x):
    return _fold_matrix(op, np.array(x, dtype=np.float64))


def test_fold_abs():
    np.testing.assert_array_equal(fold("abs", [-2.0, 0.5]), [2.0, 0.5])


def test_fold_cos_abs_branches():
    out = fold("cos_abs", [0.0, 2.0])
    assert out[0] == 1.0  # cos(0)
    assert out[1] == 2.0  # |2| > 1 so abs branch


def test_fold_sqr():
    np.testing.assert_array_equal(fold("sqr", [-3.0]), [9.0])


def test_fold_cos_abs_closed_interval_boundary():
    out = fold("cos_abs", [1.0, -1.0])
    assert out[0] == math.cos(1.0)
    assert out[1] == math.cos(-1.0)


def test_fold_cos_abs_in_place_matches_its_definition():
    """Bit for bit the where() of both branches, at the interval's ends, on
    signed zeros, and on the inf and nan that replay's overflow can give."""
    x = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), np.inf,
         -np.inf, np.nan, -np.nan, 1e300, -5e-324],
        np.random.default_rng(6).normal(size=1000) * 10.0 ** np.arange(-4, 6).repeat(100),
    ])
    with np.errstate(invalid="ignore"):
        want = np.where(np.abs(x) <= 1.0, np.cos(x), np.abs(x))
    got = x.copy()
    assert _fold_matrix("cos_abs", got) is got
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", FOLD_OPS)
def test_fold_total_on_finite_input(op):
    rng = np.random.default_rng(3)
    x = rng.normal(size=500) * 100
    out = fold(op, x)
    assert out.shape == x.shape
    assert np.isfinite(out).all()


def test_fold_rejects_non_finite():
    # folds never see non-finite samples: training and replay reject them
    model = train_ref([[0.0, 1.0], [1.0, 0.0]], iterations=2, fold="sin")
    with pytest.raises(InvalidInputError):
        transform_ref([1.0, float("nan")], model)
    with pytest.raises(InvalidInputError):
        train_ref([[1.0], [float("inf")]], fold="sin")


def test_fold_rejects_unknown_op():
    with pytest.raises(ConfigError):
        fold("log", [1.0])


# ------------------------------------------------------------ standardizer

def first_step(X):
    """(mu, sigma) of the first training step, a plain standardization."""
    model = train_ref(X, iterations=1)
    return model.mu[0], model.sigma[0]


def test_first_step_two_points():
    mu, sigma = first_step([[1.0], [3.0]])
    assert mu[0] == 2.0
    assert sigma[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_first_step_zero_variance_sanitized():
    mu, sigma = first_step([[5.0], [5.0], [5.0]])
    assert mu[0] == 5.0
    assert sigma[0] == 1.0


def test_first_step_symmetric():
    mu, sigma = first_step([[-1.0], [0.0], [1.0]])
    assert mu[0] == 0.0
    assert sigma[0] == 1.0


def test_fit_standardizer_rejects_single_row():
    # the first standardization step needs two rows for its N-1 divisor
    with pytest.raises(InsufficientDataError):
        train_ref([[1.0, 2.0]], iterations=1)


def test_standardize_formula():
    model = RefModel(np.array([[1.0]]), np.array([[2.0]]), "abs")
    assert transform_ref([3.0], model)[0] == 1.0


def test_standardize_centering_identity():
    model = train_ref([[2.0, 7.0], [4.0, 9.0]], iterations=1)
    np.testing.assert_array_equal(transform_ref(model.mu[0], model), [0.0, 0.0])


def test_standardize_per_dimension():
    model = RefModel(np.array([[0.0, 2.0]]), np.array([[1.0, 2.0]]), "abs")
    np.testing.assert_array_equal(transform_ref([0.0, 4.0], model), [0.0, 1.0])


def test_apply_standardizer_shape_mismatch():
    model = RefModel(np.array([[0.0]]), np.array([[1.0]]), "abs")
    with pytest.raises(ShapeError):
        transform_ref([1.0, 2.0], model)


def test_standardizer_step_validation():
    # RefModel validates all steps at once and names the first bad one
    cases = [
        ([[0.0]], [[0.0]], InvalidInputError, "step 1: sigma"),
        ([[0.0], [1.0]], [[1.0], [-1.0]], InvalidInputError, "step 2: sigma"),
        ([[0.0, 1.0], [np.nan, 0.0]], [[1.0, 1.0], [0.0, 1.0]], InvalidInputError,
         "step 2: mu"),
        ([[0.0], [1.0], [2.0]], [[1.0], [1.0], [np.inf]], InvalidInputError,
         "step 3: sigma"),
        ([[0.0, 1.0]], [[1.0]], ShapeError, "equal shape"),
        ([0.0], [1.0], ShapeError, "equal shape"),
        (np.empty((1, 0)), np.empty((1, 0)), ShapeError, "one dimension"),
        (np.empty((0, 2)), np.empty((0, 2)), ConfigError, "one step"),
    ]
    for mu, sigma, error, message in cases:
        with pytest.raises(error, match=message):
            RefModel(np.array(mu), np.array(sigma), "abs")
    with pytest.raises(ConfigError):
        RefModel(np.zeros((1, 1)), np.ones((1, 1)), "log")


# ---------------------------------------------------------------- training

def test_train_single_iteration():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    assert model.iterations == 1
    assert model.mu[0, 0] == 0.0
    assert model.sigma[0, 0] == 1.0


def test_train_two_iterations_hand_derived():
    # standardize {-1,0,1} -> {-1,0,1}; abs -> {1,0,1}: mean 2/3, std sqrt(1/3)
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=2, fold="abs")
    assert model.mu[0, 0] == 0.0
    assert model.sigma[0, 0] == 1.0
    assert model.mu[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert model.sigma[1, 0] == pytest.approx(SQRT_THIRD, abs=1e-15)


def test_train_does_not_mutate_input():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    before = X.copy()
    train_ref(X, iterations=7)
    np.testing.assert_array_equal(X, before)


@pytest.mark.parametrize("fold", ["abs", "cos_abs"])
def test_fit_stack_on_row_indices_equals_train_on_the_rows(fold, stack_steps):
    X = np.random.default_rng(5).normal(size=(40, 3))
    X.setflags(write=False)
    rows = np.flatnonzero(np.arange(40) % 3 != 1)
    _, mu, sigma = stack_steps(X, [rows], 9, fold, [[]], (), "l1")
    want = train_ref(X[rows], iterations=9, fold=fold)
    assert mu[:, 0].tobytes() == want.mu.tobytes()
    assert sigma[:, 0].tobytes() == want.sigma.tobytes()
    # an empty score set beside a list of rows
    scores = fit_stack(X, [rows, rows], 9, fold, [[], [1, 2]], (9,), "l1")[9]
    assert scores[1].tobytes() == score(X[[1, 2]], want).tobytes()
    with pytest.raises(InsufficientDataError, match="got 1"):
        fit_stack(X, [np.array([4])], 9, fold, [[4]], (9,), "l1")
    with pytest.raises(InsufficientDataError, match="got 0"):
        fit_stack(X, [rows, []], 9, fold, [rows, rows], (9,), "l1")
    for bad in ([-1, 0, 1], [0.0, 1.0, 2.0], np.arange(40) < 20, [0, 1, 40]):
        with pytest.raises(ConfigError, match=r"^fit must hold integer row indices in 0\.\.39$"):
            fit_stack(X, [rows, bad], 9, fold, [rows, rows], (9,), "l1")
        with pytest.raises(ConfigError, match=r"^rows must hold integer row indices in 0\.\.39$"):
            fit_stack(X, [rows], 9, fold, [bad], (9,), "l1")
    with pytest.raises(ConfigError, match=r"in 0\.\.4$"):
        fit_stack(X[:5], [[0, 7]], 9, fold, [[0]], (9,), "l1")


def model_bytes(model):
    return model.mu.tobytes() + model.sigma.tobytes()


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("op", FOLD_OPS)
def test_overwrite_fits_x_itself_to_the_same_model(op, d):
    """overwrite=True fits a writable C-ordered float64 X in place, to the
    bytes of a fit on a copy; cos_abs, whose fold returns a new array,
    included."""
    X = np.random.default_rng(11).normal(size=(300, d)) * 3.0
    before = X.copy()
    want = train_ref(X, iterations=12, fold=op)
    assert X.tobytes() == before.tobytes()
    got = train_ref(X, iterations=12, fold=op, overwrite=True)
    assert model_bytes(got) == model_bytes(want)
    # the matrix itself was the working copy
    assert not np.array_equal(X, before)


@pytest.mark.parametrize("kind", ["read-only", "F-ordered", "strided", "integer", "list"])
def test_overwrite_copies_what_it_may_not_write(kind):
    """Read-only, F-ordered, strided and integer inputs are copied and left
    as they were, and fit to the model of a C-ordered float64 copy."""
    base = np.random.default_rng(3).integers(-50, 50, size=(40, 3))
    X = {"read-only": base.astype(np.float64),
         "F-ordered": np.asfortranarray(base, dtype=np.float64),
         "strided": np.repeat(base.astype(np.float64), 2, axis=0)[::2],
         "integer": base.copy(),
         "list": base.tolist()}[kind]
    if kind == "read-only":
        X.setflags(write=False)
    before = np.array(X).tobytes()
    want = train_ref(np.array(base, dtype=np.float64), iterations=7)
    got = train_ref(X, iterations=7, overwrite=True)
    assert model_bytes(got) == model_bytes(want)
    assert np.array(X).tobytes() == before


def test_train_rejects_bad_inputs():
    with pytest.raises(InsufficientDataError):
        train_ref([[1.0, 2.0]])
    with pytest.raises(ConfigError):
        train_ref([[1.0], [2.0]], iterations=0)
    with pytest.raises(InvalidInputError):
        train_ref([[1.0], [float("nan")]])
    with pytest.raises(ConfigError):
        train_ref([[1.0], [2.0]], fold="nope")
    # check_settings' order: the fold is checked before the iterations
    with pytest.raises(ConfigError, match="unknown fold"):
        train_ref([[1.0], [2.0]], iterations=0, fold="nope")


def test_model_stores_only_step_vectors():
    model = train_ref(np.zeros((50, 3)) + np.arange(50)[:, None], iterations=9)
    assert model.iterations == 9
    assert model.mu.shape == model.sigma.shape == (9, 3)
    assert model.mu.dtype == model.sigma.dtype == np.float64


def test_truncated_model():
    rng = np.random.default_rng(11)
    model = train_ref(rng.normal(size=(20, 2)), iterations=6)
    part = model.truncated(3)
    assert part.iterations == 3
    assert bits(part.mu) == bits(model.mu[:3])
    assert bits(part.sigma) == bits(model.sigma[:3])
    with pytest.raises(ConfigError):
        model.truncated(0)
    with pytest.raises(ConfigError):
        model.truncated(7)
    for bad in (2.5, True):
        with pytest.raises(ConfigError, match="truncation depth must be an integer"):
            model.truncated(bad)
    assert model.truncated(np.int64(3)).iterations == 3


@pytest.mark.parametrize("op", FOLD_OPS)
def test_truncation_equals_shallower_training(op):
    # the benchmark scores its baseline with truncated(1) instead of
    # retraining, which relies on this bit-for-bit equality
    X = np.random.default_rng(12).normal(size=(30, 3))
    full = train_ref(X, iterations=7, fold=op)
    for depth in (1, 4):
        short = train_ref(X, iterations=depth, fold=op)
        part = full.truncated(depth)
        assert bits(part.mu) == bits(short.mu)
        assert bits(part.sigma) == bits(short.sigma)


# --------------------------------------------------------------- transform

def test_transform_identity_for_trivial_model():
    model = RefModel(np.array([[0.0]]), np.array([[1.0]]), "abs")
    assert transform_ref([3.0], model)[0] == 3.0


def test_transform_two_step_hand_derived():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=2, fold="abs")
    out = transform_ref([0.0], model)
    # std -> 0, abs -> 0, then (0 - 2/3) / sqrt(1/3)
    assert out[0] == pytest.approx(-(2.0 / 3.0) / SQRT_THIRD, abs=1e-15)
    assert out[0] == pytest.approx(-1.1547, abs=1e-4)


def test_transform_j1_is_one_standardization():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 4))
    model = train_ref(X, iterations=1)
    y = rng.normal(size=4)
    np.testing.assert_array_equal(
        transform_ref(y, model), (y - model.mu[0]) / model.sigma[0]
    )


def test_transform_shape_mismatch():
    model = train_ref([[1.0, 2.0], [3.0, 4.0]], iterations=2)
    with pytest.raises(ShapeError):
        transform_ref([1.0, 2.0, 3.0], model)


def test_transform_batch_matches_per_row():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 5))
    Y = rng.normal(size=(7, 5))
    model = train_ref(X, iterations=12, fold="cos_abs")
    batch = transform_ref(Y, model)
    rows = np.vstack([transform_ref(Y[i], model) for i in range(len(Y))])
    np.testing.assert_array_equal(batch, rows)


@pytest.mark.parametrize("op", FOLD_OPS)
def test_transform_in_place_matches_out_of_place_form(op):
    # the replay updates one working copy in place; the reference is the
    # out-of-place (fold(z) - mu) / sigma of every step
    rng = np.random.default_rng(17)
    model = train_ref(rng.normal(size=(40, 3)), iterations=9, fold=op)
    Y = rng.normal(size=(25, 3)) * 3.0
    for layout in (Y.copy(order="C"), Y.copy(order="F")):
        layout.setflags(write=False)
        with np.errstate(over="ignore"):
            z = layout
            for i in range(model.iterations):
                if i > 0:
                    z = _fold_matrix(op, z)
                z = (z - model.mu[i]) / model.sigma[i]
            got = transform_ref(layout, model)
        assert got.tobytes() == z.tobytes()
        assert layout.tobytes() == Y.tobytes()


@pytest.mark.parametrize("op", FOLD_OPS)
def test_replay_matches_the_oracle_in_every_layout(op):
    """transform_ref and score agree bit for bit with the oracle's replay of
    the model's own steps, for C-ordered, Fortran-ordered, strided and
    single-row input (tanh within 1e-13: numpy's tanh is not libm's, but it
    still matches across layouts bit for bit). Under sqr one sample
    overflows to inf. The caller's array is never written."""
    rng = np.random.default_rng(23)
    model = train_ref(rng.normal(size=(60, 3)), iterations=7, fold=op)
    Y = rng.normal(size=(41, 6)) * 3.0
    if op == "sqr":
        Y[4, 2] = 1e200  # column 1 of the input: inf from the second step on
    steps = model.mu.tolist(), model.sigma.tolist()
    want = np.array([oracle.transform(y, *steps, op) for y in Y[:, ::2].tolist()])
    want_scores = {dist: np.array([oracle.distance(z, dist) for z in want.tolist()])
                   for dist in DISTANCES}
    if op == "sqr":
        assert want[4, 1] == np.inf and want_scores["l1"][4] == np.inf
    first = None
    for layout in (Y[:, ::2].copy(), np.asfortranarray(Y[:, ::2]), Y[:, ::2]):
        before = layout.copy()
        # the whole matrix, a one-row matrix and each sample as a vector
        got = transform_ref(layout, model)
        assert bits(transform_ref(layout[:1], model)) == bits(got[:1])
        assert bits([transform_ref(y, model) for y in layout]) == bits(got)
        if op == "tanh":
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        else:
            assert bits(got) == bits(want)
        first = bits(got) if first is None else first
        assert bits(got) == first
        for dist in DISTANCES:
            s = score(layout, model, dist)
            singles = [score(y, model, dist) for y in layout]
            assert bits(s) == bits(singles)
            if op != "tanh":
                assert bits(s) == bits(want_scores[dist])
        assert layout.tobytes() == before.tobytes()


# ----------------------------------------------------------------- scoring

def test_distance_examples():
    assert distance_to_origin([1.0, -1.0], "l1") == 1.0
    assert distance_to_origin([0.0, 0.0, 0.0], "l1") == 0.0
    assert distance_to_origin([0.0, 0.0, 0.0], "l2") == 0.0
    assert distance_to_origin([3.0, 4.0], "l2") == 2.5


# a sample is a target iff its score <= the threshold T; refold predict and
# refold eval apply that rule to these scores

def test_classify_inclusive_threshold():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    # score of y=[1] under the J=1 model is exactly 1.0: a target at T=1
    assert score([1.0], model) == 1.0


def test_classify_strict_exceedance():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    assert score([1.0000001], model) > 1.0


def test_classify_origin_always_target():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    # 0 <= every T > 0
    assert score([0.0], model) == 0.0


# ------------------------------------------------------------ base variant

def test_base_score_is_distance_of_standardized_sample():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=3)
    model = train_ref(X, iterations=1)
    z = (y - model.mu[0]) / model.sigma[0]
    assert score(y, model, "l1") == distance_to_origin(z, "l1")


@pytest.mark.parametrize("op", FOLD_OPS)
def test_j1_scores_identical_for_every_fold(op):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(size=(10, 4))
    base = train_ref(X, iterations=1)
    model = train_ref(X, iterations=1, fold=op)
    np.testing.assert_array_equal(score(Y, model, "l1"), score(Y, base, "l1"))
    np.testing.assert_array_equal(score(Y, model, "l2"), score(Y, base, "l2"))


# ------------------------------------------------------- oracle agreement

@pytest.mark.parametrize("op", FOLD_OPS)
def test_matches_oracle_per_op(op):
    rng = np.random.default_rng(hash(op) % (2**32))
    for _ in range(5):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 8))
        j = int(rng.integers(1, 15))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 10))
        y = rng.normal(size=d) * float(rng.uniform(0.5, 10))
        model = train_ref(X, iterations=j, fold=op)
        mus, sigmas, _ = oracle.train(X.tolist(), j, op)
        for k in range(j):
            np.testing.assert_allclose(model.mu[k], mus[k], rtol=0, atol=1e-13)
            np.testing.assert_allclose(model.sigma[k], sigmas[k], rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            transform_ref(y, model), oracle.transform(y.tolist(), mus, sigmas, op),
            rtol=0, atol=1e-12,
        )
        for dist in DISTANCES:
            assert score(y, model, dist) == pytest.approx(
                oracle.score(y.tolist(), mus, sigmas, op, dist), abs=1e-12
            )


@pytest.mark.parametrize("d", [1, 3])
def test_train_matches_oracle_bit_for_bit_at_large_n(d):
    # 2,000 rows: a pairwise or blocked column sum would differ in low bits
    rng = np.random.default_rng(41 + d)
    X = rng.normal(size=(2000, d)) * 1e3 + 7.0
    model = train_ref(X, iterations=4)
    mus, sigmas, _ = oracle.train(X.tolist(), 4, "abs")
    assert model.mu.tolist() == mus
    assert model.sigma.tolist() == sigmas


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("op", FOLD_OPS)
def test_blocked_square_totals_match_the_oracle(monkeypatch, stack_steps, op, d):
    """With a scratch block of 4 rows, the squared deviations are totalled
    block by block. Fits of 3, 4, 5 and 13 rows (one below, at and one above
    the block, and several blocks), with signed zeros, and a ragged stack
    whose short fit is padded, keep every bit of the unblocked kernel and
    match the oracle: exactly, and within 1e-13 for tanh."""
    import refold.core as core

    rng = np.random.default_rng(2 + d)
    X = rng.normal(size=(13, d)) * 3.0
    X[::2, 0] = -0.0
    X[1::4, 0] = 0.0
    X[5, -1] = -0.0
    fits = [np.arange(n) for n in (3, 4, 5, 13)] + [np.array([7, 0, 12, 3, 3, 9])]
    atol = 1e-13 if op == "tanh" else 0.0

    def fitted(index):
        return stack_steps(X, index, 6, op, index, (), "l1")[1:]

    unblocked = [fitted([f]) for f in fits], fitted(fits[3:])
    monkeypatch.setattr(core, "_SCRATCH_ROWS", 4)
    blocked = [fitted([f]) for f in fits], fitted(fits[3:])
    assert bits(blocked[0]) == bits(unblocked[0]) and bits(blocked[1]) == bits(unblocked[1])
    for f, (mu, sigma) in zip(fits, blocked[0]):
        mus, sigmas, _ = oracle.train(X[f].tolist(), 6, op)
        np.testing.assert_allclose(mu[:, 0], mus, rtol=0, atol=atol)
        np.testing.assert_allclose(sigma[:, 0], sigmas, rtol=0, atol=atol)
    # the ragged stack pads its 6-row fit to 13 rows, four blocks
    for r, f in enumerate(fits[3:]):
        for steps, single in zip(blocked[1], blocked[0][3 + r]):
            np.testing.assert_array_equal(steps[:, r], single[:, 0])


def test_fit_stack_lets_the_fit_rows_go_before_scoring():
    """One 20,000 x 20 fit with 20,000 score rows at J = 101 peaks below
    1.75x the gathered fit rows: those rows and a scratch block while
    fitting, then the score rows alone while replaying. Holding the fit and
    score rows at once took 2.61x."""
    import tracemalloc

    X = np.random.default_rng(8).normal(size=(40_000, 20))
    fit_bytes = 20_000 * 20 * 8
    tracemalloc.start()
    try:
        fit_stack(X, [np.arange(20_000)], 101, "abs", [np.arange(20_000, 40_000)], (101,), "l1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * fit_bytes, peak / fit_bytes


@pytest.mark.parametrize("op", FOLD_OPS)
def test_every_fold_works_in_place(op):
    """train_ref on 40,000 x 20 peaks below 1.6x X: its working copy, a
    scratch block of 8,192 rows, and for cos_abs the boolean mask of where
    cos runs. transform_ref peaks below 1.4x its input. cos_abs used to
    build four new full-size arrays a step, and peaked at 5.3x and 4.1x."""
    import tracemalloc

    X = np.random.default_rng(9).normal(size=(40_000, 20))
    peaks = []
    model = None
    for run in (lambda: train_ref(X, iterations=3, fold=op), lambda: transform_ref(X, model)):
        tracemalloc.start()
        try:
            result = run()
            peaks.append(tracemalloc.get_traced_memory()[1] / X.nbytes)
        finally:
            tracemalloc.stop()
        model = result
    assert peaks[0] < 1.6 and peaks[1] < 1.4, peaks


def test_fit_stack_depth_check_takes_memory_that_does_not_grow_with_j():
    """A depth past J fails its check at the same small traced peak at
    J = 10**4 and J = 10**6: the check compares bounds. A set of 1..J
    peaked at 0.84 MB at J = 10**4 and at 8.8 MB at J = 10**5."""
    import tracemalloc

    X = np.random.default_rng(4).normal(size=(5, 2))
    peaks = []
    # the first call's one-time costs (pytest.raises compiling its pattern)
    # are left out of the compared peaks
    for j in (10**4, 10**4, 10**6):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^scoring depth must be in") as exc:
                fit_stack(X, [np.arange(5)], j, "abs", [np.arange(5)], (j + 1,), "l1")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"scoring depth must be in 1..{j}, got {j + 1}"
    # the same up to the bytes of the longer message and numbers
    assert abs(peaks[2] - peaks[1]) < 1000 and max(peaks) < 100_000, peaks


# --------------------------------------------------------- summation order

@pytest.mark.parametrize("shape", [(5000, 2), (3000, 17), (1000, 1), (2, 9),
                                   (7, 300, 4), (5, 200, 1), (1, 2, 3)])
def test_column_totals_add_rows_in_index_order(shape):
    """Bit for bit, signed zeros included, in C and Fortran layout, for a
    matrix and per slice of a stack: a numpy that reorders add.reduce must
    fail here instead of changing models."""
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    if shape[-1] > 1:
        a[..., 0] = -0.0
    want = a[..., 0, :].copy()
    for k in range(1, shape[-2]):
        want = want + a[..., k, :]
    for layout in (a, np.asfortranarray(a)):
        got = _column_totals(layout)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def loop_totals(a):
    """Column totals of a matrix by a plain loop over its rows."""
    want = a[0].copy()
    for row in a[1:]:
        want = want + row
    return want


@pytest.mark.parametrize("shape", [(8193, 20), (5000, 2), (1000, 7), (256, 62)])
def test_column_totals_take_the_fast_path_in_index_order(shape):
    """No total is zero here, so the C-ordered block's einsum totals are
    returned as they are, and must match the plain loop bit for bit. Beside
    them, a column of -0.0 alone must total -0.0 and a column that cancels
    must total +0.0, as the strict sum gives them. Every shape, with or
    without those two columns, is one that einsum takes."""
    rng = np.random.default_rng(shape[0] + shape[1])
    a = (rng.uniform(1.0, 2.0, size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
         * rng.choice([-1.0, 1.0], size=shape))
    assert loop_totals(a).all()
    cancels = np.tile([1.5, -1.5], shape[0])[:shape[0]]
    if shape[0] % 2:
        cancels[-1] = -0.0
    zeros = np.concatenate([a, np.full((shape[0], 1), -0.0), cancels[:, np.newaxis]], axis=1)
    for m in (a, zeros):
        want = loop_totals(m)
        for layout in (m, np.asfortranarray(m)):
            got = _column_totals(layout)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(want[-2]) and want[-1] == 0.0 and not np.signbit(want[-1])


def pairwise_totals(a):
    """Column totals of a matrix of 2**k rows by a pairwise tree."""
    while len(a) > 1:
        a = a[0::2] + a[1::2]
    return a[0]


def test_summation_probe_rejects_other_orders():
    """This numpy's einsum and add.reduce pass the known-answer probe, as
    do a cumsum and the plain loop; a pairwise tree, an 8-way split and
    add.reduce along the contiguous axis (pairwise in blocks) fail it."""
    assert core._sums_in_order("einsum") and core._sums_in_order("add.reduce")
    for total in (loop_totals, lambda a: np.cumsum(a, axis=0)[-1]):
        assert core._adds_in_order(total)
    for total in (pairwise_totals,
                  lambda a: sum(np.add.reduce(a[k::8], axis=0, initial=-0.0) for k in range(8)),
                  lambda a: np.add.reduce(a.T.copy(), axis=1)):
        assert not core._adds_in_order(total)


def test_summation_probe_runs_on_first_use():
    """Each sum is probed once, when first used: add.reduce by any fit,
    einsum by the first fit of 256 rows or more."""
    code = ("import refold.cli, refold.core as core; n = core._sums_in_order.cache_info; "
            "a = n().currsize; core.train_ref([[1.0, 2.0], [3.0, 5.0]], iterations=2); "
            "b = n().currsize; core.train_ref([[1.0, 2.0], [3.0, 5.0]] * 128, iterations=2); "
            "print(a, b, n().currsize, n().misses)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.stdout == "0 1 2 2\n", proc.stderr


@pytest.mark.parametrize("passing", [{"add.reduce"}, set()],
                         ids=["einsum-fails", "both-fail"])
def test_each_summation_fallback_gives_the_same_bits(monkeypatch, passing):
    """Where the probe fails einsum, totals come from add.reduce, and where
    it fails that too, from a cumsum: models, scores and stacked fits keep
    their bits, on blocks that einsum would take."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(3000, 6)) * 10.0 ** rng.uniform(-3, 3, size=6)
    Y = rng.normal(size=(500, 6)) * 2.0
    rows = [np.arange(0, 3000, 2), np.arange(1, 1500)]

    def outputs():
        out = []
        for fold in ("abs", "cos"):
            model = train_ref(X, iterations=21, fold=fold)
            out += [model.mu.tobytes(), model.sigma.tobytes(), score(Y, model).tobytes()]
            scores = fit_stack(X, rows, 21, fold, rows, [1, 21], "l2")
            out += [scores[k].tobytes() for k in sorted(scores)]
        return out

    cumsums, cumsum = [], np.cumsum

    def counted(*args, **kwargs):
        cumsums.append(1)
        return cumsum(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("einsum summed a block the probe failed it on")

    monkeypatch.setattr(np, "cumsum", counted)
    want, strict = outputs(), len(cumsums)
    monkeypatch.setattr(core, "_sums_in_order", lambda name: name in passing)
    monkeypatch.setattr(np, "einsum", refused)
    cumsums.clear()
    assert outputs() == want
    assert (len(cumsums) > strict) == (not passing)


@pytest.mark.parametrize("shape", [(5000, 20), (1000, 1), (7, 3), (50, 2)])
@pytest.mark.parametrize("dist", DISTANCES)
def test_distance_adds_columns_in_index_order(shape, dist):
    """Bit for bit against a plain loop over the columns, with infinities,
    NaN and signed zeros, in C and Fortran layout."""
    rng = np.random.default_rng(shape[0] * shape[1])
    z = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    flat = z.reshape(-1)
    flat[::7], flat[::11], flat[::13], flat[::17] = np.inf, -0.0, -np.inf, np.nan
    term = np.abs if dist == "l1" else np.square
    want = term(z[:, 0])
    for j in range(1, shape[1]):
        want = want + term(z[:, j])
    if dist == "l2":
        want = np.sqrt(want)
    want = want / shape[1]
    for layout in (z, np.asfortranarray(z)):
        assert distance_to_origin(layout, dist).tobytes() == want.tobytes()


# ------------------------------------------------------------- invariants

def test_standardization_fixpoint_at_every_depth():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 6)) * 3 + 5
    model = train_ref(X, iterations=10)
    for depth in range(1, 11):
        z = transform_ref(X, model.truncated(depth))
        assert np.abs(z.mean(axis=0)).max() < 1e-9
        assert np.abs(z.std(axis=0, ddof=1) - 1.0).max() < 1e-9


def test_fixpoint_skips_sanitized_dimensions():
    X = np.column_stack([np.full(10, 3.0), np.arange(10, dtype=float)])
    model = train_ref(X, iterations=3)
    z = transform_ref(X, model)
    # constant column: centered to 0 and kept there by the std=1 rule
    np.testing.assert_array_equal(z[:, 0], np.zeros(10))
    assert abs(z[:, 1].std(ddof=1) - 1.0) < 1e-9


def test_train_test_consistency_bit_identical():
    rng = np.random.default_rng(31)
    for op in FOLD_OPS:
        X = rng.normal(size=(25, 4))
        model = train_ref(X, iterations=9, fold=op)
        _, _, work = oracle.train(X.tolist(), 9, op)
        z = transform_ref(X, model)
        np.testing.assert_allclose(z, np.array(work), rtol=0, atol=1e-12)


def test_affine_invariance_of_scores():
    # The first standardization cancels a positive per-dimension affine map;
    # the rtol term covers sqr, which blows far outliers up to huge scores
    # where only relative agreement is meaningful.
    rng = np.random.default_rng(41)
    X = rng.normal(size=(30, 5))
    Y = rng.normal(size=(12, 5))
    a = rng.uniform(0.1, 10, size=5)
    b = rng.normal(size=5) * 20
    for op in FOLD_OPS:
        model = train_ref(X, iterations=8, fold=op)
        model2 = train_ref(X * a + b, iterations=8, fold=op)
        s1 = score(Y, model, "l1")
        s2 = score(Y * a + b, model2, "l1")
        np.testing.assert_allclose(s1, s2, rtol=1e-9, atol=1e-9)


def test_permutation_equivariance_of_scores():
    rng = np.random.default_rng(51)
    X = rng.normal(size=(30, 6))
    Y = rng.normal(size=(9, 6))
    perm = rng.permutation(6)
    model = train_ref(X, iterations=7)
    model_p = train_ref(X[:, perm], iterations=7)
    np.testing.assert_allclose(
        score(Y, model, "l2"), score(Y[:, perm], model_p, "l2"), rtol=0, atol=1e-12
    )


def test_determinism_bit_identical():
    rng = np.random.default_rng(61)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=3)
    m1 = train_ref(X, iterations=25, fold="cos")
    m2 = train_ref(X.copy(), iterations=25, fold="cos")
    np.testing.assert_array_equal(m1.mu, m2.mu)
    np.testing.assert_array_equal(m1.sigma, m2.sigma)
    assert score(y, m1) == score(y, m2)


def test_dominance_preserved_over_one_fold_step():
    # If |y_d| >= max_n |x_nd| entering a fold-and-standardize step, the
    # folded maximum is |y_d| itself and standardizing preserves order, so
    # y lands at or beyond the data maximum afterwards.
    rng = np.random.default_rng(71)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 5))
        Z = rng.normal(size=(n, d)) * float(rng.uniform(0.2, 5))
        y = rng.choice([-1.0, 1.0], size=d) * np.abs(Z).max(axis=0) * rng.uniform(
            1.0, 3.0, size=d
        )
        Zf = np.abs(Z)
        yf = np.abs(y)
        step = train_ref(Zf, iterations=1)
        z_data = transform_ref(Zf, step)
        z_y = transform_ref(yf, step)
        assert (z_y >= z_data.max(axis=0)).all()


def test_model_arrays_are_immutable():
    model = train_ref([[1.0], [2.0], [3.0]], iterations=2)
    parsed = parse_model(serialize_model(model))
    mu, sigma = np.array([[0.0]]), np.array([[1.0]])
    built = RefModel(mu, sigma, "abs")
    for m in (model, parsed, model.truncated(1), built):
        with pytest.raises(ValueError):
            m.mu[0, 0] = 99.0
        with pytest.raises(ValueError):
            m.sigma[0, 0] = 99.0
    # the model copies arrays the caller passed in and leaves them writable
    mu[0, 0] = 5.0
    assert built.mu[0, 0] == 0.0
    # models compare by identity; comparing their arrays would raise
    assert model == model and model != parsed and len({model, parsed}) == 2


def test_scores_nonnegative():
    rng = np.random.default_rng(81)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(size=(50, 4))
    for op in FOLD_OPS:
        model = train_ref(X, iterations=5, fold=op)
        for dist in DISTANCES:
            assert (score(Y, model, dist) >= 0).all()


def _select(**settings):
    from refold.evaluation import select_thresholds

    X = np.random.default_rng(5).normal(size=(12, 2))
    flags = np.arange(12) < 8
    return select_thresholds(X, [np.arange(12)], flags, (1.0,), 3, [0], **settings)


def _stack(iterations=DEFAULT_ITERATIONS, fold=DEFAULT_FOLD, dist=DEFAULT_DISTANCE):
    X = np.random.default_rng(5).normal(size=(4, 2))
    return fit_stack(X, [np.arange(4)], iterations, fold, [np.arange(4)], (1,), dist)


SETTINGS_CALLS = {
    "train_ref": lambda **settings: train_ref([[1.0], [2.0]], **settings),
    "select_thresholds": _select,
    "fit_stack": _stack,
}


def test_settings_share_the_paper_defaults():
    import inspect

    from refold.evaluation import select_thresholds

    assert (DEFAULT_FOLD, DEFAULT_ITERATIONS, DEFAULT_DISTANCE) == ("abs", 101, "l1")
    defaults = {"fold": DEFAULT_FOLD, "iterations": DEFAULT_ITERATIONS, "dist": DEFAULT_DISTANCE}
    for fn in (train_ref, select_thresholds, score, distance_to_origin):
        params = inspect.signature(fn).parameters
        for name in defaults.keys() & params.keys():
            assert params[name].default == defaults[name], (fn.__name__, name)


@pytest.mark.parametrize("call", SETTINGS_CALLS)
def test_settings_validation(call):
    """Every entry that takes the classifier's settings holds them to one
    rule each, checked fold first, then distance, then iterations."""
    run = SETTINGS_CALLS[call]
    run(iterations=3)
    cases = [({"fold": "bad"}, "unknown fold operation 'bad'"),
             ({"iterations": 0}, "iterations must be >= 1, got 0"),
             ({"fold": "bad", "iterations": 0}, "unknown fold operation 'bad'")]
    if call != "train_ref":  # train_ref takes no distance
        cases += [({"dist": "linf"}, "unknown distance 'linf'"),
                  ({"dist": "linf", "iterations": 0}, "unknown distance 'linf'"),
                  ({"fold": "bad", "dist": "linf"}, "unknown fold operation 'bad'")]
    for settings, message in cases:
        with pytest.raises(ConfigError, match=f"^{message}"):
            run(**settings)


def test_training_coverage_of_univariate_normal():
    # J=101 pulls ~99.5% of standard-normal training data inside score 1
    rng = np.random.default_rng(91)
    X = rng.normal(size=(1000, 1))
    model = train_ref(X, iterations=101)
    frac = float(np.mean(score(X, model, "l1") <= 1.0))
    assert frac >= 0.99


def test_sigma_overflow_sanitized_to_one():
    # squared deviations overflow to inf for huge magnitudes; the non-finite
    # std falls back to 1 like the zero-variance case
    mu, sigma = first_step([[1e200], [-1e200]])
    assert mu[0] == 0.0
    assert sigma[0] == 1.0


@pytest.mark.parametrize("X, fold, warned, message", [
    # the first column's total overflows
    ([[1e308, 1], [1e308, 2], [0, 3]], "abs", ["overflow encountered in reduce"],
     "column total of dimension 1 overflows at iteration 1"),
    # the total is finite, a deviation from the mean overflows
    ([[1.7e308, 1], [-1.7e308, 2], [-1.7e308, 3], [0, 4]], "abs",
     ["overflow encountered in subtract"], "non-finite working values at iteration 1"),
    # the squared deviations overflow (std sanitized to 1), then the fold does
    ([[1e200, 1], [0, 2], [0, 3]], "sqr", [], "non-finite working values at iteration 2"),
    # the squared deviations overflow (std sanitized to 1), then the total
    # of the folded deviations does
    ([[1, 1.7e308], [2, 0], [3, 0]], "abs", ["overflow encountered in reduce"],
     "column total of dimension 2 overflows at iteration 2"),
], ids=["total", "deviation", "fold", "later-total"])
def test_overflow_warnings_and_first_error(X, fold, warned, message):
    """Which overflow warns, how often, and where the fit fails: the
    finite-value check through column totals must not change either."""
    assert failed_fit(np.array(X), fold) == (warned, message)


def failed_fit(X, fold):
    """The warnings that a failing train_ref(X, 5, fold) gives, and its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as exc:
            train_ref(X, 5, fold)
    return [str(w.message) for w in caught], str(exc.value)


# ------------------------------------------------------------- split fit

@pytest.mark.parametrize("d", [1, 2, 3, 20, 65])
@pytest.mark.parametrize("op", FOLD_OPS)
def test_split_fit_gives_the_bits_of_a_whole_fit(monkeypatch, forks, op, d):
    """On two CPUs, a fit of 8192 rows or more and two columns or more runs
    its column halves in two forked helpers, to the bytes of a fit on one
    CPU, and leaves X unwritten with overwrite=True; the columns either side
    of the split, and the last, match the oracle. A fit of 8191 rows, of one
    column or on one CPU forks nothing."""
    rng = np.random.default_rng(d)
    for n in (8191, 8192, 20000):
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, d) + rng.uniform(-3.0, 3.0, d)
        X[::7, 0] = -0.0
        models = []
        for cpus, overwrite in ((1, False), (2, False), (2, True), (1, True)):
            on_cpus(monkeypatch, cpus)
            forks.clear()
            Z = X.copy()
            models.append(train_ref(Z, 4, op, overwrite=overwrite))
            split = MAY_FORK and cpus == 2 and n >= 8192 and d >= 2
            assert len(forks) == 2 * split
            assert (Z.tobytes() == X.tobytes()) == (split or not overwrite)
            assert_no_child()
        assert len({model_bytes(m) for m in models}) == 1, n
        cols = sorted({0, max(d // 2 - 1, 0), d // 2 % d, d - 1})
        mus, sigmas, _ = oracle.train(X[:, cols].tolist(), 4, op)
        model = models[2]
        atol = 1e-13 if op == "tanh" else 0.0
        np.testing.assert_allclose(model.mu[:, cols], mus, rtol=0, atol=atol)
        np.testing.assert_allclose(model.sigma[:, cols], sigmas, rtol=0, atol=atol)


def grown(column, n=8192):
    """A column of n rows: the given head, then zeros."""
    return np.concatenate([column, np.zeros(n - len(column))])


# test_overflow_warnings_and_first_error's cases on 8192 rows, with the
# failing column a beside a good column b: (a, b, fold, warnings, error)
GROWN_FAILURES = {
    "total": ([1e308, 1e308], None, "abs", ["overflow encountered in reduce"],
              "column total of dimension {a} overflows at iteration 1"),
    # a mean of 8192 rows lies within 2.2e304 of zero: the deviation from it
    # overflows only next to the largest doubles
    "deviation": ([1.7976e308, -1.5e308, -1.5e308], None, "abs",
                  ["overflow encountered in subtract"],
                  "non-finite working values at iteration 1"),
    "fold": ([1e200], None, "sqr", [], "non-finite working values at iteration 2"),
    "later-total": ([1.7e308], None, "abs", ["overflow encountered in reduce"],
                    "column total of dimension {a} overflows at iteration 2"),
    # the halves fail at different iterations: a at 1, b at 2
    "halves-differ": ([1e308, 1e308], [1.7e308], "abs", ["overflow encountered in reduce"],
                      "column total of dimension {a} overflows at iteration 1"),
}


@needs_fork
@pytest.mark.parametrize("swap", [False, True], ids=["first-half", "second-half"])
@pytest.mark.parametrize("case", sorted(GROWN_FAILURES))
def test_split_fit_warns_and_fails_as_a_whole_fit(monkeypatch, forks, case, swap):
    """A half that warns or fails sends nothing, and X is fitted whole: the
    same warnings and first error on two CPUs as on one, with the failing
    column in either half."""
    head_a, head_b, fold, warned, message = GROWN_FAILURES[case]
    a = grown(head_a)
    b = np.arange(8192.0) if head_b is None else grown(head_b)
    X = np.column_stack([b, a] if swap else [a, b])
    want = (warned, message.format(a=1 + swap))
    for cpus in (2, 1):
        on_cpus(monkeypatch, cpus)
        forks.clear()
        assert failed_fit(X.copy(), fold) == want
        assert len(forks) == (2 if cpus == 2 else 0)
        assert_no_child()


@needs_fork
@pytest.mark.parametrize("fault", ["killed", "short-reply", "interrupt"])
def test_split_fit_outlives_a_lost_helper(monkeypatch, forks, fault):
    """A helper SIGKILLed mid-fit, or one that dies after sending its mu
    rows, leaves this process to fit X whole, to the same model; a
    KeyboardInterrupt while the helpers fit ends the fit. No helper is left
    behind."""
    X = np.random.default_rng(7).normal(size=(20000, 6))
    on_cpus(monkeypatch, 1)
    want = model_bytes(train_ref(X, 101))
    on_cpus(monkeypatch, 2)
    read = Helper.read
    if fault == "short-reply":
        def short(out, a):
            send(out, a)
            os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(core, "send", short)
    else:
        def reading(self, shape):
            if fault == "interrupt":
                raise KeyboardInterrupt
            os.kill(forks[0], signal.SIGKILL)
            return read(self, shape)
        monkeypatch.setattr(Helper, "read", reading)
    whole = []
    fit_block = core._fit_block
    monkeypatch.setattr(core, "_fit_block", lambda Z, *args: whole.append(Z.shape)
                        or fit_block(Z, *args))
    if fault == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            train_ref(X, 101)
    else:
        assert model_bytes(train_ref(X, 101)) == want
        assert whole == [X.shape]
    assert len(forks) == 2
    assert_no_child()


def test_fit_stack_checks_fold_before_any_work():
    X = np.random.default_rng(2).normal(size=(5, 2))
    before = X.copy()
    fits = [np.arange(5), np.array([4, 0, 0])]
    for iterations in (1, 3):
        with pytest.raises(ConfigError, match="unknown fold operation 'nope'"):
            fit_stack(X, fits, iterations, "nope", fits, (1,), "l1")
    # the fold is checked before the size
    with pytest.raises(ConfigError, match="unknown fold"):
        fit_stack(X, [np.array([1])], 3, "nope", [np.array([1])], (1,), "l1")
    with pytest.raises(InsufficientDataError, match="need at least 2 training samples, got 1"):
        fit_stack(X, [np.arange(5), np.array([1])], 3, "abs", fits, (1,), "l1")
    with pytest.raises(ShapeError, match="^training data needs at least one feature dimension$"):
        fit_stack(np.empty((30, 0)), [np.arange(30)], 3, "abs", [np.arange(30)], (3,), "l1")
    # X is only read, also by a fit that runs
    X.setflags(write=False)
    fit_stack(X, fits, 3, "sqr", fits, (1, 3), "l1")
    np.testing.assert_array_equal(X, before)


def test_fit_stack_takes_one_rows_array_per_fit():
    """Before any work: three score sets for one fit, one for two fits and
    no fit at all are ConfigErrors naming both counts."""
    X = np.random.default_rng(3).normal(size=(10, 2))
    cases = [([[0, 1]], [[0, 1], [2, 3], [4, 5]], "got 3 rows arrays for 1 fits"),
             ([[0, 1], [2, 3]], [[0, 1]], "got 1 rows arrays for 2 fits"),
             ([], [], "got 0 rows arrays for 0 fits")]
    for fit, rows, counts in cases:
        with pytest.raises(ConfigError, match=f"^need one rows array per fit and "
                                              f"at least one fit: {counts}$"):
            fit_stack(X, fit, 3, "abs", rows, (1,), "l1")


def test_concurrent_scoring_is_safe():
    # models are immutable; parallel scoring must match serial bit for bit
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(95)
    X = rng.normal(size=(40, 6))
    Y = rng.normal(size=(200, 6))
    model = train_ref(X, iterations=51)
    expected = score(Y, model, "l1")
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: score(Y, model, "l1"), range(16)))
    for got in results:
        np.testing.assert_array_equal(got, expected)
