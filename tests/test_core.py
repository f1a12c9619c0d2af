"""Unit and property tests for the core classifier."""

import math

import numpy as np
import pytest

import oracle
from refold.core import (
    ClassifierConfig,
    _column_totals,
    _fold_matrix,
    DISTANCES,
    FOLD_OPS,
    Prediction,
    RefModel,
    StandardizerStep,
    apply_standardizer,
    classify,
    distance_to_origin,
    fit_standardizer,
    fold_apply,
    score,
    train_base,
    train_ref,
    transform_ref,
)
from refold.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidInputError,
    ShapeError,
)

SQRT_THIRD = math.sqrt(1.0 / 3.0)


# ---------------------------------------------------------------- fold ops

def test_fold_abs():
    np.testing.assert_array_equal(fold_apply("abs", [-2.0, 0.5]), [2.0, 0.5])


def test_fold_cos_abs_branches():
    out = fold_apply("cos_abs", [0.0, 2.0])
    assert out[0] == 1.0  # cos(0)
    assert out[1] == 2.0  # |2| > 1 so abs branch


def test_fold_sqr():
    np.testing.assert_array_equal(fold_apply("sqr", [-3.0]), [9.0])


def test_fold_cos_abs_closed_interval_boundary():
    out = fold_apply("cos_abs", [1.0, -1.0])
    assert out[0] == math.cos(1.0)
    assert out[1] == math.cos(-1.0)


@pytest.mark.parametrize("op", FOLD_OPS)
def test_fold_total_on_finite_input(op):
    rng = np.random.default_rng(3)
    x = rng.normal(size=500) * 100
    out = fold_apply(op, x)
    assert out.shape == x.shape
    assert np.isfinite(out).all()


def test_fold_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        fold_apply("abs", [1.0, float("nan")])
    with pytest.raises(InvalidInputError):
        fold_apply("sin", [float("inf")])


def test_fold_rejects_unknown_op():
    with pytest.raises(ConfigError):
        fold_apply("log", [1.0])


# ------------------------------------------------------------ standardizer

def test_fit_standardizer_two_points():
    step = fit_standardizer([[1.0], [3.0]])
    assert step.mu[0] == 2.0
    assert step.sigma[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_fit_standardizer_zero_variance_sanitized():
    step = fit_standardizer([[5.0], [5.0], [5.0]])
    assert step.mu[0] == 5.0
    assert step.sigma[0] == 1.0


def test_fit_standardizer_symmetric():
    step = fit_standardizer([[-1.0], [0.0], [1.0]])
    assert step.mu[0] == 0.0
    assert step.sigma[0] == 1.0


def test_fit_standardizer_rejects_single_row():
    with pytest.raises(InsufficientDataError):
        fit_standardizer([[1.0, 2.0]])


def test_apply_standardizer_formula():
    step = StandardizerStep(mu=np.array([1.0]), sigma=np.array([2.0]))
    assert apply_standardizer([3.0], step)[0] == 1.0


def test_apply_standardizer_centering_identity():
    step = fit_standardizer([[2.0, 7.0], [4.0, 9.0]])
    out = apply_standardizer(step.mu, step)
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_apply_standardizer_per_dimension():
    step = StandardizerStep(mu=np.array([0.0, 2.0]), sigma=np.array([1.0, 2.0]))
    np.testing.assert_array_equal(apply_standardizer([0.0, 4.0], step), [0.0, 1.0])


def test_apply_standardizer_shape_mismatch():
    step = StandardizerStep(mu=np.array([0.0]), sigma=np.array([1.0]))
    with pytest.raises(ShapeError):
        apply_standardizer([1.0, 2.0], step)


def test_standardizer_step_validation():
    with pytest.raises(InvalidInputError):
        StandardizerStep(mu=np.array([0.0]), sigma=np.array([0.0]))
    with pytest.raises(ShapeError):
        StandardizerStep(mu=np.array([0.0, 1.0]), sigma=np.array([1.0]))


# ---------------------------------------------------------------- training

def test_train_single_iteration():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    assert model.iterations == 1
    assert model.steps[0].mu[0] == 0.0
    assert model.steps[0].sigma[0] == 1.0


def test_train_two_iterations_hand_derived():
    # standardize {-1,0,1} -> {-1,0,1}; abs -> {1,0,1}: mean 2/3, std sqrt(1/3)
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=2, fold="abs")
    assert model.steps[0].mu[0] == 0.0
    assert model.steps[0].sigma[0] == 1.0
    assert model.steps[1].mu[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert model.steps[1].sigma[0] == pytest.approx(SQRT_THIRD, abs=1e-15)


def test_train_does_not_mutate_input():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    before = X.copy()
    train_ref(X, iterations=7)
    np.testing.assert_array_equal(X, before)


def test_train_rejects_bad_inputs():
    with pytest.raises(InsufficientDataError):
        train_ref([[1.0, 2.0]])
    with pytest.raises(ConfigError):
        train_ref([[1.0], [2.0]], iterations=0)
    with pytest.raises(InvalidInputError):
        train_ref([[1.0], [float("nan")]])
    with pytest.raises(ConfigError):
        train_ref([[1.0], [2.0]], fold="nope")


def test_model_stores_only_step_vectors():
    model = train_ref(np.zeros((50, 3)) + np.arange(50)[:, None], iterations=9)
    assert model.iterations == 9
    assert all(s.mu.shape == (3,) and s.sigma.shape == (3,) for s in model.steps)


def test_truncated_model():
    rng = np.random.default_rng(11)
    model = train_ref(rng.normal(size=(20, 2)), iterations=6)
    part = model.truncated(3)
    assert part.iterations == 3
    assert part.steps == model.steps[:3]
    with pytest.raises(ConfigError):
        model.truncated(0)
    with pytest.raises(ConfigError):
        model.truncated(7)


@pytest.mark.parametrize("op", FOLD_OPS)
def test_truncation_equals_shallower_training(op):
    # the benchmark scores its baseline with truncated(1) instead of
    # retraining, which relies on this bit-for-bit equality
    X = np.random.default_rng(12).normal(size=(30, 3))
    full = train_ref(X, iterations=7, fold=op)
    for depth in (1, 4):
        short = train_ref(X, iterations=depth, fold=op)
        for a, b in zip(full.truncated(depth).steps, short.steps, strict=True):
            assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)


# --------------------------------------------------------------- transform

def test_transform_identity_for_trivial_model():
    model = RefModel(
        steps=(StandardizerStep(mu=np.array([0.0]), sigma=np.array([1.0])),),
        fold="abs",
    )
    assert transform_ref([3.0], model)[0] == 3.0


def test_transform_two_step_hand_derived():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=2, fold="abs")
    out = transform_ref([0.0], model)
    # std -> 0, abs -> 0, then (0 - 2/3) / sqrt(1/3)
    assert out[0] == pytest.approx(-(2.0 / 3.0) / SQRT_THIRD, abs=1e-15)
    assert out[0] == pytest.approx(-1.1547, abs=1e-4)


def test_transform_j1_equals_apply_standardizer():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 4))
    model = train_ref(X, iterations=1)
    y = rng.normal(size=4)
    np.testing.assert_array_equal(
        transform_ref(y, model), apply_standardizer(y, model.steps[0])
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
            for i, step in enumerate(model.steps):
                if i > 0:
                    z = _fold_matrix(op, z)
                z = (z - step.mu) / step.sigma
            got = transform_ref(layout, model)
        assert got.tobytes() == z.tobytes()
        assert layout.tobytes() == Y.tobytes()


# ----------------------------------------------------------------- scoring

def test_distance_examples():
    assert distance_to_origin([1.0, -1.0], "l1") == 1.0
    assert distance_to_origin([0.0, 0.0, 0.0], "l1") == 0.0
    assert distance_to_origin([0.0, 0.0, 0.0], "l2") == 0.0
    assert distance_to_origin([3.0, 4.0], "l2") == 2.5


def test_classify_inclusive_threshold():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    # score of y=[1] under the J=1 model is exactly 1.0
    pred = classify([1.0], model, threshold=1.0)
    assert pred.score == 1.0
    assert pred.label == "target"


def test_classify_strict_exceedance():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    pred = classify([1.0000001], model, threshold=1.0)
    assert pred.label == "outlier"


def test_classify_origin_always_target():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    for t in (0.001, 0.5, 10.0):
        assert classify([0.0], model, threshold=t).label == "target"


def test_classify_rejects_non_positive_threshold():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    with pytest.raises(ConfigError):
        classify([0.0], model, threshold=0.0)
    with pytest.raises(ConfigError):
        classify([0.0], model, threshold=-1.0)


def test_prediction_fields():
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=1)
    pred = classify([0.5], model, dist="l2", threshold=0.9)
    assert isinstance(pred, Prediction)
    assert pred.threshold == 0.9
    assert (pred.label == "target") == (pred.score <= pred.threshold)


# ------------------------------------------------------------ base variant

def test_train_base_is_single_iteration():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 3))
    assert train_base(X).iterations == 1


def test_base_score_is_distance_of_standardized_sample():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=3)
    model = train_base(X)
    z = apply_standardizer(y, model.steps[0])
    assert score(y, model, "l1") == distance_to_origin(z, "l1")


@pytest.mark.parametrize("op", FOLD_OPS)
def test_j1_scores_identical_for_every_fold(op):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(size=(10, 4))
    base = train_base(X)
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
            np.testing.assert_allclose(model.steps[k].mu, mus[k], rtol=0, atol=1e-13)
            np.testing.assert_allclose(model.steps[k].sigma, sigmas[k], rtol=0, atol=1e-13)
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
    for step, mu, sigma in zip(model.steps, mus, sigmas):
        assert step.mu.tolist() == mu
        assert step.sigma.tolist() == sigma


# --------------------------------------------------------- summation order

@pytest.mark.parametrize("shape", [(5000, 2), (3000, 17), (1000, 1), (2, 9)])
def test_column_totals_add_rows_in_index_order(shape):
    """Bit for bit, signed zeros included, in C and Fortran layout: a numpy
    that reorders add.reduce must fail here instead of changing models."""
    rng = np.random.default_rng(shape[0] + shape[1])
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    if shape[1] > 1:
        a[:, 0] = -0.0
    want = a[0].copy()
    for row in a[1:]:
        want = want + row
    for layout in (a, np.asfortranarray(a)):
        got = _column_totals(layout)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


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
    for s1, s2 in zip(m1.steps, m2.steps):
        np.testing.assert_array_equal(s1.mu, s2.mu)
        np.testing.assert_array_equal(s1.sigma, s2.sigma)
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
        step = fit_standardizer(Zf)
        z_data = apply_standardizer(Zf, step)
        z_y = apply_standardizer(yf, step)
        assert (z_y >= z_data.max(axis=0)).all()


def test_model_arrays_are_immutable():
    model = train_ref([[1.0], [2.0], [3.0]], iterations=2)
    with pytest.raises(ValueError):
        model.steps[0].mu[0] = 99.0


def test_scores_nonnegative():
    rng = np.random.default_rng(81)
    X = rng.normal(size=(20, 4))
    Y = rng.normal(size=(50, 4))
    for op in FOLD_OPS:
        model = train_ref(X, iterations=5, fold=op)
        for dist in DISTANCES:
            assert (score(Y, model, dist) >= 0).all()


def test_classifier_config_validation():
    cfg = ClassifierConfig()
    assert (cfg.fold, cfg.iterations, cfg.dist) == ("abs", 101, "l1")
    with pytest.raises(ConfigError):
        ClassifierConfig(fold="bad")
    with pytest.raises(ConfigError):
        ClassifierConfig(iterations=0)
    with pytest.raises(ConfigError):
        ClassifierConfig(dist="linf")


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
    step = fit_standardizer([[1e200], [-1e200]])
    assert step.mu[0] == 0.0
    assert step.sigma[0] == 1.0


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
