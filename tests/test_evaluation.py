"""Tests for task construction, splits, k-fold, Gmean, threshold selection."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import oracle
from refold.core import ClassifierConfig, train_ref
from refold.errors import (
    ConfigError,
    EvaluationError,
    InvalidInputError,
    NumericError,
    SelectionError,
    ShapeError,
)
from refold.evaluation import (
    DEFAULT_THRESHOLD_GRID,
    confusion_counts,
    gmeans,
    kfold,
    make_occ_tasks,
    make_split_plan,
    select_threshold,
    select_thresholds,
)


@dataclass
class FakeDataset:
    name: str
    task_prefix: str
    class_names: tuple


# -------------------------------------------------------------------- tasks

def test_make_occ_tasks_three_classes():
    ds = FakeDataset("iris", "Iris", ("setosa", "versicolor", "virginica"))
    tasks = make_occ_tasks(ds)
    assert [t.name for t in tasks] == ["Iris1", "Iris2", "Iris3"]
    assert tasks[0].target_class == "setosa"
    assert tasks[1].target_class == "versicolor"


def test_make_occ_tasks_two_classes():
    ds = FakeDataset("ionosphere", "Ion", ("g", "b"))
    assert [t.name for t in make_occ_tasks(ds)] == ["Ion1", "Ion2"]


def test_make_occ_tasks_single_class_rejected():
    with pytest.raises(ConfigError):
        make_occ_tasks(FakeDataset("one", "One", ("only",)))


# ------------------------------------------------------------------- splits

def test_split_plan_floor_sizing_iris_like():
    labels = ["a"] * 50 + ["b"] * 100
    plan = make_split_plan(labels, "a", train_fraction=0.7, repetitions=5, seed=9)
    for train, test in plan.splits:
        n_target_train = sum(1 for i in train if labels[i] == "a")
        assert n_target_train == 35  # floor(0.7 * 50)
        assert len(train) == 35 + 70
        assert len(test) == 150 - len(train)


def test_split_plan_floor_sizing_seeds_like():
    labels = ["k"] * 70 + ["r"] * 140
    plan = make_split_plan(labels, "k", seed=3)
    train, _ = plan.splits[0]
    assert sum(1 for i in train if labels[i] == "k") == 49  # floor(0.7 * 70)


def test_split_plan_disjoint_cover():
    labels = (["t"] * 31) + (["o"] * 48)
    plan = make_split_plan(labels, "t", repetitions=4, seed=1)
    for train, test in plan.splits:
        assert set(train).isdisjoint(test)
        assert sorted(train + test) == list(range(len(labels)))


def test_split_plan_stratification_bound():
    labels = (["t"] * 37) + (["o"] * 53)
    plan = make_split_plan(labels, "t", train_fraction=0.7, repetitions=6, seed=5)
    for train, _ in plan.splits:
        n_t = sum(1 for i in train if labels[i] == "t")
        n_o = len(train) - n_t
        assert abs(n_t - 0.7 * 37) < 1
        assert abs(n_o - 0.7 * 53) < 1


def test_split_plan_deterministic():
    labels = ["t"] * 20 + ["o"] * 30
    p1 = make_split_plan(labels, "t", seed=42)
    p2 = make_split_plan(labels, "t", seed=42)
    assert p1.splits == p2.splits
    p3 = make_split_plan(labels, "t", seed=43)
    assert p3.splits != p1.splits


def test_split_plans_compare_by_value():
    labels = ["t"] * 20 + ["o"] * 30
    p1 = make_split_plan(labels, "t", seed=42)
    p2 = make_split_plan(labels, "t", seed=42)
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != make_split_plan(labels, "t", seed=43)
    assert p1 != make_split_plan(labels, "t", train_fraction=0.5, seed=42)
    assert p1 != make_split_plan(labels, "t", repetitions=2, seed=42)
    assert p1 != p1.splits


def test_split_plan_repetitions_differ():
    labels = ["t"] * 20 + ["o"] * 30
    plan = make_split_plan(labels, "t", repetitions=3, seed=0)
    assert plan.splits[0] != plan.splits[1]


def test_split_plan_errors():
    labels = ["t"] * 10 + ["o"] * 10
    with pytest.raises(ConfigError):
        make_split_plan(labels, "t", train_fraction=0.0)
    with pytest.raises(ConfigError):
        make_split_plan(labels, "t", train_fraction=1.0)
    with pytest.raises(ConfigError):
        make_split_plan(labels, "missing")
    with pytest.raises(ConfigError):
        make_split_plan(["t"] * 5, "t")  # no outliers at all


@pytest.mark.parametrize("field, value, message, direct", [
    ("train_fraction", 1.0, "train_fraction must be in (0, 1), got 1.0",
     lambda v: make_split_plan(["t", "o"], "t", train_fraction=v)),
    ("repetitions", 0, "repetitions must be >= 1, got 0",
     lambda v: make_split_plan(["t", "o"], "t", repetitions=v)),
    ("cv_folds", 1, "cv_folds must be >= 2, got 1", lambda v: kfold(range(4), v)),
])
def test_protocol_rules_give_one_message(field, value, message, direct):
    # a spec and the protocol function it configures reject a value alike
    from refold.bench import BenchSpec

    with pytest.raises(ConfigError) as from_spec:
        BenchSpec(datasets=("iris",), **{field: value})
    with pytest.raises(ConfigError) as from_protocol:
        direct(value)
    assert str(from_spec.value) == str(from_protocol.value) == message


# -------------------------------------------------------------------- gmean

def one_row(tp, fn, tn, fp):
    """gmeans of one (tp, fn, tn, fp) row, as Python floats."""
    return tuple(float(x) for x in gmeans(np.array([tp, fn, tn, fp])))


def test_gmean_perfect():
    assert one_row(tp=10, fn=0, tn=20, fp=0) == (1.0, 1.0, 1.0)


def test_gmean_zero_factor():
    tpr, _, g = one_row(tp=0, fn=10, tn=15, fp=5)
    assert tpr == 0.0
    assert g == 0.0


def test_gmean_derived_value():
    tpr, tnr, g = one_row(tp=9, fn=1, tn=16, fp=9)
    assert tpr == pytest.approx(0.9, abs=0)
    assert tnr == pytest.approx(0.64, abs=0)
    # direct formula evaluation as the oracle
    assert g == math.sqrt(0.9 * (16 / 25))
    assert g == pytest.approx(0.758946638440411, abs=1e-12)


def test_gmean_range_property():
    rng = np.random.default_rng(17)
    rows = np.array([rng.integers(0, 40, size=4) for _ in range(200)])
    rows = rows[(rows[:, 0] + rows[:, 1] > 0) & (rows[:, 2] + rows[:, 3] > 0)]
    tpr, tnr, g = gmeans(rows)
    assert ((0.0 <= g) & (g <= 1.0)).all()
    assert ((g == 0.0) == ((tpr == 0.0) | (tnr == 0.0))).all()


def test_gmean_empty_pools_rejected():
    with pytest.raises(EvaluationError, match="no target samples"):
        gmeans(np.array([0, 0, 5, 5]))
    with pytest.raises(EvaluationError, match="no outlier samples"):
        gmeans(np.array([5, 5, 0, 0]))


def test_confusion_counts_inclusive():
    # a score equal to the threshold is accepted as target
    scores, flags = np.array([0.5, 1.0, 1.5]), np.array([True, True, False])
    for threshold, want in [(0.5, [1, 1, 1, 0]), (1.0, [2, 0, 1, 0]), (1.5, [2, 0, 0, 1])]:
        assert confusion_counts(scores <= threshold, flags).tolist() == want


# -------------------------------------------------------------------- kfold

def test_kfold_exact_division():
    folds = kfold(range(10), 5, seed=1)
    assert len(folds) == 5
    assert all(len(val) == 2 for _, val in folds)


def test_kfold_remainder_rule():
    folds = kfold(range(11), 5, seed=1)
    sizes = sorted((len(val) for _, val in folds), reverse=True)
    assert sizes == [3, 2, 2, 2, 2]


def test_kfold_disjoint_union():
    idx = list(range(23))
    folds = kfold(idx, 4, seed=7)
    all_val = [i for _, val in folds for i in val]
    assert sorted(all_val) == idx
    for train, val in folds:
        assert set(train).isdisjoint(val)
        assert sorted(train + val) == idx


def test_kfold_deterministic():
    assert kfold(range(17), 5, seed=3) == kfold(range(17), 5, seed=3)
    assert kfold(range(17), 5, seed=3) != kfold(range(17), 5, seed=4)


def test_kfold_errors():
    with pytest.raises(ConfigError):
        kfold(range(10), 1)
    with pytest.raises(ConfigError):
        kfold(range(3), 5)


@pytest.mark.parametrize("indices", [[0.5, 1.7, 2.2], ["a"], [True, False]])
def test_kfold_rejects_non_integer_indices(indices):
    with pytest.raises(ConfigError, match="kfold indices must be integers"):
        kfold(indices, 2, 0)


def test_kfold_of_nothing_keeps_its_error():
    with pytest.raises(ConfigError, match="cannot make 3 folds from 0 items"):
        kfold([], 3)


@pytest.mark.parametrize("seed, message", [
    (-1, r"seed must be in 0..2\*\*64-1"),
    (2 ** 64, r"seed must be in 0..2\*\*64-1"),
    (1.5, "seed must be an integer, got 1.5"),
])
@pytest.mark.parametrize("planner", ["make_split_plan", "kfold", "select_threshold"])
def test_seeded_planners_reject_aliasing_seeds(planner, seed, message):
    rng = np.random.default_rng(5)
    X, flags = _separable_pool(rng, n_targets=20, n_outliers=10)
    call = {
        "make_split_plan": lambda: make_split_plan(["t"] * 10 + ["o"] * 10, "t", seed=seed),
        "kfold": lambda: kfold(range(10), 3, seed=seed),
        "select_threshold": lambda: select_threshold(X, flags, ClassifierConfig(), seed=seed),
    }[planner]
    with pytest.raises(ConfigError, match=message):
        call()


# -------------------------------------------------- threshold selection

def _separable_pool(rng, n_targets=60, n_outliers=30, d=2, radius=10.0):
    targets = rng.normal(size=(n_targets, d))
    angle = rng.uniform(0, 2 * np.pi, size=n_outliers)
    outliers = radius * np.column_stack([np.cos(angle), np.sin(angle)])
    if d > 2:
        outliers = np.column_stack([outliers, rng.normal(size=(n_outliers, d - 2))])
    X = np.vstack([targets, outliers])
    flags = np.array([True] * n_targets + [False] * n_outliers)
    return X, flags


def test_select_threshold_singleton_grid():
    rng = np.random.default_rng(23)
    X, flags = _separable_pool(rng)
    cfg = ClassifierConfig(iterations=11)
    assert select_threshold(X, flags, cfg, grid=(1.0,), seed=5) == 1.0


def test_select_threshold_all_zero_ties_to_default():
    # targets and outliers swapped: every candidate scores Gmean 0,
    # so the tie rule returns the grid value closest to 1.0
    rng = np.random.default_rng(29)
    X, flags = _separable_pool(rng)
    cfg = ClassifierConfig(iterations=5)
    t = select_threshold(X, ~flags, cfg, grid=(0.3, 0.5, 1.0, 1.1), seed=5)
    assert t == 1.0


def test_select_threshold_matches_brute_force_reevaluation():
    rng = np.random.default_rng(31)
    X, flags = _separable_pool(rng, n_targets=50, n_outliers=25)
    cfg = ClassifierConfig(iterations=21)
    seed = 77
    chosen = select_threshold(X, flags, cfg, DEFAULT_THRESHOLD_GRID, k=5, seed=seed)

    # independent re-evaluation: same folds, but scoring through the
    # straight-line oracle implementation
    per_t = {t: [] for t in DEFAULT_THRESHOLD_GRID}
    for fold_train, fold_val in kfold(range(len(X)), 5, seed=seed):
        fit = [i for i in fold_train if flags[i]]
        val = list(fold_val)
        val_flags = flags[val]
        if val_flags.all() or not val_flags.any():
            continue
        mus, sigmas, _ = oracle.train(X[fit].tolist(), cfg.iterations, cfg.fold)
        svals = [oracle.score(X[i].tolist(), mus, sigmas, cfg.fold, cfg.dist) for i in val]
        for t in DEFAULT_THRESHOLD_GRID:
            tp = sum(1 for s, f in zip(svals, val_flags) if s <= t and f)
            fn = sum(1 for s, f in zip(svals, val_flags) if s > t and f)
            tn = sum(1 for s, f in zip(svals, val_flags) if s > t and not f)
            fp = sum(1 for s, f in zip(svals, val_flags) if s <= t and not f)
            per_t[t].append(math.sqrt((tp / (tp + fn)) * (tn / (tn + fp))))
    means = {t: sum(v) / len(v) for t, v in per_t.items()}
    expected = max(
        DEFAULT_THRESHOLD_GRID,
        key=lambda t: (means[t], -abs(t - 1.0), t),
    )
    assert chosen == expected


def test_select_threshold_separable_picks_generous_threshold():
    rng = np.random.default_rng(37)
    X, flags = _separable_pool(rng)
    cfg = ClassifierConfig(iterations=31)
    t = select_threshold(X, flags, cfg, DEFAULT_THRESHOLD_GRID, seed=11)
    assert t in DEFAULT_THRESHOLD_GRID


def test_select_threshold_requires_outliers():
    rng = np.random.default_rng(41)
    X = rng.normal(size=(30, 2))
    with pytest.raises(SelectionError):
        select_threshold(X, [True] * 30, ClassifierConfig())
    with pytest.raises(SelectionError):
        select_threshold(X, [False] * 30, ClassifierConfig())


def test_select_threshold_grid_validation():
    rng = np.random.default_rng(43)
    X, flags = _separable_pool(rng, n_targets=20, n_outliers=10)
    cfg = ClassifierConfig(iterations=3)
    with pytest.raises(ConfigError):
        select_threshold(X, flags, cfg, grid=())
    with pytest.raises(ConfigError):
        select_threshold(X, flags, cfg, grid=(0.5, 0.4))
    with pytest.raises(ConfigError):
        select_threshold(X, flags, cfg, grid=(-0.1, 0.5))
    for grid in ((float("nan"),), (0.5, float("nan"), 1.0)):
        with pytest.raises(ConfigError):
            select_threshold(X, flags, cfg, grid=grid)


def test_select_threshold_deterministic():
    rng = np.random.default_rng(47)
    X, flags = _separable_pool(rng)
    cfg = ClassifierConfig(iterations=7)
    a = select_threshold(X, flags, cfg, seed=13)
    b = select_threshold(X, flags, cfg, seed=13)
    assert a == b


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("row", [0, 50], ids=["target", "outlier"])
def test_select_threshold_rejects_non_finite_features(row, value):
    # the outlier row is only ever scored, never fitted; it is rejected all
    # the same, and with the message of training data
    X, flags = _separable_pool(np.random.default_rng(53), n_targets=40, n_outliers=20)
    X[row, 1] = value
    with pytest.raises(InvalidInputError, match="^training data contains non-finite values$"):
        select_threshold(X, flags, ClassifierConfig(iterations=5))


def test_select_threshold_checks_features_before_the_pool():
    # a pool without outliers cannot be cross-validated, but the features
    # are checked first
    X = np.random.default_rng(59).normal(size=(30, 2))
    X[3, 0] = np.nan
    with pytest.raises(InvalidInputError, match="^training data contains non-finite values$"):
        select_threshold(X, [True] * 30, ClassifierConfig())
    with pytest.raises(ShapeError, match="at least one feature dimension"):
        select_threshold(np.empty((30, 0)), [True] * 15 + [False] * 15, ClassifierConfig())


def test_select_threshold_plans_every_fold_before_fitting():
    # targets 1e308, -1e308, 1e308 in column 0: fold 0 fits the two equal
    # ones, whose sum overflows, and fold 1 has one training target; a pool
    # that cannot be cross-validated is reported before any fit runs
    X = np.vstack([[[1e308, 0.1], [-1e308, 0.2], [1e308, 0.3]],
                   np.random.default_rng(0).normal(size=(8, 2)) + 4.0])
    flags = np.array([True] * 3 + [False] * 8)
    fit = [i for i in kfold(range(11), 2, seed=7)[0][0] if flags[i]]
    assert fit == [0, 2]
    # a warning under the suite's filter, the NumericError without it
    with pytest.raises((RuntimeWarning, NumericError)):
        train_ref(X[fit], 3)
    with pytest.raises(SelectionError, match="a CV fold has 1 target training rows"):
        select_threshold(X, flags, ClassifierConfig(iterations=3), k=2, seed=7)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_select_threshold_raises_the_first_failing_fold(action):
    """Targets 0 and 1 hold 1e308 in column 1. Under sqr, fold 0 fits one of
    them and fails at iteration 2; fold 1 fits both, whose total overflows
    at iteration 1. A lone pool fails as a fold loop does: fold 0 first."""
    import warnings

    X, flags = _separable_pool(np.random.default_rng(67), n_targets=10, n_outliers=8)
    X[[0, 1], 1] = 1e308
    folds = kfold(range(18), 3, seed=23)
    assert [sorted({0, 1} & set(fit)) for fit, _ in folds[:2]] == [[0], [0, 1]]
    assert all(0 < flags[list(val)].sum() < len(val) for _, val in folds[:2])
    config = ClassifierConfig("sqr", 4)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises((RuntimeWarning, NumericError)) as later:
            train_ref(X[[i for i in folds[1][0] if flags[i]]], 4, "sqr")
        assert str(later.value) in ("overflow encountered in reduce",
                                    "non-finite working values at iteration 1")
        with pytest.raises(NumericError, match="^non-finite working values at iteration 2$"):
            select_threshold(X, flags, config, k=3, seed=23)


def test_select_thresholds_across_pools_matches_each_pool(monkeypatch):
    """Pools of different sizes selected together, with the CV fits of all
    pools in one kernel call, give each pool's select_threshold pick, which
    fits its folds one per call."""
    import refold.evaluation

    rng = np.random.default_rng(61)
    X, flags = _separable_pool(rng, n_targets=70, n_outliers=40, d=3, radius=3.0)
    pools = [np.sort(rng.choice(len(X), size=n, replace=False)) for n in (40, 41, 43, 47)]
    seeds = [3, 5, 7, 11]
    grid = tuple(np.linspace(0.3, 1.5, 25).tolist())
    calls = []  # fits per kernel call
    fit_stack = refold.evaluation.fit_stack
    monkeypatch.setattr(refold.evaluation, "fit_stack",
                        lambda X, fit, *args: calls.append(len(fit)) or fit_stack(X, fit, *args))
    for cfg in (ClassifierConfig(iterations=9), ClassifierConfig("sqr", 7, "l2"),
                ClassifierConfig("tanh", 11, "l1")):
        calls.clear()
        each = [select_threshold(X[pool], flags[pool], cfg, grid, k=4, seed=seed)
                for pool, seed in zip(pools, seeds)]
        alone = len(calls)
        assert set(calls) == {1}
        calls.clear()
        assert select_thresholds(X, pools, flags, cfg, grid, 4, seeds) == each
        assert len(calls) == 1 and calls[0] == alone
