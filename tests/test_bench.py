"""Tests for the benchmark runner, learning curves, and timing probe."""

import hashlib
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import oracle
from refold.bench import (
    _SPEC_FIELDS,
    BenchSpec,
    learning_curve,
    mean_std,
    parse_bench_spec,
    read_bench_spec,
    run_benchmark,
    serialize_bench_spec,
    spec_hash,
    timing_probe,
)
from refold.errors import ConfigError, DataFormatError, NumericError
from refold.evaluation import DEFAULT_THRESHOLD_GRID

REPO_ROOT = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------- spec parsing

def test_parse_minimal_spec():
    spec = parse_bench_spec("datasets = iris\n")
    assert spec.datasets == ("iris",)
    assert spec.fold == "abs"
    assert spec.dist == "l1"
    assert spec.iterations == 101
    assert spec.threshold_mode == "fixed"
    assert spec.threshold == 1.0
    assert spec.repetitions == 5
    assert not spec.include_base


def test_parse_full_spec():
    text = """
    # comment
    datasets = iris, seeds
    fold = cos_abs
    dist = l2
    iterations = 51
    threshold_mode = grid
    grid = 0.3 0.5 1.0
    cv_folds = 4
    train_fraction = 0.6
    repetitions = 3
    seed = 99
    include_base = true
    """
    spec = parse_bench_spec(text)
    assert spec.datasets == ("iris", "seeds")
    assert spec.fold == "cos_abs"
    assert spec.grid == (0.3, 0.5, 1.0)
    assert spec.cv_folds == 4
    assert spec.include_base


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_bench_spec("datasets = iris\nbogus = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_bench_spec("datasets = iris\ndatasets = seeds\n")
    with pytest.raises(ConfigError, match="datasets"):
        parse_bench_spec("fold = abs\n")


def test_spec_validation():
    with pytest.raises(ConfigError):
        BenchSpec(datasets=())
    with pytest.raises(ConfigError):
        BenchSpec(datasets=("iris",), threshold_mode="auto")
    with pytest.raises(ConfigError):
        BenchSpec(datasets=("iris",), threshold=-1.0)
    with pytest.raises(ConfigError):
        BenchSpec(datasets=("iris",), threshold_mode="grid", grid=(0.5, 0.4))
    with pytest.raises(ConfigError):
        BenchSpec(datasets=("iris",), train_fraction=1.5)
    for grid in ("nan", "0.5, nan, 1.0"):
        with pytest.raises(ConfigError, match="grid"):
            parse_bench_spec(f"datasets = iris\nthreshold_mode = grid\ngrid = {grid}\n")


@pytest.mark.parametrize("mode", ["fixed", "grid"])
@pytest.mark.parametrize("line, message", [
    ("grid = nan, -1", "grid"),
    ("grid = 0.5, 0.4", "grid"),
    ("cv_folds = 0", "cv_folds"),
    ("cv_folds = 1", "cv_folds"),
    ("threshold = 0", "threshold"),
    ("threshold = nan", "threshold"),
    ("seed = -1", "seed"),
    ("seed = 18446744073709551616", "seed"),
])
def test_spec_fields_checked_in_both_modes(mode, line, message):
    # every field goes into the spec hash, so none may hold a value the run
    # would reject or alias
    with pytest.raises(ConfigError, match=message):
        parse_bench_spec(f"datasets = iris\nthreshold_mode = {mode}\n{line}\n")


def test_spec_table_lists_every_field_in_order():
    # the parser and the serializer both walk this table
    assert list(_SPEC_FIELDS) == [f.name for f in fields(BenchSpec)]


def test_spec_seed_range_ends_accepted():
    for seed in (0, 2**64 - 1):
        assert parse_bench_spec(f"datasets = iris\nseed = {seed}\n").seed == seed


def test_shipped_specs_parse():
    for path in sorted((REPO_ROOT / "specs").glob("*.spec")):
        read_bench_spec(path)


def test_spec_roundtrip_and_hash():
    spec = BenchSpec(datasets=("iris",), seed=7, include_base=True)
    text = serialize_bench_spec(spec)
    assert parse_bench_spec(text) == spec
    assert spec_hash(spec) == spec_hash(parse_bench_spec(text))
    assert spec_hash(spec) != spec_hash(BenchSpec(datasets=("iris",), seed=8))


def test_read_bench_spec(tmp_path):
    p = tmp_path / "run.spec"
    p.write_text("datasets = iris\nseed = 5\n", encoding="utf-8")
    assert read_bench_spec(p).seed == 5


# ----------------------------------------------------------------- running

def test_separable_synthetic_task_perfect_gmean(synthetic_csv):
    import oracle
    from refold.datasets import load_dataset
    from refold.evaluation import make_split_plan
    from refold.rng import derive_seed

    spec = BenchSpec(
        datasets=(synthetic_csv,), iterations=51, repetitions=1, seed=4
    )
    # precondition, checked by brute force through the oracle: with this seed
    # every test target scores <= 1 and every test outlier scores > 1
    ds = load_dataset(synthetic_csv)
    flags = [lab == "inner" for lab in ds.labels]
    plan = make_split_plan(ds.labels, "inner", 0.7, 1, seed=derive_seed(4, 0, 1))
    train_idx, test_idx = plan.splits[0]
    fit = [i for i in train_idx if flags[i]]
    mus, sigmas, _ = oracle.train(ds.features[fit].tolist(), 51, "abs")
    for i in test_idx:
        s = oracle.score(ds.features[i].tolist(), mus, sigmas, "abs", "l1")
        assert (s <= 1.0) == flags[i]

    report = run_benchmark(spec)
    assert report.summary_for("ref", "blob1").mean_pct == 100.0


def test_report_structure_and_aggregation(synthetic_csv):
    spec = BenchSpec(
        datasets=(synthetic_csv,), iterations=21, repetitions=4, seed=1,
        include_base=True,
    )
    report = run_benchmark(spec)
    # two classes -> two tasks, two model variants, 4 reps each
    assert len(report.runs) == 2 * 2 * 4
    ref_rows = [r for r in report.runs if r.model == "ref" and r.task == "blob1"]
    assert [r.repetition for r in ref_rows] == [1, 2, 3, 4]
    m, s = mean_std([100.0 * r.gmean for r in ref_rows])
    summary = report.summary_for("ref", "blob1")
    assert summary.mean_pct == m
    assert summary.std_pct == s
    aver = report.summary_for("ref", "Aver.")
    t1 = report.summary_for("ref", "blob1")
    t2 = report.summary_for("ref", "blob2")
    assert aver.mean_pct == pytest.approx((t1.mean_pct + t2.mean_pct) / 2, abs=1e-12)
    assert aver.std_pct == pytest.approx((t1.std_pct + t2.std_pct) / 2, abs=1e-12)


def test_report_determinism_bytes(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv,), iterations=11, repetitions=3, seed=9)
    a = run_benchmark(spec).deterministic_text()
    b = run_benchmark(spec).deterministic_text()
    assert a == b
    c = run_benchmark(BenchSpec(datasets=(synthetic_csv,), iterations=11,
                                repetitions=3, seed=10)).deterministic_text()
    assert a != c


# sha256 of deterministic_text() and of a curve's text, pinned at the code
# that planned splits per cell and retrained the baseline; the single-pass
# runner must reproduce them byte for byte
GOLDEN_DEFAULT = "7ca8e399198de5eda578ad2cfd84bce0f2c6a35a7fbd8b5aebbbc0a1ea68d977"
GOLDEN_GRID = "b6dff14b7d74e290440340dfbff34b2b8073b6ad86e452e283e97756d2a77a8d"
GOLDEN_CURVE_IRIS2_REP3 = "0787c41e4e48d7d804c8e61f29dd08bd0225dbb92017dc6841641e02facf4d4c"


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_report_and_curve_digests(data_dir):
    spec = read_bench_spec(REPO_ROOT / "specs" / "iris-default.spec")
    grid_spec = replace(spec, threshold_mode="grid")
    assert _sha256(run_benchmark(spec, data_dir).deterministic_text()) == GOLDEN_DEFAULT
    assert _sha256(run_benchmark(grid_spec, data_dir).deterministic_text()) == GOLDEN_GRID
    curve = learning_curve(spec, "Iris2", 3, data_dir=data_dir)
    assert _sha256(curve.text()) == GOLDEN_CURVE_IRIS2_REP3


# sha256 over 36 outputs on Iris, pinned before fit_stack took index arrays:
# per fold and distance, deterministic_text() in fixed and in grid mode and
# the Iris2 curve; a spec that raises counts as its error's type and message
GOLDEN_FOLD_DIST_MATRIX = "ff142f6405dcbed6a029e63e736a7b1e34350d3fba3c133b22ff7bbc116e322c"


def test_golden_fold_distance_matrix(data_dir):
    """Every fold and distance, with the baseline and ragged CV stacks:
    the padding resets act differently per fold."""
    from refold.core import DISTANCES, FOLD_OPS
    from refold.errors import RefoldError

    def outcome(fn):
        try:
            return fn()
        except (RefoldError, RuntimeWarning) as exc:
            return f"{type(exc).__name__}: {exc}\n"

    texts = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fold in FOLD_OPS:
            for dist in DISTANCES:
                spec = BenchSpec(datasets=("iris",), fold=fold, dist=dist, iterations=21,
                                 repetitions=3, cv_folds=4, seed=13, include_base=True)
                for mode in ("fixed", "grid"):
                    texts.append(outcome(lambda: run_benchmark(
                        replace(spec, threshold_mode=mode), data_dir).deterministic_text()))
                texts.append(outcome(lambda: learning_curve(spec, "Iris2", 2, data_dir).text()))
    assert _sha256("".join(texts)) == GOLDEN_FOLD_DIST_MATRIX


# sha256 over Iris split plans and CV fold orders, pinned at the code that
# shuffled one repetition and one CV pool at a time: per seed and task, the
# splits of 100 repetitions, each training pool's kfold, and the CV fits and
# validation rows select_thresholds hands the kernel for all 100 pools
GOLDEN_PLANS = "eb2a0369d2680560161ed63ff94c43c893873fcf7e139101d0e9ccd58bc41853"


def test_golden_split_plans_and_cv_folds(data_dir, monkeypatch):
    import refold.evaluation
    from refold.core import ClassifierConfig
    from refold.datasets import load_registry_dataset
    from refold.evaluation import kfold, make_split_plan, select_thresholds
    from refold.rng import derive_seed

    texts = []
    fit_stack = refold.evaluation.fit_stack

    def spy(X, fits, *args):
        texts.extend(f"cv {fit.tolist()} {val.tolist()}\n" for fit, val in zip(fits, args[2]))
        return fit_stack(X, fits, *args)

    monkeypatch.setattr(refold.evaluation, "fit_stack", spy)
    ds = load_registry_dataset("iris", data_dir)
    for seed in (0, 2**63 + 5, 2**64 - 1):
        for t, target in enumerate(ds.class_names):
            plan = make_split_plan(ds.labels, target, 0.7, 100, seed=seed)
            texts.extend(f"split {list(train)} {list(test)}\n" for train, test in plan.splits)
            seeds = [derive_seed(seed, t, rep) for rep in range(100)]
            for (train, _), cv_seed in zip(plan.splits, seeds):
                texts.extend(f"kfold {list(fit)} {list(val)}\n"
                             for fit, val in kfold(train, 5, cv_seed))
            select_thresholds(ds.features, [np.array(train) for train, _ in plan.splits],
                              ds.class_flags(target), ClassifierConfig(iterations=1), (1.0,),
                              5, seeds)
    assert len(texts) == 9899
    assert _sha256("".join(texts)) == GOLDEN_PLANS


def test_no_repeated_work(synthetic_csv, monkeypatch):
    """One split plan per task and one kernel call per task, plus in grid
    mode one per (task, variant) for all of its CV fits, whose row counts
    differ. A plan shuffles twice (targets, then outliers of every
    repetition), and the CV folds of a (task, variant) once per distinct
    pool length, which a stratified plan makes one."""
    import refold.bench
    import refold.core
    import refold.evaluation
    import refold.rng
    from refold.datasets import load_dataset
    from refold.evaluation import kfold, make_split_plan
    from refold.rng import derive_seed

    calls = {"plan": 0, "kernel": 0, "block": 0, "train": 0, "shuffle": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, module, name in (("plan", refold.bench, "make_split_plan"),
                              ("kernel", refold.bench, "fit_stack"),
                              ("kernel", refold.evaluation, "fit_stack"),
                              ("block", refold.core, "_fit_block"),
                              ("train", refold.bench, "train_ref"),
                              ("shuffle", refold.rng.SplitMix64, "shuffle")):
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))

    # precondition: the CV fits of each (task, variant) come in several sizes
    ds = load_dataset(synthetic_csv)
    for ordinal, target in enumerate(ds.class_names):
        plan = make_split_plan(ds.labels, target, 0.7, 4, seed=derive_seed(2, ordinal, 1))
        for stream in (2, 3):
            sizes = set()
            for rep, (train, _) in enumerate(plan.splits):
                flags = [ds.labels[i] == target for i in train]
                for fit, val in kfold(range(len(train)), 3, derive_seed(2, ordinal, stream, rep)):
                    if len({flags[i] for i in val}) == 2:
                        sizes.add((sum(flags[i] for i in fit), len(val)))
            assert len(sizes) > 1

    for mode, kernel_calls, shuffles in (("fixed", 2, 2 * 2), ("grid", 2 + 2 * 2, 4 + 2 * 2)):
        calls.update(dict.fromkeys(calls, 0))
        spec = BenchSpec(
            datasets=(synthetic_csv,), iterations=11, repetitions=4, seed=2,
            include_base=True, threshold_mode=mode, cv_folds=3,
        )
        report = run_benchmark(spec)
        assert len(report.runs) == 2 * 2 * 4  # 2 tasks, ref and base, 4 reps
        assert calls == {"plan": 2, "kernel": kernel_calls, "block": kernel_calls, "train": 0,
                         "shuffle": shuffles}


def test_stack_budget_splits_calls_not_results(synthetic_csv, monkeypatch):
    """Whole stacks, ragged CV stacks among them, give the reports and
    curves of one fit per block."""
    import refold.core

    calls = []  # the row count of every fit, per block
    fit_block, cells = refold.core._fit_block, refold.core._STACK_CELLS
    monkeypatch.setattr(refold.core, "_fit_block", lambda X, fit, counts, *args: (
        calls.append(counts) or fit_block(X, fit, counts, *args)))
    for fold, dist, cv_folds in (("abs", "l1", 3), ("cos_abs", "l2", 4)):
        spec = BenchSpec(datasets=(synthetic_csv,), fold=fold, dist=dist, iterations=9,
                         repetitions=3, seed=6, threshold_mode="grid", cv_folds=cv_folds,
                         include_base=True)
        monkeypatch.setattr(refold.core, "_STACK_CELLS", cells)
        calls.clear()
        whole = run_benchmark(spec).deterministic_text()
        curve = learning_curve(replace(spec, threshold_mode="fixed"), "blob2", 2).text()
        assert any(len(set(counts)) > 1 for counts in calls)  # a padded block ran
        monkeypatch.setattr(refold.core, "_STACK_CELLS", 1)  # one fit per block
        calls.clear()
        assert run_benchmark(spec).deterministic_text() == whole
        assert learning_curve(replace(spec, threshold_mode="fixed"), "blob2", 2).text() == curve
        assert {len(counts) for counts in calls} == {1} and len(calls) > 2 * 3


def test_report_timing_lines(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv,), iterations=5, repetitions=3, seed=3,
                     threshold_mode="grid", cv_folds=3, include_base=True)
    report = run_benchmark(spec)
    marker = "# timing below is wall-clock and excluded from the deterministic body\n"
    body, _, timing = report.text().partition(marker)
    assert body == report.deterministic_text()
    rows = [line.split(",") for line in timing.splitlines()]
    assert [row[:3] for row in rows] == [
        ["timing", task, stage]
        for task in ("blob1", "blob2")
        for stage in ("plan", "select", "fit_score")
    ]
    for row in rows:
        assert len(row) == 4
        whole, _, fraction = row[3].partition(".")
        assert whole.isdigit() and len(fraction) == 6 and fraction.isdigit()
        assert float(row[3]) >= 0.0


def _overflow_csv(path, targets=20, big=(0, 1)):
    """Targets whose column 1 holds 1e308 in the rows `big`, and 20 outliers.
    With two such rows, a fit with one of them overflows under sqr at
    iteration 2, a fit with both already sums to inf."""
    rng = np.random.default_rng(5)
    rows = np.vstack([rng.normal(size=(targets, 3)), rng.normal(size=(20, 3)) + 5.0])
    rows[list(big), 1] = 1e308
    labels = ["t"] * targets + ["o"] * 20
    path.write_text("".join(",".join(map(repr, row.tolist())) + f",{lab}\n"
                            for row, lab in zip(rows, labels)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("mode", ["fixed", "grid"])
def test_failing_stack_raises_the_per_repetition_error(tmp_path, mode):
    """A task whose stacked fit fails raises what a plain train_ref loop over
    its repetitions raises, type and message."""
    from refold.core import fit_stack, train_ref
    from refold.datasets import load_dataset
    from refold.evaluation import make_split_plan
    from refold.rng import derive_seed

    path = _overflow_csv(tmp_path / "overflow.csv")
    spec = BenchSpec(datasets=(path,), fold="sqr", iterations=5, repetitions=6, seed=5,
                     threshold_mode=mode, cv_folds=3)
    ds = load_dataset(path)
    plan = make_split_plan(ds.labels, "t", 0.7, 6, seed=derive_seed(5, 0, 1))
    fits = [[i for i in train if ds.labels[i] == "t"] for train, _ in plan.splits]

    def first_error(fn):
        # Exception: under the suite's warning filter an overflow warning
        # is raised too, and must then be the same one
        with pytest.raises(Exception) as exc:
            fn()
        return type(exc.value), str(exc.value)

    def loop():
        for fit in fits:
            train_ref(ds.features[fit], spec.iterations, spec.fold)

    want = first_error(loop)
    assert want == (NumericError, "non-finite working values at iteration 2")
    # precondition: the whole stack fails at an earlier iteration (a later
    # repetition fits both rows), so only a per-repetition replay reproduces
    # the loop's error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stacked = first_error(lambda: fit_stack(ds.features, fits, spec.iterations, spec.fold))
    assert stacked == (NumericError, "non-finite working values at iteration 1")
    assert first_error(lambda: run_benchmark(spec)) == want


def test_failing_task_fits_before_selecting(tmp_path):
    """A task whose fit fails and whose threshold selection fails too raises
    the fit's error, as a loop that fits, then selects, does."""
    from refold.core import train_ref
    from refold.datasets import load_dataset
    from refold.errors import SelectionError
    from refold.evaluation import make_split_plan, select_threshold
    from refold.rng import derive_seed

    path = _overflow_csv(tmp_path / "overflow.csv", targets=4, big=range(4))
    spec = BenchSpec(datasets=(path,), fold="sqr", iterations=5, repetitions=3, seed=1,
                     threshold_mode="grid", cv_folds=2)
    ds = load_dataset(path)
    plan = make_split_plan(ds.labels, "t", 0.7, 3, seed=derive_seed(1, 0, 1))
    flags = np.array(ds.labels) == "t"

    def first_error(fn):
        with pytest.raises(Exception) as exc:
            fn()
        return type(exc.value), str(exc.value)

    def loop():
        for train, _ in plan.splits:
            train_ref(ds.features[[i for i in train if flags[i]]], spec.iterations, spec.fold)

    # precondition: selecting first would raise another error, since a
    # 2-fold split of 2 training targets leaves a fold with fewer than 2
    pool = list(plan.splits[0][0])
    selected = first_error(lambda: select_threshold(
        ds.features[pool], flags[pool], spec.config, spec.grid, spec.cv_folds,
        derive_seed(1, 0, 2, 0)))
    assert selected[0] is SelectionError
    # under the suite's filter the overflow warning is raised first
    want = first_error(loop)
    assert want == (RuntimeWarning, "overflow encountered in reduce")
    assert first_error(lambda: run_benchmark(spec)) == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = first_error(loop)
        assert want == (NumericError, "non-finite working values at iteration 1")
        assert first_error(lambda: run_benchmark(spec)) == want


def _warning_csv(path, targets=20, outliers=20):
    """Targets whose column 0 spreads about 1e-150, and outliers at 1e300
    there: fits on targets stay finite, while standardizing an outlier
    overflows to inf, which the cos fold turns into NaN with a warning."""
    rng = np.random.default_rng(7)
    rows = np.vstack([rng.normal(size=(targets, 3)), rng.normal(size=(outliers, 3)) + 3.0])
    rows[:targets, 0] = rng.normal(size=targets) * 1e-150
    rows[targets:, 0] = 1e300
    labels = ["t"] * targets + ["o"] * outliers
    path.write_text("".join(",".join(map(repr, row.tolist())) + f",{lab}\n"
                            for row, lab in zip(rows, labels)), encoding="utf-8")
    return str(path)


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [(w.category, str(w.message)) for w in caught]


# sha256 of deterministic_text() of the warning task in grid mode with the
# baseline, pinned when a warning task's results were rebuilt from its replay
GOLDEN_WARNING_GRID = "d9eaf49352d6464f08eb979ba052b456831c3c7db12843487d6acbff795a8e02"


def test_warning_task_matches_a_plain_loop(tmp_path):
    """A task whose stacked pass only warns reports what a train_ref and
    score loop over its repetitions gives, and warns as that loop does."""
    from refold.core import score, train_ref
    from refold.datasets import load_dataset
    from refold.evaluation import make_split_plan
    from refold.rng import derive_seed

    # named relative to the data directory, so that the spec hash is fixed
    path = _warning_csv(tmp_path / "warn.csv")
    spec = BenchSpec(datasets=("warn.csv",), fold="cos", iterations=5, repetitions=4, seed=3,
                     cv_folds=3)
    ds = load_dataset(path)
    plan = make_split_plan(ds.labels, "t", 0.7, 4, seed=derive_seed(3, 0, 1))
    flags = np.array(ds.labels) == "t"

    def loop():
        counts = []
        for train, test in plan.splits:
            model = train_ref(ds.features[[i for i in train if flags[i]]], 5, "cos")
            scores = score(ds.features[list(test)], model, spec.dist)
            counts.append(oracle.confusion(scores.tolist(), flags[list(test)].tolist(),
                                           spec.threshold))
        return counts

    want, want_warnings = _recorded(loop)
    assert want_warnings == [(RuntimeWarning, "invalid value encountered in cos")] * 4
    report, got_warnings = _recorded(lambda: run_benchmark(spec, str(tmp_path)))
    assert got_warnings == want_warnings
    runs = [r for r in report.runs if r.task == "warn1"]  # warn2 targets the outliers
    assert [(r.tp, r.fn, r.tn, r.fp) for r in runs] == want
    assert [r.split_seed for r in runs] == list(plan.split_seeds)

    grid = replace(spec, threshold_mode="grid", include_base=True)
    report, got_warnings = _recorded(lambda: run_benchmark(grid, str(tmp_path)))
    assert got_warnings == [(RuntimeWarning, "invalid value encountered in cos")] * 16
    assert _sha256(report.deterministic_text()) == GOLDEN_WARNING_GRID


def test_grid_mode_records_selected_thresholds(synthetic_csv):
    spec = BenchSpec(
        datasets=(synthetic_csv,), iterations=11, repetitions=2, seed=4,
        threshold_mode="grid", grid=DEFAULT_THRESHOLD_GRID, cv_folds=3,
    )
    report = run_benchmark(spec)
    for r in report.runs:
        assert r.threshold in DEFAULT_THRESHOLD_GRID


def test_iris_benchmark_runs(data_dir):
    spec = BenchSpec(datasets=("iris",), iterations=31, repetitions=2, seed=6)
    report = run_benchmark(spec, data_dir=data_dir)
    tasks = {s.task for s in report.summaries}
    assert tasks == {"Iris1", "Iris2", "Iris3", "Aver."}
    assert "note" not in report.deterministic_text()  # iris carries no note


def test_iris2_baseline_in_expected_band(data_dir):
    # the single-standardization baseline on the versicolor task lands
    # around 84 percent Gmean; assert the 2-sigma band (84.2 +/- 2 * 3.6)
    spec = BenchSpec(datasets=("iris",), seed=20260808, repetitions=5,
                     include_base=True)
    report = run_benchmark(spec, data_dir=data_dir)
    base = report.summary_for("base", "Iris2").mean_pct
    assert 77.0 <= base <= 91.4


def test_unknown_dataset_fails(tmp_path):
    spec = BenchSpec(datasets=("not-a-dataset",))
    with pytest.raises(DataFormatError):
        run_benchmark(spec, data_dir=str(tmp_path))


def test_duplicate_dataset_rejected(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv, synthetic_csv), iterations=3)
    with pytest.raises(ConfigError, match="duplicate task"):
        run_benchmark(spec)


def test_run_rows_recompute_summaries(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv,), iterations=7, repetitions=5, seed=12)
    report = run_benchmark(spec)
    text = report.deterministic_text()
    gmeans = {}
    for line in text.splitlines():
        if line.startswith("run,") and line.split(",")[3].isdigit():
            _, model, task, rep, _, _, _, _, _, _, g = line.split(",")
            gmeans.setdefault((model, task), []).append(100.0 * float(g))
    for line in text.splitlines():
        if line.startswith("summary,") and not line.endswith("std_gmean_pct"):
            _, model, task, mean_pct, std_pct = line.split(",")
            if task == "Aver.":
                continue
            m, s = mean_std(gmeans[(model, task)])
            assert f"{m:.1f}" == mean_pct
            assert f"{s:.1f}" == std_pct


def test_mean_std_single_value():
    assert mean_std([5.0]) == (5.0, 0.0)


# ------------------------------------------------------------------ curves

def test_curve_first_point_equals_base_gmean(data_dir):
    spec = BenchSpec(datasets=("iris",), iterations=25, repetitions=2, seed=8,
                     include_base=True)
    report = run_benchmark(spec, data_dir=data_dir)
    curve = learning_curve(spec, "Iris2", 1, data_dir=data_dir)
    assert len(curve.gmeans) == 25
    base_row = next(
        r for r in report.runs
        if r.model == "base" and r.task == "Iris2" and r.repetition == 1
    )
    assert curve.gmeans[0] == base_row.gmean


def test_curve_final_point_matches_benchmark(data_dir):
    spec = BenchSpec(datasets=("iris",), iterations=19, repetitions=3, seed=14)
    report = run_benchmark(spec, data_dir=data_dir)
    for rep in (1, 2, 3):
        curve = learning_curve(spec, "Iris3", rep, data_dir=data_dir)
        row = next(
            r for r in report.runs
            if r.model == "ref" and r.task == "Iris3" and r.repetition == rep
        )
        assert curve.gmeans[-1] == row.gmean


def test_curve_j1_degenerate(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv,), iterations=1, repetitions=1, seed=2)
    curve = learning_curve(spec, "blob1", 1)
    assert len(curve.gmeans) == 1


def test_curve_grid_mode_rejected(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv,), threshold_mode="grid", cv_folds=3)
    with pytest.raises(ConfigError, match="fixed"):
        learning_curve(spec, "blob1", 1)


def test_curve_unknown_task_or_rep(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv,), iterations=3, repetitions=2)
    with pytest.raises(ConfigError, match="not produced"):
        learning_curve(spec, "nope1", 1)
    with pytest.raises(ConfigError, match="repetition"):
        learning_curve(spec, "blob1", 3)


def test_curve_text_format(synthetic_csv):
    spec = BenchSpec(datasets=(synthetic_csv,), iterations=4, repetitions=1, seed=1)
    text = learning_curve(spec, "blob1", 1).text()
    lines = text.splitlines()
    assert lines[0] == "# refold-curve-v1"
    assert "iteration,gmean" in lines
    data = [l for l in lines if l and not l.startswith("#") and l[0].isdigit()]
    assert len(data) == 4
    assert data[0].startswith("1,")


# ------------------------------------------------------------------- probe

def test_probe_rows_and_determinism():
    report = timing_probe([100, 200], dim=4, iterations=5, seed=3, repeats=3)
    assert [r.n for r in report.rows] == [100, 200]
    for row in report.rows:
        assert len(row.times) == 3
        assert row.median_seconds == sorted(row.times)[1]
    text = report.text()
    assert text.startswith("# refold-probe-v1")


def test_probe_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        timing_probe([0, 100])
    with pytest.raises(ConfigError):
        timing_probe([])
    with pytest.raises(ConfigError):
        timing_probe([100], repeats=0)


def test_probe_checks_iterations_before_drawing_data(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("probe data generated before iterations was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ConfigError, match="iterations must be an integer >= 1"):
        timing_probe([400_000], iterations=0)


def test_probe_synthetic_inputs_reproducible():
    # same seed, same sizes: identical training results imply identical inputs
    import numpy as np
    from refold.rng import derive_seed
    a = np.random.default_rng(derive_seed(7, 0)).normal(size=(50, 3))
    b = np.random.default_rng(derive_seed(7, 0)).normal(size=(50, 3))
    np.testing.assert_array_equal(a, b)
