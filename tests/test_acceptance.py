"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.

Benchmark-reproduction criteria need the UCI files described in
data/README.md; tasks whose files are absent are skipped with an explicit
message (iris.csv ships with the repository, so the Iris tasks always run).
The master seed for all benchmark-based criteria is fixed a priori.
"""

import functools
import math
import os
from pathlib import Path

import numpy as np
import pytest

import oracle
from refold.bench import BenchSpec, learning_curve, run_benchmark, timing_probe
from refold.core import (
    FOLD_OPS,
    score,
    train_ref,
    transform_ref,
)
from refold.datasets import registry
from refold.model_io import load_model, save_model
from refold.rng import derive_seed

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = str(REPO_ROOT / "data")

MASTER_SEED = 20260808

# Expected mean and std (percent) per task for the default configuration
# (abs fold, l1 distance, J=101, T=1); the contract is mean within +/- 2 std.
# The pairs are taken to be the source paper's per-task Gmean results for
# REF at its default settings (its default-settings results table). PAPER.md
# carries only the abstract, so that table is not in the repository and
# neither the values nor their transcription can be checked from here.
DEFAULT_REF_BANDS = {
    "Iris1": (93.6, 6.4),
    "Iris2": (95.6, 1.5),
    "Iris3": (88.5, 3.8),
    "Seed1": (82.1, 4.3),
    "Seed2": (90.0, 4.1),
    "Seed3": (93.0, 4.1),
    "Bank1": (91.0, 0.7),
    "Bank2": (93.0, 5.2),
}
TASK_DATASET = {
    "Iris1": "iris", "Iris2": "iris", "Iris3": "iris",
    "Seed1": "seeds", "Seed2": "seeds", "Seed3": "seeds",
    "Bank1": "bankruptcy", "Bank2": "bankruptcy",
}
ALL_BENCH_DATASETS = ("iris", "seeds", "ionosphere", "sonar", "bankruptcy", "happiness")


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _skip(criterion: str, reason: str):
    print(f"ACCEPTANCE {criterion}: SKIP ({reason})")
    pytest.skip(reason)


def _missing(datasets):
    return [d for d in datasets
            if not os.path.isfile(os.path.join(DATA_DIR, registry()[d].filename))]


# --------------------------------------------------------------- criterion 1

def test_criterion_1_oracle_equivalence():
    """Library transform matches the straight-line oracle to 1e-12/element
    over 100 random instances covering all six fold operations."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        op = FOLD_OPS[i % len(FOLD_OPS)]
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 11))
        j = int(rng.integers(1, 21))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.1, 10))
        y = rng.normal(size=d) * float(rng.uniform(0.1, 10))
        model = train_ref(X, iterations=j, fold=op)
        mus, sigmas, _ = oracle.train(X.tolist(), j, op)
        got = transform_ref(y, model)
        want = np.array(oracle.transform(y.tolist(), mus, sigmas, op))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        finite = np.isfinite(got) & np.isfinite(want)
        if finite.any():
            worst = max(worst, float(np.abs(got[finite] - want[finite]).max()))
    _report("1 oracle equivalence", True, f"worst |diff| {worst:.3g} <= 1e-12")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_hand_derived_model():
    """Two-iteration model on {-1, 0, 1} matches the hand computation."""
    model = train_ref([[-1.0], [0.0], [1.0]], iterations=2, fold="abs")
    checks = [
        (model.mu[0, 0], 0.0),
        (model.sigma[0, 0], 1.0),
        (model.mu[1, 0], 2.0 / 3.0),
        (model.sigma[1, 0], math.sqrt(1.0 / 3.0)),
    ]
    ok = all(abs(got - want) <= 1e-4 for got, want in checks)
    _report("2 hand-derived model", ok,
            f"steps ({model.mu[1, 0]:.5f}, {model.sigma[1, 0]:.5f})")


# --------------------------------------------------------------- criterion 3

# Per-seed held-out coverage at the defaults over calibration seeds 100..139
# (disjoint from the asserted seeds 0..4): mean and N-1 std of 40 values.
COVERAGE_CALIBRATION_MEAN = 0.98303
COVERAGE_CALIBRATION_STD = 0.00149


def test_criterion_3_normal_coverage():
    """Held-out standard-normal coverage at the defaults: per seed, train on
    10,000 samples (D=5, J=101, abs) and take the fraction of 10,000
    held-out samples with l1 score <= 1. The default threshold must accept
    nearly all held-out in-distribution data: coverage pooled over seeds
    0..4 (50,000 held-out samples) must reach the calibrated bound.

    Neither the paper's abstract nor the docs promise a coverage figure, so
    the bound is calibrated on seeds disjoint from the asserted ones. Seeds
    100..139 give per-seed coverage 0.98303 +/- 0.00149 (mean, N-1 std;
    range 0.9797..0.9869, only 10% of seeds reach 0.985). A pooled mean of 5
    seeds then has standard error 0.00149 / sqrt(5) = 0.00067, and the bound
    is the calibration mean minus 3 standard errors, 0.9810. Seeds 0..4 pool
    to 0.9833. Shallower models fall below it: the same pooled coverage is
    0.9781 at J=71, 0.9726 at J=51 and 0.9621 at J=31.
    """
    n_seeds = 5
    bound = COVERAGE_CALIBRATION_MEAN - 3 * COVERAGE_CALIBRATION_STD / math.sqrt(n_seeds)
    accepted = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10_000, 5))
        held_out = rng.normal(size=(10_000, 5))
        model = train_ref(X, iterations=101, fold="abs")
        accepted.append(score(held_out, model, "l1") <= 1.0)
    pooled = float(np.mean(np.concatenate(accepted)))
    _report("3 normal coverage", pooled >= bound,
            "held-out fractions "
            + ", ".join(f"{float(np.mean(a)):.4f}" for a in accepted)
            + f"; pooled {pooled:.4f} vs bound {bound:.4f}")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_dominance_preservation():
    """Per-dimension dominance through abs-fold training, 1,000 random
    (X, y) pairs: wherever |y| >= max|x| holds entering a fold-and-
    standardize iteration, y sits at or beyond the data maximum after it.
    The generator guarantees the hypothesis at the first fold, so the check
    is never vacuous; zero violations allowed."""
    rng = np.random.default_rng(4004)
    violations = 0
    vacuous = 0
    for _ in range(1000):
        n = int(rng.integers(3, 26))
        d = int(rng.integers(1, 7))
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.5, 4))
        mu0 = train_ref(X, iterations=1).mu[0]
        margin = np.abs(X - mu0).max(axis=0)
        y = mu0 + rng.choice([-1.0, 1.0], size=d) * margin * rng.uniform(
            1.001, 3.0, size=d
        )
        model = train_ref(X, iterations=12, fold="abs")
        hypothesis_held_once = False
        for depth in range(1, model.iterations):
            before = model.truncated(depth)
            z_data = transform_ref(X, before)
            z_y = transform_ref(y, before)
            if not (np.abs(z_y) >= np.abs(z_data).max(axis=0)).all():
                continue  # hypothesis broken at this depth; nothing claimed
            hypothesis_held_once = True
            after = model.truncated(depth + 1)
            if not (transform_ref(y, after) >= transform_ref(X, after).max(axis=0)).all():
                violations += 1
        if not hypothesis_held_once:
            vacuous += 1
    ok = violations == 0 and vacuous == 0
    _report("4 dominance preservation", ok,
            f"{violations} violations, {vacuous} vacuous pairs in 1000")


# --------------------------------------------------------------- criterion 5

@functools.lru_cache(maxsize=None)
def _default_benchmark(dataset: str):
    spec = BenchSpec(datasets=(dataset,), seed=MASTER_SEED, repetitions=5)
    return run_benchmark(spec, data_dir=DATA_DIR)


@pytest.mark.parametrize("task", sorted(DEFAULT_REF_BANDS))
def test_criterion_5_default_benchmark_bands(task):
    """Default-configuration benchmark mean Gmean per task inside the
    expected band (mean +/- 2 std); splits are seeded here, not identical
    to any other run, so the band is the contract."""
    dataset = TASK_DATASET[task]
    if _missing([dataset]):
        _skip(f"5 band {task}", f"dataset file for {dataset!r} not present; see data/README.md")
    report = _default_benchmark(dataset)
    got = report.summary_for("ref", task).mean_pct
    mean, std = DEFAULT_REF_BANDS[task]
    lo, hi = mean - 2 * std, mean + 2 * std
    _report(f"5 band {task}", lo <= got <= hi,
            f"mean {got:.1f} vs band [{lo:.1f}, {hi:.1f}]")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_default_gap_over_base():
    """With defaults, the all-task average Gmean of the folding classifier
    exceeds the baseline's by at least 4 points."""
    missing = _missing(ALL_BENCH_DATASETS)
    if missing:
        _skip("6 default gap", f"missing dataset files: {', '.join(missing)}; see data/README.md")
    spec = BenchSpec(
        datasets=ALL_BENCH_DATASETS, seed=MASTER_SEED, include_base=True,
    )
    report = run_benchmark(spec, data_dir=DATA_DIR)
    ref = report.summary_for("ref", "Aver.").mean_pct
    base = report.summary_for("base", "Aver.").mean_pct
    _report("6 default gap", ref - base >= 4.0,
            f"ref {ref:.1f} vs base {base:.1f}, gap {ref - base:.1f}")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_optimized_regime_average():
    """Grid-selected thresholds (abs, l1): all-task average Gmean in [72, 82]."""
    missing = _missing(ALL_BENCH_DATASETS)
    if missing:
        _skip("7 optimized average", f"missing dataset files: {', '.join(missing)}; see data/README.md")
    spec = BenchSpec(
        datasets=ALL_BENCH_DATASETS, seed=MASTER_SEED, threshold_mode="grid",
    )
    report = run_benchmark(spec, data_dir=DATA_DIR)
    aver = report.summary_for("ref", "Aver.").mean_pct
    _report("7 optimized average", 72.0 <= aver <= 82.0, f"Aver. {aver:.1f}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_learning_curve_sanity():
    """Averaged default-threshold curve ends above its first point, and
    every curve's first point equals the baseline Gmean exactly."""
    available = [d for d in ALL_BENCH_DATASETS if not _missing([d])]
    if not available:
        _skip("8 learning curve", "no benchmark dataset files present")
    spec = BenchSpec(
        datasets=tuple(available), seed=MASTER_SEED, include_base=True,
    )
    report = run_benchmark(spec, data_dir=DATA_DIR)
    base_gmean = {
        (r.task, r.repetition): r.gmean for r in report.runs if r.model == "base"
    }
    tasks = sorted({r.task for r in report.runs})
    curves = []
    first_point_exact = True
    for task in tasks:
        for rep in range(1, spec.repetitions + 1):
            curve = learning_curve(spec, task, rep, data_dir=DATA_DIR)
            curves.append(curve.gmeans)
            if curve.gmeans[0] != base_gmean[(task, rep)]:
                first_point_exact = False
    avg = np.mean(np.array(curves), axis=0)
    ok = first_point_exact and avg[-1] > avg[0]
    _report("8 learning curve", ok,
            f"avg first {100 * avg[0]:.1f} -> final {100 * avg[-1]:.1f}, "
            f"first point exact: {first_point_exact}")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_linear_scaling():
    """Doubling N from 10k to 20k to 40k (D=20, J=101) raises the median
    training time by at most a factor of 2.6 per doubling."""
    probe = timing_probe([10_000, 20_000, 40_000], dim=20, iterations=101,
                         seed=MASTER_SEED, repeats=3)
    medians = [row.median_seconds for row in probe.rows]
    ratios = [b / a for a, b in zip(medians, medians[1:])]
    ok = all(r <= 2.6 for r in ratios)
    _report("9 linear scaling", ok,
            "medians " + ", ".join(f"{m:.3f}s" for m in medians)
            + "; ratios " + ", ".join(f"{r:.2f}" for r in ratios))


# -------------------------------------------------------------- criterion 10

def test_criterion_10_persistence_roundtrip(tmp_path):
    """100 random models survive save -> load with bit-identical scores."""
    rng = np.random.default_rng(1010)
    for i in range(100):
        n = int(rng.integers(2, 41))
        d = int(rng.integers(1, 11))
        j = int(rng.integers(1, 26))
        op = FOLD_OPS[int(rng.integers(len(FOLD_OPS)))]
        X = rng.normal(size=(n, d)) * float(rng.uniform(0.01, 50))
        model = train_ref(X, iterations=j, fold=op)
        path = tmp_path / f"model-{i}.refold"
        save_model(model, path)
        loaded = load_model(path)
        Y = rng.normal(size=(5, d)) * 3
        for dist in ("l1", "l2"):
            s_orig = score(Y, model, dist)
            s_load = score(Y, loaded, dist)
            assert np.array_equal(s_orig, s_load), f"model {i} ({op}) scores differ"
    _report("10 persistence", True, "100 models, bit-identical scores")


# -------------------------------------------------------------- criterion 11

def test_criterion_11_report_determinism(tmp_path):
    """Two full benchmark runs with one spec and seed produce byte-identical
    deterministic report sections."""
    from conftest import write_synthetic_dataset

    datasets = [str(write_synthetic_dataset(tmp_path / "blob.csv"))]
    if not _missing(["iris"]):
        datasets.insert(0, "iris")
    spec = BenchSpec(
        datasets=tuple(datasets), iterations=31, seed=MASTER_SEED,
        threshold_mode="grid", include_base=True,
    )
    first = run_benchmark(spec, data_dir=DATA_DIR).deterministic_text()
    second = run_benchmark(spec, data_dir=DATA_DIR).deterministic_text()
    third = run_benchmark(spec, data_dir=DATA_DIR).deterministic_text()
    ok = first == second == third
    _report("11 determinism", ok, f"{len(first)} deterministic bytes")
