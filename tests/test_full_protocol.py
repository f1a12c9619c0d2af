"""End-to-end run of the six-dataset protocol on manifest-shaped stand-ins.

The real benchmark files (apart from iris) are supplied by the user, so
these tests build synthetic files with exactly the class/sample/column
layout the manifest expects: same delimiters, label positions, dropped
columns, and per-class counts. Only mechanics are asserted (task names,
report structure, determinism), never benchmark numbers; those belong to
the acceptance suite running on the real files.
"""

from pathlib import Path

import numpy as np
import pytest

from refold.bench import BenchSpec, learning_curve, read_bench_spec, run_benchmark
from refold.datasets import load_registry_dataset, registry

REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECTED_TASKS = [
    "Iris1", "Iris2", "Iris3",
    "Seed1", "Seed2", "Seed3",
    "Ion1", "Ion2",
    "Son1", "Son2",
    "Bank1", "Bank2",
    "Happ1", "Happ2",
]


def _rows(rng, n, d, center):
    return rng.normal(size=(n, d)) * 0.8 + center


def _write_csv(path, blocks, label_first=False, formatter=str):
    lines = []
    for features, label in blocks:
        for row in features:
            cells = [formatter(v) for v in row]
            line = ([label] + cells) if label_first else (cells + [label])
            lines.append(",".join(line))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def full_data_dir(tmp_path_factory):
    """data dir holding real iris plus five manifest-shaped synthetic files."""
    root = tmp_path_factory.mktemp("benchdata")
    rng = np.random.default_rng(2024)

    (root / "iris.csv").write_text(
        (REPO_ROOT / "data" / "iris.csv").read_text(), encoding="utf-8"
    )

    # seeds: 210 x 7, three classes of 70, labels 1/2/3 in the last column
    _write_csv(root / "seeds.csv", [
        (_rows(rng, 70, 7, 0.0), "1"),
        (_rows(rng, 70, 7, 2.5), "2"),
        (_rows(rng, 70, 7, -2.5), "3"),
    ])

    # ionosphere: 34 raw feature columns, the first binary, the second all
    # zero (both dropped by the manifest schema), label g/b last; 225 g, 126 b
    def ion_block(n, center, label):
        cont = _rows(rng, n, 32, center)
        col0 = rng.integers(0, 2, size=(n, 1)).astype(float)
        col1 = np.zeros((n, 1))
        return np.hstack([col0, col1, cont]), label

    _write_csv(root / "ionosphere.csv", [
        ion_block(225, 0.0, "g"),
        ion_block(126, 3.0, "b"),
    ])

    # sonar: 208 x 60, 97 R then 111 M
    _write_csv(root / "sonar.csv", [
        (_rows(rng, 97, 60, 0.0), "R"),
        (_rows(rng, 111, 60, 1.5), "M"),
    ])

    # bankruptcy: 250 x 6 with rating levels 0/1/2, 143 NB then 107 B
    def rating_block(n, p, label):
        return rng.choice([0.0, 1.0, 2.0], size=(n, 6), p=p), label

    _write_csv(root / "bankruptcy.csv", [
        rating_block(143, [0.1, 0.3, 0.6], "NB"),
        rating_block(107, [0.6, 0.3, 0.1], "B"),
    ], formatter=lambda v: str(int(v)))

    # happiness: label (0/1) in the FIRST column, six 1..5 ratings after it
    def survey_block(n, lo, hi, label):
        return rng.integers(lo, hi + 1, size=(n, 6)).astype(float), label

    _write_csv(root / "happiness.csv", [
        survey_block(66, 1, 3, "0"),
        survey_block(77, 3, 5, "1"),
    ], label_first=True, formatter=lambda v: str(int(v)))

    return str(root)


def test_all_six_datasets_pass_manifest_checks(full_data_dir):
    for name, entry in registry().items():
        ds = load_registry_dataset(name, data_dir=full_data_dir)
        assert ds.n_samples == entry.samples
        assert ds.n_dims == entry.dims
        assert len(ds.class_names) == entry.classes


def test_table_layout_target_training_counts(full_data_dir):
    # floor(0.7 * class size) for every task's target class
    from refold.evaluation import make_occ_tasks, make_split_plan

    expected_n = {
        "Iris1": 35, "Iris2": 35, "Iris3": 35,
        "Seed1": 49, "Seed2": 49, "Seed3": 49,
        "Ion1": 157, "Ion2": 88,
        "Son1": 67, "Son2": 77,
        "Bank1": 100, "Bank2": 74,
        "Happ1": 46, "Happ2": 53,
    }
    for name in registry():
        ds = load_registry_dataset(name, data_dir=full_data_dir)
        for task in make_occ_tasks(ds):
            plan = make_split_plan(ds.labels, task.target_class, seed=0)
            train, _ = plan.splits[0]
            n_target = sum(1 for i in train if ds.labels[i] == task.target_class)
            assert n_target == expected_n[task.name], task.name


@pytest.fixture(scope="module")
def default_report(full_data_dir):
    spec = read_bench_spec(REPO_ROOT / "specs" / "default.spec")
    return spec, run_benchmark(spec, data_dir=full_data_dir)


def test_default_spec_full_run(default_report):
    spec, report = default_report
    ref_tasks = [s.task for s in report.summaries if s.model == "ref"]
    assert ref_tasks == EXPECTED_TASKS + ["Aver."]
    base_tasks = [s.task for s in report.summaries if s.model == "base"]
    assert base_tasks == EXPECTED_TASKS + ["Aver."]
    text = report.deterministic_text()
    assert "# note[ionosphere]:" in text
    assert "# note[bankruptcy]:" in text
    # one run row per model x task x repetition
    run_lines = [l for l in text.splitlines()
                 if l.startswith("run,") and l.split(",")[3].isdigit()]
    assert len(run_lines) == 2 * 14 * spec.repetitions


def test_optimized_spec_full_run_deterministic(full_data_dir):
    spec = read_bench_spec(REPO_ROOT / "specs" / "optimized.spec")
    first = run_benchmark(spec, data_dir=full_data_dir)
    second = run_benchmark(spec, data_dir=full_data_dir)
    assert first.deterministic_text() == second.deterministic_text()
    for r in first.runs:
        assert r.threshold in spec.grid


def test_curves_consistent_with_benchmark(full_data_dir, default_report):
    # the final curve point must replay to exactly the benchmark's Gmean,
    # and the first point to exactly the baseline's, for the same cell
    spec, report = default_report
    rows = {(r.model, r.task, r.repetition): r for r in report.runs}
    for task in ("Iris2", "Ion1", "Son2", "Happ2"):
        curve = learning_curve(spec, task, 1, data_dir=full_data_dir)
        assert len(curve.gmeans) == spec.iterations
        assert all(0.0 <= g <= 1.0 for g in curve.gmeans)
        assert curve.gmeans[-1] == rows[("ref", task, 1)].gmean
        assert curve.gmeans[0] == rows[("base", task, 1)].gmean
