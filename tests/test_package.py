"""The names the refold package exports."""

import types

import refold

PUBLIC = [
    "BenchReport", "BenchSpec", "ConfigError", "DEFAULT_DISTANCE",
    "DEFAULT_FOLD", "DEFAULT_ITERATIONS", "DEFAULT_THRESHOLD", "DEFAULT_THRESHOLD_GRID",
    "DISTANCES", "DataFormatError", "Dataset", "DatasetSchema", "EvaluationError", "FOLD_OPS",
    "InsufficientDataError", "InvalidInputError", "LearningCurve", "ModelFormatError",
    "NumericError", "OccTask", "OutputError", "RefModel", "RefoldError", "SelectionError",
    "ShapeError", "SplitPlan", "distance_to_origin", "learning_curve", "load_dataset",
    "load_model", "load_registry_dataset", "make_occ_tasks", "make_split_plan",
    "parse_bench_spec", "parse_model", "read_bench_spec", "registry", "run_benchmark",
    "save_model", "score", "serialize_bench_spec", "serialize_model", "timing_probe",
    "train_ref", "transform_ref",
]


def test_public_names():
    # adding or retiring an export is an edit of PUBLIC
    names = sorted(n for n, v in vars(refold).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC
