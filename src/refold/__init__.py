"""One-class classification by repeated element-wise folding.

Train on target-class data only; classify new samples by their distance to
the origin after replaying the trained standardize/fold sequence. Includes
the evaluation protocol (stratified splits, cross-validated threshold
selection, Gmean), a benchmark runner with reproducible reports, and model
persistence.
"""

from .core import (
    DEFAULT_DISTANCE,
    DEFAULT_FOLD,
    DEFAULT_ITERATIONS,
    DEFAULT_THRESHOLD,
    DISTANCES,
    FOLD_OPS,
    ClassifierConfig,
    Prediction,
    RefModel,
    classify,
    distance_to_origin,
    score,
    train_base,
    train_ref,
    transform_ref,
)
from .errors import (
    ConfigError,
    DataFormatError,
    EvaluationError,
    InsufficientDataError,
    InvalidInputError,
    ModelFormatError,
    NumericError,
    OutputError,
    RefoldError,
    SelectionError,
    ShapeError,
)
from .evaluation import (
    DEFAULT_THRESHOLD_GRID,
    OccTask,
    SplitPlan,
    kfold,
    make_occ_tasks,
    make_split_plan,
    select_threshold,
)
from .datasets import (
    Dataset,
    DatasetSchema,
    load_dataset,
    load_registry_dataset,
    registry,
)
from .model_io import load_model, parse_model, save_model, serialize_model
from .bench import (
    BenchReport,
    BenchSpec,
    LearningCurve,
    learning_curve,
    parse_bench_spec,
    read_bench_spec,
    run_benchmark,
    serialize_bench_spec,
    timing_probe,
)

__version__ = "0.1.0"
