"""Declarative benchmark runner, learning curves, and the timing probe.

A benchmark spec names datasets and protocol parameters; running it trains
the classifier on each task's training targets for every repetition of the
split plan, fixes or cross-validates the decision threshold, scores the test
split, and aggregates Gmean per task as mean and standard deviation in
percent, plus an unweighted overall average row. Reports are delimited text
with a commented header; everything above the timing section is a pure
function of (spec, seed) and reproduces byte for byte. The timing section
gives each task's wall-clock seconds per stage: plan (the split plan), select
(threshold cross-validation) and fit_score (fitting, scoring, counting).

A task's fits run as one kernel call (core.fit_stack) on the row indices of
its repetitions, which then scores the test rows at the model's depth and at
its baseline's. Grid mode then selects thresholds
(evaluation.select_thresholds), adding one call per variant for all of its
threshold-CV fits, whose row counts differ: each fit is padded with -0.0 rows
to the longest, and scored as one folds x thresholds Gmean table. The test
counts and Gmeans of all repetitions of a variant come from one
evaluation.confusion_counts and one evaluation.gmeans call. A call larger
than 8 MB, padding included, works in blocks of at most that size. Each fit
gets the arithmetic of a lone fit, so results are bit-identical to fitting
repetition by repetition.

Seed streams, all derived from the master seed with refold.rng.derive_seed:
split plan of task t -> (t, 1); threshold CV of task t repetition r ->
(t, 2, r) for the folding classifier and (t, 3, r) for the baseline.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_DISTANCE,
    DEFAULT_FOLD,
    DEFAULT_ITERATIONS,
    DEFAULT_THRESHOLD,
    check_settings,
    fit_stack,
    train_ref,
)
from .datasets import Dataset, load_dataset, load_registry_dataset, registry, resolve_data_dir
from .errors import ConfigError, DataFormatError
from .evaluation import (
    DEFAULT_CV_FOLDS,
    DEFAULT_REPETITIONS,
    DEFAULT_THRESHOLD_GRID,
    DEFAULT_TRAIN_FRACTION,
    OccTask,
    check_grid,
    confusion_counts,
    gmeans,
    make_occ_tasks,
    make_split_plan,
    select_thresholds,
)
from .rng import GENERATOR_NAME, derive_seed
from .textio import (as_tuple, check, check_int, format_float as _fmt, parse_float, parse_int,
                     read_text)

REPORT_VERSION = "refold-bench-report-v1"
CURVE_VERSION = "refold-curve-v1"
PROBE_VERSION = "refold-probe-v1"

_SPLIT_STREAM = 1
_REF_CV_STREAM = 2
_BASE_CV_STREAM = 3

# wall-clock stages reported per task below a report's timing marker
_TIMING_STAGES = ("plan", "select", "fit_score")


@dataclass(frozen=True)
class BenchSpec:
    """Everything needed to reproduce one benchmark run."""

    datasets: tuple[str, ...]
    fold: str = DEFAULT_FOLD
    dist: str = DEFAULT_DISTANCE
    iterations: int = DEFAULT_ITERATIONS
    threshold_mode: str = "fixed"
    threshold: float = DEFAULT_THRESHOLD
    grid: tuple[float, ...] = DEFAULT_THRESHOLD_GRID
    cv_folds: int = DEFAULT_CV_FOLDS
    train_fraction: float = DEFAULT_TRAIN_FRACTION
    repetitions: int = DEFAULT_REPETITIONS
    seed: int = 0
    include_base: bool = False

    def __post_init__(self):
        datasets = as_tuple(self.datasets)
        if datasets is None or not all(isinstance(name, str) for name in datasets):
            raise ConfigError(f"datasets must be a sequence of names, got {self.datasets!r}")
        object.__setattr__(self, "datasets", datasets)
        object.__setattr__(self, "grid", check_grid(self.grid))
        if not self.datasets:
            raise ConfigError("spec lists no datasets")
        check_settings(self.fold, self.iterations, self.dist)
        if self.threshold_mode not in ("fixed", "grid"):
            raise ConfigError(
                f"threshold_mode must be 'fixed' or 'grid', got {self.threshold_mode!r}"
            )
        # every field is checked in both modes: all of them go into the spec hash
        for name in ("threshold", "cv_folds", "train_fraction", "repetitions", "seed"):
            check(name, getattr(self, name))


def _list(v: str) -> tuple[str, ...]:
    return tuple(x for x in v.replace(",", " ").split() if x)


def _bool(v: str) -> bool:
    if v.lower() in ("true", "yes", "1"):
        return True
    if v.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


# spec key -> (converter from its text value, formatter of its value), in
# BenchSpec field order; the parser and the canonical serializer share it
_SPEC_FIELDS = {
    "datasets": (_list, ", ".join),
    "fold": (str, str),
    "dist": (str, str),
    "iterations": (parse_int, str),
    "threshold_mode": (str, str),
    "threshold": (parse_float, _fmt),
    "grid": (lambda v: tuple(map(parse_float, _list(v))), lambda g: ", ".join(map(_fmt, g))),
    "cv_folds": (parse_int, str),
    "train_fraction": (parse_float, _fmt),
    "repetitions": (parse_int, str),
    "seed": (parse_int, str),
    "include_base": (_bool, lambda v: "true" if v else "false"),
}


def parse_bench_spec(text: str) -> BenchSpec:
    """Parse the key = value spec format; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"spec line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SPEC_FIELDS:
            raise ConfigError(f"spec line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"spec line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    if "datasets" not in values:
        raise ConfigError("spec is missing the 'datasets' key")
    try:
        kwargs = {
            key: convert(values[key])
            for key, (convert, _) in _SPEC_FIELDS.items()
            if key in values
        }
    except ValueError as exc:
        raise ConfigError(f"bad spec value: {exc}") from None
    return BenchSpec(**kwargs)


def read_bench_spec(path) -> BenchSpec:
    return parse_bench_spec(read_text(path, ConfigError))


def serialize_bench_spec(spec: BenchSpec) -> str:
    """Canonical textual form; its hash identifies the run in reports."""
    return "".join(
        f"{key} = {fmt(getattr(spec, key))}\n" for key, (_, fmt) in _SPEC_FIELDS.items()
    )


def spec_hash(spec: BenchSpec) -> str:
    return hashlib.sha256(serialize_bench_spec(spec).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    """One (model variant, task, repetition) evaluation."""

    model: str  # "ref" or "base"
    task: str
    repetition: int  # 1-based
    split_seed: int
    threshold: float
    tp: int
    fn: int
    tn: int
    fp: int
    gmean: float


@dataclass(frozen=True)
class TaskSummary:
    model: str
    task: str
    mean_pct: float
    std_pct: float


@dataclass(frozen=True)
class BenchReport:
    spec: BenchSpec
    runs: tuple[RunRecord, ...]
    summaries: tuple[TaskSummary, ...]
    notes: tuple[tuple[str, str], ...]  # (dataset name, note)
    timings: tuple[tuple[str, str, float], ...] = ()  # (task, stage, seconds)

    def deterministic_text(self) -> str:
        lines = [
            f"# {REPORT_VERSION}",
            f"# spec-hash: {spec_hash(self.spec)}",
            f"# seed: {self.spec.seed}",
            f"# prng: {GENERATOR_NAME}",
            "# protocol: stratified split, train size = floor(fraction * class size),"
            " summary std uses the N-1 divisor",
        ]
        for name, note in self.notes:
            lines.append(f"# note[{name}]: {note}")
        lines.append("run,model,task,repetition,split_seed,threshold,tp,fn,tn,fp,gmean")
        for r in self.runs:
            lines.append(
                f"run,{r.model},{r.task},{r.repetition},{r.split_seed},"
                f"{_fmt(r.threshold)},{r.tp},{r.fn},{r.tn},{r.fp},{_fmt(r.gmean)}"
            )
        lines.append("summary,model,task,mean_gmean_pct,std_gmean_pct")
        for s in self.summaries:
            lines.append(f"summary,{s.model},{s.task},{s.mean_pct:.1f},{s.std_pct:.1f}")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = [self.deterministic_text()]
        lines.append("# timing below is wall-clock and excluded from the deterministic body\n")
        for task, stage, seconds in self.timings:
            lines.append(f"timing,{task},{stage},{seconds:.6f}\n")
        return "".join(lines)

    def summary_for(self, model: str, task: str) -> TaskSummary:
        for s in self.summaries:
            if s.model == model and s.task == task:
                return s
        raise KeyError(f"no summary for ({model}, {task})")


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation; std is 0.0 for a single value."""
    vals = list(values)
    m = sum(vals) / len(vals)
    if len(vals) < 2:
        return m, 0.0
    var = sum((v - m) ** 2 for v in vals) / (len(vals) - 1)
    return m, var ** 0.5


def resolve_benchmark_dataset(name: str, data_dir: str | None = None) -> Dataset:
    """Registry name, or a path to a delimited file with the default schema."""
    if name in registry():
        return load_registry_dataset(name, data_dir)
    candidates = [name, os.path.join(resolve_data_dir(data_dir), name)]
    for path in candidates:
        if os.path.isfile(path):
            return load_dataset(path)
    raise DataFormatError(
        f"dataset {name!r} is neither a registry name ({', '.join(sorted(registry()))}) "
        "nor an existing file"
    )


def _resolve_tasks(spec: BenchSpec, data_dir):
    """Datasets and their tasks in spec order, with global task ordinals; a
    dataset is loaded only once the tasks before it are consumed."""
    seen = set()
    ordinal = 0
    for name in spec.datasets:
        ds = resolve_benchmark_dataset(name, data_dir)
        for task in make_occ_tasks(ds):
            if task.name in seen:
                raise ConfigError(f"duplicate task name {task.name!r} in spec datasets")
            seen.add(task.name)
            yield ordinal, ds, task
            ordinal += 1


def _plan_arrays(spec: BenchSpec, ds: Dataset, task: OccTask, ordinal: int):
    """The task's split plan as arrays: per-repetition split seeds, the
    (R, n_train) and (R, n_test) dataset row indices, and the per-row target
    flags."""
    plan = make_split_plan(
        ds.labels,
        task.target_class,
        spec.train_fraction,
        spec.repetitions,
        seed=derive_seed(spec.seed, ordinal, _SPLIT_STREAM),
    )
    return plan.split_seeds, plan.train, plan.test, ds.class_flags(task.target_class)


@contextmanager
def _stage(seconds: dict[str, float], name: str):
    started = time.perf_counter()
    try:
        yield
    finally:
        seconds[name] += time.perf_counter() - started


def run_benchmark(spec: BenchSpec, data_dir: str | None = None) -> BenchReport:
    """Execute the spec; the report above its timing section depends only on
    (spec, seed).

    Each repetition trains one model. The baseline is its first step, which
    is bit-identical to a model trained with one iteration, because step i
    depends only on the steps before it. A failing task raises, and a
    warning task warns, as its stacked kernel calls do, in call order: the
    fits first, then threshold selection, variant by variant.
    """
    # (model name, depth scored, threshold CV stream)
    variants = [("ref", spec.iterations, _REF_CV_STREAM)]
    if spec.include_base:
        variants.append(("base", 1, _BASE_CV_STREAM))
    runs: dict[str, list[RunRecord]] = {name: [] for name, _, _ in variants}
    summaries: dict[str, list[TaskSummary]] = {name: [] for name, _, _ in variants}
    timings = []
    # every dataset resolved before the first task runs, so a bad spec fails fast
    for ordinal, ds, task in list(_resolve_tasks(spec, data_dir)):
        seconds = dict.fromkeys(_TIMING_STAGES, 0.0)
        with _stage(seconds, "plan"):
            split_seeds, train, test, flags = _plan_arrays(spec, ds, task, ordinal)
        # every repetition at once: the fits and scores, then the thresholds
        with _stage(seconds, "fit_score"):
            fit = train[flags[train]].reshape(len(train), -1)
            scores = fit_stack(ds.features, fit, spec.iterations, spec.fold, test,
                               {depth for _, depth, _ in variants}, spec.dist)
        thresholds = {}
        with _stage(seconds, "select"):
            for name, depth, stream in variants:
                if spec.threshold_mode == "fixed":
                    thresholds[name] = [spec.threshold] * len(train)
                    continue
                seeds = [derive_seed(spec.seed, ordinal, stream, rep)
                         for rep in range(spec.repetitions)]
                thresholds[name] = select_thresholds(
                    ds.features, train, flags, spec.grid, spec.cv_folds, seeds,
                    iterations=depth, fold=spec.fold, dist=spec.dist)
        with _stage(seconds, "fit_score"):
            for name, depth, _ in variants:
                accepted = scores[depth] <= np.asarray(thresholds[name])[:, np.newaxis]
                counts = confusion_counts(accepted, flags[test])
                gmean_of = gmeans(counts)[2].tolist()
                for rep, ((tp, fn, tn, fp), g) in enumerate(zip(counts.tolist(), gmean_of)):
                    runs[name].append(RunRecord(
                        model=name, task=task.name, repetition=rep + 1,
                        split_seed=split_seeds[rep], threshold=thresholds[name][rep],
                        tp=tp, fn=fn, tn=tn, fp=fp, gmean=g,
                    ))
                pct = [100.0 * g for g in gmean_of]
                summaries[name].append(TaskSummary(name, task.name, *mean_std(pct)))
        timings.extend((task.name, stage, seconds[stage]) for stage in _TIMING_STAGES)
    for name, per_task in summaries.items():
        # overall row: unweighted mean over tasks, in both columns
        overall_mean = sum(s.mean_pct for s in per_task) / len(per_task)
        overall_std = sum(s.std_pct for s in per_task) / len(per_task)
        per_task.append(TaskSummary(name, "Aver.", overall_mean, overall_std))

    notes = []
    reg = registry()
    for name in spec.datasets:
        if name in reg and reg[name].note:
            notes.append((name, reg[name].note))
    # all ref rows in task/repetition order, then the base rows
    return BenchReport(
        spec=spec,
        runs=tuple(r for records in runs.values() for r in records),
        summaries=tuple(s for per_task in summaries.values() for s in per_task),
        notes=tuple(notes),
        timings=tuple(timings),
    )


# ------------------------------------------------------------ learning curve

@dataclass(frozen=True)
class LearningCurve:
    """Test Gmean at every truncation depth 1..J of one trained model."""

    task: str
    repetition: int  # 1-based
    threshold: float
    dist: str
    gmeans: tuple[float, ...]

    def text(self) -> str:
        lines = [
            f"# {CURVE_VERSION}",
            f"# task: {self.task}",
            f"# repetition: {self.repetition}",
            f"# threshold: {_fmt(self.threshold)}",
            f"# dist: {self.dist}",
            "iteration,gmean",
        ]
        for i, g in enumerate(self.gmeans, start=1):
            lines.append(f"{i},{_fmt(g)}")
        return "\n".join(lines) + "\n"


def learning_curve(
    spec: BenchSpec, task_name: str, repetition: int, data_dir: str | None = None
) -> LearningCurve:
    """Gmean versus iteration depth for one task and repetition (1-based).

    Fits the full J-step model once and scores the test set after every
    step; step i depends only on earlier steps, so truncated models need no
    retraining. Defined for fixed thresholds only.
    """
    if spec.threshold_mode != "fixed":
        raise ConfigError("learning curves are defined for fixed thresholds only")
    check_int("repetition", repetition, 1, spec.repetitions)
    for ordinal, ds, task in _resolve_tasks(spec, data_dir):
        if task.name == task_name:
            break
    else:
        raise ConfigError(f"task {task_name!r} not produced by this spec's datasets")
    _, train, test, flags = _plan_arrays(spec, ds, task, ordinal)
    pool, rows = train[repetition - 1], test[repetition - 1]
    fit = pool[flags[pool]]
    depths = range(1, spec.iterations + 1)
    scores = fit_stack(ds.features, [fit], spec.iterations, spec.fold, [rows], depths,
                       spec.dist)
    accepted = np.array([scores[d][0] for d in depths]) <= spec.threshold
    _, _, curve = gmeans(confusion_counts(accepted, flags[rows]))
    return LearningCurve(
        task=task.name,
        repetition=repetition,
        threshold=spec.threshold,
        dist=spec.dist,
        gmeans=tuple(curve.tolist()),
    )


# -------------------------------------------------------------- timing probe

@dataclass(frozen=True)
class ProbeRow:
    n: int
    dim: int
    iterations: int
    times: tuple[float, ...]

    @property
    def median_seconds(self) -> float:
        # np.median, not statistics.median, whose decimal import would slow every start-up
        return float(np.median(self.times))


@dataclass(frozen=True)
class ProbeReport:
    rows: tuple[ProbeRow, ...]

    def text(self) -> str:
        lines = [f"# {PROBE_VERSION}", "n,dim,iterations,median_seconds,times"]
        for r in self.rows:
            times = " ".join(f"{t:.6f}" for t in r.times)
            lines.append(
                f"{r.n},{r.dim},{r.iterations},{r.median_seconds:.6f},{times}"
            )
        return "\n".join(lines) + "\n"


def timing_probe(
    sizes,
    dim: int = 20,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    repeats: int = 3,
) -> ProbeReport:
    """Median-of-repeats training wall time on synthetic normal data.

    The generator is seeded per size, so identical seeds reproduce identical
    inputs; medians damp scheduler noise. On two CPUs or more, a size of
    core._SCRATCH_ROWS (8192) rows or more times the split fit, whose two
    column halves are fitted in forked helpers at once.
    """
    counts = as_tuple(sizes)
    if not counts:
        raise ConfigError(f"probe sizes must be a non-empty sequence of counts, got {sizes!r}")
    for n in counts:
        check("probe size", n)
    check("probe dim", dim)
    check("seed", seed)
    check("repeats", repeats)
    check("iterations", iterations)
    rows = []
    for i, n in enumerate(counts):
        rng = np.random.default_rng(derive_seed(seed, i))
        X = rng.normal(size=(n, dim))
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            train_ref(X, iterations=iterations)
            times.append(time.perf_counter() - started)
        rows.append(ProbeRow(n=n, dim=dim, iterations=iterations, times=tuple(times)))
    return ProbeReport(rows=tuple(rows))
